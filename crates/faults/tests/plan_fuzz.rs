//! The fault-plan parser is total: whatever text it is given, it
//! returns a plan or an error, and never panics. Every plan it accepts
//! compiles into a [`FaultInjector`], arms, and yields a retry schedule
//! whose longest wait is computable.
//!
//! The inputs are the builtin plans, mutated byte by byte and token by
//! token: keys, directives and values swapped, values emptied, and
//! numbers pushed to the extremes (`u64::MAX`, `1e308`, `NaN`, `inf`,
//! `-0`, subnormals).

use ibridge_faults::{FaultInjector, FaultPlan, BUILTIN_PLANS};
use proptest::prelude::*;

const KEYS: &[&str] = &[
    "server", "at", "restart", "from", "until", "factor", "dev", "drop", "delay", "delay-by",
    "dup", "records", "sectors", "target", "timeout", "backoff", "max", "", "=",
];

const DIRECTIVES: &[&str] = &[
    "retry",
    "crash",
    "ssd-loss",
    "fail-slow",
    "net",
    "torn-write",
    "bit-rot",
    "mds-crash",
    "#",
    "",
];

const VALUES: &[&str] = &[
    "18446744073709551615",
    "18446744073709551616",
    "18446744073709551615s",
    "18446744073709551615ns",
    "4294967295",
    "4294967296",
    "2147483648",
    "1e308",
    "1e308s",
    "1e308ns",
    "-1e308ms",
    "1e-320s",
    "1e-320",
    "4.9e-324",
    "1000000000s",
    "1000000000.000001s",
    "999999999.9999999s",
    "NaN",
    "nan",
    "NaNms",
    "inf",
    "-inf",
    "infs",
    "infinityus",
    "-0",
    "-0ms",
    "+0s",
    "0",
    "0s",
    "0.0",
    "1",
    "0.5",
    "64",
    "64.0000001",
    "1025",
    "1e6",
    "1e6.1",
    "primary",
    "cache",
    "any",
    "tail",
    "checkpoint",
    "ms",
    "s",
    "-",
    "",
    "==",
    "é",
];

/// One mutation of the plan text, driven by three random words.
fn mutate(text: &mut Vec<u8>, op: u8, a: u64, b: u64) {
    let pick = |list: &[&str], x: u64| list[(x % list.len() as u64) as usize].as_bytes().to_vec();
    let at = |len: usize| {
        if len == 0 {
            0
        } else {
            (a % len as u64) as usize
        }
    };
    match op % 8 {
        // Byte level: overwrite, insert or delete one byte.
        0 => {
            let i = at(text.len());
            if let Some(c) = text.get_mut(i) {
                *c = b as u8;
            }
        }
        1 => text.insert(at(text.len() + 1).min(text.len()), b as u8),
        2 => {
            if !text.is_empty() {
                let i = at(text.len());
                text.remove(i);
            }
        }
        // Token level: the text is split on spaces and newlines, one
        // token is rewritten, and the text is joined back.
        op => {
            let mut lines: Vec<Vec<Vec<u8>>> = text
                .split(|&c| c == b'\n')
                .map(|l| l.split(|&c| c == b' ').map(<[u8]>::to_vec).collect())
                .collect();
            let n_tokens: usize = lines.iter().map(Vec::len).sum();
            let mut k = at(n_tokens);
            let Some(token) = lines.iter_mut().flatten().find(|_| {
                let hit = k == 0;
                k = k.wrapping_sub(1);
                hit
            }) else {
                return;
            };
            let eq = token.iter().position(|&c| c == b'=');
            match (op, eq) {
                // Extreme or foreign value after the `=`.
                (3, Some(e)) | (4, Some(e)) => {
                    token.truncate(e + 1);
                    token.extend(pick(VALUES, b));
                }
                // Another key before the `=`.
                (5, Some(e)) => {
                    let mut t = pick(KEYS, b);
                    t.extend_from_slice(&token[e..]);
                    *token = t;
                }
                // A directive in place of the token.
                (5, None) | (6, _) => *token = pick(DIRECTIVES, b),
                // Duplicate the token, or drop it.
                (7, _) if b.is_multiple_of(2) => {
                    let dup = token.clone();
                    token.push(b' ');
                    token.extend(dup);
                }
                _ => token.clear(),
            }
            let joined: Vec<Vec<u8>> = lines.into_iter().map(|l| l.join(&b' ')).collect();
            *text = joined.join(&b'\n');
        }
    }
}

/// Parses `text`; an accepted plan must compile, arm, build a network
/// decider and compute its longest retry wait.
fn check(text: &str, seed: u64) {
    if let Ok(plan) = FaultPlan::parse(text) {
        let mut inj = FaultInjector::new(&plan, seed);
        inj.arm();
        let _ = inj.net_decider(seed, 0);
        let retry = inj.retry();
        retry.backoff_delay(retry.max_retries);
    }
}

proptest! {
    #[test]
    fn mutated_builtin_plans_parse_or_fail_cleanly(
        plan in 0usize..64,
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..12),
        seed in any::<u64>(),
    ) {
        let mut text = BUILTIN_PLANS[plan % BUILTIN_PLANS.len()].source.as_bytes().to_vec();
        for &(op, a, b) in &ops {
            mutate(&mut text, op, a, b);
        }
        check(&String::from_utf8_lossy(&text), seed);
    }
}

#[test]
fn extreme_values_in_every_builtin_key_parse_or_fail_cleanly() {
    // Exhaustive over one axis: every listed value in every key=value
    // slot of every builtin plan, the other lines left as they are.
    for p in BUILTIN_PLANS {
        let lines: Vec<&str> = p.source.lines().collect();
        for (li, line) in lines.iter().enumerate() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            for (ti, t) in tokens.iter().enumerate() {
                let Some((key, _)) = t.split_once('=') else {
                    continue;
                };
                for v in VALUES {
                    let mut toks: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
                    toks[ti] = format!("{key}={v}");
                    let mut text: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                    text[li] = toks.join(" ");
                    check(&text.join("\n"), 7);
                }
            }
        }
    }
}
