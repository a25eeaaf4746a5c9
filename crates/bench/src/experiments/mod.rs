//! One module per paper table/figure. Every `run` function *returns* the
//! same rows/series the paper reports (with the paper's numbers cited
//! where published), measured on the simulated cluster, as rendered text.
//!
//! Experiments are compute-then-render: each data point is an independent
//! cluster simulation submitted to [`crate::runpar`], and rendering joins
//! the results in submission order — so the output is byte-identical at
//! any `--jobs` level, and whole experiments can themselves run
//! concurrently.

pub mod ablate;
pub mod btio_figs;
pub mod faults;
pub mod fig12;
pub mod fig13;
pub mod fig2;
pub mod fig3;
pub mod fig4_5;
pub mod fig6_7;
pub mod fig8;
pub mod logmaint;
pub mod recovery;
pub mod summary;
pub mod tables;

use crate::Scale;

/// An experiment: its CLI name, what it regenerates, and its runner.
pub struct Experiment {
    /// CLI name (e.g. `fig4`).
    pub name: &'static str,
    /// What it reproduces.
    pub what: &'static str,
    /// Runner: computes every data point (in parallel where the budget
    /// allows) and returns the rendered tables/notes.
    pub run: fn(&Scale) -> String,
}

/// All experiments in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table1",
            what: "Table I: unaligned/random percentages of the four traces",
            run: tables::table1,
        },
        Experiment {
            name: "table2",
            what: "Table II: device microbenchmark (4 KB requests)",
            run: tables::table2,
        },
        Experiment {
            name: "fig2a",
            what: "Fig 2(a): stock throughput vs request size and process count",
            run: fig2::fig2a,
        },
        Experiment {
            name: "fig2b",
            what: "Fig 2(b): stock throughput, 64 KB requests with offsets",
            run: fig2::fig2b,
        },
        Experiment {
            name: "fig2cde",
            what: "Fig 2(c,d,e): block-level request size distributions",
            run: fig2::fig2cde,
        },
        Experiment {
            name: "fig3",
            what: "Fig 3: striping magnification effect",
            run: fig3::run,
        },
        Experiment {
            name: "fig4",
            what: "Fig 4(a,b): mpi-io-test with iBridge, sizes and offsets",
            run: fig4_5::fig4,
        },
        Experiment {
            name: "fig5",
            what: "Fig 5: block-level distribution with iBridge (+10 KB reads)",
            run: fig4_5::fig5,
        },
        Experiment {
            name: "fig6",
            what: "Fig 6: scalability with process count (65 KB requests)",
            run: fig6_7::fig6,
        },
        Experiment {
            name: "fig7",
            what: "Fig 7(a,b): scalability with data-server count",
            run: fig6_7::fig7,
        },
        Experiment {
            name: "fig8",
            what: "Fig 8(a,b): ior-mpi-io across request sizes",
            run: fig8::run,
        },
        Experiment {
            name: "fig9",
            what: "Fig 9: BTIO execution time vs process count",
            run: btio_figs::fig9,
        },
        Experiment {
            name: "fig10",
            what: "Fig 10: BTIO on disk-only vs SSD-only vs iBridge",
            run: btio_figs::fig10,
        },
        Experiment {
            name: "fig11",
            what: "Fig 11: BTIO I/O time vs SSD capacity",
            run: btio_figs::fig11,
        },
        Experiment {
            name: "table3",
            what: "Table III: trace-replay request service times",
            run: tables::table3,
        },
        Experiment {
            name: "fig12",
            what: "Fig 12: heterogeneous workloads and SSD partitioning",
            run: fig12::run,
        },
        Experiment {
            name: "fig13",
            what: "Fig 13: request-size threshold sweep",
            run: fig13::run,
        },
        Experiment {
            name: "ablate",
            what: "Ablations: Eq. 3 boost, CFQ anticipation, schedulers, NCQ, \
                   collective I/O, data sieving, networks (beyond the paper)",
            run: ablate::run,
        },
        Experiment {
            name: "faults",
            what: "Fault injection: crash, SSD loss, fail-slow, network faults \
                   vs the faultless baseline (beyond the paper)",
            run: faults::run,
        },
        Experiment {
            name: "recovery",
            what: "Crash recovery: log corruption plans vs the recovery fsck, \
                   plus a segment-parallel backup scan (beyond the paper)",
            run: recovery::run,
        },
        Experiment {
            name: "logmaint",
            what: "Backup-log maintenance: segmented log compaction, indexed \
                   checkpoints, idle-window scheduling and O(dirty) recovery \
                   (beyond the paper)",
            run: logmaint::run,
        },
        Experiment {
            name: "summary",
            what: "Headline comparisons, mean ± sd over 5 seeds",
            run: summary::run,
        },
    ]
}
