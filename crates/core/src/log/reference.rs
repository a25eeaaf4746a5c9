//! The B-tree circular log the ring replaced, kept as a test oracle.
//!
//! It holds only live regions (keyed by start sector), an owner map and
//! a protected set, and checks every append against the B-tree. The
//! differential test in the parent module drives it and the ring with
//! the same operations and demands identical answers.

use super::{AppendError, EntryId};
use ibridge_device::Lbn;
use ibridge_localfs::{Extent, ExtentList};
use std::collections::{BTreeMap, HashMap, HashSet};

#[derive(Debug, Clone, Copy)]
struct Resident {
    sectors: u64,
    entry: EntryId,
}

/// Reference circular log: same contract as `CircularLog`.
#[derive(Debug)]
pub struct BTreeLog {
    capacity: u64,
    head: Lbn,
    residents: BTreeMap<Lbn, Resident>,
    owned: HashMap<EntryId, ExtentList>,
    protected: HashSet<EntryId>,
}

impl BTreeLog {
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "empty log");
        BTreeLog {
            capacity,
            head: 0,
            residents: BTreeMap::new(),
            owned: HashMap::new(),
            protected: HashSet::new(),
        }
    }

    pub fn head(&self) -> Lbn {
        self.head
    }

    pub fn protect(&mut self, entry: EntryId) {
        self.protected.insert(entry);
    }

    pub fn unprotect(&mut self, entry: EntryId) {
        self.protected.remove(&entry);
    }

    pub fn evict(&mut self, entry: EntryId) {
        self.drop_owned(entry);
        self.protected.remove(&entry);
    }

    fn drop_owned(&mut self, entry: EntryId) {
        if let Some(extents) = self.owned.remove(&entry) {
            for e in &extents {
                self.residents.remove(&e.lbn);
            }
        }
    }

    fn claim(&mut self, start: Lbn, sectors: u64, entry: EntryId) {
        self.residents.insert(start, Resident { sectors, entry });
        self.owned.entry(entry).or_default().push(Extent {
            lbn: start,
            sectors,
        });
    }

    /// Residents intersecting `[start, start+len)` (no wrap).
    fn touching(&self, start: Lbn, len: u64) -> impl Iterator<Item = Resident> + '_ {
        let before = self
            .residents
            .range(..start)
            .next_back()
            .filter(|(&s, r)| s + r.sectors > start)
            .map(|(_, &r)| r);
        before
            .into_iter()
            .chain(self.residents.range(start..start + len).map(|(_, &r)| r))
    }

    pub fn append(
        &mut self,
        sectors: u64,
        entry: EntryId,
    ) -> Result<(ExtentList, Vec<EntryId>), AppendError> {
        assert!(sectors > 0, "zero-length append");
        if sectors > self.capacity {
            return Err(AppendError::TooLarge);
        }
        let first_len = sectors.min(self.capacity - self.head);
        let mut extents = ExtentList::one(Extent {
            lbn: self.head,
            sectors: first_len,
        });
        if first_len < sectors {
            extents.push(Extent {
                lbn: 0,
                sectors: sectors - first_len,
            });
        }
        let mut casualties = Vec::new();
        for e in &extents {
            for r in self.touching(e.lbn, e.sectors) {
                if self.protected.contains(&r.entry) {
                    return Err(AppendError::BlockedByDirty);
                }
                casualties.push(r.entry);
            }
        }
        casualties.sort_unstable();
        casualties.dedup();
        for id in &casualties {
            self.drop_owned(*id);
        }
        for e in &extents {
            self.claim(e.lbn, e.sectors, entry);
        }
        self.head = (self.head + sectors) % self.capacity;
        Ok((extents, casualties))
    }

    pub fn append_with_header(
        &mut self,
        data_sectors: u64,
        header_sectors: u64,
        entry: EntryId,
    ) -> Result<(ExtentList, Vec<EntryId>), AppendError> {
        let (mut extents, casualties) = self.append(data_sectors + header_sectors, entry)?;
        let mut left = header_sectors;
        while left > 0 {
            let last = extents.as_mut_slice().last_mut().expect("extents");
            if last.sectors > left {
                last.sectors -= left;
                left = 0;
            } else {
                left -= last.sectors;
                extents.pop();
            }
        }
        Ok((extents, casualties))
    }

    pub fn resident_sectors(&self) -> u64 {
        self.residents.values().map(|r| r.sectors).sum()
    }

    pub fn reserve_at(&mut self, extents: &[Extent], entry: EntryId) -> Result<(), AppendError> {
        for e in extents {
            if self.touching(e.lbn, e.sectors).next().is_some() {
                return Err(AppendError::BlockedByDirty);
            }
        }
        for e in extents {
            self.claim(e.lbn, e.sectors, entry);
        }
        Ok(())
    }

    pub fn set_head(&mut self, head: Lbn) {
        self.head = head % self.capacity;
    }
}
