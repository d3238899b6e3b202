//! The **section-object map** (paper §5.3, Figure 3a): which shared objects
//! each critical section accesses, and with what permission.
//!
//! The map is learned progressively: every identification fault adds an
//! entry, and proactive key acquisition at section entry consults it. A
//! section's objects are kept in the order that entry reads them —
//! ascending [`ObjectId`] — so a plan rebuild copies them out as they
//! lie, and a section whose last object is freed leaves no entry behind.

use crate::types::{Perm, SectionId};
use kard_alloc::ObjectId;
use std::collections::{BTreeMap, HashMap};

/// What one [`SectionObjectMap::record`] call changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recorded {
    /// The section had no entry for the object: its object list grew.
    Added,
    /// The entry existed with read permission and now carries write.
    Widened,
    /// The entry already carried at least this permission: nothing moved.
    Known,
}

/// The section-object map.
#[derive(Clone, Debug, Default)]
pub struct SectionObjectMap {
    by_section: HashMap<SectionId, BTreeMap<ObjectId, Perm>>,
    by_object: HashMap<ObjectId, Vec<SectionId>>,
}

impl SectionObjectMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> SectionObjectMap {
        SectionObjectMap::default()
    }

    /// Record that section `s` accesses `o` with `perm`. Permissions only
    /// widen (read joins to write, never narrows). Returns what changed,
    /// which is what decides whether a plan built from the map still holds.
    pub fn record(&mut self, s: SectionId, o: ObjectId, perm: Perm) -> Recorded {
        match self.by_section.entry(s).or_default().entry(o) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let joined = e.get().join(perm);
                if e.insert(joined) == joined {
                    Recorded::Known
                } else {
                    Recorded::Widened
                }
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(perm);
                self.by_object.entry(o).or_default().push(s);
                Recorded::Added
            }
        }
    }

    /// Objects known to be accessed by `s`, with permissions, in ascending
    /// object-id order — the order section entry acquires their keys in.
    pub fn objects_in(&self, s: SectionId) -> impl Iterator<Item = (ObjectId, Perm)> + '_ {
        self.by_section
            .get(&s)
            .map(BTreeMap::iter)
            .unwrap_or_default()
            .map(|(&o, &p)| (o, p))
    }

    /// Whether section `s` is known to access `o` at all.
    #[must_use]
    pub fn section_accesses(&self, s: SectionId, o: ObjectId) -> bool {
        self.by_section
            .get(&s)
            .is_some_and(|m| m.contains_key(&o))
    }

    /// The sections known to access `o`: the ones a change to `o` can
    /// reach, and the only ones.
    #[must_use]
    pub fn sections_accessing(&self, o: ObjectId) -> &[SectionId] {
        self.by_object.get(&o).map_or(&[], Vec::as_slice)
    }

    /// Remove every trace of `o` (called when the object is freed),
    /// and with it any section left with no object.
    pub fn remove_object(&mut self, o: ObjectId) {
        if let Some(sections) = self.by_object.remove(&o) {
            for s in sections {
                if let Some(m) = self.by_section.get_mut(&s) {
                    m.remove(&o);
                    if m.is_empty() {
                        self.by_section.remove(&s);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kard_sim::CodeSite;

    fn s(n: u64) -> SectionId {
        SectionId(CodeSite(n))
    }

    fn objects(map: &SectionObjectMap, s: SectionId) -> Vec<(ObjectId, Perm)> {
        map.objects_in(s).collect()
    }

    #[test]
    fn record_and_query() {
        let mut map = SectionObjectMap::new();
        map.record(s(1), ObjectId(10), Perm::Read);
        map.record(s(1), ObjectId(11), Perm::Write);
        assert_eq!(
            objects(&map, s(1)),
            vec![(ObjectId(10), Perm::Read), (ObjectId(11), Perm::Write)]
        );
        assert!(map.section_accesses(s(1), ObjectId(10)));
        assert!(!map.section_accesses(s(2), ObjectId(10)));
        assert!(objects(&map, s(2)).is_empty());
    }

    #[test]
    fn permissions_widen_but_never_narrow() {
        let mut map = SectionObjectMap::new();
        map.record(s(1), ObjectId(1), Perm::Read);
        assert_eq!(objects(&map, s(1)), vec![(ObjectId(1), Perm::Read)]);
        map.record(s(1), ObjectId(1), Perm::Write);
        assert_eq!(objects(&map, s(1)), vec![(ObjectId(1), Perm::Write)]);
        map.record(s(1), ObjectId(1), Perm::Read);
        assert_eq!(objects(&map, s(1)), vec![(ObjectId(1), Perm::Write)]);
    }

    #[test]
    fn objects_iterate_ascending_whatever_the_recording_order() {
        let mut map = SectionObjectMap::new();
        for id in [9, 7, 5] {
            map.record(s(1), ObjectId(id), Perm::Read);
        }
        for id in [6, 8, 4] {
            map.record(s(1), ObjectId(id), Perm::Write);
        }
        map.record(s(1), ObjectId(7), Perm::Write);
        map.remove_object(ObjectId(6));
        map.record(s(1), ObjectId(6), Perm::Read);
        let r = |id| (ObjectId(id), Perm::Read);
        let w = |id| (ObjectId(id), Perm::Write);
        assert_eq!(objects(&map, s(1)), vec![w(4), r(5), r(6), w(7), w(8), r(9)]);
    }

    #[test]
    fn remove_object_clears_both_indexes() {
        let mut map = SectionObjectMap::new();
        map.record(s(1), ObjectId(1), Perm::Write);
        map.record(s(1), ObjectId(2), Perm::Read);
        map.remove_object(ObjectId(1));
        assert!(!map.section_accesses(s(1), ObjectId(1)));
        assert!(map.section_accesses(s(1), ObjectId(2)));
        assert!(!map.by_object.contains_key(&ObjectId(1)));
    }

    #[test]
    fn emptied_section_leaves_nothing_behind() {
        let mut map = SectionObjectMap::new();
        map.record(s(1), ObjectId(1), Perm::Write);
        let sections_before = map.by_section.len();
        map.record(s(2), ObjectId(2), Perm::Read);
        map.record(s(2), ObjectId(3), Perm::Read);
        map.remove_object(ObjectId(2));
        assert_eq!(map.by_section.len(), sections_before + 1);
        map.remove_object(ObjectId(3));
        assert_eq!(map.by_section.len(), sections_before);
        assert!(objects(&map, s(2)).is_empty());
        assert_eq!(map.record(s(2), ObjectId(4), Perm::Write), Recorded::Added);
        assert_eq!(objects(&map, s(2)), vec![(ObjectId(4), Perm::Write)]);
    }
}
