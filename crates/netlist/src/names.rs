//! Interned element names: one byte buffer and one open-addressing
//! index per namespace.
//!
//! A module's instance names (and, separately, its net names) are
//! appended to one `String`; element `i`'s name is the byte range
//! `starts[i]..starts[i + 1]`. Lookup goes through a linear-probing
//! table of `u32` ids tagged with 32 bits of the name's hash, so a
//! probe compares name bytes only on a tag match and a resize rehashes
//! from the tags without touching a name.
//!
//! The hash is std's per-process keyed `RandomState`: names arrive in
//! client payloads, and an unkeyed hash would let a client flood the
//! index with collisions.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// An empty index slot. Occupied slots store `id + 1`, which is nonzero
/// and fits in `u32` (the arenas keep ids below `u32::MAX`), so a fresh
/// index is zeroed memory, which the allocator can hand out unwritten.
const EMPTY: u64 = 0;

#[derive(Clone, Debug)]
pub(crate) struct Names {
    bytes: String,
    /// `len() + 1` offsets into `bytes`.
    starts: Vec<u32>,
    /// `EMPTY`, or `tag << 32 | (id + 1)` where `tag` is the name's
    /// hash.
    slots: Vec<u64>,
    hasher: RandomState,
}

impl Names {
    pub(crate) fn new() -> Names {
        Names {
            bytes: String::new(),
            starts: vec![0],
            slots: Vec::new(),
            hasher: RandomState::new(),
        }
    }

    /// The number of names.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// The name of element `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub(crate) fn get(&self, id: u32) -> &str {
        let i = id as usize;
        &self.bytes[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// The id of `name`, if present.
    pub(crate) fn find(&self, name: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(name, self.tag(name)).1
    }

    /// Appends `name` as element `len()`, or returns the id it already
    /// has as the error.
    pub(crate) fn insert(&mut self, name: &str) -> Result<u32, u32> {
        self.reserve_index(1);
        let tag = self.tag(name);
        let (slot, found) = self.probe(name, tag);
        if let Some(id) = found {
            return Err(id);
        }
        let id = self.len() as u32;
        self.bytes.push_str(name);
        let end = u32::try_from(self.bytes.len()).expect("name bytes exceed the u32 offset space");
        self.starts.push(end);
        self.slots[slot] = (tag as u64) << 32 | (id as u64 + 1);
        Ok(id)
    }

    /// Sizes the index for `additional` more names without a rehash,
    /// and the buffer for `bytes` more name bytes.
    pub(crate) fn reserve(&mut self, additional: usize, bytes: usize) {
        self.bytes.reserve(bytes);
        self.starts.reserve(additional);
        self.reserve_index(additional);
    }

    fn reserve_index(&mut self, additional: usize) {
        let want = self.len() + additional;
        if want * 2 > self.slots.len() {
            self.rehash(slots_for(want));
        }
    }

    fn rehash(&mut self, capacity: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; capacity]);
        let mask = capacity - 1;
        for entry in old.into_iter().filter(|&s| s != EMPTY) {
            let mut i = (entry >> 32) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = entry;
        }
    }

    /// Releases spare buffer capacity and the index slots an
    /// over-estimated [`Names::reserve`] left unused.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.starts.shrink_to_fit();
        let fit = slots_for(self.len());
        if fit < self.slots.len() {
            self.rehash(fit);
        }
    }

    fn tag(&self, name: &str) -> u32 {
        // The bytes alone: one string per hash needs no terminator.
        let mut hasher = self.hasher.build_hasher();
        hasher.write(name.as_bytes());
        hasher.finish() as u32
    }

    /// Walks `name`'s probe sequence: the slot where the walk stopped,
    /// and the id found there, if any.
    fn probe(&self, name: &str, tag: u32) -> (usize, Option<u32>) {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let entry = self.slots[i];
            if entry == EMPTY {
                return (i, None);
            }
            let id = entry as u32 - 1;
            if (entry >> 32) as u32 == tag && self.get(id) == name {
                return (i, Some(id));
            }
            i = (i + 1) & mask;
        }
    }
}

/// The fewest index slots that keep the load factor at or under one
/// half for `names` names.
fn slots_for(names: usize) -> usize {
    (names * 2).next_power_of_two().max(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_find_and_duplicates() {
        let mut names = Names::new();
        assert_eq!(names.find("a"), None);
        for i in 0..1000u32 {
            assert_eq!(names.insert(&format!("n{i}")), Ok(i));
        }
        assert_eq!(names.insert("n17"), Err(17));
        assert_eq!(names.insert(""), Ok(1000), "the empty name is a name");
        for i in 0..1000u32 {
            assert_eq!(names.find(&format!("n{i}")), Some(i));
            assert_eq!(names.get(i), format!("n{i}"));
        }
        assert_eq!(names.find("n1000"), None);
        assert_eq!(names.find(""), Some(1000));
        assert_eq!(names.len(), 1001);
    }

    #[test]
    fn reserve_keeps_every_name_findable() {
        let mut names = Names::new();
        names.insert("x").unwrap();
        names.reserve(10_000, 0);
        let slots = names.slots.len();
        for i in 0..10_000 {
            names.insert(&i.to_string()).unwrap();
        }
        assert_eq!(names.slots.len(), slots, "reserved: no rehash");
        assert_eq!(names.find("x"), Some(0));
        assert_eq!(names.find("9999"), Some(10_000));
    }

    #[test]
    fn shrink_to_fit_releases_an_over_reservation() {
        let mut names = Names::new();
        names.reserve(10_000, 0);
        for i in 0..100 {
            names.insert(&i.to_string()).unwrap();
        }
        names.shrink_to_fit();
        assert_eq!(names.slots.len(), 256);
        for i in 0..100u32 {
            assert_eq!(names.find(&i.to_string()), Some(i));
        }
        assert_eq!(names.insert("100"), Ok(100), "still growable");
    }
}
