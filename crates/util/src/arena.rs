//! Arena-backed symbol tables.
//!
//! [`ArenaTable`] is the one hash table behind every interner in the
//! workspace: [`crate::Interner`] (tag names, attribute names, terms) keeps
//! its strings in a `String`, and `cxk_xml::PathTable` keeps its label
//! paths in a `Vec<Symbol>`. Either way the keys sit back to back in one
//! buffer, a `Vec<u32>` holds where each one ends, and a key's id is its
//! position in insertion order. Lookup goes through a power-of-two slot
//! vector, at most half full, probed linearly; each slot holds `id + 1`
//! (`0` marks an empty slot) and 32 bits of the key's hash, so a probe
//! compares keys only when those bits match, and growing the slots never
//! rehashes a key.
//!
//! A table is therefore three allocations whatever it holds: interning
//! allocates only when a buffer grows, a clone is three buffer copies and
//! a drop is three frees. A model's label, term and path tables are
//! decoded, cloned into every worker's session and freed at each hot
//! swap, so those costs no longer grow with the vocabulary.
//!
//! Keys are hashed with [`FxHasher`]. Fx ends in a multiply, whose low
//! bits depend only on the low bits of its input, so the slot index is
//! taken from the product's high bits, rotated down (as `rustc-hash` 2
//! does). Keys are hashed through [`Hash`], whose trailing byte (`str`) or
//! leading length (slices) adds one more multiply: with it even the low
//! bits spread the terms of a trained model's vocabulary (about 1.24
//! probes per term either way), while slots indexed by the low bits of a
//! bare [`Hasher::write`] took 2.6 probes per term (1.4 rotated).

use crate::hash::FxHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// A growable buffer that stores keys back to back: a [`String`] stores
/// `str` keys, a `Vec<T>` stores `[T]` keys. Offsets and lengths count
/// the buffer's units (bytes of a `String`, elements of a `Vec`).
pub trait KeyArena: Default + Clone {
    /// The borrowed key type.
    type Key: ?Sized + Eq + Hash + fmt::Debug;

    /// An empty buffer with room for `units` units.
    fn with_capacity(units: usize) -> Self;

    /// Units stored so far.
    fn units(&self) -> usize;

    /// Appends `key`.
    fn push_key(&mut self, key: &Self::Key);

    /// The key stored at `range`, which a `push_key` call produced.
    fn key(&self, range: Range<usize>) -> &Self::Key;

    /// Removes every key, keeping the capacity.
    fn clear(&mut self);
}

impl KeyArena for String {
    type Key = str;

    fn with_capacity(units: usize) -> Self {
        String::with_capacity(units)
    }

    fn units(&self) -> usize {
        self.len()
    }

    fn push_key(&mut self, key: &str) {
        self.push_str(key);
    }

    fn key(&self, range: Range<usize>) -> &str {
        &self[range]
    }

    fn clear(&mut self) {
        String::clear(self);
    }
}

impl<T: Copy + Eq + Hash + fmt::Debug> KeyArena for Vec<T> {
    type Key = [T];

    fn with_capacity(units: usize) -> Self {
        Vec::with_capacity(units)
    }

    fn units(&self) -> usize {
        self.len()
    }

    fn push_key(&mut self, key: &[T]) {
        self.extend_from_slice(key);
    }

    fn key(&self, range: Range<usize>) -> &[T] {
        &self[range]
    }

    fn clear(&mut self) {
        Vec::clear(self);
    }
}

/// One slot of the lookup vector: `id + 1` of the key it points at (`0`
/// when empty) and the key's 32 hash bits.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    id1: u32,
    hash: u32,
}

/// Slots of the smallest non-empty table.
const MIN_SLOTS: usize = 8;

/// The key's 32 hash bits: the high bits of the Fx product, rotated down
/// so that masking them picks the slot.
#[inline]
fn hash_of<K: Hash + ?Sized>(key: &K) -> u32 {
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    hasher.finish().rotate_left(26) as u32
}

/// A slot vector length that keeps `keys` keys at most half full.
fn slots_for(keys: usize) -> usize {
    keys.saturating_mul(2).next_power_of_two().max(MIN_SLOTS)
}

/// A table mapping keys to dense `u32` ids in insertion order, append-only
/// until cleared, its keys stored back to back in one `A` (see the module
/// docs).
#[derive(Clone, Default)]
pub struct ArenaTable<A> {
    /// Every key, back to back, in id order.
    keys: A,
    /// Where key `id` ends in `keys`; it starts where `id - 1` ends.
    ends: Vec<u32>,
    /// The lookup slots: empty, or a power of two at most half full.
    slots: Vec<Slot>,
}

impl<A: KeyArena> ArenaTable<A> {
    /// An empty table; it allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `keys` keys of `units` units in total.
    pub fn with_capacity(keys: usize, units: usize) -> Self {
        Self {
            keys: A::with_capacity(units),
            ends: Vec::with_capacity(keys),
            slots: if keys == 0 {
                Vec::new()
            } else {
                vec![Slot::default(); slots_for(keys)]
            },
        }
    }

    /// Interns `key`, returning its id; equal keys get equal ids.
    ///
    /// # Panics
    /// Panics with `interner overflow` past `u32::MAX` keys or units.
    pub fn intern(&mut self, key: &A::Key) -> u32 {
        match self.insert_new(key) {
            Ok(id) | Err(id) => id,
        }
    }

    /// Interns `key` as a new entry: `Ok` with its id, or `Err` with the id
    /// it already has (the table is unchanged).
    ///
    /// # Panics
    /// Panics with `interner overflow` past `u32::MAX` keys or units.
    pub fn insert_new(&mut self, key: &A::Key) -> Result<u32, u32> {
        let hash = hash_of(key);
        if let Some(id) = self.find(key, hash) {
            return Err(id);
        }
        let id = self.ends.len();
        if 2 * (id + 1) > self.slots.len() {
            self.grow(slots_for(id + 1));
        }
        // cxk-lint: allow(panic-freedom) -- 2^32 keys or key units, far beyond any corpus
        let id1 = u32::try_from(id + 1).expect("interner overflow");
        // A key pushed past the last end is never read, so an overflow
        // leaves every id resolving as before.
        self.keys.push_key(key);
        // cxk-lint: allow(panic-freedom) -- 2^32 keys or key units, far beyond any corpus
        let end = u32::try_from(self.keys.units()).expect("interner overflow");
        self.ends.push(end);
        let slot = self.vacant(hash);
        self.slots[slot] = Slot { id1, hash };
        Ok(id1 - 1)
    }

    /// The id of `key`, without inserting it.
    pub fn get(&self, key: &A::Key) -> Option<u32> {
        self.find(key, hash_of(key))
    }

    /// The key with id `id`.
    ///
    /// # Panics
    /// Panics if no key has id `id`.
    pub fn resolve(&self, id: u32) -> &A::Key {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        self.keys.key(start..self.ends[id] as usize)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table holds no key.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Removes every key, keeping the buffers, so a table refilled with
    /// about as many keys as it held allocates nothing. The slots shrink to
    /// what the removed keys needed, so clearing stays proportional to the
    /// last fill rather than to the largest.
    pub fn clear(&mut self) {
        let fit = slots_for(self.ends.len());
        if self.slots.len() > fit {
            self.slots.truncate(fit);
        }
        self.slots.fill(Slot::default());
        self.keys.clear();
        self.ends.clear();
    }

    /// `(id, key)` pairs in id (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &A::Key)> + '_ {
        let mut start = 0;
        self.ends.iter().enumerate().map(move |(id, &end)| {
            let key = self.keys.key(start..end as usize);
            start = end as usize;
            (id as u32, key)
        })
    }

    /// The id of `key`, whose hash bits are `hash`.
    fn find(&self, key: &A::Key, hash: u32) -> Option<u32> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            let id = slot.id1.checked_sub(1)?;
            if slot.hash == hash && self.resolve(id) == key {
                return Some(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// The first empty slot of the probe sequence of `hash`. The slots must
    /// be non-empty and not full.
    fn vacant(&self, hash: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while self.slots[at].id1 != 0 {
            at = (at + 1) & mask;
        }
        at
    }

    /// Moves every slot into a vector of `len` slots, by its stored hash.
    fn grow(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); len]);
        for slot in old.into_iter().filter(|slot| slot.id1 != 0) {
            let at = self.vacant(slot.hash);
            self.slots[at] = slot;
        }
    }
}

impl<A: KeyArena> fmt::Debug for ArenaTable<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|(_, key)| key))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_new_reports_the_existing_id() {
        let mut table = ArenaTable::<Vec<u32>>::new();
        assert_eq!(table.insert_new(&[1, 2]), Ok(0));
        assert_eq!(table.insert_new(&[]), Ok(1));
        assert_eq!(table.insert_new(&[1, 2]), Err(0));
        assert_eq!(table.insert_new(&[]), Err(1));
        assert_eq!(table.len(), 2);
        assert_eq!(table.resolve(0), &[1, 2]);
        assert_eq!(table.resolve(1), &[] as &[u32]);
    }

    #[test]
    fn an_empty_table_allocates_nothing_and_finds_nothing() {
        let table = ArenaTable::<String>::with_capacity(0, 0);
        assert!(table.slots.is_empty());
        assert_eq!(table.get(""), None);
        assert!(table.is_empty());
    }

    #[test]
    fn growth_keeps_every_key_and_the_load_at_most_half() {
        let mut table = ArenaTable::<String>::new();
        for i in 0..1000u32 {
            assert_eq!(table.intern(&i.to_string()), i);
            assert!(2 * table.len() <= table.slots.len());
            assert!(table.slots.len().is_power_of_two());
        }
        for i in 0..1000u32 {
            assert_eq!(table.get(&i.to_string()), Some(i));
            assert_eq!(table.resolve(i), i.to_string());
        }
    }

    #[test]
    fn with_capacity_needs_no_growth() {
        let mut table = ArenaTable::<String>::with_capacity(100, 300);
        let slots = table.slots.len();
        for i in 0..100 {
            table.intern(&format!("{i:03}"));
        }
        assert_eq!(table.slots.len(), slots);
        assert_eq!(table.keys.capacity(), 300);
        assert_eq!(table.ends.capacity(), 100);
    }

    #[test]
    fn debug_lists_the_keys_in_order() {
        let mut table = ArenaTable::<String>::new();
        table.intern("x");
        table.intern("y");
        assert_eq!(format!("{table:?}"), r#"["x", "y"]"#);
    }
}
