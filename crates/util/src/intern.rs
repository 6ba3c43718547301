//! String interning.
//!
//! Tag names, attribute names and index terms recur millions of times across
//! a corpus; interning maps each distinct string to a dense [`Symbol`] so the
//! rest of the pipeline compares and hashes 4-byte integers instead of
//! strings. Symbols are only meaningful relative to the [`Interner`] that
//! produced them.

use crate::hash::FxHashMap;

/// A dense identifier for an interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol's index into the interner's storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A append-only string interner with O(1) two-way lookup.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: FxHashMap<Box<str>, Symbol>,
    strings: Vec<Box<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner with room for `capacity` distinct strings.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            map: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            strings: Vec::with_capacity(capacity),
        }
    }

    /// Interns `s`, returning its symbol. Repeated calls with equal strings
    /// return equal symbols.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        // cxk-lint: allow(panic-freedom) -- guards 2^32 distinct strings, far beyond any corpus
        let sym = Symbol(u32::try_from(self.strings.len()).expect("interner overflow"));
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Looks up a previously interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(Symbol, &str)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut interner = Interner::new();
        let a1 = interner.intern("author");
        let a2 = interner.intern("author");
        assert_eq!(a1, a2);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn symbols_are_dense_and_ordered() {
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let b = interner.intern("b");
        let c = interner.intern("c");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
    }

    #[test]
    fn resolve_round_trips() {
        let mut interner = Interner::new();
        let words = ["dblp", "inproceedings", "title", "S", "@key"];
        let syms: Vec<Symbol> = words.iter().map(|w| interner.intern(w)).collect();
        for (word, sym) in words.iter().zip(&syms) {
            assert_eq!(interner.resolve(*sym), *word);
        }
    }

    #[test]
    fn get_does_not_insert() {
        let mut interner = Interner::new();
        assert_eq!(interner.get("missing"), None);
        interner.intern("present");
        assert!(interner.get("present").is_some());
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut interner = Interner::new();
        interner.intern("x");
        interner.intern("y");
        let collected: Vec<(u32, String)> =
            interner.iter().map(|(s, t)| (s.0, t.to_string())).collect();
        assert_eq!(collected, vec![(0, "x".into()), (1, "y".into())]);
    }
}
