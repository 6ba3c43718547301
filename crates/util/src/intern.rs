//! String interning.
//!
//! Tag names, attribute names and index terms recur millions of times across
//! a corpus; interning maps each distinct string to a dense [`Symbol`] so the
//! rest of the pipeline compares and hashes 4-byte integers instead of
//! strings. Symbols are only meaningful relative to the [`Interner`] that
//! produced them.
//!
//! An [`Interner`] is an [`ArenaTable`] over one `String`: every string it
//! holds sits in that buffer, so interning allocates only when the buffer
//! grows, and cloning or dropping an interner costs three buffer copies or
//! frees however many strings it holds.

use crate::arena::ArenaTable;

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

/// A string interner with O(1) two-way lookup, append-only until
/// truncated; symbols are dense, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    table: ArenaTable<String>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner with room for `capacity` distinct strings.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_bytes(capacity, 0)
    }

    /// Creates an interner with room for `capacity` distinct strings of
    /// `bytes` bytes in total, so a decoder that knows both fills it
    /// without growing a buffer.
    pub fn with_capacity_and_bytes(capacity: usize, bytes: usize) -> Self {
        Self {
            table: ArenaTable::with_capacity(capacity, bytes),
        }
    }

    /// Interns `s`, returning its symbol. Repeated calls with equal strings
    /// return equal symbols.
    ///
    /// # Panics
    /// Panics with `interner overflow` past `u32::MAX` strings or bytes.
    pub fn intern(&mut self, s: &str) -> Symbol {
        Symbol(self.table.intern(s))
    }

    /// Interns `s` as a new string: `Ok` with its symbol, or `Err` with the
    /// symbol it already has (nothing changes). Decoders use it to reject
    /// a repeated entry, which would otherwise shift every later symbol.
    ///
    /// # Panics
    /// Panics with `interner overflow` past `u32::MAX` strings or bytes.
    pub fn insert_new(&mut self, s: &str) -> Result<Symbol, Symbol> {
        self.table.insert_new(s).map(Symbol).map_err(Symbol)
    }

    /// Looks up a previously interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.table.get(s).map(Symbol)
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.table.resolve(sym.0)
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Keeps the first `len` strings and forgets the rest, whose symbols
    /// are handed out again (see [`ArenaTable::truncate`]).
    pub fn truncate(&mut self, len: usize) {
        self.table.truncate(len);
    }

    /// Iterates over `(Symbol, &str)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.table.iter().map(|(id, s)| (Symbol(id), s))
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
