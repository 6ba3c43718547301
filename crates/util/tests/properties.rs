//! Property-based tests for hashing, interning and deterministic RNG.

use cxk_util::{DetRng, FxHashMap, FxHashSet, Interner, Symbol};
use proptest::prelude::*;
use std::hash::{Hash, Hasher};

fn fx_hash<T: Hash>(value: &T) -> u64 {
    let mut hasher = cxk_util::FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The strings the interner model test draws from: the empty string,
/// multi-byte UTF-8, strings that differ only past their first 8 bytes
/// (one FxHash word), and enough plain ones to cross several growth
/// boundaries of the table's slots and buffers.
fn string_pool() -> Vec<String> {
    let mut pool: Vec<String> = [
        "",
        "a",
        "é",
        "日本語",
        "😀",
        "a😀",
        "😀a",
        "ab",
        "S",
        "@key",
        "abcdefgh",
        "abcdefgh1",
        "abcdefgh2",
        "abcdefghijklmnop",
        "abcdefghijklmnoq",
        "abcdefgh\0",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    for i in 0..120 {
        pool.push(format!("shared-prefix-{i}"));
        pool.push(format!("{}é{i}", "x".repeat(i % 19)));
    }
    pool
}

/// The reference model of an interner: a map plus the insertion order.
#[derive(Clone, Default)]
struct Model {
    ids: FxHashMap<String, u32>,
    order: Vec<String>,
}

impl Model {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.order.len() as u32;
        self.ids.insert(s.to_string(), id);
        self.order.push(s.to_string());
        id
    }
}

/// Asserts that `interner` holds exactly `model`'s strings, in order.
fn assert_matches(interner: &Interner, model: &Model) {
    assert_eq!(interner.len(), model.order.len());
    assert_eq!(interner.is_empty(), model.order.is_empty());
    let listed: Vec<(u32, &str)> = interner.iter().map(|(sym, s)| (sym.0, s)).collect();
    let expected: Vec<(u32, &str)> = model
        .order
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u32, s.as_str()))
        .collect();
    assert_eq!(listed, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of `intern`, `get`, `resolve`, `iter` and
    /// `clone` agree with the reference model, and every clone stays as it
    /// was taken however the original grows afterwards (and vice versa).
    #[test]
    fn interner_matches_a_reference_model(
        ops in proptest::collection::vec((0u8..8, 0usize..256), 200..500),
    ) {
        let pool = string_pool();
        let mut interner = Interner::new();
        let mut model = Model::default();
        let mut clones: Vec<(Interner, Model)> = Vec::new();
        for (op, pick) in ops {
            let key = pool[pick % pool.len()].as_str();
            match op {
                0..=3 => prop_assert_eq!(interner.intern(key).0, model.intern(key)),
                4 => prop_assert_eq!(
                    interner.get(key).map(|sym| sym.0),
                    model.ids.get(key).copied()
                ),
                5 if !model.order.is_empty() => {
                    let id = pick % model.order.len();
                    prop_assert_eq!(interner.resolve(Symbol(id as u32)), model.order[id].as_str());
                }
                6 => assert_matches(&interner, &model),
                _ => clones.push((interner.clone(), model.clone())),
            }
        }
        assert_matches(&interner, &model);
        // Past 32 strings the slots have grown from 8 to 128.
        prop_assert!(interner.len() > 32);
        for (mut copy, expected) in clones {
            assert_matches(&copy, &expected);
            copy.intern("only in the copy");
            prop_assert_eq!(interner.get("only in the copy"), None);
            for (id, s) in expected.order.iter().enumerate() {
                prop_assert_eq!(copy.get(s), Some(Symbol(id as u32)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hash_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(fx_hash(&data), fx_hash(&data.clone()));
    }

    #[test]
    fn interner_round_trips(words in proptest::collection::vec("[ -~]{0,24}", 0..30)) {
        let mut interner = Interner::new();
        let symbols: Vec<_> = words.iter().map(|w| interner.intern(w)).collect();
        for (word, &sym) in words.iter().zip(&symbols) {
            prop_assert_eq!(interner.resolve(sym), word.as_str());
            prop_assert_eq!(interner.intern(word), sym);
        }
        let distinct: FxHashSet<&str> = words.iter().map(String::as_str).collect();
        prop_assert_eq!(interner.len(), distinct.len());
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>(), stream in any::<u64>()) {
        let root = DetRng::seed_from_u64(seed);
        let mut a = root.derive(stream);
        let mut b = root.derive(stream);
        for _ in 0..8 {
            prop_assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), n in 1usize..60) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range(seed in any::<u64>(), n in 1usize..50) {
        let mut rng = DetRng::seed_from_u64(seed);
        let take = n / 2;
        let sample = rng.sample_indices(n, take);
        prop_assert_eq!(sample.len(), take);
        let distinct: FxHashSet<usize> = sample.iter().copied().collect();
        prop_assert_eq!(distinct.len(), take);
        prop_assert!(sample.iter().all(|&i| i < n));
    }

    #[test]
    fn weighted_index_is_in_range(
        seed in any::<u64>(),
        weights in proptest::collection::vec(0.01f64..10.0, 1..20),
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert!(rng.weighted_index(&weights) < weights.len());
        }
    }
}
