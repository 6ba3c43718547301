//! Property-based tests for the text substrate: tokenizer contracts,
//! stemmer sanity, the token memo, sparse-vector algebra and `ttf.itf`
//! monotonicity.

use cxk_text::{
    is_stopword, preprocess, preprocess_known, stem, tokenize, ttf_itf, PipelineOptions,
    Preprocessor, SparseVec,
};
use cxk_util::{Interner, Symbol};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tokens_are_lowercase_alphanumeric_and_bounded(input in "\\PC{0,80}") {
        for token in tokenize(&input) {
            prop_assert!(token.chars().all(char::is_alphanumeric), "{token}");
            prop_assert_eq!(token.to_lowercase(), token.clone());
            let n = token.chars().count();
            prop_assert!((2..=40).contains(&n));
        }
    }

    #[test]
    fn tokenize_is_idempotent_through_rejoin(input in "[a-z0-9 ]{0,60}") {
        let tokens = tokenize(&input);
        let rejoined = tokens.join(" ");
        prop_assert_eq!(tokenize(&rejoined), tokens);
    }

    #[test]
    fn stemmer_never_grows_words(word in "[a-z]{1,20}") {
        let stemmed = stem(&word);
        prop_assert!(stemmed.len() <= word.len(), "{word} -> {stemmed}");
        prop_assert!(!stemmed.is_empty());
    }

    #[test]
    fn stemmer_is_deterministic(word in "[a-z]{1,20}") {
        prop_assert_eq!(stem(&word), stem(&word));
    }

    #[test]
    fn stemmer_passes_non_ascii_through(word in "[α-ω]{1,10}") {
        prop_assert_eq!(stem(&word), word);
    }
}

fn sparse_strategy() -> impl Strategy<Value = SparseVec> {
    proptest::collection::vec((0u32..30, 0.01f64..10.0), 0..10).prop_map(|pairs| {
        SparseVec::from_pairs(pairs.into_iter().map(|(i, v)| (Symbol(i), v)).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dot_is_commutative(a in sparse_strategy(), b in sparse_strategy()) {
        prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-9);
    }

    #[test]
    fn cosine_is_symmetric_and_bounded(a in sparse_strategy(), b in sparse_strategy()) {
        let ab = a.cosine(&b);
        prop_assert!((ab - b.cosine(&a)).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn cosine_identity_for_nonzero(a in sparse_strategy()) {
        if !a.is_empty() {
            prop_assert!((a.cosine(&a) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn max_merge_is_commutative_idempotent_monotone(
        a in sparse_strategy(),
        b in sparse_strategy(),
    ) {
        let mut ab = a.clone();
        ab.max_merge(&b);
        let mut ba = b.clone();
        ba.max_merge(&a);
        prop_assert_eq!(ab.clone(), ba);

        let mut again = ab.clone();
        again.max_merge(&b);
        prop_assert_eq!(again, ab.clone());

        // Monotone: merged entries dominate both inputs.
        for (term, value) in a.iter() {
            prop_assert!(ab.get(term) >= value - 1e-12);
        }
        for (term, value) in b.iter() {
            prop_assert!(ab.get(term) >= value - 1e-12);
        }
    }

    #[test]
    fn add_scaled_matches_manual_sum(a in sparse_strategy(), b in sparse_strategy()) {
        let mut merged = a.clone();
        merged.add_scaled(&b, 2.5);
        for term in (0..30).map(Symbol) {
            let expected = a.get(term) + 2.5 * b.get(term);
            prop_assert!((merged.get(term) - expected).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ttf_itf_is_nonnegative_and_zero_preserving(
        tf in 0u32..20,
        nj_tau in 0u32..10,
        extra_tau in 0u32..10,
        nj_xt in 0u32..20,
        extra_xt in 0u32..20,
        nj_t in 0u64..100,
        extra_t in 0u64..100,
    ) {
        let n_tau = nj_tau + extra_tau;
        let n_xt = nj_xt + extra_xt;
        let n_t = nj_t + extra_t;
        let w = ttf_itf(tf, nj_tau, n_tau, nj_xt, n_xt, nj_t, n_t);
        prop_assert!(w >= 0.0, "weight {w}");
        if tf == 0 {
            prop_assert_eq!(w, 0.0);
        }
    }

    #[test]
    fn ttf_itf_is_monotone_in_tf(
        tf in 1u32..20,
        nj_tau in 1u32..10,
        nj_xt in 1u32..20,
        nj_t in 1u64..50,
    ) {
        let low = ttf_itf(tf, nj_tau, nj_tau + 2, nj_xt, nj_xt + 5, nj_t, nj_t + 50);
        let high = ttf_itf(tf + 1, nj_tau, nj_tau + 2, nj_xt, nj_xt + 5, nj_t, nj_t + 50);
        prop_assert!(high >= low);
    }

    #[test]
    fn ttf_itf_is_antitone_in_collection_frequency(
        nj_t in 1u64..50,
    ) {
        // More collection-wide TCUs containing the term => lower rarity.
        let rare = ttf_itf(2, 1, 3, 2, 8, nj_t, 1000);
        let common = ttf_itf(2, 1, 3, 2, 8, nj_t + 100, 1000);
        prop_assert!(common <= rare);
    }
}

/// One word of a TCU: stopwords in any case, words whose stems the test
/// vocabulary holds, characters whose lowercase is several characters
/// (`İ` → `i̇`), digits, runs just inside and past the 40-character limit
/// (before and after lowercasing) and arbitrary text.
fn word() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![
            Just("the"),
            Just("The"),
            Just("OF"),
            Just("and"),
            Just("were")
        ]
        .prop_map(str::to_string),
        prop_oneof![
            Just("clustering"),
            Just("Clusters"),
            Just("documents"),
            Just("XML"),
            Just("mining"),
            Just("İstanbul"),
        ]
        .prop_map(str::to_string),
        prop_oneof![
            Just("İ"),
            Just("İİ"),
            Just("ẞ"),
            Just("ΣΑΣ"),
            Just("ǅ"),
            Just("ﬃ")
        ]
        .prop_map(str::to_string),
        "[0-9]{1,6}",
        prop_oneof![Just(39usize), Just(40), Just(41)].prop_map(|n| "a".repeat(n)),
        prop_oneof![Just(38usize), Just(39)].prop_map(|n| format!("{}İ", "b".repeat(n))),
        "[a-zA-Z0-9]{1,12}",
        "\\PC{1,8}",
    ]
}

/// A TCU: words joined by separators, the empty one fusing two words.
fn tcu() -> impl Strategy<Value = String> {
    let separator = prop_oneof![Just(" "), Just(", "), Just("-"), Just("\n"), Just("")];
    proptest::collection::vec((word(), separator), 0..8).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(word, separator)| word + separator)
            .collect()
    })
}

/// The vocabulary the memo is tested against.
fn vocabulary(options: &PipelineOptions) -> Interner {
    let mut vocabulary = Interner::new();
    let seed = "the clustering of xml documents mining istanbul İstanbul 2003 42 aaaa ǆ";
    preprocess(seed, &mut vocabulary, options);
    vocabulary
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Preprocessing through the memo reads exactly `preprocess_known`'s
    /// terms, the memo cold and warm, and admits only stopwords and tokens
    /// whose stem the vocabulary holds.
    #[test]
    fn memo_preprocessing_equals_preprocess_known(
        texts in proptest::collection::vec(tcu(), 1..6),
        remove_stopwords in any::<bool>(),
        stem_terms in any::<bool>(),
    ) {
        let options = PipelineOptions { remove_stopwords, stem: stem_terms };
        let vocabulary = vocabulary(&options);
        let mut preprocessor = Preprocessor::default();
        for pass in ["cold", "warm"] {
            for text in &texts {
                let mut terms = vec![Symbol(u32::MAX)];
                preprocessor.known(text, &vocabulary, &options, &mut terms);
                prop_assert_eq!(terms[0], Symbol(u32::MAX));
                prop_assert_eq!(
                    &terms[1..],
                    &preprocess_known(text, &vocabulary, &options)[..],
                    "{} memo, text {:?}", pass, text
                );
            }
        }
        let memo = preprocessor.memo();
        for token in texts.iter().flat_map(|text| tokenize(text)) {
            let stopword = options.remove_stopwords && is_stopword(&token);
            let term = if options.stem { stem(&token) } else { token.clone() };
            let known = vocabulary.get(&term).is_some();
            prop_assert_eq!(memo.contains(&token), stopword || known, "token {:?}", token);
        }
        prop_assert!(memo.len() <= cxk_text::TokenMemo::CAPACITY);
    }
}
