//! The composed TCU preprocessing pipeline.
//!
//! `raw text → tokenize → stopword filter → Porter stem → intern`, producing
//! the term sequence of one textual content unit. [`preprocess`] interns
//! terms into a caller-supplied vocabulary [`Interner`] shared across a
//! corpus; [`preprocess_known`] only looks them up in a frozen one.
//!
//! Every route runs one loop: [`for_each_token`] builds each token in one
//! reused `String`, and [`stem_into`] stems it into one reused `Vec<u8>`.
//! A [`Preprocessor`] owns those two buffers, so a caller that keeps one
//! preprocesses TCU after TCU without allocating per token. Against a
//! frozen vocabulary it also keeps a [`TokenMemo`]: the outcome of each
//! raw token it has met — a stopword, or the vocabulary's symbol for the
//! token's stem — so a repeated token is neither lowercased into a stem
//! nor looked up again.
//!
//! The memo admits only stopwords and tokens whose stem the vocabulary
//! holds. A word the vocabulary lacks is stemmed on every use and never
//! cached, so a stream of fresh words cannot grow it; past
//! [`TokenMemo::CAPACITY`] tokens, misses are simply not cached.

use crate::porter::stem_into;
use crate::stopwords::is_stopword;
use crate::tokenize::for_each_token;
use cxk_util::{Interner, Symbol};

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Remove stopwords (default `true`).
    pub remove_stopwords: bool,
    /// Apply the Porter stemmer (default `true`).
    pub stem: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            remove_stopwords: true,
            stem: true,
        }
    }
}

/// Preprocesses one TCU's raw text into interned terms (with duplicates —
/// term frequency is meaningful downstream).
pub fn preprocess(text: &str, vocabulary: &mut Interner, options: &PipelineOptions) -> Vec<Symbol> {
    let mut terms = Vec::new();
    Preprocessor::default().intern(text, vocabulary, options, &mut terms);
    terms
}

/// [`preprocess`] against a vocabulary that must not grow: the terms
/// `vocabulary` already holds, in order and with duplicates; every other
/// term is dropped.
pub fn preprocess_known(
    text: &str,
    vocabulary: &Interner,
    options: &PipelineOptions,
) -> Vec<Symbol> {
    let mut terms = Vec::new();
    let mut buffers = Preprocessor::default();
    buffers.for_each_term(text, options, |term| {
        terms.extend(vocabulary.get(term));
    });
    terms
}

/// The buffers of the preprocessing loop, and a [`TokenMemo`] for one
/// frozen vocabulary (see the module docs). Keep one per worker and reuse
/// it: a warm preprocessor allocates nothing for tokens it has met.
#[derive(Debug, Default, Clone)]
pub struct Preprocessor {
    /// The token being built.
    token: String,
    /// The stem being built.
    stem: Vec<u8>,
    memo: TokenMemo,
}

impl Preprocessor {
    /// Appends `text`'s terms to `terms`, interning them into
    /// `vocabulary`: [`preprocess`] through this preprocessor's buffers.
    /// The memo is not used (the vocabulary grows).
    pub fn intern(
        &mut self,
        text: &str,
        vocabulary: &mut Interner,
        options: &PipelineOptions,
        terms: &mut Vec<Symbol>,
    ) {
        self.for_each_term(text, options, |term| terms.push(vocabulary.intern(term)));
    }

    /// Appends the terms of `text` that the frozen `vocabulary` holds to
    /// `terms`: exactly [`preprocess_known`]'s terms, through the memo.
    ///
    /// The memo belongs to one vocabulary and one set of options: it is
    /// emptied when either differs from the last call's (the vocabulary
    /// compared by length, as a frozen vocabulary never grows), so a
    /// preprocessor must not serve two different vocabularies of one size.
    pub fn known(
        &mut self,
        text: &str,
        vocabulary: &Interner,
        options: &PipelineOptions,
        terms: &mut Vec<Symbol>,
    ) {
        let memo = &mut self.memo;
        memo.bind(vocabulary, options);
        let stem = &mut self.stem;
        for_each_token(text, &mut self.token, |token| {
            if let Some(outcome) = memo.get(token) {
                terms.extend(outcome);
                return;
            }
            match term_of(token, options, stem) {
                None => memo.admit(token, None),
                Some(term) => {
                    if let Some(symbol) = vocabulary.get(term) {
                        memo.admit(token, Some(symbol));
                        terms.push(symbol);
                    }
                }
            }
        });
    }

    /// The memo [`Self::known`] fills.
    pub fn memo(&self) -> &TokenMemo {
        &self.memo
    }

    /// Calls `visit` with each of `text`'s terms before interning: tokens
    /// minus stopwords, stemmed.
    fn for_each_term(
        &mut self,
        text: &str,
        options: &PipelineOptions,
        mut visit: impl FnMut(&str),
    ) {
        let stem = &mut self.stem;
        for_each_token(text, &mut self.token, |token| {
            if let Some(term) = term_of(token, options, stem) {
                visit(term);
            }
        });
    }
}

/// `token`'s term: `None` for a dropped stopword, else the token stemmed
/// into `stem` (or the token itself when stemming is off).
fn term_of<'t>(
    token: &'t str,
    options: &PipelineOptions,
    stem: &'t mut Vec<u8>,
) -> Option<&'t str> {
    if options.remove_stopwords && is_stopword(token) {
        None
    } else if options.stem {
        Some(stem_into(token, stem))
    } else {
        Some(token)
    }
}

/// Raw tokens mapped to their preprocessing outcome against one frozen
/// vocabulary: `None` for a stopword, `Some` with the vocabulary's symbol
/// for the token's stem. The tokens live in one arena-backed [`Interner`]
/// and the outcomes in a parallel vector, so the memo is three buffers
/// plus one, however many tokens it holds. It admits only stopwords and
/// tokens whose stem the vocabulary holds, and at most
/// [`TokenMemo::CAPACITY`] of them.
#[derive(Debug, Default, Clone)]
pub struct TokenMemo {
    tokens: Interner,
    outcomes: Vec<Option<Symbol>>,
    /// The vocabulary length and options the outcomes were computed for.
    bound: Option<(usize, PipelineOptions)>,
}

impl TokenMemo {
    /// The most tokens a memo holds; later misses are not cached.
    pub const CAPACITY: usize = 1 << 14;

    /// Tokens cached.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Whether `token` is cached.
    pub fn contains(&self, token: &str) -> bool {
        self.tokens.get(token).is_some()
    }

    /// The cached outcome of `token`.
    fn get(&self, token: &str) -> Option<Option<Symbol>> {
        let id = self.tokens.get(token)?;
        self.outcomes.get(id.index()).copied()
    }

    /// Caches `outcome` for `token`, unless the memo is full.
    fn admit(&mut self, token: &str, outcome: Option<Symbol>) {
        if self.outcomes.len() < Self::CAPACITY {
            self.tokens.intern(token);
            self.outcomes.push(outcome);
        }
    }

    /// Empties the memo unless it was filled against a vocabulary of
    /// `vocabulary`'s length and `options`.
    fn bind(&mut self, vocabulary: &Interner, options: &PipelineOptions) {
        let stamp = (vocabulary.len(), options);
        if self.bound.as_ref().map(|(len, o)| (*len, o)) != Some(stamp) {
            *self = Self {
                bound: Some((vocabulary.len(), options.clone())),
                ..Self::default()
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_filters_and_stems() {
        let mut vocab = Interner::new();
        let terms = preprocess(
            "The effective clustering of the XML documents",
            &mut vocab,
            &PipelineOptions::default(),
        );
        let rendered: Vec<&str> = terms.iter().map(|t| vocab.resolve(*t)).collect();
        assert_eq!(rendered, vec!["effect", "cluster", "xml", "document"]);
    }

    #[test]
    fn duplicates_are_preserved_for_tf() {
        let mut vocab = Interner::new();
        let terms = preprocess(
            "cluster cluster clusters",
            &mut vocab,
            &PipelineOptions::default(),
        );
        assert_eq!(terms.len(), 3);
        assert!(terms.iter().all(|t| *t == terms[0]));
    }

    #[test]
    fn options_disable_stages() {
        let mut vocab = Interner::new();
        let options = PipelineOptions {
            remove_stopwords: false,
            stem: false,
        };
        let terms = preprocess("the clusters", &mut vocab, &options);
        let rendered: Vec<&str> = terms.iter().map(|t| vocab.resolve(*t)).collect();
        assert_eq!(rendered, vec!["the", "clusters"]);
    }

    #[test]
    fn shared_vocabulary_reuses_symbols() {
        let mut vocab = Interner::new();
        let a = preprocess("clustering", &mut vocab, &PipelineOptions::default());
        let b = preprocess("clusters", &mut vocab, &PipelineOptions::default());
        assert_eq!(a, b); // both stem to "cluster"
        assert_eq!(vocab.len(), 1);
    }

    #[test]
    fn known_terms_are_preprocess_filtered_to_the_vocabulary() {
        let options = PipelineOptions::default();
        let mut vocab = Interner::new();
        preprocess("clustering xml documents", &mut vocab, &options);
        let frozen = vocab.clone();
        for text in [
            "The effective clustering of the XML documents",
            "zebra clusters quagga xml xml",
            "",
            "unseen words only",
        ] {
            let known = preprocess_known(text, &frozen, &options);
            let interned = preprocess(text, &mut vocab, &options);
            let filtered: Vec<Symbol> = interned
                .into_iter()
                .filter(|t| t.index() < frozen.len())
                .collect();
            assert_eq!(known, filtered, "{text}");
        }
        assert_eq!(frozen.len(), 3);
    }

    #[test]
    fn the_memo_keeps_stopwords_and_known_tokens_only() {
        let options = PipelineOptions::default();
        let mut vocab = Interner::new();
        preprocess("clustering xml documents", &mut vocab, &options);
        let mut preprocessor = Preprocessor::default();
        for _ in 0..2 {
            let mut terms = Vec::new();
            let text = "The clusters of zebra documents, the XML";
            preprocessor.known(text, &vocab, &options, &mut terms);
            assert_eq!(terms, preprocess_known(text, &vocab, &options));
        }
        let memo = preprocessor.memo();
        for token in ["the", "of", "clusters", "documents", "xml"] {
            assert!(memo.contains(token), "{token}");
        }
        assert!(!memo.contains("zebra"));
        assert_eq!(memo.len(), 5);

        // Another vocabulary empties it.
        preprocess("zebra", &mut vocab, &options);
        let mut terms = Vec::new();
        preprocessor.known("zebra", &vocab, &options, &mut terms);
        assert_eq!(terms, preprocess_known("zebra", &vocab, &options));
        assert_eq!(preprocessor.memo().len(), 1);
    }

    #[test]
    fn empty_text_yields_no_terms() {
        let mut vocab = Interner::new();
        assert!(preprocess("", &mut vocab, &PipelineOptions::default()).is_empty());
        assert!(preprocess("the of and", &mut vocab, &PipelineOptions::default()).is_empty());
    }
}
