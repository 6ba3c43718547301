//! The composed TCU preprocessing pipeline.
//!
//! `raw text → tokenize → stopword filter → Porter stem → intern`, producing
//! the term sequence of one textual content unit. [`preprocess`] interns
//! terms into a caller-supplied vocabulary [`Interner`] shared across a
//! corpus; [`preprocess_known`] only looks them up in a frozen one.

use crate::porter::stem;
use crate::stopwords::is_stopword;
use crate::tokenize::tokenize;
use cxk_util::{Interner, Symbol};

/// Pipeline configuration.
#[derive(Debug, Clone)]
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
    terms(text, options)
        .map(|term| vocabulary.intern(&term))
        .collect()
}

/// [`preprocess`] against a vocabulary that must not grow: the terms
/// `vocabulary` already holds, in order and with duplicates; every other
/// term is dropped.
pub fn preprocess_known(
    text: &str,
    vocabulary: &Interner,
    options: &PipelineOptions,
) -> Vec<Symbol> {
    terms(text, options)
        .filter_map(|term| vocabulary.get(&term))
        .collect()
}

/// The TCU's terms before interning: tokens minus stopwords, stemmed.
fn terms<'a>(text: &str, options: &'a PipelineOptions) -> impl Iterator<Item = String> + 'a {
    tokenize(text)
        .into_iter()
        .filter(|token| !(options.remove_stopwords && is_stopword(token)))
        .map(|token| if options.stem { stem(&token) } else { token })
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
    fn empty_text_yields_no_terms() {
        let mut vocab = Interner::new();
        assert!(preprocess("", &mut vocab, &PipelineOptions::default()).is_empty());
        assert!(preprocess("the of and", &mut vocab, &PipelineOptions::default()).is_empty());
    }
}
