//! Serving answers pinned to the bit: the digest of every answer the
//! classify engines give over a fixed document set must equal the value
//! recorded before the document pipeline was shared with training.
//!
//! The equivalence suites (indexed ≡ brute ≡ sharded ≡ full-beam tree) are
//! relative: every engine extracts its query through the same code, so a
//! change to extraction or weighting moves all of them together and still
//! passes. These digests are absolute. Each hashes, per document, the
//! cluster, the score bits and `capped`, and per tuple the cluster, the
//! similarity bits and the candidate count; a rejected document hashes its
//! error (offset, line, message).
//!
//! The documents are the repository's `samples/`, a few hundred synthetic
//! DBLP documents in three markup dialects, a document with markup no model
//! has seen, and malformed inputs. One model has a tiny frozen tuple cap,
//! so its answers carry `capped`.

use cxk_core::{EngineBuilder, TrainedModel};
use cxk_corpus::dblp::{generate, DblpConfig};
use cxk_serve::{
    Classifier, DocumentAssignment, ShardedClassifier, ShardedEngine, TreeClassifier, TreeConfig,
    TreeEngine,
};
use cxk_transact::{BuildOptions, DatasetBuilder};
use cxk_xml::{TupleLimits, XmlError};
use std::path::PathBuf;
use std::sync::Arc;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    fn answer(&mut self, answer: &Result<DocumentAssignment, XmlError>) {
        match answer {
            Ok(a) => {
                self.word(0);
                self.word(u64::from(a.cluster));
                self.word(a.score.to_bits());
                self.word(u64::from(a.capped));
                self.word(a.tuples.len() as u64);
                for t in &a.tuples {
                    self.word(u64::from(t.cluster));
                    self.word(t.similarity.to_bits());
                    self.word(t.candidates as u64);
                }
            }
            Err(e) => {
                self.word(1);
                self.word(e.offset as u64);
                self.word(e.line as u64);
                self.bytes(e.message.as_bytes());
            }
        }
    }
}

/// A model trained the way the serving benchmarks train theirs: synthetic
/// DBLP in three dialects, f = 0.5, γ = 0.4.
fn model() -> TrainedModel {
    let corpus = generate(&DblpConfig {
        documents: 240,
        seed: 17,
        dialects: 3,
    });
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for doc in &corpus.documents {
        builder.add_xml(doc).expect("valid training document");
    }
    let ds = builder.finish();
    let model = EngineBuilder::new(8)
        .similarity(0.5, 0.4)
        .seed(6)
        .build()
        .expect("valid config")
        .fit(&ds)
        .expect("fit succeeds")
        .into_model(&ds, BuildOptions::default());
    let non_empty = model.reps.iter().filter(|r| !r.is_empty()).count();
    assert!(
        non_empty >= 4,
        "a degenerate model pins little: {non_empty}"
    );
    model
}

/// The documents every engine classifies, in a fixed order.
fn documents() -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("samples/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "xml"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 12, "samples corpus");
    let mut docs: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("readable sample"))
        .collect();
    docs.extend(
        generate(&DblpConfig {
            documents: 300,
            seed: 29,
            dialects: 3,
        })
        .documents,
    );
    docs.push(
        r#"<menu><entree id="e1"><flavor>umami braised mining</flavor><chef>A. Miner</chef></entree></menu>"#
            .to_string(),
    );
    for malformed in [
        "",
        "<a/><b/>",
        "<a/>trailing",
        "<dblp><article>",
        "<dblp><!-- unterminated",
        "<dblp><?pi unterminated",
        "<dblp><![CDATA[unterminated",
        "<dblp><a></b></dblp>",
        "<dblp a=\"1\" a2=>x</dblp>",
        "<dblp>&nope;</dblp>",
    ] {
        docs.push(malformed.to_string());
    }
    docs
}

fn digest(mut classify: impl FnMut(&str) -> Result<DocumentAssignment, XmlError>) -> u64 {
    let mut d = Digest::new();
    for doc in documents() {
        d.answer(&classify(&doc));
    }
    d.0
}

#[test]
fn indexed_answers_are_pinned() {
    let mut c = Classifier::shared(Arc::new(model()));
    let got = digest(|doc| c.classify(doc));
    assert_eq!(got, 0x277b_00de_3ca0_b072, "digest {got:#018x}");
}

#[test]
fn brute_answers_are_pinned() {
    let mut c = Classifier::shared(Arc::new(model()));
    let got = digest(|doc| c.classify_brute(doc));
    assert_eq!(got, 0x1b17_d9e1_917d_5d7b, "digest {got:#018x}");
}

#[test]
fn sharded_answers_are_pinned() {
    let engine = Arc::new(ShardedEngine::build(Arc::new(model()), 3));
    let mut c = ShardedClassifier::new(engine);
    let got = digest(|doc| c.classify(doc));
    assert_eq!(got, 0x277b_00de_3ca0_b072, "digest {got:#018x}");
}

#[test]
fn default_tree_answers_are_pinned() {
    let engine = Arc::new(TreeEngine::build(Arc::new(model()), TreeConfig::default()));
    let mut c = TreeClassifier::new(engine);
    let got = digest(|doc| c.classify(doc));
    assert_eq!(got, 0x1b17_d9e1_917d_5d7b, "digest {got:#018x}");
}

#[test]
fn capped_answers_are_pinned() {
    let mut model = model();
    model.build.limits = TupleLimits {
        max_tuples_per_tree: 2,
    };
    let mut c = Classifier::shared(Arc::new(model));
    let mut capped = 0usize;
    let got = digest(|doc| {
        let answer = c.classify(doc);
        capped += usize::from(answer.as_ref().is_ok_and(|a| a.capped));
        answer
    });
    assert!(capped > 0, "the tiny cap must cap some documents");
    assert_eq!(got, 0xde13_3eae_8c11_b8af, "digest {got:#018x}");
}
