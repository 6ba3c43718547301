//! Streamed assignments and arrival-time weights pinned to the bit.
//!
//! A pushed document joins the collection statistics before it is
//! weighted, and only the items it is first to show get vectors; a refresh
//! erases both approximations. No other test pins those arrival-time
//! weights, so this one hashes, after a bootstrap and a run of pushes under
//! the manual policy, every push's report, every transaction's assignment
//! and every item vector's bits, and compares with the value recorded
//! before the document pipeline was shared with training and serving.

use cxk_corpus::dblp::{generate, DblpConfig};
use cxk_stream::{RefreshPolicy, StreamClusterer, StreamOptions};
use cxk_transact::SimParams;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn streamed_assignments_and_weights_are_pinned() {
    let corpus = generate(&DblpConfig {
        documents: 80,
        seed: 31,
        dialects: 3,
    });
    let (bootstrap, arrivals) = corpus.documents.split_at(40);
    let mut opts = StreamOptions::new(4);
    opts.config.params = SimParams::new(0.5, 0.4);
    opts.config.seed = 9;
    opts.policy = RefreshPolicy::manual();
    let refs: Vec<&str> = bootstrap.iter().map(String::as_str).collect();
    let mut s = StreamClusterer::new(&refs, opts).expect("bootstrap");

    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let alien = r#"<recipes><recipe id="r1"><chef>Q. Cook</chef><dish>braised mining stew</dish><cuisine>fusion</cuisine></recipe></recipes>"#;
    let mut pushes: Vec<&str> = arrivals.iter().map(String::as_str).collect();
    pushes.insert(10, alien);
    pushes.insert(20, "<dblp><article><title>unterminated");
    for doc in pushes {
        match s.push(doc) {
            Ok(report) => {
                d.word(report.doc_index as u64);
                d.word(report.trash as u64);
                d.word(u64::from(report.refreshed));
                for &a in &report.assignments {
                    d.word(u64::from(a));
                }
            }
            Err(e) => {
                d.word(u64::MAX);
                d.word(e.offset as u64);
                d.word(e.line as u64);
            }
        }
    }
    let ds = s.dataset();
    for &a in s.assignments() {
        d.word(u64::from(a));
    }
    d.word(ds.items.len() as u64);
    for item in &ds.items {
        d.word(item.fingerprint);
        d.word(u64::from(item.path.0));
        d.word(u64::from(item.tag_path.0));
        for (term, weight) in item.vector.iter() {
            d.word(u64::from(term.0));
            d.word(weight.to_bits());
        }
    }
    d.word(ds.term_stats.total_tcus());
    d.word(ds.vocabulary.len() as u64);
    d.word(ds.stats.max_tcu_nnz as u64);
    d.word(ds.stats.max_depth as u64);
    assert!(
        s.assignments().iter().any(|&a| a < 4),
        "a degenerate clustering pins little"
    );
    assert_eq!(d.0, 0x9160_e68f_fec0_068d, "digest {:#018x}", d.0);
}
