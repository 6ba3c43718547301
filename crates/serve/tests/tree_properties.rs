//! Property tests for the hierarchical representative tree: over the
//! repository's `samples/` corpus and a parameter grid, a full-width
//! beam is bit-identical to brute force, and narrow beams obey the
//! pruning/rescue invariants and a pinned agreement floor.

use cxk_core::{CxkConfig, EngineBuilder, TrainedModel};
use cxk_serve::{Classifier, TreeClassifier, TreeConfig, TreeEngine};
use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// The repository's `samples/` corpus.
fn sample_docs() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("samples/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "xml"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable sample");
            (name, text)
        })
        .collect()
}

fn train_on_samples(k: usize, f: f64, gamma: f64) -> TrainedModel {
    let docs = sample_docs();
    assert_eq!(docs.len(), 12, "samples corpus");
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for (_, text) in &docs {
        builder.add_xml(text).expect("valid sample");
    }
    let ds = builder.finish();
    let mut config = CxkConfig::new(k);
    config.params = SimParams::new(f, gamma);
    config.seed = 1;
    EngineBuilder::from_cxk_config(&config)
        .build()
        .expect("valid sample config")
        .fit(&ds)
        .expect("fit succeeds")
        .into_model(&ds, BuildOptions::default())
}

const ALIEN: &str = r#"<recipes><recipe id="r1"><chef>Q. Cook</chef><dish>braised seitan stew</dish></recipe></recipes>"#;

/// Every sample plus one document alien to the corpus (which must land
/// in trash at every beam width, thanks to the zero-similarity rescue).
fn eval_docs() -> Vec<(String, String)> {
    let mut docs = sample_docs();
    docs.push(("alien".to_string(), ALIEN.to_string()));
    docs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full beam ⇒ bit-identical to brute force: cluster ids,
    /// similarities, scores AND candidate counts, across k (including
    /// k ≤ B level-less trees), γ (including the degenerate γ = 0) and
    /// branching factors.
    #[test]
    fn full_beam_is_bit_identical_to_brute_on_samples(
        k in 1usize..7,
        gamma_step in 0u8..5,
        branch in 2usize..5,
    ) {
        let gamma = f64::from(gamma_step) * 0.2;
        let model = Arc::new(train_on_samples(k, 0.5, gamma));
        // Beam ≥ the widest level (≤ ⌈k/B⌉ ≤ k) keeps every subtree.
        let engine = Arc::new(TreeEngine::build(
            Arc::clone(&model),
            TreeConfig { branch, beam: k },
        ));
        prop_assert!(engine.is_exact(), "beam k covers the widest level");
        let mut tree = TreeClassifier::new(engine);
        let mut brute = Classifier::shared(model);
        for (name, text) in &eval_docs() {
            let a = tree.classify(text).expect("tree classify");
            let b = brute.classify_brute(text).expect("brute classify");
            prop_assert_eq!(a.cluster, b.cluster, "cluster for {}", name);
            prop_assert_eq!(a.score, b.score, "score for {} must be bit-identical", name);
            prop_assert_eq!(a.capped, b.capped);
            prop_assert_eq!(a.tuples.len(), b.tuples.len());
            for (ta, tb) in a.tuples.iter().zip(&b.tuples) {
                prop_assert_eq!(ta.cluster, tb.cluster, "tuple cluster for {}", name);
                prop_assert_eq!(ta.similarity, tb.similarity, "simγJ must be bit-identical");
                prop_assert_eq!(ta.candidates, tb.candidates, "full beam scores all k");
            }
        }
    }

}

/// Narrow beams may mis-assign but never break the invariants: a
/// tuple's similarity never exceeds brute force's (the re-rank
/// maximizes over a subset), zero-similarity verdicts are always
/// backed by a full scan (candidates == k), and document agreement
/// with brute force stays above a pinned floor. Exhaustive over the
/// deterministic (k, γ) grid so the floor is the measured minimum, not
/// a sampled one.
#[test]
fn narrow_beam_invariants_and_agreement_on_samples() {
    let docs = eval_docs();
    let mut min_agreement = f64::INFINITY;
    for k in 4usize..7 {
        for gamma_step in 1u8..5 {
            let gamma = f64::from(gamma_step) * 0.2;
            let model = Arc::new(train_on_samples(k, 0.5, gamma));
            let engine = Arc::new(TreeEngine::build(
                Arc::clone(&model),
                TreeConfig { branch: 2, beam: 1 },
            ));
            let mut tree = TreeClassifier::new(engine);
            let mut brute = Classifier::shared(model);
            let mut agree = 0usize;
            for (name, text) in &docs {
                let a = tree.classify(text).expect("tree classify");
                let b = brute.classify_brute(text).expect("brute classify");
                agree += usize::from(a.cluster == b.cluster);
                assert_eq!(a.tuples.len(), b.tuples.len());
                for (ta, tb) in a.tuples.iter().zip(&b.tuples) {
                    assert!(
                        ta.similarity <= tb.similarity,
                        "subset max exceeds full max for {name} (k={k} γ={gamma})"
                    );
                    assert!(ta.candidates <= k, "candidates bounded by k");
                    if ta.similarity == 0.0 {
                        assert_eq!(
                            ta.candidates, k,
                            "zero-similarity verdicts must be rescued to a full scan"
                        );
                    }
                }
            }
            let agreement = agree as f64 / docs.len() as f64;
            min_agreement = min_agreement.min(agreement);
        }
    }
    // Pinned floor: the measured minimum over the grid for the
    // narrowest possible beam (W=1, B=2). Wider beams only improve it;
    // `large_k.rs` pins ≥ 0.95 for the default beam at k = 64.
    assert!(
        min_agreement >= 0.53,
        "beam-1 agreement minimum {min_agreement:.4} fell below the pinned floor"
    );
}
