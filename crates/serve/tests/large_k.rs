//! The large-k serving gates. At small k every query scores against every
//! representative, so pruning and the tree's beam are vacuous. Here a
//! k = 64 model is trained on three-dialect DBLP markup (192 documents)
//! and a stream of 96 more is classified:
//!
//! * the index equals brute force and actually prunes (< k candidates);
//! * sharded engines at S ∈ {2, 4} equal the standalone index;
//! * a full-beam tree is exact, partial beams score fewer than k
//!   representatives, and the default beam keeps ≥ 0.95 agreement with
//!   brute force.

use cxk_core::{EngineBuilder, TrainedModel};
use cxk_corpus::dblp::{self, DblpConfig};
use cxk_serve::{
    Classifier, DocumentAssignment, ShardedClassifier, ShardedEngine, TreeClassifier, TreeConfig,
    TreeEngine,
};
use cxk_transact::{BuildOptions, DatasetBuilder};
use std::sync::{Arc, OnceLock};

const K: usize = 64;
const TRAIN: usize = 192;
const STREAM: usize = 96;

/// The trained model, the classification stream, and brute force's
/// answer for every stream document.
struct Fixture {
    model: Arc<TrainedModel>,
    stream: Vec<String>,
    brute: Vec<DocumentAssignment>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = dblp::generate(&DblpConfig {
            documents: TRAIN + STREAM,
            seed: 0xB16C ^ 3,
            dialects: 3,
        });
        let (train, stream) = corpus.documents.split_at(TRAIN);
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for doc in train {
            builder.add_xml(doc).expect("generated XML is well-formed");
        }
        let ds = builder.finish();
        let model = EngineBuilder::new(K)
            .similarity(0.5, 0.4)
            .seed(3)
            .build()
            .expect("valid config")
            .fit(&ds)
            .expect("training runs")
            .into_model(&ds, BuildOptions::default());
        let model = Arc::new(model);
        let mut classifier = Classifier::shared(Arc::clone(&model));
        let brute = stream
            .iter()
            .map(|doc| classifier.classify_brute(doc).expect("brute classify"))
            .collect();
        Fixture {
            model,
            stream: stream.to_vec(),
            brute,
        }
    })
}

/// Mean candidates scored per tuple over `reports`.
fn candidates_per_tuple(reports: &[DocumentAssignment]) -> f64 {
    let tuples: usize = reports.iter().map(|r| r.tuples.len()).sum();
    let candidates: usize = reports
        .iter()
        .flat_map(|r| &r.tuples)
        .map(|t| t.candidates)
        .sum();
    candidates as f64 / tuples.max(1) as f64
}

/// Classifies the stream through one tree session at `beam`; returns the
/// answers, the share of documents on brute force's cluster, and the
/// engine.
fn run_tree(beam: usize) -> (Vec<DocumentAssignment>, f64, Arc<TreeEngine>) {
    let fx = fixture();
    let config = TreeConfig {
        beam,
        ..TreeConfig::default()
    };
    let engine = Arc::new(TreeEngine::build(Arc::clone(&fx.model), config));
    let mut tree = TreeClassifier::new(Arc::clone(&engine));
    let reports: Vec<DocumentAssignment> = fx
        .stream
        .iter()
        .map(|doc| tree.classify(doc).expect("tree classify"))
        .collect();
    let agree = reports
        .iter()
        .zip(&fx.brute)
        .filter(|(a, b)| a.cluster == b.cluster)
        .count();
    (reports, agree as f64 / fx.stream.len() as f64, engine)
}

#[test]
fn index_equals_brute_and_prunes_at_large_k() {
    let fx = fixture();
    let mut classifier = Classifier::shared(Arc::clone(&fx.model));
    let reports: Vec<DocumentAssignment> = fx
        .stream
        .iter()
        .map(|doc| classifier.classify(doc).expect("classify"))
        .collect();
    for (at, (a, b)) in reports.iter().zip(&fx.brute).enumerate() {
        assert_eq!(a.cluster, b.cluster, "doc {at}");
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "doc {at} score");
        assert_eq!(a.tuples.len(), b.tuples.len(), "doc {at}");
        for (ta, tb) in a.tuples.iter().zip(&b.tuples) {
            assert_eq!(ta.cluster, tb.cluster, "doc {at} tuple cluster");
            assert_eq!(ta.similarity.to_bits(), tb.similarity.to_bits(), "doc {at}");
        }
    }
    let cpt = candidates_per_tuple(&reports);
    assert!(
        cpt < K as f64,
        "the index must prune at large k: {cpt:.1} candidates per tuple at k={K}"
    );
}

#[test]
fn sharded_engines_equal_the_standalone_index() {
    let fx = fixture();
    let mut standalone = Classifier::shared(Arc::clone(&fx.model));
    let expected: Vec<DocumentAssignment> = fx
        .stream
        .iter()
        .map(|doc| standalone.classify(doc).expect("classify"))
        .collect();
    for shards in [2, 4] {
        let engine = Arc::new(ShardedEngine::build(Arc::clone(&fx.model), shards));
        let mut sharded = ShardedClassifier::new(engine);
        for (at, (doc, want)) in fx.stream.iter().zip(&expected).enumerate() {
            let got = sharded.classify(doc).expect("sharded classify");
            assert_eq!(
                &got, want,
                "S={shards} must equal the standalone index on doc {at}"
            );
        }
    }
}

#[test]
fn full_beam_tree_is_exact() {
    let (reports, agreement, engine) = run_tree(K);
    assert!(engine.is_exact(), "a beam of k covers every level");
    assert_eq!(
        agreement, 1.0,
        "the full-beam tree must agree with brute force"
    );
    for (at, (a, b)) in reports.iter().zip(&fixture().brute).enumerate() {
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "doc {at} score");
    }
}

#[test]
fn partial_beams_score_fewer_than_k() {
    for beam in 1..=3 {
        let (reports, _, engine) = run_tree(beam);
        let stats = engine.stats();
        let reps = stats.reps_scored as f64 / stats.tuples.max(1) as f64;
        assert!(
            reps < K as f64,
            "W={beam} must score fewer than k representatives per tuple ({reps:.2} at k={K})"
        );
        let cpt = candidates_per_tuple(&reports);
        assert!(
            cpt < K as f64,
            "W={beam} candidates per tuple must stay below k ({cpt:.2})"
        );
    }
}

#[test]
fn default_beam_keeps_agreement_with_brute() {
    let (_, agreement, _) = run_tree(TreeConfig::default().beam);
    assert!(
        agreement >= 0.95,
        "the default beam must agree with brute force on ≥ 0.95 of documents, got {agreement:.4}"
    );
}
