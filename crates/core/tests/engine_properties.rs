//! Property tests for the Engine API:
//!
//! 1. `EngineBuilder::build` rejects **every** invalid-config axis with a
//!    typed [`CxkError::Config`] naming the offending field.
//! 2. Engine runs are **deterministic** — assignments, per-round traces,
//!    bytes, messages, work and (for simulated clocks) time are
//!    bit-identical across repeated fits of the same configuration on the
//!    repository's `samples/` corpus, for every backend and algorithm.
//! 3. The config-translation entry points (`from_cxk_config`,
//!    `from_vsm_config`) and the default round-robin partition behave
//!    exactly like their explicit spellings.
//!
//! The deprecated free functions (`run_centralized`, `run_collaborative`,
//! …) that these tests historically compared against are gone; behavioral
//! identity with the pre-Engine drivers remains pinned by the unchanged
//! seed suite (calibrated accuracy tests, determinism tests, and
//! `threaded_matches_simulated_partition`), which ran bit-identically
//! before and after both refactors.

use cxk_core::{
    Algorithm, Backend, ChurnSchedule, ClusteringOutcome, CxkConfig, CxkError, EngineBuilder,
    VsmConfig,
};
use cxk_corpus::partition_equal;
use cxk_transact::{BuildOptions, Dataset, DatasetBuilder, SimParams};
use proptest::prelude::*;
use std::path::PathBuf;

/// Builds the dataset from the repository's `samples/` corpus.
fn samples_dataset() -> Dataset {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("samples/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "xml"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 12, "samples corpus");
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable sample");
        builder.add_xml(&text).expect("valid sample");
    }
    builder.finish()
}

fn config(k: usize, f: f64, gamma: f64, seed: u64) -> CxkConfig {
    let mut config = CxkConfig::new(k);
    config.params = SimParams::new(f, gamma);
    config.seed = seed;
    config.max_rounds = 15;
    config
}

/// Asserts bit-identical outcomes including the simulated clock.
fn assert_identical(engine: &ClusteringOutcome, legacy: &ClusteringOutcome, what: &str) {
    assert_eq!(engine, legacy, "{what}: outcomes must be bit-identical");
}

/// Asserts bit-identical outcomes for wall-clock drivers, where elapsed
/// time legitimately differs between the two runs.
fn assert_identical_modulo_time(
    engine: &ClusteringOutcome,
    legacy: &ClusteringOutcome,
    what: &str,
) {
    let mut engine = engine.clone();
    engine.simulated_seconds = legacy.simulated_seconds;
    assert_eq!(
        &engine, legacy,
        "{what}: outcomes must be bit-identical (modulo wall-clock)"
    );
}

#[test]
fn centralized_backend_is_deterministic() {
    let ds = samples_dataset();
    for (k, gamma, seed) in [(2, 0.5, 3), (3, 0.7, 1), (4, 0.3, 9)] {
        let cfg = config(k, 0.5, gamma, seed);
        let run = |_: usize| {
            EngineBuilder::from_cxk_config(&cfg)
                .build()
                .expect("valid")
                .fit(&ds)
                .expect("fits")
                .into_outcome()
        };
        assert_identical(&run(0), &run(1), &format!("centralized k={k} γ={gamma}"));
    }
}

#[test]
fn simulated_p2p_backend_is_deterministic() {
    let ds = samples_dataset();
    let n = ds.transactions.len();
    for m in [1, 2, 3, 5] {
        let partition = partition_equal(n, m, 7);
        let cfg = config(2, 0.5, 0.5, 3);
        let run = |_: usize| {
            EngineBuilder::from_cxk_config(&cfg)
                .backend(Backend::SimulatedP2p { peers: m })
                .partition(partition.clone())
                .build()
                .expect("valid")
                .fit(&ds)
                .expect("fits")
                .into_outcome()
        };
        assert_identical(&run(0), &run(1), &format!("simulated-p2p m={m}"));
    }
}

#[test]
fn threaded_backend_matches_itself_modulo_wall_clock() {
    let ds = samples_dataset();
    let n = ds.transactions.len();
    for m in [1, 2, 4] {
        let partition = partition_equal(n, m, 5);
        let cfg = config(2, 0.5, 0.5, 3);
        let run = |_: usize| {
            EngineBuilder::from_cxk_config(&cfg)
                .backend(Backend::ThreadedP2p { peers: m })
                .partition(partition.clone())
                .build()
                .expect("valid")
                .fit(&ds)
                .expect("fits")
                .into_outcome()
        };
        assert_identical_modulo_time(&run(0), &run(1), &format!("threaded-p2p m={m}"));
    }
}

#[test]
fn churn_backend_is_deterministic_including_coverage() {
    let ds = samples_dataset();
    let n = ds.transactions.len();
    let m = 4;
    let partition = partition_equal(n, m, 2);
    let cfg = config(2, 0.5, 0.5, 3);
    for schedule in [
        ChurnSchedule::none(),
        ChurnSchedule::mass_departure(2, &[1, 3]),
    ] {
        let run = |_: usize| {
            EngineBuilder::from_cxk_config(&cfg)
                .backend(Backend::Churn {
                    peers: m,
                    schedule: schedule.clone(),
                })
                .partition(partition.clone())
                .build()
                .expect("valid")
                .fit(&ds)
                .expect("fits")
        };
        let (a, b) = (run(0), run(1));
        assert_eq!(a.covered, b.covered, "churn coverage");
        assert_eq!(a.final_alive, b.final_alive);
        assert!(a.covered.is_some(), "churn backend reports coverage");
        assert!((a.coverage() - b.coverage()).abs() < 1e-15);
        assert_identical(
            &a.into_outcome(),
            &b.into_outcome(),
            &format!("churn with {} events", schedule.events.len()),
        );
    }
}

#[test]
fn pk_means_is_deterministic() {
    let ds = samples_dataset();
    let n = ds.transactions.len();
    for m in [1, 3] {
        let partition = partition_equal(n, m, 4);
        let cfg = config(2, 0.5, 0.5, 3);
        let run = |_: usize| {
            EngineBuilder::from_cxk_config(&cfg)
                .algorithm(Algorithm::PkMeans)
                .backend(Backend::SimulatedP2p { peers: m })
                .partition(partition.clone())
                .build()
                .expect("valid")
                .fit(&ds)
                .expect("fits")
                .into_outcome()
        };
        assert_identical(&run(0), &run(1), &format!("pk-means m={m}"));
    }
}

#[test]
fn vsm_translation_matches_its_explicit_spelling() {
    let ds = samples_dataset();
    for f in [0.0, 0.5, 1.0] {
        let cfg = VsmConfig {
            k: 3,
            f,
            max_rounds: 50,
            seed: 7,
        };
        let translated = EngineBuilder::from_vsm_config(&cfg)
            .build()
            .expect("valid")
            .fit(&ds)
            .expect("fits")
            .into_outcome();
        // The translation entry point behaves exactly like spelling the
        // same configuration out by hand on the builder (γ stays at the
        // default — VSM never consults it).
        let explicit = EngineBuilder::new(3)
            .algorithm(Algorithm::VsmKmeans)
            .similarity(f, SimParams::default().gamma)
            .max_rounds(50)
            .seed(7)
            .build()
            .expect("valid")
            .fit(&ds)
            .expect("fits")
            .into_outcome();
        assert_identical_modulo_time(&translated, &explicit, &format!("vsm f={f}"));
    }
}

#[test]
fn default_partition_is_the_round_robin_dealing() {
    // Without an explicit partition the engine deals transactions
    // round-robin, exactly like the CLI always has.
    let ds = samples_dataset();
    let n = ds.transactions.len();
    let m = 3;
    let mut round_robin = vec![Vec::new(); m];
    for t in 0..n {
        round_robin[t % m].push(t);
    }
    let cfg = config(2, 0.5, 0.5, 3);
    let explicit = EngineBuilder::from_cxk_config(&cfg)
        .backend(Backend::SimulatedP2p { peers: m })
        .partition(round_robin)
        .build()
        .expect("valid")
        .fit(&ds)
        .expect("fits")
        .into_outcome();
    let defaulted = EngineBuilder::from_cxk_config(&cfg)
        .backend(Backend::SimulatedP2p { peers: m })
        .build()
        .expect("valid")
        .fit(&ds)
        .expect("fits")
        .into_outcome();
    assert_identical(&defaulted, &explicit, "default round-robin partition");
}

/// Asserts that `builder.build()` fails blaming `field`.
fn assert_rejected(builder: EngineBuilder, field: &str) {
    match builder.build() {
        Err(CxkError::Config { field: f, .. }) => {
            assert_eq!(f, field, "wrong field blamed");
        }
        Err(other) => panic!("expected a config error for {field}, got {other}"),
        Ok(_) => panic!("expected {field} to be rejected"),
    }
}

#[test]
fn builder_rejects_every_invalid_axis() {
    assert_rejected(EngineBuilder::new(0), "k");
    assert_rejected(
        EngineBuilder::new(2).backend(Backend::SimulatedP2p { peers: 0 }),
        "peers",
    );
    assert_rejected(
        EngineBuilder::new(2).backend(Backend::ThreadedP2p { peers: 0 }),
        "peers",
    );
    assert_rejected(EngineBuilder::new(2).max_rounds(0), "max_rounds");
    assert_rejected(EngineBuilder::new(2).max_inner(0), "max_inner");
    assert_rejected(
        EngineBuilder::new(2)
            .algorithm(Algorithm::VsmKmeans)
            .backend(Backend::SimulatedP2p { peers: 2 }),
        "backend",
    );
    assert_rejected(
        EngineBuilder::new(2)
            .algorithm(Algorithm::PkMeans)
            .backend(Backend::ThreadedP2p { peers: 2 }),
        "backend",
    );
    assert_rejected(
        EngineBuilder::new(2)
            .algorithm(Algorithm::PkMeans)
            .backend(Backend::Churn {
                peers: 2,
                schedule: ChurnSchedule::none(),
            }),
        "backend",
    );
    // Partition length must match the backend's peer count.
    assert_rejected(
        EngineBuilder::new(2)
            .backend(Backend::SimulatedP2p { peers: 3 })
            .partition(vec![vec![0], vec![1]]),
        "partition",
    );
    // Schedule consistency: round-0 events (the driver's round loop is
    // 1-based and would silently skip them), events after the round cap
    // (never applied, yet they would block convergence), unknown peer,
    // double leave, rejoin-while-alive.
    assert_rejected(
        EngineBuilder::new(2).backend(Backend::Churn {
            peers: 2,
            schedule: ChurnSchedule::mass_departure(0, &[0]),
        }),
        "schedule",
    );
    assert_rejected(
        EngineBuilder::new(2)
            .max_rounds(30)
            .backend(Backend::Churn {
                peers: 2,
                schedule: ChurnSchedule::mass_departure(50, &[0]),
            }),
        "schedule",
    );
    assert_rejected(
        EngineBuilder::new(2).backend(Backend::Churn {
            peers: 2,
            schedule: ChurnSchedule::mass_departure(1, &[5]),
        }),
        "schedule",
    );
    assert_rejected(
        EngineBuilder::new(2).backend(Backend::Churn {
            peers: 3,
            schedule: ChurnSchedule {
                events: vec![
                    cxk_core::ChurnEvent::Leave { round: 1, peer: 0 },
                    cxk_core::ChurnEvent::Leave { round: 2, peer: 0 },
                ],
            },
        }),
        "schedule",
    );
    assert_rejected(
        EngineBuilder::new(2).backend(Backend::Churn {
            peers: 3,
            schedule: ChurnSchedule {
                events: vec![cxk_core::ChurnEvent::Rejoin { round: 2, peer: 1 }],
            },
        }),
        "schedule",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_rejects_out_of_range_similarity(
        bad in prop_oneof![-1e6f64..-1e-9, (1.0f64 + 1e-9)..1e6],
        which in any::<bool>(),
    ) {
        let builder = if which {
            EngineBuilder::new(2).similarity(bad, 0.5)
        } else {
            EngineBuilder::new(2).similarity(0.5, bad)
        };
        let field = if which { "f" } else { "gamma" };
        match builder.build() {
            Err(CxkError::Config { field: f, .. }) => prop_assert_eq!(f, field),
            other => prop_assert!(false, "expected {} rejection, got {:?}", field, other.is_ok()),
        }
    }

    #[test]
    fn builder_rejects_nan_similarity(which in any::<bool>()) {
        let builder = if which {
            EngineBuilder::new(2).similarity(f64::NAN, 0.5)
        } else {
            EngineBuilder::new(2).similarity(0.5, f64::NAN)
        };
        prop_assert!(builder.build().is_err(), "NaN must never validate");
    }

    #[test]
    fn valid_axes_always_build(
        k in 1usize..9,
        peers in 1usize..9,
        f in 0.0f64..=1.0,
        gamma in 0.0f64..=1.0,
        max_rounds in 1usize..50,
        seed in any::<u64>(),
    ) {
        let engine = EngineBuilder::new(k)
            .similarity(f, gamma)
            .max_rounds(max_rounds)
            .seed(seed)
            .backend(Backend::SimulatedP2p { peers })
            .build();
        prop_assert!(engine.is_ok(), "{:?}", engine.err().map(|e| e.to_string()));
    }
}
