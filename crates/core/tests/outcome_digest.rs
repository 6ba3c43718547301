//! Training outcomes pinned to the bit: the digest of every field a fit
//! reports — assignments, rounds, convergence, the simulated clock's
//! seconds, work, bytes and messages, each round's trace, and churn
//! coverage — must equal the value recorded before the simulated-clock
//! drivers shared their round accounting.
//!
//! `training_digest.rs` pins the model bytes of two backends; these pin
//! the cost accounting Figs. 7–8 plot and the backends it does not cover:
//! churn (with and without departures, a rejoin, a total collapse),
//! PK-means, the unweighted merge and a network with more peers than
//! clusters. The threaded backend's time is wall clock, so its digest
//! hashes only what its real messages decide. VSM is left out: its
//! `simulated_seconds` is wall clock too.

use cxk_core::{
    Algorithm, Backend, ChurnEvent, ChurnSchedule, CxkConfig, EngineBuilder, FitOutcome,
};
use cxk_corpus::dblp::{generate, DblpConfig};
use cxk_transact::{BuildOptions, Dataset, DatasetBuilder, SimParams};
use std::path::PathBuf;

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

    fn assignments(&mut self, assignments: &[u32]) {
        self.word(assignments.len() as u64);
        for &a in assignments {
            self.word(u64::from(a));
        }
    }
}

/// Every field of the fit, the simulated clock's seconds by their bits.
fn outcome_digest(fit: &FitOutcome) -> u64 {
    let mut d = Digest::new();
    d.assignments(&fit.assignments);
    d.word(fit.k as u64);
    d.word(fit.m as u64);
    d.word(fit.rounds as u64);
    d.word(u64::from(fit.converged));
    d.word(fit.simulated_seconds.to_bits());
    d.word(fit.total_work);
    d.word(fit.total_bytes);
    d.word(fit.total_messages);
    d.word(fit.per_round.len() as u64);
    for trace in &fit.per_round {
        d.word(trace.round as u64);
        d.word(trace.relocations);
        d.word(trace.max_work);
        d.word(trace.bytes);
        d.word(trace.done_peers as u64);
    }
    match &fit.covered {
        None => d.word(0),
        Some(covered) => {
            d.word(1);
            d.word(covered.len() as u64);
            for &c in covered {
                d.word(u64::from(c));
            }
        }
    }
    match fit.final_alive {
        None => d.word(0),
        Some(alive) => {
            d.word(1);
            d.word(alive as u64);
        }
    }
    d.0
}

/// What the threaded backend's messages decide; its time, work and
/// per-round bytes are not part of its contract.
fn threaded_digest(fit: &FitOutcome) -> u64 {
    let mut d = Digest::new();
    d.assignments(&fit.assignments);
    d.word(fit.rounds as u64);
    d.word(u64::from(fit.converged));
    d.word(fit.total_bytes);
    d.word(fit.total_messages);
    d.word(fit.per_round.len() as u64);
    for trace in &fit.per_round {
        d.word(trace.relocations);
    }
    d.0
}

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

/// The synthetic two-dialect DBLP corpus of `training_digest.rs`.
fn synthetic_dataset() -> Dataset {
    let corpus = generate(&DblpConfig {
        documents: 120,
        seed: 11,
        dialects: 2,
    });
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for doc in &corpus.documents {
        builder.add_xml(doc).expect("valid synthetic document");
    }
    builder.finish()
}

/// A builder for `k` clusters at `(f, γ)` and `seed`, every other setting
/// at its default.
fn builder(k: usize, f: f64, gamma: f64, seed: u64) -> EngineBuilder {
    let mut config = CxkConfig::new(k);
    config.params = SimParams::new(f, gamma);
    config.seed = seed;
    EngineBuilder::from_cxk_config(&config)
}

fn fit(ds: &Dataset, builder: EngineBuilder) -> FitOutcome {
    builder
        .build()
        .expect("valid config")
        .fit(ds)
        .expect("fit succeeds")
}

/// Asserts each case's digest, reporting every mismatch at once.
fn check(cases: &[(&str, u64, u64)]) {
    let wrong: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#018x}, recorded {want:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn samples_outcomes_are_pinned() {
    let ds = samples_dataset();
    let b = || builder(3, 0.5, 0.6, 3);
    let centralized = fit(&ds, b());
    let p2p = fit(&ds, b().backend(Backend::SimulatedP2p { peers: 4 }));
    let pk = fit(&ds, b().algorithm(Algorithm::PkMeans));
    let collapse = fit(
        &ds,
        b().backend(Backend::Churn {
            peers: 3,
            schedule: ChurnSchedule::mass_departure(2, &[0, 1, 2]),
        }),
    );
    assert_eq!(collapse.final_alive, Some(0));
    assert!(!collapse.converged);
    check(&[
        (
            "centralized",
            outcome_digest(&centralized),
            0x46b4_b03b_f432_761c,
        ),
        (
            "simulated-p2p m=4",
            outcome_digest(&p2p),
            0x94e5_81ed_bba0_4e54,
        ),
        (
            "pk-means centralized",
            outcome_digest(&pk),
            0x46b4_b03b_f432_761c,
        ),
        (
            "churn m=3, all leave at 2",
            outcome_digest(&collapse),
            0x2701_796f_8540_d152,
        ),
    ]);
}

#[test]
fn synthetic_outcomes_are_pinned() {
    let ds = synthetic_dataset();
    let b = || builder(8, 0.4, 0.7, 5);
    let centralized = fit(&ds, b());
    let p2p = fit(&ds, b().backend(Backend::SimulatedP2p { peers: 4 }));
    let unweighted = fit(
        &ds,
        b().backend(Backend::SimulatedP2p { peers: 3 })
            .weighted_merge(false),
    );
    let no_churn = fit(
        &ds,
        b().backend(Backend::Churn {
            peers: 4,
            schedule: ChurnSchedule::none(),
        }),
    );
    let churn = fit(
        &ds,
        b().backend(Backend::Churn {
            peers: 4,
            schedule: ChurnSchedule {
                events: vec![
                    ChurnEvent::Leave { round: 2, peer: 1 },
                    ChurnEvent::Leave { round: 2, peer: 3 },
                    ChurnEvent::Rejoin { round: 4, peer: 1 },
                ],
            },
        }),
    );
    assert_eq!(churn.final_alive, Some(3));
    let pk = fit(
        &ds,
        b().algorithm(Algorithm::PkMeans)
            .backend(Backend::SimulatedP2p { peers: 4 }),
    );
    let pk_centralized = fit(&ds, b().algorithm(Algorithm::PkMeans));
    let wide = fit(
        &ds,
        builder(4, 0.5, 0.5, 2).backend(Backend::SimulatedP2p { peers: 9 }),
    );
    check(&[
        (
            "centralized",
            outcome_digest(&centralized),
            0xa255_2079_2ab2_72bb,
        ),
        (
            "simulated-p2p m=4",
            outcome_digest(&p2p),
            0x054b_ec5d_bd2f_65ce,
        ),
        (
            "unweighted m=3",
            outcome_digest(&unweighted),
            0xdd22_1c57_926b_151c,
        ),
        (
            "churn m=4, no events",
            outcome_digest(&no_churn),
            0x146f_2fba_27ce_dd88,
        ),
        (
            "churn m=4, leave 1+3, rejoin 1",
            outcome_digest(&churn),
            0x086f_eec1_dc66_cf5a,
        ),
        ("pk-means m=4", outcome_digest(&pk), 0xd79e_bee2_012c_292c),
        (
            "pk-means centralized",
            outcome_digest(&pk_centralized),
            0x16da_eefd_a089_0bb5,
        ),
        (
            "simulated-p2p m=9, k=4",
            outcome_digest(&wide),
            0x6590_eba8_c861_64de,
        ),
    ]);
}

#[test]
fn threaded_outcome_is_pinned() {
    let ds = synthetic_dataset();
    let threaded = fit(
        &ds,
        builder(8, 0.4, 0.7, 5).backend(Backend::ThreadedP2p { peers: 3 }),
    );
    check(&[(
        "threaded-p2p m=3",
        threaded_digest(&threaded),
        0xb9c1_e0c2_dd45_8d77,
    )]);
}
