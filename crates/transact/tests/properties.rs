//! Property-based tests for the similarity measures (Eqs. 1–4): metric-like
//! axioms that the clustering relies on.

use cxk_text::SparseVec;
use cxk_transact::item::ItemView;
use cxk_transact::pathsim::{
    tag_path_similarity, tag_path_similarity_with, ExactMatch, TagMatcher, TagPathSimTable,
};
use cxk_transact::txsim::{
    gamma_shared, sim_gamma_j, sim_gamma_j_prepared, sim_gamma_j_reference, union_size,
    PreparedSlab, ScoreScratch,
};
use cxk_transact::{SimCtx, SimParams};
use cxk_util::{FxHashSet, Interner, Symbol};
use cxk_xml::path::{PathId, PathTable};
use proptest::prelude::*;

fn path_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..8, 1..6)
}

fn to_symbols(path: &[u8], interner: &mut Interner) -> Vec<Symbol> {
    path.iter()
        .map(|l| interner.intern(&format!("t{l}")))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn path_similarity_is_symmetric_and_bounded(a in path_strategy(), b in path_strategy()) {
        let mut interner = Interner::new();
        let pa = to_symbols(&a, &mut interner);
        let pb = to_symbols(&b, &mut interner);
        let ab = tag_path_similarity(&pa, &pb);
        let ba = tag_path_similarity(&pb, &pa);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ab));
    }

    #[test]
    fn path_similarity_identity(a in path_strategy()) {
        let mut interner = Interner::new();
        let pa = to_symbols(&a, &mut interner);
        prop_assert!((tag_path_similarity(&pa, &pa) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_similarity_one_implies_equality(a in path_strategy(), b in path_strategy()) {
        let mut interner = Interner::new();
        let pa = to_symbols(&a, &mut interner);
        let pb = to_symbols(&b, &mut interner);
        if (tag_path_similarity(&pa, &pb) - 1.0).abs() < 1e-12 {
            prop_assert_eq!(pa, pb);
        }
    }
}

/// A symmetric, reflexive graded `Δ`: equal labels match fully, labels of
/// the same parity half.
struct Parity;

impl TagMatcher for Parity {
    fn delta(&self, a: Symbol, b: Symbol) -> f64 {
        if a == b {
            1.0
        } else if a.0 % 2 == b.0 % 2 {
            0.5
        } else {
            0.0
        }
    }
}

/// Tag paths of depth 0–6 over four labels, so that lists repeat paths.
fn table_path_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 0..7)
}

/// `table` holds `ids`' distinct paths in first-seen order, and every
/// cell is `to_bits`-equal to Eq. (3) in both argument orders.
fn assert_table_is_eq3(
    table: &TagPathSimTable,
    ids: &[PathId],
    paths: &PathTable,
    matcher: &impl TagMatcher,
) {
    let mut distinct: Vec<PathId> = Vec::new();
    for &id in ids {
        if !distinct.contains(&id) {
            distinct.push(id);
        }
    }
    assert_eq!(table.len(), distinct.len());
    assert_eq!(
        table.stored_cells(),
        distinct.len() * (distinct.len() + 1) / 2
    );
    for (rank, &a) in distinct.iter().enumerate() {
        assert_eq!(table.rank_of(a), Some(rank as u32));
        for (other, &b) in distinct.iter().enumerate() {
            let ab = tag_path_similarity_with(paths.resolve(a), paths.resolve(b), matcher);
            let ba = tag_path_similarity_with(paths.resolve(b), paths.resolve(a), matcher);
            assert_eq!(table.sim(a, b).to_bits(), ab.to_bits());
            assert_eq!(table.sim(a, b).to_bits(), ba.to_bits());
            assert_eq!(
                table.sim_at(rank as u32, other as u32).to_bits(),
                ab.to_bits()
            );
        }
        assert_eq!(table.sim_at(rank as u32, distinct.len() as u32), 0.0);
    }
}

/// [`assert_table_is_eq3`] for a table built over `ids`, for one grown
/// from a prefix in `chunks`, and for that one truncated to `keep` paths
/// and extended again.
fn check_append_only_table(
    ids: &[PathId],
    paths: &PathTable,
    matcher: &impl TagMatcher,
    prefix: usize,
    chunks: &[usize],
    keep: usize,
) {
    let full = TagPathSimTable::build_with(ids, paths, matcher);
    assert_table_is_eq3(&full, ids, paths, matcher);

    let prefix = prefix.min(ids.len());
    let mut grown = TagPathSimTable::build_with(&ids[..prefix], paths, matcher);
    let mut rest = &ids[prefix..];
    for &chunk in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (next, tail) = rest.split_at(chunk.min(rest.len()));
        grown.extend(next.iter().copied(), paths, matcher);
        rest = tail;
    }
    assert_table_is_eq3(&grown, ids, paths, matcher);

    let keep = keep.min(grown.len());
    let kept: Vec<(PathId, Option<u32>)> = ids.iter().map(|&id| (id, grown.rank_of(id))).collect();
    grown.truncate(keep);
    assert_eq!(grown.len(), keep);
    assert_eq!(grown.stored_cells(), keep * (keep + 1) / 2);
    for (id, rank) in kept {
        let expected = rank.filter(|&r| (r as usize) < keep);
        assert_eq!(grown.rank_of(id), expected);
    }
    grown.extend(ids.iter().copied(), paths, matcher);
    assert_table_is_eq3(&grown, ids, paths, matcher);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn append_only_table_agrees_with_a_full_build(
        specs in proptest::collection::vec(table_path_strategy(), 0..14),
        prefix in 0usize..14,
        chunks in proptest::collection::vec(1usize..5, 1..6),
        keep in 0usize..14,
    ) {
        let mut interner = Interner::new();
        let mut paths = PathTable::new();
        let ids: Vec<PathId> = specs
            .iter()
            .map(|p| paths.intern(&to_symbols(p, &mut interner)))
            .collect();
        check_append_only_table(&ids, &paths, &ExactMatch, prefix, &chunks, keep);
        check_append_only_table(&ids, &paths, &Parity, prefix, &chunks, keep);
    }
}

/// Builds a random similarity fixture: a set of tag paths and vectors.
#[derive(Debug, Clone)]
struct Fixture {
    table: TagPathSimTable,
    tag_paths: Vec<PathId>,
    vectors: Vec<SparseVec>,
}

type FixtureSpec = (Vec<Vec<u8>>, Vec<Vec<(u8, u8)>>);

fn fixture_strategy() -> impl Strategy<Value = FixtureSpec> {
    (
        proptest::collection::vec(path_strategy(), 1..5),
        proptest::collection::vec(proptest::collection::vec((0u8..12, 1u8..10), 0..5), 1..5),
    )
}

fn build_fixture(paths: &[Vec<u8>], vectors: &[Vec<(u8, u8)>]) -> Fixture {
    let mut interner = Interner::new();
    let mut table = PathTable::new();
    let ids: Vec<PathId> = paths
        .iter()
        .map(|p| {
            let symbols = to_symbols(p, &mut interner);
            table.intern(&symbols)
        })
        .collect();
    let mut dedup = ids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    let sim_table = TagPathSimTable::build(&dedup, &table);
    let vecs: Vec<SparseVec> = vectors
        .iter()
        .map(|pairs| {
            SparseVec::from_pairs(
                pairs
                    .iter()
                    .map(|&(t, w)| (Symbol(u32::from(t)), f64::from(w)))
                    .collect(),
            )
        })
        .collect();
    Fixture {
        table: sim_table,
        tag_paths: ids,
        vectors: vecs,
    }
}

/// Assembles transactions of item views over the fixture.
fn views<'a>(fx: &'a Fixture, spec: &[(usize, usize)], fp_base: u64) -> Vec<ItemView<'a>> {
    spec.iter()
        .enumerate()
        .map(|(i, &(p, v))| ItemView {
            tag_path: fx.tag_paths[p % fx.tag_paths.len()],
            vector: &fx.vectors[v % fx.vectors.len()],
            fingerprint: fp_base + i as u64,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transaction_similarity_axioms(
        (paths, vectors) in fixture_strategy(),
        tr1_spec in proptest::collection::vec((0usize..8, 0usize..8), 1..5),
        tr2_spec in proptest::collection::vec((0usize..8, 0usize..8), 1..5),
        f in 0.0f64..=1.0,
        gamma in 0.3f64..=1.0,
    ) {
        let fx = build_fixture(&paths, &vectors);
        let ctx = SimCtx::new(&fx.table, SimParams::new(f, gamma));
        let tr1 = views(&fx, &tr1_spec, 100);
        let tr2 = views(&fx, &tr2_spec, 200);

        // Symmetry and range.
        let ab = sim_gamma_j(&ctx, &tr1, &tr2);
        let ba = sim_gamma_j(&ctx, &tr2, &tr1);
        prop_assert!((ab - ba).abs() < 1e-12, "asymmetric: {ab} vs {ba}");
        prop_assert!((0.0..=1.0).contains(&ab));

        // Identity: a transaction is maximally similar to itself.
        let self_sim = sim_gamma_j(&ctx, &tr1, &tr1);
        prop_assert!((self_sim - 1.0).abs() < 1e-12, "self sim = {self_sim}");

        // The gamma-shared set only contains fingerprints from the union.
        let shared = gamma_shared(&ctx, &tr1, &tr2);
        let all: FxHashSet<u64> = tr1
            .iter()
            .chain(&tr2)
            .map(|v| v.fingerprint)
            .collect();
        for fp in &shared {
            prop_assert!(all.contains(fp));
        }
        prop_assert!(shared.len() <= union_size(&tr1, &tr2));
    }

    #[test]
    fn gamma_monotonicity(
        (paths, vectors) in fixture_strategy(),
        tr1_spec in proptest::collection::vec((0usize..8, 0usize..8), 1..4),
        tr2_spec in proptest::collection::vec((0usize..8, 0usize..8), 1..4),
        f in 0.0f64..=1.0,
    ) {
        // Raising gamma can only shrink the gamma-shared set.
        let fx = build_fixture(&paths, &vectors);
        let tr1 = views(&fx, &tr1_spec, 100);
        let tr2 = views(&fx, &tr2_spec, 200);
        let loose_ctx = SimCtx::new(&fx.table, SimParams::new(f, 0.4));
        let strict_ctx = SimCtx::new(&fx.table, SimParams::new(f, 0.9));
        let loose = gamma_shared(&loose_ctx, &tr1, &tr2);
        let strict = gamma_shared(&strict_ctx, &tr1, &tr2);
        prop_assert!(strict.len() <= loose.len());
    }

    #[test]
    fn item_similarity_is_convex_in_f(
        (paths, vectors) in fixture_strategy(),
        p1 in 0usize..8, v1 in 0usize..8,
        p2 in 0usize..8, v2 in 0usize..8,
    ) {
        let fx = build_fixture(&paths, &vectors);
        let a = ItemView {
            tag_path: fx.tag_paths[p1 % fx.tag_paths.len()],
            vector: &fx.vectors[v1 % fx.vectors.len()],
            fingerprint: 1,
        };
        let b = ItemView {
            tag_path: fx.tag_paths[p2 % fx.tag_paths.len()],
            vector: &fx.vectors[v2 % fx.vectors.len()],
            fingerprint: 2,
        };
        let structure = SimCtx::new(&fx.table, SimParams::new(1.0, 0.5)).sim(a, b);
        let content = SimCtx::new(&fx.table, SimParams::new(0.0, 0.5)).sim(a, b);
        let mixed = SimCtx::new(&fx.table, SimParams::new(0.3, 0.5)).sim(a, b);
        let expected = 0.3 * structure + 0.7 * content;
        prop_assert!((mixed - expected).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------
// The prepared scoring kernel against the reference definition.
// ---------------------------------------------------------------------

/// `(tag path, vector, fingerprint)` indices of one transaction's items.
/// Fingerprints come from a pool of six, so the same fingerprint repeats
/// within a side and is shared across sides.
type TxSpec = Vec<(usize, usize, u64)>;

fn tx_strategy() -> impl Strategy<Value = TxSpec> {
    proptest::collection::vec((0usize..8, 0usize..8, 0u64..6), 0..7)
}

/// Weights with real rounding, plus values whose squares underflow (a
/// non-empty TCU with norm 0) and exact ones.
fn weight_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => 0.01f64..10.0,
        1 => Just(1e-170),
        1 => Just(1.0),
    ]
}

/// Tag paths, and vectors as `(term, weight)` lists.
type KernelFixtureSpec = (Vec<Vec<u8>>, Vec<Vec<(u8, f64)>>);

/// Vectors over a small vocabulary; empty TCUs are common.
fn kernel_fixture_strategy() -> impl Strategy<Value = KernelFixtureSpec> {
    (
        proptest::collection::vec(path_strategy(), 1..6),
        proptest::collection::vec(
            proptest::collection::vec((0u8..10, weight_strategy()), 0..6),
            1..6,
        ),
    )
}

/// `f` and `γ` at both ends of their range and anywhere in between.
fn unit_param_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0]
}

fn kernel_fixture(paths: &[Vec<u8>], vectors: &[Vec<(u8, f64)>]) -> Fixture {
    let mut interner = Interner::new();
    let mut table = PathTable::new();
    let ids: Vec<PathId> = paths
        .iter()
        .map(|p| {
            let symbols = to_symbols(p, &mut interner);
            table.intern(&symbols)
        })
        .collect();
    let mut dedup = ids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    Fixture {
        table: TagPathSimTable::build(&dedup, &table),
        tag_paths: ids,
        vectors: vectors
            .iter()
            .map(|pairs| {
                SparseVec::from_pairs(
                    pairs
                        .iter()
                        .map(|&(t, w)| (Symbol(u32::from(t)), w))
                        .collect(),
                )
            })
            .collect(),
    }
}

fn spec_views<'a>(fx: &'a Fixture, spec: &TxSpec) -> Vec<ItemView<'a>> {
    spec.iter()
        .map(|&(p, v, fingerprint)| ItemView {
            tag_path: fx.tag_paths[p % fx.tag_paths.len()],
            vector: &fx.vectors[v % fx.vectors.len()],
            fingerprint,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prepared_kernel_is_bit_identical_to_the_reference(
        (paths, vectors) in kernel_fixture_strategy(),
        specs in proptest::collection::vec(tx_strategy(), 1..6),
        f in unit_param_strategy(),
        gamma in unit_param_strategy(),
    ) {
        let fx = kernel_fixture(&paths, &vectors);
        let ctx = SimCtx::new(&fx.table, SimParams::new(f, gamma));
        let txs: Vec<Vec<ItemView<'_>>> = specs.iter().map(|s| spec_views(&fx, s)).collect();
        // One slab holding every transaction, one scratch warmed across
        // pairs of different shapes: offsets and reuse are exercised too.
        let slab = PreparedSlab::build(&fx.table, txs.iter().map(|t| t.iter().copied()));
        prop_assert_eq!(slab.len(), txs.len());
        let mut scratch = ScoreScratch::default();
        for (i, a) in txs.iter().enumerate() {
            for (j, b) in txs.iter().enumerate() {
                let reference = sim_gamma_j_reference(&ctx, a, b);
                let prepared = sim_gamma_j_prepared(
                    &ctx,
                    slab.get(i).expect("prepared"),
                    slab.get(j).expect("prepared"),
                    &mut scratch,
                );
                prop_assert_eq!(
                    prepared.to_bits(),
                    reference.to_bits(),
                    "f={} γ={} tr{}={:?} tr{}={:?}: prepared {} vs reference {}",
                    f, gamma, i, specs[i], j, specs[j], prepared, reference
                );
                prop_assert_eq!(sim_gamma_j(&ctx, a, b).to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn prepared_ranks_survive_appended_table_paths(
        (paths, vectors) in kernel_fixture_strategy(),
        extra in proptest::collection::vec(path_strategy(), 1..4),
        tr1 in tx_strategy(),
        tr2 in tx_strategy(),
        f in unit_param_strategy(),
        gamma in unit_param_strategy(),
    ) {
        // Serving prepares representatives against the model's table and
        // scores under a session table that appends query paths after
        // them: every earlier rank keeps its meaning.
        let mut fx = kernel_fixture(&paths, &vectors);
        let mut interner = Interner::new();
        let mut table = PathTable::new();
        let base: Vec<PathId> = paths
            .iter()
            .map(|p| table.intern(&to_symbols(p, &mut interner)))
            .collect();
        fx.tag_paths = base.clone();
        let mut base_sorted = base.clone();
        base_sorted.sort_unstable();
        base_sorted.dedup();
        let base_table = TagPathSimTable::build(&base_sorted, &table);
        let mut appended = base_sorted.clone();
        for p in &extra {
            let id = table.intern(&to_symbols(p, &mut interner));
            if !appended.contains(&id) {
                appended.push(id);
            }
        }
        let session_table = TagPathSimTable::build(&appended, &table);
        let a = spec_views(&fx, &tr1);
        let b = spec_views(&fx, &tr2);
        let mut reps = PreparedSlab::new();
        reps.push(&base_table, b.iter().copied());
        let mut query = PreparedSlab::new();
        query.push(&session_table, a.iter().copied());
        let ctx = SimCtx::new(&session_table, SimParams::new(f, gamma));
        let prepared = sim_gamma_j_prepared(
            &ctx,
            query.get(0).expect("query"),
            reps.get(0).expect("rep"),
            &mut ScoreScratch::default(),
        );
        let reference = sim_gamma_j_reference(&SimCtx::new(&base_table, SimParams::new(f, gamma)), &a, &b);
        prop_assert_eq!(prepared.to_bits(), reference.to_bits());
    }
}

#[test]
fn prepared_kernel_conventions_on_empty_transactions() {
    let fx = kernel_fixture(&[vec![1, 2]], &[vec![(1, 2.0)], vec![]]);
    let ctx = SimCtx::new(&fx.table, SimParams::new(0.5, 0.5));
    let item = spec_views(&fx, &vec![(0, 0, 7)]);
    let empty_tcu = spec_views(&fx, &vec![(0, 1, 8)]);
    let none: Vec<ItemView<'_>> = Vec::new();
    let slab = PreparedSlab::build(
        &fx.table,
        [&none, &item, &empty_tcu].iter().map(|t| t.iter().copied()),
    );
    let mut scratch = ScoreScratch::default();
    let score = |i: usize, j: usize, scratch: &mut ScoreScratch| {
        sim_gamma_j_prepared(&ctx, slab.get(i).unwrap(), slab.get(j).unwrap(), scratch)
    };
    assert_eq!(score(0, 0, &mut scratch), 1.0, "simγJ(∅, ∅) = 1");
    assert_eq!(score(0, 1, &mut scratch).to_bits(), 0.0f64.to_bits());
    assert_eq!(score(1, 0, &mut scratch).to_bits(), 0.0f64.to_bits());
    assert_eq!(score(1, 1, &mut scratch), 1.0);
    // An empty TCU against itself is identical content (sim_C = 1).
    assert_eq!(score(2, 2, &mut scratch), 1.0);
    assert!(slab.get(3).is_none());
}
