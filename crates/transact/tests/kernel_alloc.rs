//! The prepared `simγJ` kernel allocates nothing once warm: re-preparing a
//! query tuple into a cleared slab and scoring it against every prepared
//! representative reuses the slab's and the scratch's buffers.
//!
//! A counting global allocator tallies allocations made by the current
//! thread (a thread-local counter, so the test harness's own threads do
//! not interfere). This file holds a single test for the same reason.

use cxk_transact::txsim::{sim_gamma_j_prepared, PreparedSlab, ScoreScratch};
use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is bumping a thread-local counter, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn doc(i: usize) -> String {
    let topics = [
        ("mining", "frequent patterns clustering trees mining"),
        ("network", "routing congestion protocols packets networks"),
        (
            "theory",
            "automata complexity reductions proofs lower bounds",
        ),
    ];
    let (key, title) = topics[i % topics.len()];
    format!(
        r#"<dblp><article key="{key}{i}"><author>A. {key} {i}</author><author>B. Coauthor</author><title>{title} {i}</title><journal>J{}</journal><year>{}</year></article></dblp>"#,
        i % 3,
        1990 + i % 7
    )
}

#[test]
fn warm_scoring_allocates_nothing() {
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for i in 0..24 {
        builder.add_xml(&doc(i)).expect("valid document");
    }
    let ds = builder.finish();
    let ctx = ds.sim_ctx(SimParams::new(0.5, 0.6));
    // Representatives: every other transaction; queries: the rest.
    let reps = PreparedSlab::build(
        ctx.tag_sim,
        ds.transactions
            .iter()
            .step_by(2)
            .map(|tr| ds.views(tr).into_iter()),
    );
    let queries: Vec<_> = ds.transactions.iter().skip(1).step_by(2).collect();
    let query_views: Vec<_> = queries.iter().map(|tr| ds.views(tr)).collect();
    assert!(reps.len() >= 10 && query_views.len() >= 10);

    let mut query = PreparedSlab::new();
    let mut scratch = ScoreScratch::default();
    let pass = |query: &mut PreparedSlab, scratch: &mut ScoreScratch| -> f64 {
        let mut total = 0.0;
        for views in &query_views {
            query.clear();
            query.push(ctx.tag_sim, views.iter().copied());
            let Some(q) = query.get(0) else {
                continue;
            };
            for rep in reps.iter() {
                total += sim_gamma_j_prepared(&ctx, q, rep, scratch);
            }
        }
        total
    };
    // Warm-up: the slab and the scratch grow to the largest tuple/pair
    // (which the counter must see, or it would prove nothing).
    let cold = allocations();
    let warm_total = pass(&mut query, &mut scratch);
    assert!(
        allocations() > cold,
        "the counter sees the warm-up's growth"
    );
    assert!(warm_total > 0.0, "the corpus must produce matches");

    let before = allocations();
    let total = pass(&mut query, &mut scratch);
    let after = allocations();
    assert_eq!(total.to_bits(), warm_total.to_bits());
    assert_eq!(
        after - before,
        0,
        "a warm prepare-and-score pass over {} queries × {} representatives allocated",
        query_views.len(),
        reps.len()
    );
}
