//! Structural similarity between tag paths — Eq. (3) of the paper.
//!
//! For tag paths `p_i = t_i1.….t_in` and `p_j = t_j1.….t_jm`:
//!
//! ```text
//! sim_S(e_i, e_j) = 1/(n+m) · ( Σ_{h=1..n} s(t_ih, p_j, h)
//!                             + Σ_{k=1..m} s(t_jk, p_i, k) )
//! s(t, p, a) = max_{l=1..L} (1 + |a − l|)^{-1} · Δ(t, t_l)
//! ```
//!
//! `Δ` is the Dirichlet (exact tag match) function; the positional factor
//! penalizes equal tags appearing at different depths.
//!
//! The paper's complexity analysis (§4.3.2) observes that the pairwise
//! similarities between the maximal tag paths of a corpus can be computed
//! once and reused; [`TagPathSimTable`] is that precomputed table. It only
//! appends, so it is extended with new paths without recomputing a cell.

use cxk_util::{FxHashMap, Symbol};
use cxk_xml::path::{PathId, PathTable};

/// The tag-level match function `Δ` plugged into Eq. (3).
///
/// The paper evaluates the Dirichlet (exact-match) function and names
/// knowledge-base-backed semantic enrichment as future work (§4.1.1, §6).
/// Implementations of this trait supply that enrichment — e.g. the synonym
/// and taxonomy matchers in `cxk_semantic` — by returning a graded degree
/// of match in `[0, 1]` instead of the 0/1 indicator.
pub trait TagMatcher: Sync {
    /// Degree of match between two tag labels, in `[0, 1]`. Must be
    /// symmetric and reflexive (`delta(t, t) = 1`).
    fn delta(&self, a: Symbol, b: Symbol) -> f64;
}

/// The paper's Dirichlet `Δ`: `1` iff the tags are identical.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExactMatch;

impl TagMatcher for ExactMatch {
    #[inline]
    fn delta(&self, a: Symbol, b: Symbol) -> f64 {
        f64::from(a == b)
    }
}

/// Eq. (3): symmetric, in `[0, 1]`, `1.0` iff the label sequences are equal.
pub fn tag_path_similarity(p1: &[Symbol], p2: &[Symbol]) -> f64 {
    tag_path_similarity_with(p1, p2, &ExactMatch)
}

/// Eq. (3) with a custom tag matcher `Δ` in place of the Dirichlet
/// function. With [`ExactMatch`] this is exactly [`tag_path_similarity`].
pub fn tag_path_similarity_with(p1: &[Symbol], p2: &[Symbol], matcher: &impl TagMatcher) -> f64 {
    if p1.is_empty() && p2.is_empty() {
        return 1.0;
    }
    if p1.is_empty() || p2.is_empty() {
        return 0.0;
    }
    let total = directed_sum(p1, p2, matcher) + directed_sum(p2, p1, matcher);
    total / (p1.len() + p2.len()) as f64
}

/// `Σ_h s(t_h, other, h)` with 1-based positions, where
/// `s(t, p, a) = max_l (1 + |a − l|)^{-1} · Δ(t, t_l)`.
fn directed_sum(from: &[Symbol], other: &[Symbol], matcher: &impl TagMatcher) -> f64 {
    let mut sum = 0.0;
    for (h0, &tag) in from.iter().enumerate() {
        let a = (h0 + 1) as f64;
        let mut best = 0.0f64;
        for (l0, &candidate) in other.iter().enumerate() {
            let delta = matcher.delta(tag, candidate);
            if delta > 0.0 {
                let l = (l0 + 1) as f64;
                let score = delta / (1.0 + (a - l).abs());
                if score > best {
                    best = score;
                }
            }
        }
        sum += best;
    }
    sum
}

/// Precomputed pairwise `sim_S` over tag paths ranked by insertion order.
///
/// Each unordered pair is stored once, in a packed lower triangle (row `r`
/// holds the cells against ranks `0..=r`, at `r·(r+1)/2 + c`), so
/// appending a path appends a row and moves no cell. Eq. (3) adds the same
/// two directed sums in either orientation and addition commutes, so that
/// one cell is `sim_S` both ways, to the bit.
#[derive(Debug, Clone, Default)]
pub struct TagPathSimTable {
    rank: FxHashMap<PathId, u32>,
    /// The registered paths, in rank order.
    paths: Vec<PathId>,
    /// The packed lower triangle.
    cells: Vec<f64>,
}

impl TagPathSimTable {
    /// Builds the table for `tag_paths` (must all be registered in `table`)
    /// with the paper's exact-match `Δ`.
    pub fn build(tag_paths: &[PathId], table: &PathTable) -> Self {
        Self::build_with(tag_paths, table, &ExactMatch)
    }

    /// Builds the table with a custom tag matcher (semantic enrichment).
    pub fn build_with(tag_paths: &[PathId], table: &PathTable, matcher: &impl TagMatcher) -> Self {
        let mut sim = Self::default();
        sim.extend(tag_paths.iter().copied(), table, matcher);
        sim
    }

    /// Appends, in order, each path of `tag_paths` (registered in `table`)
    /// the table lacks, computing only its row: O(new × `len`) cells.
    pub fn extend(
        &mut self,
        tag_paths: impl IntoIterator<Item = PathId>,
        table: &PathTable,
        matcher: &impl TagMatcher,
    ) {
        for path in tag_paths {
            let rank = self.paths.len() as u32;
            if *self.rank.entry(path).or_insert(rank) != rank {
                continue;
            }
            self.paths.push(path);
            let labels = table.resolve(path);
            self.cells.extend(
                self.paths.iter().map(|&earlier| {
                    tag_path_similarity_with(table.resolve(earlier), labels, matcher)
                }),
            );
        }
    }

    /// Drops every path after the first `n`; the first `n` keep their
    /// ranks and cells.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.paths.len() {
            return;
        }
        for path in self.paths.drain(n..) {
            self.rank.remove(&path);
        }
        self.cells.truncate(n * (n + 1) / 2);
    }

    /// The rank of a registered tag path: its insertion order.
    pub fn rank_of(&self, path: PathId) -> Option<u32> {
        self.rank.get(&path).copied()
    }

    /// Number of registered tag paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Number of stored cells, `len·(len+1)/2`. The table only appends, so
    /// between truncations it grows by exactly the cells `extend` computes.
    pub fn stored_cells(&self) -> usize {
        self.cells.len()
    }

    /// Precomputed `sim_S` between two registered tag paths.
    ///
    /// # Panics
    /// Panics if either path is not registered.
    #[inline]
    pub fn sim(&self, a: PathId, b: PathId) -> f64 {
        self.sim_at(self.rank[&a], self.rank[&b])
    }

    /// Precomputed `sim_S` between the paths at ranks `i` and `j` (see
    /// [`TagPathSimTable::rank_of`]) — the hash-free lookup of the prepared
    /// scoring kernel. A rank outside the table scores `0.0`.
    #[inline]
    pub fn sim_at(&self, i: u32, j: u32) -> f64 {
        let (r, c) = (i.max(j) as usize, i.min(j) as usize);
        if r < self.paths.len() {
            self.cells.get(r * (r + 1) / 2 + c).copied().unwrap_or(0.0)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxk_util::Interner;

    fn paths(interner: &mut Interner, specs: &[&str]) -> Vec<Vec<Symbol>> {
        specs
            .iter()
            .map(|s| s.split('.').map(|t| interner.intern(t)).collect())
            .collect()
    }

    #[test]
    fn identical_paths_have_similarity_one() {
        let mut interner = Interner::new();
        let ps = paths(&mut interner, &["dblp.inproceedings.author"]);
        assert!((tag_path_similarity(&ps[0], &ps[0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_paths_have_similarity_zero() {
        let mut interner = Interner::new();
        let ps = paths(&mut interner, &["a.b.c", "x.y.z"]);
        assert_eq!(tag_path_similarity(&ps[0], &ps[1]), 0.0);
    }

    #[test]
    fn similarity_is_symmetric() {
        let mut interner = Interner::new();
        let ps = paths(
            &mut interner,
            &["dblp.article.title", "dblp.inproceedings.title.sub"],
        );
        let ab = tag_path_similarity(&ps[0], &ps[1]);
        let ba = tag_path_similarity(&ps[1], &ps[0]);
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.0 && ab < 1.0);
    }

    #[test]
    fn shifted_tags_are_penalized() {
        let mut interner = Interner::new();
        // Same tags, same positions vs. shifted by one level.
        let ps = paths(&mut interner, &["a.b.c", "r.a.b.c"]);
        let same = paths(&mut interner, &["a.b.c"]);
        let aligned = tag_path_similarity(&same[0], &same[0]);
        let shifted = tag_path_similarity(&ps[0], &ps[1]);
        assert!(shifted < aligned);
        // Shifted by one: each of a,b,c matches at distance 1 -> 1/2 each.
        // sum = 3*(1/2) + 0(r) + 3*(1/2) = 3; / (3+4) = 3/7.
        assert!((shifted - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn worked_example_partial_overlap() {
        let mut interner = Interner::new();
        let ps = paths(&mut interner, &["a.b", "a.c"]);
        // a matches a at distance 0 in both directions; b,c match nothing.
        // sum = 1 + 1 = 2; / 4 = 0.5.
        assert!((tag_path_similarity(&ps[0], &ps[1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn repeated_tag_takes_best_position() {
        let mut interner = Interner::new();
        // Path with a duplicated label: the max over l picks the closest.
        let ps = paths(&mut interner, &["a.a", "a"]);
        // Directed a.a -> a: h=1 matches l=1 => 1; h=2 matches l=1 => 1/2.
        // Directed a -> a.a: h=1 matches l=1 => 1 (best of 1, 1/2).
        // total = 2.5 / 3.
        assert!((tag_path_similarity(&ps[0], &ps[1]) - 2.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn range_is_unit_interval() {
        let mut interner = Interner::new();
        let ps = paths(
            &mut interner,
            &[
                "a",
                "a.b",
                "a.b.c",
                "a.c.b",
                "c.b.a",
                "x.b",
                "a.x.c.d.e",
                "b",
                "b.a",
            ],
        );
        for p in &ps {
            for q in &ps {
                let s = tag_path_similarity(p, q);
                assert!((0.0..=1.0 + 1e-12).contains(&s), "sim={s}");
            }
        }
    }

    #[test]
    fn empty_path_edge_cases() {
        let mut interner = Interner::new();
        let ps = paths(&mut interner, &["a.b"]);
        assert_eq!(tag_path_similarity(&[], &ps[0]), 0.0);
        assert_eq!(tag_path_similarity(&[], &[]), 1.0);
    }

    #[test]
    fn table_matches_direct_computation() {
        let mut interner = Interner::new();
        let mut table = PathTable::new();
        let specs = [
            "dblp.article.title",
            "dblp.inproceedings.title",
            "dblp.book",
        ];
        let ids: Vec<PathId> = specs
            .iter()
            .map(|s| {
                let labels: Vec<Symbol> = s.split('.').map(|t| interner.intern(t)).collect();
                table.intern(&labels)
            })
            .collect();
        let sim_table = TagPathSimTable::build(&ids, &table);
        assert_eq!(sim_table.len(), 3);
        for &a in &ids {
            for &b in &ids {
                let direct = tag_path_similarity(table.resolve(a), table.resolve(b));
                assert!((sim_table.sim(a, b) - direct).abs() < 1e-12);
            }
        }
        assert_eq!(sim_table.rank_of(PathId(999)), None);
    }

    #[test]
    fn mirrored_cells_equal_direct_computation_bit_for_bit() {
        // The table computes each unordered pair once; the cell must be
        // exactly what Eq. (3) gives in either orientation, also under a
        // graded matcher.
        let mut interner = Interner::new();
        let mut table = PathTable::new();
        let specs = [
            "dblp.article.title",
            "dblp.inproceedings.title.sub",
            "dblp.book",
            "a.author.b.artist",
            "root.author",
            "x",
        ];
        let ids: Vec<PathId> = specs
            .iter()
            .map(|s| {
                let labels: Vec<Symbol> = s.split('.').map(|t| interner.intern(t)).collect();
                table.intern(&labels)
            })
            .collect();
        let matcher = FirstLetter(&interner);
        let sim_table = TagPathSimTable::build_with(&ids, &table, &matcher);
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                let direct = tag_path_similarity_with(table.resolve(a), table.resolve(b), &matcher);
                assert_eq!(sim_table.sim(a, b).to_bits(), direct.to_bits());
                assert_eq!(
                    sim_table.sim_at(i as u32, j as u32).to_bits(),
                    direct.to_bits()
                );
            }
        }
        assert_eq!(
            sim_table.sim_at(0, ids.len() as u32),
            0.0,
            "out-of-range rank"
        );
    }

    #[test]
    fn empty_table_is_valid() {
        let table = PathTable::new();
        let sim_table = TagPathSimTable::build(&[], &table);
        assert!(sim_table.is_empty());
    }

    /// A matcher that grades any two tags sharing a first letter at 0.5.
    struct FirstLetter<'a>(&'a Interner);

    impl TagMatcher for FirstLetter<'_> {
        fn delta(&self, a: Symbol, b: Symbol) -> f64 {
            if a == b {
                1.0
            } else if self.0.resolve(a).chars().next() == self.0.resolve(b).chars().next() {
                0.5
            } else {
                0.0
            }
        }
    }

    #[test]
    fn graded_matcher_scores_between_exact_and_disjoint() {
        let mut interner = Interner::new();
        let ps = paths(&mut interner, &["root.author", "root.artist"]);
        let matcher = FirstLetter(&interner);
        let graded = tag_path_similarity_with(&ps[0], &ps[1], &matcher);
        let exact = tag_path_similarity(&ps[0], &ps[1]);
        // Exact: only `root` matches -> 2/4 = 0.5.
        assert!((exact - 0.5).abs() < 1e-12);
        // Graded: `author`/`artist` add 0.5 each direction -> 3/4.
        assert!((graded - 0.75).abs() < 1e-12);
    }

    #[test]
    fn graded_matcher_prefers_exact_over_partial_at_distance() {
        let mut interner = Interner::new();
        // `a` appears exactly at distance 1 (score 1/2) and `apple`
        // partially at distance 0 (score 0.5·1 = 1/2); ties keep the max.
        let ps = paths(&mut interner, &["a", "apple.a"]);
        let matcher = FirstLetter(&interner);
        let s = tag_path_similarity_with(&ps[0], &ps[1], &matcher);
        // Directed a→(apple.a): max(0.5·1, 1·1/2) = 0.5.
        // Directed (apple.a)→a: apple: 0.5·1 = 0.5; a: 1·1/2 = 0.5.
        // total = 1.5 / 3 = 0.5.
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn build_with_exact_matches_build() {
        let mut interner = Interner::new();
        let mut table = PathTable::new();
        let specs = ["dblp.article.title", "dblp.book"];
        let ids: Vec<PathId> = specs
            .iter()
            .map(|s| {
                let labels: Vec<Symbol> = s.split('.').map(|t| interner.intern(t)).collect();
                table.intern(&labels)
            })
            .collect();
        let a = TagPathSimTable::build(&ids, &table);
        let b = TagPathSimTable::build_with(&ids, &table, &ExactMatch);
        for &x in &ids {
            for &y in &ids {
                assert_eq!(a.sim(x, y), b.sim(x, y));
            }
        }
    }
}
