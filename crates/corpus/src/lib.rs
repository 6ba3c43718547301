//! Synthetic XML corpora with ground truth.
//!
//! The paper evaluates on four real collections (DBLP, IEEE/INEX,
//! Shakespeare, Wikipedia/INEX) that are not redistributable offline. This
//! crate generates seeded synthetic stand-ins that preserve exactly the
//! properties the clustering pipeline is sensitive to — the structural
//! markup classes, the topical term distributions and the relative corpus
//! sizes — and carries per-document ground-truth labels for the F-measure
//! evaluation.
//!
//! * [`dblp`] — bibliographic records, 4 structural × 6 topical classes,
//!   16 hybrid classes.
//! * [`ieee`] — journal articles, 2 structural × 8 topical classes,
//!   14 hybrid classes.
//! * [`shakespeare`] — few very long plays, 3 structural / 5 content /
//!   12 hybrid classes.
//! * [`wikipedia`] — structurally homogeneous articles over 21 topics
//!   (content-driven clustering only, as in the paper).
//! * [`partition`] — the equal and unequal peer partitioning scenarios of
//!   §5.1.
//! * [`disk`] — streaming synthesis of newline-delimited corpus files
//!   (`cxk synth`), one document at a time in constant memory.

#![warn(missing_docs)]

pub mod dblp;
pub mod dialect;
pub mod disk;
pub mod ieee;
pub mod partition;
pub mod shakespeare;
pub mod textgen;
pub mod vocab;
pub mod wikipedia;

pub use disk::{synthesize_to, CorpusStream, SynthSpec, SynthSummary};
pub use partition::{partition_equal, partition_unequal};

/// One generated document with its ground-truth labels, as yielded by the
/// per-document generator streams ([`dblp::DblpStream`],
/// [`ieee::IeeeStream`], [`wikipedia::WikipediaStream`]).
#[derive(Debug, Clone)]
pub struct LabeledDoc {
    /// The document's XML text (single-line `Layout::Compact`).
    pub xml: String,
    /// Structural class.
    pub structure: u32,
    /// Content (topic) class.
    pub content: u32,
    /// Hybrid class.
    pub hybrid: u32,
}

/// A generated corpus: XML documents plus per-document class labels.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Corpus name (for reports).
    pub name: &'static str,
    /// XML document texts.
    pub documents: Vec<String>,
    /// Structural class per document.
    pub structure_class: Vec<u32>,
    /// Content (topic) class per document.
    pub content_class: Vec<u32>,
    /// Hybrid (structure × content) class per document.
    pub hybrid_class: Vec<u32>,
    /// Number of structural classes.
    pub k_structure: usize,
    /// Number of content classes.
    pub k_content: usize,
    /// Number of hybrid classes.
    pub k_hybrid: usize,
}

impl Corpus {
    /// Number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// The per-document labels for a clustering setting.
    pub fn labels_for(&self, setting: ClusteringSetting) -> (&[u32], usize) {
        match setting {
            ClusteringSetting::Structure => (&self.structure_class, self.k_structure),
            ClusteringSetting::Content => (&self.content_class, self.k_content),
            ClusteringSetting::Hybrid => (&self.hybrid_class, self.k_hybrid),
        }
    }
}

/// The three clustering settings of §5.1, determining both the reference
/// classification and the `f` range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusteringSetting {
    /// `f ∈ [0, 0.3]`: group by topic regardless of markup.
    Content,
    /// `f ∈ [0.4, 0.6]`: group by both.
    Hybrid,
    /// `f ∈ [0.7, 1]`: group by markup regardless of topic.
    Structure,
}

impl ClusteringSetting {
    /// The paper's `f` grid for this setting (step 0.1 over `[0,1]`).
    pub fn f_grid(self) -> &'static [f64] {
        match self {
            ClusteringSetting::Content => &[0.0, 0.1, 0.2, 0.3],
            ClusteringSetting::Hybrid => &[0.4, 0.5, 0.6],
            ClusteringSetting::Structure => &[0.7, 0.8, 0.9, 1.0],
        }
    }

    /// The midpoint of the `f` range, used by quick harness runs.
    pub fn f_mid(self) -> f64 {
        match self {
            ClusteringSetting::Content => 0.2,
            ClusteringSetting::Hybrid => 0.5,
            ClusteringSetting::Structure => 0.8,
        }
    }

    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            ClusteringSetting::Content => "content-driven",
            ClusteringSetting::Hybrid => "structure/content-driven",
            ClusteringSetting::Structure => "structure-driven",
        }
    }
}

/// Expands per-document labels to per-transaction labels via the dataset's
/// `doc_of` mapping.
pub fn transaction_labels(doc_labels: &[u32], doc_of: &[u32]) -> Vec<u32> {
    doc_of.iter().map(|&d| doc_labels[d as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_labels_follow_doc_of() {
        let doc_labels = vec![10, 20, 30];
        let doc_of = vec![0, 0, 2, 1];
        assert_eq!(
            transaction_labels(&doc_labels, &doc_of),
            vec![10, 10, 30, 20]
        );
    }

    #[test]
    fn f_grids_cover_unit_interval_partition() {
        let mut all: Vec<f64> = ClusteringSetting::Content
            .f_grid()
            .iter()
            .chain(ClusteringSetting::Hybrid.f_grid())
            .chain(ClusteringSetting::Structure.f_grid())
            .copied()
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all.len(), 11); // 0.0 .. 1.0 step 0.1
        assert_eq!(all[0], 0.0);
        assert_eq!(*all.last().unwrap(), 1.0);
    }

    #[test]
    fn f_mid_lies_in_grid_range() {
        for s in [
            ClusteringSetting::Content,
            ClusteringSetting::Hybrid,
            ClusteringSetting::Structure,
        ] {
            let grid = s.f_grid();
            let mid = s.f_mid();
            assert!(mid >= grid[0] && mid <= *grid.last().unwrap());
        }
    }
}
