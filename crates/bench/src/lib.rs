//! Experiment harness regenerating every table and figure of the paper.
//!
//! The binaries (`fig7`, `table1`, `table2`, `fig8`, `saturation`) are thin
//! CLI wrappers over the library functions in [`experiments`]; the
//! integration tests drive the same functions at reduced scale, so a
//! harness regression is caught by `cargo test`.
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Fig. 7(a–d) runtime vs. peers, full & halved corpora | [`experiments::fig7`] | `fig7` |
//! | Table 1(a–c) F-measure vs. peers, equal partition | [`experiments::accuracy_table`] | `table1` |
//! | Table 2(a–c) F-measure vs. peers, unequal partition | [`experiments::accuracy_table`] | `table2` |
//! | Fig. 8(a,b) CXK vs. PK runtime (+ §5.5.3 accuracy delta) | [`experiments::fig8`] | `fig8` |
//! | §4.3.4 analytic saturation ablation | [`experiments::saturation`] | `saturation` |

#![warn(missing_docs)]

pub mod args;
pub mod data;
pub mod experiments;
pub mod table_runner;

pub use data::{prepare, CorpusKind, Prepared};
