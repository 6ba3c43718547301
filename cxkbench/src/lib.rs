//! **cxkbench** — the committed benchmark of the CXK-means train-and-serve
//! system.
//!
//! Four workloads (see [`suite::workloads`]) each train models the way
//! `cxk train --m 4` does, serve them the way `cxk serve` does in a child
//! process, and measure the latency one caller sees over a keep-alive
//! connection. An untraced run reports the end-to-end metrics; a traced
//! run adds open-loop Poisson load over two connections and reports
//! per-layer metrics from spans recorded around the benchmark's calls into
//! each crate. `BENCHMARK.md` beside this crate documents the workloads,
//! the metrics and the comparison procedure.

#![warn(missing_docs)]

pub mod suite;
