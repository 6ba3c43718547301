//! Shared utilities for the `cxkmeans` workspace.
//!
//! This crate hosts the small, dependency-light building blocks used by every
//! other crate in the workspace:
//!
//! * [`hash`] — an FxHash-style fast hasher plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases, used throughout hot clustering loops where SipHash overhead is
//!   measurable (see the workspace performance notes in `DESIGN.md`).
//! * [`rng`] — deterministic, seedable random number generation so that every
//!   experiment in the benchmark harness is exactly reproducible.
//! * [`arena`] — [`ArenaTable`], the one hash table behind every symbol
//!   table: keys back to back in one buffer, dense `u32` ids in insertion
//!   order, so a table is three allocations however many keys it holds.
//! * [`intern`] — a compact string interner mapping strings to dense `u32`
//!   symbols (an [`ArenaTable`] over a `String`); tag names, attribute
//!   names and index terms are all interned.
//! * [`hist`] — a lock-free log-bucketed latency histogram shared by the
//!   HTTP server's service-time stats and the open-loop load generator.

#![warn(missing_docs)]

pub mod arena;
pub mod hash;
pub mod hist;
pub mod intern;
pub mod rng;

pub use arena::{ArenaTable, KeyArena};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use hist::LogHistogram;
pub use intern::{Interner, Symbol};
pub use rng::DetRng;
