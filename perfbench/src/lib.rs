//! The simulator's end-to-end and per-layer benchmark.
//!
//! `perfbench` runs one workload per process through the public API of
//! `sva_soc` and prints every metric by name with its unit; the last line
//! of its standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `src/main.rs` for
//! the command line and `BENCHMARK.json` at the repository root for the
//! metric definitions.

#![warn(missing_docs)]

pub mod json;
pub mod ledger;
pub mod probe;
pub mod trace;
pub mod workloads;
