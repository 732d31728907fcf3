//! Host wall-clock and virtual-time benchmark of robustq over three
//! seeded SSB workloads (`ssb-closed`, `ssb-adhoc`, `ssb-stream`).
//!
//! The benchmark drives the engine only through its crates' public
//! functions and times those calls from outside; see `README.md` in the
//! package directory for the workloads, the metrics and the baseline.

pub mod adhoc;
pub mod catalog;
pub mod closed;
pub mod probe;
pub mod record;
pub mod sqlgen;
pub mod stream;
pub mod workload;
