//! Shared fixtures for the benchmark harness.
//!
//! Every experiment from DESIGN.md §4 is driven by the `report` binary
//! (deterministic, hardware-independent counters plus quick timings), whose
//! output is recorded in EXPERIMENTS.md.

/// Generated stubs for the flat-frame benchmark interface (see
/// `idl/bench.idl`): fixed-shape messages whose unmarshal path is
/// validate-in-place over the wire bytes.
// Machine-written code is kept simple and regular rather than idiomatic;
// style lints are waived for it, as is conventional for generated modules.
#[allow(clippy::all)]
pub mod idl {
    include!(concat!(env!("OUT_DIR"), "/bench.rs"));
}

pub use idl::flatbench;

pub mod fixtures;
pub mod openloop;
pub mod report;
pub mod timing;
