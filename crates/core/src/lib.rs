//! # lva-core — the co-design experiment API
//!
//! This crate is the paper's methodology as a library: it pairs a hardware
//! design point (ISA, vector length, lanes, L2 capacity — §V) with a
//! software setup (GEMM variant, unroll factor, block sizes, algorithm
//! selection — §IV) and a workload (a network prefix at some input scale),
//! runs the workload on the simulated machine, and returns the measurements
//! the paper reports: execution cycles, average consumed vector length,
//! cache miss rates, per-layer breakdowns and kernel-phase attribution.
//!
//! The `exp-*` binaries in `lva-bench` are thin drivers over this API, one
//! per table/figure of the paper.

#![forbid(unsafe_code)]
pub mod cli;
pub mod energy;
pub mod experiment;
pub mod observe;
pub mod par;
pub mod report;
pub mod run_report;

pub use cli::{Opts, RetimeOpt};
pub use energy::{EnergyBreakdown, EnergyCounts, EnergyModel, EnergyReport};
pub use experiment::{
    scaled_input, Captured, CapturedRun, CapturedStream, Experiment, HwTarget, RunSummary, Source,
    StreamSummary, Workload,
};
pub use lva_energy::EnergyAttribution;
pub use par::{default_jobs, parallel_map};
pub use report::{ArityError, Table};
pub use run_report::RunReport;

pub use lva_prof::{MemProfile, ScopeProfile};
pub use lva_trace::{ChromeTrace, Json};

pub use lva_isa::{IsaKind, MachineConfig, Platform};
pub use lva_kernels::{BlockSizes, GemmVariant};
pub use lva_nn::{ConvPolicy, ModelId};
