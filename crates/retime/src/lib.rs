//! # lva-retime — trace once, retime many
//!
//! Sweeping the co-design space re-executes every kernel at every design
//! point, yet almost nothing a design point changes reaches the kernels:
//! lanes, latency constants, L2 capacity, prefetch policy and the
//! `IdealSpec` counterfactual knobs are *timing* inputs, not semantic ones.
//! This crate exploits that split end to end:
//!
//! 1. **Trace once.** Each distinct semantic stream — (platform class,
//!    vector length, policy, workload, seed) — is executed functionally a
//!    single time under the semantic recorder ([`lva_core::CapturedRun`]).
//! 2. **Retime many.** Every further design point of the same stream is
//!    re-timed from the recording: a probe-tape refit when the cache
//!    geometry matches a stored tape, a live replay (recording a fresh
//!    tape for next time) when it does not — both bit-identical to the
//!    full simulator.
//! 3. **Memoize layers.** Repeated layers inside a run, across runs, and
//!    across sweep grids hit the per-config [`lva_isa::LayerMemo`]: a
//!    layer whose reduced op region, tape slice and relative entry state
//!    were timed before is applied as a stored state delta (translation
//!    invariance of the timing automaton; see `lva_isa::refit`).
//!
//! What that buys is measured, not assumed. A cold sweep of 18 distinct
//! design points (the `dse_sweep` workload of `perfbench/`) runs an
//! estimated ≈1.4–1.8× faster than full simulation, with 0 of 288
//! layer-memo lookups hitting: distinct configs share no layer timings.
//! The 68× in `BENCH_sim_wallclock.json` is warm replay only — the same
//! nine headline specs re-timed after a first pass that missed the memo
//! 185 times, so its three timed passes hit 555 = 3 × 185 times.
//!
//! Soundness is **certificate-gated**: retiming is only taken when every
//! kernel in the `lva-check` registry holds a valid
//! [`lva_depgraph::RetimeCertificate`] — the machine-checked proof that
//! its semantic stream does not move under the design-point perturbations
//! being swept. A kernel whose stream *does* vary with configuration
//! fails certification and the engine falls back to full simulation,
//! reporting the refusal reason.
//!
//! `--retime=verify` runs both paths for every request and asserts the
//! results are bit-identical (cycles, stall breakdowns, VPU statistics,
//! cache statistics, per-layer reports) — the CI mode.

#![forbid(unsafe_code)]

pub mod cert;
pub mod engine;
pub mod key;
pub mod store;

pub use cert::{CertGate, CONTENTION_REFUSAL};
pub use engine::RetimeEngine;
pub use key::{ConfigKey, StreamKey};
pub use lva_core::RetimeOpt as RetimeMode;
pub use store::RetimeStore;
