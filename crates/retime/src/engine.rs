//! The retime engine: one front door for experiment execution that
//! transparently picks the cheapest sound path.
//!
//! Every request — a run, a stream of frames, or a run with the energy
//! probe — takes one dispatch, in order:
//!
//! 1. mode `Off` → full simulation (the engine is a no-op).
//! 2. certificate gate refused → full simulation, refusal recorded.
//! 3. run memo hit → cloned summary (energy requests skip the memo: it
//!    holds timings, not attributions).
//! 4. no recording for the stream and frame count → capture (one full
//!    simulation under the recorder; its summary *is* the answer).
//! 5. energy request → live replay of the recording with the probe on.
//! 6. recording + a tape at this geometry → tape refit.
//! 7. recording, no tape at this geometry → live replay, recording a
//!    fresh tape so the next request at this geometry refits.
//!
//! Under mode `Verify` every request additionally runs the full
//! simulator and asserts the results are bit-identical — cycles, flops,
//! the complete per-layer report with stall breakdowns, VPU statistics
//! and cache statistics.
//!
//! Results are independent of memo state (every path is bit-identical),
//! so a sweep driven through the engine produces byte-identical reports
//! for any execution order or warm/cold store.

use crate::cert::CertGate;
use crate::key::{ConfigKey, StreamKey};
use crate::store::RetimeStore;
use lva_core::observe;
use lva_core::{
    Captured, EnergyAttribution, EnergyModel, Experiment, RetimeOpt, RunSummary, Source,
    StreamSummary,
};
use lva_trace::Json;
use std::sync::Arc;

/// Aggregate path counters, all monotone.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub full_runs: u64,
    pub refused_runs: u64,
    pub run_memo_hits: u64,
    pub captures: u64,
    pub tape_refits: u64,
    pub live_replays: u64,
    pub verified: u64,
    pub stream_captures: u64,
    pub stream_refits: u64,
    pub stream_live_replays: u64,
    pub energy_retimes: u64,
}

/// What one request asks the engine for.
#[derive(Clone, Copy)]
enum Ask<'a> {
    /// One measured frame ([`RetimeEngine::run`]).
    Run,
    /// Measured frames on warm caches ([`RetimeEngine::run_stream`]).
    Stream(usize),
    /// One measured frame with the energy probe ([`RetimeEngine::run_energy`]).
    Energy(&'a EnergyModel),
}

/// A request's result, the attribution of an energy request, and the path
/// that produced it.
struct Answer {
    summary: StreamSummary,
    energy: Option<EnergyAttribution>,
    path: &'static str,
}

/// See the module docs.
#[derive(Debug)]
pub struct RetimeEngine {
    mode: RetimeOpt,
    gate: CertGate,
    store: RetimeStore,
    counters: Counters,
    /// First refusal reason observed, if any (stable across runs: the
    /// gate verdict is computed once).
    refusal: Option<String>,
}

fn mem_fingerprint(e: &Experiment) -> String {
    e.hw.machine_config().mem.state_fingerprint()
}

impl RetimeEngine {
    pub fn new(mode: RetimeOpt) -> Self {
        Self::with_gate(mode, CertGate::standard())
    }

    /// An engine with an explicit certificate gate (tests inject synthetic
    /// kernel sets or pre-decided verdicts).
    pub fn with_gate(mode: RetimeOpt, gate: CertGate) -> Self {
        RetimeEngine {
            mode,
            gate,
            store: RetimeStore::new(),
            counters: Counters::default(),
            refusal: None,
        }
    }

    /// Cap the recording store's byte budget.
    #[must_use]
    pub fn with_store(mut self, store: RetimeStore) -> Self {
        self.store = store;
        self
    }

    pub fn mode(&self) -> RetimeOpt {
        self.mode
    }

    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    pub fn store(&self) -> &RetimeStore {
        &self.store
    }

    /// The refusal reason, if the certificate gate refused retiming.
    pub fn refusal(&self) -> Option<&str> {
        self.refusal.as_deref()
    }

    /// Refuse to retime a shared-port (multi-core) simulation and record
    /// why. Kernel certificates prove a stream is invariant under
    /// *single-core* timing perturbations; with N cores contending on one
    /// L2/DRAM port, each core's timing depends on every other core's
    /// interleaved traffic — a global property no per-kernel certificate
    /// covers. Callers (`exp-scale --retime`) invoke this once per sweep
    /// and fall back to the full SoC simulation, which is exactly the
    /// engine's contract for any refusal: bit-identical output, no
    /// speedup. Returns the recorded reason.
    pub fn refuse_contention(&mut self) -> &'static str {
        self.counters.refused_runs += 1;
        if self.refusal.is_none() {
            self.refusal = Some(crate::cert::CONTENTION_REFUSAL.to_string());
        }
        crate::cert::CONTENTION_REFUSAL
    }

    /// `Ok` if retiming is certified; records the refusal otherwise.
    fn gate_ok(&mut self) -> bool {
        match self.gate.check() {
            Ok(()) => true,
            Err(reason) => {
                self.refusal = Some(reason);
                false
            }
        }
    }

    /// Run one experiment through the engine (see module docs for the
    /// dispatch order). Bit-identical to [`Experiment::run`] on every
    /// path; asserted per run under mode `Verify`.
    pub fn run(&mut self, e: &Experiment) -> RunSummary {
        self.run_explained(e).0
    }

    /// [`Self::run`], also naming the path that produced the result.
    pub fn run_explained(&mut self, e: &Experiment) -> (RunSummary, &'static str) {
        let a = self.dispatch(e, Ask::Run);
        (a.summary.steady, a.path)
    }

    /// `frames` warm-cache inferences ([`Experiment::run_observed`]) through
    /// the engine: streaming captures are recorded per (stream, frame
    /// count) and re-timed like runs.
    pub fn run_stream(&mut self, e: &Experiment, frames: usize) -> StreamSummary {
        self.dispatch(e, Ask::Stream(frames)).summary
    }

    /// One inference with the energy probe attached, through the engine.
    /// The probe consumes the live event stream, so this path live-replays
    /// the recording with the probe attached at the setup boundary
    /// (skipping functional execution); attribution and summary are
    /// bit-identical to the full probed run.
    pub fn run_energy(
        &mut self,
        e: &Experiment,
        model: &EnergyModel,
    ) -> (RunSummary, EnergyAttribution) {
        let a = self.dispatch(e, Ask::Energy(model));
        (a.summary.steady, a.energy.expect("an energy request attributes"))
    }

    /// The one dispatch behind every request (see module docs).
    fn dispatch(&mut self, e: &Experiment, ask: Ask<'_>) -> Answer {
        let frames = if let Ask::Stream(frames) = ask { frames } else { 1 };
        if !self.mode.enabled() || !self.gate_ok() {
            let path = if self.mode.enabled() {
                self.counters.refused_runs += 1;
                "refused"
            } else {
                self.counters.full_runs += 1;
                "full"
            };
            let (summary, energy) = match ask {
                Ask::Energy(model) => {
                    let (s, att) = e.run_observed(observe::Energy(model), 1);
                    (s, Some(att))
                }
                _ => (e.run_observed((), frames).0, None),
            };
            return Answer { summary, energy, path };
        }
        let sk = StreamKey::of(e);
        let ck = ConfigKey::of(e);
        // The run memo holds timings only; an energy request needs the probe.
        if !matches!(ask, Ask::Energy(_)) {
            if let Some(summary) = self.store.cached(&sk, frames, &ck) {
                self.counters.run_memo_hits += 1;
                self.verify(e, &summary);
                return Answer { summary, energy: None, path: "run-memo" };
            }
        }
        let answer = self.retime(e, &sk, frames, ask);
        self.verify(e, &answer.summary);
        self.store.remember(sk, frames, ck, answer.summary.clone());
        answer
    }

    /// The recording tier: capture on the first visit of a (stream, frame
    /// count), then a tape refit where a tape at this geometry is stored,
    /// else a live replay recording one. Energy requests always replay
    /// live with the probe on.
    fn retime(&mut self, e: &Experiment, sk: &StreamKey, frames: usize, ask: Ask<'_>) -> Answer {
        let stream = matches!(ask, Ask::Stream(_));
        let fp = mem_fingerprint(e);
        let Some((cap, tape)) = self.store.lookup(sk, frames, &fp) else {
            let (summary, (trace, tape)) = e.run_observed(observe::Capture, frames);
            let cap = Captured { trace, tape, summary: summary.clone() };
            self.store.insert(sk.clone(), frames, cap, fp);
            let c = &mut self.counters;
            *if stream { &mut c.stream_captures } else { &mut c.captures } += 1;
            return match ask {
                // The capture ran without the probe: replay it with the probe on.
                Ask::Energy(_) => self.retime(e, sk, frames, ask),
                _ => Answer { summary, energy: None, path: "capture" },
            };
        };
        let c = &mut self.counters;
        let (summary, energy, path) = match (ask, tape) {
            (Ask::Energy(model), _) => {
                let (s, att) = e
                    .retime(&cap, Source::Live, observe::Energy(model))
                    .expect("a one-frame live replay takes the energy probe");
                c.energy_retimes += 1;
                (s, Some(att), "energy-replay")
            }
            (_, Some(tape)) => {
                let (s, ()) = e
                    .retime(&cap, Source::Tape { tape: &tape }, ())
                    .expect("tape indexed under this geometry fingerprint");
                *if stream { &mut c.stream_refits } else { &mut c.tape_refits } += 1;
                (s, None, "tape-refit")
            }
            (_, None) => {
                let (s, tape) =
                    e.retime(&cap, Source::Live, observe::RecordTape).expect("live replay");
                *if stream { &mut c.stream_live_replays } else { &mut c.live_replays } += 1;
                self.store.add_tape(sk, frames, fp, Arc::new(tape));
                (s, None, "live-replay")
            }
        };
        Answer { summary, energy, path }
    }

    /// Mode `Verify`: run the full simulator and require bit-identity.
    fn verify(&mut self, e: &Experiment, got: &StreamSummary) {
        if self.mode != RetimeOpt::Verify {
            return;
        }
        let full = e.run_observed((), got.per_frame_cycles.len()).0;
        assert_eq!(
            got.per_frame_cycles,
            full.per_frame_cycles,
            "retime verify: per-frame cycles diverged at {} ({})",
            e.hw.describe(),
            e.workload.describe()
        );
        let (got, full) = (&got.steady, &full.steady);
        assert_eq!(
            got.cycles,
            full.cycles,
            "retime verify: cycles diverged at {} ({})",
            e.hw.describe(),
            e.workload.describe()
        );
        assert_eq!(got.flops, full.flops, "retime verify: flops diverged at {}", e.hw.describe());
        assert_eq!(
            got.report,
            full.report,
            "retime verify: report diverged at {} ({})",
            e.hw.describe(),
            e.workload.describe()
        );
        assert_eq!(
            got.avg_vlen_bits.to_bits(),
            full.avg_vlen_bits.to_bits(),
            "retime verify: avg vlen diverged at {}",
            e.hw.describe()
        );
        assert_eq!(
            (got.l1_miss_rate.to_bits(), got.l2_miss_rate.to_bits()),
            (full.l1_miss_rate.to_bits(), full.l2_miss_rate.to_bits()),
            "retime verify: miss rates diverged at {}",
            e.hw.describe()
        );
        self.counters.verified += 1;
    }

    /// The engine's provenance report — the `retime` section of run
    /// reports and the wallclock benchmark.
    pub fn report(&self) -> Json {
        let c = &self.counters;
        let mode = match self.mode {
            RetimeOpt::Off => "off",
            RetimeOpt::On => "on",
            RetimeOpt::Verify => "verify",
        };
        let mut j = Json::obj()
            .field("mode", mode)
            .field(
                "paths",
                Json::obj()
                    .field("full", c.full_runs)
                    .field("refused", c.refused_runs)
                    .field("run_memo_hits", c.run_memo_hits)
                    .field("captures", c.captures)
                    .field("tape_refits", c.tape_refits)
                    .field("live_replays", c.live_replays)
                    .field("stream_captures", c.stream_captures)
                    .field("stream_refits", c.stream_refits)
                    .field("stream_live_replays", c.stream_live_replays)
                    .field("energy_retimes", c.energy_retimes)
                    .field("verified", c.verified),
            )
            .field(
                "run_memo",
                Json::obj()
                    .field("hits", self.store.run_hits)
                    .field("misses", self.store.run_misses),
            )
            .field(
                "store",
                Json::obj()
                    .field("recordings", self.store.trace_count() as u64)
                    .field("approx_bytes", self.store.approx_bytes() as u64)
                    .field("capacity_bytes", self.store.capacity_bytes() as u64)
                    .field("evictions", self.store.evictions),
            )
            .field("cert_ms", self.gate.cert_ms);
        if let Some(r) = &self.refusal {
            j = j.field("refusal", r.as_str());
        }
        j
    }
}
