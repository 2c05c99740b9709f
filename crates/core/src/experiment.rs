//! Experiment definition and execution.

use crate::observe::{self, Attach, Observer};
use lva_isa::{IdealSpec, Machine, MachineConfig, ProbeTape, ReplayTrace, SegmentReplay};
use lva_nn::network::{estimate_arena_words, LayerReport, Network};
use lva_nn::{ConvPolicy, ModelId, NetReport};
use lva_tensor::host_random;
use std::sync::Arc;

/// A hardware design point of the co-design space (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwTarget {
    /// RISC-V Vector @ gem5: vector length (bits), lanes (2..8), L2 bytes.
    RvvGem5 { vlen_bits: usize, lanes: usize, l2_bytes: usize },
    /// ARM-SVE @ gem5: vector length (bits, 512..2048), L2 bytes; lanes are
    /// proportional to the vector length on this platform (§VI-D).
    SveGem5 { vlen_bits: usize, l2_bytes: usize },
    /// The Fujitsu A64FX profile (fixed 512-bit, 8 MB L2, prefetch).
    A64fx,
}

impl HwTarget {
    /// Build the machine configuration (arena capacity set separately).
    pub fn machine_config(&self) -> MachineConfig {
        match *self {
            HwTarget::RvvGem5 { vlen_bits, lanes, l2_bytes } => {
                MachineConfig::rvv_gem5(vlen_bits, lanes, l2_bytes)
            }
            HwTarget::SveGem5 { vlen_bits, l2_bytes } => {
                MachineConfig::sve_gem5(vlen_bits, l2_bytes)
            }
            HwTarget::A64fx => MachineConfig::a64fx(),
        }
    }

    /// L2 capacity of the design point in bytes (8 MB on the fixed A64FX
    /// profile). The capacity the energy model's sqrt access scaling and
    /// leakage terms key on.
    pub fn l2_bytes(&self) -> usize {
        self.machine_config().mem.l2.bytes
    }

    pub fn describe(&self) -> String {
        match *self {
            HwTarget::RvvGem5 { vlen_bits, lanes, l2_bytes } => {
                format!("RVV@gem5 vlen={vlen_bits}b lanes={lanes} L2={}", fmt_bytes(l2_bytes))
            }
            HwTarget::SveGem5 { vlen_bits, l2_bytes } => {
                format!("SVE@gem5 vlen={vlen_bits}b L2={}", fmt_bytes(l2_bytes))
            }
            HwTarget::A64fx => "A64FX".into(),
        }
    }
}

/// Human-readable byte count.
pub fn fmt_bytes(b: usize) -> String {
    if b >= (1 << 20) {
        format!("{}MB", b >> 20)
    } else if b >= (1 << 10) {
        format!("{}kB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// The network (prefix) an experiment runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub model: ModelId,
    /// Square input resolution. Use [`scaled_input`] for the paper's sizes
    /// scaled down for simulation speed.
    pub input_hw: usize,
    /// Run only the first `n` layers (e.g. Table II uses 4, Figs. 6-9 use
    /// 20); `None` runs the full network.
    pub layer_limit: Option<usize>,
}

impl Workload {
    pub fn describe(&self) -> String {
        match self.layer_limit {
            Some(n) => format!("{} ({n} layers) @ {}px", self.model.name(), self.input_hw),
            None => format!("{} @ {}px", self.model.name(), self.input_hw),
        }
    }
}

/// Input resolution for a model at a linear down-scale divisor, rounded up
/// to the model's structural alignment (YOLOv3 variants need multiples of
/// 32 for the upsample/route joins to meet).
///
/// `div = 1` is the paper's native size (608 / 416 / 224).
pub fn scaled_input(model: ModelId, div: usize) -> usize {
    assert!(div >= 1);
    let native = model.native_input();
    let raw = native.div_ceil(div);
    (raw.div_ceil(32) * 32).max(32)
}

/// One co-design experiment: hardware point x software setup x workload.
#[derive(Debug, Clone)]
pub struct Experiment {
    pub hw: HwTarget,
    pub policy: ConvPolicy,
    pub workload: Workload,
    pub seed: u64,
    /// Counterfactual idealization knobs (the `lva-whatif` hook). Timing-only:
    /// with all knobs off (the default) every run is bit-identical to a
    /// machine that never heard of them.
    pub ideal: IdealSpec,
}

/// Measurements from one experiment run (one simulated inference, after
/// network setup is excluded, matching §VI's methodology).
#[derive(Debug, Clone)]
pub struct RunSummary {
    pub cycles: u64,
    /// Mathematical flops of the executed layers.
    pub flops: u64,
    /// Average consumed vector length in bits (Table III).
    pub avg_vlen_bits: f64,
    pub l1_miss_rate: f64,
    pub l2_miss_rate: f64,
    pub report: NetReport,
}

impl RunSummary {
    /// gem5-`stats.txt`-flavoured dump of the run's counters (the same
    /// format as `Machine::dump_stats`, reconstructed from the summary).
    pub fn dump_stats(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let v = &self.report.vpu;
        let st = &self.report.mem;
        let mut line = |k: &str, val: String| {
            let _ = writeln!(out, "{k:<48} {val}");
        };
        line("sim_cycles", self.cycles.to_string());
        line("sim_flops", self.flops.to_string());
        line("system.cpu.vpu.vec_instrs", v.vec_instrs.to_string());
        line("system.cpu.vpu.vec_mem_instrs", v.vec_mem_instrs.to_string());
        line("system.cpu.vpu.avg_vlen_bits", format!("{:.1}", self.avg_vlen_bits));
        line("system.cpu.scalar_ops", v.scalar_ops.to_string());
        for (name, c) in [("l1d", &st.l1), ("l2", &st.l2), ("vcache", &st.vcache)] {
            if c.accesses == 0 && c.prefetch_fills == 0 {
                continue;
            }
            line(&format!("system.{name}.overall_accesses"), c.accesses.to_string());
            line(&format!("system.{name}.overall_misses"), c.misses.to_string());
            line(&format!("system.{name}.overall_miss_rate"), format!("{:.6}", c.miss_rate()));
        }
        line("system.mem.reads", st.dram_reads.to_string());
        line("system.mem.writes", st.dram_writes.to_string());
        out
    }
}

/// An experiment executed once under the semantic recorder
/// ([`observe::Capture`]): the op stream every timing decision depends on,
/// the probe tape (per-probe serving levels at the capture geometry), and
/// the summary the capture run itself produced. Capture costs one full
/// simulation; the stream can then be re-timed at arbitrarily many design
/// points without re-executing kernels ([`Experiment::retime`]).
#[derive(Debug, Clone)]
pub struct Captured<S> {
    pub trace: Arc<ReplayTrace>,
    pub tape: Arc<ProbeTape>,
    /// The summary at the capture configuration — bit-identical to the
    /// same run without the recorder, and the source of the static
    /// per-layer metadata (flops, GEMM dims, algorithm, shapes) that
    /// re-timed summaries inherit.
    pub summary: S,
}

/// One captured inference ([`Experiment::run_traced`]).
pub type CapturedRun = Captured<RunSummary>;

/// A captured multi-frame stream: setup plus every frame,
/// `ResetTiming`-delimited.
pub type CapturedStream = Captured<StreamSummary>;

impl<S> Captured<S> {
    /// Approximate captured-state footprint in bytes (trace + tape).
    pub fn approx_bytes(&self) -> usize {
        self.trace.approx_bytes() + self.tape.approx_bytes()
    }
}

/// Result of a multi-image streaming run (§VI: "continuously running
/// inference over a stream of images" is the paper's deployment model —
/// setup is paid once, caches stay warm between frames).
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Cycles per frame, in order. The first frame runs on cold caches.
    pub per_frame_cycles: Vec<u64>,
    /// The final frame's summary (steady state).
    pub steady: RunSummary,
}

impl StreamSummary {
    /// Cold-start (first frame) cycles.
    pub fn cold_cycles(&self) -> u64 {
        *self.per_frame_cycles.first().expect("at least one frame")
    }

    /// Steady-state cycles: the last frame.
    pub fn steady_cycles(&self) -> u64 {
        *self.per_frame_cycles.last().expect("at least one frame")
    }
}

impl From<RunSummary> for StreamSummary {
    /// A single run as a one-frame stream.
    fn from(steady: RunSummary) -> Self {
        StreamSummary { per_frame_cycles: vec![steady.cycles], steady }
    }
}

/// A summary a capture records and a re-time rebuilds: one run, or a
/// stream of frames.
pub trait Recorded: Sized {
    fn frames(&self) -> usize;
    /// Rebuild from the replay segments of the measured frames, grafting
    /// this (captured) summary's static per-layer metadata onto the
    /// re-timed dynamics.
    fn rebuild(&self, frames: Vec<SegmentReplay>) -> Self;
    /// The last frame's summary: the one observers watch.
    fn last_mut(&mut self) -> &mut RunSummary;
}

impl Recorded for RunSummary {
    fn frames(&self) -> usize {
        1
    }

    fn rebuild(&self, mut frames: Vec<SegmentReplay>) -> Self {
        assert_eq!(frames.len(), 1, "captured run has exactly one measured segment");
        let seg = frames.pop().expect("one segment");
        assert_eq!(seg.layers.len(), self.report.layers.len(), "layer count drifted across replay");
        let layers: Vec<LayerReport> = seg
            .layers
            .into_iter()
            .zip(&self.report.layers)
            .map(|(l, stat)| {
                debug_assert_eq!(l.index, stat.index);
                let avg_vlen_bits =
                    if l.d_instrs == 0 { 0.0 } else { 32.0 * l.d_elems as f64 / l.d_instrs as f64 };
                LayerReport {
                    index: l.index,
                    desc: l.desc,
                    cycles: l.cycles,
                    flops: stat.flops,
                    mnk: stat.mnk,
                    algo: stat.algo,
                    out_shape: stat.out_shape,
                    stalls: l.stalls,
                    avg_vlen_bits,
                }
            })
            .collect();
        let avg_vlen_bits = seg.vpu.avg_vlen_bits();
        let l1_miss_rate = seg.mem.l1.miss_rate();
        let l2_miss_rate = seg.mem.l2.miss_rate();
        let report = NetReport {
            layers,
            cycles: seg.cycles,
            phases: seg.phases,
            vpu: seg.vpu,
            mem: seg.mem,
            stalls: seg.stalls,
        };
        RunSummary {
            cycles: seg.cycles,
            flops: report.flops(),
            avg_vlen_bits,
            l1_miss_rate,
            l2_miss_rate,
            report,
        }
    }

    fn last_mut(&mut self) -> &mut RunSummary {
        self
    }
}

impl Recorded for StreamSummary {
    fn frames(&self) -> usize {
        self.per_frame_cycles.len()
    }

    fn rebuild(&self, mut frames: Vec<SegmentReplay>) -> Self {
        assert_eq!(frames.len(), self.frames(), "frame count drifted across replay");
        let per_frame_cycles = frames.iter().map(|s| s.cycles).collect();
        let last = frames.pop().expect("at least one frame");
        StreamSummary { per_frame_cycles, steady: self.steady.rebuild(vec![last]) }
    }

    fn last_mut(&mut self) -> &mut RunSummary {
        &mut self.steady
    }
}

/// Where a re-time's memory-system outcomes come from.
pub enum Source<'a> {
    /// Live replay: the recorded addresses re-drive this design point's
    /// full memory hierarchy. Exact on every configuration axis, including
    /// cache-geometry changes no tape can absorb, at the cost of
    /// simulating the hierarchy again. Attach [`observe::RecordTape`] to
    /// leave a tape for later refits at this geometry.
    Live,
    /// Tape refit: each memory probe's serving level is read back from
    /// `tape` instead of re-simulated, so the hierarchy state machine never
    /// runs. Exact for every timing-only axis (latency constants, lanes,
    /// core CPI, `IdealSpec`); an error if `tape` was recorded at another
    /// state geometry (capacities, associativity, line size, prefetcher).
    Tape { tape: &'a Arc<ProbeTape> },
}

impl Experiment {
    pub fn new(hw: HwTarget, policy: ConvPolicy, workload: Workload) -> Self {
        Experiment { hw, policy, workload, seed: 42, ideal: IdealSpec::NONE }
    }

    /// Same experiment under a counterfactual [`IdealSpec`].
    #[must_use]
    pub fn with_ideal(mut self, spec: IdealSpec) -> Self {
        self.ideal = spec;
        self
    }

    fn config(&self) -> MachineConfig {
        let mut cfg = self.hw.machine_config();
        cfg.ideal = self.ideal;
        cfg
    }

    fn summarize(m: &Machine, report: NetReport) -> RunSummary {
        let mem = m.sys.stats();
        RunSummary {
            cycles: report.cycles,
            flops: report.flops(),
            avg_vlen_bits: m.stats.avg_vlen_bits(),
            l1_miss_rate: mem.l1.miss_rate(),
            l2_miss_rate: mem.l2.miss_rate(),
            report,
        }
    }

    /// Build the machine and network, run one inference, return summary.
    pub fn run(&self) -> RunSummary {
        self.run_observed((), 1).0.steady
    }

    /// [`Experiment::run`] under [`observe::Capture`]: the identical
    /// summary plus the semantic op stream and probe tape, re-timeable at
    /// other design points with [`Experiment::retime`].
    pub fn run_traced(&self) -> CapturedRun {
        let (s, (trace, tape)) = self.run_observed(observe::Capture, 1);
        Captured { trace, tape, summary: s.steady }
    }

    /// Build the machine and network, then run `frames` inferences
    /// back-to-back on the same machine (caches stay warm across frames),
    /// resetting the clock per frame so setup is excluded, like the paper.
    ///
    /// `observer` watches the last frame, the one `steady` summarizes (a
    /// capture records from the first op; see [`Attach`]). Observation is
    /// pure: cycle counts are identical to an unobserved run.
    ///
    /// # Panics
    /// Panics if `frames == 0`.
    pub fn run_observed<O: Observer>(
        &self,
        observer: O,
        frames: usize,
    ) -> (StreamSummary, O::Output) {
        assert!(frames > 0, "need at least one frame");
        let (specs, shape) = self.workload.model.build(self.workload.input_hw);
        let specs = match self.workload.layer_limit {
            Some(n) => specs[..n.min(specs.len())].to_vec(),
            None => specs,
        };
        let mut cfg = self.config();
        let words = estimate_arena_words(&specs, shape, &self.policy);
        cfg.arena_mib = (words * 4 / (1 << 20) + 32).max(64);
        let mut m = Machine::new(cfg);
        let mut attached = (O::ATTACH != Attach::Frame).then(|| observer.attach(&mut m));
        let mut net = Network::build(&mut m, &specs, shape, self.policy, self.seed);
        let mut per_frame_cycles = Vec::with_capacity(frames);
        let mut last = None;
        for f in 0..frames {
            m.reset_timing();
            if f + 1 == frames && attached.is_none() {
                attached = Some(observer.attach(&mut m));
            }
            let image = host_random(shape.len(), self.seed ^ (0x1533 + f as u64));
            let report = net.run(&mut m, &image);
            per_frame_cycles.push(report.cycles);
            last = Some(report);
        }
        let mut report = last.expect("frames > 0");
        let attached = attached.expect("attached by the last frame");
        let out = observer.finish(attached, &mut m, &mut report, self);
        (StreamSummary { per_frame_cycles, steady: Self::summarize(&m, report) }, out)
    }

    /// Re-time a capture at this experiment's design point from `source`,
    /// with `observer` attached to the replay: functional execution and
    /// kernel planning are skipped, and the result is bit-identical to
    /// [`Experiment::run_observed`] with the same observer here (stream
    /// equivalence permitting, as certified by `lva-depgraph`).
    ///
    /// # Errors
    /// A `tape` recorded at another state geometry; an
    /// [`Attach::Functional`] observer; an [`Attach::Frame`] observer on a
    /// tape refit or on a multi-frame recording.
    pub fn retime<S: Recorded, O: Observer>(
        &self,
        cap: &Captured<S>,
        source: Source<'_>,
        observer: O,
    ) -> Result<(S, O::Output), String> {
        match O::ATTACH {
            Attach::Functional => return Err("a re-time executes no kernels to capture".into()),
            Attach::Frame if matches!(source, Source::Tape { .. }) || cap.summary.frames() != 1 => {
                return Err("frame observers need a live replay of a one-frame recording".into());
            }
            _ => {}
        }
        let mut cfg = self.config();
        // Replay never executes functionally, so the arena is kept at the
        // minimum the allocator accepts.
        cfg.arena_mib = 1;
        let mut m = Machine::new(cfg);
        if let Source::Tape { tape } = source {
            m.play_probe_tape(Arc::clone(tape))?;
        }
        let (frames, attached) = if O::ATTACH == Attach::Frame {
            // Attach at the setup boundary, exactly where a live run does.
            let start = m.replay_setup(&cap.trace);
            let attached = observer.attach(&mut m);
            (m.replay_from(&cap.trace, start), attached)
        } else {
            let attached = observer.attach(&mut m);
            let mut segments = m.replay(&cap.trace);
            segments.remove(0); // the setup segment
            (segments, attached)
        };
        let mut summary = cap.summary.rebuild(frames);
        let out = observer.finish(attached, &mut m, &mut summary.last_mut().report, self);
        Ok((summary, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_kernels::GemmVariant;

    #[test]
    fn scaled_inputs_are_aligned() {
        assert_eq!(scaled_input(ModelId::Yolov3, 1), 608);
        assert_eq!(scaled_input(ModelId::Yolov3, 4), 160);
        assert_eq!(scaled_input(ModelId::Yolov3, 8), 96);
        assert_eq!(scaled_input(ModelId::Vgg16, 4), 64);
        assert!(scaled_input(ModelId::Yolov3Tiny, 2).is_multiple_of(32));
    }

    #[test]
    fn experiment_runs_and_measures() {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 8, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) },
        );
        let s = e.run();
        assert!(s.cycles > 0);
        assert!(s.flops > 0);
        assert!(s.avg_vlen_bits > 0.0);
        assert_eq!(s.report.layers.len(), 4);
    }

    #[test]
    fn longer_vectors_fewer_cycles_same_flops() {
        let run = |vlen| {
            Experiment::new(
                HwTarget::RvvGem5 { vlen_bits: vlen, lanes: 8, l2_bytes: 1 << 20 },
                ConvPolicy::gemm_only(GemmVariant::opt3()),
                Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) },
            )
            .run()
        };
        let a = run(512);
        let b = run(4096);
        assert_eq!(a.flops, b.flops);
        assert!(b.cycles < a.cycles);
    }

    /// Every observer is pure observation: total cycles, per-layer cycles,
    /// per-layer stall breakdowns and VPU statistics equal the plain run's.
    /// Each row also checks the observer's own output.
    #[test]
    fn observers_are_timing_neutral() {
        let exp = |vlen_bits, layers| {
            Experiment::new(
                HwTarget::RvvGem5 { vlen_bits, lanes: 8, l2_bytes: 1 << 20 },
                ConvPolicy::gemm_only(GemmVariant::opt3()),
                Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(layers) },
            )
        };
        type Observed = fn(&Experiment) -> RunSummary;
        let cases: [(&str, Experiment, Observed); 5] = [
            ("none", exp(1024, 4), |e| e.run_observed((), 1).0.steady),
            ("profile", exp(1024, 4), |e| {
                let (s, profile) = e.run_observed(observe::Profile, 1);
                let l2 = profile.level(lva_sim::TapLevel::L2).expect("l2 profiled");
                assert!(l2.accesses > 0);
                // Every L2 miss got a 3C class, and the report carries it.
                let c = s.steady.report.mem.l2.three_c;
                assert_eq!(c.classified(), s.steady.report.mem.l2.misses);
                assert_eq!(c, l2.three_c);
                // Layer attribution covered all four layers.
                assert_eq!(profile.layers.len(), 4);
                assert!(profile.layers.iter().all(|l| l.accesses > 0));
                s.steady
            }),
            ("energy", exp(2048, 4), |e| {
                let model = lva_energy::EnergyModel::default();
                e.run_observed(observe::Energy(&model), 1).0.steady
            }),
            ("timeline", exp(1024, 2), |e| {
                let (s, trace) = e.run_observed(observe::Timeline, 1);
                assert!(!trace.is_empty());
                assert_eq!(trace.validate(), Ok(()));
                s.steady
            }),
            ("capture", exp(1024, 4), |e| e.run_traced().summary),
        ];
        for (name, e, observed) in cases {
            let plain = e.run();
            let s = observed(&e);
            assert_eq!(s.cycles, plain.cycles, "{name} must not perturb timing");
            assert_eq!(s.report.layers.len(), plain.report.layers.len());
            for (l, p) in s.report.layers.iter().zip(&plain.report.layers) {
                assert_eq!(l.cycles, p.cycles, "{name}: layer {} cycles", l.index);
                assert_eq!(l.stalls, p.stalls, "{name}: layer {} stalls", l.index);
            }
            assert_eq!(s.report.vpu, plain.report.vpu, "{name}: VPU statistics");
        }
    }

    /// A live replay and a tape refit both reproduce the captured run, and
    /// observers a re-time cannot serve are refused, not silently wrong.
    #[test]
    fn retime_reproduces_the_capture_and_refuses_unservable_observers() {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 8, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(2) },
        );
        let cap = e.run_traced();
        let (live, tape) = e.retime(&cap, Source::Live, observe::RecordTape).expect("live replay");
        assert_eq!(live.report, cap.summary.report);
        let tape = Arc::new(tape);
        let (refit, ()) =
            e.retime(&cap, Source::Tape { tape: &tape }, ()).expect("tape at its own geometry");
        assert_eq!(refit.report, cap.summary.report);
        assert!(e.retime(&cap, Source::Live, observe::Capture).is_err());
        assert!(e.retime(&cap, Source::Tape { tape: &tape }, observe::Profile).is_err());
    }

    #[test]
    fn streaming_runs_are_warm_after_frame_one() {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 8, l2_bytes: 64 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) },
        );
        let (s, ()) = e.run_observed((), 3);
        assert_eq!(s.per_frame_cycles.len(), 3);
        assert!(s.steady_cycles() <= s.cold_cycles(), "warm caches cannot be slower");
        // Frames 2 and 3 are identical (steady state, deterministic).
        assert_eq!(s.per_frame_cycles[1], s.per_frame_cycles[2]);
    }

    #[test]
    fn run_summary_stats_dump() {
        let e = Experiment::new(
            HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(2) },
        );
        let s = e.run();
        let dump = s.dump_stats();
        assert!(dump.contains("sim_cycles"));
        assert!(dump.contains("system.l1d.overall_miss_rate"));
        assert!(!dump.contains("vcache"), "SVE has no vector cache");
        for l in dump.lines() {
            let v = l.split_whitespace().nth(1).expect("value column");
            assert!(v.parse::<f64>().is_ok(), "{l}");
        }
    }

    #[test]
    fn describes() {
        let hw = HwTarget::SveGem5 { vlen_bits: 2048, l2_bytes: 256 << 20 };
        assert_eq!(hw.describe(), "SVE@gem5 vlen=2048b L2=256MB");
        let w = Workload { model: ModelId::Vgg16, input_hw: 64, layer_limit: None };
        assert_eq!(w.describe(), "VGG16 @ 64px");
    }
}
