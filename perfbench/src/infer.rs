//! The inference workloads: one network is built once, then a stream of
//! frames runs through `Network::run` on the same machine, so caches start
//! warm from network set-up and stay warm between frames.

use crate::reference::{Reference, ATOL, RTOL};
use crate::spans::{NetworkSpans, ProgramSpans, Recorder};
use crate::stats::{keep_going, median};
use crate::{push_end_to_end, Outcome};
use lva_core::{ConvPolicy, GemmVariant, HwTarget, ModelId};
use lva_isa::{KernelPhase, Machine, MachineConfig, StallCause};
use lva_nn::network::estimate_arena_words;
use lva_nn::{ConvAlgo, LayerSpec, NetReport, Network};
use lva_tensor::{approx_eq, host_random};
use lva_trace::Json;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Distinct seed-derived images the frames cycle through. Each one's host
/// reference output is computed once, before the timed phase.
pub const IMAGES: u64 = 2;

/// One inference workload.
#[derive(Debug, Clone)]
pub struct InferSpec {
    pub hw: HwTarget,
    pub policy: ConvPolicy,
    pub model: ModelId,
    pub input_hw: usize,
    pub layers: usize,
    /// The counted window: `sim_cycles`, `total_s` and every simulated
    /// count cover exactly the first this many frames, so they do not
    /// depend on how many frames the host managed to run.
    pub counted_frames: usize,
    /// Simulated cycles the first frame must take, or why that expectation
    /// could not be loaded (which fails the frame).
    pub expect_first_frame: Option<Result<u64, String>>,
}

/// Simulated cycles of run `name` in the committed `BENCH_headline.json`
/// at the root of the source tree this benchmark was built from.
pub fn headline_cycles(name: &str) -> Result<u64, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCH_headline.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    j.get("runs")
        .and_then(Json::as_arr)
        .and_then(|runs| runs.iter().find(|r| r.get("name").and_then(Json::as_str) == Some(name)))
        .and_then(|r| r.get("totals")?.get("cycles")?.as_u64())
        .ok_or_else(|| format!("{}: no totals.cycles for run {name}", path.display()))
}

impl InferSpec {
    /// YOLOv3's first 20 layers at 96 px (the headline's `--div 8`) with
    /// 6-loop BLIS im2col+GEMM on the A64FX profile. The first frame must
    /// reproduce the headline's `a64fx_yolo20_opt6` cycle count.
    pub fn gemm_a64fx() -> Self {
        InferSpec {
            hw: HwTarget::A64fx,
            policy: ConvPolicy::gemm_only(GemmVariant::opt6()),
            model: ModelId::Yolov3,
            input_hw: 96,
            layers: 20,
            counted_frames: 4,
            expect_first_frame: Some(headline_cycles("a64fx_yolo20_opt6")),
        }
    }

    /// The same prefix under the paper's §VII policy (Winograd F(6,3) for
    /// 3x3 stride-1 layers, 6-loop GEMM elsewhere) on SVE@gem5 at 2048
    /// bits with a 1 MB L2: the Fig. 10 1 MB point.
    pub fn wino_sve2048() -> Self {
        InferSpec {
            hw: HwTarget::SveGem5 { vlen_bits: 2048, l2_bytes: 1 << 20 },
            policy: ConvPolicy::winograd_default(GemmVariant::opt6()),
            model: ModelId::Yolov3,
            input_hw: 96,
            layers: 20,
            counted_frames: 12,
            expect_first_frame: None,
        }
    }

    fn specs(&self) -> (Vec<LayerSpec>, lva_tensor::Shape) {
        let (mut specs, shape) = self.model.build(self.input_hw);
        specs.truncate(self.layers);
        (specs, shape)
    }

    /// The machine `Experiment::run` builds for this design point.
    fn machine_config(&self, specs: &[LayerSpec], shape: lva_tensor::Shape) -> MachineConfig {
        let mut cfg = self.hw.machine_config();
        let words = estimate_arena_words(specs, shape, &self.policy);
        cfg.arena_mib = (words * 4 / (1 << 20) + 32).max(64);
        cfg
    }
}

/// One simulated frame.
struct Frame {
    secs: f64,
    traced: bool,
    report: NetReport,
}

/// Check frame `f`: its output against the host reference and, for frame
/// 0, its simulated cycles against the expected count. A failed check
/// fails the frame.
fn check_frame(
    out: &mut Outcome,
    spec: &InferSpec,
    wants: &Result<Vec<Vec<f32>>, String>,
    f: usize,
    got: &[f32],
    cycles: u64,
) {
    out.attempted += 1;
    if f == 0 {
        match &spec.expect_first_frame {
            Some(Ok(want)) if cycles != *want => {
                return out.fail(format!("frame 0: {cycles} simulated cycles, expected {want}"));
            }
            Some(Err(why)) => return out.fail(format!("frame 0: cross-check: {why}")),
            _ => {}
        }
    }
    match wants {
        Ok(wants) if !approx_eq(got, &wants[f % wants.len()], RTOL, ATOL) => out.fail(format!(
            "frame {f}: output differs from the host reference beyond rtol {RTOL} atol {ATOL}"
        )),
        Ok(_) => {}
        Err(why) => out.fail(format!("frame {f}: no reference: {why}")),
    }
}

/// Run one infer workload for `seconds` of timed frames. With `trace`, the
/// time is split between an untraced and a traced phase and the per-layer
/// metrics are reported instead of the end-to-end ones.
pub fn run(spec: &InferSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let (specs, shape) = spec.specs();
    let cfg = spec.machine_config(&specs, shape);

    // Set-up, repeated; the last machine and network are kept.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let id = rec.begin("setup");
        let (mut m, _) = rec.time("Machine::new", || Machine::new(cfg.clone()));
        let (net, _) =
            rec.time("Network::build", || Network::build(&mut m, &specs, shape, spec.policy, seed));
        setup_s.push(rec.end(id));
        built = Some((m, net));
    }
    let (mut m, mut net) = built.expect("SETUP_REPS > 0");

    // Inputs and their reference outputs, outside every timer.
    let images: Vec<Vec<f32>> =
        (0..IMAGES).map(|k| host_random(shape.len(), seed ^ (0x1533 + k))).collect();
    let wants: Result<Vec<Vec<f32>>, String> = Reference::new(&specs, shape, seed)
        .map(|r| images.iter().map(|im| r.forward(im)).collect());

    // Timed frames until each phase has spent its budget and run at least
    // the counted window.
    let mut program = ProgramSpans::default();
    let mut frames: Vec<Frame> = Vec::new();
    let budget = if trace { seconds / 2.0 } else { seconds };
    for traced in [false, true].into_iter().take(if trace { 2 } else { 1 }) {
        if traced {
            lva_trace::enable_to_memory();
        }
        let (mut spent, mut ran) = (0.0, 0);
        while keep_going(spent, ran, spec.counted_frames, budget) {
            let f = frames.len();
            let id = rec.begin("Network::run");
            m.reset_timing();
            let report = net.run(&mut m, &images[f % images.len()]);
            let secs = rec.end(id);
            rec.field(id, "frame", f);
            rec.field(id, "traced", traced);
            if traced {
                program.drain();
            }
            check_frame(&mut out, spec, &wants, f, &net.output().to_host(&m), report.cycles);
            spent += secs;
            ran += 1;
            frames.push(Frame { secs, traced, report });
        }
        if traced {
            lva_trace::disable();
        }
    }

    if trace {
        per_layer(&mut out, &specs, &rec, &frames, spec.counted_frames, &program.networks);
    } else {
        let secs: Vec<f64> = frames.iter().map(|f| f.secs).collect();
        let cycles = frames[..spec.counted_frames].iter().map(|f| f.report.cycles).sum();
        push_end_to_end(&mut out, &setup_s, &secs, spec.counted_frames, cycles);
    }
    out.op_secs = frames.iter().filter(|f| !f.traced).map(|f| f.secs).collect();
    out.spans = rec;
    out.program = program.networks;
    out
}

/// Counts summed over the counted window of reports.
pub(crate) fn push_counts<'a>(
    out: &mut Outcome,
    reports: impl Iterator<Item = &'a NetReport> + Clone,
) -> (u64, u64) {
    let n = reports.clone().count();
    let sum = |f: &dyn Fn(&NetReport) -> u64| reports.clone().map(f).sum::<u64>();
    let vec_instrs = sum(&|r| r.vpu.vec_instrs);
    let accesses = sum(&|r| r.mem.l1.accesses + r.mem.l2.accesses + r.mem.vcache.accesses);
    let phase = |ps: &[KernelPhase]| sum(&|r| ps.iter().map(|p| r.phases.get(*p)).sum()) as f64;
    out.push("kernels.gemm_sim_cycles", phase(&[KernelPhase::Gemm]), n);
    out.push("kernels.im2col_sim_cycles", phase(&[KernelPhase::Im2col]), n);
    out.push(
        "winograd.sim_cycles",
        phase(&[
            KernelPhase::WinogradInputTransform,
            KernelPhase::WinogradWeightTransform,
            KernelPhase::WinogradTupleMul,
            KernelPhase::WinogradOutputTransform,
        ]),
        n,
    );
    out.push("isa.vec_instrs", vec_instrs as f64, n);
    out.push("isa.vec_mem_instrs", sum(&|r| r.vpu.vec_mem_instrs) as f64, n);
    out.push("isa.scalar_ops", sum(&|r| r.vpu.scalar_ops) as f64, n);
    let active = sum(&|r| r.vpu.active_elems);
    out.push(
        "isa.avg_vlen_bits",
        if vec_instrs == 0 { 0.0 } else { 32.0 * active as f64 / vec_instrs as f64 },
        n,
    );
    for (name, cause) in [
        ("isa.stall.raw_hazard", StallCause::RawHazard),
        ("isa.stall.vector_startup", StallCause::VectorStartup),
        ("isa.stall.mem_latency", StallCause::MemLatency),
        ("isa.stall.lane_occupancy", StallCause::LaneOccupancy),
        ("isa.stall.issue_width", StallCause::IssueWidth),
    ] {
        out.push(name, sum(&|r| r.stalls.get(cause)) as f64, n);
    }
    let rate = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let l1 = sum(&|r| r.mem.l1.accesses);
    let l2 = sum(&|r| r.mem.l2.accesses);
    out.push("sim.l1_accesses", l1 as f64, n);
    out.push("sim.l1_miss_rate", rate(sum(&|r| r.mem.l1.misses), l1), n);
    out.push("sim.l2_accesses", l2 as f64, n);
    out.push("sim.l2_miss_rate", rate(sum(&|r| r.mem.l2.misses), l2), n);
    out.push("sim.vcache_accesses", sum(&|r| r.mem.vcache.accesses) as f64, n);
    out.push("sim.dram_lines", sum(&|r| r.mem.dram_reads + r.mem.dram_writes) as f64, n);
    out.push("sim.hwpf_issued", sum(&|r| r.mem.hwpf_issued) as f64, n);
    let pf = |f: &dyn Fn(&lva_sim::CacheStats) -> u64| {
        sum(&|r| f(&r.mem.l1) + f(&r.mem.l2) + f(&r.mem.vcache))
    };
    out.push("sim.prefetch_accuracy", rate(pf(&|c| c.prefetch_hits), pf(&|c| c.prefetch_fills)), n);
    (vec_instrs / n.max(1) as u64, accesses / n.max(1) as u64)
}

/// Host-time split of the simulator's spans over traced network runs:
/// medians per run of each kernel phase's self time, and layer shares.
pub(crate) fn push_program_spans(
    out: &mut Outcome,
    networks: &[NetworkSpans],
    conv3x3: &dyn Fn(usize) -> bool,
    winograd: &dyn Fn(usize) -> bool,
) {
    let n = networks.len();
    let med = |f: &dyn Fn(&NetworkSpans) -> f64| {
        if n == 0 {
            0.0
        } else {
            median(&networks.iter().map(f).collect::<Vec<_>>())
        }
    };
    out.push("kernels.gemm_host_s", med(&|s| s.phase_secs(&["gemm"])), n);
    out.push("kernels.pack_host_s", med(&|s| s.phase_secs(&["pack"])), n);
    out.push("kernels.im2col_host_s", med(&|s| s.phase_secs(&["im2col"])), n);
    out.push(
        "kernels.epilogue_host_s",
        med(&|s| s.phase_secs(&["add_bias", "normalize", "activate"])),
        n,
    );
    out.push("winograd.input_t_host_s", med(&|s| s.phase_secs(&["wino_input_t"])), n);
    out.push("winograd.tuple_mul_host_s", med(&|s| s.phase_secs(&["wino_tuple_mul"])), n);
    out.push("winograd.output_t_host_s", med(&|s| s.phase_secs(&["wino_output_t"])), n);
    // The weight transform of shared-scratch Winograd plans runs inside the
    // layer but outside every phase span: the Winograd layers' self time.
    out.push("winograd.weight_t_host_s", med(&|s| s.layer_self_secs(winograd)), n);
    let total = |f: &dyn Fn(&NetworkSpans) -> f64| networks.iter().map(f).sum::<f64>();
    let layers = total(&|s| s.layer_secs(|_| true));
    let share = |x: f64| if layers > 0.0 { x / layers } else { 0.0 };
    out.push("nn.conv3x3_host_share", share(total(&|s| s.layer_secs(conv3x3))), n);
    out.push("nn.layer_self_share", share(total(&|s| s.layer_self_secs(|_| true))), n);
}

fn per_layer(
    out: &mut Outcome,
    specs: &[LayerSpec],
    rec: &Recorder,
    frames: &[Frame],
    counted: usize,
    networks: &[NetworkSpans],
) {
    let plain: Vec<f64> = frames.iter().filter(|f| !f.traced).map(|f| f.secs).collect();
    let traced: Vec<f64> = frames.iter().filter(|f| f.traced).map(|f| f.secs).collect();
    let build = rec.secs_of("Network::build");
    out.push("nn.build_s", median(&build), build.len());
    let run_s = median(&plain);
    out.push("nn.run_s", run_s, plain.len());

    let (vec_per_frame, accesses_per_frame) =
        push_counts(out, frames[..counted].iter().map(|f| &f.report));
    let per = |x: u64| if x == 0 { 0.0 } else { run_s * 1e9 / x as f64 };
    out.push("isa.host_ns_per_vec_instr", per(vec_per_frame), plain.len());
    out.push("sim.host_ns_per_access", per(accesses_per_frame), plain.len());

    let is_conv3x3 = |i: usize| matches!(specs.get(i), Some(LayerSpec::Conv { size: 3, .. }));
    let algos: Vec<Option<ConvAlgo>> = frames[0].report.layers.iter().map(|l| l.algo).collect();
    let is_winograd = |i: usize| algos.get(i) == Some(&Some(ConvAlgo::Winograd));
    push_program_spans(out, networks, &is_conv3x3, &is_winograd);

    for name in [
        "core.full_run_s",
        "core.capture_overhead",
        "core.capture_mb",
        "retime.gate_s",
        "retime.captures",
        "retime.live_replays",
        "retime.tape_refits",
        "retime.run_memo_hits",
        "retime.refused",
        "retime.capture_op_s",
        "retime.live_replay_op_s",
        "retime.tape_refit_op_s",
        "retime.layer_memo_hit_ratio",
        "retime.layer_memo_lookups",
        "retime.store_mb",
        "retime.cold_speedup",
    ] {
        out.push(name, 0.0, 0);
    }
    out.push("trace.overhead", median(&traced) / run_s, traced.len().min(plain.len()));
}
