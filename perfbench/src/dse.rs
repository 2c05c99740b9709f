//! The co-design sweep workload: a grid of distinct design points run cold
//! through a fresh `RetimeEngine` per sweep, behind a certificate gate
//! certified once at set-up.

use crate::infer::{push_counts, push_program_spans};
use crate::spans::{ProgramSpans, Recorder};
use crate::stats::{keep_going, median};
use crate::{push_end_to_end, Outcome};
use lva_core::{ConvPolicy, Experiment, GemmVariant, HwTarget, ModelId, RunSummary, Workload};
use lva_nn::LayerSpec;
use lva_retime::{CertGate, RetimeEngine, RetimeMode};
use lva_sim::rng::Rng;

/// Certifications per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// One sweep: a workload swept over a grid of RVV@gem5 design points.
#[derive(Debug, Clone)]
pub struct DseSpec {
    pub workload: Workload,
    pub policy: ConvPolicy,
    pub vlens: Vec<usize>,
    pub l2_bytes: Vec<usize>,
    pub lanes: Vec<usize>,
}

impl DseSpec {
    /// YOLOv3-tiny at 64 px (`--div 8`) with 3-loop GEMM, over VL
    /// {2048, 8192} x L2 {1, 4, 16 MB} x lanes {2, 4, 8}: 18 points.
    pub fn dse_sweep() -> Self {
        DseSpec {
            workload: Workload { model: ModelId::Yolov3Tiny, input_hw: 64, layer_limit: None },
            policy: ConvPolicy::gemm_only(GemmVariant::opt3()),
            vlens: vec![2048, 8192],
            l2_bytes: vec![1 << 20, 4 << 20, 16 << 20],
            lanes: vec![2, 4, 8],
        }
    }

    /// The grid, vector length outermost, in sweep order.
    pub fn points(&self, seed: u64) -> Vec<Experiment> {
        let mut points = Vec::new();
        for &vlen_bits in &self.vlens {
            for &l2_bytes in &self.l2_bytes {
                for &lanes in &self.lanes {
                    let hw = HwTarget::RvvGem5 { vlen_bits, lanes, l2_bytes };
                    let mut e = Experiment::new(hw, self.policy, self.workload);
                    e.seed = seed;
                    points.push(e);
                }
            }
        }
        points
    }
}

/// One evaluated design point.
struct Op {
    secs: f64,
    path: &'static str,
    traced: bool,
}

/// What one cold sweep left behind.
struct Sweep {
    secs: f64,
    traced: bool,
    counters: lva_retime::engine::Counters,
    store_bytes: usize,
    memo_hits: u64,
    memo_misses: u64,
}

/// Two summaries are the same result: cycles, per-layer reports, VPU,
/// stall and cache statistics all equal.
fn same_result(a: &RunSummary, b: &RunSummary) -> bool {
    a.cycles == b.cycles && a.report == b.report
}

/// Run the sweep workload for about `seconds` of timed sweeps (whole
/// sweeps, at least one per phase). With `trace`, the time is split between an
/// untraced and a traced phase and the per-layer metrics are reported.
pub fn run(spec: &DseSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let points = spec.points(seed);

    // Set-up: certify the kernel registry, repeated.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut verdict = Ok(());
    for _ in 0..SETUP_REPS {
        let mut gate = CertGate::standard();
        let (v, secs) = rec.time("CertGate::check", || gate.check());
        setup_s.push(secs);
        verdict = v;
    }

    let mut program = ProgramSpans::default();
    let mut ops: Vec<Op> = Vec::new();
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut first: Vec<RunSummary> = Vec::new();
    let budget = if trace { seconds / 2.0 } else { seconds };
    for traced in [false, true].into_iter().take(if trace { 2 } else { 1 }) {
        if traced {
            lva_trace::enable_to_memory();
        }
        let (mut spent, mut ran) = (0.0, 0);
        while keep_going(spent, ran, 1, budget) {
            let sid = rec.begin("sweep");
            let mut engine =
                RetimeEngine::with_gate(RetimeMode::On, CertGate::decided(verdict.clone()));
            for (i, e) in points.iter().enumerate() {
                let id = rec.begin("RetimeEngine::run_explained");
                let (s, path) = engine.run_explained(e);
                let secs = rec.end(id);
                rec.field(id, "path", path);
                rec.field(id, "point", i);
                if traced {
                    program.drain();
                }
                out.attempted += 1;
                if sweeps.is_empty() {
                    first.push(s);
                } else if !same_result(&s, &first[i]) {
                    out.fail(format!(
                        "sweep {} point {i} ({}): result differs from the first sweep's",
                        sweeps.len(),
                        e.hw.describe()
                    ));
                }
                ops.push(Op { secs, path, traced });
            }
            let (counters, _) = rec.time("RetimeEngine::counters", || engine.counters().clone());
            let ((store_bytes, (_, _, memo_hits, memo_misses, _)), _) =
                rec.time("RetimeEngine::store", || {
                    let store = engine.store();
                    (store.approx_bytes(), store.layer_memo_totals())
                });
            let secs = rec.end(sid);
            drop(engine);
            sweeps.push(Sweep { secs, traced, counters, store_bytes, memo_hits, memo_misses });
            spent += secs;
            ran += 1;
        }
        if traced {
            lva_trace::disable();
        }
    }

    // Spot checks against full simulation, outside the timed sweeps: one
    // seed-chosen re-timed point and one seed-chosen capture point.
    let first_paths: Vec<&str> = ops[..points.len()].iter().map(|o| o.path).collect();
    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut pick = |want_capture: bool| {
        let idx: Vec<usize> =
            (0..points.len()).filter(|&i| (first_paths[i] == "capture") == want_capture).collect();
        (!idx.is_empty()).then(|| idx[rng.gen_index(0, idx.len())])
    };
    let checks = [(pick(false), false), (pick(true), true)];
    let mut full_s = Vec::new();
    let mut capture = None;
    for (i, is_capture) in checks {
        let Some(i) = i else {
            out.fail(format!("first sweep took paths {first_paths:?}: nothing to spot-check"));
            continue;
        };
        let e = &points[i];
        let (full, secs) = rec.time("Experiment::run", || e.run());
        full_s.push(secs);
        if !same_result(&full, &first[i]) {
            out.fail(format!(
                "point {i} ({}) via {}: differs from Experiment::run",
                e.hw.describe(),
                first_paths[i]
            ));
        }
        if is_capture && trace {
            let (cap, cap_s) = rec.time("Experiment::run_traced", || e.run_traced());
            if !same_result(&cap.summary, &full) {
                out.fail(format!("point {i}: Experiment::run_traced differs from Experiment::run"));
            }
            capture = Some((cap_s / secs, cap.approx_bytes()));
        }
    }

    let sweep_secs = |traced: bool| -> Vec<f64> {
        sweeps.iter().filter(|s| s.traced == traced).map(|s| s.secs).collect()
    };
    if trace {
        let specs = spec.workload.model.build(spec.workload.input_hw).0;
        let is_conv3x3 = |i: usize| matches!(specs.get(i), Some(LayerSpec::Conv { size: 3, .. }));
        let full_run_s = median(&full_s);
        out.push("nn.build_s", 0.0, 0);
        out.push("nn.run_s", 0.0, 0);
        let (vec_per_point, accesses_per_point) =
            push_counts(&mut out, first.iter().map(|s| &s.report));
        let per = |x: u64| if x == 0 { 0.0 } else { full_run_s * 1e9 / x as f64 };
        out.push("isa.host_ns_per_vec_instr", per(vec_per_point), full_s.len());
        out.push("sim.host_ns_per_access", per(accesses_per_point), full_s.len());
        push_program_spans(&mut out, &program.networks, &is_conv3x3, &|_| false);

        out.push("core.full_run_s", full_run_s, full_s.len());
        let (overhead, bytes) = capture.unwrap_or((f64::NAN, 0));
        out.push("core.capture_overhead", overhead, 1);
        out.push("core.capture_mb", bytes as f64 / (1 << 20) as f64, 1);

        let cold = &sweeps[0];
        out.push("retime.gate_s", median(&setup_s), setup_s.len());
        out.push("retime.captures", cold.counters.captures as f64, 1);
        out.push("retime.live_replays", cold.counters.live_replays as f64, 1);
        out.push("retime.tape_refits", cold.counters.tape_refits as f64, 1);
        out.push("retime.run_memo_hits", cold.counters.run_memo_hits as f64, 1);
        out.push("retime.refused", cold.counters.refused_runs as f64, 1);
        for (name, path) in [
            ("retime.capture_op_s", "capture"),
            ("retime.live_replay_op_s", "live-replay"),
            ("retime.tape_refit_op_s", "tape-refit"),
        ] {
            let xs: Vec<f64> =
                ops.iter().filter(|o| !o.traced && o.path == path).map(|o| o.secs).collect();
            out.push(name, if xs.is_empty() { 0.0 } else { median(&xs) }, xs.len());
        }
        let lookups = cold.memo_hits + cold.memo_misses;
        let ratio = if lookups == 0 { 0.0 } else { cold.memo_hits as f64 / lookups as f64 };
        out.push("retime.layer_memo_hit_ratio", ratio, 1);
        out.push("retime.layer_memo_lookups", lookups as f64, 1);
        out.push("retime.store_mb", cold.store_bytes as f64 / (1 << 20) as f64, 1);
        let plain = sweep_secs(false);
        let traced = sweep_secs(true);
        out.push(
            "retime.cold_speedup",
            points.len() as f64 * full_run_s / median(&plain),
            plain.len(),
        );
        out.push("trace.overhead", median(&traced) / median(&plain), traced.len());
    } else {
        let secs: Vec<f64> = ops.iter().map(|o| o.secs).collect();
        let cycles = first.iter().map(|s| s.cycles).sum();
        push_end_to_end(&mut out, &setup_s, &secs, points.len(), cycles);
    }
    if let Err(why) = &verdict {
        eprintln!("certificate gate refused retiming: {why}");
    }
    out.op_secs = ops.iter().filter(|o| !o.traced).map(|o| o.secs).collect();
    out.spans = rec;
    out.program = program.networks;
    out
}
