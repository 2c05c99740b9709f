//! End-to-end contracts of the retime engine: bit-identity against the
//! full simulator across design points, memo determinism, and the
//! certificate-gated fallback.

use lva_check::KernelCase;
use lva_core::{
    ConvPolicy, EnergyModel, Experiment, GemmVariant, HwTarget, ModelId, RetimeOpt, Workload,
};
use lva_kernels::aux::fill_vec;
use lva_retime::{CertGate, RetimeEngine};
use lva_sim::IdealKnob;

fn workload() -> Workload {
    Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) }
}

fn exp(hw: HwTarget) -> Experiment {
    Experiment::new(hw, ConvPolicy::gemm_only(GemmVariant::opt3()), workload())
}

/// A Table II-flavoured design-point grid: two RVV points per timing axis
/// (lanes, L2), an idealized counterfactual, an SVE point, and A64FX.
fn design_points() -> Vec<Experiment> {
    vec![
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 }),
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 4, l2_bytes: 1 << 20 }),
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 4 << 20 }),
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 4, l2_bytes: 4 << 20 }),
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 })
            .with_ideal(IdealKnob::PerfectL2.spec()),
        exp(HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 1 << 20 }),
        exp(HwTarget::A64fx),
    ]
}

/// `--retime=verify` semantics: every design point re-timed AND fully
/// simulated, asserting bit-identical cycles, stall breakdowns, VPU
/// statistics, cache statistics and per-layer reports (the assertions
/// live inside the engine's verify path).
#[test]
fn verify_mode_is_bit_identical_across_design_points() {
    let mut engine = RetimeEngine::with_gate(RetimeOpt::Verify, CertGate::decided(Ok(())));
    let points = design_points();
    for e in &points {
        engine.run(e);
    }
    let c = engine.counters();
    assert_eq!(c.verified, points.len() as u64, "every run verified against the full simulator");
    // Three semantic streams → three captures; the shared-stream RVV
    // points split between tape refits (same cache geometry as a stored
    // tape) and one live replay (first visit to the 4 MB geometry).
    assert_eq!(c.captures, 3);
    assert_eq!(c.live_replays, 1);
    assert_eq!(c.tape_refits, 3);
    assert_eq!(c.refused_runs, 0);
}

/// Eviction-free determinism: running the same sweep twice produces
/// byte-identical reports, with the second pass served entirely from the
/// run memo.
#[test]
fn second_pass_is_all_hits_and_byte_identical() {
    let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::decided(Ok(())));
    let points = design_points();
    let pass1: Vec<String> = points
        .iter()
        .map(|e| {
            let s = engine.run(e);
            lva_core::RunReport::new("t", e, &s).to_json().to_string_pretty()
        })
        .collect();
    let hits_before = engine.counters().run_memo_hits;
    assert_eq!(hits_before, 0, "first pass cannot hit the run memo");
    let pass2: Vec<String> = points
        .iter()
        .map(|e| {
            let s = engine.run(e);
            lva_core::RunReport::new("t", e, &s).to_json().to_string_pretty()
        })
        .collect();
    assert_eq!(pass1, pass2, "retimed sweep must be deterministic");
    assert_eq!(
        engine.counters().run_memo_hits,
        points.len() as u64,
        "second pass is 100% run-memo hits"
    );
    // The layer memo observed real traffic and reports it.
    let report = engine.report().to_string_pretty();
    assert!(report.contains("layer_memo"), "report carries memo counters: {report}");
}

/// A kernel whose semantic stream depends on the design point (here: the
/// L2 capacity steers the op count) must fail certification; the engine
/// refuses retiming, falls back to full simulation, and surfaces the
/// reason in its JSON report.
fn run_config_varying(m: &mut lva_isa::Machine) {
    let n = if m.config().mem.l2.bytes >= (4 << 20) { 100 } else { 60 };
    let x = m.mem.alloc_named("x", 128);
    fill_vec(m, x, 0, n, 1.0);
}

#[test]
fn config_varying_kernel_is_refused_and_falls_back() {
    let bad = KernelCase {
        name: "config_varying",
        shape: "n60|n100",
        isa: None,
        run: run_config_varying,
    };
    let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::with_cases(vec![bad]));
    let e = exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 });
    let (s, path) = engine.run_explained(&e);
    assert_eq!(path, "refused");
    let full = e.run();
    assert_eq!(s.cycles, full.cycles, "fallback is the full simulator");
    assert_eq!(s.report, full.report);
    assert_eq!(engine.counters().refused_runs, 1);
    assert_eq!(engine.counters().captures, 0, "no capture may happen under refusal");
    let reason = engine.refusal().expect("refusal reason recorded");
    assert!(reason.contains("config_varying"), "reason names the kernel: {reason}");
    let json = engine.report().to_string_pretty();
    assert!(json.contains("refusal"), "refusal surfaces in --json: {json}");
    assert!(json.contains("config_varying"), "kernel named in --json: {json}");
}

/// Multi-core refusal: the engine categorically declines to retime a
/// shared-port simulation — certificates are single-core timing proofs —
/// records the named reason, and surfaces it in the JSON report. The
/// caller (exp-scale --retime) then runs the full SoC simulation, so the
/// output stays byte-identical to the unretimed path (pinned again on the
/// whole scaling record in `lva-bench`).
#[test]
fn shared_port_contention_is_refused_with_a_named_reason() {
    let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::decided(Ok(())));
    let reason = engine.refuse_contention();
    assert_eq!(reason, lva_retime::CONTENTION_REFUSAL);
    assert!(reason.contains("single-core timing proofs"), "reason names the limit: {reason}");
    assert!(reason.contains("falling back to full SoC simulation"), "names the fallback: {reason}");
    assert_eq!(engine.refusal(), Some(lva_retime::CONTENTION_REFUSAL));
    assert_eq!(engine.counters().refused_runs, 1);
    let json = engine.report().to_string_pretty();
    assert!(json.contains("single-core timing proofs"), "refusal surfaces in --json: {json}");
    // A second refusal bumps the counter but keeps the first reason.
    engine.refuse_contention();
    assert_eq!(engine.counters().refused_runs, 2);
    assert_eq!(engine.refusal(), Some(lva_retime::CONTENTION_REFUSAL));
}

/// The positive gate: a well-behaved registry kernel certifies, and the
/// engine retimes.
#[test]
fn certified_kernel_gate_allows_retiming() {
    let good: Vec<KernelCase> =
        lva_check::registered_kernels().into_iter().filter(|c| c.name == "gemm_naive").collect();
    assert_eq!(good.len(), 1);
    let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::with_cases(good));
    let e = exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 });
    let (_, path) = engine.run_explained(&e);
    assert_eq!(path, "capture", "certified gate admits the retime path");
    assert!(engine.refusal().is_none());
}

/// Energy through the engine: live replay with the probe attached at the
/// setup boundary reproduces the full probed run bit-for-bit — summary,
/// per-layer attribution, and the streamed total.
#[test]
fn retimed_energy_attribution_is_bit_identical() {
    let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::decided(Ok(())));
    let model = EnergyModel::default();
    let e = exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 });
    let (s_full, a_full) = e.run_observed(lva_core::observe::Energy(&model), 1);
    let s_full = s_full.steady;
    let (s_rt, a_rt) = engine.run_energy(&e, &model);
    assert_eq!(s_rt.cycles, s_full.cycles);
    assert_eq!(s_rt.report, s_full.report);
    assert_eq!(a_rt.total.total_j().to_bits(), a_full.total.total_j().to_bits());
    assert_eq!(a_rt.layers.len(), a_full.layers.len());
    for (l, r) in a_rt.layers.iter().zip(&a_full.layers) {
        assert_eq!(l.counts, r.counts, "layer {} counts diverged", l.index);
        assert_eq!(l.breakdown.total_j().to_bits(), r.breakdown.total_j().to_bits());
    }
    assert_eq!(engine.counters().energy_retimes, 1);
}

/// Streams through the engine: multi-frame capture, then a memoized
/// stream refit at another timing-only point, both bit-identical to
/// `run_stream`.
#[test]
fn retimed_streams_match_run_stream() {
    let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::decided(Ok(())));
    let a = exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 });
    let b = exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 4, l2_bytes: 1 << 20 });
    for e in [&a, &b] {
        let got = engine.run_stream(e, 2);
        let (want, ()) = e.run_observed((), 2);
        assert_eq!(got.per_frame_cycles, want.per_frame_cycles);
        assert_eq!(got.steady.report, want.steady.report);
    }
    let c = engine.counters();
    assert_eq!(c.stream_captures, 1, "one capture per (stream, frames)");
    assert_eq!(c.stream_refits, 1, "same-geometry point refits the stream tape");
    // Asking again is a memo hit.
    engine.run_stream(&a, 2);
    assert_eq!(engine.counters().run_memo_hits, 1);
}
