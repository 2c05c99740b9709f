//! The benchmark's own contract: every metric is printed with its unit,
//! simulated counts repeat exactly, and failed checks are counted.
//!
//! The workloads here are reduced copies of the real ones (smaller inputs,
//! fewer layers, a smaller grid) so the tests run in seconds.

use lva_core::{ConvPolicy, GemmVariant, HwTarget, ModelId, Workload};
use perfbench::dse::{self, DseSpec};
use perfbench::infer::{self, InferSpec};
use perfbench::{Outcome, END_TO_END, HOST_TIME, PER_LAYER};
use std::sync::{Mutex, MutexGuard};

/// Tracing is process-global, so tests that run workloads take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The end-to-end metrics every workload prints, by name and unit.
const PROMISED_END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("total_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles", "cycles"),
    ("failed_ratio", "ratio"),
];

const PROMISED_PER_LAYER: &[&str] = &[
    "nn.build_s",
    "nn.run_s",
    "nn.conv3x3_host_share",
    "nn.layer_self_share",
    "kernels.gemm_host_s",
    "kernels.pack_host_s",
    "kernels.im2col_host_s",
    "kernels.epilogue_host_s",
    "kernels.gemm_sim_cycles",
    "kernels.im2col_sim_cycles",
    "winograd.input_t_host_s",
    "winograd.tuple_mul_host_s",
    "winograd.output_t_host_s",
    "winograd.weight_t_host_s",
    "winograd.sim_cycles",
    "isa.vec_instrs",
    "isa.vec_mem_instrs",
    "isa.scalar_ops",
    "isa.avg_vlen_bits",
    "isa.host_ns_per_vec_instr",
    "isa.stall.raw_hazard",
    "isa.stall.vector_startup",
    "isa.stall.mem_latency",
    "isa.stall.lane_occupancy",
    "isa.stall.issue_width",
    "sim.l1_accesses",
    "sim.l1_miss_rate",
    "sim.l2_accesses",
    "sim.l2_miss_rate",
    "sim.vcache_accesses",
    "sim.dram_lines",
    "sim.hwpf_issued",
    "sim.prefetch_accuracy",
    "sim.host_ns_per_access",
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
    "trace.overhead",
];

/// Counts that must not depend on the seed or on the host.
fn exact_counts(o: &Outcome) -> Vec<(&'static str, f64)> {
    o.metrics
        .iter()
        .filter(|m| {
            m.name == "sim_cycles"
                || m.name.ends_with("sim_cycles")
                || (m.name.starts_with("isa.") && m.name != "isa.host_ns_per_vec_instr")
                || (m.name.starts_with("sim.") && m.name != "sim.host_ns_per_access")
                || matches!(
                    m.name,
                    "retime.captures"
                        | "retime.live_replays"
                        | "retime.tape_refits"
                        | "retime.run_memo_hits"
                        | "retime.refused"
                        | "retime.layer_memo_hit_ratio"
                        | "retime.layer_memo_lookups"
                )
        })
        .map(|m| (m.name, m.value))
        .collect()
}

fn small_gemm() -> InferSpec {
    InferSpec {
        hw: HwTarget::A64fx,
        policy: ConvPolicy::gemm_only(GemmVariant::opt6()),
        model: ModelId::Yolov3,
        input_hw: 32,
        layers: 6,
        counted_frames: 2,
        expect_first_frame: None,
    }
}

fn small_wino() -> InferSpec {
    InferSpec {
        hw: HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 1 << 20 },
        policy: ConvPolicy::winograd_default(GemmVariant::opt6()),
        ..small_gemm()
    }
}

fn small_dse() -> DseSpec {
    DseSpec {
        workload: Workload { model: ModelId::Yolov3Tiny, input_hw: 32, layer_limit: Some(6) },
        policy: ConvPolicy::gemm_only(GemmVariant::opt3()),
        vlens: vec![512, 1024],
        l2_bytes: vec![1 << 20, 4 << 20],
        lanes: vec![2, 4],
    }
}

const BRIEF: f64 = 1e-3;

/// Every metric of `table` is in the summary with its unit, every metric
/// of `catalogue` in the result line with its unit, and the run is correct.
fn assert_printed(o: &Outcome, table: &[(&str, &str)], catalogue: &[(&str, &str)], workload: &str) {
    let summary = o.summary(workload);
    for (name, unit) in table {
        assert!(
            summary.lines().any(|l| {
                let mut cols = l.split_whitespace();
                cols.next() == Some(name) && cols.nth(1) == Some(unit)
            }),
            "{workload}: {name} [{unit}] missing from the summary:\n{summary}"
        );
    }
    let line = o.result_line(catalogue);
    for (name, unit) in catalogue {
        assert!(
            line.contains(&format!(r#""{name}": {{"value": "#))
                && line.contains(&format!(r#""unit": "{unit}""#)),
            "{workload}: {name} missing from the result line {line}"
        );
    }
    assert!(o.correct(catalogue), "{workload}: {:?}", o.failures);
}

#[test]
fn catalogue_is_the_promised_one() {
    let printed: Vec<_> = END_TO_END.iter().chain(HOST_TIME).copied().collect();
    assert!(PROMISED_END_TO_END[..6].iter().all(|m| printed.contains(m)));
    assert_eq!(printed.len(), 6);
    let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, PROMISED_PER_LAYER);
    assert!(PER_LAYER.iter().all(|(_, unit)| !unit.is_empty()));
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let _serial = serial();
    for (name, spec) in [("small_gemm", small_gemm()), ("small_wino", small_wino())] {
        let plain = infer::run(&spec, 1, BRIEF, false);
        assert_printed(&plain, PROMISED_END_TO_END, END_TO_END, name);
        assert_printed(&infer::run(&spec, 1, BRIEF, true), PER_LAYER, PER_LAYER, name);
    }
    let plain = dse::run(&small_dse(), 1, BRIEF, false);
    assert_printed(&plain, PROMISED_END_TO_END, END_TO_END, "small_dse");
    let traced = dse::run(&small_dse(), 1, BRIEF, true);
    assert_printed(&traced, PER_LAYER, PER_LAYER, "small_dse");
    // Two VLs x two L2 sizes x two lane counts: one capture per VL, one
    // live replay per new L2 geometry, tape refits for the rest.
    assert_eq!(traced.get("retime.captures"), Some(2.0));
    assert_eq!(traced.get("retime.live_replays"), Some(2.0));
    assert_eq!(traced.get("retime.tape_refits"), Some(4.0));
}

#[test]
fn counts_repeat_across_seeds_and_runs() {
    let _serial = serial();
    for (name, spec) in [("small_gemm", small_gemm()), ("small_wino", small_wino())] {
        let runs: Vec<Outcome> =
            [1, 2, 1].iter().map(|&seed| infer::run(&spec, seed, BRIEF, true)).collect();
        let plain: Vec<Outcome> =
            [1, 2].iter().map(|&seed| infer::run(&spec, seed, BRIEF, false)).collect();
        assert_eq!(exact_counts(&runs[0]), exact_counts(&runs[1]), "{name}: seed changed counts");
        assert_eq!(exact_counts(&runs[0]), exact_counts(&runs[2]), "{name}: rerun changed counts");
        assert_eq!(plain[0].get("sim_cycles"), plain[1].get("sim_cycles"), "{name}");
        assert!(exact_counts(&runs[0]).len() >= 20, "{name}: counts missing");
    }
    let runs: Vec<Outcome> =
        [1, 2, 1].iter().map(|&seed| dse::run(&small_dse(), seed, BRIEF, true)).collect();
    assert_eq!(exact_counts(&runs[0]), exact_counts(&runs[1]), "dse: seed changed counts");
    assert_eq!(exact_counts(&runs[0]), exact_counts(&runs[2]), "dse: rerun changed counts");
}

#[test]
fn a_wrong_expected_value_is_a_failed_op() {
    let _serial = serial();
    let right = infer::run(&small_gemm(), 3, BRIEF, false);
    let cycles = right.metrics.iter().find(|m| m.name == "sim_cycles").map(|m| m.value);
    assert!(right.correct(END_TO_END) && cycles.is_some());

    let wrong = InferSpec { expect_first_frame: Some(Ok(1)), ..small_gemm() };
    let o = infer::run(&wrong, 3, BRIEF, false);
    assert_eq!(o.failed, 1, "{:?}", o.failures);
    assert!(o.attempted >= 2);
    assert!(!o.correct(END_TO_END));
    assert!(o.result_line(END_TO_END).starts_with(r#"{"correct": false, "#));

    let unreadable = InferSpec { expect_first_frame: Some(Err("gone".into())), ..small_gemm() };
    assert_eq!(infer::run(&unreadable, 3, BRIEF, false).failed, 1);
}

#[test]
fn gemm_a64fx_first_frame_reproduces_the_headline() {
    let _serial = serial();
    assert_eq!(infer::headline_cycles("a64fx_yolo20_opt6"), Ok(42_290_010));
    assert!(infer::headline_cycles("no_such_run").is_err());
    let o = infer::run(&InferSpec::gemm_a64fx(), 42, BRIEF, false);
    assert!(o.correct(END_TO_END), "{:?}", o.failures);
}
