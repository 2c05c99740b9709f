//! The parallel sweep executor contract: `--jobs N` may only change who
//! executes what when. For the full nine-point headline suite, the
//! machine-readable reports produced from a serial run and a `--jobs 4` run
//! must be **byte-identical** — same cycles, same stats, same JSON text.

use lva_bench::{
    run_sweep, scaled_input, ConvPolicy, Experiment, GemmVariant, HwTarget, Json, ModelId,
    RunReport, Workload,
};

/// The nine headline design points (same grid as `exp-headline`), scaled
/// down hard so the suite stays test-sized.
fn headline_specs() -> Vec<(String, Experiment)> {
    let div = 32;
    let tiny = Workload {
        model: ModelId::Yolov3Tiny,
        input_hw: scaled_input(ModelId::Yolov3Tiny, div),
        layer_limit: None,
    };
    let yolo = Workload {
        model: ModelId::Yolov3,
        input_hw: scaled_input(ModelId::Yolov3, div),
        layer_limit: Some(8),
    };
    let naive = ConvPolicy::gemm_only(GemmVariant::Naive);
    let opt3 = ConvPolicy::gemm_only(GemmVariant::opt3());
    let opt6 = ConvPolicy::gemm_only(GemmVariant::opt6());
    let rvv = HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 };
    let ax = HwTarget::A64fx;
    let sve = HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 1 << 20 };
    [
        ("rvv_tiny_naive", Experiment::new(rvv, naive, tiny)),
        ("rvv_tiny_opt3", Experiment::new(rvv, opt3, tiny)),
        ("a64fx_yolo_naive", Experiment::new(ax, naive, yolo)),
        ("a64fx_yolo_opt3", Experiment::new(ax, opt3, yolo)),
        ("a64fx_yolo_opt6", Experiment::new(ax, opt6, yolo)),
        ("sve512_yolo_opt3", Experiment::new(sve, opt3, yolo)),
        ("sve512_yolo_opt6", Experiment::new(sve, opt6, yolo)),
        ("rvv_yolo_opt3", Experiment::new(rvv, opt3, yolo)),
        ("rvv_yolo_opt6", Experiment::new(rvv, opt6, yolo)),
    ]
    .into_iter()
    .map(|(n, e)| (n.to_string(), e))
    .collect()
}

/// The serialized report suite for one `jobs` setting, exactly as the
/// `--json` path of `exp-headline` would assemble it.
fn report_bytes(jobs: usize) -> String {
    let specs = headline_specs();
    let results = run_sweep(&specs, jobs, false, None, true);
    assert_eq!(results.len(), specs.len());
    let reports: Vec<Json> = specs
        .iter()
        .zip(&results)
        .map(|((name, e), r)| RunReport::new(name.clone(), e, &r.summary).to_json())
        .collect();
    Json::Arr(reports).to_string_pretty()
}

#[test]
fn serial_and_jobs4_reports_are_byte_identical() {
    let serial = report_bytes(1);
    let parallel = report_bytes(4);
    assert!(serial.len() > 1000, "suite report suspiciously small");
    assert_eq!(serial, parallel, "--jobs 4 must not change a single byte of the reports");
}
