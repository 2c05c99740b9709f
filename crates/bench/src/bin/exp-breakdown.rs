//! §II-B — execution-time breakdown of CNN inference kernels.
//!
//! The paper profiles YOLOv3 on A64FX and finds the convolutional layer
//! dominates, with GEMM consuming 93.4% of the computation time (setup
//! excluded). This binary reproduces the breakdown from the simulator's
//! kernel-phase attribution. The two builds are independent design points,
//! so `--jobs 2` runs them concurrently with identical output.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(4, "§II-B: kernel execution-time breakdown");
    let workload = Workload {
        model: ModelId::Yolov3,
        input_hw: scaled_input(ModelId::Yolov3, opts.div),
        layer_limit: opts.layers,
    };
    // The §II-B profile is the un-tuned Darknet build: the naive GEMM.
    let specs: Vec<(String, Experiment)> = [
        ("naive darknet build (as profiled in §II-B)", ConvPolicy::gemm_only(GemmVariant::Naive)),
        ("optimized 6-loop build", ConvPolicy::gemm_only(GemmVariant::opt6())),
    ]
    .into_iter()
    .map(|(name, policy)| (name.to_string(), Experiment::new(HwTarget::A64fx, policy, workload)))
    .collect();
    let results = run_sweep(&specs, opts.jobs, false, None, false);
    for ((name, _), r) in specs.iter().zip(&results) {
        let s = &r.summary;
        let mut table = Table::new(
            format!("Kernel breakdown — {name}, {}", workload.describe()),
            &["kernel", "cycles", "share_%"],
        );
        for (phase, cyc) in s.report.phases.breakdown() {
            table.row(vec![
                phase.name().into(),
                fmt_cycles(cyc),
                format!("{:.1}", 100.0 * cyc as f64 / s.cycles as f64),
            ]);
        }
        table.print();
        println!();
    }
    println!("paper: GEMM = 93.4% of computation time in the profiled build");
    // No emit() on this path; flush any --trace sink explicitly.
    lva_trace::flush();
}
