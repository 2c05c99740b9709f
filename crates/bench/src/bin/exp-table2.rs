//! Table II — relative performance of the BLIS-like optimized 6-loop GEMM
//! versus the optimized 3-loop GEMM on RISC-V Vector @ gem5 (YOLOv3 first 4
//! layers, 1 MB L2, 8 lanes), over the paper's six block-size choices.
//!
//! Paper result: the 6-loop implementation never wins on RVV — normalized
//! performance 0.90..0.98, best at blocks 16x512x128 — because the
//! decoupled VPU reads the L2 directly (L1 blocking buys nothing) and RVV
//! has no prefetch instructions to hide the packing latency (§VI-A).

use lva_bench::*;

fn main() {
    let opts = Opts::parse(4, "Table II: 6-loop vs 3-loop block-size sweep on RVV");
    let workload = Workload {
        model: ModelId::Yolov3,
        input_hw: scaled_input(ModelId::Yolov3, opts.div),
        layer_limit: Some(opts.layers.unwrap_or(4)),
    };
    let hw = HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 };

    let mut specs: Vec<(String, Experiment)> = vec![(
        "opt3_reference".to_string(),
        Experiment::new(hw, ConvPolicy::gemm_only(GemmVariant::opt3()), workload),
    )];
    for blocks in BlockSizes::TABLE2_SWEEP {
        let e = Experiment::new(
            hw,
            ConvPolicy::gemm_only(GemmVariant::Opt6 { unroll: 16, blocks }),
            workload,
        );
        specs.push((format!("opt6_{}x{}x{}", blocks.m, blocks.n, blocks.k), e));
    }
    let runs = run_sweep(&specs, opts.jobs, false, None, false);
    let opt3 = &runs[0].summary;

    let paper = ["0.90", "0.95", "0.98", "0.96", "0.97", "0.95"];
    let mut table = Table::new(
        format!("Table II — 6-loop vs 3-loop on RVV, {}", workload.describe()),
        &["blockM x blockN x blockK", "cycles_6loop", "normalized_perf_vs_3loop", "paper"],
    );
    for (i, blocks) in BlockSizes::TABLE2_SWEEP.into_iter().enumerate() {
        let s = &runs[i + 1].summary;
        table.row(vec![
            format!("{}x{}x{}", blocks.m, blocks.n, blocks.k),
            fmt_cycles(s.cycles),
            format!("{:.2}", opt3.cycles as f64 / s.cycles as f64),
            paper[i].to_string(),
        ]);
    }
    println!(
        "\n3-loop reference: {} cycles. paper: 6-loop at best 0.98 of 3-loop on RVV\n",
        fmt_cycles(opt3.cycles)
    );
    emit(&table, "table2_blocksizes", &opts);
}
