//! Figure 10 — impact of vector length and L2 size with Winograd on
//! ARM-SVE @ gem5 for VGG16 (all 13 convolutional layers are 3x3 stride-1,
//! so every one of them runs Winograd).
//!
//! Paper results: ~1.4x from 512 to 2048 bits at 1 MB; ~1.4x from 1 MB to
//! **64 MB** and flat beyond (Winograd has smaller cache requirements than
//! im2col+GEMM); and Winograd over im2col+GEMM at 1 MB is 1.4x / 1.5x /
//! 1.3x for 512 / 1024 / 2048-bit vectors.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(4, "Fig. 10: Winograd VL x L2 sweep, VGG16");
    let workload = Workload {
        model: ModelId::Vgg16,
        input_hw: scaled_input(ModelId::Vgg16, opts.div),
        layer_limit: opts.layers,
    };
    let wino = ConvPolicy::winograd_default(GemmVariant::opt6());
    let gemm = ConvPolicy::gemm_only(GemmVariant::opt6());

    let mut table = Table::new(
        format!("Fig. 10 — Winograd VL x L2 on SVE @ gem5, {}", workload.describe()),
        &["vlen_bits", "l2", "cycles", "speedup_vs_512b_1MB", "l2_miss_%"],
    );
    let mut specs: Vec<(String, Experiment)> = Vec::new();
    for vlen in SVE_VLENS {
        for l2 in L2_SIZES {
            let e = Experiment::new(
                HwTarget::SveGem5 { vlen_bits: vlen, l2_bytes: l2 },
                wino,
                workload,
            );
            specs.push((format!("vlen{vlen}_l2_{}", lva_core::experiment::fmt_bytes(l2)), e));
        }
    }
    let runs = run_sweep(&specs, opts.jobs, false, None, false);
    let mut runs = runs.into_iter();
    let mut base = None;
    for vlen in SVE_VLENS {
        for l2 in L2_SIZES {
            let s = runs.next().expect("one run per cell").summary;
            let b = *base.get_or_insert(s.cycles);
            table.row(vec![
                vlen.to_string(),
                lva_core::experiment::fmt_bytes(l2),
                fmt_cycles(s.cycles),
                fmt_speedup(b as f64 / s.cycles as f64),
                format!("{:.1}", 100.0 * s.l2_miss_rate),
            ]);
        }
    }
    println!("\npaper: 1.4x VL; 1.4x cache up to 64MB then flat\n");
    emit(&table, "fig10_winograd_vgg16", &opts);

    // Winograd vs im2col+GEMM per vector length at 1 MB (§VII-B end).
    let mut cmp = Table::new(
        "VGG16: Winograd vs im2col+GEMM at 1MB L2 per vector length",
        &["vlen_bits", "winograd_cycles", "gemm_cycles", "speedup", "paper"],
    );
    let paper = ["1.4x", "1.5x", "1.3x"];
    let cmp_specs: Vec<(String, Experiment)> = SVE_VLENS
        .iter()
        .flat_map(|&vlen| {
            let hw = HwTarget::SveGem5 { vlen_bits: vlen, l2_bytes: 1 << 20 };
            [
                (format!("wino_vlen{vlen}"), Experiment::new(hw, wino, workload)),
                (format!("gemm_vlen{vlen}"), Experiment::new(hw, gemm, workload)),
            ]
        })
        .collect();
    let cmp_runs = run_sweep(&cmp_specs, opts.jobs, false, None, false);
    for (i, vlen) in SVE_VLENS.into_iter().enumerate() {
        let w = &cmp_runs[2 * i].summary;
        let g = &cmp_runs[2 * i + 1].summary;
        cmp.row(vec![
            vlen.to_string(),
            fmt_cycles(w.cycles),
            fmt_cycles(g.cycles),
            fmt_speedup(g.cycles as f64 / w.cycles as f64),
            paper[i].into(),
        ]);
    }
    emit(&cmp, "fig10_winograd_vs_gemm", &opts);
}
