//! Figure 8 — impact of vector length (512..2048-bit) and L2 size
//! (1 MB..256 MB) on ARM-SVE @ gem5, YOLOv3 first 20 layers, optimized
//! im2col+GEMM (6-loop: §VI-C found it 15% ahead of 3-loop on SVE@gem5).
//!
//! Paper result: at 1 MB, 512 -> 2048 bits improves performance by 1.34x;
//! at 2048-bit, 1 MB -> 256 MB improves it by 1.6x.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(4, "Fig. 8: SVE@gem5 vector-length x L2-size sweep");
    let workload = Workload {
        model: ModelId::Yolov3,
        input_hw: scaled_input(ModelId::Yolov3, opts.div),
        layer_limit: Some(opts.layers.unwrap_or(20)),
    };
    let policy = ConvPolicy::gemm_only(GemmVariant::opt6());
    let mut table = Table::new(
        format!("Fig. 8 — VL x L2 on ARM-SVE @ gem5, {}", workload.describe()),
        &["vlen_bits", "l2", "cycles", "speedup_vs_512b_1MB", "l2_miss_%"],
    );
    let mut specs: Vec<(String, Experiment)> = Vec::new();
    for vlen in SVE_VLENS {
        for l2 in L2_SIZES {
            let e = Experiment::new(
                HwTarget::SveGem5 { vlen_bits: vlen, l2_bytes: l2 },
                policy,
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
    println!("\npaper: 1.34x from 512->2048b at 1MB; 1.6x from 1->256MB at 2048b\n");
    emit(&table, "fig8_sve_vl_l2", &opts);
}
