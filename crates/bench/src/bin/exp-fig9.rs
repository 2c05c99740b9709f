//! Figure 9 — impact of vector length (512..2048-bit) and L2 size
//! (1 MB..256 MB) with Winograd on ARM-SVE @ gem5, for the first 20 layers
//! of YOLOv3 (Winograd on the 3x3 stride-1 layers, optimized im2col+GEMM
//! elsewhere — the §VII-B selection rule).
//!
//! Paper result: ~1.4x from 512 to 2048 bits at 1 MB; ~1.75x from 1 MB to
//! 256 MB across vector lengths (several YOLOv3 layers still run GEMM,
//! which keeps the cache appetite higher than VGG16's, cf. Fig. 10).

use lva_bench::*;

fn main() {
    let opts = Opts::parse(4, "Fig. 9: Winograd VL x L2 sweep, YOLOv3 first 20 layers");
    let workload = Workload {
        model: ModelId::Yolov3,
        input_hw: scaled_input(ModelId::Yolov3, opts.div),
        layer_limit: Some(opts.layers.unwrap_or(20)),
    };
    let policy = ConvPolicy::winograd_default(GemmVariant::opt6());
    let mut table = Table::new(
        format!("Fig. 9 — Winograd VL x L2 on SVE @ gem5, {}", workload.describe()),
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
    println!("\npaper: 1.4x from 512->2048b at 1MB; 1.75x from 1->256MB\n");
    emit(&table, "fig9_winograd_yolo", &opts);
}
