//! Figure 7 — impact of the L2 cache size (1 MB .. 256 MB) for each vector
//! length on RISC-V Vector @ gem5, YOLOv3 first 20 layers, 8 lanes.
//!
//! Paper result: growing the L2 from 1 MB to 256 MB improves performance by
//! ~1.5x for vector lengths up to 4096 bits and by 1.7x-1.9x for the
//! 8192/16384-bit lengths; with a 256 MB L2, 16384-bit is only ~5% faster
//! than 8192-bit and both miss rates drop to ~2.5%.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(4, "Fig. 7: RVV L2-size sweep per vector length");
    let workload = Workload {
        model: ModelId::Yolov3,
        input_hw: scaled_input(ModelId::Yolov3, opts.div),
        layer_limit: Some(opts.layers.unwrap_or(20)),
    };
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let mut table = Table::new(
        format!("Fig. 7 — L2 size vs performance per VL, {}", workload.describe()),
        &["vlen_bits", "l2", "cycles", "speedup_vs_1MB", "l2_miss_%"],
    );
    let mut specs: Vec<(String, Experiment)> = Vec::new();
    for vlen in RVV_VLENS {
        for l2 in L2_SIZES {
            let e = Experiment::new(
                HwTarget::RvvGem5 { vlen_bits: vlen, lanes: 8, l2_bytes: l2 },
                policy,
                workload,
            );
            specs.push((format!("vlen{vlen}_l2_{}", lva_core::experiment::fmt_bytes(l2)), e));
        }
    }
    let runs = run_sweep(&specs, opts.jobs, false, None, false);
    let mut runs = runs.into_iter();
    for vlen in RVV_VLENS {
        let mut base = None;
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
    println!("\npaper: 1.5x (<=4096b), 1.7-1.9x (8192/16384b) from 1MB to 256MB\n");
    emit(&table, "fig7_rvv_l2", &opts);
}
