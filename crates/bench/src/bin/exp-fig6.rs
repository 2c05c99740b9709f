//! Figure 6 — impact of the vector length on RISC-V Vector @ gem5 for the
//! first 20 layers of YOLOv3, at a constant 1 MB L2 and 8 vector lanes.
//!
//! Paper result: performance improves ~2.5x from 512-bit to 16384-bit
//! vector lengths and effectively saturates beyond 8192 bits, because the
//! L2 miss rate climbs with the vector length (Table III).

use lva_bench::*;

fn main() {
    let opts = Opts::parse(4, "Fig. 6: RVV vector-length sweep, YOLOv3 first 20 layers");
    let workload = Workload {
        model: ModelId::Yolov3,
        input_hw: scaled_input(ModelId::Yolov3, opts.div),
        layer_limit: Some(opts.layers.unwrap_or(20)),
    };
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());

    let mut table = Table::new(
        format!("Fig. 6 — vector length vs performance, {}", workload.describe()),
        &["vlen_bits", "cycles", "speedup_vs_512", "avg_vlen_bits", "l2_miss_%"],
    );
    let specs: Vec<(String, Experiment)> = RVV_VLENS
        .iter()
        .map(|&vlen| {
            let e = Experiment::new(
                HwTarget::RvvGem5 { vlen_bits: vlen, lanes: 8, l2_bytes: 1 << 20 },
                policy,
                workload,
            );
            (format!("vlen{vlen}"), e)
        })
        .collect();
    let mut base = None;
    for (vlen, r) in RVV_VLENS.iter().zip(run_sweep(&specs, opts.jobs, false, None, false)) {
        let s = r.summary;
        let base_cycles = *base.get_or_insert(s.cycles);
        table.row(vec![
            vlen.to_string(),
            fmt_cycles(s.cycles),
            fmt_speedup(base_cycles as f64 / s.cycles as f64),
            format!("{:.1}", s.avg_vlen_bits),
            format!("{:.1}", 100.0 * s.l2_miss_rate),
        ]);
    }
    println!("\npaper: 2.5x from 512b to 16384b, saturating beyond 8192b\n");
    emit(&table, "fig6_rvv_vlen", &opts);
}
