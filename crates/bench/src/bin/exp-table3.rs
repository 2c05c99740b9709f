//! Table III — average consumed vector length and L2 cache miss rate per
//! configured vector length, RISC-V Vector @ gem5, YOLOv3 first 20 layers,
//! 1 MB L2, 8 lanes.
//!
//! Paper result: the configured length is almost fully consumed (tail
//! effects only), while the L2 miss rate climbs from 32% (512-bit) to 79%
//! (16384-bit) — the mechanism behind Fig. 6's saturation. Note that at
//! reduced input scale (`--div`) the deepest layers' rows are shorter than
//! the longest vectors, so the consumed average drops below the paper's
//! values; run with `--div 1` for paper-size tails.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(4, "Table III: consumed vector length and L2 miss rate on RVV");
    let workload = Workload {
        model: ModelId::Yolov3,
        input_hw: scaled_input(ModelId::Yolov3, opts.div),
        layer_limit: Some(opts.layers.unwrap_or(20)),
    };
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let mut table = Table::new(
        format!("Table III — avg consumed VL and L2 miss rate, {}", workload.describe()),
        &["vlen_bits", "avg_consumed_vlen_bits", "l2_miss_%", "paper_l2_miss_%"],
    );
    let paper_miss = [32.0, 36.0, 39.0, 42.0, 61.0, 79.0];
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
    let runs = run_sweep(&specs, opts.jobs, false, None, false);
    for (i, (vlen, r)) in RVV_VLENS.into_iter().zip(runs).enumerate() {
        let s = r.summary;
        table.row(vec![
            vlen.to_string(),
            format!("{:.1}", s.avg_vlen_bits),
            format!("{:.1}", 100.0 * s.l2_miss_rate),
            format!("{:.0}", paper_miss[i]),
        ]);
    }
    emit(&table, "table3_avg_vl_miss", &opts);
}
