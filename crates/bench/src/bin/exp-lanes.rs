//! §VI-B(c) — impact of the number of vector lanes (2..8) per vector
//! length on RISC-V Vector @ gem5, YOLOv3 first 20 layers, 1 MB L2.
//!
//! Paper result: 2 -> 8 lanes buys ~1.25x at 8192-bit; at 512-bit,
//! performance scales from 2 to 4 lanes and saturates beyond 4 —
//! additional lanes benefit longer vectors.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(4, "Lanes sweep: RVV vector lanes 2..8 per vector length");
    let workload = Workload {
        model: ModelId::Yolov3,
        input_hw: scaled_input(ModelId::Yolov3, opts.div),
        layer_limit: Some(opts.layers.unwrap_or(20)),
    };
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let mut table = Table::new(
        format!("Vector lanes vs performance per VL, {}", workload.describe()),
        &["vlen_bits", "lanes", "cycles", "speedup_vs_2_lanes"],
    );
    let mut specs: Vec<(String, Experiment)> = Vec::new();
    for vlen in [512usize, 2048, 8192] {
        for lanes in [2usize, 4, 8] {
            let e = Experiment::new(
                HwTarget::RvvGem5 { vlen_bits: vlen, lanes, l2_bytes: 1 << 20 },
                policy,
                workload,
            );
            specs.push((format!("vlen{vlen}_lanes{lanes}"), e));
        }
    }
    let runs = run_sweep(&specs, opts.jobs, false, None, false);
    let mut runs = runs.into_iter();
    for vlen in [512usize, 2048, 8192] {
        let mut base = None;
        for lanes in [2usize, 4, 8] {
            let s = runs.next().expect("one run per cell").summary;
            let b = *base.get_or_insert(s.cycles);
            table.row(vec![
                vlen.to_string(),
                lanes.to_string(),
                fmt_cycles(s.cycles),
                fmt_speedup(b as f64 / s.cycles as f64),
            ]);
        }
    }
    println!("\npaper: ~1.25x at 8192b from 2->8 lanes; 512b saturates beyond 4 lanes\n");
    emit(&table, "lanes_rvv", &opts);
}
