//! Extension — streaming inference: cold-start vs steady-state frames.
//!
//! §VI's methodology excludes setup "as this is a constant overhead, not
//! incurred when continuously running inference over a stream of images".
//! This experiment runs a stream of frames on one machine (weights stay
//! cache-resident between frames) and reports how much the steady state
//! gains over the first, cold frame — and how that gap grows with cache
//! capacity (a bigger L2 retains more of the network between frames).

use lva_bench::*;

fn main() {
    let opts = Opts::parse(4, "Streaming inference: cold vs steady-state frames");
    let workload = Workload {
        model: ModelId::Yolov3Tiny,
        input_hw: scaled_input(ModelId::Yolov3Tiny, opts.div),
        layer_limit: opts.layers,
    };
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let mut table = Table::new(
        format!("Cold vs steady-state frames, {}", workload.describe()),
        &["l2", "frame1_cycles", "frame4_cycles", "steady_gain", "steady_l2_miss_%"],
    );
    for l2 in [1usize << 20, 16 << 20, 256 << 20] {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 4096, lanes: 8, l2_bytes: l2 },
            policy,
            workload,
        );
        eprintln!(".. streaming 4 frames at L2={}", lva_core::experiment::fmt_bytes(l2));
        let (s, ()) = e.run_observed((), 4);
        table.row(vec![
            lva_core::experiment::fmt_bytes(l2),
            fmt_cycles(s.cold_cycles()),
            fmt_cycles(s.steady_cycles()),
            fmt_speedup(s.cold_cycles() as f64 / s.steady_cycles() as f64),
            format!("{:.1}", 100.0 * s.steady.l2_miss_rate),
        ]);
    }
    emit(&table, "stream_cold_vs_steady", &opts);
}
