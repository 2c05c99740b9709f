//! §VII-A — Winograd vs optimized im2col+GEMM on the A64FX profile.
//!
//! Paper results (weight transform excluded — performed offline):
//! * VGG16 (all convs are 3x3 stride-1): Winograd is 1.5x faster overall;
//! * YOLOv3 (38 of 75 convs are 3x3): 1.35x faster overall;
//! * the 3x3 stride-1 layers alone: 2.4x faster;
//! * the 3x3 stride-2 layers: 1.4x *slower* with Winograd;
//! * 1x1 layers default to im2col+GEMM either way.

use lva_bench::*;
use lva_nn::ConvAlgo;

/// Sum cycles of conv layers selected by a predicate.
fn conv_cycles(s: &RunSummary, pred: impl Fn(&lva_nn::LayerReport) -> bool) -> u64 {
    s.report.layers.iter().filter(|l| l.mnk.is_some() && pred(l)).map(|l| l.cycles).sum()
}

fn main() {
    let opts = Opts::parse(4, "§VII-A: Winograd vs im2col+GEMM on A64FX");
    let mut table = Table::new(
        "Winograd vs optimized im2col+GEMM on A64FX (weight transform offline)",
        &["workload", "comparison", "measured", "paper"],
    );

    let models = [ModelId::Vgg16, ModelId::Yolov3];
    let specs: Vec<(String, Experiment)> = models
        .iter()
        .flat_map(|&model| {
            let workload = Workload {
                model,
                input_hw: scaled_input(model, opts.div),
                layer_limit: opts.layers,
            };
            // Winograd everywhere it applies, including stride-2 (the paper
            // measured stride-2 separately before excluding it from §VII-B).
            let mut pol = ConvPolicy::winograd_default(GemmVariant::opt6());
            pol.winograd_stride2 = true;
            [
                (
                    format!("gemm_{}", model.name()),
                    Experiment::new(
                        HwTarget::A64fx,
                        ConvPolicy::gemm_only(GemmVariant::opt6()),
                        workload,
                    ),
                ),
                (format!("wino_{}", model.name()), Experiment::new(HwTarget::A64fx, pol, workload)),
            ]
        })
        .collect();
    let runs = run_sweep(&specs, opts.jobs, false, None, false);
    for (i, model) in models.into_iter().enumerate() {
        let workload =
            Workload { model, input_hw: scaled_input(model, opts.div), layer_limit: opts.layers };
        let gemm = &runs[2 * i].summary;
        let wino = &runs[2 * i + 1].summary;

        // Whole-network conv time (the paper's default policy: stride-1
        // Winograd only -> charge stride-2 layers at their GEMM cost).
        let is3x3s1 = |l: &lva_nn::LayerReport| l.desc.contains("3x3/1");
        let is3x3s2 = |l: &lva_nn::LayerReport| l.desc.contains("3x3/2");
        let g_all = conv_cycles(gemm, |_| true);
        let w_s1 = conv_cycles(wino, is3x3s1);
        let g_s1 = conv_cycles(gemm, is3x3s1);
        let w_s2 = conv_cycles(wino, is3x3s2);
        let g_s2 = conv_cycles(gemm, is3x3s2);
        let other_g = g_all - g_s1 - g_s2;
        // Default policy total: Winograd s1 + GEMM s2 + GEMM rest.
        let default_total = w_s1 + g_s2 + other_g;

        let (paper_net, name) = match model {
            ModelId::Vgg16 => ("1.5x", "VGG16"),
            ModelId::Yolov3 => ("1.35x", "YOLOv3"),
            _ => ("-", "other"),
        };
        table.row(vec![
            workload.describe(),
            format!("{name} conv total: winograd policy vs im2col+GEMM"),
            fmt_speedup(g_all as f64 / default_total as f64),
            paper_net.into(),
        ]);
        table.row(vec![
            workload.describe(),
            "3x3 stride-1 layers: winograd vs gemm".into(),
            fmt_speedup(g_s1 as f64 / w_s1 as f64),
            "2.4x".into(),
        ]);
        if g_s2 > 0 {
            table.row(vec![
                workload.describe(),
                "3x3 stride-2 layers: winograd vs gemm".into(),
                fmt_speedup(g_s2 as f64 / w_s2 as f64),
                "0.71x (1.4x slower)".into(),
            ]);
        }
        // Count algorithm selection for the record.
        let wino_count =
            wino.report.layers.iter().filter(|l| l.algo == Some(ConvAlgo::Winograd)).count();
        eprintln!("   [{name}: {wino_count} layers ran Winograd]");
    }
    emit(&table, "winograd_a64fx", &opts);
}
