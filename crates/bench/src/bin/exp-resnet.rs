//! Extension — algorithm-mix profiles across network architectures.
//!
//! The paper's algorithm-selection conclusion (§VII) is evaluated on
//! YOLOv3 and VGG16. This experiment adds the ResNet-50-style model and
//! compares how much each architecture gains from the Winograd policy.
//! Although ResNet's *layer count* is 1x1-dominated, its 3x3 bottleneck
//! cores still carry most of the convolution cycles, so the policy gain
//! stays close to VGG16's; YOLOv3 trails because its stride-2 downsample
//! 3x3 layers must stay on GEMM. Algorithm selection is a property of where
//! an architecture spends its cycles, not of how many layers it has.
//! MobileNetV1 is the control: no 3x3 stride-1 convolutions at all (its
//! spatial work is depthwise), so the Winograd policy changes nothing.

use lva_bench::*;
use lva_nn::ConvAlgo;

fn main() {
    let opts = Opts::parse(4, "Algorithm-mix profile: Winograd policy gain per architecture");
    let mut table = Table::new(
        "Winograd-policy speedup by network architecture (A64FX)",
        &["model", "conv_layers", "winograd_layers", "gemm_cycles", "wino_cycles", "gain"],
    );
    let models = [ModelId::Vgg16, ModelId::Yolov3, ModelId::Resnet50, ModelId::MobilenetV1];
    let specs: Vec<(String, Experiment)> = models
        .iter()
        .flat_map(|&model| {
            let workload = Workload {
                model,
                input_hw: scaled_input(model, opts.div),
                layer_limit: opts.layers,
            };
            [
                (
                    format!("gemm_{}", model.name()),
                    Experiment::new(
                        HwTarget::A64fx,
                        ConvPolicy::gemm_only(GemmVariant::opt6()),
                        workload,
                    ),
                ),
                (
                    format!("wino_{}", model.name()),
                    Experiment::new(
                        HwTarget::A64fx,
                        ConvPolicy::winograd_default(GemmVariant::opt6()),
                        workload,
                    ),
                ),
            ]
        })
        .collect();
    let runs = run_sweep(&specs, opts.jobs, false, None, false);
    for (i, model) in models.into_iter().enumerate() {
        let gemm = &runs[2 * i].summary;
        let wino = &runs[2 * i + 1].summary;
        let convs = wino.report.layers.iter().filter(|l| l.algo.is_some()).count();
        let wcount =
            wino.report.layers.iter().filter(|l| l.algo == Some(ConvAlgo::Winograd)).count();
        table.row(vec![
            model.name().into(),
            convs.to_string(),
            wcount.to_string(),
            fmt_cycles(gemm.cycles),
            fmt_cycles(wino.cycles),
            fmt_speedup(gemm.cycles as f64 / wino.cycles as f64),
        ]);
    }
    emit(&table, "resnet_algo_mix", &opts);
}
