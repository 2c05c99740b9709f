//! Host reference forward pass, used to check the simulated output.
//!
//! Built from `lva_kernels::reference` (direct convolution, batch norm,
//! bias, activation) and `lva_tensor::host_random`, with weights
//! synthesised exactly as `Network::build` synthesises them for the same
//! seed. It covers the layer kinds of the YOLOv3 prefix the infer
//! workloads run: convolutions and shortcuts.

use lva_kernels::reference as href;
use lva_kernels::ConvParams;
use lva_nn::network::walk_shapes;
use lva_nn::LayerSpec;
use lva_tensor::{host_random, Shape};

/// Relative tolerance of the output check. Im2col+GEMM and Winograd
/// reassociate the sums of the direct convolution, and F(6,3) Winograd
/// amplifies rounding; the tolerance is the one the workspace's own
/// end-to-end network tests use for these paths.
pub const RTOL: f32 = 5e-2;
/// Absolute tolerance of the output check (see [`RTOL`]).
pub const ATOL: f32 = 5e-2;

#[derive(Debug)]
enum RefLayer {
    Conv {
        params: ConvParams,
        weights: Vec<f32>,
        bias: Vec<f32>,
        bn: Option<(Vec<f32>, Vec<f32>, Vec<f32>)>,
        activation: href::Activation,
    },
    Shortcut {
        from: usize,
        activation: href::Activation,
    },
}

/// A network's weights on the host, ready to run reference forwards.
#[derive(Debug)]
pub struct Reference {
    layers: Vec<RefLayer>,
}

/// `Network::build`'s He-style weight scaling.
fn he_scaled(n: usize, fan_in: usize, seed: u64) -> Vec<f32> {
    let s = 1.0 / (fan_in as f32).sqrt();
    host_random(n, seed).into_iter().map(|v| v * s).collect()
}

impl Reference {
    /// Synthesise the weights `Network::build(.., specs, input, .., seed)`
    /// uses. Fails on a layer kind this reference does not cover.
    pub fn new(specs: &[LayerSpec], input: Shape, seed: u64) -> Result<Self, String> {
        let shapes = walk_shapes(specs, input);
        let mut layers = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let prev = if i == 0 { input } else { shapes[i - 1] };
            let lseed = seed.wrapping_add(1 + i as u64);
            let layer = match spec {
                LayerSpec::Conv { filters, size, stride, batch_norm, activation } => {
                    let params = ConvParams {
                        in_c: prev.c,
                        in_h: prev.h,
                        in_w: prev.w,
                        out_c: *filters,
                        k: *size,
                        stride: *stride,
                        pad: size / 2,
                    };
                    let (m, _, k) = params.gemm_mnk();
                    let bn = batch_norm.then(|| {
                        let mean = host_random(*filters, lseed ^ 0x3ea);
                        let var = host_random(*filters, lseed ^ 0x7a8)
                            .into_iter()
                            .map(|v| v.abs() + 0.5)
                            .collect();
                        let scales = host_random(*filters, lseed ^ 0x5ca);
                        (mean, var, scales)
                    });
                    RefLayer::Conv {
                        params,
                        weights: he_scaled(m * k, k, lseed),
                        bias: host_random(*filters, lseed ^ 0xb1a5),
                        bn,
                        activation: *activation,
                    }
                }
                LayerSpec::Shortcut { from, activation } => {
                    // Darknet indexing: negative is relative, else absolute.
                    let from = if *from < 0 { i as isize + from } else { *from };
                    let from = usize::try_from(from)
                        .ok()
                        .filter(|&f| f < i)
                        .ok_or_else(|| format!("layer {i}: shortcut source out of range"))?;
                    RefLayer::Shortcut { from, activation: *activation }
                }
                other => {
                    return Err(format!("layer {i}: no host reference for {}", other.describe()))
                }
            };
            layers.push(layer);
        }
        Ok(Reference { layers })
    }

    /// The network's final output for `image` (CHW).
    pub fn forward(&self, image: &[f32]) -> Vec<f32> {
        let mut outs: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let prev: &[f32] = if i == 0 { image } else { &outs[i - 1] };
            let out = match layer {
                RefLayer::Conv { params, weights, bias, bn, activation } => {
                    let mut x = href::conv_direct_ref(params, prev, weights);
                    let (oh, ow) = params.out_hw();
                    let spatial = oh * ow;
                    if let Some((mean, var, scales)) = bn {
                        href::normalize_ref(&mut x, mean, var, params.out_c, spatial);
                        href::scale_bias_ref(&mut x, scales, params.out_c, spatial);
                    }
                    href::add_bias_ref(&mut x, bias, params.out_c, spatial);
                    href::activate_ref(&mut x, *activation);
                    x
                }
                RefLayer::Shortcut { from, activation } => {
                    let mut x: Vec<f32> =
                        prev.iter().zip(&outs[*from]).map(|(a, b)| a + b).collect();
                    href::activate_ref(&mut x, *activation);
                    x
                }
            };
            outs.push(out);
        }
        outs.pop().unwrap_or_else(|| image.to_vec())
    }
}
