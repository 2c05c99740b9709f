//! Darknet `.cfg` parsing and serialization.
//!
//! The paper's models come from Darknet configuration files. This module
//! parses the subset of the format the studied networks use — so users can
//! load their own Darknet-style network definitions into the simulator —
//! and serializes [`LayerSpec`] tables back to `.cfg` text (round-trip
//! tested against the built-in model tables).
//!
//! Supported sections: `[net]`, `[convolutional]`, `[maxpool]`, `[route]`,
//! `[shortcut]`, `[upsample]`, `[yolo]`, `[connected]`, `[softmax]`,
//! `[dropout]`, `[cost]`. Keys irrelevant to the kernel study (anchors,
//! learning rates, …) are accepted and ignored.

use crate::layer::LayerSpec;
use crate::network::{check_shapes, MAX_TENSOR_ELEMS};
use lva_kernels::aux::Activation;
use lva_tensor::Shape;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A parse failure, with the (1-based) line where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for CfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cfg parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CfgError {}

fn err(line: usize, message: impl Into<String>) -> CfgError {
    CfgError { line, message: message.into() }
}

struct Section {
    name: String,
    line: usize,
    options: HashMap<String, String>,
}

impl Section {
    fn get_usize(&self, key: &str, default: usize) -> Result<usize, CfgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| err(self.line, format!("bad integer for `{key}`: {v}")))
            }
        }
    }

    fn activation(&self) -> Result<Activation, CfgError> {
        match self.options.get("activation").map(String::as_str) {
            None | Some("linear") => Ok(Activation::Linear),
            Some("leaky") => Ok(Activation::Leaky),
            Some("relu") => Ok(Activation::Relu),
            Some(other) => Err(err(self.line, format!("unsupported activation `{other}`"))),
        }
    }

    fn int_list(&self, key: &str) -> Result<Vec<isize>, CfgError> {
        let raw =
            self.options.get(key).ok_or_else(|| err(self.line, format!("missing `{key}`")))?;
        raw.split(',')
            .map(|s| {
                s.trim().parse().map_err(|_| err(self.line, format!("bad integer in `{key}`: {s}")))
            })
            .collect()
    }
}

fn lex(text: &str) -> Result<Vec<Section>, CfgError> {
    let mut sections: Vec<Section> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name =
                name.strip_suffix(']').ok_or_else(|| err(lineno, "unterminated section header"))?;
            sections.push(Section {
                name: name.trim().to_string(),
                line: lineno,
                options: HashMap::new(),
            });
        } else if let Some((k, v)) = line.split_once('=') {
            let section =
                sections.last_mut().ok_or_else(|| err(lineno, "option before any [section]"))?;
            section.options.insert(k.trim().to_string(), v.trim().to_string());
        } else {
            return Err(err(lineno, format!("expected `key=value` or `[section]`, got `{line}`")));
        }
    }
    Ok(sections)
}

/// Parse a Darknet-style cfg into a layer table and the input shape.
///
/// # Errors
/// Returns a [`CfgError`] naming the offending line for syntax errors,
/// unknown sections, unsupported options, an empty input, or a layer
/// table [`check_shapes`] rejects (zero sizes or strides, references to
/// missing layers, mismatched shapes); a layer's line is its section
/// header.
pub fn parse_cfg(text: &str) -> Result<(Vec<LayerSpec>, Shape), CfgError> {
    let sections = lex(text)?;
    let mut iter = sections.into_iter();
    let net = iter.next().ok_or_else(|| err(1, "empty cfg"))?;
    if net.name != "net" && net.name != "network" {
        return Err(err(net.line, "first section must be [net]"));
    }
    let h = net.get_usize("height", 416)?;
    let w = net.get_usize("width", h)?;
    let c = net.get_usize("channels", 3)?;
    if !(1..=MAX_TENSOR_ELEMS).contains(&h.saturating_mul(w).saturating_mul(c)) {
        return Err(err(net.line, format!("input {c}x{h}x{w} is empty or too large")));
    }
    let mut layers = Vec::new();
    let mut lines = Vec::new();
    for s in iter {
        let spec = match s.name.as_str() {
            "convolutional" | "conv" => {
                let filters = s.get_usize("filters", 1)?;
                let size = s.get_usize("size", 1)?;
                LayerSpec::Conv {
                    filters,
                    size,
                    stride: s.get_usize("stride", 1)?,
                    batch_norm: s.get_usize("batch_normalize", 0)? != 0,
                    activation: s.activation()?,
                }
            }
            "depthwise_convolutional" => LayerSpec::Depthwise {
                size: s.get_usize("size", 3)?,
                stride: s.get_usize("stride", 1)?,
                batch_norm: s.get_usize("batch_normalize", 0)? != 0,
                activation: s.activation()?,
            },
            "maxpool" => {
                let size = s.get_usize("size", 2)?;
                LayerSpec::Maxpool { size, stride: s.get_usize("stride", size)? }
            }
            "upsample" => {
                let stride = s.get_usize("stride", 2)?;
                if stride != 2 {
                    return Err(err(s.line, "only stride-2 upsample is supported"));
                }
                LayerSpec::Upsample
            }
            "route" => LayerSpec::Route { layers: s.int_list("layers")? },
            "shortcut" => {
                let from = s.int_list("from")?;
                if from.len() != 1 {
                    return Err(err(s.line, "shortcut takes exactly one `from` layer"));
                }
                LayerSpec::Shortcut { from: from[0], activation: s.activation()? }
            }
            "yolo" | "region" | "detection" => LayerSpec::Yolo,
            "connected" => LayerSpec::Connected {
                outputs: s.get_usize("output", 1)?,
                activation: s.activation()?,
            },
            "softmax" => LayerSpec::Softmax,
            "avgpool" => LayerSpec::Avgpool,
            "dropout" => LayerSpec::Dropout,
            "cost" => LayerSpec::Cost,
            other => return Err(err(s.line, format!("unsupported section [{other}]"))),
        };
        layers.push(spec);
        lines.push(s.line);
    }
    if layers.is_empty() {
        return Err(err(net.line, "cfg defines no layers"));
    }
    let input = Shape::new(c, h, w);
    check_shapes(&layers, input).map_err(|e| err(lines[e.layer], e.message))?;
    Ok((layers, input))
}

/// Serialize a layer table to Darknet cfg text (inverse of [`parse_cfg`]).
pub fn to_cfg(specs: &[LayerSpec], input: Shape) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "[net]");
    let _ = writeln!(out, "height={}", input.h);
    let _ = writeln!(out, "width={}", input.w);
    let _ = writeln!(out, "channels={}", input.c);
    for spec in specs {
        let _ = writeln!(out);
        match spec {
            LayerSpec::Conv { filters, size, stride, batch_norm, activation } => {
                let _ = writeln!(out, "[convolutional]");
                if *batch_norm {
                    let _ = writeln!(out, "batch_normalize=1");
                }
                let _ = writeln!(out, "filters={filters}");
                let _ = writeln!(out, "size={size}");
                let _ = writeln!(out, "stride={stride}");
                let _ = writeln!(out, "pad=1");
                let act = match activation {
                    Activation::Linear => "linear",
                    Activation::Leaky => "leaky",
                    Activation::Relu => "relu",
                };
                let _ = writeln!(out, "activation={act}");
            }
            LayerSpec::Depthwise { size, stride, batch_norm, activation } => {
                let _ = writeln!(out, "[depthwise_convolutional]");
                if *batch_norm {
                    let _ = writeln!(out, "batch_normalize=1");
                }
                let _ = writeln!(out, "size={size}");
                let _ = writeln!(out, "stride={stride}");
                let act = match activation {
                    Activation::Linear => "linear",
                    Activation::Leaky => "leaky",
                    Activation::Relu => "relu",
                };
                let _ = writeln!(out, "activation={act}");
            }
            LayerSpec::Maxpool { size, stride } => {
                let _ = writeln!(out, "[maxpool]");
                let _ = writeln!(out, "size={size}");
                let _ = writeln!(out, "stride={stride}");
            }
            LayerSpec::Upsample => {
                let _ = writeln!(out, "[upsample]");
                let _ = writeln!(out, "stride=2");
            }
            LayerSpec::Route { layers } => {
                let _ = writeln!(out, "[route]");
                let list: Vec<String> =
                    layers.iter().map(std::string::ToString::to_string).collect();
                let _ = writeln!(out, "layers={}", list.join(","));
            }
            LayerSpec::Shortcut { from, activation } => {
                let _ = writeln!(out, "[shortcut]");
                let _ = writeln!(out, "from={from}");
                let act = match activation {
                    Activation::Linear => "linear",
                    Activation::Leaky => "leaky",
                    Activation::Relu => "relu",
                };
                let _ = writeln!(out, "activation={act}");
            }
            LayerSpec::Yolo => {
                let _ = writeln!(out, "[yolo]");
            }
            LayerSpec::Connected { outputs, activation } => {
                let _ = writeln!(out, "[connected]");
                let _ = writeln!(out, "output={outputs}");
                let act = match activation {
                    Activation::Linear => "linear",
                    Activation::Leaky => "leaky",
                    Activation::Relu => "relu",
                };
                let _ = writeln!(out, "activation={act}");
            }
            LayerSpec::Softmax => {
                let _ = writeln!(out, "[softmax]");
            }
            LayerSpec::Avgpool => {
                let _ = writeln!(out, "[avgpool]");
            }
            LayerSpec::Dropout => {
                let _ = writeln!(out, "[dropout]");
                let _ = writeln!(out, "probability=.5");
            }
            LayerSpec::Cost => {
                let _ = writeln!(out, "[cost]");
            }
        }
    }
    out
}

/// The built-in models as shipped `.cfg` text (generated by [`to_cfg`],
/// parseable by stock Darknet-style tooling and by [`parse_cfg`]).
pub mod bundled {
    /// `yolov3.cfg` at the 608x608 network input.
    pub const YOLOV3: &str = include_str!("../cfg/yolov3.cfg");
    /// `yolov3-tiny.cfg` at 416x416.
    pub const YOLOV3_TINY: &str = include_str!("../cfg/yolov3-tiny.cfg");
    /// `vgg-16.cfg` at 224x224.
    pub const VGG16: &str = include_str!("../cfg/vgg16.cfg");
    /// The ResNet-50-style extension model at 224x224.
    pub const RESNET50: &str = include_str!("../cfg/resnet50.cfg");
    /// MobileNetV1 at 224x224.
    pub const MOBILENET_V1: &str = include_str!("../cfg/mobilenet-v1.cfg");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{resnet50, vgg16, yolov3, yolov3_tiny};
    use lva_kernels::aux::Activation;
    use lva_sim::Rng;

    #[test]
    fn roundtrip_all_builtin_models() {
        for (specs, shape) in [yolov3(608), yolov3_tiny(416), vgg16(224)] {
            let text = to_cfg(&specs, shape);
            let (parsed, pshape) = parse_cfg(&text).expect("roundtrip parse");
            assert_eq!(parsed, specs);
            assert_eq!(pshape, shape);
        }
    }

    #[test]
    fn parses_minimal_cfg_with_comments_and_defaults() {
        let text = "
# a tiny network
[net]
height=64
width=64
channels=3

[convolutional]
batch_normalize=1
filters=16
size=3
stride=1
pad=1          # ignored: pad is size/2 by convention
activation=leaky

[maxpool]
size=2
stride=2
";
        let (specs, shape) = parse_cfg(text).unwrap();
        assert_eq!(shape, Shape::new(3, 64, 64));
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0], LayerSpec::conv(16, 3, 1));
        assert_eq!(specs[1], LayerSpec::Maxpool { size: 2, stride: 2 });
    }

    #[test]
    fn maxpool_stride_defaults_to_size() {
        let (specs, _) = parse_cfg("[net]\nheight=32\nwidth=32\n[maxpool]\nsize=2\n").unwrap();
        assert_eq!(specs[0], LayerSpec::Maxpool { size: 2, stride: 2 });
    }

    #[test]
    fn route_lists_parse() {
        let text = "[net]\nheight=32\nwidth=32\n[convolutional]\nfilters=4\nsize=1\n[route]\nlayers=-1, 0\n";
        let (specs, _) = parse_cfg(text).unwrap();
        assert_eq!(specs[1], LayerSpec::Route { layers: vec![-1, 0] });
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_cfg("[net]\nheight=32\n[warp]\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("warp"));
        let e = parse_cfg("height=3\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_cfg("[net]\nheight=x\n[maxpool]\n").unwrap_err();
        assert!(e.message.contains("height") || e.message.contains("bad integer"));
        // Tables that parse but cannot run: the error names the section.
        const ONE_CONV: &str = "[net]\nheight=32\nwidth=32\n[convolutional]\nfilters=4\nsize=1\n";
        for (text, line, what) in [
            (format!("{ONE_CONV}[route]\nlayers=-9\n"), 7, "-9 out of range"),
            (
                format!("{ONE_CONV}[convolutional]\nfilters=8\nsize=1\n[shortcut]\nfrom=-2\n"),
                10,
                "shortcut shape mismatch",
            ),
            ("[net]\nheight=32\n[convolutional]\nsize=3\nstride=0\n".into(), 3, "stride"),
            ("[net]\nheight=32\n[maxpool]\nsize=0\nstride=0\n".into(), 3, "size"),
            ("[net]\nheight=0\nwidth=32\n[maxpool]\n".into(), 1, "empty"),
        ] {
            let e = parse_cfg(&text).expect_err(&text);
            assert_eq!(e.line, line, "{text}: {e}");
            assert!(e.message.contains(what), "{text}: {e}");
        }
    }

    #[test]
    fn unterminated_section_rejected() {
        let e = parse_cfg("[net\n").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn unknown_activation_rejected() {
        let text =
            "[net]\nheight=32\nwidth=32\n[convolutional]\nfilters=1\nsize=1\nactivation=mish\n";
        let e = parse_cfg(text).unwrap_err();
        assert!(e.message.contains("mish"));
    }

    #[test]
    fn bundled_cfgs_match_builtin_models() {
        for (text, want) in [
            (bundled::YOLOV3, yolov3(608)),
            (bundled::MOBILENET_V1, crate::models::mobilenet_v1(224)),
            (bundled::YOLOV3_TINY, yolov3_tiny(416)),
            (bundled::VGG16, vgg16(224)),
            (bundled::RESNET50, resnet50(224)),
        ] {
            let (specs, shape) = parse_cfg(text).expect("bundled cfg parses");
            assert_eq!(specs, want.0);
            assert_eq!(shape, want.1);
        }
    }

    /// Draw one random layer spec (used by the randomized round-trip test).
    fn arb_spec(rng: &mut Rng) -> LayerSpec {
        match rng.gen_index(0, 11) {
            0 => LayerSpec::Conv {
                filters: rng.gen_index(1, 64),
                size: 2 * rng.gen_index(1, 4) - 1,
                stride: rng.gen_index(1, 3),
                batch_norm: rng.gen_bool(0.5),
                activation: [Activation::Linear, Activation::Leaky, Activation::Relu]
                    [rng.gen_index(0, 3)],
            },
            1 => LayerSpec::Maxpool { size: rng.gen_index(2, 4), stride: rng.gen_index(1, 3) },
            2 => LayerSpec::Upsample,
            3 => LayerSpec::Yolo,
            4 => LayerSpec::Depthwise {
                size: 3,
                stride: rng.gen_index(1, 3),
                batch_norm: rng.gen_bool(0.5),
                activation: Activation::Relu,
            },
            5 => LayerSpec::Avgpool,
            6 => LayerSpec::Dropout,
            7 => LayerSpec::Connected {
                outputs: rng.gen_index(1, 2000),
                activation: Activation::Relu,
            },
            8 => LayerSpec::Softmax,
            9 => LayerSpec::Shortcut {
                from: -(rng.gen_index(1, 5) as isize),
                activation: [Activation::Linear, Activation::Relu][rng.gen_index(0, 2)],
            },
            _ => LayerSpec::Route {
                layers: (0..rng.gen_index(1, 3)).map(|_| -(rng.gen_index(1, 8) as isize)).collect(),
            },
        }
    }

    /// Random well-formed layer tables round-trip through serialize/parse.
    /// A drawn layer that [`check_shapes`] rejects after the layers before
    /// it (a dangling route, a mismatched shortcut) is drawn again.
    #[test]
    fn cfg_roundtrip_is_identity() {
        let mut rng = Rng::new(0xcf6);
        for _ in 0..64 {
            let shape =
                Shape::new(rng.gen_index(1, 8), rng.gen_index(1, 512), rng.gen_index(1, 512));
            let n = rng.gen_index(1, 24);
            let mut specs: Vec<LayerSpec> = Vec::new();
            while specs.len() < n {
                specs.push(arb_spec(&mut rng));
                if check_shapes(&specs, shape).is_err() {
                    specs.pop();
                }
            }
            let text = to_cfg(&specs, shape);
            let (parsed, pshape) = parse_cfg(&text).expect("roundtrip");
            assert_eq!(parsed, specs);
            assert_eq!(pshape, shape);
        }
    }

    /// Seeded mutations of the bundled cfgs (a value replaced, a line
    /// dropped or repeated) either fail to parse or yield a table whose
    /// shape walk succeeds: nothing that parses panics downstream.
    #[test]
    fn mutated_bundled_cfgs_parse_only_into_runnable_tables() {
        const VALUES: [&str; 12] =
            ["-9", "-2", "-1", "0", "1", "2", "3", "7", "1024", "99999999999", "x", ""];
        let mut rng = Rng::new(0xbad_cf6);
        let (mut ok, mut rejected) = (0, 0);
        for text in [
            bundled::YOLOV3,
            bundled::YOLOV3_TINY,
            bundled::VGG16,
            bundled::RESNET50,
            bundled::MOBILENET_V1,
        ] {
            let lines: Vec<&str> = text.lines().collect();
            for _ in 0..200 {
                let mut mutated: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
                for _ in 0..rng.gen_index(1, 4) {
                    let at = rng.gen_index(0, mutated.len());
                    match rng.gen_index(0, 4) {
                        0 => {
                            mutated.remove(at);
                        }
                        1 => mutated.insert(at, mutated[at].clone()),
                        _ => {
                            if let Some((k, _)) = mutated[at].split_once('=') {
                                let v = VALUES[rng.gen_index(0, VALUES.len())];
                                mutated[at] = format!("{k}={v}");
                            }
                        }
                    }
                }
                match parse_cfg(&mutated.join("\n")) {
                    Ok((specs, shape)) => {
                        crate::network::walk_shapes(&specs, shape);
                        ok += 1;
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(ok > 100 && rejected > 100, "{ok} parsed, {rejected} rejected");
    }

    #[test]
    fn parsed_yolov3_runs_shape_walk() {
        // The serialized-then-parsed model must produce the same shapes.
        let (specs, shape) = yolov3(96);
        let (parsed, pshape) = parse_cfg(&to_cfg(&specs, shape)).unwrap();
        let a = crate::network::walk_shapes(&specs, shape);
        let b = crate::network::walk_shapes(&parsed, pshape);
        assert_eq!(a, b);
    }
}
