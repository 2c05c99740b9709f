//! End-to-end and per-layer benchmark of the longvec-cnn simulator.
//!
//! The benchmark measures two clocks. *Host* time is what the simulator
//! itself costs to run; *simulated* cycles are what the modelled design
//! would take. Each workload runs in one process on one thread and is
//! measured from outside, by timing calls into the public API of the
//! workspace crates (`lva-nn`, `lva-core`, `lva-retime`). Counts come from
//! the returned `NetReport`, `VpuStats` and `MemSystemStats`.
//!
//! A run either measures the end-to-end metrics (`--trace 0`) or, as a
//! separate run, the per-layer metrics (`--trace 1`). The traced run also
//! installs `lva_trace::enable_to_memory()` to collect the `network`,
//! `layer` and kernel-phase spans the simulator already emits.
//!
//! See `README.md` next to this crate for the metric definitions and the
//! map from each per-layer metric to the end-to-end metric it should move.

#![forbid(unsafe_code)]

pub mod dse;
pub mod infer;
pub mod reference;
pub mod spans;
pub mod stats;

use std::fmt::Write as _;

/// The end-to-end metrics of the result line under `--trace 0`: the ones
/// that repeat from run to run closely enough to carry a relative bound.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MiB"), ("sim_cycles", "cycles")];

/// End-to-end host-time metrics, printed in the `--trace 0` table with
/// their sample counts but kept out of the result line: on a shared host
/// their run-to-run spread is wider than any bound the result line may
/// carry. `failed_ratio` is printed with them; the result line carries it
/// as `failed / attempted`.
pub const HOST_TIME: &[(&str, &str)] = &[("total_s", "s"), ("ops_per_s", "1/s"), ("op_s_p50", "s")];

/// The per-layer metrics, reported by every workload under `--trace 1`.
/// A metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nn.build_s", "s"),
    ("nn.run_s", "s"),
    ("nn.conv3x3_host_share", "ratio"),
    ("nn.layer_self_share", "ratio"),
    ("kernels.gemm_host_s", "s"),
    ("kernels.pack_host_s", "s"),
    ("kernels.im2col_host_s", "s"),
    ("kernels.epilogue_host_s", "s"),
    ("kernels.gemm_sim_cycles", "cycles"),
    ("kernels.im2col_sim_cycles", "cycles"),
    ("winograd.input_t_host_s", "s"),
    ("winograd.tuple_mul_host_s", "s"),
    ("winograd.output_t_host_s", "s"),
    ("winograd.weight_t_host_s", "s"),
    ("winograd.sim_cycles", "cycles"),
    ("isa.vec_instrs", "count"),
    ("isa.vec_mem_instrs", "count"),
    ("isa.scalar_ops", "count"),
    ("isa.avg_vlen_bits", "bits"),
    ("isa.host_ns_per_vec_instr", "ns"),
    ("isa.stall.raw_hazard", "cycles"),
    ("isa.stall.vector_startup", "cycles"),
    ("isa.stall.mem_latency", "cycles"),
    ("isa.stall.lane_occupancy", "cycles"),
    ("isa.stall.issue_width", "cycles"),
    ("sim.l1_accesses", "count"),
    ("sim.l1_miss_rate", "ratio"),
    ("sim.l2_accesses", "count"),
    ("sim.l2_miss_rate", "ratio"),
    ("sim.vcache_accesses", "count"),
    ("sim.dram_lines", "count"),
    ("sim.hwpf_issued", "count"),
    ("sim.prefetch_accuracy", "ratio"),
    ("sim.host_ns_per_access", "ns"),
    ("core.full_run_s", "s"),
    ("core.capture_overhead", "ratio"),
    ("core.capture_mb", "MiB"),
    ("retime.gate_s", "s"),
    ("retime.captures", "count"),
    ("retime.live_replays", "count"),
    ("retime.tape_refits", "count"),
    ("retime.run_memo_hits", "count"),
    ("retime.refused", "count"),
    ("retime.capture_op_s", "s"),
    ("retime.live_replay_op_s", "s"),
    ("retime.tape_refit_op_s", "s"),
    ("retime.layer_memo_hit_ratio", "ratio"),
    ("retime.layer_memo_lookups", "count"),
    ("retime.store_mb", "MiB"),
    ("retime.cold_speedup", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The workloads `--workload` accepts.
pub const WORKLOADS: &[&str] = &["gemm_a64fx", "wino_sve2048", "dse_sweep"];

/// Every metric this crate reports, in print order.
fn catalogue() -> impl Iterator<Item = &'static (&'static str, &'static str)> {
    END_TO_END.iter().chain(HOST_TIME).chain(PER_LAYER)
}

/// One measured value, with how many samples it summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: simulated frames on the infer workloads,
    /// evaluated design points on `dse_sweep`.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Why the run is not correct: each failed operation, and any metric
    /// that could not be measured (the first few are printed).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Host seconds of every timed operation, in order.
    pub op_secs: Vec<f64>,
    /// The benchmark's own spans around its calls into the simulator.
    pub spans: spans::Recorder,
    /// The simulator's spans, one summary per traced network run.
    pub program: Vec<spans::NetworkSpans>,
}

impl Outcome {
    pub(crate) fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(!self.metrics.iter().any(|m| m.name == name), "{name} reported twice");
        debug_assert!(catalogue().any(|(n, _)| *n == name), "{name} is not catalogued");
        self.metrics.push(Metric { name, value, samples });
    }

    pub(crate) fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// A run is correct when it attempted work, no operation failed, every
    /// metric of `catalogue` was measured and every measurement is a finite
    /// number.
    pub fn correct(&self, catalogue: &[(&str, &str)]) -> bool {
        self.attempted > 0
            && self.failed == 0
            && catalogue.iter().all(|(n, _)| self.get(n).is_some())
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable summary: one line per measured metric, with its unit
    /// and sample count, then the failed ratio and the first failures.
    pub fn summary(&self, workload: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "workload {workload}");
        let mut line = |name: &str, value: f64, unit: &str, n: usize| {
            let _ = writeln!(s, "  {name:<30} {value:>18.6} {unit:<6} n={n}");
        };
        for (name, unit) in catalogue() {
            if let Some(m) = self.metrics.iter().find(|m| m.name == *name) {
                line(name, m.value, unit, m.samples);
            }
        }
        if let Some((label, v)) = stats::tail(&self.op_secs) {
            line(&format!("op_s_{label}"), v, "s", self.op_secs.len());
        }
        line("failed_ratio", self.failed_ratio(), "ratio", self.attempted as usize);
        for f in self.failures.iter().take(5) {
            let _ = writeln!(s, "  FAILED: {f}");
        }
        s
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics of `catalogue`, each with its unit.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> String {
        let mut s = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct(catalogue),
            self.attempted,
            self.failed
        );
        let mut first = true;
        for (name, unit) in catalogue {
            let Some(v) = self.get(name).filter(|v| v.is_finite()) else { continue };
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(s, r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#);
        }
        s.push_str("}}");
        s
    }
}

/// Push the end-to-end metrics of a run whose set-ups took `setup_s` and
/// whose timed ops took `op_secs`; the first `counted` ops form the counted
/// window and took `counted_cycles` simulated cycles.
pub(crate) fn push_end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    op_secs: &[f64],
    counted: usize,
    counted_cycles: u64,
) {
    let setup = stats::median(setup_s);
    out.push("setup_s", setup, setup_s.len());
    out.push("total_s", setup + op_secs[..counted].iter().sum::<f64>(), counted);
    out.push("ops_per_s", op_secs.len() as f64 / op_secs.iter().sum::<f64>(), op_secs.len());
    out.push("op_s_p50", stats::median(op_secs), op_secs.len());
    match peak_rss_mib() {
        Ok(mib) => out.push("peak_rss_mb", mib, 1),
        Err(why) => out.failures.push(why),
    }
    out.push("sim_cycles", counted_cycles as f64, counted);
}

/// The `VmHWM` (peak resident set) of this process in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Run one workload by name.
pub fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match name {
        "gemm_a64fx" => Ok(infer::run(&infer::InferSpec::gemm_a64fx(), seed, seconds, trace)),
        "wino_sve2048" => Ok(infer::run(&infer::InferSpec::wino_sve2048(), seed, seconds, trace)),
        "dse_sweep" => Ok(dse::run(&dse::DseSpec::dse_sweep(), seed, seconds, trace)),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}
