//! Benchmark regression diffing: compare two reports of one kind
//! (`BENCH_headline.json`, `BENCH_energy.json`, `BENCH_serving.json` or
//! `BENCH_scaling.json`) under that kind's rule table.
//!
//! The simulator is deterministic, so at a pinned configuration a committed
//! baseline compares *exactly* — the tolerances exist to separate "this
//! change made layer 7 five percent slower" (a gated regression) from noise
//! introduced by intentional re-baselining at slightly different scales.
//!
//! Every gate lives in one `const` table per kind (`HEADLINE`, `ENERGY`,
//! `SERVING`, `SCALING`): the record's nested collections, how each is
//! matched, and each metric's JSON path and gate. One walker applies them.
//! A metric beyond tolerance in its bad direction is a **regression**
//! (fatal); in the good direction an **improvement** (informational — a
//! nudge to re-baseline), as is a current-only run or point. A missing
//! item or required key, a changed positional collection, and a moved
//! headline claim (an optimum, the SLO recommendation, a knee or lever)
//! are **structural** (fatal: a silently shrunken or re-shaped benchmark
//! must not pass the gate). Changing a tolerance means editing its table
//! and re-baselining in the same change.

use lva_trace::Json;
use Worse::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Beyond tolerance in the bad direction — fails the gate.
    Regression,
    /// Beyond tolerance in the good direction — informational.
    Improvement,
    /// The two reports do not have the same shape — fails the gate.
    Structural,
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub severity: Severity,
    pub message: String,
}

/// Outcome of a comparison; `is_pass` gates CI.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub findings: Vec<Finding>,
    /// Number of metric comparisons performed (a sanity floor: comparing
    /// two empty files passes every tolerance while checking nothing).
    pub compared: usize,
}

impl DiffReport {
    pub fn regressions(&self) -> usize {
        self.count(Severity::Regression)
    }

    pub fn structural(&self) -> usize {
        self.count(Severity::Structural)
    }

    pub fn is_pass(&self) -> bool {
        self.regressions() == 0 && self.structural() == 0 && self.compared > 0
    }

    fn count(&self, s: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == s).count()
    }

    fn push(&mut self, severity: Severity, message: String) {
        self.findings.push(Finding { severity, message });
    }
}

/// Which direction of drift is a regression.
#[derive(Clone, Copy, PartialEq)]
enum Worse {
    Higher,
    Lower,
}

/// How one metric is gated.
#[derive(Clone, Copy)]
enum Gate {
    /// Relative drift beyond `pct` percent. When both values are below
    /// `floor` they count as equal, so a share that is exactly zero in the
    /// baseline cannot turn numeric dust into an infinite relative delta.
    Rel { pct: f64, worse: Worse, floor: f64 },
    /// Absolute drift beyond `tol` (rates on 0..1).
    Abs { tol: f64, worse: Worse },
    /// Any change is a regression: the simulator is deterministic, so one
    /// extra event at a pinned configuration is a behavior change.
    Exact,
    /// Any change, including to or from absent, is structural: the value is
    /// a headline claim that must be re-baselined deliberately.
    Moved,
}

/// One gated metric: its `.`-separated JSON path within an item, the label
/// findings name it by, and its gate. A `required` numeric metric absent
/// from either side is structural; an optional one is skipped.
struct Metric {
    path: &'static str,
    label: &'static str,
    gate: Gate,
    required: bool,
}

/// How a nested collection's baseline items find their current twins.
#[derive(Clone, Copy)]
enum By {
    /// An array matched on a string field; a current-only item is an
    /// improvement.
    Key(&'static str),
    /// An array matched by position: the lengths and this field must agree.
    Index(&'static str),
    /// An object matched entry by entry; the entry key prefixes the labels.
    Entries,
}

/// A nested collection: the field holding it, the noun its items are
/// reported as, how they are matched, and the rules for each item.
struct Nested {
    field: &'static str,
    noun: &'static str,
    by: By,
    rules: Rules,
}

/// The rules for one item (or a whole report): its gated metrics, then its
/// nested collections, checked in that order.
struct Rules {
    metrics: &'static [Metric],
    nested: &'static [Nested],
}

const fn gate(path: &'static str, label: &'static str, gate: Gate) -> Metric {
    Metric { path, label, gate, required: true }
}

const fn rel(pct: f64, worse: Worse) -> Gate {
    Gate::Rel { pct, worse, floor: 0.0 }
}

const fn nest(
    field: &'static str,
    noun: &'static str,
    by: By,
    metrics: &'static [Metric],
    nested: &'static [Nested],
) -> Nested {
    Nested { field, noun, by, rules: Rules { metrics, nested } }
}

/// `BENCH_headline.json`: runs by name; per run total and stall cycles,
/// every cache level's hit rate, and per-layer cycles by position.
const HEADLINE: Rules = Rules {
    metrics: &[],
    nested: &[nest(
        "runs",
        "run",
        By::Key("name"),
        &[
            gate("totals.cycles", "total cycles", rel(2.0, Higher)),
            Metric { required: false, ..gate("stalls.total", "stall cycles", rel(10.0, Higher)) },
        ],
        &[
            nest("caches", "cache level", By::Entries, &[HIT_RATE], &[]),
            nest(
                "layers",
                "layer",
                By::Index("index"),
                &[gate("cycles", "cycles", rel(5.0, Higher))],
                &[],
            ),
        ],
    )],
};
const HIT_RATE: Metric = gate("hit_rate", "hit rate", Gate::Abs { tol: 0.01, worse: Lower });

/// `BENCH_energy.json`: networks by name, whose cycles- and EDP-optimal
/// design points must not move; per grid point, cycles, energy and EDP
/// (EDP compounds the cycle and energy drifts, so its gate is looser).
const ENERGY: Rules = Rules {
    metrics: &[],
    nested: &[nest(
        "networks",
        "network",
        By::Key("name"),
        &[
            gate("cycles_optimal", "cycles_optimal", Gate::Moved),
            gate("edp_optimal", "edp_optimal", Gate::Moved),
        ],
        &[nest(
            "points",
            "point",
            By::Index("name"),
            &[
                gate("cycles", "cycles", rel(2.0, Higher)),
                gate("total_j", "energy", rel(2.0, Higher)),
                gate("edp_js", "EDP", rel(4.0, Higher)),
            ],
            &[],
        )],
    )],
};

/// `BENCH_serving.json`: the SLO recommendation must not move; design
/// points by name, their load cells by position with the intensity grid
/// fixed. The median is stable, so p50 gets the tight gate; the tail sits
/// on log-bucket edges, so p99's looser gate absorbs one sub-bucket step.
const SERVING: Rules = Rules {
    metrics: &[gate("slo_recommendation.recommended.point", "slo recommendation", Gate::Moved)],
    nested: &[nest(
        "points",
        "point",
        By::Key("name"),
        &[],
        &[nest(
            "loads",
            "load",
            By::Index("intensity"),
            &[
                gate("overall.p50_ms", "p50", rel(2.0, Higher)),
                gate("overall.p99_ms", "p99", rel(5.0, Higher)),
                gate("overall.deadline_misses", "deadline misses", Gate::Exact),
            ],
            &[],
        )],
    )],
};

/// `BENCH_scaling.json`: networks and design points by name, curves by
/// sharding, whose knee and recovery lever must not move; cells by
/// position with the core ladder fixed, gating throughput (lower is worse)
/// and every stall-cause share.
const SCALING: Rules = Rules {
    metrics: &[],
    nested: &[nest(
        "networks",
        "network",
        By::Key("name"),
        &[],
        &[nest("points", "point", By::Key("name"), &[], &[SCALING_CURVES])],
    )],
};
const SCALING_CURVES: Nested = nest(
    "curves",
    "curve",
    By::Key("sharding"),
    &[
        gate("advice.knee_cores", "knee_cores", Gate::Moved),
        gate("advice.lever", "lever", Gate::Moved),
    ],
    &[nest(
        "cells",
        "cores",
        By::Index("cores"),
        &[gate("throughput_fpkc", "throughput", rel(2.0, Lower))],
        &[nest("stall_shares", "stall share", By::Entries, &[STALL_SHARE], &[])],
    )],
);
const STALL_SHARE: Metric =
    gate("", "stall share", Gate::Rel { pct: 10.0, worse: Higher, floor: 0.001 });

/// The rule table of each report kind.
const KINDS: [(&str, Rules); 4] =
    [("headline", HEADLINE), ("energy", ENERGY), ("serving", SERVING), ("scaling", SCALING)];

/// The report kinds [`compare`] has rules for.
pub fn kinds() -> impl Iterator<Item = &'static str> {
    KINDS.iter().map(|(kind, _)| *kind)
}

/// The `bench` tag of a report's top-level object, which picks the rule
/// table. Reports written before the tag existed are headline-shaped, so
/// that is the fallback.
pub fn report_kind(j: &Json) -> &str {
    j.get("bench").and_then(Json::as_str).unwrap_or("headline")
}

/// Compare two reports of one kind under that kind's rule table. A kind
/// with no table, or a current report of another kind, is structural.
pub fn compare(base: &Json, cur: &Json) -> DiffReport {
    let mut out = DiffReport::default();
    let kind = report_kind(base);
    match KINDS.iter().find(|(k, _)| *k == kind) {
        None => out.push(
            Severity::Structural,
            format!(
                "no rules for report kind \"{kind}\" (known kinds: {})",
                kinds().collect::<Vec<_>>().join(", ")
            ),
        ),
        Some(_) if report_kind(cur) != kind => out.push(
            Severity::Structural,
            format!("report kinds differ: \"{kind}\" -> \"{}\"", report_kind(cur)),
        ),
        Some((_, rules)) => walk(&mut out, rules, "", "", base, cur),
    }
    out
}

/// Gate one item pair: `at` prefixes every message, `path` names the item.
fn walk(out: &mut DiffReport, rules: &Rules, path: &str, at: &str, b: &Json, c: &Json) {
    for m in rules.metrics {
        check(out, m, at, b, c);
    }
    for n in rules.nested {
        let (bi, ci) = (items(n, b), items(n, c));
        if bi.is_empty() {
            out.push(Severity::Structural, format!("{at}baseline has no {}", n.field));
        }
        if let By::Index(key) = n.by {
            if bi.len() != ci.len() {
                let msg = format!("{at}{} count {} -> {}", n.noun, bi.len(), ci.len());
                out.push(Severity::Structural, msg);
            }
            for (i, ((id, b), (_, c))) in bi.iter().zip(&ci).enumerate() {
                if b.get(key) != c.get(key) {
                    let msg = format!("{at}{} {i}: {key} changed", n.noun);
                    out.push(Severity::Structural, msg);
                    continue;
                }
                let path = join(path, &format!("{} {id}", n.noun));
                walk(out, &n.rules, &path, &format!("{path}: "), b, c);
            }
            continue;
        }
        for (id, b) in &bi {
            match ci.iter().find(|(cid, _)| cid == id) {
                Some((_, c)) if matches!(n.by, By::Entries) => {
                    walk(out, &n.rules, path, &format!("{at}{id} "), b, c);
                }
                Some((_, c)) => {
                    let path = join(path, id);
                    walk(out, &n.rules, &path, &format!("{path}: "), b, c);
                }
                None => out.push(
                    Severity::Structural,
                    format!("{at}{} {id} missing from current report", n.noun),
                ),
            }
        }
        for (id, _) in &ci {
            if !bi.iter().any(|(bid, _)| bid == id) {
                let msg = format!("{at}{} {id} is new (not in baseline)", n.noun);
                out.push(Severity::Improvement, msg);
            }
        }
    }
}

/// Gate one metric of an item pair.
fn check(out: &mut DiffReport, m: &Metric, at: &str, b: &Json, c: &Json) {
    let label = m.label;
    let (bv, cv) = (lookup(b, m.path), lookup(c, m.path));
    if let Gate::Moved = m.gate {
        out.compared += 1;
        if bv != cv {
            out.push(
                Severity::Structural,
                format!("{at}{label} moved {} -> {}", show(bv), show(cv)),
            );
        }
        return;
    }
    let (Some(bv), Some(cv)) = (bv.and_then(Json::as_f64), cv.and_then(Json::as_f64)) else {
        if m.required {
            out.push(Severity::Structural, format!("{at}{label} missing"));
        }
        return;
    };
    out.compared += 1;
    let severity = |d: f64, worse| {
        if (d > 0.0) == (worse == Higher) {
            Severity::Regression
        } else {
            Severity::Improvement
        }
    };
    let (sev, detail) = match m.gate {
        Gate::Rel { pct, worse, floor } => {
            let d = rel_delta_pct(bv, cv);
            if bv.abs().max(cv.abs()) < floor || d.abs() <= pct {
                return;
            }
            let detail =
                format!("{} -> {} ({d:+.1}%, tol ±{pct}%)", fmt_metric(bv), fmt_metric(cv));
            (severity(d, worse), detail)
        }
        Gate::Abs { tol, worse } => {
            let d = cv - bv;
            if d.abs() <= tol {
                return;
            }
            (severity(d, worse), format!("{bv:.4} -> {cv:.4} ({d:+.4}, tol ±{tol:.4})"))
        }
        Gate::Exact if bv != cv => (
            Severity::Regression,
            format!("{bv:.0} -> {cv:.0} (exact gate: the simulator is deterministic)"),
        ),
        Gate::Exact | Gate::Moved => return,
    };
    out.push(sev, format!("{at}{label}: {detail}"));
}

/// A collection's items with their ids (the match key's value, or the
/// entry key); empty when the field is absent or of the wrong type.
fn items<'a>(n: &Nested, j: &'a Json) -> Vec<(String, &'a Json)> {
    match (n.by, j.get(n.field)) {
        (By::Entries, Some(Json::Obj(pairs))) => {
            pairs.iter().map(|(k, v)| (k.clone(), v)).collect()
        }
        (By::Key(key) | By::Index(key), Some(Json::Arr(xs))) => {
            xs.iter().map(|x| (show(x.get(key)), x)).collect()
        }
        _ => Vec::new(),
    }
}

/// The value at a `.`-separated path; the empty path is the value itself.
fn lookup<'a>(j: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').filter(|k| !k.is_empty()).try_fold(j, |j, k| j.get(k))
}

/// Render a value for a message: strings bare, anything else as JSON.
fn show(j: Option<&Json>) -> String {
    match j {
        Some(Json::Str(s)) => s.clone(),
        Some(j) => j.to_string_compact(),
        None => "<none>".to_string(),
    }
}

fn join(path: &str, segment: &str) -> String {
    if path.is_empty() {
        segment.to_string()
    } else {
        format!("{path}/{segment}")
    }
}

fn rel_delta_pct(base: f64, cur: f64) -> f64 {
    if base == 0.0 {
        if cur == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (cur - base) / base
    }
}

/// Render a metric value readably whether it is a cycle count or a
/// sub-unit float (joules, joule-seconds, shares).
fn fmt_metric(v: f64) -> String {
    if v.abs() >= 1000.0 || v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Multiply every `totals.cycles` and per-layer `cycles` in a report by
/// `1 + pct/100`. Used by `bench-diff --inject-cycles` so CI can prove the
/// gate actually trips on a synthetic slowdown.
pub fn inject_cycles(report: &mut Json, pct: f64) {
    let scale = |j: &mut Json| {
        if let Some(v) = j.as_f64() {
            *j = Json::UInt((v * (1.0 + pct / 100.0)).round() as u64);
        }
    };
    let Some(Json::Arr(runs)) = get_mut(report, "runs") else { return };
    for run in runs {
        if let Some(totals) = get_mut(run, "totals") {
            if let Some(c) = get_mut(totals, "cycles") {
                scale(c);
            }
        }
        if let Some(Json::Arr(layers)) = get_mut(run, "layers") {
            for l in layers {
                if let Some(c) = get_mut(l, "cycles") {
                    scale(c);
                }
            }
        }
    }
}

fn get_mut<'a>(j: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match j {
        Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_sim::rng::Rng;

    fn report(total: u64, layer0: u64, layer1: u64, hit: f64) -> Json {
        Json::obj().field("bench", "headline").field(
            "runs",
            Json::Arr(vec![Json::obj()
                .field("name", "rvv_tiny_opt3")
                .field("totals", Json::obj().field("cycles", total))
                .field("stalls", Json::obj().field("total", 100u64).field("attributed", 100u64))
                .field("caches", Json::obj().field("l2", Json::obj().field("hit_rate", hit)))
                .field(
                    "layers",
                    Json::Arr(vec![
                        Json::obj()
                            .field("index", 0u64)
                            .field("desc", "conv")
                            .field("cycles", layer0),
                        Json::obj()
                            .field("index", 1u64)
                            .field("desc", "pool")
                            .field("cycles", layer1),
                    ]),
                )]),
        )
    }

    #[test]
    fn identical_reports_pass() {
        let b = report(1000, 600, 400, 0.95);
        let d = compare(&b, &b);
        assert!(d.is_pass(), "{:?}", d.findings);
        assert!(d.compared >= 4);
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let b = report(1000, 600, 400, 0.95);
        let c = report(1010, 610, 395, 0.945); // 1%, 1.7%, -1.3%, -0.005
        let d = compare(&b, &c);
        assert!(d.is_pass(), "{:?}", d.findings);
    }

    #[test]
    fn layer_cycle_regression_fails() {
        let b = report(1000, 600, 400, 0.95);
        let c = report(1000, 660, 400, 0.95); // layer 0 +10% > 5%
        let d = compare(&b, &c);
        assert!(!d.is_pass());
        assert_eq!(d.regressions(), 1);
        assert!(d.findings[0].message.contains("layer 0"));
    }

    #[test]
    fn hit_rate_drop_fails_and_rise_is_improvement() {
        let b = report(1000, 600, 400, 0.95);
        let drop = report(1000, 600, 400, 0.90);
        assert_eq!(compare(&b, &drop).regressions(), 1);
        let rise = report(1000, 600, 400, 0.99);
        let d = compare(&b, &rise);
        assert!(d.is_pass(), "improvements are not fatal: {:?}", d.findings);
        assert_eq!(d.count(Severity::Improvement), 1);
    }

    #[test]
    fn missing_run_or_layer_is_structural() {
        let b = report(1000, 600, 400, 0.95);
        let empty = Json::obj().field("runs", Json::Arr(vec![]));
        let d = compare(&b, &empty);
        assert!(!d.is_pass());
        assert_eq!(d.structural(), 1);
        // Comparing nothing at all must not pass either.
        let d = compare(&empty, &empty);
        assert!(!d.is_pass());
    }

    fn energy_report(cycles: u64, total_j: f64, edp_js: f64, edp_opt: &str) -> Json {
        let point = |name: &str, c: u64, j: f64, e: f64| {
            Json::obj()
                .field("name", name)
                .field("cycles", c)
                .field("total_j", j)
                .field("edp_js", e)
        };
        Json::obj().field("bench", "energy").field(
            "networks",
            Json::Arr(vec![Json::obj()
                .field("name", "yolov3")
                .field("cycles_optimal", "8192b/256MB")
                .field("edp_optimal", edp_opt)
                .field(
                    "points",
                    Json::Arr(vec![
                        point("2048b/4MB", cycles, total_j, edp_js),
                        point("8192b/256MB", cycles / 2, total_j * 2.0, edp_js),
                    ]),
                )]),
        )
    }

    #[test]
    fn report_kind_detects_energy_and_defaults_to_headline() {
        assert_eq!(report_kind(&energy_report(1000, 0.01, 0.005, "2048b/4MB")), "energy");
        assert_eq!(report_kind(&report(1000, 600, 400, 0.95)), "headline");
        assert_eq!(report_kind(&Json::obj()), "headline");
    }

    #[test]
    fn identical_energy_reports_pass_and_drift_gates() {
        let b = energy_report(1000, 0.010, 0.005, "2048b/4MB");
        let d = compare(&b, &b);
        assert!(d.is_pass(), "{:?}", d.findings);
        assert!(d.compared >= 8);
        // +1% energy passes the 2% gate; +5% fails it (and drags EDP along
        // past its 4% gate).
        let ok = energy_report(1000, 0.0101, 0.00505, "2048b/4MB");
        assert!(compare(&b, &ok).is_pass());
        let bad = energy_report(1000, 0.0105, 0.00525, "2048b/4MB");
        let d = compare(&b, &bad);
        assert!(!d.is_pass());
        assert!(d.regressions() >= 2, "{:?}", d.findings);
        // Energy *down* is an improvement, not a failure.
        let better = energy_report(1000, 0.009, 0.0045, "2048b/4MB");
        let d = compare(&b, &better);
        assert!(d.is_pass(), "{:?}", d.findings);
        assert!(d.count(Severity::Improvement) >= 2);
    }

    #[test]
    fn moved_optimum_or_missing_point_is_structural() {
        let b = energy_report(1000, 0.010, 0.005, "2048b/4MB");
        let moved = energy_report(1000, 0.010, 0.005, "8192b/256MB");
        let d = compare(&b, &moved);
        assert!(!d.is_pass());
        assert_eq!(d.structural(), 1);
        assert!(d.findings[0].message.contains("edp_optimal moved"));
        let empty = Json::obj().field("bench", "energy").field("networks", Json::Arr(vec![]));
        assert!(!compare(&b, &empty).is_pass());
        assert!(!compare(&empty, &empty).is_pass());
    }

    fn serving_report_fixture(p99: f64, misses: u64, recommended: &str) -> Json {
        let cell = |rho: f64, p50: f64, p99: f64, misses: u64| {
            Json::obj().field("intensity", rho).field(
                "overall",
                Json::obj()
                    .field("p50_ms", p50)
                    .field("p99_ms", p99)
                    .field("deadline_misses", misses),
            )
        };
        let point = |name: &str, p99: f64, misses: u64| {
            Json::obj().field("name", name).field(
                "loads",
                Json::Arr(vec![cell(0.5, 1.0, p99 / 2.0, 0), cell(0.95, 1.2, p99, misses)]),
            )
        };
        Json::obj()
            .field("bench", "serving")
            .field(
                "slo_recommendation",
                Json::obj()
                    .field("target_p99_ms", 4.0)
                    .field("met", true)
                    .field("recommended", Json::obj().field("point", recommended)),
            )
            .field(
                "points",
                Json::Arr(vec![
                    point("sve512/1MB", p99 * 3.0, misses + 7),
                    point("a64fx", p99, misses),
                ]),
            )
    }

    #[test]
    fn report_kind_detects_serving() {
        assert_eq!(report_kind(&serving_report_fixture(3.0, 2, "a64fx")), "serving");
    }

    #[test]
    fn identical_serving_reports_pass_and_latency_drift_gates() {
        let b = serving_report_fixture(3.0, 2, "a64fx");
        let d = compare(&b, &b);
        assert!(d.is_pass(), "{:?}", d.findings);
        // 1 recommendation + 2 points × 2 loads × 3 metrics.
        assert_eq!(d.compared, 13);
        // +4% p99 passes the 5% gate; +8% fails it.
        let ok = serving_report_fixture(3.12, 2, "a64fx");
        assert!(compare(&b, &ok).is_pass());
        let bad = serving_report_fixture(3.24, 2, "a64fx");
        let d = compare(&b, &bad);
        assert!(!d.is_pass());
        assert!(d.regressions() >= 1, "{:?}", d.findings);
        // Faster tails are improvements, not failures.
        let better = serving_report_fixture(2.7, 2, "a64fx");
        let d = compare(&b, &better);
        assert!(d.is_pass(), "{:?}", d.findings);
    }

    #[test]
    fn deadline_miss_count_gates_exactly() {
        let b = serving_report_fixture(3.0, 2, "a64fx");
        let one_more = serving_report_fixture(3.0, 3, "a64fx");
        let d = compare(&b, &one_more);
        assert!(!d.is_pass(), "one extra miss must fail: {:?}", d.findings);
        assert!(d.regressions() >= 1);
        assert!(d.findings.iter().any(|f| f.message.contains("deadline misses")));
    }

    #[test]
    fn moved_recommendation_or_missing_point_is_structural() {
        let b = serving_report_fixture(3.0, 2, "a64fx");
        let moved = serving_report_fixture(3.0, 2, "sve512/1MB");
        let d = compare(&b, &moved);
        assert!(!d.is_pass());
        assert!(d.findings.iter().any(|f| f.message.contains("recommendation moved")));
        let empty = Json::obj().field("bench", "serving").field("points", Json::Arr(vec![]));
        assert!(!compare(&b, &empty).is_pass());
        assert!(!compare(&empty, &empty).is_pass());
    }

    fn scaling_report_fixture(thr8: f64, cont8: f64, knee: Option<u64>, lever: &str) -> Json {
        let cell = |cores: u64, thr: f64, cont: f64| {
            Json::obj()
                .field("cores", cores)
                .field("throughput_fpkc", thr)
                .field("stall_shares", Json::obj().field("mem", 0.2).field("contention", cont))
        };
        let mut advice = Json::obj();
        if let Some(k) = knee {
            advice = advice.field("knee_cores", k).field("lever", lever);
        }
        let curve = Json::obj()
            .field("sharding", "batch")
            .field(
                "cells",
                Json::Arr(vec![cell(1, 1.0, 0.0), cell(4, 3.2, cont8 / 2.0), cell(8, thr8, cont8)]),
            )
            .field("advice", advice);
        Json::obj().field("bench", "scaling").field(
            "networks",
            Json::Arr(vec![Json::obj().field("name", "yolov3_tiny").field(
                "points",
                Json::Arr(vec![Json::obj()
                    .field("name", "rvv2048x8/1MB")
                    .field("curves", Json::Arr(vec![curve]))]),
            )]),
        )
    }

    #[test]
    fn report_kind_detects_scaling() {
        assert_eq!(report_kind(&scaling_report_fixture(4.8, 0.3, Some(8), "grow_l2")), "scaling");
    }

    #[test]
    fn identical_scaling_reports_pass_and_throughput_drift_gates() {
        let b = scaling_report_fixture(4.8, 0.3, Some(8), "grow_l2");
        let d = compare(&b, &b);
        assert!(d.is_pass(), "{:?}", d.findings);
        // 2 advice keys + 3 cells × (1 throughput + 2 shares).
        assert_eq!(d.compared, 11);
        // -1% throughput passes the 2% gate; -5% fails it as a regression.
        let ok = scaling_report_fixture(4.752, 0.3, Some(8), "grow_l2");
        assert!(compare(&b, &ok).is_pass());
        let bad = scaling_report_fixture(4.56, 0.3, Some(8), "grow_l2");
        let d = compare(&b, &bad);
        assert!(!d.is_pass());
        assert!(d.regressions() >= 1, "{:?}", d.findings);
        // Faster is an improvement, not a failure.
        let better = scaling_report_fixture(5.2, 0.3, Some(8), "grow_l2");
        let d = compare(&b, &better);
        assert!(d.is_pass(), "{:?}", d.findings);
        assert!(d.count(Severity::Improvement) >= 1);
    }

    #[test]
    fn grown_stall_share_gates_and_zero_shares_do_not_blow_up() {
        let b = scaling_report_fixture(4.8, 0.3, Some(8), "grow_l2");
        // Contention share +20% relative fails the 10% gate; the 1-core
        // cell's exactly-zero share on both sides never trips.
        let worse = scaling_report_fixture(4.8, 0.36, Some(8), "grow_l2");
        let d = compare(&b, &worse);
        assert!(!d.is_pass());
        assert!(d.findings.iter().any(|f| f.message.contains("contention stall share")));
    }

    #[test]
    fn moved_knee_or_lever_is_structural() {
        let b = scaling_report_fixture(4.8, 0.3, Some(8), "grow_l2");
        let moved = scaling_report_fixture(4.8, 0.3, Some(4), "grow_l2");
        let d = compare(&b, &moved);
        assert!(!d.is_pass());
        assert!(d.findings.iter().any(|f| f.message.contains("knee_cores moved")));
        let relever = scaling_report_fixture(4.8, 0.3, Some(8), "fewer_cores");
        let d = compare(&b, &relever);
        assert!(!d.is_pass());
        assert!(d.findings.iter().any(|f| f.message.contains("lever moved")));
        let empty = Json::obj().field("bench", "scaling").field("networks", Json::Arr(vec![]));
        assert!(!compare(&b, &empty).is_pass());
        assert!(!compare(&empty, &empty).is_pass());
    }

    #[test]
    fn injected_slowdown_trips_the_gate() {
        let b = report(100_000, 60_000, 40_000, 0.95);
        let mut c = b.clone();
        inject_cycles(&mut c, 6.0);
        let d = compare(&b, &c);
        assert!(!d.is_pass(), "a 6% injected slowdown must fail the default gate");
        // Layers (5% tol) and total (2% tol) all regress.
        assert_eq!(d.regressions(), 3);
    }

    #[test]
    fn unknown_report_kind_has_no_rules() {
        let whatif = Json::obj().field("bench", "whatif").field("runs", Json::Arr(vec![]));
        assert!(!kinds().any(|k| k == "whatif"));
        let d = compare(&whatif, &whatif);
        assert!(!d.is_pass());
        assert_eq!(d.structural(), 1);
        assert!(d.findings[0].message.contains("known kinds: headline, energy, serving, scaling"));
    }

    /// Pre-order walk with each value's key path (array indices dropped);
    /// stops as soon as `f` returns true.
    fn visit(
        j: &mut Json,
        path: &mut Vec<String>,
        f: &mut dyn FnMut(&mut Json, &[String]) -> bool,
    ) -> bool {
        if f(j, path) {
            return true;
        }
        match j {
            Json::Obj(pairs) => pairs.iter_mut().any(|(k, v)| {
                path.push(k.clone());
                let hit = visit(v, path, f);
                path.pop();
                hit
            }),
            Json::Arr(xs) => xs.iter_mut().any(|v| visit(v, path, f)),
            _ => false,
        }
    }

    /// Apply mutation `op` to a uniformly chosen value it fits: 0 deletes
    /// a key, 1 turns a number into a string or null, 2 empties an array.
    /// Returns the mutated value's key path (for a deleted key, the key's).
    fn mutate(j: &mut Json, op: usize, rng: &mut Rng) -> Option<Vec<String>> {
        let fits = |v: &Json| match (op, v) {
            (0, Json::Obj(pairs)) => !pairs.is_empty(),
            (1, v) => v.as_f64().is_some(),
            (2, Json::Arr(xs)) => !xs.is_empty(),
            _ => false,
        };
        let mut n = 0;
        visit(j, &mut Vec::new(), &mut |v, _| {
            n += usize::from(fits(v));
            false
        });
        if n == 0 {
            return None;
        }
        let (mut k, coin) = (rng.gen_index(0, n), rng.gen_index(0, 1 << 20));
        let mut hit = None;
        visit(j, &mut Vec::new(), &mut |v, path| {
            if !fits(v) || k > 0 {
                k -= usize::from(fits(v));
                return false;
            }
            let mut p = path.to_vec();
            match v {
                Json::Obj(pairs) => p.push(pairs.remove(coin % pairs.len()).0),
                Json::Arr(xs) => xs.clear(),
                _ => *v = if coin % 2 == 0 { Json::Null } else { Json::from("fuzz") },
            }
            hit = Some(p);
            true
        });
        hit
    }

    /// Every key path a table reads as required: collection fields, match
    /// keys, and each prefix of a required metric's path (`*` = any entry).
    fn required(rules: &Rules, prefix: &[&'static str], out: &mut Vec<Vec<&'static str>>) {
        for m in rules.metrics.iter().filter(|m| m.required) {
            let mut p = prefix.to_vec();
            for seg in m.path.split('.').filter(|s| !s.is_empty()) {
                p.push(seg);
                out.push(p.clone());
            }
        }
        for n in rules.nested {
            let mut p = prefix.to_vec();
            p.push(n.field);
            out.push(p.clone());
            match n.by {
                By::Key(key) | By::Index(key) => out.push([p.as_slice(), &[key]].concat()),
                By::Entries => p.push("*"),
            }
            required(&n.rules, &p, out);
        }
    }

    #[test]
    fn mutated_baselines_never_panic_and_lost_required_keys_fail() {
        let texts = [
            include_str!("../../../results/baseline_headline.json"),
            include_str!("../../../results/baseline_energy.json"),
            include_str!("../../../results/baseline_serving.json"),
            include_str!("../../../results/baseline_scaling.json"),
        ];
        let mut rng = Rng::new(0x5eed_d1ff);
        for (text, (_, rules)) in texts.iter().zip(&KINDS) {
            let orig = Json::parse(text).expect("committed baseline parses");
            let mut req = Vec::new();
            required(rules, &[], &mut req);
            for _ in 0..60 {
                let mut cut = rng.gen_index(0, text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                if let Ok(j) = Json::parse(&text[..cut]) {
                    compare(&orig, &j);
                }
                let mut m = orig.clone();
                let op = rng.gen_index(0, 3);
                let Some(path) = mutate(&mut m, op, &mut rng) else { continue };
                let lost = req.iter().any(|r| {
                    r.len() == path.len() && r.iter().zip(&path).all(|(r, p)| *r == "*" || r == p)
                });
                for d in [compare(&orig, &m), compare(&m, &orig)] {
                    assert!(
                        !lost || !d.is_pass(),
                        "lost required {path:?} passed: {:?}",
                        d.findings
                    );
                }
            }
        }
    }
}
