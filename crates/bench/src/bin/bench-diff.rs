//! Compare two benchmark reports under the rule tables in
//! `lva_bench::diff` and exit nonzero on regression.
//!
//! ```text
//! bench-diff BASELINE.json CURRENT.json [--inject-cycles PCT]
//! ```
//!
//! The report kind is autodetected from the top-level `"bench"` tag
//! (untagged reports are headline-shaped) and picks the rule table:
//! `headline` (run/layer/cache), `energy` (per-point energy/EDP, moved
//! optima), `serving` (per-cell latency, exact deadline misses, moved SLO
//! recommendation) or `scaling` (per-cell throughput and stall shares,
//! moved knee/lever). Both inputs must be the same kind.
//!
//! `--inject-cycles PCT` scales the *current* headline report's total and
//! per-layer cycle counts by `1 + PCT/100` before comparing. CI uses it to
//! prove the gate trips: after a passing real comparison, a 6% injected
//! slowdown must make this binary exit 1. (Headline reports only.)
//!
//! Exit codes: 0 = within tolerance, 1 = regression or structural mismatch,
//! 2 = usage / unreadable / unparseable / unknown-kind / mismatched-kind
//! input.

use lva_bench::diff::{compare, inject_cycles, kinds, report_kind, Severity};
use lva_trace::Json;

fn fail(msg: &str) -> ! {
    eprintln!("bench-diff: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    fail(
        "usage: bench-diff BASELINE.json CURRENT.json [--inject-cycles PCT]\n  --inject-cycles PCT scale CURRENT cycles up by PCT% first (gate\n                      self-test; headline reports only)",
    )
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")))
}

fn main() {
    let mut inject: Option<f64> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--inject-cycles" => {
                let pct = args.next().and_then(|v| v.parse().ok());
                inject = Some(pct.unwrap_or_else(|| fail("--inject-cycles needs a number")));
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("bench-diff: unknown option {other}");
                usage();
            }
            path => paths.push(path.to_string()),
        }
    }
    let [base_path, cur_path] = paths.as_slice() else { usage() };

    let base = load(base_path);
    let mut cur = load(cur_path);
    let kind = report_kind(&base);
    if !kinds().any(|k| k == kind) {
        let known = kinds().collect::<Vec<_>>().join(", ");
        fail(&format!("{base_path}: no rules for report kind \"{kind}\" (known kinds: {known})"));
    }
    if kind != report_kind(&cur) {
        fail(&format!(
            "report kinds differ: {base_path} is \"{kind}\", {cur_path} is \"{}\"",
            report_kind(&cur)
        ));
    }
    if let Some(pct) = inject {
        if kind != "headline" {
            fail("--inject-cycles only applies to headline reports");
        }
        eprintln!("[injecting +{pct}% cycles into {cur_path} for gate self-test]");
        inject_cycles(&mut cur, pct);
    }

    let report = compare(&base, &cur);
    for f in &report.findings {
        let tag = match f.severity {
            Severity::Regression => "REGRESSION",
            Severity::Improvement => "improvement",
            Severity::Structural => "STRUCTURAL",
        };
        println!("{tag:<12} {}", f.message);
    }
    println!(
        "bench-diff: {} comparisons, {} regressions, {} structural, {} improvements",
        report.compared,
        report.regressions(),
        report.structural(),
        report.findings.len() - report.regressions() - report.structural(),
    );
    if report.is_pass() {
        println!("bench-diff: PASS ({base_path} vs {cur_path})");
    } else {
        println!("bench-diff: FAIL ({base_path} vs {cur_path})");
        std::process::exit(1);
    }
}
