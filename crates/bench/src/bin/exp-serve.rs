//! Extension — the request-level serving observatory.
//!
//! The paper evaluates single-inference latency; production deployments
//! face *request streams*: queueing, batching, tenant interference, and
//! tail-latency SLOs. This experiment drives the `lva-serve` deterministic
//! discrete-event batching tier (DESIGN.md §16) across the Table II-style
//! hardware ladder x offered-load grid and reports per-tenant latency
//! histograms, queue telemetry, and an SLO-aware design recommendation
//! from `lva-whatif`.
//!
//! Outputs, all deterministic (simulated cycles are the only clock; no
//! timestamps, no host data; byte-identical for any `--jobs`):
//!
//! * `results/serving_grid.csv` (and `.json` with `--json`) — the flat
//!   per-cell table;
//! * `BENCH_serving.json` — the machine-readable grid record (per-cell
//!   latency percentiles, queue stats, per-tenant SLO verdicts, and the
//!   cheapest-design-meeting-SLO recommendation), at the repo root next
//!   to `BENCH_headline.json` / `BENCH_energy.json`;
//! * `results/SERVING.md` — the human-readable load report;
//! * `--chrome FILE` — a Perfetto-loadable request timeline of the knee
//!   cell (per-request spans plus queue-depth / batch-size counter
//!   tracks) on the reference design point.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(
        8,
        "Serving observatory: latency/queue/SLO report over the batching inference tier",
    );
    // --retime: ladder calibration through the retime engine (one capture
    // per tenant stream, re-timed per rung); output is bit-identical.
    let mut engine = retime_engine(&opts);
    let j = serving_grid_json(opts.div, opts.layers, opts.jobs, engine.as_mut());
    log_retime(engine.as_ref());

    let mut table = Table::new(
        "Serving tier under load: latency percentiles and queue telemetry".to_string(),
        &["point", "load", "p50_ms", "p99_ms", "p99.9_ms", "miss_%", "shed", "util", "avg_batch"],
    );
    let f = |p: &Json, k: &str| p.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let u = |p: &Json, k: &str| p.get(k).and_then(Json::as_u64).unwrap_or(0);
    for p in j.get("points").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = p.get("name").and_then(Json::as_str).unwrap_or("?");
        for l in p.get("loads").and_then(Json::as_arr).unwrap_or(&[]) {
            let (o, q) = (l.get("overall"), l.get("queue"));
            let (o, q) = (o.unwrap_or(&Json::Null), q.unwrap_or(&Json::Null));
            table.row(vec![
                name.to_string(),
                format!("{:.2}x", f(l, "intensity")),
                format!("{:.3}", f(o, "p50_ms")),
                format!("{:.3}", f(o, "p99_ms")),
                format!("{:.3}", f(o, "p999_ms")),
                format!("{:.2}", 100.0 * f(o, "miss_frac")),
                u(o, "shed").to_string(),
                format!("{:.2}", f(q, "utilization")),
                format!("{:.2}", f(q, "avg_batch")),
            ]);
        }
    }
    if let Some(rec) = j.get("slo_recommendation") {
        let pick = rec
            .get("recommended")
            .and_then(|r| r.get("point"))
            .and_then(Json::as_str)
            .unwrap_or("<none>");
        println!(
            "SLO p99 <= {:.3} ms at the knee: cheapest meeting design {pick}{}",
            f(rec, "target_p99_ms"),
            if rec.get("next_cheaper_misses").is_some() {
                " (next-cheaper rung misses)"
            } else {
                ""
            },
        );
    }

    let mut body = j.to_string_pretty();
    body.push('\n');
    match std::fs::write("BENCH_serving.json", body) {
        Ok(()) => println!("[saved BENCH_serving.json]"),
        Err(e) => eprintln!("could not save BENCH_serving.json: {e}"),
    }

    let md = serving_markdown(&j);
    let path = std::path::Path::new("results").join("SERVING.md");
    let write = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, md));
    match write {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("could not save {}: {e}", path.display()),
    }

    // --chrome: replay the knee cell on the reference design point with
    // per-request lifecycle spans and queue-depth / batch-size counters.
    if let Some(path) = &opts.chrome {
        eprintln!(".. knee-cell request timeline [serving]");
        let trace = knee_chrome_trace(opts.div, opts.layers, opts.jobs);
        match trace.save(path) {
            Ok(()) => println!("[saved {path} ({} events)]", trace.len()),
            Err(e) => eprintln!("could not save {path}: {e}"),
        }
    }

    emit(&table, "serving_grid", &opts);
}
