//! Extension — the scale-out (multi-core SoC) observatory.
//!
//! The paper characterizes one long-vector core per design point; this
//! experiment shards inference across N such cores behind one shared
//! L2/DRAM port (`lva-scale`, DESIGN.md §18) and reports the
//! throughput-vs-cores curves: where each curve bends, whether the bend is
//! really shared-port contention (exact `Contention` stall attribution
//! cross-checked against the `infinite_shared_bw` counterfactual), and
//! which co-design lever recovers it (`lva-whatif`'s scale advisor).
//!
//! Outputs, all deterministic (simulated cycles are the only clock; no
//! timestamps, no host data; byte-identical for any `--jobs`):
//!
//! * `results/scaling_grid.csv` (and `.json` with `--json`) — the flat
//!   per-cell table;
//! * `BENCH_scaling.json` — the machine-readable record (per-cell
//!   throughput, stall shares, port counters, Mattson cross-check, and
//!   per-curve knee/lever advice), at the repo root next to
//!   `BENCH_headline.json` / `BENCH_serving.json`;
//! * `results/SCALING.md` — the human-readable scaling report;
//! * `--chrome FILE` — a Perfetto-loadable multi-process timeline (one
//!   process per core plus shared-port bandwidth/queue counter tracks) of
//!   the most contended cell.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(
        8,
        "Scale-out observatory: throughput-vs-cores curves over the shared-port SoC simulator",
    );
    // --retime: the engine *refuses* multi-core records (certificates are
    // single-core timing proofs) and the sweep falls back to full SoC
    // simulation; output is bit-identical either way.
    let mut engine = retime_engine(&opts);
    let j = scaling_grid_json(opts.div, opts.layers, opts.jobs, engine.as_mut());
    log_retime(engine.as_ref());

    let mut table = Table::new(
        "SoC scale-out: throughput, contention share, and Mattson cross-check".to_string(),
        &["network", "point", "sharding", "cores", "fr/kcycle", "cont_%", "ideal", "mattson_err"],
    );
    let f = |p: &Json, k: &str| p.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let u = |p: &Json, k: &str| p.get(k).and_then(Json::as_u64).unwrap_or(0);
    let s = |p: &Json, k: &str| p.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    for net in j.get("networks").and_then(Json::as_arr).unwrap_or(&[]) {
        for p in net.get("points").and_then(Json::as_arr).unwrap_or(&[]) {
            for c in p.get("curves").and_then(Json::as_arr).unwrap_or(&[]) {
                for cell in c.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
                    let mat = cell.get("mattson").unwrap_or(&Json::Null);
                    table.row(vec![
                        s(net, "name"),
                        s(p, "name"),
                        s(c, "sharding"),
                        u(cell, "cores").to_string(),
                        format!("{:.6}", f(cell, "throughput_fpkc")),
                        format!("{:.1}", 100.0 * f(cell, "contention_share")),
                        format!("{:.6}", f(cell, "ideal_throughput_fpkc")),
                        format!("{:.4}", f(mat, "abs_error")),
                    ]);
                }
                let adv = c.get("advice").unwrap_or(&Json::Null);
                if let Some(knee) = adv.get("knee_cores").and_then(Json::as_u64) {
                    println!(
                        "{} | {} | {}: knee at {knee} cores — {}",
                        s(net, "name"),
                        s(p, "name"),
                        s(c, "sharding"),
                        adv.get("advice").and_then(Json::as_str).unwrap_or(""),
                    );
                }
            }
        }
    }

    let mut body = j.to_string_pretty();
    body.push('\n');
    match std::fs::write("BENCH_scaling.json", body) {
        Ok(()) => println!("[saved BENCH_scaling.json]"),
        Err(e) => eprintln!("could not save BENCH_scaling.json: {e}"),
    }

    let md = scaling_markdown(&j);
    let path = std::path::Path::new("results").join("SCALING.md");
    let write = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, md));
    match write {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("could not save {}: {e}", path.display()),
    }

    // --chrome: re-run the most contended cell (max cores, batch sharding,
    // smallest shared L2) with the multi-process timeline recorded.
    if let Some(path) = &opts.chrome {
        eprintln!(".. contended-cell SoC timeline [scaling]");
        let trace = scaling_chrome_trace(opts.div, opts.layers);
        match trace.save(path) {
            Ok(()) => println!("[saved {path} ({} events)]", trace.len()),
            Err(e) => eprintln!("could not save {path}: {e}"),
        }
    }

    emit(&table, "scaling_grid", &opts);
}
