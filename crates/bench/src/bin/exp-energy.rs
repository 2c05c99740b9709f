//! Extension — the energy observatory over the co-design grid.
//!
//! The paper motivates long-vector CPUs by energy efficiency (§I) and notes
//! that large caches "occupy significant die area" (§V), but evaluates
//! performance only. This experiment re-runs the Fig. 6/7 grid under the
//! `lva-energy` streaming event-energy model (DESIGN.md §14): longer
//! vectors save instruction-issue energy; ever-larger caches keep saving
//! DRAM energy but eventually lose on access energy (√capacity) and
//! leakage, so the EDP-optimal cache is *finite* even though performance
//! alone keeps (weakly) improving to 256 MB.
//!
//! Outputs, all deterministic (no timestamps, no host data; identical for
//! any `--jobs`):
//!
//! * `results/energy_grid.csv` (and `.json` with `--json`) — the flat
//!   per-point table;
//! * `BENCH_energy.json` — the machine-readable grid record (per-point
//!   energy breakdowns, Pareto flags, both optima), at the repo root next
//!   to `BENCH_headline.json`;
//! * `results/PARETO.md` — the human-readable cycles-vs-energy frontier.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(4, "Energy/EDP observatory across the RVV vector-length x L2 grid");
    // --retime: per network and VL, one functional capture serves the
    // whole L2 axis; output is bit-identical to the full-simulation grid.
    let mut engine = retime_engine(&opts);
    let j = energy_grid_json(opts.div, opts.layers, opts.jobs, engine.as_mut());
    log_retime(engine.as_ref());

    let mut table = Table::new(
        "Energy per inference and EDP across the VL x L2 grid".to_string(),
        &[
            "network",
            "vlen_bits",
            "l2",
            "cycles",
            "energy_mJ",
            "compute_mJ",
            "mem_mJ",
            "static_mJ",
            "edp_uJ_s",
            "pareto",
        ],
    );
    let f = |p: &Json, k: &str| p.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    for net in j.get("networks").and_then(Json::as_arr).unwrap_or(&[]) {
        let key = net.get("name").and_then(Json::as_str).unwrap_or("?");
        for p in net.get("points").and_then(Json::as_arr).unwrap_or(&[]) {
            table.row(vec![
                key.to_string(),
                p.get("vlen_bits").and_then(Json::as_u64).unwrap_or(0).to_string(),
                p.get("l2").and_then(Json::as_str).unwrap_or("?").to_string(),
                fmt_cycles(p.get("cycles").and_then(Json::as_u64).unwrap_or(0)),
                format!("{:.2}", f(p, "total_j") * 1e3),
                format!("{:.2}", f(p, "compute_j") * 1e3),
                format!("{:.2}", f(p, "memory_j") * 1e3),
                format!("{:.2}", f(p, "static_j") * 1e3),
                format!("{:.1}", f(p, "edp_js") * 1e6),
                if matches!(p.get("pareto"), Some(Json::Bool(true))) { "*" } else { "" }
                    .to_string(),
            ]);
        }
        println!(
            "{key}: cycles-optimal {} | EDP-optimal {}",
            net.get("cycles_optimal").and_then(Json::as_str).unwrap_or("?"),
            net.get("edp_optimal").and_then(Json::as_str).unwrap_or("?"),
        );
    }

    let mut body = j.to_string_pretty();
    body.push('\n');
    match std::fs::write("BENCH_energy.json", body) {
        Ok(()) => println!("[saved BENCH_energy.json]"),
        Err(e) => eprintln!("could not save BENCH_energy.json: {e}"),
    }

    let md = pareto_markdown(&j);
    let path = std::path::Path::new("results").join("PARETO.md");
    let write = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, md));
    match write {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("could not save {}: {e}", path.display()),
    }

    emit(&table, "energy_grid", &opts);
}
