//! The co-design advisor pipeline: counterfactually profile every §VI
//! headline design point (factual + five idealized re-simulations each),
//! cross-check against `BENCH_headline.json` if present, and write
//!
//! * `BENCH_whatif.json` — the machine-readable merged record (whatif
//!   analyses + roofline positions per run), at the repo root next to
//!   `BENCH_headline.json`;
//! * `results/CODESIGN_REPORT.md` — the human-readable advisor report.
//!
//! Both outputs are deterministic: no timestamps, no host data. CI runs the
//! pipeline twice on a reduced layer set and byte-compares.
//!
//! `--jobs N` fans the six runs of each design point over N threads;
//! `--layers N` trims the layer prefix (CI), `--div N` rescales inputs.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(8, "Counterfactual co-design advisor (lva-whatif)");
    let specs = headline_specs(opts.div, opts.layers);

    let headline = std::fs::read_to_string("BENCH_headline.json")
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    if headline.is_none() {
        eprintln!("[no BENCH_headline.json to cross-check against; skipping]");
    }

    // --retime: each design point captures once and its five idealized
    // counterfactuals re-time the recording; output is bit-identical.
    let mut engine = retime_engine(&opts);
    let j = whatif_json(&specs, opts.div, opts.jobs, headline.as_ref(), engine.as_mut());
    log_retime(engine.as_ref());

    let mut body = j.to_string_pretty();
    body.push('\n');
    match std::fs::write("BENCH_whatif.json", body) {
        Ok(()) => println!("[saved BENCH_whatif.json]"),
        Err(e) => eprintln!("could not save BENCH_whatif.json: {e}"),
    }

    let md = codesign_markdown(&j);
    let path = std::path::Path::new("results").join("CODESIGN_REPORT.md");
    let write = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, md));
    match write {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("could not save {}: {e}", path.display()),
    }

    lva_trace::flush();
}
