//! Shared command-line parsing for every workspace binary.
//!
//! The `exp-*` experiment drivers and the `lint-*` static-analysis tools
//! all speak the same flag dialect (`--jobs`, `--json`, `--trace`, …).
//! Each bin used to re-implement the loop by hand and PR 5/6 had to patch
//! them one at a time for flag parity; [`Opts`] is now the single
//! implementation. Experiment bins call [`Opts::parse`] (the full dialect,
//! re-exported as `lva_bench::Opts`); lint tools call [`Opts::parse_tool`]
//! (the `--jobs/--json/--trace` subset, with usage errors reported on the
//! lint tools' "internal error" exit code 2).

use std::env;

/// Common options for experiment and lint binaries.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Linear input down-scale divisor (1 = paper-native resolution).
    pub div: usize,
    /// Override the layer prefix length.
    pub layers: Option<usize>,
    /// Write a CSV under `results/`.
    pub csv: bool,
    /// Write machine-readable JSON under `results/`.
    pub json: bool,
    /// Attach an `lva-prof` memory profiler to every run (reuse-distance
    /// histograms, 3C miss classes, hit-rate-vs-capacity curves in the
    /// JSON output). Timing is unchanged.
    pub profile: bool,
    /// Write a Chrome trace-event timeline (Perfetto-loadable) to this path.
    pub chrome: Option<String>,
    /// Worker threads for independent design-point runs (`--jobs N`;
    /// `--jobs 0` means all host cores). 1 = the serial loop.
    pub jobs: usize,
    /// Self-benchmark the simulator's wall-clock (`--wallclock`): run the
    /// sweep serially and with `--jobs`, median-of-3 each, and write a
    /// `BENCH_sim_wallclock.json` report.
    pub wallclock: bool,
    /// Attach an `lva-whatif` counterfactual analysis to every run's JSON
    /// report (`--with-whatif`): five extra idealized simulations per design
    /// point. Off by default — the plain reports stay byte-identical.
    pub whatif: bool,
    /// Attach the `lva-energy` streamed attribution to every run's JSON
    /// report (`--with-energy`): one probed re-run per design point, cycle
    /// counts unchanged. Off by default.
    pub energy: bool,
    /// Route runs through the `lva-retime` memoizing retime engine
    /// (`--retime`), or through it *and* the full simulator with a
    /// bit-identity assertion per run (`--retime=verify`).
    pub retime: RetimeOpt,
}

/// The `--retime` flag's three settings, shared by every experiment bin
/// (the `lva-retime` engine consumes it as its mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetimeOpt {
    /// Full simulation for every run (the default).
    #[default]
    Off,
    /// Trace once per semantic stream, re-time everywhere else; fall back
    /// to full simulation when no certificate covers the stream.
    On,
    /// `On`, plus a full simulation per run with a bit-identity assertion
    /// (cycles and the complete report must match the retimed result).
    Verify,
}

impl RetimeOpt {
    pub fn enabled(self) -> bool {
        self != RetimeOpt::Off
    }
}

impl Opts {
    fn defaults(default_div: usize) -> Opts {
        Opts {
            div: default_div,
            layers: None,
            csv: true,
            json: false,
            profile: false,
            chrome: None,
            jobs: 1,
            wallclock: false,
            whatif: false,
            energy: false,
            retime: RetimeOpt::Off,
        }
    }

    /// Parse `--div N`, `--layers N`, `--csv`, `--json`, `--trace FILE`,
    /// `--help` from `std::env`. `default_div` is the experiment's default
    /// scale. `--trace` installs a JSONL telemetry sink for the whole run.
    /// A malformed or unknown flag prints a message and exits 2.
    pub fn parse(default_div: usize, what: &str) -> Opts {
        let usage = format!(
            "{what}\n\nOptions:\n  --div N      input down-scale divisor (default {default_div}; 1 = paper size)\n  --layers N   layer prefix override\n  --csv/--no-csv  write results/<exp>.csv (default on)\n  --json       also write results/<exp>.json (machine-readable)\n  --profile    tap the cache hierarchy: reuse-distance histograms, 3C\n               miss classes, capacity curves (in the JSON output)\n  --chrome FILE  write a Chrome trace-event timeline (Perfetto) to FILE\n  --trace FILE stream JSONL telemetry spans to FILE\n  --jobs N     run independent design points on N threads (0 = all cores;\n               results and reports are identical to --jobs 1)\n  --wallclock  self-benchmark: time the sweep serial vs --jobs (median of\n               3 each) and write BENCH_sim_wallclock.json\n  --with-whatif  attach lva-whatif counterfactual analyses (bound\n               classification, cycles-saved-if-fixed) to the JSON reports\n  --with-energy  attach the lva-energy streamed attribution (per-layer\n               joules, EDP, energy roofline) to the JSON reports\n  --retime     trace each semantic stream once, re-time every other design\n               point through the memoizing retime engine (bit-identical;\n               certificate-gated, falls back to full simulation)\n  --retime=verify  retime AND fully simulate every run, asserting the\n               results are bit-identical"
        );
        finish(parse_from(default_div, false, env::args().skip(1)), &usage)
    }

    /// Parse the lint-tool subset: `--jobs N`, `--json`, `--trace FILE`,
    /// `--help`. Used by `lint-kernels` and `lint-dataflow`, whose exit
    /// codes distinguish findings (1) from internal/usage errors (2) —
    /// usage errors therefore exit 2, never 1.
    pub fn parse_tool(what: &str) -> Opts {
        let usage = format!(
            "{what}\n\nOptions:\n  --jobs N     check design points on N threads (0 = all cores;\n               the report is identical for every N)\n  --json       also save the report under results/\n  --trace FILE stream JSONL telemetry spans to FILE\n\nExit codes: 0 clean, 1 findings, 2 internal/usage error"
        );
        finish(parse_from(1, true, env::args().skip(1)), &usage)
    }
}

/// What an argument list asks for.
#[derive(Debug)]
enum Parsed {
    /// `--help`: print usage and exit 0.
    Help,
    /// Run with these options, streaming spans to `trace` if given.
    Run { opts: Opts, trace: Option<String> },
}

/// Act on a parse: print usage, report a usage error (exit 2), or install
/// the trace sink and hand back the options.
fn finish(parsed: Result<Parsed, String>, usage: &str) -> Opts {
    match parsed {
        Ok(Parsed::Run { opts, trace }) => {
            if let Some(path) = trace {
                if let Err(e) = lva_trace::enable_to_file(&path) {
                    eprintln!("cannot open trace file {path}: {e}");
                    std::process::exit(2);
                }
                eprintln!("[tracing to {path}]");
            }
            opts
        }
        Ok(Parsed::Help) => {
            eprintln!("{usage}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{msg}; try --help");
            std::process::exit(2);
        }
    }
}

/// Parse an argument list (program name excluded). `tool` restricts the
/// flags to the lint-tool subset.
fn parse_from(
    default_div: usize,
    tool: bool,
    args: impl IntoIterator<Item = String>,
) -> Result<Parsed, String> {
    let mut opts = Opts::defaults(default_div);
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let flag = a.as_str();
        if tool && !matches!(flag, "--jobs" | "--json" | "--trace" | "--help" | "-h") {
            return Err(format!("unknown option {flag:?}"));
        }
        match flag {
            "--div" => {
                opts.div = number(flag, args.next())?;
                if opts.div == 0 {
                    return Err("--div needs an integer >= 1".into());
                }
            }
            "--layers" => {
                let layers = number(flag, args.next())?;
                if layers == 0 {
                    return Err("--layers needs an integer >= 1".into());
                }
                opts.layers = Some(layers);
            }
            "--no-csv" => opts.csv = false,
            "--csv" => opts.csv = true,
            "--json" => opts.json = true,
            "--no-json" => opts.json = false,
            "--profile" => opts.profile = true,
            "--jobs" => {
                opts.jobs = match number(flag, args.next())? {
                    0 => crate::par::default_jobs(),
                    n => n,
                };
            }
            "--wallclock" => opts.wallclock = true,
            "--with-whatif" => opts.whatif = true,
            "--with-energy" => opts.energy = true,
            "--retime" => opts.retime = RetimeOpt::On,
            "--retime=verify" => opts.retime = RetimeOpt::Verify,
            "--retime=off" => opts.retime = RetimeOpt::Off,
            "--chrome" => opts.chrome = Some(path(flag, args.next())?),
            "--trace" => trace = Some(path(flag, args.next())?),
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Parsed::Run { opts, trace })
}

fn number(flag: &str, value: Option<String>) -> Result<usize, String> {
    match value {
        Some(v) => v.parse().map_err(|_| format!("{flag} needs an integer, got {v:?}")),
        None => Err(format!("{flag} needs an integer")),
    }
}

fn path(flag: &str, value: Option<String>) -> Result<String, String> {
    value.ok_or_else(|| format!("{flag} needs a file path"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Parsed, String> {
        parse_from(4, false, argv.iter().map(ToString::to_string))
    }

    #[test]
    fn malformed_values_are_errors() {
        for argv in [
            &["--div", "x"][..],
            &["--div", "0"],
            &["--div"],
            &["--layers", "x"],
            &["--layers", "0"],
            &["--jobs", "x"],
            &["--chrome"],
            &["--trace"],
            &["--bogus"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} must be a usage error");
        }
        let tool = parse_from(1, true, ["--div".to_string(), "2".to_string()]);
        assert!(tool.is_err(), "lint tools reject experiment flags");
    }

    /// Seeded fuzz over the flag vocabulary plus garbage values, empty
    /// strings and truncated argvs, in both experiment and tool mode: the
    /// parser never panics, and every error names the flag at fault — it
    /// starts with a flag that needs a value, or quotes an unknown one.
    #[test]
    fn fuzzed_argv_never_panics_and_errors_name_the_flag() {
        let flags: Vec<&str> = "--div --layers --no-csv --csv --json --no-json --profile --jobs \
             --wallclock --with-whatif --with-energy --retime --retime=verify --retime=off \
             --chrome --trace --help -h"
            .split_whitespace()
            .collect();
        const VALUES: &[&str] = &[
            "0",
            "1",
            "8",
            "-1",
            "x",
            "",
            " ",
            "1e3",
            "99999999999999999999999",
            "t.jsonl",
            "--div",
            "--retime=bogus",
            "-",
            "\u{0}",
        ];
        let mut rng = lva_sim::Rng::new(0x00C1_1F22);
        for _ in 0..4000 {
            let len = rng.gen_index(0, 7);
            let argv: Vec<String> = (0..len)
                .map(|_| {
                    let pool = if rng.gen_bool(0.6) { &flags[..] } else { VALUES };
                    pool[rng.gen_index(0, pool.len())].to_string()
                })
                .collect();
            for tool in [false, true] {
                let Err(msg) = parse_from(4, tool, argv.iter().cloned()) else { continue };
                let named = argv.iter().any(|a| {
                    msg.starts_with(&format!("{a} needs")) || msg == format!("unknown option {a:?}")
                });
                assert!(named, "error {msg:?} for {argv:?} (tool={tool}) names no flag");
            }
        }
    }

    #[test]
    fn well_formed_flags_parse() {
        let argv: Vec<&str> =
            "--div 8 --layers 6 --jobs 2 --no-csv --retime=verify --with-whatif --with-energy"
                .split(' ')
                .collect();
        let Ok(Parsed::Run { opts, trace }) = parse(&argv) else { panic!("valid argv") };
        assert_eq!((opts.div, opts.layers, opts.jobs), (8, Some(6), 2));
        assert!(!opts.csv);
        assert_eq!(opts.retime, RetimeOpt::Verify);
        assert_eq!((opts.whatif, opts.energy), (true, true));
        assert_eq!(trace, None);
        let Ok(Parsed::Run { opts, trace }) = parse(&["--trace", "t.jsonl"]) else { panic!() };
        assert_eq!(trace.as_deref(), Some("t.jsonl"));
        assert_eq!((opts.whatif, opts.energy), (false, false), "both analyses are opt-in");
        let Ok(Parsed::Run { opts, .. }) = parse(&["--with-energy"]) else { panic!() };
        assert_eq!((opts.whatif, opts.energy), (false, true));
        assert!(matches!(parse(&["--help"]), Ok(Parsed::Help)));
    }
}
