//! `bench-diff` exit codes on the committed records: 0 within tolerance,
//! 1 on regression, 2 on an unknown report kind or a removed flag.

use std::process::Command;

fn bench_diff(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .args(args)
        .output()
        .expect("bench-diff runs");
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.code().expect("exited"), text.into_owned())
}

#[test]
fn exit_codes_pin_the_gate() {
    for (kind, compared) in [("headline", 228), ("energy", 112), ("serving", 61), ("scaling", 212)]
    {
        let base = format!("results/baseline_{kind}.json");
        let (code, text) = bench_diff(&[&base, &base]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains(&format!("{compared} comparisons, 0 regressions")), "{text}");
    }
    let base = "results/baseline_headline.json";
    let (code, text) = bench_diff(&[base, base, "--inject-cycles", "6"]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("228 comparisons, 197 regressions, 0 structural"), "{text}");

    let (code, text) = bench_diff(&["BENCH_sim_wallclock.json", "BENCH_sim_wallclock.json"]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("known kinds: headline, energy, serving, scaling"), "{text}");
    assert_eq!(bench_diff(&[base, base, "--tol-total", "3"]).0, 2);
}
