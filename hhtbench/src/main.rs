//! `hhtbench`: the HHT simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! hhtbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! hhtbench all [--seed <n>] [--seconds <s>] [--trace <0|1>] [--tiny]
//! hhtbench selftest
//! ```
//!
//! One workload runs in this process on one thread and prints one JSON
//! result line last. `all` runs every workload, each in its own process.
//! `selftest` runs every workload of `BENCHMARK.json` on tiny inputs and
//! checks each listed metric is printed with its unit. The exit code is
//! non-zero on a wrong `y`, a drifting exact counter, or a failed
//! cross-check. See `README.md` next to this crate.

mod adapter;
mod bench;
mod counts;
mod fabric;
mod inputs;
mod serve;
mod trace;

use bench::{Outcome, RunOpts, Workload};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Every workload, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["paper_1t", "dram_16t", "serve_mixed"];

fn main() -> ExitCode {
    let started = Instant::now();
    pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("selftest") => selftest(),
        _ => match parse(&args) {
            Ok((workload, opts)) => run_one(started, &workload, opts),
            Err(e) => {
                eprintln!("hhtbench: {e}");
                ExitCode::from(2)
            }
        },
    }
}

/// Fix glibc's mmap threshold. Left to adjust itself, it rises to the size
/// of the largest mapped block freed so far, so whether the service's
/// megabyte-sized problem images come from fresh mappings or from reused
/// heap depends on the order of earlier frees, and `peak_rss_mb` of
/// `serve_mixed` jumped between 64 and 172 MB from seed to seed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only tunes the allocator; no other thread exists yet.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

/// Allocations of at least this many bytes get their own mapping.
const MMAP_THRESHOLD: i32 = 32 << 20;

/// Parse `--workload/--seed/--seconds/--trace/--tiny`.
fn parse(args: &[String]) -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut opts = RunOpts { seed: 1, seconds: 10.0, trace: false, tiny: false, setups: 8 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            opts.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(format!("bad --seconds {value}"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {WORKLOADS:?})"));
    }
    // A `serve_mixed` set-up takes seconds (its baselines), the others a
    // fraction of one.
    if workload == "serve_mixed" {
        opts.setups = 4;
    }
    Ok((workload, opts))
}

/// Run one workload in this process and print its result line.
fn run_one(started: Instant, workload: &str, opts: RunOpts) -> ExitCode {
    let (seed, tiny) = (opts.seed, opts.tiny);
    let setup = |tr: &mut trace::Tracer| -> Box<dyn Workload> {
        match workload {
            "paper_1t" => Box::new(fabric::FabricWorkload::setup(fabric::PAPER_1T, seed, tiny, tr)),
            "dram_16t" => Box::new(fabric::FabricWorkload::setup(fabric::DRAM_16T, seed, tiny, tr)),
            _ => Box::new(serve::ServeWorkload::setup(seed, tiny, tr)),
        }
    };
    let (outcome, tr) = bench::run(started, opts, setup);
    if tr.on() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{workload}-{seed}.jsonl"));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("hhtbench: writing {}: {e}", path.display());
        }
    }
    for e in &outcome.errors {
        eprintln!("hhtbench: {workload}: {e}");
    }
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 && outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line: `correct`, `attempted`, `failed`, then every metric
/// with its unit.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.errors.is_empty(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Run `args` through this executable in a child process; returns whether
/// it succeeded and its standard output.
fn child(args: &[&str]) -> (bool, String) {
    let exe = std::env::current_exe().expect("own executable path");
    match Command::new(exe).args(args).output() {
        Ok(out) => {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
        }
        Err(e) => (false, format!("spawn failed: {e}")),
    }
}

/// Every workload, each in its own process, with the same options.
fn all(rest: &[String]) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        let mut args = vec!["--workload", w];
        args.extend(rest.iter().map(String::as_str));
        let (good, out) = child(&args);
        println!("{w}: {}", out.lines().last().unwrap_or(""));
        ok &= good;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Tiny-input run of every workload in `BENCHMARK.json` (read from the
/// current directory): each listed metric must be printed with its listed
/// unit and a finite value, outputs must be correct, and the exact metrics
/// must repeat across two processes.
fn selftest() -> ExitCode {
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("selftest: cannot read BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names = |key: &str| -> Vec<(String, String)> {
        let list = spec.get(key).and_then(|v| v.as_seq()).unwrap_or(&[]);
        list.iter()
            .filter_map(|m| {
                let name = m.get("name")?.as_str()?.to_string();
                let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("").to_string();
                Some((name, unit))
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let mut problems: Vec<String> = Vec::new();
    for w in &workloads {
        let before = problems.len();
        let base = ["--workload", w.as_str(), "--seed", "7", "--seconds", "0.5", "--tiny"];
        let mut exact: Vec<Vec<(String, f64)>> = Vec::new();
        for (trace, key) in [("0", "end_to_end"), ("0", "end_to_end"), ("1", "per_layer")] {
            let mut args = base.to_vec();
            args.extend(["--trace", trace]);
            let (ok, out) = child(&args);
            let line = out.lines().last().unwrap_or("");
            let found = check_line(line, &names(key));
            match found {
                Ok(values) if ok => {
                    if trace == "0" {
                        let keep = ["sim_cycles", "hht_speedup"];
                        exact.push(
                            values
                                .into_iter()
                                .filter(|(n, _)| keep.contains(&n.as_str()))
                                .collect(),
                        );
                    }
                }
                Ok(_) => problems.push(format!("{w} --trace {trace}: exit code not 0")),
                Err(e) => problems.push(format!("{w} --trace {trace}: {e}")),
            }
        }
        if exact.len() == 2 && exact[0] != exact[1] {
            problems.push(format!("{w}: exact metrics differ between two processes"));
        }
        println!("selftest {w}: {}", if problems.len() == before { "ok" } else { "FAILED" });
    }
    if workloads.is_empty() {
        problems.push("BENCHMARK.json lists no workloads".into());
    }
    for p in &problems {
        eprintln!("selftest: {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Check one result line against the expected `(name, unit)` list and
/// return the metric values.
fn check_line(line: &str, expected: &[(String, String)]) -> Result<Vec<(String, f64)>, String> {
    let v: serde_json::Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    if v.get("correct").and_then(|c| c.as_bool()) != Some(true) {
        return Err("result not correct".into());
    }
    let count = |k: &str| v.get(k).and_then(|n| n.as_num()).and_then(|n| n.as_u64());
    if count("attempted").unwrap_or(0) < 1 || count("failed") != Some(0) {
        return Err("attempted < 1 or failed != 0".into());
    }
    let metrics = v.get("metrics").ok_or("no metrics")?;
    if let serde_json::Value::Map(pairs) = metrics {
        if pairs.len() != expected.len() {
            return Err(format!("{} metrics printed, {} listed", pairs.len(), expected.len()));
        }
    }
    let mut values = Vec::new();
    for (name, unit) in expected {
        let m = metrics.get(name).ok_or_else(|| format!("metric {name} missing"))?;
        if m.get("unit").and_then(|u| u.as_str()) != Some(unit.as_str()) {
            return Err(format!("metric {name} lacks unit {unit}"));
        }
        let value = m.get("value").and_then(|x| x.as_num()).map(|n| n.as_f64());
        match value {
            Some(x) if x.is_finite() => values.push((name.clone(), x)),
            _ => return Err(format!("metric {name} has no finite value")),
        }
    }
    Ok(values)
}
