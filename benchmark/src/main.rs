//! `pinsql-benchmark`: one wired end-to-end benchmark of the online
//! PinSQL path. See `benchmark/README.md`; `run.sh` builds and calls this.
//!
//! Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one pass of one
//!   workload, the result as one JSON object on the last line of stdout
//!   (the form the benchmark driver calls);
//! * no `--trace` — every workload (or the one named): this process calls
//!   itself in the form above, once untraced and once traced per workload,
//!   and gathers the result lines into `<out>/results.json`;
//! * `compare A.json B.json --bounds BENCHMARK.json` — do two result
//!   files of the same code agree within the benchmark's own bounds?

mod affinity;
mod check;
mod drive;
mod guard;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use guard::Watchdog;
use json::Json;
use metrics::{Values, END_TO_END, PER_LAYER};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{WorkloadSpec, DEFAULT_SEED, WORKLOADS};

/// Seconds an untraced pass measures for when nothing says otherwise:
/// `run_seconds` of `BENCHMARK.json` (a unit test holds the two together),
/// so that `run.sh` on its own measures exactly as the driver does.
const RUN_SECONDS: f64 = 22.0;
/// The same for the `--quick` smoke, whose numbers mean nothing.
const QUICK_SECONDS: f64 = 1.0;

/// Exit code for failed output checks (a result is still printed).
const EXIT_INCORRECT: u8 = 1;
/// Exit code for bad usage or a pass that could not run (no result is printed).
const EXIT_UNUSABLE: u8 = 2;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    /// Build provenance `run.sh` passes through to the results file.
    rustc: Option<String>,
    positional: Vec<String>,
    bounds: Option<PathBuf>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(v.parse().map_err(|_| format!("--seed: `{v}` is not a u64"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds: `{v}` is not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds: `{v}` must be positive"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
                });
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--rustc" => args.rustc = Some(value("--rustc")?),
            "--bounds" => args.bounds = Some(PathBuf::from(value("--bounds")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => return unusable(&e),
    };
    let outcome = if args.positional.first().map(String::as_str) == Some("compare") {
        compare(&args)
    } else if args.trace.is_some() {
        driver_run(&args)
    } else {
        full_run(&args)
    };
    outcome.unwrap_or_else(|e| unusable(&e))
}

fn unusable(why: &str) -> ExitCode {
    eprintln!("pinsql-benchmark: {why}");
    ExitCode::from(EXIT_UNUSABLE)
}

fn named_workload(args: &Args) -> Result<&'static WorkloadSpec, String> {
    let name = args.workload.as_deref().ok_or("--workload is required here")?;
    workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })
}

fn out_dir(args: &Args) -> PathBuf {
    args.out.clone().unwrap_or_else(|| PathBuf::from("benchmark/out"))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn print_values(title: &str, catalogue: &[metrics::MetricDef], values: &Values) {
    println!("{title}");
    for def in catalogue {
        if let Some(value) = values.get(def.name) {
            let better = def.better.as_str();
            println!("  {:<38} {:>18.4} {:<9} ({better} is better)", def.name, value, def.unit);
        }
    }
}

fn print_failures(failures: &[String]) {
    for f in failures {
        eprintln!("check failed: {f}");
    }
}

/// The result line of the driver contract.
fn result_line(failures: usize, attempted: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(failures == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failures as f64)),
        ("metrics", metrics),
    ])
    .render()
}

/// Prints the end-to-end metrics and how each timing was arrived at.
fn show_measured(m: &run::Measured) {
    print_values("end-to-end", END_TO_END, &m.values);
    for (name, summary) in &m.summaries {
        println!("  {name:<38} {summary}");
    }
    for note in &m.notes {
        println!("  {note}");
    }
}

/// Prints the per-layer metrics and the budget, and writes the trace.
fn show_traced(t: &layers::Traced, workload: &str, out: &Path) -> Result<(), String> {
    print_values("per-layer", PER_LAYER, &t.values);
    for note in &t.notes {
        println!("{note}");
    }
    write_file(&out.join(format!("{workload}.trace.json")), &t.tracer.to_json(workload).render())
}

/// One pass of one workload, as the benchmark driver calls it: the
/// untraced drives and every end-to-end metric, or the traced run and
/// every per-layer metric. A process of its own either way, so that
/// `peak_rss_mb` is the untraced drives' and nothing else's.
fn driver_run(args: &Args) -> Result<ExitCode, String> {
    let spec = named_workload(args)?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let traced = args.trace == Some(true);
    let dog = Watchdog::start();
    let quick = if args.quick { ", quick" } else { "" };
    println!("== {} (seed {seed}, trace {}{quick}) ==", spec.name, u8::from(traced));

    let mut checks = check::Checks::default();
    let metrics = if traced {
        let mut p = run::prepare(spec, seed, args.quick);
        checks.merge(std::mem::take(&mut p.checks));
        let t = layers::traced(&p, &dog)?;
        show_traced(&t, spec.name, &out_dir(args))?;
        checks.merge(t.checks);
        t.values.to_json(PER_LAYER)
    } else {
        let seconds = if args.quick { QUICK_SECONDS } else { RUN_SECONDS };
        let m = run::measure(spec, seed, args.quick, args.seconds.unwrap_or(seconds), &dog);
        show_measured(&m);
        checks.merge(m.checks);
        m.values.to_json(END_TO_END)
    };
    print_failures(&checks.failures);
    println!("{}", result_line(checks.failures.len(), checks.attempted, metrics));
    Ok(if checks.failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(EXIT_INCORRECT) })
}

/// Calls this program in the driver's form and hands its output through,
/// all but the result line (the last line of its stdout), which is
/// returned parsed, with whether the pass exited with success.
fn driver_pass(
    args: &Args,
    workload: &str,
    seed: u64,
    traced: bool,
) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    cmd.arg("--out").arg(out_dir(args));
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd.stdout(Stdio::piped()).spawn().map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last: Option<String> = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("{workload}: reading the pass's output: {e}"))?;
        if let Some(earlier) = last.replace(line) {
            println!("{earlier}");
        }
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let result = json::parse(&last.unwrap_or_default())
        .map_err(|e| format!("{workload}: no result ({e}); {status}"))?;
    Ok((result, status.success()))
}

/// Every workload (or the one named): per workload one untraced and one
/// traced pass, each the very procedure the driver runs, in a process of
/// its own; their result lines gathered into `<out>/results.json`.
fn full_run(args: &Args) -> Result<ExitCode, String> {
    let specs: Vec<&WorkloadSpec> = match &args.workload {
        Some(_) => vec![named_workload(args)?],
        None => WORKLOADS.iter().collect(),
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut docs = Vec::new();
    let mut all_ok = true;
    for spec in specs {
        let (untraced, ok0) = driver_pass(args, spec.name, seed, false)?;
        let (traced, ok1) = driver_pass(args, spec.name, seed, true)?;
        all_ok &= ok0 && ok1;
        let sum = |key: &str| -> f64 {
            [&untraced, &traced].iter().filter_map(|r| r.get(key)?.as_f64()).sum()
        };
        let (attempted, failed) = (sum("attempted"), sum("failed"));
        println!(
            "{}: {attempted} operations attempted, {failed} failed; failed_share = {}",
            spec.name,
            failed / attempted.max(1.0)
        );
        let metrics = |r: &Json| r.get("metrics").cloned().unwrap_or(Json::Null);
        docs.push(Json::obj([
            ("workload", Json::str(spec.name)),
            ("correct", Json::Bool(ok0 && ok1)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("end_to_end", metrics(&untraced)),
            ("per_layer", metrics(&traced)),
        ]));
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("run_seconds", Json::Num(if args.quick { QUICK_SECONDS } else { RUN_SECONDS })),
        ("rustc", args.rustc.as_deref().map_or(Json::Null, Json::str)),
        ("available_parallelism", Json::Num(threads as f64)),
        ("workloads", Json::Arr(docs)),
    ]);
    let path = out_dir(args).join("results.json");
    write_file(&path, &results.render())?;
    println!("wrote {}", path.display());
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::from(EXIT_INCORRECT) })
}

/// `compare A.json B.json --bounds BENCHMARK.json`: per workload ×
/// end-to-end metric, both medians, the relative difference and the
/// bound. Non-zero exit when any pair differs by more than its bound, or
/// an exact metric differs at all.
fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: compare A.json B.json --bounds BENCHMARK.json".into());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let bounds_path = args.bounds.as_deref().ok_or("compare needs --bounds BENCHMARK.json")?;
    let bounds = load(&bounds_path.to_string_lossy())?;
    let bound_of = |name: &str| -> Option<f64> {
        bounds.get("end_to_end")?.as_arr()?.iter().find_map(|m| {
            (m.get("name")?.as_str()? == name).then(|| m.get("bound")?.as_f64()).flatten()
        })
    };
    let value_of = |doc: &Json, workload: &str, metric: &str| -> Option<f64> {
        doc.get("workloads")?
            .as_arr()?
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(workload))?
            .get("end_to_end")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };

    let mut within = true;
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for spec in &WORKLOADS {
        for def in END_TO_END {
            let (Some(x), Some(y)) =
                (value_of(&a, spec.name, def.name), value_of(&b, spec.name, def.name))
            else {
                return Err(format!("{} / {} is missing from a results file", spec.name, def.name));
            };
            let bound = bound_of(def.name).ok_or_else(|| format!("no bound for {}", def.name))?;
            let diff = if x == y { 0.0 } else { (y - x).abs() / x.abs().max(f64::MIN_POSITIVE) };
            let exact = metrics::EXACT.contains(&def.name);
            let ok = if exact { x == y } else { diff <= bound };
            within &= ok;
            println!(
                "{:<16} {:<22} {:>16.4} {:>16.4} {:>8.2}% {:>6.0}%{}",
                spec.name,
                def.name,
                x,
                y,
                100.0 * diff,
                100.0 * bound,
                match (ok, exact) {
                    (true, _) => "",
                    (false, true) => "  EXACT METRIC DIFFERS",
                    (false, false) => "  OVER BOUND",
                }
            );
        }
    }
    Ok(if within { ExitCode::SUCCESS } else { ExitCode::from(EXIT_INCORRECT) })
}
