//! **bench_thor** — the THOR reproduction's benchmark: four workloads
//! of Algorithm 1 (`SEGMENT → EXTRACT → SLOT-FILL`) over a generated
//! Disease A–Z corpus, end-to-end metrics from a timed run with tracing
//! off, and per-layer metrics from a separate single-threaded traced run.
//!
//! ```text
//! bench_thor run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! bench_thor compare A.json B.json
//! ```
//!
//! `run` generates each workload's inputs from the seed into
//! `target/bench_thor/`, measures each workload in a child process of
//! its own (so peak RSS belongs to one workload), prints every metric by
//! name and unit, writes `target/bench_thor/results.json` and one
//! `trace-<workload>.json` per traced workload, and ends its output with
//! one JSON line per workload: `correct`, `attempted`, `failed` and the
//! metrics. Without `--trace` it runs the timed and the traced phase;
//! `--trace 0` or `--trace 1` runs one. A failed correctness gate exits
//! non-zero by name and reports no numbers.
//!
//! See `README.md` next to this file for the workloads, metrics, bounds
//! and known limits.

mod decompose;
mod inputs;
mod report;
mod serve;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use thor_obs::Json;

use crate::inputs::{Inputs, Workload};
use crate::report::Outcome;
use crate::workloads::{Failure, Run};

const USAGE: &str = "usage:
  bench_thor run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  bench_thor compare A.json B.json
workloads: batch-wide, batch-narrow, serve-mixed, evolve-chain";

/// Where `run` writes inputs, results and traces, relative to the
/// working directory.
const OUT_DIR: &str = "target/bench_thor";
/// Measured seconds per phase by default, and in `--smoke` mode.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 1.0;

/// Exit code of a failed correctness gate.
const EXIT_GATE: u8 = 3;

/// Parsed command-line options of `run` and of the measured child.
#[derive(Debug, Default)]
struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    /// Child only: the inputs directory, the outcome file, the trace file.
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    trace_file: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workloads.push(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                a.seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got `{v}`"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                });
            }
            "--smoke" => a.smoke = true,
            "--dir" => a.dir = Some(value()?.into()),
            "--out" => a.out = Some(value()?.into()),
            "--trace-file" => a.trace_file = Some(value()?.into()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(a)
}

impl Args {
    fn run(&self, workload: Workload) -> Run {
        Run {
            workload,
            seed: self.seed.unwrap_or(7),
            seconds: self.seconds.unwrap_or(if self.smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            smoke: self.smoke,
        }
    }
}

/// Run one phase of one workload on inputs already on disk.
fn measure(
    run: &Run,
    inputs: &Inputs,
    traced: bool,
    trace_file: &Path,
) -> Result<Outcome, Failure> {
    use Workload::*;
    match (run.workload, traced) {
        (BatchWide | BatchNarrow, false) => workloads::batch_timed(run, inputs),
        (BatchWide | BatchNarrow, true) => workloads::batch_traced(run, inputs, trace_file),
        (ServeMixed, false) => serve::timed(run, inputs),
        (ServeMixed, true) => serve::traced(run, inputs, trace_file),
        (EvolveChain, false) => workloads::evolve_timed(run, inputs),
        (EvolveChain, true) => workloads::evolve_traced(run, inputs, trace_file),
    }
}

/// The measured process: one phase of one workload, its outcome written
/// to `--out`.
fn child(argv: &[String]) -> ExitCode {
    let a = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    let (Some(&workload), Some(dir), Some(out), Some(trace), Some(trace_file)) = (
        a.workloads.first(),
        a.dir.as_ref(),
        a.out.as_ref(),
        a.trace,
        a.trace_file.as_ref(),
    ) else {
        return usage_error("child needs --workload, --dir, --out, --trace and --trace-file");
    };
    let run = a.run(workload);
    let inputs = Inputs { dir: dir.clone() };
    let result = measure(&run, &inputs, trace, trace_file).and_then(|outcome| {
        fs::write(out, outcome.to_json().render())
            .map_err(|e| Failure::Error(format!("{}: {e}", out.display())))
    });
    let name = workload.name();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Gate(gate, detail)) => {
            eprintln!("bench_thor: {name}: correctness gate `{gate}` failed: {detail}");
            ExitCode::from(EXIT_GATE)
        }
        Err(Failure::Error(e)) => {
            eprintln!("bench_thor: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `bench_thor run`.
fn run(argv: &[String]) -> ExitCode {
    let a = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    if a.dir.is_some() || a.out.is_some() || a.trace_file.is_some() {
        return usage_error("--dir, --out and --trace-file are internal to the measured process");
    }
    let selected = if a.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        a.workloads.clone()
    };
    let phases = match a.trace {
        Some(traced) => vec![traced],
        None => vec![false, true],
    };
    let out_dir = Path::new(OUT_DIR);
    let exe = match fs::create_dir_all(out_dir).and_then(|()| std::env::current_exe()) {
        Ok(exe) => exe,
        Err(e) => return fail(&format!("{OUT_DIR}: {e}")),
    };
    let mut runs = Vec::new();
    for workload in selected {
        let r = a.run(workload);
        let work = out_dir.join(format!("work-{}-{}", std::process::id(), workload.name()));
        let result = measure_in_child(&exe, &r, &phases, &work, out_dir);
        let _ = fs::remove_dir_all(&work);
        match result {
            Ok(outcomes) => runs.push((workload, r, outcomes)),
            Err(code) => return code,
        }
    }

    let first = &runs[0].1;
    let named: Vec<(String, Vec<(String, Outcome)>)> = runs
        .iter()
        .map(|(w, _, o)| (w.name().to_string(), o.clone()))
        .collect();
    let results = report::results_json(first.seed, first.seconds, first.smoke, &named);
    let results_path = out_dir.join("results.json");
    if let Err(e) = fs::write(&results_path, results.render() + "\n") {
        return fail(&format!("{}: {e}", results_path.display()));
    }
    for (workload, r, outcomes) in &runs {
        println!(
            "{} (seed {}, {} s per phase{})",
            workload.name(),
            r.seed,
            r.seconds,
            if r.smoke { ", smoke" } else { "" }
        );
        for (phase, o) in outcomes {
            println!(
                " {phase}: correct {}, attempted {}, failed {}, output digest {:016x}",
                o.correct, o.attempted, o.failed, o.digest
            );
            report::print_metrics(&o.metrics);
            report::print_metrics(&o.extra);
        }
    }
    println!("results: {}", results_path.display());
    for (_, _, outcomes) in &runs {
        let merged = Outcome {
            correct: outcomes.iter().all(|(_, o)| o.correct),
            attempted: outcomes.iter().map(|(_, o)| o.attempted).sum(),
            failed: outcomes.iter().map(|(_, o)| o.failed).sum(),
            digest: outcomes[0].1.digest,
            metrics: outcomes
                .iter()
                .flat_map(|(_, o)| o.metrics.clone())
                .collect(),
            extra: Vec::new(),
        };
        println!("{}", merged.result_line());
    }
    ExitCode::SUCCESS
}

/// Generate one workload's inputs into `work` and measure each phase in
/// a child process; the child's exit code is passed on when it fails.
fn measure_in_child(
    exe: &Path,
    r: &Run,
    phases: &[bool],
    work: &Path,
    out_dir: &Path,
) -> Result<Vec<(String, Outcome)>, ExitCode> {
    let name = r.workload.name();
    let _ = fs::remove_dir_all(work);
    if let Err(e) = inputs::write_inputs(r.workload, r.seed, r.smoke, work) {
        return Err(fail(&format!(
            "{name}: writing inputs to {}: {e}",
            work.display()
        )));
    }
    let mut outcomes = Vec::new();
    for &traced in phases {
        let phase = if traced { "traced" } else { "timed" };
        let out = work.join(format!("{phase}.json"));
        let trace_file = out_dir.join(format!("trace-{name}.json"));
        let mut cmd = Command::new(exe);
        cmd.arg("child")
            .args(["--workload", name])
            .args(["--seed", &r.seed.to_string()])
            .args(["--seconds", &r.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--dir")
            .arg(work)
            .arg("--out")
            .arg(&out)
            .arg("--trace-file")
            .arg(&trace_file)
            .stdout(Stdio::null());
        if r.smoke {
            cmd.arg("--smoke");
        }
        eprintln!("bench_thor: {name}: {phase} run");
        let status = match cmd.status() {
            Ok(status) => status,
            Err(e) => return Err(fail(&format!("{name}: starting {}: {e}", exe.display()))),
        };
        if !status.success() {
            eprintln!("bench_thor: {name}: {phase} run failed ({status}); no results");
            let code = status
                .code()
                .and_then(|c| u8::try_from(c).ok())
                .unwrap_or(1);
            return Err(ExitCode::from(code.max(1)));
        }
        let outcome = fs::read_to_string(&out)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .and_then(|json| Outcome::from_json(&json));
        match outcome {
            Ok(mut o) => {
                report::in_definition_order(&mut o.metrics);
                outcomes.push((phase.to_string(), o));
            }
            Err(e) => return Err(fail(&format!("{name}: {}: {e}", out.display()))),
        }
    }
    Ok(outcomes)
}

fn fail(message: &str) -> ExitCode {
    eprintln!("bench_thor: {message}");
    ExitCode::FAILURE
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("bench_thor: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => run(&argv[1..]),
        Some("child") => child(&argv[1..]),
        Some("compare") => match &argv[1..] {
            [a, b] => match report::compare(Path::new(a), Path::new(b)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => fail(&e),
            },
            _ => usage_error("compare needs two results files"),
        },
        _ => usage_error("expected a subcommand"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{MetricDef, END_TO_END, PER_LAYER};

    /// The benchmark contract at the repository root.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn listed(contract: &Json, key: &str) -> Vec<Json> {
        match contract.get(key) {
            Some(Json::Array(items)) => items.clone(),
            other => panic!("BENCHMARK.json `{key}` is not a list: {other:?}"),
        }
    }

    fn str_of<'a>(item: &'a Json, key: &str) -> &'a str {
        match item.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    fn check_defs(contract: &Json, key: &str, defs: &[MetricDef]) {
        let items = listed(contract, key);
        assert_eq!(
            items.len(),
            defs.len(),
            "`{key}` lists a different number of metrics"
        );
        for (item, d) in items.iter().zip(defs) {
            assert_eq!(str_of(item, "name"), d.name);
            assert_eq!(str_of(item, "unit"), d.unit, "unit of {}", d.name);
            assert_eq!(
                str_of(item, "better"),
                d.better.as_str(),
                "better of {}",
                d.name
            );
            let bound = match item.get("bound") {
                Some(Json::Float(f)) => Some(*f),
                None => None,
                other => panic!("bound of {} is {other:?}", d.name),
            };
            assert_eq!(bound, d.bound, "bound of {}", d.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let contract = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        check_defs(&contract, "end_to_end", END_TO_END);
        check_defs(&contract, "per_layer", PER_LAYER);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
        let workloads: Vec<String> = listed(&contract, "workloads")
            .iter()
            .map(|w| str_of(w, "name").to_string())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name `{}`", d.name);
        }
    }

    /// All four workloads in smoke mode, both phases: every metric named
    /// in BENCHMARK.json comes out with a finite value.
    #[test]
    fn smoke_run_emits_every_metric() {
        let args = Args {
            smoke: true,
            seconds: Some(0.5),
            ..Args::default()
        };
        for workload in Workload::ALL {
            let dir = std::env::temp_dir().join(format!(
                "bench-thor-smoke-{}-{}",
                std::process::id(),
                workload.name()
            ));
            let _ = fs::remove_dir_all(&dir);
            let run = args.run(workload);
            inputs::write_inputs(workload, run.seed, true, &dir).expect("inputs");
            let inputs = Inputs { dir: dir.clone() };
            for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
                let outcome = measure(&run, &inputs, traced, &dir.join("trace.json"))
                    .unwrap_or_else(|f| panic!("{}: {f:?}", workload.name()));
                assert!(outcome.correct && outcome.failed == 0 && outcome.attempted > 0);
                let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
                let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
                assert_eq!(names, want, "{} traced={traced}", workload.name());
                for m in outcome.metrics.iter().chain(&outcome.extra) {
                    assert!(valid_name(&m.name), "bad metric name `{}`", m.name);
                    assert!(
                        m.value().is_finite(),
                        "{}: {} = {}",
                        workload.name(),
                        m.name,
                        m.value()
                    );
                }
            }
            fs::remove_dir_all(&dir).expect("remove smoke inputs");
        }
    }
}
