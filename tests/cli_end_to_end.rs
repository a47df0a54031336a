//! The `thor` CLI driven end to end over a generated dataset: the
//! scores `thor evaluate` gives the CLI's own `enrich --entities` output
//! equal the experiment harness's for the same dataset and τ, and an
//! engine built with `thor build` reports the same metrics as the
//! direct `--table` run, and a reader that closes stdout early ends a
//! printing command quietly.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use thor_bench::harness::{disease_dataset, run_system, System};
use thor_obs::Json;

const SEED: u64 = 7;
const SCALE: f64 = 0.2;
const TAU: f64 = 0.6;

fn thor(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_thor"))
        .args(args)
        .output()
        .expect("run thor");
    assert!(
        out.status.success(),
        "thor {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// A `thor generate` output directory (Disease A–Z at [`SCALE`], seed
/// [`SEED`]), removed on drop.
struct Generated(PathBuf);

impl Generated {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("thor-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        thor(&[
            "generate",
            "--dataset",
            "disease",
            "--scale",
            &SCALE.to_string(),
            "--seed",
            &SEED.to_string(),
            "--out",
            arg(&dir),
        ]);
        Self(dir)
    }

    /// `--table`/`--vectors`/`--tau` options for a direct run at [`TAU`].
    fn table_source(&self) -> Vec<String> {
        vec![
            "--table".into(),
            arg(&self.0.join("enrichment_table.csv")).into(),
            "--vectors".into(),
            arg(&self.0.join("vectors.txt")).into(),
            "--tau".into(),
            TAU.to_string(),
        ]
    }

    /// `thor enrich` over the test split from `source` (the direct
    /// options or `--engine`) with `extra` options; returns stderr.
    fn enrich(&self, source: &[String], extra: &[&str]) -> String {
        let docs = self.0.join("docs").join("test");
        let mut args = vec!["enrich"];
        args.extend(source.iter().map(String::as_str));
        args.extend_from_slice(extra);
        args.push(arg(&docs));
        String::from_utf8(thor(&args).stderr).expect("utf-8 stderr")
    }
}

impl Drop for Generated {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The value after `label` on a `thor evaluate` report line.
fn field<'a>(report: &'a str, label: &str) -> &'a str {
    report
        .split(label)
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no `{label}` in:\n{report}"))
}

#[test]
fn evaluate_scores_the_cli_entities_like_the_harness() {
    let data = Generated::new("evaluate");
    let pred = data.0.join("pred.tsv");
    let out = data.0.join("enriched.csv");
    data.enrich(
        &data.table_source(),
        &["--entities", arg(&pred), "--out", arg(&out)],
    );
    let gold = data.0.join("gold").join("test.tsv");
    let report =
        String::from_utf8(thor(&["evaluate", "--gold", arg(&gold), "--pred", arg(&pred)]).stdout)
            .expect("utf-8 report");

    let expected = run_system(&System::Thor(TAU), &disease_dataset(SEED, SCALE)).report;
    let counts = [
        ("gold:", expected.gold_total),
        ("predicted:", expected.predicted_total),
        ("correct:", expected.correct),
        ("partial:", expected.partial),
        ("incorrect:", expected.incorrect),
        ("spurious:", expected.spurious),
        ("missing:", expected.missing),
    ];
    for (label, want) in counts {
        assert_eq!(field(&report, label), want.to_string(), "{label}\n{report}");
    }
    assert!(expected.correct > 0, "the harness finds exact matches");
    for (label, want) in [
        ("P:", expected.precision),
        ("R:", expected.recall),
        ("F1:", expected.f1),
    ] {
        assert_eq!(
            field(&report, label),
            format!("{want:.3}"),
            "{label}\n{report}"
        );
    }
}

/// The `--metrics=json` document on `stderr`, as `name → metric`.
fn metrics(stderr: &str) -> std::collections::BTreeMap<String, Json> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("{\"metrics\""))
        .unwrap_or_else(|| panic!("no metrics line in:\n{stderr}"));
    match Json::parse(line).expect("metrics JSON").get("metrics") {
        Some(Json::Object(map)) => map.clone(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn built_engine_reports_the_metrics_of_the_direct_run() {
    let data = Generated::new("metrics");
    let direct_source = data.table_source();
    let engine = data.0.join("e.thor");
    let mut build = vec!["build"];
    build.extend(direct_source.iter().map(String::as_str));
    build.extend_from_slice(&["--engine", arg(&engine)]);
    thor(&build);
    let engine_source = ["--engine".to_string(), arg(&engine).to_string()];

    for extra in [&["--metrics=json"][..], &["--metrics=json", "--stream"]] {
        let direct = metrics(&data.enrich(&direct_source, extra));
        let served = metrics(&data.enrich(&engine_source, extra));
        assert_eq!(
            direct.keys().collect::<Vec<_>>(),
            served.keys().collect::<Vec<_>>(),
            "{extra:?}"
        );
        for (name, d) in &direct {
            let s = &served[name];
            let kind = d.get("type").expect("typed metric");
            assert_eq!(Some(kind), s.get("type"), "{name}");
            match kind {
                Json::Str(t) if t == "timer" => {
                    // A loaded engine never builds its index.
                    if name != "index.build" {
                        assert_eq!(d.get("spans"), s.get("spans"), "{name} {extra:?}");
                    }
                }
                _ => assert_eq!(d.get("value"), s.get("value"), "{name} {extra:?}"),
            }
        }
    }
}

/// Run `thor args` with stdout a pipe whose reader closes at once, as
/// `thor … | head -0` leaves it.
fn thor_into_closed_pipe(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_thor"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run thor");
    drop(child.stdout.take());
    child.wait_with_output().expect("wait for thor")
}

#[test]
fn a_closed_stdout_ends_every_printing_command_quietly() {
    let data = Generated::new("pipe");
    let engine = data.0.join("e.thor");
    let mut build = vec!["build"];
    let source = data.table_source();
    build.extend(source.iter().map(String::as_str));
    build.extend_from_slice(&["--engine", arg(&engine)]);
    thor(&build);
    let gold = data.0.join("gold").join("test.tsv");
    let table = data.0.join("enrichment_table.csv");
    let docs = data.0.join("docs").join("test");
    let source_csv = data.0.join("sources").join("source_00.csv");
    let commands = [
        vec!["enrich", "--engine", arg(&engine), arg(&docs)],
        vec!["evaluate", "--gold", arg(&gold), "--pred", arg(&gold)],
        vec!["sparsity", arg(&table)],
        vec!["inspect", "--engine", arg(&engine)],
        vec!["integrate", arg(&source_csv)],
        vec!["--help"],
        vec!["evaluate", "--help"],
    ];
    let mut stopped = 0;
    for args in &commands {
        let out = thor_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "thor {args:?}:\n{stderr}");
        // 141 is 128 + SIGPIPE: stopped early, but quietly. A command
        // that wrote everything before the reader closed exits 0.
        match out.status.code() {
            Some(141) => stopped += 1,
            Some(0) => {}
            other => panic!("thor {args:?} exited {other:?}:\n{stderr}"),
        }
    }
    assert!(stopped > 0, "no command met the closed pipe");
}
