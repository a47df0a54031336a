//! Metric definitions, measured values, the results file and
//! `bench_thor compare`.

use std::collections::BTreeMap;
use std::path::Path;

use thor_obs::Json;

use crate::stats::{sorted, summarize, tail, Summary, Tail};

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput, F1).
    Higher,
    /// Smaller values are better (time, memory).
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline value by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload's timed run as the
/// median of the run's samples, timings at the reference speed (see
/// [`crate::speed`]). Each bound is at least three times the largest
/// spread (IQR ÷ median over ten seeds) seen on a shared two-core VM.
/// `docs_per_s` and `latency_ms` spread by 2–5% on the single-threaded
/// workloads but by up to 7% on two-thread `batch-wide` and
/// `serve-mixed` (9% in earlier sets), so they get 0.25; `setup_s` gets
/// the largest bound too. RSS spreads by up to 6%, on `batch-wide`,
/// whose two threads' allocations interleave differently from run to
/// run. F1 is measured on one fixed corpus, so it does not move unless
/// the extraction does.
pub const END_TO_END: &[MetricDef] = &[
    e2e("docs_per_s", "docs/s", Higher, 0.25),
    e2e("latency_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("rss_peak_mb", "MiB", Lower, 0.2),
    e2e("f1", "ratio", Higher, 0.005),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("data.read_table_ms", "ms", Lower),
    layer("data.write_csv_ms", "ms", Lower),
    layer("embed.read_vectors_ms", "ms", Lower),
    layer("engine.prepare_ms", "ms", Lower),
    layer("engine.save_ms", "ms", Lower),
    layer("engine.load_ms", "ms", Lower),
    layer("engine.artifact_kb", "KiB", Lower),
    layer("text.split_us_per_doc", "us", Lower),
    layer("text.tokenize_us_per_sentence", "us", Lower),
    layer("segment.us_per_doc", "us", Lower),
    layer("segment.attributed_ratio", "ratio", Higher),
    layer("segment.self_share", "ratio", Lower),
    layer("chunk.us_per_sentence", "us", Lower),
    layer("chunk.phrases_per_sentence", "count", Lower),
    layer("chunk.self_share", "ratio", Lower),
    layer("match.us_per_hit", "us", Lower),
    layer("match.us_per_miss", "us", Lower),
    layer("match.cache_hit_ratio", "ratio", Higher),
    layer("match.candidates_per_phrase", "count", Lower),
    layer("match.pruned_rows_per_miss", "count", Higher),
    layer("match.self_share", "ratio", Lower),
    layer("refine.us_per_phrase", "us", Lower),
    layer("refine.scored_ratio", "ratio", Lower),
    layer("refine.self_share", "ratio", Lower),
    layer("slotfill.ms", "ms", Lower),
    layer("slotfill.inserted_ratio", "ratio", Higher),
    layer("dedup.ms", "ms", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// The definition of a reported metric.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured metric: the median and quartiles of its samples, and
/// (for timings with enough samples) the tail percentile.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median and quartiles.
    pub summary: Summary,
    /// Highest percentile with ten samples beyond it, if any.
    pub tail: Option<Tail>,
}

impl Metric {
    /// A metric over raw samples; timings also get their tail.
    pub fn of(name: &str, unit: &str, samples: &[f64]) -> Metric {
        let sorted = sorted(samples);
        let timing = matches!(unit, "s" | "ms" | "us");
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            summary: summarize(&sorted),
            tail: if timing { tail(&sorted) } else { None },
        }
    }

    /// The metric `name` of [`END_TO_END`] or [`PER_LAYER`] over raw
    /// samples, in the unit of its definition.
    pub fn defined(name: &str, samples: &[f64]) -> Metric {
        let d = def(name).expect("every reported metric is defined");
        Metric::of(name, d.unit, samples)
    }

    /// A metric measured once.
    pub fn single(name: &str, unit: &str, value: f64) -> Metric {
        Metric::of(name, unit, &[value])
    }

    /// The reported value: the median of the samples.
    pub fn value(&self) -> f64 {
        self.summary.median
    }

    fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("median".into(), Json::Float(self.summary.median));
        m.insert("unit".into(), Json::Str(self.unit.clone()));
        m.insert("q1".into(), Json::Float(self.summary.q1));
        m.insert("q3".into(), Json::Float(self.summary.q3));
        m.insert("n".into(), Json::UInt(self.summary.n as u64));
        if let Some(t) = self.tail {
            m.insert("tail".into(), Json::Str(t.label()));
            m.insert("tail_value".into(), Json::Float(t.value));
        }
        Json::Object(m)
    }

    fn from_json(name: &str, j: &Json) -> Result<Metric, String> {
        let num = |key: &str| match j.get(key) {
            Some(Json::Float(f)) => Ok(*f),
            Some(Json::UInt(u)) => Ok(*u as f64),
            _ => Err(format!("metric `{name}`: missing number `{key}`")),
        };
        let unit = match j.get("unit") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(format!("metric `{name}`: missing unit")),
        };
        let n = num("n")? as usize;
        let tail = match (j.get("tail"), j.get("tail_value")) {
            (Some(Json::Str(label)), Some(_)) => {
                let per_10k = parse_tail_label(label)
                    .ok_or_else(|| format!("metric `{name}`: bad tail `{label}`"))?;
                Some(Tail {
                    per_10k,
                    value: num("tail_value")?,
                    n,
                })
            }
            _ => None,
        };
        Ok(Metric {
            name: name.to_string(),
            unit,
            summary: Summary {
                n,
                median: num("median")?,
                q1: num("q1")?,
                q3: num("q3")?,
            },
            tail,
        })
    }
}

fn parse_tail_label(label: &str) -> Option<usize> {
    let p: f64 = label.strip_prefix('p')?.parse().ok()?;
    Some((p * 100.0).round() as usize)
}

/// What one phase of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check during the phase passed.
    pub correct: bool,
    /// Operations attempted while measuring (documents, requests,
    /// deltas).
    pub attempted: u64,
    /// Operations whose output was wrong or refused.
    pub failed: u64,
    /// FNV-1a digest of the workload's output.
    pub digest: u64,
    /// The phase's contract metrics: every end-to-end metric for the
    /// timed run, every per-layer metric for the traced run.
    pub metrics: Vec<Metric>,
    /// Workload-specific detail (tails, layers only this workload has).
    pub extra: Vec<Metric>,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.to_json()))
            .collect(),
    )
}

fn metrics_from_json(j: Option<&Json>) -> Result<Vec<Metric>, String> {
    match j {
        Some(Json::Object(map)) => map
            .iter()
            .map(|(name, v)| Metric::from_json(name, v))
            .collect(),
        _ => Err("missing metrics object".into()),
    }
}

impl Outcome {
    /// The outcome as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("correct".into(), Json::Bool(self.correct));
        m.insert("attempted".into(), Json::UInt(self.attempted));
        m.insert("failed".into(), Json::UInt(self.failed));
        m.insert("digest".into(), Json::Str(format!("{:016x}", self.digest)));
        m.insert("metrics".into(), metrics_json(&self.metrics));
        m.insert("extra".into(), metrics_json(&self.extra));
        Json::Object(m)
    }

    /// Parse [`Outcome::to_json`]'s output.
    pub fn from_json(j: &Json) -> Result<Outcome, String> {
        let count = |key: &str| {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("outcome: missing `{key}`"))
        };
        let digest = match j.get("digest") {
            Some(Json::Str(s)) => u64::from_str_radix(s, 16).map_err(|e| e.to_string())?,
            _ => return Err("outcome: missing digest".into()),
        };
        Ok(Outcome {
            correct: matches!(j.get("correct"), Some(Json::Bool(true))),
            attempted: count("attempted")?,
            failed: count("failed")?,
            digest,
            metrics: metrics_from_json(j.get("metrics"))?,
            extra: metrics_from_json(j.get("extra"))?,
        })
    }

    /// The line the benchmark ends its output with: `correct`,
    /// `attempted`, `failed`, and each contract metric's value and unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut v = BTreeMap::new();
                v.insert("value".to_string(), Json::Float(m.value()));
                v.insert("unit".to_string(), Json::Str(m.unit.clone()));
                (m.name.clone(), Json::Object(v))
            })
            .collect();
        let mut line = BTreeMap::new();
        line.insert("correct".to_string(), Json::Bool(self.correct));
        line.insert("attempted".to_string(), Json::UInt(self.attempted));
        line.insert("failed".to_string(), Json::UInt(self.failed));
        line.insert("metrics".to_string(), Json::Object(metrics));
        Json::Object(line).render()
    }
}

/// Human-readable lines for a list of metrics: name, median, unit,
/// quartiles, sample count and tail.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let s = m.summary;
        let mut line = format!("  {:<32} {:>14.4} {:<7}", m.name, m.value(), m.unit);
        if s.n > 1 {
            line.push_str(&format!(" [q1 {:.4}, q3 {:.4}, n {}]", s.q1, s.q3, s.n));
        }
        if let Some(t) = m.tail {
            line.push_str(&format!(" {t}"));
        }
        println!("{line}");
    }
}

/// The results file of one `run`: per workload, each phase's outcome
/// and every metric.
pub fn results_json(
    seed: u64,
    seconds: f64,
    smoke: bool,
    runs: &[(String, Vec<(String, Outcome)>)],
) -> Json {
    let mut workloads = BTreeMap::new();
    for (workload, phases) in runs {
        let mut w = BTreeMap::new();
        let mut metrics = Vec::new();
        for (phase, outcome) in phases {
            let mut p = BTreeMap::new();
            p.insert("correct".into(), Json::Bool(outcome.correct));
            p.insert("attempted".into(), Json::UInt(outcome.attempted));
            p.insert("failed".into(), Json::UInt(outcome.failed));
            p.insert(
                "digest".into(),
                Json::Str(format!("{:016x}", outcome.digest)),
            );
            w.insert(phase.clone(), Json::Object(p));
            metrics.extend(outcome.metrics.iter().cloned());
            metrics.extend(outcome.extra.iter().cloned());
        }
        w.insert("metrics".into(), metrics_json(&metrics));
        workloads.insert(workload.clone(), Json::Object(w));
    }
    let mut root = BTreeMap::new();
    root.insert("seed".into(), Json::UInt(seed));
    root.insert("seconds".into(), Json::Float(seconds));
    root.insert("smoke".into(), Json::Bool(smoke));
    root.insert("workloads".into(), Json::Object(workloads));
    Json::Object(root)
}

/// One workload of a results file: its metrics and the output digest
/// of each phase.
struct WorkloadResults {
    metrics: Vec<Metric>,
    digests: Vec<String>,
}

impl WorkloadResults {
    /// Whether an open loop of this workload measured the generator
    /// rather than the server (see [`crate::serve::OPEN_VALID`]).
    fn open_invalid(&self) -> bool {
        self.metrics
            .iter()
            .any(|m| m.name == crate::serve::OPEN_VALID && m.value() == 0.0)
    }
}

/// A results file: the inputs it ran on (seed, smoke) and its workloads.
type Results = ((u64, bool), BTreeMap<String, WorkloadResults>);

fn read_results(path: &Path) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Object(workloads)) = root.get("workloads") else {
        return Err(format!("{}: no `workloads` object", path.display()));
    };
    let Some(seed) = root.get("seed").and_then(Json::as_u64) else {
        return Err(format!("{}: no `seed`", path.display()));
    };
    let smoke = matches!(root.get("smoke"), Some(Json::Bool(true)));
    let workloads = workloads
        .iter()
        .map(|(name, w)| {
            let digests = ["timed", "traced"]
                .iter()
                .filter_map(|phase| match w.get(phase).and_then(|p| p.get("digest")) {
                    Some(Json::Str(d)) => Some(d.clone()),
                    _ => None,
                })
                .collect();
            let metrics = metrics_from_json(w.get("metrics"))?;
            Ok((name.clone(), WorkloadResults { metrics, digests }))
        })
        .collect::<Result<_, String>>()
        .map_err(|e: String| format!("{}: {e}", path.display()))?;
    Ok(((seed, smoke), workloads))
}

/// Sort metrics into definition order: end-to-end, then per-layer,
/// then workload-specific extras by name.
pub fn in_definition_order(metrics: &mut [Metric]) {
    metrics.sort_by_key(|m| {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .position(|d| d.name == m.name)
            .unwrap_or(usize::MAX)
    });
}

/// How `b` compares to the baseline `a` under a metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Relative change of the median, `(b − a) / a`.
    pub change: f64,
    /// Whether `b` is worse than `a` by more than the bound.
    pub regressed: bool,
}

/// Compare two medians under `def`'s direction and bound.
pub fn judge(def: &MetricDef, a: f64, b: f64) -> Verdict {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    let worse = match def.better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    Verdict {
        change,
        regressed: def.bound.is_some_and(|bound| worse > bound),
    }
}

/// `bench_thor compare A.json B.json`: for every (workload, metric) in
/// both files print both medians with their quartiles, the change of the
/// median and the bound, and whether the outputs' digests
/// agree. Both files must come from the same inputs (seed and smoke
/// mode). Returns whether every bounded metric stayed within its bound,
/// every digest agreed, and no `latency_ms` came from an open loop that
/// measured the generator.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_inputs, a) = read_results(a_path)?;
    let (b_inputs, b) = read_results(b_path)?;
    if a_inputs != b_inputs {
        return Err(format!(
            "{} ran (seed, smoke) {a_inputs:?} and {} ran {b_inputs:?}: \
             compare needs runs on the same inputs",
            a_path.display(),
            b_path.display()
        ));
    }
    let mut ok = true;
    println!(
        "{:<14} {:<30} {:>48} {:>48} {:>9} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for (workload, a_results) in &a {
        let Some(b_results) = b.get(workload) else {
            continue;
        };
        let open_invalid = a_results.open_invalid() || b_results.open_invalid();
        for am in &a_results.metrics {
            let Some(bm) = b_results.metrics.iter().find(|m| m.name == am.name) else {
                continue;
            };
            let Some(d) = def(&am.name) else {
                continue;
            };
            let v = judge(d, am.value(), bm.value());
            let invalid = open_invalid && am.name == "latency_ms";
            let cell = |m: &Metric| {
                format!(
                    "{:.4} [{:.4}, {:.4}]",
                    m.summary.median, m.summary.q1, m.summary.q3
                )
            };
            let (bound, verdict) = match d.bound {
                Some(_) if invalid => ("-".to_string(), "NOT JUDGED: invalid open loop"),
                Some(bound) => (
                    format!("{:.1}%", bound * 100.0),
                    if v.regressed { "REGRESSED" } else { "ok" },
                ),
                None => ("-".to_string(), "-"),
            };
            ok &= !v.regressed && !invalid;
            println!(
                "{:<14} {:<30} {:>48} {:>48} {:>8.2}% {:>7}  {verdict}",
                workload,
                am.name,
                cell(am),
                cell(bm),
                v.change * 100.0,
                bound
            );
        }
        let same = a_results.digests == b_results.digests;
        ok &= same;
        println!(
            "{workload:<14} output digests {}",
            if same { "identical" } else { "DIFFER" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_respects_direction_and_bound() {
        let throughput = def("docs_per_s").expect("defined");
        let b = throughput.bound.expect("bounded");
        let near = 100.0 * (1.0 - b * 0.9);
        let past = 100.0 * (1.0 - b * 1.1);
        assert!(!judge(throughput, 100.0, near).regressed);
        assert!(judge(throughput, 100.0, past).regressed);
        assert!(!judge(throughput, 100.0, 150.0).regressed);
        let latency = def("latency_ms").expect("defined");
        let b = latency.bound.expect("bounded");
        assert!(judge(latency, 10.0, 10.0 * (1.0 + b * 1.1)).regressed);
        assert!(!judge(latency, 10.0, 5.0).regressed);
        let f1 = def("f1").expect("defined");
        assert!(judge(f1, 0.66, 0.65).regressed, "an F1 drop of 0.01 counts");
        let layer = def("segment.us_per_doc").expect("defined");
        assert!(
            !judge(layer, 1.0, 100.0).regressed,
            "per-layer metrics are unbounded"
        );
    }

    fn outcome(digest: u64, latency: &[f64], open_valid: f64) -> Outcome {
        Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            digest,
            metrics: vec![
                Metric::defined("latency_ms", latency),
                Metric::defined("docs_per_s", &[10.0, 30.0, 20.0]),
            ],
            extra: vec![
                Metric::of(
                    "serve.latency_ms",
                    "ms",
                    &(1..=40).map(f64::from).collect::<Vec<_>>(),
                ),
                Metric::single(crate::serve::OPEN_VALID, "bool", open_valid),
            ],
        }
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let outcome = outcome(0xdead_beef, &[1.5, 2.5, 3.25], 1.0);
        let text = outcome.to_json().render();
        let back = Outcome::from_json(&Json::parse(&text).expect("json")).expect("outcome");
        assert_eq!(back.digest, outcome.digest);
        for m in &outcome.metrics {
            let b = back
                .metrics
                .iter()
                .find(|b| b.name == m.name)
                .expect("kept");
            assert_eq!((b.summary, b.tail), (m.summary, m.tail));
        }
        assert_eq!(back.extra[0].tail, outcome.extra[0].tail);
        assert_eq!(back.extra[0].value(), 20.5);
        // The result line reports each metric's median.
        let line = Json::parse(&outcome.result_line()).expect("result line");
        let reported = |name: &str| line.get("metrics").and_then(|m| m.get(name)).cloned();
        assert_eq!(
            reported("latency_ms"),
            Some(Json::parse(r#"{"unit":"ms","value":2.5}"#).expect("json"))
        );
        assert_eq!(
            reported("docs_per_s"),
            Some(Json::parse(r#"{"unit":"docs/s","value":20.0}"#).expect("json"))
        );
    }

    /// `compare` of results files written from `outcomes`, each a
    /// serve-mixed timed phase, run with `seeds`.
    fn compare_results(outcomes: [Outcome; 2], seeds: [u64; 2]) -> Result<bool, String> {
        let dir = std::env::temp_dir().join(format!("bench-thor-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let paths = [dir.join("a.json"), dir.join("b.json")];
        for ((path, outcome), seed) in paths.iter().zip(outcomes).zip(seeds) {
            let runs = [(
                "serve-mixed".to_string(),
                vec![("timed".to_string(), outcome)],
            )];
            let json = results_json(seed, 1.0, true, &runs);
            std::fs::write(path, json.render()).expect("write results");
        }
        let verdict = compare(&paths[0], &paths[1]);
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
        verdict
    }

    #[test]
    fn compare_fails_on_differing_output_or_an_invalid_open_loop() {
        let same = [2.0, 2.5, 3.0];
        let pair = |d: u64, v: f64| [outcome(1, &same, 1.0), outcome(d, &same, v)];
        assert_eq!(compare_results(pair(1, 1.0), [7, 7]), Ok(true));
        assert_eq!(
            compare_results(pair(2, 1.0), [7, 7]),
            Ok(false),
            "different output bytes fail whatever the timings"
        );
        assert_eq!(
            compare_results(pair(1, 0.0), [7, 7]),
            Ok(false),
            "latency from an open loop that missed its schedule is not judged"
        );
        assert!(
            compare_results(pair(1, 1.0), [7, 8]).is_err(),
            "runs on different inputs are not compared"
        );
    }
}
