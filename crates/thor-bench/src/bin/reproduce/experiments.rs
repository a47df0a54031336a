//! The registry: every table and figure of the paper's evaluation
//! (Section VI), the supplementary analyses and the ablations, each with
//! its corpus, its declared scale and the function that renders it.
//!
//! A render reads only quality outcomes (counts, P/R/F1, sensitivities),
//! so its text is a pure function of (experiment, scale, seed); the
//! wall-clock of the same runs goes to `timing.txt`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::rc::Rc;

use thor_bench::harness::System::{self, Baseline, Gpt4, LmHuman, LmSd, Thor, UniNer};
use thor_bench::harness::{gold_annotations, tau_sweep, to_annotations, RunOutcome};
use thor_bench::TextTable;
use thor_core::{ScoreWeights, SegmentationMode, ThorConfig};
use thor_datagen::{corpus_stats, AnnotationEffortModel, GeneratedDataset, Split};
use thor_eval::align::{align, Annotation, MatchClass};
use thor_eval::{schema_scores, ConceptReport, EvalReport, PrCurve};

use crate::lab::Corpus::{Disease, LongResume, Resume};
use crate::lab::{Corpus, Ctx};

/// `writeln!` into a `String`, which cannot fail.
macro_rules! out {
    ($o:expr, $($arg:tt)*) => {{ let _ = writeln!($o, $($arg)*); }};
}

/// A table row: each cell rendered with `to_string`.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// One registered experiment.
pub struct Experiment {
    /// Its name, and the stem of its output file.
    pub name: &'static str,
    /// The corpus it runs on.
    pub corpus: Corpus,
    /// The corpus scale: 1.0 for the paper's artifacts and supplements,
    /// 0.25 for the ablations.
    pub scale: f64,
    /// Renders its output from the shared outcomes.
    pub render: fn(&mut Ctx) -> String,
}

const fn exp(
    name: &'static str,
    corpus: Corpus,
    scale: f64,
    render: fn(&mut Ctx) -> String,
) -> Experiment {
    Experiment {
        name,
        corpus,
        scale,
        render,
    }
}

/// Every experiment, in the order it runs.
pub const REGISTRY: &[Experiment] = &[
    exp("exp_datasets", Disease, 1.0, table3),
    exp("exp_table5", Disease, 1.0, table5),
    exp("exp_fig6", Disease, 1.0, fig6),
    exp("exp_table6", Disease, 1.0, table6),
    exp("exp_table7", Disease, 1.0, table7),
    exp("exp_table8", Disease, 1.0, table8),
    exp("exp_table9", Disease, 1.0, table9),
    exp("exp_table10", Disease, 1.0, table10),
    exp("exp_table11", Resume, 1.0, table11),
    exp("exp_fig10", Resume, 1.0, fig10),
    exp("exp_schemas", Disease, 1.0, schemas),
    exp("exp_context_window", LongResume, 1.0, context_window),
    exp("abl_scores", Disease, 0.25, abl_scores),
    exp("abl_expansion", Disease, 0.25, abl_expansion),
    exp("abl_np", Disease, 0.25, abl_np),
    exp("abl_segment", Disease, 0.25, abl_segment),
    exp("abl_context", Disease, 0.25, abl_context),
];

/// The experiment registered as `name`.
pub fn experiment(name: &str) -> &'static Experiment {
    REGISTRY
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment `{name}`"))
}

/// The five systems THOR is compared against, in Table V's order.
pub fn competitors() -> [System; 5] {
    [Baseline, LmSd, Gpt4, UniNer, LmHuman(usize::MAX)]
}

/// THOR's top-3 precision configurations, then the competitors (Tables
/// VI and XI).
fn top3_and_competitors() -> Vec<System> {
    [0.8, 0.9, 1.0]
        .map(Thor)
        .into_iter()
        .chain(competitors())
        .collect()
}

/// The six systems of the per-concept comparison (Tables VII and VIII).
fn per_concept_systems() -> [System; 6] {
    [Baseline, UniNer, Gpt4, LmHuman(usize::MAX), LmSd, Thor(0.8)]
}

/// THOR with one configuration change, for the ablations.
fn thor_with(tau: f64, label: &str, change: impl FnOnce(&mut ThorConfig)) -> System {
    let mut config = ThorConfig::with_tau(tau);
    change(&mut config);
    System::ThorWith(Box::new(config), format!("THOR tau={tau} {label}"))
}

/// `abl_np`'s variant: noun-phrase candidates (`np`) or raw n-grams.
pub fn np_variant(tau: f64, np: bool) -> System {
    thor_with(tau, if np { "noun phrases" } else { "n-grams" }, |c| {
        c.np_chunking = np;
    })
}

/// `abl_expansion`'s variant: at most `max_expansion` expanded instances
/// per concept (0 = seeds only).
pub fn expansion_variant(tau: f64, max_expansion: usize) -> System {
    thor_with(tau, &format!("max_expansion={max_expansion}"), |c| {
        c.max_expansion = max_expansion;
    })
}

fn concepts(dataset: &GeneratedDataset) -> Vec<String> {
    dataset
        .schema
        .concepts()
        .iter()
        .map(|c| c.name().to_lowercase())
        .collect()
}

fn concept<'a>(report: &'a EvalReport, name: &str) -> Option<&'a ConceptReport> {
    report.per_concept.iter().find(|c| c.concept == name)
}

/// `{title}, scale={scale}` and a blank line: most outputs' first lines.
fn titled(title: &str, scale: f64) -> String {
    format!("{title}, scale={scale}\n\n")
}

fn prf(report: &EvalReport, decimals: usize) -> [String; 3] {
    [report.precision, report.recall, report.f1].map(|v| format!("{v:.decimals$}"))
}

/// Fig. 7 / Fig. 9: TP / FP / FN bars.
fn bars(o: &mut String, figure: &str, outcomes: &[Rc<RunOutcome>]) {
    out!(o, "[{figure}] TP / FP / FN bars:");
    let mut t = TextTable::new(&["Model", "TP", "FP", "FN"]);
    for out in outcomes {
        let r = &out.report;
        t.row(cells![out.system, r.tp, r.fp, r.fn_]);
    }
    out!(o, "{}", t.render());
}

/// **Table III** — corpus statistics of the generated Disease A–Z and
/// Résumé datasets, plus the sparsity of the integrated tables.
fn table3(cx: &mut Ctx) -> String {
    let mut o = format!(
        "[Table III reproduction] scale={} seed={}\n\n",
        cx.scale,
        cx.lab.seed()
    );
    let datasets = [cx.dataset(), cx.lab.dataset(Resume, cx.scale)];
    for dataset in datasets {
        out!(o, "== {} ==", dataset.name);
        let stats =
            [Split::Train, Split::Validation, Split::Test].map(|s| corpus_stats(dataset.docs(s)));
        let mut t = TextTable::new(&["#", "Train", "Valid.", "Test"]);
        for (label, n) in [
            ("|dom(C*)|", stats.each_ref().map(|s| s.subjects)),
            ("Documents", stats.each_ref().map(|s| s.documents)),
            ("Entities", stats.each_ref().map(|s| s.entities)),
            ("Words", stats.each_ref().map(|s| s.words)),
        ] {
            t.row(cells![label, n[0], n[1], n[2]]);
        }
        out!(o, "{}", t.render());
        let table = &dataset.table;
        let report = thor_data::sparsity(table);
        out!(
            o,
            "integrated table R: {} rows, {} instances, {} sources, sparsity {:.1}% ({} of {} slots are ⊥)\n",
            table.len(),
            table.instance_count(),
            dataset.sources.len(),
            report.ratio * 100.0,
            report.missing_slots,
            report.total_slots,
        );
    }
    o + "Paper reference (Table III, Disease A-Z): dom(C*) 240/61/13, docs 1438/300/90,
entities 18539/3989/2222, words 168816/38722/19237.
Paper reference (Table III, Résumé): dom(C*) 100/70/100, docs 20/14/20,
entities 1656/1463/2140, words 41675/25389/38459.
"
}

/// **Table V + Fig. 5** — THOR across the τ sweep against the
/// competitors on Disease A–Z, then the precision–recall points and the
/// Pareto frontier of Fig. 5.
fn table5(cx: &mut Ctx) -> String {
    let mut o = titled("[Table V reproduction] Disease A-Z", cx.scale);
    let systems: Vec<System> = tau_sweep().map(Thor).chain(competitors()).collect();
    let mut table = TextTable::new(&["Model Name", "P", "R", "F1"]);
    let mut curve = PrCurve::new();
    for out in cx.runs(&systems) {
        let [p, r, f1] = prf(&out.report, 2);
        table.row(vec![out.system.clone(), p, r, f1]);
        curve.push(out.system.clone(), out.report.precision, out.report.recall);
    }
    out!(o, "{}", table.render());
    out!(o, "[Fig. 5] Precision-Recall points:");
    out!(o, "{}", curve.to_table());
    out!(o, "Pareto frontier: {}", curve.pareto_front().join(", "));
    o + "Paper reference (Table V): THOR tau=0.5 .39/.74/.52 | tau=0.7 .49/.64/.56 |
tau=1.0 .63/.32/.42 | Baseline .55/.18/.27 | LM-SD .42/.45/.43 |
GPT-4 .49/.38/.43 | UniNER .58/.33/.42 | LM-Human .83/.56/.66
"
}

/// **Fig. 6** — THOR over the τ sweep. The inference time the figure
/// plots is in `timing.txt`; the prediction volume that drives it is here.
fn fig6(cx: &mut Ctx) -> String {
    let mut o = titled("[Fig. 6 reproduction] inference time vs tau", cx.scale);
    let mut t = TextTable::new(&["tau", "predictions"]);
    for tau in tau_sweep() {
        let out = cx.run(&Thor(tau));
        t.row(vec![format!("{tau:.1}"), out.predictions.len().to_string()]);
    }
    out!(o, "{}", t.render());
    o + "Paper reference (Fig. 6 / Table V time column): 1781s at tau=0.5 decreasing
monotonically to 425s at tau=1.0 (absolute values are hardware-specific;
the reproduced shape is the monotone decrease).
"
}

/// Tables VI and XI: raw counts (and, for XI, P/R/F1) of THOR's top-3
/// precision configurations and the competitors, then the bars.
fn counts(cx: &mut Ctx, title: &str, with_prf: bool, figure: &str, reference: &str) -> String {
    let mut o = String::new();
    let gold = gold_annotations(&cx.dataset(), Split::Test).len();
    out!(o, "{title}, scale={}", cx.scale);
    out!(o, "ground-truth entities: {gold}\n");
    let mut header = vec!["Model Name", "Predicted", "Correct (TP)", "Incorrect (FP)"];
    if with_prf {
        header.extend(["P", "R", "F1"]);
    }
    let mut table = TextTable::new(&header);
    let outcomes = cx.runs(&top3_and_competitors());
    for out in &outcomes {
        let r = &out.report;
        let mut row = cells![out.system, r.predicted_total, r.tp, r.fp];
        if with_prf {
            row.extend(prf(r, 2));
        }
        table.row(row);
    }
    out!(o, "{}", table.render());
    bars(&mut o, figure, &outcomes);
    o + reference
}

/// **Table VI + Fig. 7** — raw prediction counts on Disease A–Z.
fn table6(cx: &mut Ctx) -> String {
    counts(
        cx,
        "[Table VI reproduction] raw counts, Disease A-Z",
        false,
        "Fig. 7",
        "Paper reference (Table VI, ground truth 2222): THOR tau=0.8 2069/1464/605 |
tau=0.9 1496/1129/367 | tau=1.0 1123/886/237 | Baseline 725/588/137 |
LM-SD 2421/1456/965 | GPT-4 1724/1089/635 | UniNER 1272/951/321 |
LM-Human 1494/1383/111. Shape: THOR tau=0.8 has the highest TP;
Baseline predicts the least; LM-SD overshoots with the most FP-heavy volume.
",
    )
}

/// **Table VII** — per-concept Pred/TP/FN for the six compared systems.
fn table7(cx: &mut Ctx) -> String {
    let mut o = titled(
        "[Table VII reproduction] per-concept Pred/TP/FN, Disease A-Z",
        cx.scale,
    );
    let outcomes = cx.runs(&per_concept_systems());
    let cell = |report: &EvalReport, name: &str| {
        concept(report, name).map_or((0, 0, 0, 0), |c| (c.gold, c.predicted, c.tp, c.fn_))
    };
    let _ = write!(o, "{:<14} {:>5} ", "Concept", "Gold");
    for out in &outcomes {
        let _ = write!(o, "| {:<20} ", out.system);
    }
    let _ = write!(o, "\n{:<14} {:>5} ", "", "");
    for _ in &outcomes {
        let _ = write!(o, "| {:>6} {:>6} {:>6} ", "Pred", "TP", "FN");
    }
    let rule = "-".repeat(21 + outcomes.len() * 23);
    out!(o, "\n{rule}");
    let mut total_gold = 0;
    let mut totals = vec![(0, 0, 0); outcomes.len()];
    for name in concepts(&cx.dataset()) {
        let gold = cell(&outcomes[0].report, &name).0;
        total_gold += gold;
        let _ = write!(o, "{name:<14} {gold:>5} ");
        for (out, total) in outcomes.iter().zip(&mut totals) {
            let (_, pred, tp, fn_) = cell(&out.report, &name);
            let _ = write!(o, "| {pred:>6} {tp:>6} {fn_:>6} ");
            *total = (total.0 + pred, total.1 + tp, total.2 + fn_);
        }
        o.push('\n');
    }
    let _ = write!(o, "{rule}\n{:<14} {total_gold:>5} ", "Overall");
    for (pred, tp, fn_) in &totals {
        let _ = write!(o, "| {pred:>6} {tp:>6} {fn_:>6} ");
    }
    o + "\n
Paper reference (Table VII shape): UniNER detects ZERO entities of the
under-represented 'Composition' class; LM-SD is biased toward the most
frequent 'Disease' class (819 of its 2421 predictions); THOR tau=0.8 is the
most balanced with the highest overall TP (1464) and lowest FN (758).
"
}

/// **Table VIII** — per-concept sensitivity for the six compared systems.
fn table8(cx: &mut Ctx) -> String {
    let mut o = titled(
        "[Table VIII reproduction] per-concept sensitivity, Disease A-Z",
        cx.scale,
    );
    let outcomes = cx.runs(&per_concept_systems());
    let mut header = vec!["Concept"];
    header.extend(outcomes.iter().map(|out| out.system.as_str()));
    let mut table = TextTable::new(&header);
    let percent = |s: f64| format!("{:.2}%", s * 100.0);
    for name in concepts(&cx.dataset()) {
        let cells = outcomes
            .iter()
            .map(|out| percent(concept(&out.report, &name).map_or(0.0, |c| c.sensitivity)));
        table.row(std::iter::once(name.clone()).chain(cells).collect());
    }
    let overall = outcomes.iter().map(|out| percent(out.report.sensitivity));
    table.row(
        std::iter::once("Overall".to_string())
            .chain(overall)
            .collect(),
    );
    out!(o, "{}", table.render());
    o + "Paper reference (Table VIII, overall sensitivity): Baseline 26.46%,
UniNER 42.80%, GPT-4 49.01%, LM-Human 62.24%, LM-SD 65.53%, THOR 65.89%.
Shape: THOR has the top overall sensitivity and the most balanced profile;
UniNER scores 0% on 'Composition'.
"
}

/// **Table IX** — annotation effort of the train split under the paper's
/// measured per-token costs (8–13 s/token).
fn table9(cx: &mut Ctx) -> String {
    let dataset = cx.dataset();
    let model = AnnotationEffortModel::default();
    let train = dataset.docs(Split::Train);
    let mut o = titled(
        "[Table IX reproduction] annotation effort, Disease A-Z train split",
        cx.scale,
    );
    let (doc_min, doc_max) = model.per_document_bounds(train).expect("non-empty corpus");
    // Per-subject bounds: group documents by their (single) subject.
    let mut per_subject: BTreeMap<&str, usize> = BTreeMap::new();
    for d in train {
        if let Some(s) = d.subjects.first() {
            *per_subject.entry(s.as_str()).or_insert(0) += d.doc.word_count();
        }
    }
    let words = per_subject.values().copied();
    let subj_min = words.clone().min().unwrap_or(0) as f64 * model.min_sec_per_token;
    let subj_max = words.max().unwrap_or(0) as f64 * model.max_sec_per_token;
    let total = model.estimate(train);
    let minutes = |s: f64| format!("{:.0}m", s / 60.0);
    let (per_token_min, per_token_max) = (model.min_sec_per_token, model.max_sec_per_token);
    let mut t = TextTable::new(&[
        "Single Disease",
        "Single Doc.",
        "Single Token",
        "Total Duration",
    ]);
    t.row(cells![
        format!("{} – {}", minutes(subj_min), minutes(subj_max)),
        format!("{} – {}", minutes(doc_min), minutes(doc_max)),
        format!("{per_token_min}s – {per_token_max}s"),
        format!("{:.0}+ Hours", total.max_hours()),
    ]);
    out!(o, "{}", t.render());
    out!(
        o,
        "({} train documents, {} tokens; per-annotator upper bound {:.0} hours)\n",
        train.len(),
        total.tokens,
        total.max_hours()
    );
    o + "Paper reference (Table IX): single disease 80m–150m, single document 7m–25m,
single token 8s–13s, total duration 600+ hours across three annotators.
"
}

/// **Table X + Fig. 8** — LM-Human trained on increasing amounts of
/// annotated data (1, 10, 15, 20, all subjects' documents) against THOR
/// at τ = 0.7, with the annotation time each size would cost.
fn table10(cx: &mut Ctx) -> String {
    let dataset = cx.dataset();
    let model = AnnotationEffortModel::default();
    let mut o = titled(
        "[Table X reproduction] LM-Human vs annotation budget",
        cx.scale,
    );
    let docs_per_subject = 6; // Disease preset
    let thor_run = cx.run(&Thor(0.7));
    let thor = thor_run.report.f1;
    let header = [
        "Model Name",
        "Subjects",
        "Docs",
        "Entities",
        "Words",
        "F1",
        "Annotation Time(s)",
    ];
    let mut table = TextTable::new(&header);
    let instances = dataset.table.instance_count();
    table.row(cells![
        thor_run.system,
        "-",
        "-",
        instances,
        "-",
        format!("{thor:.2}"),
        0
    ]);
    let mut fig8: Vec<(String, f64, f64)> = Vec::new();
    for subjects in [1usize, 10, 15, 20, usize::MAX] {
        let docs = (subjects.saturating_mul(docs_per_subject)).min(dataset.train.len());
        let used = &dataset.train[..docs];
        // The last rung trains on every document: the shared LM-Human run.
        let trained = if subjects == usize::MAX {
            subjects
        } else {
            docs
        };
        let f1 = cx.run(&LmHuman(trained)).report.f1;
        let stats = corpus_stats(used);
        let effort = model.estimate(used);
        let label = format!("LM-Human-{}", stats.subjects.min(subjects));
        let secs = format!("{:.0}", effort.max_seconds);
        let (subjects, docs, entities) = (stats.subjects, stats.documents, stats.entities);
        table.row(cells![
            label,
            subjects,
            docs,
            entities,
            stats.words,
            format!("{f1:.2}"),
            secs
        ]);
        fig8.push((label, effort.max_seconds, f1));
    }
    out!(o, "{}", table.render());
    let fig8_title = "[Fig. 8] annotation time (s, per annotator) vs F1; THOR reference =";
    out!(o, "{fig8_title} {thor:.2} at 0s:");
    let mut t = TextTable::new(&["Model", "Annotation Time(s)", "F1", "Beats THOR?"]);
    for (label, secs, f1) in &fig8 {
        let beats = if *f1 > thor { "yes" } else { "no" };
        t.row(cells![
            label,
            format!("{secs:.0}"),
            format!("{f1:.2}"),
            beats
        ]);
    }
    out!(o, "{}", t.render());
    match fig8.iter().find(|(_, _, f1)| *f1 > thor) {
        Some((label, secs, _)) => {
            let hours = secs / 3600.0;
            out!(
                o,
                "crossover: {label} ({hours:.1} hours of annotation per annotator)"
            )
        }
        None => out!(o, "no crossover within the ladder at this scale"),
    }
    o + "
Paper reference (Table X): THOR tau=0.7 F1 0.56 at zero annotation;
LM-Human-1 0.32 (12,649s) -> LM-Human-10 0.47 -> LM-Human-15 0.55 ->
LM-Human-20 0.60 (196,170s, the crossover, ~55h/annotator) ->
LM-Human-240 0.66 (2,194,608s).
"
}

/// **Table XI + Fig. 9** — generalizability on the Résumé dataset. Per
/// the paper, LM-Human trains on the Résumé train split, which is what
/// makes it collapse on the unseen domain.
fn table11(cx: &mut Ctx) -> String {
    counts(
        cx,
        "[Table XI reproduction] Résumé generalizability",
        true,
        "Fig. 9",
        "Paper reference (Table XI, gold 2140): THOR tau=1.0 2541/1244/1297 (.33/.40/.36) |
Baseline 1102/304/798 (.15/.08/.10) | LM-SD 1045/529/516 (.26/.12/.17) |
GPT-4 2130/1030/1100 (.42/.38/.40) | UniNER 312/185/127 (.51/.07/.12) |
LM-Human 506/426/80 (.71/.17/.27). Shape: THOR keeps the best recall and TP
count on the unseen domain; UniNER collapses; LM/LM-SD recall drops hard.
",
    )
}

/// **Fig. 10** — per-concept F1 on the Résumé dataset (the paper's
/// spider graph), as a matrix plus a per-concept winner column.
fn fig10(cx: &mut Ctx) -> String {
    let mut o = titled("[Fig. 10 reproduction] per-concept F1, Résumé", cx.scale);
    let mut systems = vec![Thor(0.8)];
    systems.extend(competitors());
    let outcomes = cx.runs(&systems);
    let mut header = vec!["Concept"];
    header.extend(outcomes.iter().map(|out| out.system.as_str()));
    header.push("Winner");
    let mut table = TextTable::new(&header);
    let names = concepts(&cx.dataset());
    let mut thor_wins = 0;
    for name in &names {
        let mut row = vec![name.clone()];
        let mut best = ("", -1.0);
        for out in &outcomes {
            let f1 = concept(&out.report, name).map_or(0.0, |c| c.f1);
            row.push(format!("{f1:.2}"));
            if f1 > best.1 {
                best = (out.system.as_str(), f1);
            }
        }
        thor_wins += usize::from(best.0.starts_with("THOR"));
        row.push(best.0.to_string());
        table.row(row);
    }
    out!(o, "{}", table.render());
    let of = names.len();
    out!(
        o,
        "THOR wins or ties {thor_wins} of {of} concepts at this scale/seed.\n"
    );
    o + "Paper reference (Fig. 10 shape): THOR outperforms or matches the competitors
in 6 of 12 classes with the most *balanced* per-concept profile; GPT-4 is
strong only on 3 generic classes (names, universities, companies) and nearly
zero on 'Worked As' and 'Years of Experience'.
"
}

/// **Supplementary** — every system scored under all four SemEval-2013
/// schemas (strict / exact / partial / ent_type) on Disease A–Z.
fn schemas(cx: &mut Ctx) -> String {
    let gold = gold_annotations(&cx.dataset(), Split::Test);
    let mut o = titled("[Supplementary] four-schema F1, Disease A-Z", cx.scale);
    let mut systems = vec![Thor(0.7), Thor(0.8)];
    systems.extend(competitors());
    let mut table = TextTable::new(&["Model", "strict", "exact", "partial", "ent_type"]);
    for out in cx.runs(&systems) {
        let s = schema_scores(&to_annotations(&out.predictions), &gold);
        let [strict, exact, partial, ent_type] =
            [s.strict, s.exact, s.partial, s.ent_type].map(|score| format!("{:.3}", score.f1));
        table.row(cells![out.system, strict, exact, partial, ent_type]);
    }
    out!(o, "{}", table.render());
    o + "Reading: strict ≤ exact ≤ partial always; ent_type − strict is the
boundary-sloppiness gap, exact − strict the labeling-confusion gap.
"
}

/// `(recognized, total)` gold entities of `system` per word-offset bucket
/// (0–1k, 1k–2k, 2k+) of the first occurrence of each entity's first
/// word.
pub fn window_recall(cx: &mut Ctx, system: &System) -> [(usize, usize); 3] {
    let dataset = cx.dataset();
    let bucket_of = |offset: usize| match offset {
        0..=1023 => 0,
        1024..=2047 => 1,
        _ => 2,
    };
    let mut bucket: HashMap<(String, String, String), usize> = HashMap::new();
    let mut gold: Vec<Annotation> = Vec::new();
    for doc in &dataset.test {
        let words: Vec<String> = doc
            .doc
            .text
            .split_whitespace()
            .map(thor_text::normalize_phrase)
            .collect();
        for g in &doc.gold {
            let first =
                thor_text::normalize_phrase(g.phrase.split_whitespace().next().unwrap_or(""));
            let offset = words.iter().position(|w| *w == first).unwrap_or(0);
            let ann = Annotation::new(doc.doc.id.clone(), &g.concept, &g.phrase);
            bucket
                .entry((ann.doc_id.clone(), ann.concept.clone(), ann.phrase.clone()))
                .or_insert(bucket_of(offset));
            gold.push(ann);
        }
    }
    gold.sort_by(|a, b| {
        (&a.doc_id, &a.concept, &a.phrase).cmp(&(&b.doc_id, &b.concept, &b.phrase))
    });
    gold.dedup();
    let out = cx.run(system);
    let (aligned, _missing) = align(&to_annotations(&out.predictions), &gold);
    let recognized: HashSet<(&str, &str, &str)> = aligned
        .iter()
        .filter(|a| matches!(a.class, MatchClass::Correct | MatchClass::Partial))
        .filter_map(|a| a.gold.map(|gi| &gold[gi]))
        .map(|g| (g.doc_id.as_str(), g.concept.as_str(), g.phrase.as_str()))
        .collect();
    let mut counts = [(0, 0); 3];
    for ((doc, concept, phrase), &b) in &bucket {
        counts[b].0 +=
            usize::from(recognized.contains(&(doc.as_str(), concept.as_str(), phrase.as_str())));
        counts[b].1 += 1;
    }
    counts
}

/// **Supplementary** — the context-window effect the paper reports for
/// UniversalNER (2,048 tokens at most): recall by where in the document
/// the gold entity sits, for the window-limited simulated UniNER, the
/// window-free simulated GPT-4, and THOR, which reads everything.
fn context_window(cx: &mut Ctx) -> String {
    let mut o = String::new();
    let longest = cx.dataset().test.iter().map(|d| d.doc.word_count()).max();
    let title = "[Supplementary] context-window effect; longest test doc:";
    out!(o, "{title} {} words\n", longest.unwrap_or(0));
    let mut table = TextTable::new(&["Model", "R @0-1k", "R @1k-2k", "R @2k+"]);
    for system in [UniNer, Gpt4, Thor(0.8)] {
        let [near, middle, far] = window_recall(cx, &system).map(|(hit, total)| match total {
            0 => "-".to_string(),
            _ => format!("{:.2}", hit as f64 / total as f64),
        });
        table.row(cells![system.name(), near, middle, far]);
    }
    out!(o, "{}", table.render());
    o + "Expected shape: the 2,048-token UniNER profile loses everything past its
window; GPT-4 (16k window) and THOR (reads the whole document) do not.
"
}

/// An ablation's output: its title, a table with per variant its label
/// cells, P/R/F1 to three decimals and, when `header` has a column left
/// for it, the prediction count, then how to read it.
fn ablation(
    cx: &mut Ctx,
    title: &str,
    header: &[&str],
    variants: Vec<(Vec<String>, System)>,
    reading: &str,
) -> String {
    let mut table = TextTable::new(header);
    for (mut row, system) in variants {
        let out = cx.run(&system);
        row.extend(prf(&out.report, 3));
        if header.len() > row.len() {
            row.push(out.report.predicted_total.to_string());
        }
        table.row(row);
    }
    titled(title, cx.scale) + &table.render() + "\n" + reading
}

/// **Ablation: refinement scores.** Algorithm 1 averages semantic
/// similarity, word-level Jaccard and character-level gestalt; drop each
/// component (and each pair) and re-measure.
fn abl_scores(cx: &mut Ctx) -> String {
    let variants = [
        ("semantic+word+char (paper)", 1.0, 1.0, 1.0),
        ("semantic only", 1.0, 0.0, 0.0),
        ("word only", 0.0, 1.0, 0.0),
        ("char only", 0.0, 0.0, 1.0),
        ("no semantic", 0.0, 1.0, 1.0),
        ("no word", 1.0, 0.0, 1.0),
        ("no char", 1.0, 1.0, 0.0),
    ]
    .map(|(label, semantic, word, char)| {
        let weights = ScoreWeights {
            semantic,
            word,
            char,
        };
        let system = thor_with(0.7, &format!("scores: {label}"), |c| c.weights = weights);
        (cells![label], system)
    });
    ablation(
        cx,
        "[Ablation] refinement score components, Disease A-Z, tau=0.7",
        &["Scoring", "P", "R", "F1"],
        variants.into(),
        "Reading: differences are small because concept assignment is already decided
by the matcher's cluster ranking — the refinement scores only arbitrate
between candidate subphrases of one noun phrase. The combined score is
within noise of the best single score while being robust to each component's
failure mode (semantic: out-of-vocabulary heads; word/char: cross-concept
surface collisions such as the paper's 'blood' vs 'blood clot').
",
    )
}

/// **Ablation: τ-expansion.** Seeds-only fine-tuning (`max_expansion =
/// 0`) against the full expansion at τ 0.5, 0.7 and 0.9.
fn abl_expansion(cx: &mut Ctx) -> String {
    let mut variants = Vec::new();
    for tau in [0.5, 0.7, 0.9] {
        for (label, max) in [("on (200)", 200), ("off (seeds only)", 0)] {
            variants.push((
                cells![format!("{tau:.1}"), label],
                expansion_variant(tau, max),
            ));
        }
    }
    ablation(
        cx,
        "[Ablation] seed expansion on/off, Disease A-Z",
        &["tau", "expansion", "P", "R", "F1", "predictions"],
        variants,
        "Expected shape: at low tau, expansion raises recall (unknown instances are
reachable through expanded representatives) at some precision cost; with
expansion off, the tau dial loses most of its recall range.
",
    )
}

/// **Ablation: noun-phrase chunking** against naive token n-grams as the
/// candidate generator. The time each takes is in `timing.txt`.
fn abl_np(cx: &mut Ctx) -> String {
    let mut variants = Vec::new();
    for tau in [0.6, 0.8] {
        for (label, np) in [("noun phrases (paper)", true), ("n-grams", false)] {
            variants.push((cells![format!("{tau:.1}"), label], np_variant(tau, np)));
        }
    }
    ablation(
        cx,
        "[Ablation] NP chunking vs naive n-grams, Disease A-Z",
        &["tau", "candidates", "P", "R", "F1", "pred"],
        variants,
        "Expected shape: n-gram candidate generation costs more time (more phrases to
match) and loses precision (candidates that cross phrase boundaries), while
recall changes little — the NP chunker already covers the entity carriers.
",
    )
}

/// **Ablation: document segmentation** — the three modes of associating
/// sentences with subject instances.
fn abl_segment(cx: &mut Ctx) -> String {
    let variants = [
        (
            "mention + carry-forward (paper)",
            SegmentationMode::MentionCarryForward,
        ),
        ("mention only", SegmentationMode::MentionOnly),
        ("semantic only", SegmentationMode::SemanticOnly),
    ]
    .map(|(label, mode)| {
        let system = thor_with(0.7, &format!("segmentation: {label}"), |c| {
            c.segmentation = mode
        });
        (cells![label], system)
    });
    ablation(
        cx,
        "[Ablation] segmentation modes, Disease A-Z, tau=0.7",
        &["Segmentation", "P", "R", "F1", "pred"],
        variants.into(),
        "Expected shape: mention-only drops the sentences between anchors (recall
loss); semantic-only attribution is noisier than the carry-forward
heuristic on documents that discuss one subject at a time.
",
    )
}

/// **Extension: the paper's future work** — the contextual
/// false-positive gate ([`ThorConfig::context_gate`]) at the
/// recall-oriented end of the τ dial.
fn abl_context(cx: &mut Ctx) -> String {
    let mut variants = Vec::new();
    for tau in [0.5, 0.6, 0.7] {
        for gate in [None, Some(0.1), Some(0.2), Some(0.3)] {
            let label = gate.map_or("off".to_string(), |g| format!("{g:.1}"));
            let system = thor_with(tau, &format!("gate={label}"), |c| c.context_gate = gate);
            variants.push((cells![format!("{tau:.1}"), label], system));
        }
    }
    ablation(
        cx,
        "[Extension] contextual false-positive gate, Disease A-Z",
        &["tau", "gate", "P", "R", "F1", "pred"],
        variants,
        "Expected shape: a moderate gate trims spurious predictions (precision up)
at a small recall cost, with the best trade-off at the recall-oriented
low-tau settings the paper's future-work remark targets.
",
    )
}
