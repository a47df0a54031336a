//! Cross-system integration tests: every comparison system runs on the
//! same generated dataset through the shared harness, and the relations
//! the paper's evaluation depends on hold.

use thor_baselines::{Extractor, LlmProfile, SimulatedLlm};
use thor_bench::harness::{disease_dataset, gold_annotations, run_system, System};
use thor_datagen::Split;

fn dataset() -> thor_datagen::GeneratedDataset {
    disease_dataset(42, 0.1)
}

#[test]
fn all_systems_produce_valid_reports() {
    let d = dataset();
    let systems = [
        System::Thor(0.7),
        System::Baseline,
        System::LmSd,
        System::LmHuman(usize::MAX),
        System::Gpt4,
        System::UniNer,
    ];
    for s in systems {
        let out = run_system(&s, &d);
        let r = &out.report;
        assert!(
            (0.0..=1.0).contains(&r.precision),
            "{}: P {}",
            out.system,
            r.precision
        );
        assert!(
            (0.0..=1.0).contains(&r.recall),
            "{}: R {}",
            out.system,
            r.recall
        );
        assert!((0.0..=1.0).contains(&r.f1), "{}: F1 {}", out.system, r.f1);
        assert_eq!(
            r.tp + r.fp,
            r.predicted_total,
            "{}: count identity",
            out.system
        );
        assert!(
            r.predicted_total > 0,
            "{} produced no predictions",
            out.system
        );
    }
}

#[test]
fn thor_prediction_volume_monotone_in_tau() {
    let d = dataset();
    let mut prev = usize::MAX;
    for tau10 in 5..=10 {
        let tau = tau10 as f64 / 10.0;
        let out = run_system(&System::Thor(tau), &d);
        assert!(
            out.report.predicted_total <= prev,
            "predictions must not grow with tau (tau={tau}: {} > {prev})",
            out.report.predicted_total
        );
        prev = out.report.predicted_total;
    }
}

#[test]
fn thor_dominates_baseline_on_f1() {
    let d = dataset();
    let thor = run_system(&System::Thor(0.7), &d);
    let baseline = run_system(&System::Baseline, &d);
    assert!(
        thor.report.f1 > baseline.report.f1,
        "THOR {} must beat exact matching {}",
        thor.report.f1,
        baseline.report.f1
    );
    assert!(
        thor.report.recall > baseline.report.recall,
        "THOR's recall advantage is the headline claim"
    );
}

#[test]
fn baseline_predictions_come_from_the_dictionary() {
    let d = dataset();
    let out = run_system(&System::Baseline, &d);
    let table = d.enrichment_table();
    for p in &out.predictions {
        let known = table
            .column_values(&p.concept)
            .iter()
            .any(|v| thor_text::normalize_phrase(v) == p.phrase);
        assert!(known, "baseline invented `{}` ({})", p.phrase, p.concept);
    }
}

#[test]
fn lm_human_improves_with_more_annotation() {
    let d = dataset();
    let small = run_system(&System::LmHuman(6), &d);
    let large = run_system(&System::LmHuman(usize::MAX), &d);
    assert!(
        large.report.f1 > small.report.f1,
        "more annotated docs must help ({} -> {})",
        small.report.f1,
        large.report.f1
    );
}

#[test]
fn simulated_llms_are_seed_stable() {
    let d = dataset();
    let a = run_system(&System::Gpt4, &d);
    let b = run_system(&System::Gpt4, &d);
    assert_eq!(a.report.predicted_total, b.report.predicted_total);
    assert_eq!(a.report.tp, b.report.tp);
}

#[test]
fn simulated_llms_take_the_seed_of_their_dataset() {
    let d7 = disease_dataset(7, 0.1);
    assert_eq!(d7.seed, 7);
    let docs = d7.documents(Split::Test);
    let table = d7.enrichment_table();
    let expect = |profile| SimulatedLlm::new(profile, &d7.test).extract(&table, &docs);
    assert_eq!(
        run_system(&System::Gpt4, &d7).predictions,
        expect(LlmProfile::gpt4(7))
    );
    assert_eq!(
        run_system(&System::UniNer, &d7).predictions,
        expect(LlmProfile::uniner(7))
    );
    assert_ne!(expect(LlmProfile::gpt4(7)), expect(LlmProfile::gpt4(42)));
}

#[test]
fn gold_annotations_score_perfectly() {
    // Oracle consistency: evaluating the gold set against itself is 1.0.
    let d = dataset();
    let gold = gold_annotations(&d, Split::Test);
    let report = thor_eval::evaluate(&gold, &gold);
    assert_eq!(report.f1, 1.0);
    assert_eq!(report.spurious, 0);
    assert_eq!(report.missing, 0);
}

#[test]
fn uniner_misses_composition_entirely() {
    // The paper's Table VII observation, reproduced by the profile.
    let d = dataset();
    let out = run_system(&System::UniNer, &d);
    if let Some(c) = out
        .report
        .per_concept
        .iter()
        .find(|c| c.concept == "composition")
    {
        assert_eq!(c.tp, 0, "UniNER must not detect Composition entities");
    }
}
