//! **BENCH_extract** — refinement-kernel benchmark: `refine_candidates`
//! (the allocation-free `thor_text::kernels` scoring path with the
//! score-bound early abandon) against the oracle
//! `refine_candidates_reference` (`jaccard_words`/`gestalt_similarity`
//! over every candidate) on the same Disease A–Z candidate lists.
//!
//! Emits `BENCH_extract.json` (selections/sec for both, pruned
//! fraction, speedup, end-to-end equivalence checks) to the working
//! directory and prints the same document to stdout. Before timing,
//! every candidate list is checked for *bit-exact* winner equality
//! against the oracle — the speedup claim is only meaningful because
//! the kernel path is a drop-in replacement — and a full enrich run is
//! compared byte-for-byte (CSV) between 1 and 4 threads.
//!
//! Usage: `bench_extract [--smoke]` (env: `THOR_SCALE`, `THOR_SEED`).
//! `--smoke` pins a small scale and few repetitions so CI can afford to
//! run it on every push; the full mode additionally enforces the ≥3×
//! speedup floor (smoke timings are too noisy to gate on).

use std::collections::BTreeMap;
use std::time::Instant;

use thor_bench::harness::{disease_dataset, scale_from_env, seed_from_env};
use thor_core::{refine_candidates, refine_candidates_reference, Thor, ThorConfig};
use thor_data::csv::to_csv;
use thor_datagen::Split;
use thor_match::CandidateSource;
use thor_obs::Json;
use thor_text::ScoreScratch;

/// Mid-sweep τ: representative clusters are at their paper-default size.
const TAU: f64 = 0.7;

/// Crude sentence split — the workload only needs realistic candidate
/// lists, not linguistically perfect boundaries.
fn sentences(text: &str) -> Vec<String> {
    text.split(['.', '!', '?'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (scale, reps) = if smoke {
        (0.1, 3)
    } else {
        (scale_from_env(), 10)
    };
    let dataset = disease_dataset(seed_from_env(), scale);
    let table = dataset.enrichment_table();
    let docs = dataset.documents(Split::Test);

    let config = ThorConfig::with_tau(TAU);
    let thor = Thor::new(dataset.store.clone(), config.clone());
    let matcher = thor.fine_tune(&table);

    // The refinement workload: one candidate list per sentence, exactly
    // what `extract_entities` hands to `refine_candidates`. Generation
    // runs once up front so the timed loops measure refinement alone.
    let lists: Vec<Vec<_>> = docs
        .iter()
        .flat_map(|d| sentences(&d.text))
        .map(|s| matcher.candidates(&s))
        .filter(|c| !c.is_empty())
        .collect();
    assert!(!lists.is_empty(), "empty workload");
    let candidates_total: usize = lists.iter().map(Vec::len).sum();

    // Correctness before speed: bit-exact winner equality per list,
    // accumulating the kernel's prune accounting along the way.
    let mut scratch = ScoreScratch::new();
    let (mut scored, mut pruned) = (0u64, 0u64);
    for list in &lists {
        let kernel = refine_candidates(list, &matcher, &config, &mut scratch);
        let reference = refine_candidates_reference(list, &config.weights);
        scored += kernel.scored;
        pruned += kernel.pruned;
        match (&kernel.best, &reference) {
            (None, None) => {}
            (Some((kc, ks)), Some((rc, rs))) => {
                assert_eq!(kc, rc, "kernel winner diverged from reference");
                assert_eq!(ks.to_bits(), rs.to_bits(), "winner score bits diverged");
            }
            other => panic!("winner presence diverged: {other:?}"),
        }
    }
    let pruned_fraction = pruned as f64 / (scored + pruned) as f64;

    let total = (lists.len() * reps) as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        for list in &lists {
            std::hint::black_box(refine_candidates_reference(list, &config.weights));
        }
    }
    let ref_rate = total / t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for _ in 0..reps {
        for list in &lists {
            std::hint::black_box(refine_candidates(list, &matcher, &config, &mut scratch));
        }
    }
    let kernel_rate = total / t0.elapsed().as_secs_f64();
    let speedup = kernel_rate / ref_rate;

    // End-to-end check: the enriched CSV must be byte-identical at 1
    // and 4 threads.
    let enrich_csv = |threads: usize| {
        let mut config = config.clone();
        config.threads = threads;
        to_csv(
            &Thor::new(dataset.store.clone(), config)
                .enrich(&table, &docs)
                .table,
        )
    };
    assert_eq!(
        enrich_csv(1),
        enrich_csv(4),
        "enrich CSV diverged between 1 and 4 threads"
    );

    let mut doc = BTreeMap::new();
    doc.insert("bench".into(), Json::Str("extract".into()));
    doc.insert(
        "mode".into(),
        Json::Str(if smoke { "smoke" } else { "full" }.into()),
    );
    doc.insert("tau".into(), Json::Float(TAU));
    doc.insert("scale".into(), Json::Float(scale));
    doc.insert("candidate_lists".into(), Json::UInt(lists.len() as u64));
    doc.insert("candidates".into(), Json::UInt(candidates_total as u64));
    doc.insert("reps".into(), Json::UInt(reps as u64));
    doc.insert("refine_scored".into(), Json::UInt(scored));
    doc.insert("refine_pruned".into(), Json::UInt(pruned));
    doc.insert("pruned_fraction".into(), Json::Float(pruned_fraction));
    doc.insert("reference_selections_per_sec".into(), Json::Float(ref_rate));
    doc.insert("kernel_selections_per_sec".into(), Json::Float(kernel_rate));
    doc.insert("speedup".into(), Json::Float(speedup));
    doc.insert("csv_byte_identical".into(), Json::Bool(true));
    let rendered = Json::Object(doc).render();
    std::fs::write("BENCH_extract.json", format!("{rendered}\n"))
        .expect("write BENCH_extract.json");
    println!("{rendered}");
    println!(
        "reference {ref_rate:.0} selections/s | kernel {kernel_rate:.0} selections/s | \
         speedup {speedup:.1}x | pruned {:.1}%",
        pruned_fraction * 100.0
    );
    if !smoke {
        assert!(
            speedup >= 3.0,
            "expected >=3x speedup over reference refinement, got {speedup:.2}x"
        );
    }
}
