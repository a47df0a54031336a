//! Property: the prepare-once/derive-many split is **invisible**.
//! For every random semantic space and every τ_base ≤ τ pair,
//! `PreparedMatcher::prepare(τ_base).matcher_at(τ)` is observationally
//! identical to a fresh `SimilarityMatcher::fine_tune(τ)` — the same
//! index layout, representative words per concept and vector bits, and
//! the same candidate lists for every phrase. This is the τ-monotonicity
//! contract the engine's sweep serving rests on: candidates collected
//! at the lowest τ, kept sorted by `(sim desc, word asc)`, filter +
//! truncate to exactly what a per-τ vocabulary rescan would find.

use proptest::prelude::*;

use thor_embed::SemanticSpaceBuilder;
use thor_match::{MatcherConfig, PreparedMatcher, SimilarityMatcher};

fn space(seed: u64, spread: f32) -> thor_embed::VectorStore {
    SemanticSpaceBuilder::new(24, seed)
        .spread(spread)
        .topic("alpha")
        .topic("beta")
        .correlated_topic("gamma", "beta", 0.3)
        .words("alpha", ["ape", "ant", "asp", "auk", "axolotl"])
        .words("beta", ["bee", "bat", "boa", "bug", "bison"])
        .words("gamma", ["gnu", "gar", "goa"])
        .generic_words(["elk", "owl", "old growth"])
        .build()
        .into_store()
}

fn concepts() -> Vec<(String, Vec<String>)> {
    vec![
        (
            "Alpha".to_string(),
            vec!["ape".to_string(), "ant".to_string()],
        ),
        (
            "Beta".to_string(),
            vec!["bee".to_string(), "bat".to_string()],
        ),
        ("Gamma".to_string(), vec!["gnu".to_string()]),
    ]
}

/// Exact (bit-level) equality of two fine-tuned matchers, observed
/// through their indexes and phrase matching: per concept the same
/// layout (name, first row, rows, seed rows), the same representative
/// words and vector bits, and the same row-sum bits.
fn assert_matchers_identical(derived: &SimilarityMatcher, fresh: &SimilarityMatcher, ctx: &str) {
    let (d, f) = (derived.index(), fresh.index());
    assert_eq!(d.concept_count(), f.concept_count(), "{ctx}");
    assert!(d.concept_layout().eq(f.concept_layout()), "{ctx}: layout");
    assert_eq!(d.row_count(), f.row_count(), "{ctx}");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for r in 0..d.row_count() {
        let (dw, fw) = (d.row_word(r), f.row_word(r));
        assert_eq!(dw, fw, "{ctx}: representative words");
        assert_eq!(
            bits(d.row(r)),
            bits(f.row(r)),
            "{ctx}: vector bits for {dw}"
        );
    }
    for ci in 0..d.concept_count() {
        assert_eq!(
            bits(d.rep_sum(ci)),
            bits(f.rep_sum(ci)),
            "{ctx}: row sum {ci}"
        );
    }
    for phrase in [
        "ape",
        "bee and boa",
        "gnu",
        "elk",
        "old growth",
        "unknown words here",
        "bison gar",
    ] {
        assert_eq!(
            derived.match_phrase(phrase),
            fresh.match_phrase(phrase),
            "{ctx}: match_phrase({phrase:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// matcher_at(τ) off a τ_base preparation == fresh fine_tune(τ),
    /// for every τ_base ≤ τ over random spaces, spreads, and expansion
    /// caps (truncation must agree too, so small caps are included).
    #[test]
    fn derived_matcher_equals_fresh_fine_tune(
        seed in 0u64..200,
        spread in 0.3f32..0.8,
        lo in 0usize..=10,
        hi_off in 0usize..=10,
        cap_idx in 0usize..4,
    ) {
        let max_expansion = [1usize, 2, 5, 200][cap_idx];
        let tau_base = lo as f64 / 10.0;
        let tau = ((lo + hi_off).min(10)) as f64 / 10.0;
        let store = std::sync::Arc::new(space(seed, spread));
        let base = MatcherConfig { tau: tau_base, max_expansion, ..MatcherConfig::default() };
        let at = MatcherConfig { tau, max_expansion, ..MatcherConfig::default() };

        let prep = PreparedMatcher::prepare(concepts(), std::sync::Arc::clone(&store), base);
        let derived = prep.matcher_at(at.clone());
        let fresh = SimilarityMatcher::fine_tune(&concepts(), store, at);
        assert_matchers_identical(
            &derived,
            &fresh,
            &format!("seed={seed} spread={spread:.2} base={tau_base} tau={tau} cap={max_expansion}"),
        );
    }

    /// One preparation at the sweep's lowest τ serves the whole paper
    /// grid {0.5 … 1.0} identically to six independent fine-tunes.
    #[test]
    fn one_preparation_serves_the_whole_sweep(seed in 0u64..100) {
        let store = std::sync::Arc::new(space(seed, 0.5));
        let prep = PreparedMatcher::prepare(
            concepts(),
            std::sync::Arc::clone(&store),
            MatcherConfig::with_tau(0.5),
        );
        for t in 5..=10 {
            let tau = t as f64 / 10.0;
            let derived = prep.matcher_at(MatcherConfig::with_tau(tau));
            let fresh = SimilarityMatcher::fine_tune(
                &concepts(),
                std::sync::Arc::clone(&store),
                MatcherConfig::with_tau(tau),
            );
            assert_matchers_identical(&derived, &fresh, &format!("seed={seed} tau={tau}"));
        }
    }

    /// Persist-shaped round trip at the matcher layer: rebuilding via
    /// `from_parts` with the serialized candidate lists yields the same
    /// derivations as the original preparation (what `PreparedEngine`
    /// save/load does, minus the bytes).
    #[test]
    fn from_parts_round_trip_preserves_derivations(seed in 0u64..100, t in 5usize..=10) {
        let tau = t as f64 / 10.0;
        let store = std::sync::Arc::new(space(seed, 0.5));
        let prep = PreparedMatcher::prepare(
            concepts(),
            std::sync::Arc::clone(&store),
            MatcherConfig::with_tau(0.5),
        );
        let rebuilt = PreparedMatcher::from_parts(
            concepts(),
            std::sync::Arc::clone(&store),
            prep.base().clone(),
            prep.candidates().to_vec(),
        );
        let a = prep.matcher_at(MatcherConfig::with_tau(tau));
        let b = rebuilt.matcher_at(MatcherConfig::with_tau(tau));
        assert_matchers_identical(&a, &b, &format!("seed={seed} tau={tau}"));
    }
}

/// Below-base derivation is a contract violation and must panic loudly
/// (the engine layer handles it by re-preparing instead).
#[test]
#[should_panic(expected = "below prepared base tau")]
fn matcher_at_below_base_tau_panics() {
    let store = space(1, 0.5);
    let prep = PreparedMatcher::prepare(concepts(), store, MatcherConfig::with_tau(0.7));
    let _ = prep.matcher_at(MatcherConfig::with_tau(0.5));
}
