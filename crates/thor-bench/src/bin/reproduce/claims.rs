//! The paper's shape claims, checked on the registry's outcomes after
//! every file is written. Each claim reads the corpus and scale of the
//! experiment it belongs to, so it sees the runs that experiment's file
//! was rendered from and runs nothing new.

use std::rc::Rc;

use thor_bench::harness::{tau_sweep, RunOutcome, System};

use crate::experiments::{competitors, expansion_variant, experiment, np_variant, window_recall};
use crate::lab::{Ctx, Lab};

/// One claim of the paper, as a check.
pub struct Claim {
    /// What the paper claims.
    pub text: &'static str,
    /// The experiment whose outcomes it reads.
    pub experiment: &'static str,
    /// `Err` says what breaks the claim.
    check: fn(&mut Ctx) -> Result<(), String>,
}

/// Every claim this reproduction satisfies at seed 42.
pub const CLAIMS: &[Claim] = &[
    Claim {
        text: "recall is non-increasing in tau (Table V)",
        experiment: "exp_table5",
        check: recall_falls_with_tau,
    },
    Claim {
        text: "THOR's best F1 beats Baseline, LM-SD, GPT-4 and UniNER; only LM-Human is above it (Table V)",
        experiment: "exp_table5",
        check: thor_best_f1_is_second_only_to_lm_human,
    },
    Claim {
        text: "THOR tau=0.8 has the highest TP of every system but LM-Human (Table VI)",
        experiment: "exp_table6",
        check: thor_top_tp_but_lm_human,
    },
    Claim {
        text: "THOR tau=0.8 has the best recall and TP on Résumé (Table XI)",
        experiment: "exp_table11",
        check: thor_best_recall_and_tp,
    },
    Claim {
        text: "NP chunking beats n-grams on precision at both tau (abl_np)",
        experiment: "abl_np",
        check: np_chunking_is_more_precise,
    },
    Claim {
        text: "recall with expansion off is at most recall with it on, at tau 0.7 (abl_expansion)",
        experiment: "abl_expansion",
        check: expansion_never_costs_recall,
    },
    Claim {
        text: "UniNER recall is 0.00 past word 2,048 (exp_context_window)",
        experiment: "exp_context_window",
        check: uniner_reads_nothing_past_its_window,
    },
];

/// Check every claim in order, each against its experiment's outcomes.
pub fn check(lab: &mut Lab) -> Vec<(&'static Claim, Result<(), String>)> {
    CLAIMS
        .iter()
        .map(|claim| {
            let exp = experiment(claim.experiment);
            let mut cx = Ctx {
                lab: &mut *lab,
                corpus: exp.corpus,
                scale: exp.scale,
            };
            (claim, (claim.check)(&mut cx))
        })
        .collect()
}

fn sweep(cx: &mut Ctx) -> Vec<Rc<RunOutcome>> {
    cx.runs(&tau_sweep().map(System::Thor).collect::<Vec<_>>())
}

fn recall_falls_with_tau(cx: &mut Ctx) -> Result<(), String> {
    match sweep(cx)
        .windows(2)
        .find(|w| w[1].report.recall > w[0].report.recall)
    {
        Some(w) => Err(format!(
            "{} recall {:.3} > {} recall {:.3}",
            w[1].system, w[1].report.recall, w[0].system, w[0].report.recall
        )),
        None => Ok(()),
    }
}

fn thor_best_f1_is_second_only_to_lm_human(cx: &mut Ctx) -> Result<(), String> {
    let best = sweep(cx)
        .into_iter()
        .max_by(|a, b| a.report.f1.total_cmp(&b.report.f1))
        .expect("a non-empty sweep");
    for system in competitors() {
        let out = cx.run(&system);
        let above = out.report.f1 > best.report.f1;
        if above != matches!(system, System::LmHuman(_)) {
            return Err(format!(
                "{} F1 {:.3} is {} {}'s {:.3}",
                out.system,
                out.report.f1,
                if above { "above" } else { "not above" },
                best.system,
                best.report.f1
            ));
        }
    }
    Ok(())
}

/// `Err` names the first of `others` whose `value` reaches THOR τ=0.8's.
fn thor_leads(
    cx: &mut Ctx,
    others: Vec<System>,
    what: &str,
    value: fn(&RunOutcome) -> f64,
) -> Result<(), String> {
    let thor = value(&cx.run(&System::Thor(0.8)));
    for system in others {
        let out = cx.run(&system);
        if value(&out) >= thor {
            return Err(format!(
                "{} {what} {} reaches THOR (tau=0.8)'s {thor}",
                out.system,
                value(&out)
            ));
        }
    }
    Ok(())
}

/// The systems of Tables VI and XI other than THOR τ=0.8.
fn rivals() -> Vec<System> {
    let mut systems = vec![System::Thor(0.9), System::Thor(1.0)];
    systems.extend(competitors());
    systems
}

fn thor_top_tp_but_lm_human(cx: &mut Ctx) -> Result<(), String> {
    let mut others = rivals();
    others.retain(|s| !matches!(s, System::LmHuman(_)));
    thor_leads(cx, others, "TP", |o| o.report.tp as f64)
}

fn thor_best_recall_and_tp(cx: &mut Ctx) -> Result<(), String> {
    thor_leads(cx, rivals(), "recall", |o| o.report.recall)?;
    thor_leads(cx, rivals(), "TP", |o| o.report.tp as f64)
}

fn np_chunking_is_more_precise(cx: &mut Ctx) -> Result<(), String> {
    for tau in [0.6, 0.8] {
        let np = cx.run(&np_variant(tau, true)).report.precision;
        let ngrams = cx.run(&np_variant(tau, false)).report.precision;
        if np <= ngrams {
            return Err(format!(
                "tau={tau}: noun phrases P {np:.3} <= n-grams P {ngrams:.3}"
            ));
        }
    }
    Ok(())
}

fn expansion_never_costs_recall(cx: &mut Ctx) -> Result<(), String> {
    let on = cx.run(&expansion_variant(0.7, 200)).report.recall;
    let off = cx.run(&expansion_variant(0.7, 0)).report.recall;
    if off > on {
        return Err(format!("recall off {off:.3} > on {on:.3}"));
    }
    Ok(())
}

fn uniner_reads_nothing_past_its_window(cx: &mut Ctx) -> Result<(), String> {
    match window_recall(cx, &System::UniNer)[2] {
        (0, total) if total > 0 => Ok(()),
        (hit, total) => Err(format!(
            "UniNER recognized {hit} of {total} gold entities past word 2,048"
        )),
    }
}
