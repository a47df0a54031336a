//! The registry's shared context: each (corpus, scale) is generated once
//! per seed, and each system runs on it once. Every experiment renders
//! from these shared outcomes, and their wall-clock is kept apart for
//! `timing.txt`.

use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Duration;

use thor_bench::harness::{
    disease_dataset, prepare_engine, resume_dataset, run_system, sweep_engine, tau_sweep,
    RunOutcome, System,
};
use thor_bench::{fmt_duration, TextTable};
use thor_datagen::{generate, DatasetSpec, GeneratedDataset};

/// A corpus family the experiments run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// Disease A–Z.
    Disease,
    /// Résumé.
    Resume,
    /// Résumé with 25 subjects bundled per document (~2.6k words), so
    /// text runs past a 2,048-token window; at least scale 0.5.
    LongResume,
}

impl Corpus {
    fn generate(self, seed: u64, scale: f64) -> GeneratedDataset {
        match self {
            Corpus::Disease => disease_dataset(seed, scale),
            Corpus::Resume => resume_dataset(seed, scale),
            Corpus::LongResume => {
                let mut spec = DatasetSpec::resume(seed, scale.max(0.5));
                spec.subjects_per_doc = 25;
                generate(&spec)
            }
        }
    }
}

/// One generated corpus and every system run on it so far.
struct Bench {
    corpus: Corpus,
    scale: f64,
    dataset: Rc<GeneratedDataset>,
    /// Build time of the engine the THOR τ sweep serves off, once run.
    engine_build: Option<Duration>,
    /// Outcomes in run order, by [`run_key`].
    runs: Vec<(String, Rc<RunOutcome>)>,
}

impl Bench {
    fn find(&self, key: &str) -> Option<Rc<RunOutcome>> {
        self.runs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, out)| out.clone())
    }

    fn run(&mut self, system: &System) -> Rc<RunOutcome> {
        let key = run_key(system);
        if matches!(system, System::Thor(_)) && self.engine_build.is_none() {
            // The whole τ sweep serves off one engine built at its lowest τ.
            let taus: Vec<f64> = tau_sweep().collect();
            let engine = prepare_engine(&self.dataset, taus[0]);
            self.engine_build = Some(engine.prepare_time());
            for (tau, out) in taus.iter().zip(sweep_engine(&engine, &self.dataset, &taus)) {
                self.runs.push((run_key(&System::Thor(*tau)), Rc::new(out)));
            }
        }
        if let Some(out) = self.find(&key) {
            return out;
        }
        let out = Rc::new(run_system(system, &self.dataset));
        self.runs.push((key, out.clone()));
        out
    }
}

/// A THOR ablation variant is keyed by its full configuration, so
/// variants that share a label stay apart and equal ones run once. It runs
/// afresh, apart from the sweep, so every ablation row's time includes
/// its fine-tuning like the others'. Other systems go by name.
fn run_key(system: &System) -> String {
    match system {
        System::ThorWith(config, _) => format!("{config:?}"),
        other => other.name(),
    }
}

/// Every corpus generated and every system run for one seed.
pub struct Lab {
    seed: u64,
    benches: Vec<Bench>,
}

impl Lab {
    /// An empty context for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            benches: Vec::new(),
        }
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn bench(&mut self, corpus: Corpus, scale: f64) -> &mut Bench {
        let at = self
            .benches
            .iter()
            .position(|b| b.corpus == corpus && b.scale == scale);
        let i = at.unwrap_or_else(|| {
            self.benches.push(Bench {
                corpus,
                scale,
                dataset: Rc::new(corpus.generate(self.seed, scale)),
                engine_build: None,
                runs: Vec::new(),
            });
            self.benches.len() - 1
        });
        &mut self.benches[i]
    }

    /// The corpus at `scale`, generated on first use.
    pub fn dataset(&mut self, corpus: Corpus, scale: f64) -> Rc<GeneratedDataset> {
        self.bench(corpus, scale).dataset.clone()
    }

    /// `system`'s outcome on the corpus at `scale`, run on first use.
    pub fn run(&mut self, corpus: Corpus, scale: f64, system: &System) -> Rc<RunOutcome> {
        self.bench(corpus, scale).run(system)
    }

    /// The wall-clock of every run, one table per corpus in the order
    /// they were generated.
    pub fn timing(&self) -> String {
        let mut out = String::new();
        for bench in &self.benches {
            let _ = writeln!(
                out,
                "== {} ({:?}), scale={} ==",
                bench.dataset.name, bench.corpus, bench.scale
            );
            if let Some(build) = bench.engine_build {
                let _ = writeln!(
                    out,
                    "THOR sweep engine build: {}",
                    fmt_duration(Some(build))
                );
            }
            let mut table = TextTable::new(&["System", "Time"]);
            for (_, run) in &bench.runs {
                table.row(vec![run.system.clone(), fmt_duration(run.time)]);
            }
            let _ = writeln!(out, "{}", table.render());
        }
        out
    }
}

/// One experiment's view of the [`Lab`]: its corpus at its scale.
pub struct Ctx<'a> {
    /// The shared context.
    pub lab: &'a mut Lab,
    /// The experiment's corpus.
    pub corpus: Corpus,
    /// The experiment's declared scale.
    pub scale: f64,
}

impl Ctx<'_> {
    /// The experiment's dataset.
    pub fn dataset(&mut self) -> Rc<GeneratedDataset> {
        self.lab.dataset(self.corpus, self.scale)
    }

    /// `system`'s outcome on the experiment's dataset.
    pub fn run(&mut self, system: &System) -> Rc<RunOutcome> {
        self.lab.run(self.corpus, self.scale, system)
    }

    /// The outcomes of `systems`, in order.
    pub fn runs(&mut self, systems: &[System]) -> Vec<Rc<RunOutcome>> {
        systems.iter().map(|s| self.run(s)).collect()
    }
}
