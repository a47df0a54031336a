//! `reproduce` — regenerate every table and figure of the paper's
//! evaluation (Tables III, V–XI, Figs. 5–10), the supplementary analyses
//! and the ablations, then check the paper's claims on the same outcomes.
//!
//! Usage: `reproduce [--seed N] [--out DIR]` (defaults: 42, `results`).
//!
//! Each experiment of the registry writes `DIR/<name>.txt`, a pure
//! function of (experiment, scale, seed): two runs give the same bytes.
//! The wall-clock of every run goes to `DIR/timing.txt` alone. Exit
//! status: 0 when every claim holds; 1 when one is violated, each named
//! on stderr; 2 on a bad option or a write error.

mod claims;
mod experiments;
mod lab;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use experiments::REGISTRY;
use lab::{Ctx, Lab};

const USAGE: &str = "usage: reproduce [--seed N] [--out DIR]";

/// `(seed, out)` from the command line.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(u64, PathBuf), String> {
    let (mut seed, mut out) = (42, PathBuf::from("results"));
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag != "--seed" && flag != "--out" {
            return Err(format!("unknown option `{flag}`; {USAGE}"));
        }
        let value = args
            .next()
            .ok_or(format!("{flag} needs a value; {USAGE}"))?;
        if flag == "--out" {
            out = value.into();
        } else {
            seed = value
                .parse()
                .map_err(|_| format!("--seed takes an unsigned integer, not `{value}`"))?;
        }
    }
    Ok((seed, out))
}

fn run(seed: u64, dir: &PathBuf) -> Result<bool, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, text: &str| {
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let started = Instant::now();
    let mut lab = Lab::new(seed);
    for exp in REGISTRY {
        let mut cx = Ctx {
            lab: &mut lab,
            corpus: exp.corpus,
            scale: exp.scale,
        };
        write(exp.name, &(exp.render)(&mut cx))?;
        eprintln!("wrote {}", dir.join(format!("{}.txt", exp.name)).display());
    }
    let wall = started.elapsed();
    let timing = format!(
        "Wall-clock of every run at seed {seed}, per corpus in the order it was\n\
         generated. Not compared: it varies from run to run and machine to\n\
         machine. Table V's Time column and Fig. 6 are the rows of Disease\n\
         A-Z at scale 1, abl_np's times the rows at scale 0.25. A `THOR\n\
         (tau=...)` row is derived off the sweep engine (derive + inference);\n\
         an ablation row fine-tunes afresh (fine-tune + inference).\n\n{}\
         battery wall-clock: {:.1}s\n",
        lab.timing(),
        wall.as_secs_f64()
    );
    write("timing", &timing)?;

    let mut holds = true;
    for (claim, verdict) in claims::check(&mut lab) {
        match verdict {
            Ok(()) => println!("holds     {}", claim.text),
            Err(why) => {
                holds = false;
                println!("VIOLATED  {}", claim.text);
                eprintln!("claim violated: {}: {why}", claim.text);
            }
        }
    }
    Ok(holds)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|(seed, out)| run(seed, &out));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<(u64, PathBuf), String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn options_default_and_parse() {
        assert_eq!(args(&[]).unwrap(), (42, PathBuf::from("results")));
        assert_eq!(
            args(&["--out", "x", "--seed", "7"]).unwrap(),
            (7, PathBuf::from("x"))
        );
        assert!(args(&["--scale", "1"]).unwrap_err().contains("--scale"));
        assert!(args(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(args(&["--seed", "-1"]).unwrap_err().contains("`-1`"));
    }

    #[test]
    fn registry_names_are_unique_and_match_the_committed_results() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let count = names.len();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate experiment names");

        let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut committed: Vec<String> = std::fs::read_dir(&results)
            .expect("results/ exists")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter_map(|f| f.strip_suffix(".txt").map(String::from))
            .filter(|stem| stem != "timing")
            .collect();
        committed.sort_unstable();
        assert_eq!(names, committed);
    }

    #[test]
    fn every_claim_names_a_registered_experiment() {
        for claim in claims::CLAIMS {
            experiments::experiment(claim.experiment);
        }
    }
}
