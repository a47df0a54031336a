//! The hot-reload state machine: validate a candidate engine artifact,
//! then swap it into the serving [`EngineSlot`] — or reject it by name
//! and keep the old generation serving.
//!
//! The invariant is **never swap-to-broken**: every step that can fail
//! happens *before* the swap, and the swap itself is the last,
//! injectable step. The load is bracketed by two reads of the artifact
//! chain's *stamps* (each file's re-verified section-directory checksum
//! and its length): if a file changed between them — an in-place
//! rewrite racing the load — the candidate is rejected even though each
//! individual read looked sound. Artifacts produced by
//! `thor_fault::atomic_write` (temp + fsync + rename + parent fsync)
//! never trip this; it exists to catch non-atomic rewrites and
//! truncation.
//!
//! Failpoints `reload_open`, `reload_validate` and `swap` make each
//! step of the machine injectable for the reload chaos suite.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use thor_core::{EngineGeneration, EngineSlot, MapMode, PreparedEngine};
use thor_fault::{fail_point, SectionChain, ThorError, ThorResult};
use thor_obs::PipelineMetrics;

/// How a serving process reloads its engine.
#[derive(Debug, Clone)]
pub struct ReloadConfig {
    /// The artifact path reloads re-open (the same path `--engine`
    /// loaded at startup).
    pub path: PathBuf,
    /// Backing mode for reloaded engines (same as the startup load).
    pub mode: MapMode,
    /// Re-applied `--threads` override, if any.
    pub threads: Option<usize>,
    /// `--watch-engine` poll interval; `None` reloads on SIGHUP only.
    pub poll: Option<Duration>,
}

/// The stamps of every file in a delta chain, base first: each file's
/// path, its section-directory checksum and its total length. The
/// directory checksum covers every section's name, layout and payload
/// checksum, and the chain open that reads it has re-verified it over
/// the directory bytes, so two stamp vectors compare equal only if
/// every file of the chain was identical at both reads.
pub type ChainStamps = Vec<(PathBuf, u64, usize)>;

/// Stamp every file of the delta chain under `path`, base first: the
/// reload path's re-verification of the artifact before any swap.
/// Opening the chain validates each file's magic, header checksum and
/// recomputed directory checksum, and walks (and link-checks) a delta's
/// parents, so a chain whose base was swapped underneath is already
/// rejected here. It is cheap: the files are mapped, and only their
/// headers and directories are read.
pub fn chain_stamps(path: &Path) -> ThorResult<ChainStamps> {
    let chain = SectionChain::open(path, MapMode::Mapped)?;
    Ok(chain
        .paths()
        .iter()
        .zip(chain.files())
        .map(|(p, f)| (p.clone(), f.dir_checksum(), f.total_len()))
        .collect())
}

/// Load and validate a candidate engine from `cfg.path`, re-applying
/// the serve-time overrides and the live metrics handle. Returns the
/// candidate plus the stamp it was loaded under.
fn load_candidate(
    cfg: &ReloadConfig,
    metrics: &PipelineMetrics,
) -> ThorResult<(PreparedEngine, ChainStamps)> {
    fail_point("reload_open")?;
    let before = chain_stamps(&cfg.path)?;
    let mut engine = PreparedEngine::load_with(&cfg.path, cfg.mode)?;
    fail_point("reload_validate")?;
    // Re-stamp after the load: a file that changed underneath the load
    // may have produced a self-consistent-looking read of mixed bytes,
    // so the whole candidate is rejected, not just patched over. For a
    // delta chain every file is bracketed — a base rewritten while its
    // deltas load is caught the same way.
    let after = chain_stamps(&cfg.path)?;
    if before != after {
        return Err(ThorError::validation(format!(
            "{}: artifact chain changed during load",
            cfg.path.display()
        )));
    }
    if let Some(threads) = cfg.threads {
        engine = engine.with_threads(threads);
    }
    let engine = engine.with_metrics(metrics.clone());
    Ok((engine, after))
}

/// One reload attempt: validate the candidate, then swap. On any error
/// the slot is untouched and the previous generation keeps serving.
pub fn try_reload(
    cfg: &ReloadConfig,
    slot: &EngineSlot,
    metrics: &PipelineMetrics,
) -> ThorResult<(Arc<EngineGeneration>, ChainStamps)> {
    let (engine, stamps) = load_candidate(cfg, metrics)?;
    let generation = slot.swap(engine)?;
    metrics
        .registry()
        .gauge("engine.chain_depth")
        .set(generation.engine.chain_depth() as u64);
    Ok((generation, stamps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_fault::atomic_write;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("thor-reload-{}-{name}", std::process::id()))
    }

    fn tiny_artifact() -> Vec<u8> {
        let mut w = thor_fault::SectionWriter::new();
        w.add("meta", 1, b"hello");
        w.finish()
    }

    #[test]
    fn stamp_round_trips_and_detects_change() {
        let path = tmp("stamp");
        atomic_write(&path, &tiny_artifact()).unwrap();
        let a = chain_stamps(&path).unwrap();
        let b = chain_stamps(&path).unwrap();
        assert_eq!(a, b);

        let mut w = thor_fault::SectionWriter::new();
        w.add("meta", 1, b"other bytes");
        atomic_write(&path, &w.finish()).unwrap();
        let c = chain_stamps(&path).unwrap();
        assert_ne!(a, c);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stamp_rejects_truncation_and_corruption_by_name() {
        let path = tmp("corrupt");
        let bytes = tiny_artifact();

        atomic_write(&path, &bytes[..40]).unwrap();
        let e = chain_stamps(&path).unwrap_err();
        assert!(e.to_string().contains("truncated"), "{e}");

        let mut flipped = bytes.clone();
        flipped[50] ^= 0xFF; // header checksum field
        atomic_write(&path, &flipped).unwrap();
        let e = chain_stamps(&path).unwrap_err();
        assert!(e.to_string().contains("header checksum"), "{e}");

        let mut dir_flip = bytes.clone();
        let n = dir_flip.len();
        dir_flip[n - 1] ^= 0xFF; // last directory byte
        atomic_write(&path, &dir_flip).unwrap();
        let e = chain_stamps(&path).unwrap_err();
        assert!(e.to_string().contains("section-directory"), "{e}");

        atomic_write(
            &path,
            b"not an artifact at all, far too short pad pad pad pad pad",
        )
        .unwrap();
        assert!(chain_stamps(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stamp_rejects_missing_file() {
        assert!(chain_stamps(Path::new("/nonexistent/engine.thor")).is_err());
    }

    #[test]
    fn chain_stamps_walk_deltas_and_notice_base_changes() {
        use thor_fault::{DeltaMeta, SectionFile, DELTA_META_SECTION, DELTA_META_VERSION};
        let dir = std::env::temp_dir().join(format!("thor-chain-stamp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.eng");
        atomic_write(&base, &tiny_artifact()).unwrap();

        // A plain artifact stamps as a one-element chain.
        let plain = chain_stamps(&base).unwrap();
        assert_eq!(plain.len(), 1);
        assert_eq!(plain[0].0, base);

        let parent = SectionFile::open(&base, MapMode::Owned).unwrap();
        let meta = DeltaMeta {
            parent: "base.eng".into(),
            parent_dir_checksum: parent.dir_checksum(),
            parent_fingerprint: "fp".into(),
            depth: 1,
            note: String::new(),
        };
        drop(parent);
        let mut w = thor_fault::SectionWriter::new();
        w.add(DELTA_META_SECTION, DELTA_META_VERSION, &meta.encode());
        w.add("meta", 1, b"patched");
        let delta = dir.join("d1.eng");
        atomic_write(&delta, &w.finish()).unwrap();

        let stamps = chain_stamps(&delta).unwrap();
        assert_eq!(stamps.len(), 2, "base first, then the delta");
        assert_eq!(stamps[0].0, base);
        assert_eq!(stamps[1].0, delta);

        // Rewriting the base breaks the link: the chain walk itself
        // rejects it, so a poll never sees a half-valid chain as new.
        let mut w = thor_fault::SectionWriter::new();
        w.add("meta", 1, b"rebuilt base");
        atomic_write(&base, &w.finish()).unwrap();
        let err = chain_stamps(&delta).unwrap_err();
        assert!(err.to_string().contains("delta base mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
