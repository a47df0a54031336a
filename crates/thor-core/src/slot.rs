//! The hot-swap seam: an epoch-versioned, atomically-replaceable
//! [`PreparedEngine`] holder.
//!
//! A serving process holds one [`EngineSlot`] for the lifetime of the
//! process and swaps *generations* into it as new engine artifacts
//! arrive. The contract the reload chaos suite enforces:
//!
//! * **Pinning.** [`EngineSlot::load`] hands out an
//!   `Arc<EngineGeneration>`; a request that loaded generation *n*
//!   finishes on generation *n* even if the slot is swapped mid-request
//!   — the Arc keeps the old engine (and, for mapped artifacts, its
//!   mmap) alive until the last in-flight request drops it.
//! * **Atomicity.** A concurrent reader sees either the old generation
//!   or the new one, never a torn mix; the epoch is assigned under the
//!   same lock that publishes the engine, so epochs observed through
//!   `load` are monotone.
//! * **Never swap-to-broken.** Candidate validation happens *before*
//!   [`EngineSlot::swap`] is called (the reload state machine in
//!   thor-serve); the swap itself still carries the `swap` failpoint so
//!   chaos tests can prove a failure at the final step leaves the old
//!   generation serving.
//!
//! The slot is deliberately tiny — an `RwLock<Arc<_>>` — because swaps
//! are rare (operator-driven) and loads are one uncontended read-lock
//! acquisition; no epoch-based reclamation scheme is warranted at this
//! request rate.

use std::sync::{Arc, RwLock};

use thor_fault::{fail_point, ThorResult};

use crate::engine::PreparedEngine;

/// One published engine generation: the engine plus the 1-based epoch
/// it was installed at. `fingerprint@epoch` is what the serve layer
/// stamps into `X-Thor-Engine`.
#[derive(Debug, Clone)]
pub struct EngineGeneration {
    /// The engine this generation serves with.
    pub engine: PreparedEngine,
    /// Monotone installation counter, starting at 1 for the engine the
    /// slot was created with.
    pub epoch: u64,
}

impl EngineGeneration {
    /// The `fingerprint@epoch` tag identifying this generation.
    pub fn tag(&self) -> String {
        format!("{}@{}", self.engine.fingerprint(), self.epoch)
    }
}

/// An epoch-versioned, swappable engine holder. See the module docs.
#[derive(Debug)]
pub struct EngineSlot {
    current: RwLock<Arc<EngineGeneration>>,
}

impl EngineSlot {
    /// A slot serving `engine` as epoch 1.
    pub fn new(engine: PreparedEngine) -> Self {
        Self {
            current: RwLock::new(Arc::new(EngineGeneration { engine, epoch: 1 })),
        }
    }

    /// Pin the current generation. The returned Arc keeps that
    /// generation alive across any number of subsequent swaps.
    pub fn load(&self) -> Arc<EngineGeneration> {
        Arc::clone(&self.current.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// The epoch currently being served.
    pub fn epoch(&self) -> u64 {
        self.current.read().unwrap_or_else(|p| p.into_inner()).epoch
    }

    /// Publish `engine` as the next generation and return it. On error
    /// (the `swap` failpoint — the last injectable step of a reload)
    /// the slot is untouched and the old generation keeps serving.
    pub fn swap(&self, engine: PreparedEngine) -> ThorResult<Arc<EngineGeneration>> {
        let mut current = self.current.write().unwrap_or_else(|p| p.into_inner());
        fail_point("swap")?;
        let next = Arc::new(EngineGeneration {
            engine,
            epoch: current.epoch + 1,
        });
        *current = Arc::clone(&next);
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThorConfig;
    use crate::pipeline::Thor;
    use thor_data::{Schema, Table};
    use thor_embed::SemanticSpaceBuilder;
    use thor_fault::scoped_failpoints;

    fn engine(tau: f64) -> PreparedEngine {
        let store = SemanticSpaceBuilder::new(8, 3)
            .topic("anatomy")
            .words("anatomy", ["lungs", "skin"])
            .build()
            .into_store();
        let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
        table.fill_slot("Tuberculosis", "Anatomy", "lungs");
        Thor::new(store, ThorConfig::with_tau(tau)).prepare(&table)
    }

    #[test]
    fn epochs_are_monotone_and_start_at_one() {
        // Every swapping test holds the failpoint lock, so a concurrent
        // test's armed `swap` failpoint never fires on this one's swap.
        let _guard = scoped_failpoints("");
        let slot = EngineSlot::new(engine(0.6));
        assert_eq!(slot.epoch(), 1);
        let g2 = slot.swap(engine(0.7)).unwrap();
        assert_eq!(g2.epoch, 2);
        assert_eq!(slot.epoch(), 2);
        assert_eq!(slot.load().tag(), g2.tag());
    }

    #[test]
    fn loads_pin_their_generation_across_swaps() {
        let _guard = scoped_failpoints("");
        let slot = EngineSlot::new(engine(0.6));
        let pinned = slot.load();
        let old_fp = pinned.engine.fingerprint().to_string();
        slot.swap(engine(0.7)).unwrap();
        // The pinned Arc still serves the old engine...
        assert_eq!(pinned.engine.fingerprint(), old_fp);
        assert_eq!(pinned.epoch, 1);
        // ...while fresh loads see the new generation.
        let fresh = slot.load();
        assert_eq!(fresh.epoch, 2);
        assert_ne!(fresh.engine.fingerprint(), old_fp);
    }

    #[test]
    fn failed_swap_leaves_the_old_generation_serving() {
        let slot = EngineSlot::new(engine(0.6));
        let before = slot.load().tag();
        {
            let _guard = scoped_failpoints("swap:err");
            assert!(slot.swap(engine(0.7)).is_err());
        }
        assert_eq!(slot.load().tag(), before);
        assert_eq!(slot.epoch(), 1);
        // The slot still works after the failure.
        assert_eq!(slot.swap(engine(0.7)).unwrap().epoch, 2);
    }

    #[test]
    fn concurrent_loads_and_swaps_never_tear() {
        let _guard = scoped_failpoints("");
        let slot = Arc::new(EngineSlot::new(engine(0.6)));
        let a = engine(0.6);
        let b = engine(0.7);
        let fps = [a.fingerprint().to_string(), b.fingerprint().to_string()];
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let slot = Arc::clone(&slot);
                let done = Arc::clone(&done);
                let fps = fps.clone();
                std::thread::spawn(move || {
                    let mut last_epoch = 0;
                    while !done.load(std::sync::atomic::Ordering::Relaxed) {
                        let g = slot.load();
                        assert!(g.epoch >= last_epoch, "epoch went backwards");
                        last_epoch = g.epoch;
                        assert!(fps.contains(&g.engine.fingerprint().to_string()));
                    }
                })
            })
            .collect();
        for i in 0..50 {
            let next = if i % 2 == 0 { b.clone() } else { a.clone() };
            slot.swap(next).unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(slot.epoch(), 51);
    }
}
