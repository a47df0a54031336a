//! Cooperative cancellation: a cheap, cloneable token checked between
//! pipeline stages.
//!
//! A [`CancelToken`] carries an optional wall-clock deadline and a
//! manual cancel flag. The run layer threads one through enrichment and
//! calls [`CancelToken::check`] at every stage seam (before validate,
//! segment, extract, slot-fill), so an expired per-request budget stops
//! the run at the next seam instead of hanging a connection — no thread
//! is ever killed, workers observe the flag and wind down.
//!
//! Cancellation is a *run-level* outcome, not a per-document one: an
//! expired token aborts the run with
//! [`ErrorKind::Deadline`](crate::ErrorKind::Deadline) even in lenient
//! mode (the request is dead either way; quarantining the remaining
//! documents would misreport them as malformed).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{ThorError, ThorResult};

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation token; see the module docs. The default
/// token ([`CancelToken::none`]) never fires and its checks are a
/// single relaxed atomic load.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::none()
    }
}

impl CancelToken {
    /// A token that never fires unless [`cancel`](Self::cancel)ed.
    pub fn none() -> Self {
        Self {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that fires once `budget` has elapsed from now.
    pub fn with_deadline(budget: Duration) -> Self {
        Self {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
            }),
        }
    }

    /// Fire the token manually (drain, client gone, test).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has the token fired (manually or by deadline)? Latches: once
    /// true it stays true, so every stage after the first refusal
    /// refuses too.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The stage seam: `Ok(())` to proceed, or an
    /// [`ErrorKind::Deadline`](crate::ErrorKind::Deadline) error naming
    /// the stage the budget expired before.
    pub fn check(&self, stage: &str) -> ThorResult<()> {
        if self.is_cancelled() {
            Err(ThorError::deadline(stage))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;

    #[test]
    fn none_never_fires() {
        let t = CancelToken::none();
        assert!(!t.is_cancelled());
        assert!(t.check("extract").is_ok());
    }

    #[test]
    fn manual_cancel_latches_and_names_the_stage() {
        let t = CancelToken::none();
        t.cancel();
        assert!(t.is_cancelled());
        let e = t.check("segment").unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Deadline);
        assert!(e.to_string().contains("segment"), "{e}");
    }

    #[test]
    fn deadline_fires_after_budget() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        assert_eq!(t.check("validate").unwrap_err().kind(), ErrorKind::Deadline);

        let roomy = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!roomy.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        let u = t.clone();
        t.cancel();
        assert!(u.is_cancelled());
    }
}
