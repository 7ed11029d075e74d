//! Cooperative cancellation for long-running compilations.
//!
//! A [`CancelToken`] is a cheap, clonable handle combining an explicit
//! stop flag with an optional deadline. Work that honours it —
//! [`crate::manager::PassManager::run`] checks between passes, the
//! simulator's executor checks between shot chunks — stops at the next
//! checkpoint and reports
//! [`crate::CaqrError::DeadlineExceeded`], which `caqr-serve` maps to an
//! HTTP 504 without killing the worker thread.
//!
//! Cancellation is *cooperative*: a token never interrupts a pass
//! mid-flight, so a slow individual pass overruns its deadline by at most
//! its own duration. That bound is what makes per-request deadlines safe
//! to enforce from a fixed worker pool.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation handle: an explicit stop flag plus an optional
/// wall-clock deadline.
///
/// Clones share state — cancelling any clone cancels them all.
///
/// # Examples
///
/// ```
/// use caqr::cancel::CancelToken;
/// use std::time::Duration;
///
/// let token = CancelToken::with_timeout(Duration::from_secs(30));
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires on its own; only [`CancelToken::cancel`]
    /// trips it.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that fires when `deadline` passes (or on explicit cancel,
    /// whichever comes first).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// [`CancelToken::with_deadline`] at `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Trips the stop flag on this token and every clone sharing it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Returns `true` once the flag is tripped or the deadline has
    /// passed.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Checkpoint helper: `Err(DeadlineExceeded)` once cancelled.
    ///
    /// # Errors
    ///
    /// [`crate::CaqrError::DeadlineExceeded`] tagged with `phase` when the
    /// token has fired.
    pub fn check(&self, phase: &'static str) -> Result<(), crate::CaqrError> {
        if self.is_cancelled() {
            Err(crate::CaqrError::DeadlineExceeded { phase })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CaqrError;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check("test").is_ok());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert_eq!(
            t.check("pass"),
            Err(CaqrError::DeadlineExceeded { phase: "pass" })
        );
    }

    #[test]
    fn expired_deadline_fires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let live = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!live.is_cancelled());
        assert!(live.deadline().is_some());
    }
}
