//! Bounded retry with deterministic exponential backoff.
//!
//! Transient I/O failures ([`StorageError::Transient`]) are worth retrying;
//! everything else — corruption, torn writes, contract violations — is
//! permanent and surfaces immediately. [`RetryPolicy`] bounds the attempts
//! and computes an exponential backoff delay per attempt; the delay is
//! *simulated* (recorded in the `xst_storage_retry_backoff_ns` histogram,
//! never slept), so retried runs stay deterministic and fast while the
//! observable backoff curve is exactly what a wall-clock implementation
//! would produce.
//!
//! [`StorageError::Transient`]: crate::error::StorageError::Transient

use crate::error::StorageResult;
use xst_obs::names::handle as m;

/// Bounded-attempt retry with exponential backoff. `Copy` and tiny: thread
/// it by value through pools, files, and engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_delay_ns: u64,
    max_delay_ns: u64,
}

impl RetryPolicy {
    /// A policy allowing up to `max_attempts` total attempts (so
    /// `max_attempts - 1` retries), backing off from `base_delay_ns`
    /// doubling per retry, capped at `max_delay_ns`.
    pub fn new(max_attempts: u32, base_delay_ns: u64, max_delay_ns: u64) -> RetryPolicy {
        assert!(
            max_attempts >= 1,
            "a policy must allow at least one attempt"
        );
        RetryPolicy {
            max_attempts,
            base_delay_ns,
            max_delay_ns,
        }
    }

    /// No retries: the first failure is final. Crash harnesses use this so
    /// an injected fault surfaces instead of being absorbed.
    pub fn none() -> RetryPolicy {
        RetryPolicy::new(1, 0, 0)
    }

    /// Total attempts allowed (first try included).
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The simulated backoff before retry number `retry` (1-based):
    /// `base * 2^(retry-1)`, capped.
    pub fn backoff_ns(&self, retry: u32) -> u64 {
        let exp = retry.saturating_sub(1).min(63);
        let shifted = self.base_delay_ns.saturating_mul(1u64 << exp);
        shifted.min(self.max_delay_ns)
    }
}

impl Default for RetryPolicy {
    /// Four attempts, 50 µs base, 10 ms cap — absorbs isolated transient
    /// hiccups without masking persistent failure.
    fn default() -> RetryPolicy {
        RetryPolicy::new(4, 50_000, 10_000_000)
    }
}

/// Run `f` under `policy`: retry transient failures up to the attempt
/// bound, recording each retry (counter) and its simulated backoff delay
/// (histogram); surface permanent errors immediately and count a give-up
/// when the budget is exhausted while still failing transiently.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    mut f: impl FnMut() -> StorageResult<T>,
) -> StorageResult<T> {
    let mut attempt = 1u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < policy.max_attempts() => {
                m::STORAGE_RETRIES_TOTAL.inc();
                m::STORAGE_RETRY_BACKOFF_NS.observe(policy.backoff_ns(attempt));
                xst_obs::cost::add_retry();
                attempt += 1;
            }
            Err(e) => {
                if e.is_transient() {
                    m::STORAGE_RETRY_GIVE_UPS_TOTAL.inc();
                }
                return Err(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;

    fn transient() -> StorageError {
        StorageError::Transient { op: "test".into() }
    }

    #[test]
    fn first_success_needs_no_retry() {
        let mut calls = 0;
        let r: StorageResult<i32> = with_retry(&RetryPolicy::default(), || {
            calls += 1;
            Ok(7)
        });
        assert_eq!(r.unwrap(), 7);
        assert_eq!(calls, 1);
    }

    #[test]
    fn transient_failures_are_retried_up_to_the_bound() {
        let mut calls = 0;
        let r = with_retry(&RetryPolicy::new(3, 10, 1000), || {
            calls += 1;
            if calls < 3 {
                Err(transient())
            } else {
                Ok(calls)
            }
        });
        assert_eq!(r.unwrap(), 3);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_transient_error() {
        let mut calls = 0;
        let r: StorageResult<()> = with_retry(&RetryPolicy::new(3, 10, 1000), || {
            calls += 1;
            Err(transient())
        });
        assert!(matches!(r, Err(StorageError::Transient { .. })));
        assert_eq!(calls, 3, "exactly max_attempts calls");
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        let mut calls = 0;
        let r: StorageResult<()> = with_retry(&RetryPolicy::new(5, 10, 1000), || {
            calls += 1;
            Err(StorageError::Corrupt {
                reason: "hard".into(),
            })
        });
        assert!(matches!(r, Err(StorageError::Corrupt { .. })));
        assert_eq!(calls, 1);
    }

    #[test]
    fn none_policy_means_one_attempt() {
        let mut calls = 0;
        let r: StorageResult<()> = with_retry(&RetryPolicy::none(), || {
            calls += 1;
            Err(transient())
        });
        assert!(r.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::new(10, 100, 550);
        assert_eq!(p.backoff_ns(1), 100);
        assert_eq!(p.backoff_ns(2), 200);
        assert_eq!(p.backoff_ns(3), 400);
        assert_eq!(p.backoff_ns(4), 550, "capped");
        assert_eq!(p.backoff_ns(63), 550, "no overflow at large retries");
        assert_eq!(p.backoff_ns(200), 550, "shift overflow saturates");
    }
}
