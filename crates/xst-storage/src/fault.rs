//! Deterministic fault injection for the simulated I/O substrate.
//!
//! A [`FaultPlan`] is installed on a [`Storage`](crate::bufpool::Storage)
//! disk and/or a [`Wal`](crate::wal::Wal): every I/O operation the handles
//! perform becomes a numbered *fault site*, counted in execution order by
//! one shared atomic. The plan's [`FaultSchedule`] decides which sites
//! fire — exactly site `#k`, or every `k`-th site — and its [`FaultKind`]
//! decides what goes wrong there: a failed or torn page write, a short
//! read, a failed fsync-equivalent, or a transient error that a
//! [`RetryPolicy`](crate::retry::RetryPolicy) may absorb.
//!
//! Determinism is the point. There is no wall-clock randomness anywhere:
//! the same workload under the same plan injects the same faults at the
//! same sites on every run, which is what lets the crash-recovery harness
//! in `xst-testkit` *enumerate* sites and crash at each one instead of
//! sampling a few.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xst_obs::names::handle as m;

/// What goes wrong at a firing fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A page write fails outright; nothing is persisted.
    WriteFail,
    /// A page write tears: only the first `n` bytes are persisted, the
    /// rest of the frame is zero — the classic partial-write power cut.
    TornWrite(usize),
    /// A read returns only the first `n` bytes of the page.
    ShortRead(usize),
    /// An fsync-equivalent (WAL flush, checkpoint mark) fails.
    SyncFail,
    /// A transient failure: the operation errors with
    /// [`StorageError::Transient`](crate::error::StorageError::Transient)
    /// and retrying it may succeed.
    Transient,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::WriteFail => write!(f, "write-fail"),
            FaultKind::TornWrite(n) => write!(f, "torn-write({n})"),
            FaultKind::ShortRead(n) => write!(f, "short-read({n})"),
            FaultKind::SyncFail => write!(f, "sync-fail"),
            FaultKind::Transient => write!(f, "transient"),
        }
    }
}

/// Which sites fire. Sites are numbered from 0 in execution order across
/// every handle sharing the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Fire exactly at site `#k`, once.
    AtSite(u64),
    /// Fire at every `k`-th site (sites `k-1`, `2k-1`, …). `EveryNth(1)`
    /// fires at every site.
    EveryNth(u64),
}

/// The class of I/O an instrumented operation belongs to; it shapes how a
/// [`FaultKind`] manifests (a torn *write* cannot happen on a read path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// A page or range read.
    Read,
    /// A page append or overwrite.
    Write,
    /// An fsync-equivalent: WAL flush, checkpoint mark.
    Sync,
}

/// What an instrumented operation must actually do when its site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Fail permanently; persist nothing.
    Fail,
    /// Persist only the first `n` bytes, then fail.
    Torn(usize),
    /// Return only the first `n` bytes, then fail.
    Short(usize),
    /// Fail with a transient error.
    Transient,
}

struct PlanInner {
    schedule: FaultSchedule,
    kind: FaultKind,
    /// Next site number; shared by every handle the plan is installed on.
    site: AtomicU64,
    injected: AtomicU64,
    armed: AtomicBool,
}

/// A deterministic fault-injection plan, cheaply cloneable; clones share
/// one site counter, so installing the same plan on a `Storage` and a
/// `Wal` numbers their operations in one global execution order.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl FaultPlan {
    /// A plan firing `kind` on `schedule`.
    pub fn new(schedule: FaultSchedule, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(PlanInner {
                schedule,
                kind,
                site: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                armed: AtomicBool::new(true),
            }),
        }
    }

    /// A plan that counts sites but never fires — run a workload under it
    /// to learn how many injectable sites the workload has, then sweep
    /// [`FaultSchedule::AtSite`] over `0..sites_seen()`.
    pub fn counting() -> FaultPlan {
        let plan = FaultPlan::new(FaultSchedule::AtSite(u64::MAX), FaultKind::Transient);
        plan.disarm();
        plan
    }

    /// The fault this plan injects.
    pub fn kind(&self) -> FaultKind {
        self.inner.kind
    }

    /// Number of fault sites passed so far (fired or not).
    pub fn sites_seen(&self) -> u64 {
        self.inner.site.load(Ordering::SeqCst)
    }

    /// Number of faults actually injected.
    pub fn injected_count(&self) -> u64 {
        self.inner.injected.load(Ordering::SeqCst)
    }

    /// Stop firing (sites keep counting).
    pub fn disarm(&self) {
        self.inner.armed.store(false, Ordering::SeqCst);
    }

    /// Resume firing.
    pub fn arm(&self) {
        self.inner.armed.store(true, Ordering::SeqCst);
    }

    /// Called by instrumented operations: claim the next site number and
    /// report what, if anything, to inject there. Kinds degrade to
    /// [`Injection::Fail`] on site classes where they make no sense (a
    /// torn write on a read path is just a failed read).
    pub fn check(&self, class: SiteClass) -> Option<Injection> {
        let n = self.inner.site.fetch_add(1, Ordering::SeqCst);
        if !self.inner.armed.load(Ordering::SeqCst) {
            return None;
        }
        let fires = match self.inner.schedule {
            FaultSchedule::AtSite(k) => n == k,
            FaultSchedule::EveryNth(k) => k > 0 && (n + 1).is_multiple_of(k),
        };
        if !fires {
            return None;
        }
        self.inner.injected.fetch_add(1, Ordering::SeqCst);
        m::STORAGE_FAULTS_INJECTED_TOTAL.inc();
        Some(match (self.inner.kind, class) {
            (FaultKind::Transient, _) => Injection::Transient,
            (FaultKind::TornWrite(n), SiteClass::Write | SiteClass::Sync) => Injection::Torn(n),
            (FaultKind::ShortRead(n), SiteClass::Read) => Injection::Short(n),
            _ => Injection::Fail,
        })
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("schedule", &self.inner.schedule)
            .field("kind", &self.inner.kind)
            .field("sites_seen", &self.sites_seen())
            .field("injected", &self.injected_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_site_fires_exactly_once() {
        let plan = FaultPlan::new(FaultSchedule::AtSite(2), FaultKind::WriteFail);
        assert_eq!(plan.check(SiteClass::Write), None);
        assert_eq!(plan.check(SiteClass::Write), None);
        assert_eq!(plan.check(SiteClass::Write), Some(Injection::Fail));
        assert_eq!(plan.check(SiteClass::Write), None);
        assert_eq!(plan.sites_seen(), 4);
        assert_eq!(plan.injected_count(), 1);
    }

    #[test]
    fn every_nth_fires_periodically() {
        let plan = FaultPlan::new(FaultSchedule::EveryNth(3), FaultKind::Transient);
        let fired: Vec<bool> = (0..9)
            .map(|_| plan.check(SiteClass::Sync).is_some())
            .collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn kinds_degrade_by_site_class() {
        let torn = FaultPlan::new(FaultSchedule::EveryNth(1), FaultKind::TornWrite(7));
        assert_eq!(torn.check(SiteClass::Write), Some(Injection::Torn(7)));
        assert_eq!(torn.check(SiteClass::Sync), Some(Injection::Torn(7)));
        assert_eq!(torn.check(SiteClass::Read), Some(Injection::Fail));
        let short = FaultPlan::new(FaultSchedule::EveryNth(1), FaultKind::ShortRead(9));
        assert_eq!(short.check(SiteClass::Read), Some(Injection::Short(9)));
        assert_eq!(short.check(SiteClass::Write), Some(Injection::Fail));
        let sync = FaultPlan::new(FaultSchedule::EveryNth(1), FaultKind::SyncFail);
        assert_eq!(sync.check(SiteClass::Sync), Some(Injection::Fail));
    }

    #[test]
    fn counting_plan_never_fires_and_clones_share_the_counter() {
        let plan = FaultPlan::counting();
        let clone = plan.clone();
        for _ in 0..5 {
            assert_eq!(plan.check(SiteClass::Write), None);
            assert_eq!(clone.check(SiteClass::Read), None);
        }
        assert_eq!(plan.sites_seen(), 10, "clones share one site counter");
        assert_eq!(plan.injected_count(), 0);
    }

    #[test]
    fn disarm_stops_firing_but_keeps_counting() {
        let plan = FaultPlan::new(FaultSchedule::EveryNth(1), FaultKind::WriteFail);
        assert!(plan.check(SiteClass::Write).is_some());
        plan.disarm();
        assert!(plan.check(SiteClass::Write).is_none());
        plan.arm();
        assert!(plan.check(SiteClass::Write).is_some());
        assert_eq!(plan.sites_seen(), 3);
    }
}
