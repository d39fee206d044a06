//! Deterministic network-fault injection on the door boundary.
//!
//! The coordinator reaches a shard only through a [`Door`]: one `Request`
//! in, one `Response` out. A [`FaultyDoor`] decorates any door — an
//! in-process `Session`, a real `Client` — and numbers each call's
//! **request leg** and **response leg** (and the two legs of the door's
//! opening, which stand where the wire's `Hello`/`Welcome` stood) as
//! **message sites** on a counter shared by every door under the same
//! [`NetFaultPlan`]. Because the coordinator issues strictly sequential
//! calls, the numbering is a total order and a scripted workload consumes
//! an identical site sequence on every run: the network-fault mirror of
//! the storage layer's numbered I/O sites.
//!
//! A plan names one site and what happens to the message that lands on it:
//!
//! * [`NetFaultKind::DropMessage`] — the message vanishes; both ends keep
//!   running. A lost request never reaches the shard; a lost response
//!   leaves its request applied. The caller's deadline expires — as a
//!   value, [`ErrorKind::TimedOut`], not as elapsed time.
//! * [`NetFaultKind::Hold`] — the message and **everything after it** on
//!   that door stalls without closing anything: delay-past-timeout,
//!   modeled without a clock. The caller times out, and would again.
//! * [`NetFaultKind::Sever`] — the link breaks: the inner door is dropped
//!   (a `Session` aborts its open transaction exactly as the server's
//!   connection loop does on disconnect; a `Client` closes its socket) and
//!   the caller sees [`ErrorKind::ConnectionAborted`].
//! * [`NetFaultKind::KillAll`] — every door under the plan closes at
//!   once: the coordinator process dying mid-protocol.
//!
//! Nothing here opens a socket, starts a thread, or reads a clock or a
//! random source. What the decorator cannot show — an expired read
//! deadline surfacing as the typed `ClientError::Timeout` — is pinned by
//! `xst-client`'s own stalled-server unit tests.

use std::cell::Cell;
use std::io::{Error, ErrorKind};
use std::rc::Rc;
use xst_server::proto::{Door, Request, Response};

/// What happens to the message that lands on the planned site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Discard exactly this message; keep the link open.
    DropMessage,
    /// Stall this link forever without closing it (delay past any
    /// timeout, clock-free).
    Hold,
    /// Break this link.
    Sever,
    /// Break every link under the plan (coordinator death).
    KillAll,
}

/// One planned fault at one numbered message site, sharing its site
/// counter with every door opened under it. Clone freely: clones share
/// the counter.
#[derive(Clone, Debug)]
pub struct NetFaultPlan {
    /// Message legs numbered so far.
    seen: Rc<Cell<u64>>,
    /// Calls put to a door after the planned fault landed on it.
    reused: Rc<Cell<u64>>,
    target: u64,
    kind: NetFaultKind,
}

impl NetFaultPlan {
    /// A pass-through plan that only counts sites (no injection).
    pub fn count_only() -> NetFaultPlan {
        NetFaultPlan::at_site(u64::MAX, NetFaultKind::DropMessage)
    }

    /// Inject `kind` on the message that lands on 0-based `site`.
    pub fn at_site(site: u64, kind: NetFaultKind) -> NetFaultPlan {
        NetFaultPlan {
            seen: Rc::default(),
            reused: Rc::default(),
            target: site,
            kind,
        }
    }

    /// Message legs seen so far across every door sharing this plan.
    pub fn sites_seen(&self) -> u64 {
        self.seen.get()
    }

    /// Did the planned site fire (was it reached)?
    pub fn fired(&self) -> bool {
        self.sites_seen() > self.target
    }

    /// Calls a door's owner put to it **after** the fault landed on it. A
    /// failed link must be abandoned, so this stays 0.
    pub fn reused(&self) -> u64 {
        self.reused.get()
    }

    /// Number one message leg; `Err` is the planned fault landing on it.
    fn leg(&self) -> Result<(), Error> {
        let site = self.seen.get();
        self.seen.set(site + 1);
        if site != self.target {
            return Ok(());
        }
        Err(match self.kind {
            NetFaultKind::DropMessage | NetFaultKind::Hold => ErrorKind::TimedOut.into(),
            NetFaultKind::Sever | NetFaultKind::KillAll => ErrorKind::ConnectionAborted.into(),
        })
    }

    /// Open a door through `dial` under this plan. The opening is two
    /// sites — the request to open and its acknowledgement — so a fault
    /// can land before the far side knows of the link, or after.
    pub fn open<D: Door>(
        &self,
        dial: impl FnOnce() -> Result<D, D::Error>,
    ) -> Result<FaultyDoor<D>, Error> {
        self.leg()?;
        // The inner door's own failure passes through rendered: never an
        // injected kind.
        let inner = dial().map_err(|e| Error::other(e.to_string()))?;
        self.leg()?;
        Ok(FaultyDoor {
            inner: Some(inner),
            faulted: false,
            plan: self.clone(),
        })
    }
}

/// A door with the plan's fault on it. Dropping it drops the inner door —
/// the link closing from the caller's end.
pub struct FaultyDoor<D> {
    /// `None` once severed or killed.
    inner: Option<D>,
    /// Did the planned fault land on this door?
    faulted: bool,
    plan: NetFaultPlan,
}

impl<D: Door> Door for FaultyDoor<D> {
    type Error = Error;

    fn call(&mut self, req: Request) -> Result<Response, Error> {
        let plan = &self.plan;
        if self.faulted {
            plan.reused.set(plan.reused() + 1);
        }
        if plan.kind == NetFaultKind::KillAll && plan.fired() {
            // The coordinator died with every link: this one closes the
            // first time anything touches it again, and nothing ran since.
            self.inner = None;
        }
        let Some(inner) = &mut self.inner else {
            return Err(ErrorKind::ConnectionAborted.into());
        };
        if self.faulted && plan.kind == NetFaultKind::Hold {
            return Err(ErrorKind::TimedOut.into());
        }
        let answer = plan
            .leg()
            .and_then(|()| inner.call(req).map_err(|e| Error::other(e.to_string())))
            .and_then(|resp| plan.leg().map(|()| resp));
        match answer.as_ref().map_err(Error::kind) {
            Err(ErrorKind::ConnectionAborted) => (self.faulted, self.inner) = (true, None),
            Err(ErrorKind::TimedOut) => self.faulted = true,
            _ => {}
        }
        answer
    }
}
