//! The synchronization operations a task can be about to perform, and
//! the resource state that decides whether they are enabled.
//!
//! A parked task always has exactly one *pending operation* — the
//! synchronization action it will perform when scheduled next. The
//! baton holder computes the enabled set by evaluating each pending
//! operation against the current [`Resources`], exactly the "thread
//! blocks only on accesses to synchronization variables" model of
//! Section 3.1.

use icb_core::{SiteId, Tid};

/// A synchronization operation a task is about to execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PendingOp {
    /// The task's first scheduling point (the paper's block on the
    /// per-thread event `e_t`, already signaled by the parent's spawn).
    Start,
    /// The task's final scheduling point (the paper's fictitious final
    /// block on `e_t`): executing it marks the task terminated.
    Exit,
    /// Acquire a mutex. Enabled iff the lock is free.
    Acquire { lock: usize, sync: usize },
    /// Release a mutex. Always enabled.
    Release { lock: usize, sync: usize },
    /// Try to acquire a mutex without blocking. Always enabled.
    TryAcquire { lock: usize, sync: usize },
    /// Condition-variable wait, phase 1: release the lock and enqueue.
    /// Always enabled (the blocking happens in phase 2).
    CondWait {
        cv: usize,
        cv_sync: usize,
        lock: usize,
        lock_sync: usize,
    },
    /// Condition-variable wait, phase 2: wake up and reacquire the lock.
    /// Enabled iff this waiter has been signaled and the lock is free.
    CondReacquire {
        cv: usize,
        cv_sync: usize,
        lock: usize,
        lock_sync: usize,
    },
    /// Signal one or all waiters. Always enabled.
    Notify {
        cv: usize,
        cv_sync: usize,
        all: bool,
    },
    /// Semaphore P. Enabled iff the count is positive.
    SemAcquire { sem: usize, sync: usize },
    /// Semaphore V. Always enabled.
    SemRelease { sem: usize, sync: usize },
    /// Wait for an event. Enabled iff the event is set.
    EventWait { event: usize, sync: usize },
    /// Set an event. Always enabled.
    EventSet { event: usize, sync: usize },
    /// Reset an event. Always enabled.
    EventReset { event: usize, sync: usize },
    /// Any read-modify-write of an atomic variable. Always enabled.
    AtomicAccess { sync: usize },
    /// A data-variable access, only a scheduling point in
    /// full-interleaving mode. Always enabled.
    DataAccess { var: usize },
    /// Acquire a reader-writer lock. Reads are enabled while no writer
    /// holds or awaits the lock; writes while nobody holds it.
    RwAcquire { rw: usize, sync: usize, write: bool },
    /// Release a reader-writer lock. Always enabled.
    RwRelease { rw: usize, sync: usize, write: bool },
    /// Arrive at a barrier (phase 1). Always enabled; the returned
    /// generation gates phase 2.
    BarrierArrive { bar: usize, sync: usize },
    /// Wait for the barrier generation observed at arrival to pass
    /// (phase 2). Enabled once the generation advances.
    BarrierWait { bar: usize, sync: usize, gen: u32 },
    /// Create a new task. Always enabled.
    Spawn,
    /// Wait for another task to terminate. Enabled iff it has.
    Join { target: Tid },
    /// Voluntary yield: a scheduling point with no effect.
    Yield,
    /// An explicit fallible site declared with
    /// [`fail_point`](crate::fail_point). Always enabled; the scheduler's
    /// fault decision becomes the operation's boolean result.
    FailPoint { name: &'static str },
}

/// XOR-salt folded into [`PendingOp::op_hash`] when a fault is injected
/// into the operation: a faulted step is a different program event than
/// its fault-free twin, so their happens-before fingerprints must
/// diverge (cache keys and coverage counts distinguish them).
pub(crate) const FAULT_OP_SALT: u64 = 0x5eed_fa17_0b5e_55ed;

impl PendingOp {
    /// Whether this operation is *potentially blocking* — the `B` count
    /// of Table 1. `Start`/`Exit` are blocking in the paper's formal
    /// model but are bookkeeping artifacts here, so they are not counted
    /// (Table 1 counts blocking instructions of the program itself).
    pub(crate) fn is_blocking(&self) -> bool {
        matches!(
            self,
            PendingOp::Acquire { .. }
                | PendingOp::CondWait { .. }
                | PendingOp::CondReacquire { .. }
                | PendingOp::SemAcquire { .. }
                | PendingOp::EventWait { .. }
                | PendingOp::Join { .. }
                | PendingOp::RwAcquire { .. }
                | PendingOp::BarrierWait { .. }
        )
    }

    /// Whether this operation is *designated fallible* — the baton
    /// holder consults [`Scheduler::decide_fault`](icb_core::Scheduler) for it
    /// right after the scheduling decision. A `try_lock` may fail even
    /// when the lock is free, a condvar wait may wake spuriously, and a
    /// [`fail_point`](crate::fail_point) may trip; everything else is
    /// deterministic given the schedule.
    pub(crate) fn is_fallible(&self) -> bool {
        matches!(
            self,
            PendingOp::TryAcquire { .. } | PendingOp::CondWait { .. } | PendingOp::FailPoint { .. }
        )
    }

    /// The profiler site of this operation: its kind plus the resource
    /// it targets, shared across threads (`acquire#3` is the same site
    /// whichever task acquires lock 3). Mirrors [`op_hash`]'s identity
    /// structure in human-readable form.
    ///
    /// [`op_hash`]: PendingOp::op_hash
    pub(crate) fn site(&self) -> SiteId {
        match *self {
            PendingOp::Start => SiteId::op("start", 0),
            PendingOp::Exit => SiteId::op("exit", 0),
            PendingOp::Acquire { lock, .. } => SiteId::op("acquire", lock as u32),
            PendingOp::Release { lock, .. } => SiteId::op("release", lock as u32),
            PendingOp::TryAcquire { lock, .. } => SiteId::op("try-acquire", lock as u32),
            PendingOp::CondWait { cv, .. } => SiteId::op("cond-wait", cv as u32),
            PendingOp::CondReacquire { cv, .. } => SiteId::op("cond-reacquire", cv as u32),
            PendingOp::Notify { cv, .. } => SiteId::op("notify", cv as u32),
            PendingOp::SemAcquire { sem, .. } => SiteId::op("sem-acquire", sem as u32),
            PendingOp::SemRelease { sem, .. } => SiteId::op("sem-release", sem as u32),
            PendingOp::EventWait { event, .. } => SiteId::op("event-wait", event as u32),
            PendingOp::EventSet { event, .. } => SiteId::op("event-set", event as u32),
            PendingOp::EventReset { event, .. } => SiteId::op("event-reset", event as u32),
            PendingOp::AtomicAccess { sync } => SiteId::op("atomic", sync as u32),
            PendingOp::DataAccess { var } => SiteId::op("data", var as u32),
            PendingOp::Spawn => SiteId::op("spawn", 0),
            PendingOp::Join { target } => SiteId::op("join", target.index() as u32),
            PendingOp::Yield => SiteId::op("yield", 0),
            PendingOp::RwAcquire {
                rw, write: true, ..
            } => SiteId::op("rw-acquire-w", rw as u32),
            PendingOp::RwAcquire {
                rw, write: false, ..
            } => SiteId::op("rw-acquire-r", rw as u32),
            PendingOp::RwRelease {
                rw, write: true, ..
            } => SiteId::op("rw-release-w", rw as u32),
            PendingOp::RwRelease {
                rw, write: false, ..
            } => SiteId::op("rw-release-r", rw as u32),
            PendingOp::BarrierArrive { bar, .. } => SiteId::op("barrier-arrive", bar as u32),
            PendingOp::BarrierWait { bar, .. } => SiteId::op("barrier-wait", bar as u32),
            PendingOp::FailPoint { name } => SiteId::op(name, 0),
        }
    }

    /// A stable hash of the operation's identity (kind + resources) for
    /// happens-before fingerprinting.
    pub(crate) fn op_hash(&self) -> u64 {
        fn h(kind: u64, a: usize, b: usize) -> u64 {
            kind ^ ((a as u64) << 16) ^ ((b as u64) << 40)
        }
        match *self {
            PendingOp::Start => h(1, 0, 0),
            PendingOp::Exit => h(2, 0, 0),
            PendingOp::Acquire { lock, .. } => h(3, lock, 0),
            PendingOp::Release { lock, .. } => h(4, lock, 0),
            PendingOp::TryAcquire { lock, .. } => h(5, lock, 0),
            PendingOp::CondWait { cv, lock, .. } => h(6, cv, lock),
            PendingOp::CondReacquire { cv, lock, .. } => h(7, cv, lock),
            PendingOp::Notify { cv, all, .. } => h(8, cv, all as usize),
            PendingOp::SemAcquire { sem, .. } => h(9, sem, 0),
            PendingOp::SemRelease { sem, .. } => h(10, sem, 0),
            PendingOp::EventWait { event, .. } => h(11, event, 0),
            PendingOp::EventSet { event, .. } => h(12, event, 0),
            PendingOp::EventReset { event, .. } => h(13, event, 0),
            PendingOp::AtomicAccess { sync } => h(14, sync, 0),
            PendingOp::DataAccess { var } => h(15, var, 0),
            PendingOp::Spawn => h(16, 0, 0),
            PendingOp::Join { target } => h(17, target.index(), 0),
            PendingOp::Yield => h(18, 0, 0),
            PendingOp::RwAcquire { rw, write, .. } => h(19, rw, write as usize),
            PendingOp::RwRelease { rw, write, .. } => h(20, rw, write as usize),
            PendingOp::BarrierArrive { bar, .. } => h(21, bar, 0),
            PendingOp::BarrierWait { bar, gen, .. } => h(22, bar, gen as usize),
            PendingOp::FailPoint { name } => {
                // The name is the site's whole identity; fold its bytes
                // (FNV-1a) so distinct fail points hash apart.
                let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
                for &byte in name.as_bytes() {
                    acc = (acc ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
                h(23, 0, 0) ^ (acc << 8)
            }
        }
    }
}

/// One waiter in a condition-variable queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CondWaiter {
    pub(crate) tid: Tid,
    pub(crate) signaled: bool,
}

/// State of one reader-writer lock.
#[derive(Clone, Debug, Default)]
pub(crate) struct RwState {
    pub(crate) readers: usize,
    pub(crate) writer: Option<Tid>,
}

/// State of one barrier.
#[derive(Clone, Debug)]
pub(crate) struct BarrierState {
    pub(crate) parties: usize,
    pub(crate) arrived: usize,
    pub(crate) generation: u32,
}

/// The model-level state of every synchronization object of one
/// execution.
#[derive(Debug, Default)]
pub(crate) struct Resources {
    pub(crate) locks: Vec<Option<Tid>>,
    pub(crate) condvars: Vec<Vec<CondWaiter>>,
    pub(crate) sems: Vec<usize>,
    /// `(is_set, manual_reset)` per event.
    pub(crate) events: Vec<(bool, bool)>,
    pub(crate) rwlocks: Vec<RwState>,
    pub(crate) barriers: Vec<BarrierState>,
}

impl Resources {
    pub(crate) fn new_lock(&mut self) -> usize {
        self.locks.push(None);
        self.locks.len() - 1
    }

    pub(crate) fn new_condvar(&mut self) -> usize {
        self.condvars.push(Vec::new());
        self.condvars.len() - 1
    }

    pub(crate) fn new_sem(&mut self, count: usize) -> usize {
        self.sems.push(count);
        self.sems.len() - 1
    }

    pub(crate) fn new_event(&mut self, set: bool, manual: bool) -> usize {
        self.events.push((set, manual));
        self.events.len() - 1
    }

    pub(crate) fn new_rwlock(&mut self) -> usize {
        self.rwlocks.push(RwState::default());
        self.rwlocks.len() - 1
    }

    pub(crate) fn new_barrier(&mut self, parties: usize) -> usize {
        self.barriers.push(BarrierState {
            parties,
            arrived: 0,
            generation: 0,
        });
        self.barriers.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_classification() {
        assert!(PendingOp::Acquire { lock: 0, sync: 0 }.is_blocking());
        assert!(PendingOp::Join { target: Tid(1) }.is_blocking());
        assert!(PendingOp::EventWait { event: 0, sync: 0 }.is_blocking());
        assert!(!PendingOp::Release { lock: 0, sync: 0 }.is_blocking());
        assert!(!PendingOp::Yield.is_blocking());
        assert!(!PendingOp::Start.is_blocking());
        assert!(!PendingOp::Exit.is_blocking());
        assert!(!PendingOp::AtomicAccess { sync: 0 }.is_blocking());
    }

    #[test]
    fn sites_label_kind_and_resource() {
        assert_eq!(
            PendingOp::Acquire { lock: 3, sync: 0 }.site().to_string(),
            "acquire#3"
        );
        assert_eq!(
            PendingOp::RwAcquire {
                rw: 1,
                sync: 0,
                write: true
            }
            .site()
            .to_string(),
            "rw-acquire-w#1"
        );
        assert_eq!(
            PendingOp::Join { target: Tid(2) }.site().to_string(),
            "join#2"
        );
        assert_ne!(
            PendingOp::Acquire { lock: 0, sync: 0 }.site(),
            PendingOp::Release { lock: 0, sync: 0 }.site()
        );
    }

    #[test]
    fn op_hashes_distinguish_kind_and_resource() {
        let a = PendingOp::Acquire { lock: 0, sync: 0 }.op_hash();
        let b = PendingOp::Acquire { lock: 1, sync: 0 }.op_hash();
        let c = PendingOp::Release { lock: 0, sync: 0 }.op_hash();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fallible_classification() {
        assert!(PendingOp::TryAcquire { lock: 0, sync: 0 }.is_fallible());
        assert!(PendingOp::CondWait {
            cv: 0,
            cv_sync: 0,
            lock: 0,
            lock_sync: 0
        }
        .is_fallible());
        assert!(PendingOp::FailPoint { name: "io" }.is_fallible());
        assert!(!PendingOp::Acquire { lock: 0, sync: 0 }.is_fallible());
        assert!(!PendingOp::CondReacquire {
            cv: 0,
            cv_sync: 0,
            lock: 0,
            lock_sync: 0
        }
        .is_fallible());
        assert!(!PendingOp::FailPoint { name: "io" }.is_blocking());
    }

    #[test]
    fn fail_points_hash_and_site_by_name() {
        let a = PendingOp::FailPoint { name: "disk-write" };
        let b = PendingOp::FailPoint { name: "net-send" };
        assert_ne!(a.op_hash(), b.op_hash());
        assert_eq!(a.site().to_string(), "disk-write#0");
        assert_ne!(a.op_hash() ^ FAULT_OP_SALT, a.op_hash());
    }

    #[test]
    fn resource_ids_are_dense() {
        let mut r = Resources::default();
        assert_eq!(r.new_lock(), 0);
        assert_eq!(r.new_lock(), 1);
        assert_eq!(r.new_sem(3), 0);
        assert_eq!(r.sems[0], 3);
        assert_eq!(r.new_event(true, false), 0);
        assert_eq!(r.events[0], (true, false));
    }
}
