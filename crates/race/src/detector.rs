//! Data-race detection via vector clocks.
//!
//! Sync objects (locks, events, semaphores, atomics — everything in the
//! paper's `SyncVar`) carry a clock that transfers happens-before edges
//! between threads. Data variables (`DataVar`) are merely *checked*: every
//! access must be ordered with every previous conflicting access, or the
//! execution contains a data race and the sound reduction of Section 3.1
//! does not apply.
//!
//! The per-variable state is the FastTrack representation: a single write
//! *epoch* `(thread, clock)` plus a read clock; this is an optimization of
//! (and equivalent to) keeping full vector clocks per access.

use crate::clock::VectorClock;
use icb_core::Tid;
use std::fmt;

/// Read or write, for race reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load of a data variable.
    Read,
    /// A store to a data variable.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// Description of a detected data race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataRaceInfo {
    /// Index of the data variable (detector-assigned).
    pub var: usize,
    /// Optional human-readable variable name.
    pub var_name: Option<String>,
    /// The earlier access.
    pub first: (Tid, AccessKind),
    /// The later access, unordered with the first.
    pub second: (Tid, AccessKind),
}

impl fmt::Display for DataRaceInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match &self.var_name {
            Some(n) => n.clone(),
            None => format!("data[{}]", self.var),
        };
        write!(
            f,
            "{} by {} races with {} by {} on {}",
            self.second.1, self.second.0, self.first.1, self.first.0, name
        )
    }
}

#[derive(Clone, Debug, Default)]
struct DataVarState {
    /// Epoch of the last write: `(thread, clock-at-write)`.
    last_write: Option<(Tid, u32)>,
    /// Clock of the last read *per thread*.
    reads: VectorClock,
    name: Option<String>,
}

/// Vector-clock happens-before tracker and data-race checker for one
/// execution.
///
/// The detector is reset (or rebuilt) for every execution; ids for
/// threads, sync objects and data variables are dense indices assigned by
/// the host runtime.
///
/// # Examples
///
/// ```
/// use icb_race::{RaceDetector, AccessKind, Tid};
/// let mut d = RaceDetector::new();
/// let m = d.new_sync_object();
/// let x = d.new_data_var(Some("x".into()));
///
/// // T0 writes x under the lock; T1 reads x without synchronizing.
/// d.sync_acquire(Tid(0), m);
/// d.data_access(Tid(0), x, AccessKind::Write).unwrap();
/// d.sync_release(Tid(0), m);
/// let race = d.data_access(Tid(1), x, AccessKind::Read).unwrap_err();
/// assert_eq!(race.first.0, Tid(0));
/// assert_eq!(race.second.0, Tid(1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RaceDetector {
    threads: Vec<VectorClock>,
    sync: Vec<VectorClock>,
    data: Vec<DataVarState>,
    races_detected: usize,
}

impl RaceDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        RaceDetector::default()
    }

    /// Ensures `tid`'s clock exists. A fresh thread's own component
    /// starts at 1 (the FastTrack convention): a thread's epoch is only
    /// ever *published* followed by a tick, so every published own-value
    /// is strictly below the epochs of later accesses.
    fn ensure_thread(&mut self, tid: Tid) {
        if self.threads.len() <= tid.index() {
            let old = self.threads.len();
            self.threads.resize_with(tid.index() + 1, VectorClock::new);
            for (i, clock) in self.threads.iter_mut().enumerate().skip(old) {
                clock.set(Tid(i), 1);
            }
        }
    }

    /// The current clock of `tid`.
    pub fn thread_clock(&self, tid: Tid) -> VectorClock {
        self.threads.get(tid.index()).cloned().unwrap_or_default()
    }

    /// Registers a new synchronization object, returning its id.
    pub fn new_sync_object(&mut self) -> usize {
        self.sync.push(VectorClock::new());
        self.sync.len() - 1
    }

    /// Registers a new data variable, returning its id.
    pub fn new_data_var(&mut self, name: Option<String>) -> usize {
        self.data.push(DataVarState {
            name,
            ..DataVarState::default()
        });
        self.data.len() - 1
    }

    /// Acquire edge: `tid` inherits everything that happened before the
    /// last release of `sync` (lock acquire, event wait, semaphore P,
    /// atomic load).
    pub fn sync_acquire(&mut self, tid: Tid, sync: usize) {
        self.ensure_thread(tid);
        let clock = self.sync[sync].clone();
        self.threads[tid.index()].join(&clock);
    }

    /// Release edge: subsequent acquirers of `sync` inherit `tid`'s
    /// history (lock release, event set, semaphore V, atomic store).
    ///
    /// Publishes the clock first, *then* ticks, so later accesses by
    /// `tid` have epochs strictly above everything observers can inherit.
    pub fn sync_release(&mut self, tid: Tid, sync: usize) {
        self.ensure_thread(tid);
        let clock = self.threads[tid.index()].clone();
        self.sync[sync].join(&clock);
        self.threads[tid.index()].tick(tid);
    }

    /// Combined acquire + release edge — a full read-modify-write of a
    /// synchronization variable. Every pair of accesses to the same sync
    /// variable becomes ordered, matching the paper's dependence relation
    /// ("same synchronization variable" ⇒ dependent).
    pub fn sync_access(&mut self, tid: Tid, sync: usize) {
        self.sync_acquire(tid, sync);
        self.sync_release(tid, sync);
    }

    /// Fork edge: `child` starts with everything `parent` has done.
    pub fn fork(&mut self, parent: Tid, child: Tid) {
        self.ensure_thread(parent);
        self.ensure_thread(child);
        let pc = self.threads[parent.index()].clone();
        self.threads[child.index()].join(&pc);
        self.threads[parent.index()].tick(parent);
    }

    /// Join edge: `parent` inherits everything `child` did.
    pub fn join(&mut self, parent: Tid, child: Tid) {
        self.ensure_thread(parent);
        self.ensure_thread(child);
        let cc = self.threads[child.index()].clone();
        self.threads[child.index()].tick(child);
        self.threads[parent.index()].join(&cc);
    }

    /// Checks (and records) an access to data variable `var` by `tid`.
    ///
    /// # Errors
    ///
    /// Returns the race description if the access is not ordered by
    /// happens-before with some previous conflicting access.
    pub fn data_access(
        &mut self,
        tid: Tid,
        var: usize,
        kind: AccessKind,
    ) -> Result<(), DataRaceInfo> {
        let result = self.check_data_access(tid, var, kind);
        if result.is_err() {
            self.races_detected += 1;
        }
        result
    }

    fn check_data_access(
        &mut self,
        tid: Tid,
        var: usize,
        kind: AccessKind,
    ) -> Result<(), DataRaceInfo> {
        self.ensure_thread(tid);
        let clock = &self.threads[tid.index()];
        let epoch = clock.get(tid);
        let state = &mut self.data[var];

        // Write-X races: any access conflicts with an unordered write.
        if let Some((wt, wc)) = state.last_write {
            if wt != tid && clock.get(wt) < wc {
                return Err(DataRaceInfo {
                    var,
                    var_name: state.name.clone(),
                    first: (wt, AccessKind::Write),
                    second: (tid, kind),
                });
            }
        }
        match kind {
            AccessKind::Read => {
                state.reads.set(tid, epoch);
            }
            AccessKind::Write => {
                // Read-write races: the write must see every prior read.
                for (rt, rc) in state.reads.iter() {
                    if rt != tid && clock.get(rt) < rc {
                        return Err(DataRaceInfo {
                            var,
                            var_name: state.name.clone(),
                            first: (rt, AccessKind::Read),
                            second: (tid, kind),
                        });
                    }
                }
                state.last_write = Some((tid, epoch));
                state.reads.clear();
                state.reads.set(tid, epoch);
            }
        }
        Ok(())
    }

    /// Number of racy accesses flagged so far in this execution — the
    /// count of [`data_access`](RaceDetector::data_access) calls that
    /// returned an error, whether or not the host chose to abort on them.
    pub fn races_detected(&self) -> usize {
        self.races_detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_locked_accesses_do_not_race() {
        let mut d = RaceDetector::new();
        let m = d.new_sync_object();
        let x = d.new_data_var(None);
        for t in [Tid(0), Tid(1), Tid(0), Tid(1)] {
            d.sync_acquire(t, m);
            d.data_access(t, x, AccessKind::Write).expect("no race");
            d.data_access(t, x, AccessKind::Read).expect("no race");
            d.sync_release(t, m);
        }
    }

    #[test]
    fn unlocked_write_write_races() {
        let mut d = RaceDetector::new();
        let x = d.new_data_var(Some("x".into()));
        d.data_access(Tid(0), x, AccessKind::Write).unwrap();
        let race = d.data_access(Tid(1), x, AccessKind::Write).unwrap_err();
        assert_eq!(race.first, (Tid(0), AccessKind::Write));
        assert_eq!(race.second, (Tid(1), AccessKind::Write));
        assert!(race.to_string().contains("x"));
    }

    #[test]
    fn concurrent_reads_are_fine_but_write_races_with_them() {
        let mut d = RaceDetector::new();
        let x = d.new_data_var(None);
        d.data_access(Tid(0), x, AccessKind::Read).unwrap();
        d.data_access(Tid(1), x, AccessKind::Read).unwrap();
        let race = d.data_access(Tid(2), x, AccessKind::Write).unwrap_err();
        assert_eq!(race.second, (Tid(2), AccessKind::Write));
        assert_eq!(race.first.1, AccessKind::Read);
    }

    #[test]
    fn fork_orders_parent_before_child() {
        let mut d = RaceDetector::new();
        let x = d.new_data_var(None);
        d.data_access(Tid(0), x, AccessKind::Write).unwrap();
        d.fork(Tid(0), Tid(1));
        d.data_access(Tid(1), x, AccessKind::Write)
            .expect("ordered by fork");
    }

    #[test]
    fn join_orders_child_before_parent() {
        let mut d = RaceDetector::new();
        let x = d.new_data_var(None);
        d.fork(Tid(0), Tid(1));
        d.data_access(Tid(1), x, AccessKind::Write).unwrap();
        d.join(Tid(0), Tid(1));
        d.data_access(Tid(0), x, AccessKind::Read)
            .expect("ordered by join");
    }

    #[test]
    fn lock_release_acquire_transfers_order() {
        let mut d = RaceDetector::new();
        let m = d.new_sync_object();
        let x = d.new_data_var(None);
        d.sync_acquire(Tid(0), m);
        d.data_access(Tid(0), x, AccessKind::Write).unwrap();
        d.sync_release(Tid(0), m);
        d.sync_acquire(Tid(1), m);
        d.data_access(Tid(1), x, AccessKind::Write)
            .expect("ordered by lock");
    }

    #[test]
    fn different_locks_do_not_order() {
        let mut d = RaceDetector::new();
        let m1 = d.new_sync_object();
        let m2 = d.new_sync_object();
        let x = d.new_data_var(None);
        d.sync_acquire(Tid(0), m1);
        d.data_access(Tid(0), x, AccessKind::Write).unwrap();
        d.sync_release(Tid(0), m1);
        d.sync_acquire(Tid(1), m2);
        assert!(d.data_access(Tid(1), x, AccessKind::Write).is_err());
    }

    #[test]
    fn atomic_accesses_totally_order_each_other() {
        let mut d = RaceDetector::new();
        let a = d.new_sync_object();
        let x = d.new_data_var(None);
        // T0 writes x then "publishes" via atomic; T1 reads the atomic
        // then reads x — the classic message-passing idiom.
        d.data_access(Tid(0), x, AccessKind::Write).unwrap();
        d.sync_access(Tid(0), a);
        d.sync_access(Tid(1), a);
        d.data_access(Tid(1), x, AccessKind::Read)
            .expect("published");
    }

    #[test]
    fn read_then_unordered_write_is_reported_with_read_first() {
        let mut d = RaceDetector::new();
        let x = d.new_data_var(None);
        d.data_access(Tid(0), x, AccessKind::Read).unwrap();
        let race = d.data_access(Tid(1), x, AccessKind::Write).unwrap_err();
        assert_eq!(race.first, (Tid(0), AccessKind::Read));
    }

    #[test]
    fn write_after_release_races_with_acquirer() {
        // Regression: T0 releases the lock and *then* writes x outside
        // the critical section; T1's subsequent acquire does not order
        // the write, so a race must be reported.
        let mut d = RaceDetector::new();
        let m = d.new_sync_object();
        let x = d.new_data_var(None);
        d.sync_acquire(Tid(0), m);
        d.sync_release(Tid(0), m);
        d.data_access(Tid(0), x, AccessKind::Write).unwrap();
        d.sync_acquire(Tid(1), m);
        assert!(d.data_access(Tid(1), x, AccessKind::Read).is_err());
    }

    #[test]
    fn same_thread_never_races_with_itself() {
        let mut d = RaceDetector::new();
        let x = d.new_data_var(None);
        for _ in 0..4 {
            d.data_access(Tid(0), x, AccessKind::Write).unwrap();
            d.data_access(Tid(0), x, AccessKind::Read).unwrap();
        }
    }
}
