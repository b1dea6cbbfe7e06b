//! A model-checked cyclic barrier.

use std::fmt;

use crate::engine::{with_current, EffectOut};
use crate::op::PendingOp;

/// A cyclic barrier for a fixed number of parties.
///
/// [`wait`](Barrier::wait) blocks (in model time) until all parties have
/// arrived, then releases the whole generation; the barrier resets and
/// can be reused. A party count mismatch (fewer tasks than `parties`
/// ever calling `wait`) shows up as a deadlock — which is precisely what
/// the model checker will report.
///
/// # Examples
///
/// ```
/// use icb_core::search::Search;
/// use icb_runtime::{RuntimeProgram, sync::{AtomicUsize, Barrier}, thread};
/// use std::sync::Arc;
///
/// let program = RuntimeProgram::new(|| {
///     let barrier = Arc::new(Barrier::new(2));
///     let phase1 = Arc::new(AtomicUsize::new(0));
///     let ts: Vec<_> = (0..2).map(|_| {
///         let (barrier, phase1) = (Arc::clone(&barrier), Arc::clone(&phase1));
///         thread::spawn(move || {
///             phase1.fetch_add(1);
///             barrier.wait();
///             // After the barrier, both phase-1 increments are visible.
///             assert_eq!(phase1.load(), 2);
///         })
///     }).collect();
///     for t in ts { t.join(); }
/// });
/// let report = Search::over(&program).run().unwrap();
/// assert!(report.completed && report.bugs.is_empty());
/// ```
pub struct Barrier {
    bar_id: usize,
    sync_id: usize,
}

impl Barrier {
    /// Creates a barrier for `parties` tasks.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero or if called outside a running
    /// execution.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        let (bar_id, sync_id) = with_current(|exec, _| exec.register(|r| r.new_barrier(parties)));
        Barrier { bar_id, sync_id }
    }

    /// Arrives at the barrier and blocks until the current generation
    /// is complete.
    pub fn wait(&self) {
        with_current(|exec, tid| {
            let out = exec.sched_point(
                tid,
                PendingOp::BarrierArrive {
                    bar: self.bar_id,
                    sync: self.sync_id,
                },
            );
            let gen = match out {
                EffectOut::Generation(gen) => gen,
                _ => unreachable!("BarrierArrive yields a generation"),
            };
            exec.sched_point(
                tid,
                PendingOp::BarrierWait {
                    bar: self.bar_id,
                    sync: self.sync_id,
                    gen,
                },
            );
        });
    }
}

impl fmt::Debug for Barrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Barrier").field("id", &self.bar_id).finish()
    }
}
