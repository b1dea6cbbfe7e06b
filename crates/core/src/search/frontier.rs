//! A shared work-queue of exploration items for the driver's workers at
//! `jobs ≥ 2`.
//!
//! CHESS-style stateless checking is embarrassingly parallel: a work
//! item (a schedule prefix, possibly with a suspended branch stack) can
//! be replayed by any worker. The [`Frontier`] is the one shared
//! structure the workers coordinate through:
//!
//! * `pop` hands out items and *blocks* while the queue is empty but
//!   other workers still hold items — those workers may dissolve their
//!   in-progress subtrees back into the queue (work-stealing rebalance),
//!   so an empty queue does not mean the bound is done;
//! * `pop` returns `None` — terminating the worker — only when the queue
//!   is empty and no item is checked out, or after [`close`](Frontier::close);
//! * [`pause`](Frontier::pause) quiesces the swarm for checkpointing:
//!   no new items are handed out, workers return their unexplored
//!   remainders, and once [`idle`](Frontier::idle) reports no item
//!   checked out the queue *is* the complete set of unexplored work.
//!
//! The abstraction is deliberately strategy-agnostic: ICB shards the
//! current bound's queue through it, DFS shards subtree prefixes, random
//! walk shards ranges of walk indices, and a checkpoint snapshots the
//! quiesced queue as the set of unexplored work.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use crate::metrics::MetricsRegistry;

struct Inner<T> {
    queue: VecDeque<T>,
    /// Items currently checked out by workers.
    checked_out: usize,
    /// Workers currently blocked in `pop`.
    waiters: usize,
    /// Closed: `pop` returns `None` immediately (shutdown).
    closed: bool,
    /// Paused: `pop` blocks without handing out items (checkpoint
    /// quiesce).
    paused: bool,
}

/// A blocking work queue shared by the workers of one parallel search.
///
/// See the [module docs](self) for the coordination protocol.
pub struct Frontier<T> {
    inner: Mutex<Inner<T>>,
    cv: Condvar,
    /// Live counters ([`with_metrics`](Frontier::with_metrics)): queue
    /// depth, lock acquisitions, blocked pops and donation volume.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<T> std::fmt::Debug for Frontier<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock().unwrap();
        f.debug_struct("Frontier")
            .field("queued", &g.queue.len())
            .field("checked_out", &g.checked_out)
            .field("waiters", &g.waiters)
            .field("closed", &g.closed)
            .field("paused", &g.paused)
            .finish()
    }
}

impl<T> Frontier<T> {
    /// Creates a frontier seeded with `items`.
    pub fn new(items: impl IntoIterator<Item = T>) -> Self {
        Frontier::with_metrics(items, None)
    }

    /// Like [`new`](Frontier::new), but every operation additionally
    /// updates `metrics`: the queue-depth gauge, the mutex-acquisition
    /// counter (the lock is the known contention point of the parallel
    /// drivers) and the blocked-`pop` counter.
    pub fn with_metrics(
        items: impl IntoIterator<Item = T>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        let queue: VecDeque<T> = items.into_iter().collect();
        if let Some(m) = &metrics {
            m.set_frontier_len(queue.len());
        }
        Frontier {
            inner: Mutex::new(Inner {
                queue,
                checked_out: 0,
                waiters: 0,
                closed: false,
                paused: false,
            }),
            cv: Condvar::new(),
            metrics,
        }
    }

    /// Counts one mutex acquisition (call right after locking).
    fn note_lock(&self) {
        if let Some(m) = &self.metrics {
            m.frontier_lock_op();
        }
    }

    /// Takes the next item, blocking while the queue is empty but items
    /// are still checked out (they may dissolve back into the queue), or
    /// while the frontier is paused. Returns `None` when the work is
    /// exhausted or the frontier is closed.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        self.note_lock();
        let mut waited = false;
        loop {
            if g.closed {
                return None;
            }
            if !g.paused {
                if let Some(item) = g.queue.pop_front() {
                    g.checked_out += 1;
                    if let Some(m) = &self.metrics {
                        m.set_frontier_len(g.queue.len());
                    }
                    return Some(item);
                }
                if g.checked_out == 0 {
                    // Nothing queued, nothing in flight: wake any other
                    // waiters so they observe exhaustion too.
                    self.cv.notify_all();
                    return None;
                }
            }
            if !waited {
                waited = true;
                if let Some(m) = &self.metrics {
                    m.frontier_pop_wait();
                }
            }
            g.waiters += 1;
            g = self.cv.wait(g).unwrap();
            g.waiters -= 1;
        }
    }

    /// Returns an item's unexplored remainder to the queue (work
    /// donation, quiesce dissolution). Does not change the checked-out
    /// count — pair every `pop` with exactly one [`complete`](Frontier::complete).
    pub fn push_many(&self, items: impl IntoIterator<Item = T>) {
        let mut g = self.inner.lock().unwrap();
        self.note_lock();
        g.queue.extend(items);
        if let Some(m) = &self.metrics {
            m.set_frontier_len(g.queue.len());
        }
        drop(g);
        self.cv.notify_all();
    }

    /// Marks one checked-out item as fully processed (or returned via
    /// [`push_many`](Frontier::push_many)).
    pub fn complete(&self) {
        let mut g = self.inner.lock().unwrap();
        self.note_lock();
        g.checked_out = g.checked_out.saturating_sub(1);
        drop(g);
        self.cv.notify_all();
    }

    /// Whether a worker is starving: someone is blocked in `pop` on an
    /// empty queue. Busy workers consult this at execution boundaries
    /// and donate part of their subtree when it holds.
    pub fn starving(&self) -> bool {
        let g = self.inner.lock().unwrap();
        self.note_lock();
        !g.paused && g.waiters > 0 && g.queue.is_empty()
    }

    /// Stops handing out items; workers return their remainders and park
    /// in `pop` until [`unpause`](Frontier::unpause).
    pub fn pause(&self) {
        self.inner.lock().unwrap().paused = true;
        self.cv.notify_all();
    }

    /// Whether the frontier is paused (workers poll this at execution
    /// boundaries to return their items promptly).
    pub fn paused(&self) -> bool {
        let g = self.inner.lock().unwrap();
        self.note_lock();
        g.paused
    }

    /// Resumes a paused frontier.
    pub fn unpause(&self) {
        self.inner.lock().unwrap().paused = false;
        self.cv.notify_all();
    }

    /// Whether no item is checked out. Under [`pause`](Frontier::pause),
    /// once this holds (and the event channel is drained) the queue is
    /// the complete set of unexplored work — the quiesce point a
    /// checkpoint is written at.
    pub fn idle(&self) -> bool {
        self.inner.lock().unwrap().checked_out == 0
    }

    /// Closes the frontier: every current and future `pop` returns
    /// `None`. Used for shutdown on abort.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Copies the queued items out (for checkpointing, under
    /// [`pause`](Frontier::pause)).
    pub fn snapshot_queue(&self) -> Vec<T>
    where
        T: Clone,
    {
        let g = self.inner.lock().unwrap();
        g.queue.iter().cloned().collect()
    }

    /// Number of queued (not checked-out) items.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Whether the queue is empty (checked-out items not counted).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn drains_and_terminates() {
        let f = Frontier::new([1, 2, 3]);
        let seen = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while let Some(_x) = f.pop() {
                        seen.fetch_add(1, Ordering::Relaxed);
                        f.complete();
                    }
                });
            }
        });
        assert_eq!(seen.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn waiter_receives_donated_work() {
        let f = Frontier::new([0u32]);
        let total = AtomicUsize::new(0);
        // B starts popping only once A holds the item.
        let popped = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            // Worker A: takes the item, splits it into two leaves.
            s.spawn(|| {
                let item = f.pop().unwrap();
                popped.wait();
                assert_eq!(item, 0);
                f.push_many([1, 2]);
                f.complete();
                while f.pop().is_some() {
                    total.fetch_add(1, Ordering::Relaxed);
                    f.complete();
                }
            });
            // Worker B: blocks until A donates, then drains.
            s.spawn(|| {
                popped.wait();
                while f.pop().is_some() {
                    total.fetch_add(1, Ordering::Relaxed);
                    f.complete();
                }
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pause_quiesces_and_unpause_resumes() {
        let f = Frontier::new([1, 2]);
        f.pause();
        assert!(f.paused());
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let mut n = 0;
                while f.pop().is_some() {
                    n += 1;
                    f.complete();
                }
                n
            });
            // Paused: nothing handed out even though the queue is full.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(f.idle());
            assert_eq!(f.len(), 2);
            f.unpause();
            assert_eq!(h.join().unwrap(), 2);
        });
    }

    #[test]
    fn close_terminates_waiters() {
        let f: Frontier<u32> = Frontier::new([]);
        std::thread::scope(|s| {
            let h = s.spawn(|| f.pop());
            f.close();
            assert_eq!(h.join().unwrap(), None);
        });
    }
}
