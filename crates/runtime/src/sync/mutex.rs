//! A model-checked mutual-exclusion lock.

use std::cell::UnsafeCell;
use std::fmt;

use crate::engine::{try_with_current, with_current, EffectOut};
use crate::op::{PendingOp, Resources};

/// A mutex whose acquisition order is controlled by the model checker.
///
/// Unlike `std::sync::Mutex` there is no poisoning: an assertion failure
/// anywhere aborts the whole execution, so a guard can never observe a
/// poisoned lock.
///
/// # Examples
///
/// ```
/// use icb_core::search::Search;
/// use icb_runtime::{RuntimeProgram, sync::Mutex, thread};
/// use std::sync::Arc;
///
/// let program = RuntimeProgram::new(|| {
///     let total = Arc::new(Mutex::new(0));
///     let t = {
///         let total = Arc::clone(&total);
///         thread::spawn(move || *total.lock() += 1)
///     };
///     *total.lock() += 1;
///     t.join();
///     assert_eq!(*total.lock(), 2);
/// });
/// let report = Search::over(&program).run().unwrap();
/// assert!(report.completed && report.bugs.is_empty());
/// ```
pub struct Mutex<T> {
    pub(crate) lock_id: usize,
    pub(crate) sync_id: usize,
    data: UnsafeCell<T>,
}

// SAFETY: the model enforces mutual exclusion (the `Acquire` effect only
// fires when the lock is free), and at most one task runs at any time.
unsafe impl<T: Send> Sync for Mutex<T> {}
unsafe impl<T: Send> Send for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates a mutex holding `data`.
    ///
    /// # Panics
    ///
    /// Panics if called outside a running execution.
    pub fn new(data: T) -> Self {
        let (lock_id, sync_id) = with_current(|exec, _| exec.register(Resources::new_lock));
        Mutex {
            lock_id,
            sync_id,
            data: UnsafeCell::new(data),
        }
    }

    /// Acquires the lock, blocking (in model time) until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::Acquire {
                    lock: self.lock_id,
                    sync: self.sync_id,
                },
            );
        });
        MutexGuard { mutex: self }
    }

    /// Attempts to acquire the lock without blocking.
    ///
    /// Even a failed attempt is a synchronization operation and hence a
    /// scheduling point.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let acquired = with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::TryAcquire {
                    lock: self.lock_id,
                    sync: self.sync_id,
                },
            )
        });
        match acquired {
            EffectOut::Acquired(true) => Some(MutexGuard { mutex: self }),
            EffectOut::Acquired(false) => None,
            _ => unreachable!("TryAcquire yields Acquired"),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The inner value may be held by another task; show identity only.
        f.debug_struct("Mutex").field("id", &self.lock_id).finish()
    }
}

/// RAII guard: the lock is released (a scheduling point) on drop.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
}

impl<'a, T> MutexGuard<'a, T> {
    /// The mutex this guard locks (associated fn: guards are smart
    /// pointers and must not add inherent methods).
    pub(crate) fn mutex(guard: &MutexGuard<'a, T>) -> &'a Mutex<T> {
        guard.mutex
    }

    /// Reconstructs a guard after a condvar wait reacquired the lock at
    /// the model level.
    pub(crate) fn renew(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
        MutexGuard { mutex }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the model granted this task the lock; no other task
        // runs concurrently.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for Deref, plus the guard is unique.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Never panic in drop: outside an execution (or during an abort
        // unwind) the release is meaningless and skipped.
        let _ = try_with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::Release {
                    lock: self.mutex.lock_id,
                    sync: self.mutex.sync_id,
                },
            );
        });
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("MutexGuard").field(&**self).finish()
    }
}
