//! A model-checked Win32-style event.

use std::fmt;

use crate::engine::with_current;
use crate::op::PendingOp;

/// A Win32-style event (`CreateEvent` analog), the primitive the paper's
/// driver benchmarks (Bluetooth, APE, Dryad) synchronize with.
///
/// A *manual-reset* event stays signaled until [`reset`](Event::reset);
/// an *auto-reset* event releases exactly one waiter per
/// [`set`](Event::set).
///
/// # Examples
///
/// ```
/// use icb_core::search::Search;
/// use icb_runtime::{RuntimeProgram, sync::Event, thread};
/// use std::sync::Arc;
///
/// let program = RuntimeProgram::new(|| {
///     let done = Arc::new(Event::manual_reset(false));
///     let t = {
///         let done = Arc::clone(&done);
///         thread::spawn(move || done.set())
///     };
///     done.wait();
///     t.join();
/// });
/// let report = Search::over(&program).run().unwrap();
/// assert!(report.completed && report.bugs.is_empty());
/// ```
pub struct Event {
    event_id: usize,
    sync_id: usize,
}

impl Event {
    /// Creates a manual-reset event.
    ///
    /// # Panics
    ///
    /// Panics if called outside a running execution.
    pub fn manual_reset(initially_set: bool) -> Self {
        let (event_id, sync_id) =
            with_current(|exec, _| exec.register(|r| r.new_event(initially_set, true)));
        Event { event_id, sync_id }
    }

    /// Creates an auto-reset event: each `set` releases one waiter.
    ///
    /// # Panics
    ///
    /// Panics if called outside a running execution.
    pub fn auto_reset(initially_set: bool) -> Self {
        let (event_id, sync_id) =
            with_current(|exec, _| exec.register(|r| r.new_event(initially_set, false)));
        Event { event_id, sync_id }
    }

    /// Blocks (in model time) until the event is signaled. Consumes the
    /// signal if the event is auto-reset.
    pub fn wait(&self) {
        with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::EventWait {
                    event: self.event_id,
                    sync: self.sync_id,
                },
            );
        });
    }

    /// Signals the event.
    pub fn set(&self) {
        with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::EventSet {
                    event: self.event_id,
                    sync: self.sync_id,
                },
            );
        });
    }

    /// Unsignals the event.
    pub fn reset(&self) {
        with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::EventReset {
                    event: self.event_id,
                    sync: self.sync_id,
                },
            );
        });
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event").field("id", &self.event_id).finish()
    }
}
