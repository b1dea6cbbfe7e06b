//! A tiny reusable worker-thread pool.
//!
//! Every child task of every execution runs on an OS thread (the root
//! task runs on the caller's thread unless a watchdog is set), and
//! systematic searches perform tens of thousands of executions; spawning
//! fresh threads each time would dominate the cost. Workers are parked in
//! a process-global pool and handed one job (one task lifetime) at a
//! time. The engine dispatches a task's job only on the task's first
//! turn, so each dispatch is the one wake-up that starts the task.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, OnceLock};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

fn pool() -> &'static Mutex<Vec<Sender<Job>>> {
    static POOL: OnceLock<Mutex<Vec<Sender<Job>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

/// Runs `job` on a pooled worker thread (spawning a new worker if the
/// pool is empty). The worker returns itself to the pool when the job
/// finishes, even if it panics.
pub(crate) fn run_on_worker(job: Job) {
    let sender = {
        let mut guard = pool().lock().unwrap_or_else(|e| e.into_inner());
        guard.pop()
    };
    let sender = sender.unwrap_or_else(spawn_worker);
    sender
        .send(job)
        .expect("icb worker thread exited unexpectedly");
}

fn spawn_worker() -> Sender<Job> {
    let (tx, rx) = channel::<Job>();
    let recycled = tx.clone();
    thread::Builder::new()
        .name("icb-task-worker".to_string())
        .spawn(move || {
            for job in rx.iter() {
                // Jobs contain their own panic handling; this guard only
                // protects the pool invariant.
                let _ = catch_unwind(AssertUnwindSafe(job));
                let mut guard = pool().lock().unwrap_or_else(|e| e.into_inner());
                guard.push(recycled.clone());
            }
        })
        .expect("failed to spawn icb worker thread");
    tx
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn jobs_run_and_workers_recycle() {
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = channel();
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            let done = done_tx.clone();
            run_on_worker(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                done.send(()).unwrap();
            }));
        }
        for _ in 0..16 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let (done_tx, done_rx) = channel();
        run_on_worker(Box::new(|| panic!("job panic")));
        run_on_worker(Box::new(move || {
            done_tx.send(()).unwrap();
        }));
        done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("pool survived a panicking job");
    }
}
