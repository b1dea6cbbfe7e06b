//! An explicit-state concurrent VM with state-caching model checking —
//! the paper's ZING analog.
//!
//! Models are closed concurrent programs over global scalars, arrays and
//! locks, with a fixed set of threads; each *step* performs exactly one
//! shared-variable access (Section 2's execution model). Because states
//! are concrete and hashable, this checker offers what the stateless
//! runtime cannot:
//!
//! * **exact distinct-state counting** — the coverage metric of every
//!   figure in the paper;
//! * **state caching** — the `table` extension of Algorithm 1, pruning
//!   revisits across and within preemption bounds;
//! * **exhaustive reachability** ([`reachable_states`]) — the
//!   denominator of the "% state space covered" plots.
//!
//! Models also implement
//! [`ControlledProgram`](icb_core::ControlledProgram), so every stateless
//! search strategy runs on them unchanged; the test suites cross-validate
//! the two checkers against each other.
//!
//! # Example
//!
//! ```
//! use icb_statevm::{ModelBuilder, ExplicitIcb, ExplicitConfig};
//!
//! // Flag-based mutual exclusion: each thread raises its flag, then
//! // enters only if the other's flag is down.
//! let mut m = ModelBuilder::new();
//! let flag0 = m.global("flag0", 0);
//! let flag1 = m.global("flag1", 0);
//! let critical = m.global("critical", 0);
//! m.thread("t0", |t| {
//!     let seen = t.local();
//!     let c = t.local();
//!     t.store(flag0, 1);
//!     t.load(flag1, seen);
//!     let skip = t.new_label();
//!     t.jump_if(seen.eq(1), skip);
//!     t.fetch_add(critical, 1, c);
//!     t.assert(c.eq(0), "mutual exclusion violated");
//!     t.fetch_sub(critical, 1, c);
//!     t.place(skip);
//! });
//! m.thread("t1", |t| {
//!     let seen = t.local();
//!     let c = t.local();
//!     t.store(flag1, 1);
//!     t.load(flag0, seen);
//!     let skip = t.new_label();
//!     t.jump_if(seen.eq(1), skip);
//!     t.fetch_add(critical, 1, c);
//!     t.assert(c.eq(0), "mutual exclusion violated");
//!     t.fetch_sub(critical, 1, c);
//!     t.place(skip);
//! });
//! let model = m.build();
//!
//! // This protocol is safe under sequential consistency (each thread
//! // sets its flag before checking the other's), so the checker proves
//! // mutual exclusion over the full state space.
//! let report = ExplicitIcb::new(ExplicitConfig::default()).run(&model);
//! assert!(report.completed);
//! assert!(report.bugs.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adapter;
mod builder;
mod disasm;
mod explicit;
mod expr;
mod instr;
mod model;
pub mod por;

pub use builder::{Label, ModelBuilder, ThreadBuilder};
pub use disasm::ModelStats;
pub use explicit::{
    reachable_states, ExplicitBoundStats, ExplicitBug, ExplicitConfig, ExplicitIcb, ExplicitReport,
};
pub use expr::{Expr, Local};
pub use instr::{ArrayVar, BlockPred, Global, Instr, Lock, LockArray, RmwOp};
pub use model::{Model, StepError, ThreadCode, ThreadState, VmState};

/// Two threads increment `g` with a separate load and store; a third
/// asserts `g == 2` once both are done, so the lost update needs exactly
/// one preemption. The checker "joins" both incrementers by blocking
/// until the completion counter reaches 2: a spin loop would livelock
/// under the forced-continue policy of the nested ICB search and explode
/// the step budget, so blocking waits are the VM's join idiom.
#[cfg(test)]
fn lost_update() -> Model {
    let mut m = ModelBuilder::new();
    let g = m.global("g", 0);
    let done = m.global("done", 0);
    for _ in 0..2 {
        m.thread("inc", |t| {
            let tmp = t.local();
            t.load(g, tmp);
            t.store(g, tmp + 1);
            t.fetch_add(done, 1, tmp);
        });
    }
    m.thread("check", |t| {
        let v = t.local();
        t.wait_eq(done, 2);
        t.load(g, v);
        t.assert(v.eq(2), "lost update");
    });
    m.build()
}

/// Two threads take locks `a` and `b` in opposite orders: the classic
/// deadlock, one preemption deep.
#[cfg(test)]
fn lock_order_deadlock() -> Model {
    let mut m = ModelBuilder::new();
    let a = m.lock("a");
    let b = m.lock("b");
    m.thread("t0", |t| {
        t.acquire(a);
        t.acquire(b);
        t.release(b);
        t.release(a);
    });
    m.thread("t1", |t| {
        t.acquire(b);
        t.acquire(a);
        t.release(a);
        t.release(b);
    });
    m.build()
}
