//! The engine's baton protocol (`src/engine.rs`) as an `icb-statevm`
//! model, checked by this repository's own search.
//!
//! The model is one execution of a fixed program, under the
//! non-preemptive engine schedule: the root task spawns children A and B,
//! joins A, joins B and exits, and A's body may panic (a fail point
//! stands for the panic). The VM's threads are the OS threads: the caller,
//! which runs the root task because no watchdog is set, and the two
//! pooled workers that run A and B. The search explores how those threads
//! interleave, so it covers what wall-clock tests see only when the OS
//! happens to produce it.
//!
//! What each part abstracts, by the `engine.rs` function behind it:
//!
//! * the execution mutex is a VM lock; `schedule`'s decisions are those
//!   of the non-preemptive replay, written out for this program;
//! * `Baton::register` sets a participant's slot flag;
//!   `Baton::hand_to` stores the turn word and, if the slot is set, sets
//!   the thread's one-bit permit (`Thread::unpark`);
//!   `Baton::wait_for` loads the turn word and, if it does not name the
//!   participant, parks: `wait_nonzero` on the permit, then a store of
//!   0, and checks again. The caller's thread has one permit for both of
//!   its roles;
//! * `Execution::pass_to` is `hand_to` plus taking the unstarted flag,
//!   and `Execution::start` sets the worker's dispatch flag, on which the
//!   worker waits as `pool::run_on_worker`'s worker waits for its job;
//! * `Execution::abort` sets the abort flag, stores the turn word `ALL`,
//!   sets the permit of every registered task (`Baton::wake_all`), and
//!   starts every unstarted task;
//! * `Execution::handle_task_panic` counts a task out and, for the last
//!   one, hands the turn back to the caller, and `Execution::run`'s drain
//!   waits for that.
//!
//! The root's `Start` and its two `Spawn` steps run before any other
//! thread can, so the initial state already holds their effects: the turn
//! is the root's, three tasks are alive, and A's and B's bodies are
//! stored but not started.
//!
//! The model asserts that at most one task runs outside an abort, that
//! only a task the turn word names makes a decision, and that the
//! execution ends with the turn at the caller and no task alive. A
//! participant left parked, or a worker never started, is a deadlock.
//!
//! The VM runs under sequential consistency, so this checks the protocol,
//! not the memory orderings of the Rust code; those rest on the execution
//! mutex, which orders every turn-word store after the state it
//! publishes.

use icb_core::search::{Search, SearchConfig, SearchReport};
use icb_core::ExecutionOutcome;
use icb_statevm::{Expr, Global, Label, Lock, Model, ModelBuilder, ThreadBuilder};

/// The turn word's values: task `i` is `i`, as in `engine.rs`.
const ROOT: i64 = 0;
const A: i64 = 1;
const B: i64 = 2;
const ALL: i64 = -2;
const CALLER: i64 = -1;

/// A protocol change to check: the engine as it is, or a known bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    Engine,
    /// `abort` wakes the parked tasks but does not start the unstarted
    /// ones, so the caller drains forever.
    AbortLeavesUnstarted,
    /// A participant fills its slot after its last ready check, right
    /// before it parks: a handoff in between wakes nobody.
    SlotAfterReadyCheck,
}

/// One participant of the baton: its turn word, its slot, and the permit
/// of the thread it runs on.
#[derive(Clone, Copy)]
struct Role {
    word: i64,
    slot: Global,
    permit: Global,
}

/// The model's shared state.
#[derive(Clone, Copy)]
struct Proto {
    variant: Variant,
    mutex: Lock,
    turn: Global,
    abort: Global,
    alive: Global,
    holders: Global,
    caller: Role,
    root: Role,
    tasks: [(Role, Global, Global); 2],
}

impl Proto {
    /// The role of A or B, with its unstarted and dispatch flags.
    fn task(&self, word: i64) -> (Role, Global, Global) {
        self.tasks[(word - 1) as usize]
    }

    /// `Baton::register`.
    fn register(&self, t: &mut ThreadBuilder, who: Role) {
        if self.variant != Variant::SlotAfterReadyCheck {
            t.store(who.slot, 1);
        }
    }

    /// `Baton::wait_for`.
    fn wait_for(&self, t: &mut ThreadBuilder, who: Role) {
        let turn = t.local();
        let check = t.new_label();
        let ready = t.new_label();
        t.place(check);
        t.load(self.turn, turn);
        let mine: Expr = if who.word == CALLER {
            turn.eq(CALLER)
        } else {
            turn.eq(who.word).or(turn.eq(ALL))
        };
        t.jump_if(mine, ready);
        if self.variant == Variant::SlotAfterReadyCheck {
            t.store(who.slot, 1);
        }
        t.wait_nonzero(who.permit);
        t.store(who.permit, 0);
        t.jump(check);
        t.place(ready);
    }

    /// `Baton::hand_to`.
    fn hand_to(&self, t: &mut ThreadBuilder, who: Role) {
        t.store(self.turn, who.word);
        self.unpark_if_registered(t, who);
    }

    fn unpark_if_registered(&self, t: &mut ThreadBuilder, who: Role) {
        let registered = t.local();
        let skip = t.new_label();
        t.load(who.slot, registered);
        t.jump_unless(registered, skip);
        t.store(who.permit, 1);
        t.place(skip);
    }

    /// `Execution::pass_to` to A or B, then `Execution::start` once the
    /// lock is released.
    fn pass_to_and_start(&self, t: &mut ThreadBuilder, next: i64) {
        let (role, unstarted, dispatch) = self.task(next);
        self.hand_to(t, role);
        let first = t.local();
        t.load(unstarted, first);
        t.store(unstarted, 0);
        t.release(self.mutex);
        let started = t.new_label();
        t.jump_unless(first, started);
        t.store(dispatch, 1);
        t.place(started);
    }

    /// Takes the execution lock after a wait (`Execution::wait_turn`),
    /// jumping to `unwind` if the execution was aborted.
    fn lock_or_unwind(&self, t: &mut ThreadBuilder, unwind: Label) {
        let aborted = t.local();
        t.acquire(self.mutex);
        t.load(self.abort, aborted);
        t.jump_if(aborted, unwind);
    }

    /// The task starts running: no other task may be running.
    fn enter(&self, t: &mut ThreadBuilder) {
        let before = t.local();
        t.fetch_add(self.holders, 1, before);
        t.assert(before.eq(0), "two tasks run at once");
    }

    fn leave(&self, t: &mut ThreadBuilder) {
        let before = t.local();
        t.fetch_sub(self.holders, 1, before);
    }

    /// The holder's `Execution::schedule`: it reaches the host only while
    /// the turn word names it.
    fn decide(&self, t: &mut ThreadBuilder, me: i64) {
        let turn = t.local();
        t.load(self.turn, turn);
        t.assert(
            turn.eq(me),
            "a decision by a task that does not hold the turn",
        );
    }

    /// One task counted out under the lock; the last hands the turn back
    /// (`Execution::handle_task_panic`, and the `alive == 0` arm of
    /// `Execution::hand_on`).
    fn count_out(&self, t: &mut ThreadBuilder) {
        let before = t.local();
        let skip = t.new_label();
        t.fetch_sub(self.alive, 1, before);
        t.jump_unless(before.eq(1), skip);
        self.hand_to(t, self.caller);
        t.place(skip);
    }

    /// A task that saw the abort under the lock: `panic_abort` drops the
    /// lock, and `handle_task_panic` takes it again to count the task out.
    fn unwind(&self, t: &mut ThreadBuilder) {
        t.release(self.mutex);
        t.acquire(self.mutex);
        self.count_out(t);
        t.release(self.mutex);
    }

    /// `Execution::abort`, called with the lock held.
    fn abort(&self, t: &mut ThreadBuilder) {
        t.store(self.abort, 1);
        t.store(self.turn, ALL);
        for who in [self.root, self.tasks[0].0, self.tasks[1].0] {
            self.unpark_if_registered(t, who);
        }
        if self.variant != Variant::AbortLeavesUnstarted {
            for (_, unstarted, dispatch) in self.tasks {
                let first = t.local();
                let skip = t.new_label();
                t.load(unstarted, first);
                t.jump_unless(first, skip);
                t.store(unstarted, 0);
                t.store(dispatch, 1);
                t.place(skip);
            }
        }
    }

    /// The caller's thread: `Execution::run`, with the root task's
    /// `task_main` run in place.
    fn caller(&self, t: &mut ThreadBuilder) {
        let unwind = t.new_label();
        let root_done = t.new_label();
        self.register(t, self.root);
        // `first_turn`: the turn is already the root's.
        self.wait_for(t, self.root);
        self.lock_or_unwind(t, unwind);
        self.enter(t);
        for child in [A, B] {
            // `join(child)`: the child has not run, so the root blocks,
            // and the pick is the child.
            self.decide(t, ROOT);
            self.leave(t);
            self.pass_to_and_start(t, child);
            self.wait_for(t, self.root);
            self.lock_or_unwind(t, unwind);
            self.enter(t);
        }
        // The root exits last.
        self.decide(t, ROOT);
        self.leave(t);
        let before = t.local();
        t.fetch_sub(self.alive, 1, before);
        t.assert(before.eq(1), "the root exits while a child is alive");
        self.hand_to(t, self.caller);
        t.release(self.mutex);
        t.jump(root_done);
        t.place(unwind);
        self.unwind(t);
        t.place(root_done);

        // Back in `run`: wait for the turn, then drain.
        self.register(t, self.caller);
        self.wait_for(t, self.caller);
        let drain = t.new_label();
        let drained = t.new_label();
        let alive = t.local();
        t.place(drain);
        t.acquire(self.mutex);
        t.load(self.alive, alive);
        t.jump_if(alive.eq(0), drained);
        t.release(self.mutex);
        self.wait_for(t, self.caller);
        t.jump(drain);
        t.place(drained);
        let turn = t.local();
        t.load(self.turn, turn);
        t.assert(
            turn.eq(CALLER),
            "the execution ends with the turn elsewhere",
        );
        t.release(self.mutex);
    }

    /// The worker that runs A (`may_panic`) or B: it waits for its job,
    /// then runs `task_main`.
    fn worker(&self, t: &mut ThreadBuilder, me: i64, may_panic: bool) {
        let (role, _, dispatch) = self.task(me);
        let unwind = t.new_label();
        let end = t.new_label();
        t.wait_nonzero(dispatch);
        self.register(t, role);
        // `first_turn`: the turn is already the task's, or `ALL`.
        self.wait_for(t, role);
        self.lock_or_unwind(t, unwind);
        self.enter(t);
        t.release(self.mutex);
        let panics = t.new_label();
        if may_panic {
            let fault = t.local();
            t.fail_point("the body panics", fault);
            t.jump_if(fault, panics);
        }
        // `sched_point(Exit)`: a self-pick, then `hand_on` picks the
        // root, whose join is now enabled.
        t.acquire(self.mutex);
        self.decide(t, me);
        self.leave(t);
        let before = t.local();
        t.fetch_sub(self.alive, 1, before);
        self.hand_to(t, self.root);
        t.release(self.mutex);
        t.jump(end);

        t.place(panics);
        // `handle_task_panic` for an assertion: abort, then count out.
        self.leave(t);
        t.acquire(self.mutex);
        self.abort(t);
        self.count_out(t);
        t.release(self.mutex);
        t.jump(end);

        t.place(unwind);
        self.unwind(t);
        t.place(end);
    }
}

fn model(variant: Variant) -> Model {
    let mut m = ModelBuilder::new();
    let role = |m: &mut ModelBuilder, name: &str, word: i64, permit: Global| Role {
        word,
        slot: m.global(&format!("slot_{name}"), 0),
        permit,
    };
    let caller_permit = m.global("permit_caller_thread", 0);
    let caller = role(&mut m, "caller", CALLER, caller_permit);
    let root = role(&mut m, "root", ROOT, caller_permit);
    let task = |m: &mut ModelBuilder, name: &str, word: i64| {
        let permit = m.global(&format!("permit_{name}"), 0);
        (
            role(m, name, word, permit),
            m.global(&format!("unstarted_{name}"), 1),
            m.global(&format!("dispatch_{name}"), 0),
        )
    };
    let tasks = [task(&mut m, "a", A), task(&mut m, "b", B)];
    let p = Proto {
        variant,
        mutex: m.lock("execution"),
        turn: m.global("turn", ROOT),
        abort: m.global("abort", 0),
        alive: m.global("alive", 3),
        holders: m.global("holders", 0),
        caller,
        root,
        tasks,
    };
    m.thread("caller", |t| p.caller(t));
    m.thread("worker A", |t| p.worker(t, A, true));
    m.thread("worker B", |t| p.worker(t, B, false));
    m.build()
}

fn search(variant: Variant, stop_on_first_bug: bool) -> SearchReport {
    let config = SearchConfig {
        preemption_bound: Some(3),
        fault_bound: 1,
        stop_on_first_bug,
        ..SearchConfig::default()
    };
    Search::over(&model(variant)).config(config).run().unwrap()
}

#[test]
fn the_engine_protocol_is_certified_up_to_three_preemptions() {
    let report = search(Variant::Engine, false);
    assert_eq!(report.completed_bound, Some(3), "{report}");
    assert!(report.bugs.is_empty(), "{report}");
}

#[test]
fn an_abort_that_leaves_a_task_unstarted_is_found_at_its_minimal_bound() {
    // A faults with no preemption; the caller then waits for B forever.
    let report = search(Variant::AbortLeavesUnstarted, true);
    let bug = report.first_bug().expect("the drain never ends");
    assert!(
        matches!(bug.outcome, ExecutionOutcome::Deadlock { .. }),
        "{report}"
    );
    assert_eq!((bug.preemptions, bug.faults), (0, 1), "{report}");
}

#[test]
fn a_slot_registered_after_the_ready_check_is_found_at_its_minimal_bound() {
    // The root checks the turn, is preempted, A runs to its exit and
    // hands the turn to a root with no slot, and the root parks for good.
    let report = search(Variant::SlotAfterReadyCheck, true);
    let bug = report.first_bug().expect("a lost wake-up");
    assert!(
        matches!(bug.outcome, ExecutionOutcome::Deadlock { .. }),
        "{report}"
    );
    assert_eq!((bug.preemptions, bug.faults), (1, 0), "{report}");
}
