//! The model (program) and its explicit, hashable states.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use icb_core::Tid;

use crate::instr::{BlockPred, Instr, RmwOp};

/// Budget for consecutive local instructions within one step; exceeding
/// it means the model has a loop with no shared access (which a
/// terminating, communicating thread cannot have).
const LOCAL_FUEL: usize = 100_000;

/// One thread's code.
#[derive(Clone, Debug)]
pub struct ThreadCode {
    /// Thread name, for reports.
    pub name: String,
    /// The instructions.
    pub code: Vec<Instr>,
    /// Number of local slots.
    pub locals: usize,
}

/// A closed concurrent program for the explicit-state VM: fixed threads
/// over global scalars, arrays and locks — the ZING-analog modeling
/// language.
///
/// Build models with [`crate::ModelBuilder`].
#[derive(Clone, Debug)]
pub struct Model {
    pub(crate) globals: Vec<i64>,
    pub(crate) global_names: Vec<String>,
    pub(crate) arrays: Vec<Vec<i64>>,
    pub(crate) array_names: Vec<String>,
    pub(crate) locks: usize,
    pub(crate) threads: Vec<ThreadCode>,
    /// Step budget per execution when driven statelessly.
    pub(crate) max_steps: usize,
}

/// Why a step could not be completed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepError {
    /// An `Assert` failed.
    Assert {
        /// The thread whose assertion failed.
        thread: Tid,
        /// The assertion message.
        message: String,
    },
    /// A thread executed the local-instruction budget (100 000) without
    /// reaching a shared access — a model bug (non-communicating loop).
    LocalLoop {
        /// The looping thread.
        thread: Tid,
    },
}

impl StepError {
    /// The thread the error is attributed to.
    pub fn thread(&self) -> Tid {
        match self {
            StepError::Assert { thread, .. } | StepError::LocalLoop { thread } => *thread,
        }
    }

    /// Human-readable message.
    pub fn message(&self) -> String {
        match self {
            StepError::Assert { message, .. } => message.clone(),
            StepError::LocalLoop { .. } => "local instruction budget exceeded".to_string(),
        }
    }
}

/// Per-thread dynamic state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ThreadState {
    /// Program counter (always at a shared instruction or one past the
    /// end — states are normalized).
    pub pc: usize,
    /// Local variable values.
    pub locals: Vec<i64>,
}

/// A concrete VM state: everything the next transition can depend on.
///
/// States are normalized — every live thread's pc points at a shared
/// instruction — so structural equality coincides with semantic equality
/// and the state can serve directly as a model-checking cache key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VmState {
    /// Global scalar values.
    pub globals: Vec<i64>,
    /// Global array values.
    pub arrays: Vec<Vec<i64>>,
    /// Lock holders (`None` = free).
    pub locks: Vec<Option<u16>>,
    /// Per-thread state.
    pub threads: Vec<ThreadState>,
}

impl VmState {
    /// A stable 64-bit fingerprint of the state.
    ///
    /// `DefaultHasher::new()` uses fixed keys, so fingerprints are
    /// stable within a process run — all that coverage accounting needs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

impl Model {
    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The global scalar names, indexed by declaration order.
    pub fn global_names(&self) -> Vec<&str> {
        self.global_names.iter().map(String::as_str).collect()
    }

    /// The global array names, indexed by declaration order.
    pub fn array_names(&self) -> Vec<&str> {
        self.array_names.iter().map(String::as_str).collect()
    }

    /// The per-execution step budget used by the stateless adapter.
    pub fn max_steps(&self) -> usize {
        self.max_steps
    }

    /// The initial (normalized) state.
    ///
    /// # Errors
    ///
    /// Fails if an assertion fires before any thread's first shared
    /// instruction.
    pub fn initial_state(&self) -> Result<VmState, StepError> {
        let mut state = VmState {
            globals: self.globals.clone(),
            arrays: self.arrays.clone(),
            locks: vec![None; self.locks],
            threads: self
                .threads
                .iter()
                .map(|t| ThreadState {
                    pc: 0,
                    locals: vec![0; t.locals],
                })
                .collect(),
        };
        for tid in 0..self.threads.len() {
            self.run_locals(&mut state, Tid(tid))?;
        }
        Ok(state)
    }

    /// Is the thread finished (pc past the end of its code)?
    pub fn is_finished(&self, state: &VmState, tid: Tid) -> bool {
        state.threads[tid.index()].pc >= self.threads[tid.index()].code.len()
    }

    /// Are all threads finished?
    pub fn all_finished(&self, state: &VmState) -> bool {
        (0..self.threads.len()).all(|t| self.is_finished(state, Tid(t)))
    }

    /// The shared instruction `tid` will execute next, if any.
    pub(crate) fn next_shared<'a>(&'a self, state: &VmState, tid: Tid) -> Option<&'a Instr> {
        let ts = &state.threads[tid.index()];
        self.threads[tid.index()].code.get(ts.pc)
    }

    /// Is `tid` enabled — alive with an executable next instruction?
    pub fn enabled(&self, state: &VmState, tid: Tid) -> bool {
        let Some(instr) = self.next_shared(state, tid) else {
            return false;
        };
        let locals = &state.threads[tid.index()].locals;
        match instr {
            Instr::Acquire { lock } => {
                let ix = lock.eval(locals) as usize;
                state.locks[ix].is_none()
            }
            Instr::BlockUntil { global, pred } => {
                let v = state.globals[global.index()];
                match pred {
                    BlockPred::NonZero => v != 0,
                    BlockPred::Zero => v == 0,
                    BlockPred::Eq(x) => v == *x,
                }
            }
            _ => true,
        }
    }

    /// The sorted enabled set.
    pub fn enabled_set(&self, state: &VmState) -> Vec<Tid> {
        (0..self.threads.len())
            .map(Tid)
            .filter(|&t| self.enabled(state, t))
            .collect()
    }

    /// Is the next instruction of `tid` potentially blocking (counts
    /// toward `B`)?
    pub fn next_is_blocking(&self, state: &VmState, tid: Tid) -> bool {
        self.next_shared(state, tid).is_some_and(Instr::is_blocking)
    }

    /// Executes one step of `tid`: its next shared instruction plus the
    /// following run of local instructions (normalization).
    ///
    /// # Errors
    ///
    /// Propagates assertion failures and local-loop detection.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not enabled (callers must check), on lock
    /// misuse (releasing a lock not held — a model bug) or on an
    /// out-of-range array index.
    pub fn step(&self, state: &VmState, tid: Tid) -> Result<VmState, StepError> {
        let mut next = state.clone();
        self.step_in_place(&mut next, tid)?;
        Ok(next)
    }

    /// [`Model::step`] without the defensive clone (the stateless
    /// adapter advances a single state in place). `FailPoint`
    /// instructions take the fault-free branch; the explicit-state
    /// checker searches only the scheduling dimension.
    pub fn step_in_place(&self, state: &mut VmState, tid: Tid) -> Result<(), StepError> {
        self.step_in_place_faulted(state, tid, false)
    }

    /// [`Model::step_in_place`] with an explicit fault decision for a
    /// `FailPoint` step (`fault` is ignored by every other
    /// instruction). This is what the stateless adapter calls with the
    /// scheduler's answer.
    pub fn step_in_place_faulted(
        &self,
        state: &mut VmState,
        tid: Tid,
        fault: bool,
    ) -> Result<(), StepError> {
        debug_assert!(self.enabled(state, tid), "step on disabled thread {tid}");
        let code = &self.threads[tid.index()].code;
        let ts = &mut state.threads[tid.index()];
        let instr = &code[ts.pc];
        match instr {
            Instr::LoadGlobal { global, dst } => {
                ts.locals[dst.index()] = state.globals[global.index()];
            }
            Instr::StoreGlobal { global, src } => {
                state.globals[global.index()] = src.eval(&ts.locals);
            }
            Instr::LoadArr { arr, idx, dst } => {
                let i = idx.eval(&ts.locals) as usize;
                ts.locals[dst.index()] = state.arrays[arr.index()][i];
            }
            Instr::StoreArr { arr, idx, src } => {
                let i = idx.eval(&ts.locals) as usize;
                let v = src.eval(&ts.locals);
                state.arrays[arr.index()][i] = v;
            }
            Instr::Acquire { lock } => {
                let ix = lock.eval(&ts.locals) as usize;
                debug_assert!(state.locks[ix].is_none());
                state.locks[ix] = Some(tid.index() as u16);
            }
            Instr::Release { lock } => {
                let ix = lock.eval(&ts.locals) as usize;
                assert_eq!(
                    state.locks[ix],
                    Some(tid.index() as u16),
                    "model bug: {tid} releases lock {ix} it does not hold"
                );
                state.locks[ix] = None;
            }
            Instr::Rmw {
                global,
                op,
                rhs,
                dst,
            } => {
                let old = state.globals[global.index()];
                let r = rhs.eval(&ts.locals);
                state.globals[global.index()] = match op {
                    RmwOp::Add => old.wrapping_add(r),
                    RmwOp::Sub => old.wrapping_sub(r),
                    RmwOp::Xchg => r,
                };
                ts.locals[dst.index()] = old;
            }
            Instr::Cas {
                global,
                expected,
                new,
                dst,
            } => {
                let cur = state.globals[global.index()];
                if cur == expected.eval(&ts.locals) {
                    state.globals[global.index()] = new.eval(&ts.locals);
                    ts.locals[dst.index()] = 1;
                } else {
                    ts.locals[dst.index()] = 0;
                }
            }
            Instr::BlockUntil { .. } => {
                // Enabledness already guaranteed the predicate; the
                // access itself has no effect beyond the read.
            }
            Instr::Yield => {}
            Instr::FailPoint { dst, .. } => {
                ts.locals[dst.index()] = fault as i64;
            }
            local => unreachable!("normalized pc points at a shared instruction, found {local:?}"),
        }
        state.threads[tid.index()].pc += 1;
        self.run_locals(state, tid)
    }

    /// Advances `tid` through local instructions until its pc rests on a
    /// shared instruction or past the end.
    fn run_locals(&self, state: &mut VmState, tid: Tid) -> Result<(), StepError> {
        let code = &self.threads[tid.index()].code;
        let ts = &mut state.threads[tid.index()];
        let mut fuel = LOCAL_FUEL;
        while let Some(instr) = code.get(ts.pc) {
            if instr.is_shared() {
                return Ok(());
            }
            if fuel == 0 {
                return Err(StepError::LocalLoop { thread: tid });
            }
            fuel -= 1;
            match instr {
                Instr::Compute { dst, expr } => {
                    ts.locals[dst.index()] = expr.eval(&ts.locals);
                    ts.pc += 1;
                }
                Instr::Jump { target } => ts.pc = *target,
                Instr::JumpIf { cond, target } => {
                    if cond.eval(&ts.locals) != 0 {
                        ts.pc = *target;
                    } else {
                        ts.pc += 1;
                    }
                }
                Instr::Assert { cond, msg } => {
                    if cond.eval(&ts.locals) == 0 {
                        return Err(StepError::Assert {
                            thread: tid,
                            message: msg.clone(),
                        });
                    }
                    ts.pc += 1;
                }
                Instr::Halt => {
                    ts.pc = code.len();
                }
                shared => unreachable!("{shared:?} classified as local"),
            }
        }
        Ok(())
    }
}
