//! Record-once instruction replay for the timing simulator.
//!
//! One interpreter pass per benchmark ([`record_replay`]) captures every
//! timing-relevant fact about the execution — instruction class, compact
//! source/dest register ids, memory word addresses, intra-task branch
//! outcomes, and pre-resolved task-boundary events — into a struct-of-
//! arrays [`InstrReplay`]. The structure is immutable and is shared behind
//! `Arc` exactly like `SharedTrace`, so **every** consumer of a benchmark's
//! execution rides one recording: Table 4's five predictor columns, the
//! `profile` and `ext` timing runs, and the registry's fig10/fig11 grids
//! (whose functional traces derive from the same artifact via
//! [`derive_trace`]).
//! [`simulate_replay`] drives [`crate::timing::simulate_core`] from the
//! recording with zero re-interpretation and returns a `TimingResult`
//! bit-identical to [`crate::timing::simulate`]'s.
//!
//! # Layout
//!
//! Each instruction packs into one `u32` op word:
//!
//! ```text
//! bits  0..8   src1 register (NO_REG when absent)
//! bits  8..16  src2 register (NO_REG when absent)
//! bits 16..24  dest register (NO_REG when absent)
//! bits 24..26  OpClass
//! bit  26      taken (intra-task branches only)
//! ```
//!
//! Loads/stores consume the next `mem_addrs` entry, intra-task branches the
//! next `branch_pcs` entry, in program order — the replay cursor advances
//! each side array independently, so the common (ALU) case touches only the
//! op word. Task boundaries are sparse: parallel `bound_*` arrays keyed by
//! the op index that crossed them. Recording resolves every possible
//! failure (execution faults, unmatched exits, the step budget) up front,
//! which is why [`simulate_replay`] is infallible.

use std::sync::Arc;

use multiscalar_core::predictor::TaskDesc;
use multiscalar_isa::{Addr, ExitIndex, Instruction, Interpreter, Program};
use multiscalar_taskform::{TaskId, TaskProgram};

use crate::metrics::{MetricsSink, NoopSink};
use crate::timing::{
    simulate_core, BoundaryStep, CoreStep, NextTaskPredictor, OpClass, StepSource, TimingConfig,
    TimingResult, NO_REG,
};
use crate::trace::{kind_slot, SharedTrace, TaskEvent, TraceError, TraceRun, TraceStats};

const CLASS_SHIFT: u32 = 24;
const TAKEN_BIT: u32 = 1 << 26;

#[inline]
fn pack_op(src1: u8, src2: u8, dest: u8, class: OpClass, taken: bool) -> u32 {
    (src1 as u32)
        | (src2 as u32) << 8
        | (dest as u32) << 16
        | (class as u32) << CLASS_SHIFT
        | ((taken as u32) * TAKEN_BIT)
}

/// A recorded execution: everything the timing model needs to re-run a
/// benchmark without the interpreter. Built by [`record_replay`]; shared
/// immutably (wrap in [`Arc`] via [`InstrReplay::into_shared`]) across the
/// pool jobs that consume it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrReplay {
    /// One packed op word per committed instruction, in program order.
    pub(crate) ops: Vec<u32>,
    /// Word address of each load/store, in program order.
    pub(crate) mem_addrs: Vec<u32>,
    /// Address of each *intra-task* conditional branch, in program order.
    pub(crate) branch_pcs: Vec<u32>,
    /// Op index whose instruction crossed a task boundary (ascending).
    pub(crate) bound_at: Vec<u64>,
    /// Static id of the task retiring at each boundary.
    pub(crate) bound_task: Vec<u32>,
    /// Header exit taken at each boundary.
    pub(crate) bound_exit: Vec<u8>,
    /// Entry address of the task entered at each boundary.
    pub(crate) bound_next: Vec<u32>,
    /// Interpreter memory size, for the disambiguation tables.
    pub(crate) mem_words: usize,
}

impl InstrReplay {
    /// Committed instructions in the recording.
    pub fn instructions(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Dynamic task boundaries in the recording.
    pub fn boundaries(&self) -> u64 {
        self.bound_at.len() as u64
    }

    /// Heap footprint of the recording in bytes.
    pub fn heap_bytes(&self) -> usize {
        4 * self.ops.len()
            + 4 * self.mem_addrs.len()
            + 4 * self.branch_pcs.len()
            + 17 * self.bound_at.len()
    }

    /// Wraps the recording for sharing across pool jobs.
    pub fn into_shared(self) -> Arc<InstrReplay> {
        Arc::new(self)
    }
}

/// Executes the program once and records its [`InstrReplay`].
///
/// The boundary resolution is the same as trace generation's, so the
/// recording fails in exactly the situations [`crate::timing::simulate`]
/// would: execution faults, unmatched boundary crossings, and step-budget
/// exhaustion.
pub fn record_replay(
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
) -> Result<InstrReplay, TraceError> {
    let mut interp = Interpreter::new(program);
    let mem_words = interp.mem_words();
    let mut cur_task = tasks
        .task_entered_at(program.entry_point())
        .expect("entry starts a task");

    // Reserve the step budget up front. The budget is a workload-proportional
    // cap, so this over-reserves — but untouched capacity is virtual address
    // space only, while growing a multi-megabyte Vec copies (and faults in)
    // every page it has already recorded, which dominates recording cost.
    let cap = usize::try_from(max_steps).unwrap_or(usize::MAX);
    let mut r = InstrReplay {
        ops: Vec::with_capacity(cap),
        mem_addrs: Vec::with_capacity(cap),
        branch_pcs: Vec::with_capacity(cap),
        bound_at: Vec::with_capacity(cap / 16),
        bound_task: Vec::with_capacity(cap / 16),
        bound_exit: Vec::with_capacity(cap / 16),
        bound_next: Vec::with_capacity(cap / 16),
        mem_words,
    };

    let mut steps = 0u64;
    loop {
        if steps >= max_steps {
            return Err(TraceError::StepLimit);
        }
        let info = interp.step()?;
        steps += 1;

        let (src1, src2) = {
            let mut it = info.inst.sources();
            (
                it.next().map_or(NO_REG, |r| r.0),
                it.next().map_or(NO_REG, |r| r.0),
            )
        };
        let dest = info.inst.dest().map_or(NO_REG, |r| r.0);
        let mut class = match info.inst {
            Instruction::Load { .. } => OpClass::Load,
            Instruction::Store { .. } => OpClass::Store,
            Instruction::Branch { .. } => OpClass::Branch,
            _ => OpClass::Other,
        };
        if let Some(ea) = info.mem_addr {
            r.mem_addrs.push(ea);
        }

        if interp.is_halted() {
            // The halting instruction is the recording's last op.
            r.ops.push(pack_op(src1, src2, dest, class, false));
            break;
        }

        let next_pc = info.next;
        let crossed = if next_pc == info.pc.next() && tasks.task_at(next_pc) == Some(cur_task) {
            None
        } else {
            tasks.resolve_exit(cur_task, info.pc, next_pc)
        };

        let mut taken = false;
        match crossed {
            Some(exit) => {
                // The intra predictor never sees boundary-crossing branches,
                // so they record as plain ops (same sources, no dest,
                // 1-cycle latency — timing-identical).
                if class == OpClass::Branch {
                    class = OpClass::Other;
                }
                r.bound_at.push(r.ops.len() as u64);
                r.bound_task.push(cur_task.0);
                r.bound_exit.push(exit.as_u8());
                r.bound_next.push(next_pc.0);
                cur_task = match tasks.task_entered_at(next_pc) {
                    Some(t) => t,
                    None => {
                        return Err(TraceError::UnmatchedExit {
                            task: cur_task,
                            from: info.pc,
                            to: next_pc,
                        })
                    }
                };
            }
            None => {
                if class == OpClass::Branch {
                    taken = next_pc != info.pc.next();
                    r.branch_pcs.push(info.pc.0);
                }
                // Sanity: control must remain within the current task.
                if tasks.task_at(next_pc) != Some(cur_task) {
                    return Err(TraceError::UnmatchedExit {
                        task: cur_task,
                        from: info.pc,
                        to: next_pc,
                    });
                }
            }
        }
        r.ops.push(pack_op(src1, src2, dest, class, taken));
    }

    // Deliberately no shrink_to_fit: shrinking reallocates and copies the
    // whole recording, and the unused capacity tail is never faulted in.
    Ok(r)
}

/// Reconstructs the functional [`TraceRun`] from a recording.
///
/// The replay's sparse boundary arrays carry exactly what
/// [`crate::trace::collect_trace`] emits — retiring task, exit index, next
/// entry address — and the per-task instruction counts fall out of the
/// `bound_at` deltas (each `bound_at[i]` is the op index of the crossing
/// instruction, which belongs to the retiring task). The stats recompute
/// from header lookups. The result is identical to `collect_trace` on the
/// same execution (asserted across all five workloads in the codec tests),
/// so **one** recorded artifact serves both the functional-trace consumers
/// and the timing runs — preparation needs a single interpreter pass cold
/// and zero warm.
///
/// # Panics
///
/// Panics if the recording is inconsistent with `tasks` (a recording is
/// only meaningful under the partition it was recorded with; the cache
/// guarantees this by keying on both fingerprints, and the codec validates
/// exit indices on decode).
pub fn derive_trace(replay: &InstrReplay, tasks: &TaskProgram) -> TraceRun {
    let mut events = SharedTrace::default();
    let mut stats = TraceStats::default();
    let mut seen = vec![false; tasks.static_task_count()];
    let mut distinct = 0usize;
    let mut prev_at = 0u64;
    for (i, &at) in replay.bound_at.iter().enumerate() {
        let task = TaskId(replay.bound_task[i]);
        let exit = ExitIndex::new(replay.bound_exit[i]).expect("recorded exit is valid");
        let header = tasks.task(task).header();
        let kind = header.exits()[exit.index()].kind;
        let instrs = if i == 0 { at + 1 } else { at - prev_at };
        prev_at = at;
        events.push(TaskEvent {
            task,
            exit,
            kind,
            next: Addr(replay.bound_next[i]),
            instrs: instrs as u32,
        });
        stats.dynamic_tasks += 1;
        stats.by_num_exits[header.num_exits().min(4)] += 1;
        stats.by_kind[kind_slot(kind).expect("halting task is never recorded")] += 1;
        if !seen[task.index()] {
            seen[task.index()] = true;
            distinct += 1;
        }
    }
    stats.instructions = replay.ops.len() as u64;
    stats.distinct_tasks = distinct;
    TraceRun {
        events: Arc::new(events),
        stats,
    }
}

/// How far ahead (in elements) the cursor pulls upcoming replay columns
/// toward the cache. One op word is 4 bytes, so 64 elements is four cache
/// lines of lookahead — far enough to cover the fused engines' per-step
/// work, near enough not to thrash.
const PREFETCH_AHEAD: usize = 64;

/// Forces the load of the element `PREFETCH_AHEAD` slots ahead, warming the
/// cache line it lives on. A plain read through [`std::hint::black_box`]
/// (not an intrinsic): safe, portable, and free of side effects beyond the
/// memory touch.
#[inline(always)]
fn prefetch<T: Copy>(s: &[T]) {
    if let Some(&v) = s.get(PREFETCH_AHEAD) {
        std::hint::black_box(v);
    }
}

/// A cursor walking an [`InstrReplay`] as a [`StepSource`]. Infallible by
/// construction: recording already resolved every error. Holds shrinking
/// slices rather than indices so the hot path carries no bounds checks,
/// and prefetches upcoming columns of the recording as it advances.
pub(crate) struct ReplayCursor<'a> {
    /// Remaining op words; the last element is the halting instruction.
    ops: &'a [u32],
    /// Remaining load/store word addresses.
    mem_addrs: &'a [u32],
    /// Remaining intra-task branch addresses.
    branch_pcs: &'a [u32],
    /// Op index of the current position (for boundary matching).
    i: u64,
    /// Remaining boundary rows, advanced in lockstep.
    bound_at: &'a [u64],
    bound_task: &'a [u32],
    bound_exit: &'a [u8],
    bound_next: &'a [u32],
}

impl<'a> ReplayCursor<'a> {
    pub(crate) fn new(r: &'a InstrReplay) -> ReplayCursor<'a> {
        ReplayCursor {
            ops: &r.ops,
            mem_addrs: &r.mem_addrs,
            branch_pcs: &r.branch_pcs,
            i: 0,
            bound_at: &r.bound_at,
            bound_task: &r.bound_task,
            bound_exit: &r.bound_exit,
            bound_next: &r.bound_next,
        }
    }
}

impl StepSource for ReplayCursor<'_> {
    fn next_step(&mut self) -> Result<CoreStep, TraceError> {
        prefetch(self.ops);
        let (&op, rest) = self.ops.split_first().expect("cursor stops at halt");
        let class = OpClass::from_u8(((op >> CLASS_SHIFT) & 0x3) as u8);

        let mem_addr = if matches!(class, OpClass::Load | OpClass::Store) {
            prefetch(self.mem_addrs);
            let (&a, rest) = self.mem_addrs.split_first().expect("recorded address");
            self.mem_addrs = rest;
            a
        } else {
            0
        };
        let (branch_pc, taken) = if class == OpClass::Branch {
            let (&pc, rest) = self.branch_pcs.split_first().expect("recorded branch");
            self.branch_pcs = rest;
            (Addr(pc), op & TAKEN_BIT != 0)
        } else {
            (Addr(0), false)
        };

        // The halting instruction is always the recording's last op.
        let halt = rest.is_empty();
        let boundary = if !halt && self.bound_at.first() == Some(&self.i) {
            let b = BoundaryStep {
                task: self.bound_task[0],
                exit: ExitIndex::new(self.bound_exit[0]).expect("recorded exit is valid"),
                next: Addr(self.bound_next[0]),
            };
            self.bound_at = &self.bound_at[1..];
            self.bound_task = &self.bound_task[1..];
            self.bound_exit = &self.bound_exit[1..];
            self.bound_next = &self.bound_next[1..];
            Some(b)
        } else {
            None
        };
        self.ops = rest;
        self.i += 1;

        Ok(CoreStep {
            src1: (op & 0xFF) as u8,
            src2: ((op >> 8) & 0xFF) as u8,
            dest: ((op >> 16) & 0xFF) as u8,
            class,
            mem_addr,
            branch_pc,
            taken,
            halt,
            boundary,
        })
    }
}

/// Runs the timing model over a recorded execution — same cycle accounting
/// as [`crate::timing::simulate`], zero re-interpretation, bit-identical
/// [`TimingResult`].
///
/// `predictor` drives inter-task speculation; `None` simulates perfect
/// next-task prediction (the paper's "Perfect" row). Infallible: the
/// recording already resolved every error `simulate` can hit.
pub fn simulate_replay(
    replay: &InstrReplay,
    descs: &[TaskDesc],
    predictor: Option<&mut dyn NextTaskPredictor>,
    config: &TimingConfig,
) -> TimingResult {
    simulate_replay_with_sink(replay, descs, predictor, config, &mut NoopSink)
}

/// [`simulate_replay`] with a live [`MetricsSink`] observing the run. The
/// replay cursor feeds the same instrumented core as
/// [`crate::timing::simulate_with_sink`], so breakdowns and event logs are
/// engine-independent: both engines report identical sink streams for the
/// same execution.
pub fn simulate_replay_with_sink<M: MetricsSink>(
    replay: &InstrReplay,
    descs: &[TaskDesc],
    predictor: Option<&mut dyn NextTaskPredictor>,
    config: &TimingConfig,
    sink: &mut M,
) -> TimingResult {
    let mut cursor = ReplayCursor::new(replay);
    simulate_core(
        &mut cursor,
        descs,
        predictor,
        config,
        replay.mem_words,
        sink,
    )
    .expect("replay cursor never errors")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::task_descs;
    use crate::timing::simulate;
    use multiscalar_core::automata::LastExitHysteresis;
    use multiscalar_core::dolc::Dolc;
    use multiscalar_core::history::PathPredictor;
    use multiscalar_core::predictor::TaskPredictor;
    use multiscalar_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use multiscalar_taskform::TaskFormer;

    type PathLeh2 = PathPredictor<LastExitHysteresis<2>>;

    /// A loop with ALU work, an internal data-dependent branch, and memory
    /// traffic — exercises every field of the recording.
    fn mixed_program(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), iters);
        let top = b.here_label();
        b.op_imm(AluOp::And, Reg(3), Reg(1), 7);
        b.store(Reg(1), Reg(3), 0);
        b.load(Reg(4), Reg(3), 0);
        let skip = b.new_label();
        b.branch(Cond::Ne, Reg(3), Reg(0), skip);
        b.op_imm(AluOp::Add, Reg(5), Reg(5), 1);
        b.bind(skip);
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        b.finish(main).unwrap()
    }

    #[test]
    fn recording_matches_interpreter_step_counts() {
        let p = mixed_program(300);
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let r = record_replay(&p, &tp, 1_000_000).unwrap();
        let t = simulate(&p, &tp, &descs, None, &TimingConfig::default(), 1_000_000).unwrap();
        assert_eq!(r.instructions(), t.instructions);
        assert_eq!(r.boundaries(), t.dynamic_tasks);
        assert!(r.heap_bytes() > 0);
    }

    #[test]
    fn replay_is_bit_identical_to_interpreter() {
        let p = mixed_program(500);
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let replay = record_replay(&p, &tp, 1_000_000).unwrap();
        let config = TimingConfig::default();

        // Perfect prediction.
        let legacy = simulate(&p, &tp, &descs, None, &config, 1_000_000).unwrap();
        let fast = simulate_replay(&replay, &descs, None, &config);
        assert_eq!(legacy, fast);

        // A real predictor (stateful: fresh instance per engine).
        let mk = || {
            TaskPredictor::<PathLeh2>::path(Dolc::new(4, 4, 6, 6, 2), Dolc::new(4, 3, 4, 4, 2), 16)
        };
        let legacy = simulate(&p, &tp, &descs, Some(&mut mk()), &config, 1_000_000).unwrap();
        let fast = simulate_replay(&replay, &descs, Some(&mut mk()), &config);
        assert_eq!(legacy, fast);
        assert!(legacy.dynamic_tasks > 0);
    }

    #[test]
    fn replay_matches_across_ablation_configs() {
        use crate::arb::ArbConfig;
        use crate::timing::{ForwardingModel, IntraPredictorKind};

        let p = mixed_program(400);
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let replay = record_replay(&p, &tp, 1_000_000).unwrap();

        let configs = [
            TimingConfig::paper().forwarding(ForwardingModel::ReleaseAtEnd),
            TimingConfig::paper().intra_predictor(IntraPredictorKind::Gshare),
            TimingConfig::paper().arb(None),
            TimingConfig::paper().arb(Some(ArbConfig {
                banks: 1,
                entries_per_bank: 1,
                stages: 4,
            })),
            TimingConfig::paper()
                .n_units(8)
                .issue_width(4)
                .confidence_gate(Some(2)),
        ];
        for config in &configs {
            let legacy = simulate(&p, &tp, &descs, None, config, 1_000_000).unwrap();
            let fast = simulate_replay(&replay, &descs, None, config);
            assert_eq!(legacy, fast, "config {config:?}");
        }
    }
}
