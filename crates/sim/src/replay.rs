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
//! [`simulate_replay`] drives the timing core (`timing::simulate_core`)
//! from the recording with zero re-interpretation and returns a
//! `TimingResult` bit-identical to [`crate::timing::simulate`]'s.
//!
//! # Outcome streams
//!
//! The predictors run ahead of the cycle walk, once over the recording in
//! program order, and leave bit streams the walk reads in step:
//!
//! * [`MachineOutcomes`] — one intra-task miss bit per recorded intra-task
//!   branch and one ARB bank-full bit per recorded load or store. A
//!   function of the recording and the [`TimingConfig`]'s intra predictor
//!   and ARB, so all of a benchmark's predictor columns share it;
//! * [`TaskOutcomes`] — a miss bit and a gated bit per task boundary, one
//!   per predictor and confidence gate, plus the predicted targets when an
//!   enabled sink will log them.
//!
//! [`walk_replay`] is the predictor-free walk over a recording and both
//! parts; [`simulate_replay`] resolves both parts and walks.
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

use crate::arb::ArbConfig;
use crate::metrics::{MetricsSink, NoopSink};
use crate::outcome::{MachineModel, TaskModel};
use crate::timing::{
    simulate_core, BoundaryStep, CoreStep, IntraPredictorKind, NextTaskPredictor, OpClass,
    StepSource, TimingConfig, TimingResult, NO_REG,
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

// ---------------------------------------------------------------------------
// Outcome streams
// ---------------------------------------------------------------------------

/// A packed stream of outcome bits, appended and read in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    fn with_capacity(bits: usize) -> Bits {
        Bits {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, bit: bool) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.push(0);
        }
        if let Some(w) = self.words.last_mut() {
            *w |= (bit as u64) << shift;
        }
        self.len += 1;
    }

    fn reader(&self) -> BitReader<'_> {
        BitReader {
            words: &self.words,
            word: 0,
            left: 0,
        }
    }
}

/// Sequential reader over a [`Bits`] stream.
struct BitReader<'a> {
    words: &'a [u64],
    /// The current word, shifted so its next bit is bit 0.
    word: u64,
    /// Bits of `word` not yet read.
    left: u32,
}

impl BitReader<'_> {
    #[inline(always)]
    fn next(&mut self) -> bool {
        if self.left == 0 {
            let (&w, rest) = self
                .words
                .split_first()
                .expect("outcome stream covers the recording");
            self.word = w;
            self.words = rest;
            self.left = 64;
        }
        let bit = self.word & 1 != 0;
        self.word >>= 1;
        self.left -= 1;
        bit
    }
}

/// The [`TimingConfig`] fields the machine streams depend on.
type MachineKey = (IntraPredictorKind, u32, Option<ArbConfig>, usize);

fn machine_key(c: &TimingConfig) -> MachineKey {
    (c.intra_predictor, c.bimodal_bits, c.arb, c.n_units)
}

/// The machine half of a recording's resolved outcomes: one intra-task
/// miss bit per recorded intra-task branch and one ARB bank-full bit per
/// recorded load or store, in program order. They depend only on the
/// recording and on the configuration's intra predictor and ARB, so every
/// predictor column of one machine shares them: Table 4 resolves them
/// once per benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineOutcomes {
    intra_miss: Bits,
    arb_full: Bits,
    key: MachineKey,
}

impl MachineOutcomes {
    /// Steps the intra-task predictor and the ARB over `replay` in program
    /// order under `config`.
    pub fn resolve(replay: &InstrReplay, config: &TimingConfig) -> MachineOutcomes {
        let mut model = MachineModel::new(config);
        let mut intra_miss = Bits::with_capacity(replay.branch_pcs.len());
        let mut arb_full = Bits::with_capacity(replay.mem_addrs.len());
        let mut mem_addrs = replay.mem_addrs.iter();
        let mut branch_pcs = replay.branch_pcs.iter();
        let mut bound_at = replay.bound_at.iter().peekable();
        for (i, &op) in replay.ops.iter().enumerate() {
            match op_class(op) {
                class @ (OpClass::Load | OpClass::Store) => {
                    let &ea = mem_addrs.next().expect("recorded address");
                    arb_full.push(model.mem(ea, class == OpClass::Load));
                }
                OpClass::Branch => {
                    let &pc = branch_pcs.next().expect("recorded branch");
                    intra_miss.push(model.branch(Addr(pc), op & TAKEN_BIT != 0));
                }
                OpClass::Other => {}
            }
            // The crossing instruction's own reference belongs to the
            // retiring task, so the boundary follows it.
            if bound_at.next_if_eq(&&(i as u64)).is_some() {
                model.boundary();
            }
        }
        MachineOutcomes {
            intra_miss,
            arb_full,
            key: machine_key(config),
        }
    }
}

/// The task half of a recording's resolved outcomes: a miss bit and a
/// gated bit per task boundary, plus — for runs with an enabled sink —
/// the predicted next-task address. A function of the recording's
/// boundaries, one predictor and the confidence gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskOutcomes {
    /// Two bits per boundary: miss, then gated.
    bits: Bits,
    /// The predicted next-task address per boundary, when kept.
    targets: Option<Vec<Option<Addr>>>,
    /// The confidence gate the bits were resolved under.
    gate: Option<u8>,
}

impl TaskOutcomes {
    /// Steps `predictor` (`None` = perfect prediction) and, under a
    /// confidence gate, the CIR estimator over `replay`'s boundaries in
    /// program order. `keep_targets` keeps the predicted-target stream the
    /// task event log reads; [`walk_replay`] requires it for enabled sinks.
    pub fn resolve(
        replay: &InstrReplay,
        descs: &[TaskDesc],
        predictor: Option<&mut dyn NextTaskPredictor>,
        config: &TimingConfig,
        keep_targets: bool,
    ) -> TaskOutcomes {
        let n = replay.bound_at.len();
        let mut model = TaskModel::new(predictor, config);
        let mut bits = Bits::with_capacity(2 * n);
        let mut targets = keep_targets.then(|| Vec::with_capacity(n));
        for i in 0..n {
            let outcome = model.resolve(
                &descs[replay.bound_task[i] as usize],
                ExitIndex::new(replay.bound_exit[i]).expect("recorded exit is valid"),
                Addr(replay.bound_next[i]),
            );
            bits.push(outcome.miss);
            bits.push(outcome.gated);
            if let Some(t) = targets.as_mut() {
                t.push(outcome.predicted);
            }
        }
        TaskOutcomes {
            bits,
            targets,
            gate: config.confidence_gate,
        }
    }
}

// ---------------------------------------------------------------------------
// The replay cursor
// ---------------------------------------------------------------------------

/// How far ahead (in elements) the cursor pulls upcoming replay columns
/// toward the cache. One op word is 4 bytes, so 64 elements is four cache
/// lines of lookahead — far enough to cover the walk's per-step work, near
/// enough not to thrash.
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

#[inline(always)]
fn op_class(op: u32) -> OpClass {
    OpClass::from_u8(((op >> CLASS_SHIFT) & 0x3) as u8)
}

/// A cursor walking an [`InstrReplay`] and its resolved outcome streams as
/// a [`StepSource`]. Infallible by construction: recording already
/// resolved every error. Holds shrinking slices rather than indices so the
/// hot path carries no bounds checks, and prefetches upcoming columns of
/// the recording as it advances.
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
    /// One bit per intra-task branch, per load/store, and two per boundary.
    intra_miss: BitReader<'a>,
    arb_full: BitReader<'a>,
    bound_bits: BitReader<'a>,
    /// Remaining predicted targets; empty when the run keeps none.
    targets: &'a [Option<Addr>],
}

impl<'a> ReplayCursor<'a> {
    pub(crate) fn new(
        r: &'a InstrReplay,
        machine: &'a MachineOutcomes,
        task: &'a TaskOutcomes,
    ) -> ReplayCursor<'a> {
        ReplayCursor {
            ops: &r.ops,
            mem_addrs: &r.mem_addrs,
            branch_pcs: &r.branch_pcs,
            i: 0,
            bound_at: &r.bound_at,
            bound_task: &r.bound_task,
            bound_exit: &r.bound_exit,
            bound_next: &r.bound_next,
            intra_miss: machine.intra_miss.reader(),
            arb_full: machine.arb_full.reader(),
            bound_bits: task.bits.reader(),
            targets: task.targets.as_deref().unwrap_or_default(),
        }
    }
}

impl StepSource for ReplayCursor<'_> {
    #[inline(always)]
    fn next_step(&mut self) -> Result<CoreStep, TraceError> {
        prefetch(self.ops);
        let (&op, rest) = self.ops.split_first().expect("cursor stops at halt");
        let class = op_class(op);

        let (mem_addr, arb_full) = if matches!(class, OpClass::Load | OpClass::Store) {
            prefetch(self.mem_addrs);
            let (&a, rest) = self.mem_addrs.split_first().expect("recorded address");
            self.mem_addrs = rest;
            (a, self.arb_full.next())
        } else {
            (0, false)
        };
        let (branch_pc, taken, intra_miss) = if class == OpClass::Branch {
            let (&pc, rest) = self.branch_pcs.split_first().expect("recorded branch");
            self.branch_pcs = rest;
            (Addr(pc), op & TAKEN_BIT != 0, self.intra_miss.next())
        } else {
            (Addr(0), false, false)
        };

        // The halting instruction is always the recording's last op.
        let halt = rest.is_empty();
        let boundary = if !halt && self.bound_at.first() == Some(&self.i) {
            let predicted = match self.targets.split_first() {
                Some((&t, rest)) => {
                    self.targets = rest;
                    t
                }
                None => None,
            };
            let b = BoundaryStep {
                task: self.bound_task[0],
                exit: ExitIndex::new(self.bound_exit[0]).expect("recorded exit is valid"),
                next: Addr(self.bound_next[0]),
                miss: self.bound_bits.next(),
                gated: self.bound_bits.next(),
                predicted,
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
            arb_full,
            branch_pc,
            taken,
            intra_miss,
            halt,
            boundary,
        })
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

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
///
/// Resolves both outcome halves ([`MachineOutcomes`], [`TaskOutcomes`])
/// and then runs [`walk_replay`]; callers running several predictors on
/// one machine resolve the machine half once and walk each column.
pub fn simulate_replay_with_sink<M: MetricsSink>(
    replay: &InstrReplay,
    descs: &[TaskDesc],
    predictor: Option<&mut dyn NextTaskPredictor>,
    config: &TimingConfig,
    sink: &mut M,
) -> TimingResult {
    let machine = MachineOutcomes::resolve(replay, config);
    let task = TaskOutcomes::resolve(replay, descs, predictor, config, M::ENABLED);
    walk_replay(replay, &machine, &task, config, sink)
}

/// The predictor-free cycle walk over a recording and its resolved
/// outcomes. Returns the same [`TimingResult`] as [`simulate_replay`] with
/// the predictor `task` was resolved with.
///
/// # Panics
///
/// Panics if `machine` was resolved under another intra predictor, ARB or
/// ring size than `config`, if `task` was resolved under another
/// confidence gate, if either belongs to another recording, or if `sink`
/// is enabled and `task` kept no predicted targets.
pub fn walk_replay<M: MetricsSink>(
    replay: &InstrReplay,
    machine: &MachineOutcomes,
    task: &TaskOutcomes,
    config: &TimingConfig,
    sink: &mut M,
) -> TimingResult {
    assert!(
        machine.key == machine_key(config),
        "machine outcomes were resolved under another machine configuration"
    );
    assert!(
        machine.intra_miss.len == replay.branch_pcs.len()
            && machine.arb_full.len == replay.mem_addrs.len(),
        "machine outcomes belong to another recording"
    );
    assert_eq!(
        task.gate, config.confidence_gate,
        "task outcomes were resolved under another confidence gate"
    );
    assert_eq!(
        task.bits.len,
        2 * replay.bound_at.len(),
        "task outcomes belong to another recording"
    );
    assert!(
        !M::ENABLED || task.targets.is_some(),
        "an enabled sink needs the predicted-target stream"
    );
    let mut cursor = ReplayCursor::new(replay, machine, task);
    simulate_core(&mut cursor, config, replay.mem_words, sink).expect("replay cursor never errors")
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
