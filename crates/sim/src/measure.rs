//! Driving predictors over task traces and measuring miss rates — the
//! paper's central methodology.
//!
//! Matching §3.1's idealisations: predictors are updated immediately after
//! each prediction with the true outcome (no stale-update delay), and no
//! wrong-path pollution occurs because the functional trace never goes down
//! a wrong path.

use crate::trace::{kind_slot, SharedTrace, TaskEvent};
use multiscalar_core::automata::Automaton;
use multiscalar_core::dolc::PathRegister;
use multiscalar_core::ideal::{IdealCttbSweep, IdealSweep};
use multiscalar_core::lane::{BatchedExitPredictor, LaneAutomaton};
use multiscalar_core::predictor::{
    CttbOnlyPredictor, ExitInfo, ExitPredictor, TaskDesc, TaskPredictor,
};
use multiscalar_core::target::{Cttb, IdealCttb, Ttb};
use multiscalar_isa::{Addr, ExitKind};
use multiscalar_taskform::TaskProgram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of lane-packed batched sweeps (see
/// [`measure_exits_batched`]). The harness's `lane_dispatch` test asserts
/// the fast path was actually exercised by reading this counter — a
/// structural proof, not a timing one.
static LANE_PACKED_SWEEPS: AtomicU64 = AtomicU64::new(0);

/// Number of lane-packed batched sweeps this process has run (monotonic).
pub fn lane_packed_sweeps() -> u64 {
    LANE_PACKED_SWEEPS.load(Ordering::Relaxed)
}

/// Converts the task former's headers into predictor-facing [`TaskDesc`]s,
/// indexed by [`multiscalar_taskform::TaskId`].
pub fn task_descs(tasks: &TaskProgram) -> Vec<TaskDesc> {
    tasks
        .tasks()
        .iter()
        .map(|t| {
            let exits = t
                .header()
                .exits()
                .iter()
                .map(|e| ExitInfo {
                    kind: e.kind,
                    target: e.target,
                    return_addr: e.return_addr,
                })
                .collect();
            TaskDesc::new(t.entry(), exits)
        })
        .collect()
}

/// Hit/miss counts with a convenience rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissStats {
    /// Predictions made.
    pub predictions: u64,
    /// Predictions that were wrong.
    pub misses: u64,
}

impl MissStats {
    /// Records one outcome.
    #[inline]
    pub fn record(&mut self, miss: bool) {
        self.predictions += 1;
        self.misses += miss as u64;
    }

    /// Miss rate in `[0, 1]` (0 when nothing was predicted).
    pub fn miss_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.misses as f64 / self.predictions as f64
        }
    }

    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: MissStats) {
        self.predictions += other.predictions;
        self.misses += other.misses;
    }
}

/// Full breakdown from a composite ([`TaskPredictor`]) run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullStats {
    /// Exit-index prediction accuracy.
    pub exits: MissStats,
    /// Next-task-address accuracy (exit *and* target both right).
    pub next_task: MissStats,
    /// Target accuracy per exit kind (Table 1 order), measured over events
    /// whose *actual* exit had that kind. No `Halt` slot: the halting task
    /// never appears in a trace.
    pub target_by_kind: [MissStats; 5],
}

impl FullStats {
    /// Target accuracy for one exit kind (empty stats for `Halt`, which is
    /// never predicted).
    pub fn target_stats(&self, kind: ExitKind) -> MissStats {
        kind_slot(kind)
            .map(|i| self.target_by_kind[i])
            .unwrap_or_default()
    }

    /// One event of the composite predictor: predict, score, train.
    #[inline]
    fn step<E: ExitPredictor>(
        &mut self,
        predictor: &mut TaskPredictor<E>,
        desc: &TaskDesc,
        e: &TaskEvent,
    ) {
        let pred = predictor.predict(desc);
        let exit_miss = pred.exit != e.exit;
        self.exits.record(exit_miss);
        self.next_task
            .record(pred.target != Some(e.next) || exit_miss);
        // Target accuracy conditioned on the actual kind: what would the
        // right source have produced? Only meaningfully attributable when
        // the exit itself was predicted correctly.
        if !exit_miss {
            let slot = kind_slot(e.kind).expect("halting task is never recorded");
            self.target_by_kind[slot].record(pred.target != Some(e.next));
        }
        predictor.update(desc, e.exit, e.next);
    }
}

/// Measures an exit predictor alone (Figures 6, 7, 10, 11): the
/// one-predictor case of [`measure_exits_fused`].
pub fn measure_exits<P: ExitPredictor>(
    predictor: &mut P,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> MissStats {
    measure_exits_fused(std::slice::from_mut(predictor), descs, events)[0]
}

/// Measures many independent exit predictors in a single trace walk.
///
/// The multi-million-event trace is streamed exactly once: each event is
/// decoded once and fed to every predictor. Predictors never observe each
/// other, so each result is bit-identical to a one-predictor walk — this
/// is what lets a whole depth sweep (`0..=8`) ride one walk.
///
/// When every predictor in the sweep is a PATH predictor over the **same**
/// lane-packable automaton family (the fig10/fig11 grid shape), use
/// [`measure_exits_batched`] instead: same results, one SWAR word per
/// event instead of a predictor-by-predictor loop.
pub fn measure_exits_fused<P: ExitPredictor>(
    predictors: &mut [P],
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<MissStats> {
    let mut stats = vec![MissStats::default(); predictors.len()];
    for e in events.iter() {
        let desc = &descs[e.task.index()];
        for (p, s) in predictors.iter_mut().zip(stats.iter_mut()) {
            s.record(p.predict_update(desc, e.exit) != e.exit);
        }
    }
    stats
}

/// Measures a whole homogeneous PATH sweep in one lane-packed trace walk —
/// the SWAR fast path of [`measure_exits_fused`].
///
/// One [`BatchedExitPredictor`] lane stands in for each scalar
/// `PathPredictor` of the sweep; per event the batch gathers one `u64`,
/// predicts and trains every lane with branchless lane arithmetic, and
/// reports a per-lane miss mask. Results — miss stats *and* states-touched
/// counts — are bit-identical to the scalar fused walk (`multiscalar-core`'s
/// `lane` module tests enforce the per-lane equivalence; the harness's
/// fused tests enforce it end to end against `measure_exits`).
pub fn measure_exits_batched<A: LaneAutomaton>(
    batch: &mut BatchedExitPredictor<A>,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<(MissStats, usize)> {
    LANE_PACKED_SWEEPS.fetch_add(1, Ordering::Relaxed);
    let n = batch.lanes();
    let mut stats = vec![MissStats::default(); n];
    for e in events.iter() {
        let mut miss = batch.step(&descs[e.task.index()], e.exit);
        for s in stats.iter_mut() {
            s.record(miss & 1 == 1);
            miss >>= 1;
        }
    }
    stats
        .into_iter()
        .enumerate()
        .map(|(k, s)| (s, batch.states_touched(k)))
        .collect()
}

/// Measures an ideal depth sweep in one trace walk of its history trie:
/// per-depth miss stats and states, in the sweep's depth order.
/// Bit-identical to one [`measure_exits`] per depth on the matching map
/// model (`multiscalar_core::ideal::IdealGlobal` and its siblings).
pub fn measure_exits_trie<A: Automaton>(
    sweep: &mut IdealSweep<A>,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<(MissStats, usize)> {
    let mut tally = DepthTally::default();
    for e in events.iter() {
        tally.record(sweep.step(&descs[e.task.index()], e.exit));
    }
    sweep
        .depths()
        .iter()
        .map(|&d| (tally.stats(d as usize), sweep.states(d)))
        .collect()
}

/// The ideal-CTTB counterpart of [`measure_exits_trie`]: one walk of the
/// indirect-exit stream for every depth, bit-identical to one
/// [`measure_indirect_targets`] per depth on [`IdealCttb`].
pub fn measure_indirect_targets_trie(
    sweep: &mut IdealCttbSweep,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<(MissStats, usize)> {
    let mut tally = DepthTally::default();
    for e in events.iter() {
        let indirect = e.kind.needs_target_buffer();
        let miss = sweep.step(descs[e.task.index()].entry(), indirect.then_some(e.next));
        if indirect {
            tally.record(miss);
        }
    }
    sweep
        .depths()
        .iter()
        .map(|&d| (tally.stats(d), sweep.states(d)))
        .collect()
}

/// Per-depth miss counts of a trie sweep. Every depth predicts on every
/// measured event, so one prediction count serves them all.
struct DepthTally {
    predictions: u64,
    misses: [u64; 64],
}

impl Default for DepthTally {
    fn default() -> Self {
        DepthTally {
            predictions: 0,
            misses: [0; 64],
        }
    }
}

impl DepthTally {
    /// One measured event; bit `d` of `miss` is a miss at depth `d`.
    #[inline]
    fn record(&mut self, mut miss: u64) {
        self.predictions += 1;
        while miss != 0 {
            self.misses[miss.trailing_zeros() as usize] += 1;
            miss &= miss - 1;
        }
    }

    fn stats(&self, depth: usize) -> MissStats {
        MissStats {
            predictions: self.predictions,
            misses: self.misses[depth],
        }
    }
}

/// Measures the full composite predictor: exit + RAS + header + CTTB
/// (Tables 3 and 4's prediction side).
pub fn measure_full<E: ExitPredictor>(
    predictor: &mut TaskPredictor<E>,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> FullStats {
    let mut stats = FullStats::default();
    for e in events.iter() {
        stats.step(predictor, &descs[e.task.index()], &e);
    }
    stats
}

/// Measures headerless CTTB-only next-task prediction (§6.4.2, Table 3).
pub fn measure_cttb_only(
    predictor: &mut CttbOnlyPredictor,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> MissStats {
    let mut stats = MissStats::default();
    for e in events.iter() {
        cttb_only_step(predictor, &mut stats, descs[e.task.index()].entry(), e.next);
    }
    stats
}

/// Measures Table 3's two predictors — the full composite and the
/// headerless CTTB-only baseline — in a single trace walk.
///
/// Equivalent to [`measure_full`] followed by [`measure_cttb_only`], but
/// each event is decoded once and fed to both predictors (they never
/// observe each other), halving the trace traffic. Results are
/// bit-identical to the one-at-a-time loops.
pub fn measure_table3<E: ExitPredictor>(
    full: &mut TaskPredictor<E>,
    only: &mut CttbOnlyPredictor,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> (FullStats, MissStats) {
    let mut full_stats = FullStats::default();
    let mut only_stats = MissStats::default();
    for e in events.iter() {
        let desc = &descs[e.task.index()];
        full_stats.step(full, desc, &e);
        cttb_only_step(only, &mut only_stats, desc.entry(), e.next);
    }
    (full_stats, only_stats)
}

/// One event of the CTTB-only predictor: predict `next` from `current`,
/// score, train.
#[inline]
fn cttb_only_step(
    predictor: &mut CttbOnlyPredictor,
    stats: &mut MissStats,
    current: Addr,
    next: Addr,
) {
    stats.record(predictor.predict(current) != Some(next));
    predictor.update(current, next);
}

/// A target buffer as seen by the measurement loop — implemented by the
/// real [`Ttb`] and [`Cttb`] and the alias-free [`IdealCttb`].
pub trait TargetBuffer {
    /// Predicts the target for the task at `current` given the path (which
    /// may be deeper than [`path_depth`](Self::path_depth)).
    fn predict(&self, path: &PathRegister, current: Addr) -> Option<Addr>;
    /// Trains with the actual target.
    fn update(&mut self, path: &PathRegister, current: Addr, actual: Addr);
    /// How many recent task addresses this buffer reads.
    fn path_depth(&self) -> usize;
}

impl TargetBuffer for Ttb {
    fn predict(&self, _path: &PathRegister, current: Addr) -> Option<Addr> {
        Ttb::predict(self, current)
    }
    fn update(&mut self, _path: &PathRegister, current: Addr, actual: Addr) {
        Ttb::update(self, current, actual)
    }
    fn path_depth(&self) -> usize {
        0
    }
}

impl TargetBuffer for Cttb {
    fn predict(&self, path: &PathRegister, current: Addr) -> Option<Addr> {
        Cttb::predict(self, path, current)
    }
    fn update(&mut self, path: &PathRegister, current: Addr, actual: Addr) {
        Cttb::update(self, path, current, actual)
    }
    fn path_depth(&self) -> usize {
        self.dolc().depth()
    }
}

impl TargetBuffer for IdealCttb {
    fn predict(&self, path: &PathRegister, current: Addr) -> Option<Addr> {
        IdealCttb::predict(self, path, current)
    }
    fn update(&mut self, path: &PathRegister, current: Addr, actual: Addr) {
        IdealCttb::update(self, path, current, actual)
    }
    fn path_depth(&self) -> usize {
        self.depth()
    }
}

/// Measures target prediction for *indirect* exits only (Figures 8 and 12):
/// the one-buffer case of [`measure_indirect_targets_fused`].
pub fn measure_indirect_targets<B: TargetBuffer>(
    buffer: &mut B,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> MissStats {
    measure_indirect_targets_fused(std::slice::from_mut(buffer), descs, events)[0]
}

/// Measures many independent target buffers in a single trace walk: each
/// buffer is consulted and trained on `INDIRECT_BRANCH` / `INDIRECT_CALL`
/// events, and every event advances the path.
///
/// Every buffer reads one [`PathRegister`] sized to the deepest
/// [`TargetBuffer::path_depth`]; each reads only its own depth of it, so
/// results are bit-identical to measuring the buffers one at a time.
pub fn measure_indirect_targets_fused<B: TargetBuffer>(
    buffers: &mut [B],
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<MissStats> {
    let mut stats = vec![MissStats::default(); buffers.len()];
    let mut path = PathRegister::new(buffers.iter().map(B::path_depth).max().unwrap_or(0));
    for e in events.iter() {
        let cur = descs[e.task.index()].entry();
        if e.kind.needs_target_buffer() {
            for (b, s) in buffers.iter_mut().zip(stats.iter_mut()) {
                let predicted = b.predict(&path, cur);
                s.record(predicted != Some(e.next));
                b.update(&path, cur, e.next);
            }
        }
        path.push(cur);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::collect_trace;
    use multiscalar_core::automata::LastExitHysteresis;
    use multiscalar_core::dolc::Dolc;
    use multiscalar_core::history::PathPredictor;
    use multiscalar_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use multiscalar_taskform::TaskFormer;

    type Leh2 = LastExitHysteresis<2>;

    /// A loop program whose loop task alternates exits in a fixed pattern.
    fn looped_program() -> (
        multiscalar_isa::Program,
        TaskProgram,
        std::sync::Arc<SharedTrace>,
    ) {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 400);
        let top = b.here_label();
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        // A data-free inner diamond: taken when bit 0 of the counter set.
        b.op_imm(AluOp::And, Reg(3), Reg(1), 1);
        let odd = b.new_label();
        let join = b.new_label();
        b.branch(Cond::Ne, Reg(3), Reg(0), odd);
        b.op_imm(AluOp::Add, Reg(4), Reg(4), 1);
        b.jump(join);
        b.bind(odd);
        b.op_imm(AluOp::Add, Reg(5), Reg(5), 1);
        b.bind(join);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let tp = TaskFormer::default().form(&p).unwrap();
        let run = collect_trace(&p, &tp, 100_000).unwrap();
        (p, tp, run.events)
    }

    #[test]
    fn perfect_oracle_has_zero_misses() {
        struct Oracle(Option<multiscalar_isa::ExitIndex>);
        impl ExitPredictor for Oracle {
            fn predict(&mut self, _t: &TaskDesc) -> multiscalar_isa::ExitIndex {
                self.0.take().unwrap()
            }
            fn update(&mut self, _t: &TaskDesc, _a: multiscalar_isa::ExitIndex) {}
            fn states_touched(&self) -> usize {
                0
            }
        }
        // Feed the oracle the actual exits (simulating perfect prediction).
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mut stats = MissStats::default();
        for e in events.iter() {
            let mut o = Oracle(Some(e.exit));
            let got = o.predict(&descs[e.task.index()]);
            stats.record(got != e.exit);
        }
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.predictions, events.len() as u64);
    }

    #[test]
    fn path_predictor_learns_the_loop_pattern() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mut pred: PathPredictor<Leh2> = PathPredictor::new(Dolc::new(4, 4, 6, 6, 2));
        let stats = measure_exits(&mut pred, &descs, &events);
        // The loop body alternates deterministically; with path history the
        // predictor should be nearly perfect after warmup.
        assert!(
            stats.miss_rate() < 0.10,
            "expected <10% misses on a deterministic loop, got {:.1}%",
            stats.miss_rate() * 100.0
        );
    }

    #[test]
    fn full_predictor_resolves_branch_targets_from_header() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mut pred = TaskPredictor::<PathPredictor<Leh2>>::path(
            Dolc::new(4, 4, 6, 6, 2),
            Dolc::new(4, 3, 4, 4, 2),
            16,
        );
        let stats = measure_full(&mut pred, &descs, &events);
        assert_eq!(stats.exits.predictions, events.len() as u64);
        // When the exit is right, a branch target from the header is always
        // right.
        let br = stats.target_stats(ExitKind::Branch);
        assert_eq!(br.misses, 0, "header targets cannot miss");
        // Next-task misses equal exit misses here (all targets known).
        assert_eq!(stats.next_task.misses, stats.exits.misses);
    }

    #[test]
    fn cttb_only_predicts_deterministic_sequences_well() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mut pred = CttbOnlyPredictor::new(Dolc::new(5, 4, 7, 7, 2));
        let stats = measure_cttb_only(&mut pred, &descs, &events);
        assert!(
            stats.miss_rate() < 0.15,
            "CTTB-only should learn a deterministic task sequence: {:.1}%",
            stats.miss_rate() * 100.0
        );
    }

    #[test]
    fn batched_walk_matches_scalar_fused_walk_and_counts_itself() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let configs = [
            Dolc::new(0, 0, 0, 8, 1),
            Dolc::new(2, 4, 5, 5, 1),
            Dolc::new(4, 4, 6, 6, 2),
            Dolc::new(6, 5, 8, 9, 3),
        ];
        let mut scalars: Vec<PathPredictor<Leh2>> =
            configs.iter().map(|&d| PathPredictor::new(d)).collect();
        let fused = measure_exits_fused(&mut scalars, &descs, &events);

        let before = lane_packed_sweeps();
        let mut batch = multiscalar_core::lane::BatchedExitPredictor::<Leh2>::new(&configs)
            .expect("4 LEH lanes fit");
        let batched = measure_exits_batched(&mut batch, &descs, &events);
        assert_eq!(lane_packed_sweeps(), before + 1);

        for (k, p) in scalars.iter().enumerate() {
            assert_eq!(batched[k], (fused[k], p.states_touched()), "lane {k}");
        }
    }

    #[test]
    fn fused_table3_walk_matches_separate_walks() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mk_full = || {
            TaskPredictor::<PathPredictor<Leh2>>::path(
                Dolc::new(4, 4, 6, 6, 2),
                Dolc::new(4, 3, 4, 4, 2),
                16,
            )
        };
        let mk_only = || CttbOnlyPredictor::new(Dolc::new(5, 4, 7, 7, 2));

        let full_sep = measure_full(&mut mk_full(), &descs, &events);
        let only_sep = measure_cttb_only(&mut mk_only(), &descs, &events);
        let (full_fused, only_fused) =
            measure_table3(&mut mk_full(), &mut mk_only(), &descs, &events);

        assert_eq!(full_fused.exits, full_sep.exits);
        assert_eq!(full_fused.next_task, full_sep.next_task);
        assert_eq!(full_fused.target_by_kind, full_sep.target_by_kind);
        assert_eq!(only_fused, only_sep);
    }

    #[test]
    fn halt_kind_has_no_slot_and_empty_stats() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mut pred = TaskPredictor::<PathPredictor<Leh2>>::path(
            Dolc::new(4, 4, 6, 6, 2),
            Dolc::new(4, 3, 4, 4, 2),
            16,
        );
        let stats = measure_full(&mut pred, &descs, &events);
        assert_eq!(stats.target_stats(ExitKind::Halt), MissStats::default());
        for e in events.iter() {
            assert_ne!(e.kind, ExitKind::Halt, "traces never record halts");
        }
    }

    #[test]
    fn miss_stats_merge_and_rate() {
        let mut a = MissStats {
            predictions: 10,
            misses: 2,
        };
        let b = MissStats {
            predictions: 30,
            misses: 3,
        };
        a.merge(b);
        assert_eq!(a.predictions, 40);
        assert_eq!(a.misses, 5);
        assert!((a.miss_rate() - 0.125).abs() < 1e-12);
        assert_eq!(MissStats::default().miss_rate(), 0.0);
    }
}
