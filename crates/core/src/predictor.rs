//! Shared prediction types, the [`ExitPredictor`] trait, and the composite
//! predictors: the paper's full mechanism ([`TaskPredictor`]) and the
//! headerless [`CttbOnlyPredictor`] (paper §5.4, §6.4.2).

use crate::automata::Automaton;
use crate::dolc::{Dolc, PathRegister};
use crate::history::PathPredictor;
use crate::target::{Cttb, ReturnAddressStack};
use multiscalar_isa::{Addr, ExitIndex, ExitKind};

/// Exit 0: what every predictor answers for a single-exit task.
pub(crate) const EXIT0: ExitIndex = match ExitIndex::new(0) {
    Some(e) => e,
    None => unreachable!(),
};

/// One exit of a task as the sequencer sees it — the header fields relevant
/// to prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExitInfo {
    /// The exit's control-flow class.
    pub kind: ExitKind,
    /// Target address if statically known (branches, calls).
    pub target: Option<Addr>,
    /// Return address for call exits.
    pub return_addr: Option<Addr>,
}

/// A static task as visible to predictors: its entry address (identity) and
/// its header exits in canonical order.
///
/// The simulator materialises one `TaskDesc` per static task from the task
/// former's headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDesc {
    entry: Addr,
    exits: Vec<ExitInfo>,
}

impl TaskDesc {
    /// Creates a task description.
    ///
    /// # Panics
    ///
    /// Panics if `exits` is empty or longer than
    /// [`multiscalar_isa::MAX_EXITS`].
    pub fn new(entry: Addr, exits: Vec<ExitInfo>) -> TaskDesc {
        assert!(
            !exits.is_empty() && exits.len() <= multiscalar_isa::MAX_EXITS,
            "a task has 1..=4 exits, got {}",
            exits.len()
        );
        TaskDesc { entry, exits }
    }

    /// The task's entry address — its identity for all predictors.
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// The exits in canonical order.
    pub fn exits(&self) -> &[ExitInfo] {
        &self.exits
    }

    /// Number of exits (1..=4).
    pub fn num_exits(&self) -> usize {
        self.exits.len()
    }

    /// `true` if the task has a single exit (trivially predictable).
    pub fn single_exit(&self) -> bool {
        self.exits.len() == 1
    }

    /// The exit at `index`, clamped into range — an aliased automaton can
    /// predict an exit number the task does not have; clamping mirrors
    /// hardware reading past the populated header slots.
    pub fn exit_clamped(&self, index: ExitIndex) -> &ExitInfo {
        let i = index.index().min(self.exits.len() - 1);
        &self.exits[i]
    }
}

/// A task *exit* predictor: answers "which of the (up to four) exits will
/// this task take?".
///
/// Implementations: the real [`crate::history`] predictors (GLOBAL, PER,
/// PATH) and their alias-free [`crate::ideal`] counterparts.
pub trait ExitPredictor {
    /// Predicts the exit of `task`.
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex;

    /// Informs the predictor of the actual exit and advances its history.
    ///
    /// Must be called exactly once per `predict`, in order. (The functional
    /// simulator updates immediately after each prediction, matching the
    /// paper's idealised update timing, §3.1.)
    fn update(&mut self, task: &TaskDesc, actual: ExitIndex);

    /// [`predict`](Self::predict) then [`update`](Self::update) in one call,
    /// returning the prediction. Predictors that locate their state with a
    /// lookup override it to look up once per event.
    fn predict_update(&mut self, task: &TaskDesc, actual: ExitIndex) -> ExitIndex {
        let predicted = self.predict(task);
        self.update(task, actual);
        predicted
    }

    /// Number of distinct predictor states (PHT entries / automata) touched
    /// so far — the quantity plotted in the paper's Figure 11.
    fn states_touched(&self) -> usize;
}

impl<P: ExitPredictor + ?Sized> ExitPredictor for Box<P> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        (**self).predict(task)
    }
    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        (**self).update(task, actual)
    }
    fn predict_update(&mut self, task: &TaskDesc, actual: ExitIndex) -> ExitIndex {
        (**self).predict_update(task, actual)
    }
    fn states_touched(&self) -> usize {
        (**self).states_touched()
    }
}

/// A full next-task prediction: the exit plus the target address (`None`
/// when no target source exists, e.g. a cold target buffer or empty RAS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextTaskPrediction {
    /// Predicted exit index.
    pub exit: ExitIndex,
    /// Predicted address of the next task.
    pub target: Option<Addr>,
}

/// The paper's complete task predictor: an exit predictor plus a
/// return-address stack and a small correlated task target buffer for
/// indirect exits (the configuration of Table 3, "Exit predictor with RAS &
/// CTTB", and of every row of Table 4).
///
/// Generic over the exit-prediction scheme `E` so the same composite serves
/// Simple / GLOBAL / PER / PATH comparisons; [`TaskPredictor::path`] builds
/// the paper's recommended PATH + LEH-2bit flavour.
///
/// # Example
///
/// ```
/// use multiscalar_core::automata::LastExitHysteresis;
/// use multiscalar_core::dolc::Dolc;
/// use multiscalar_core::predictor::{ExitInfo, TaskDesc, TaskPredictor};
/// use multiscalar_isa::{Addr, ExitIndex, ExitKind};
///
/// let mut p = TaskPredictor::<multiscalar_core::history::PathPredictor<LastExitHysteresis<2>>>
///     ::path(Dolc::new(7, 6, 9, 9, 3), Dolc::new(7, 4, 4, 5, 3), 64);
/// let task = TaskDesc::new(Addr(10), vec![ExitInfo {
///     kind: ExitKind::Branch, target: Some(Addr(20)), return_addr: None,
/// }]);
/// let pred = p.predict(&task);
/// assert_eq!(pred.target, Some(Addr(20)), "branch targets come from the header");
/// p.update(&task, ExitIndex::new(0).unwrap(), Addr(20));
/// ```
#[derive(Debug, Clone)]
pub struct TaskPredictor<E: ExitPredictor> {
    exit_pred: E,
    ras: ReturnAddressStack,
    cttb: Cttb,
    cttb_path: PathRegister,
}

impl<A: Automaton> TaskPredictor<PathPredictor<A>> {
    /// Builds the paper's flavour: a PATH exit predictor over `exit_dolc`
    /// with automaton `A`, plus RAS and CTTB.
    pub fn path(exit_dolc: Dolc, cttb_dolc: Dolc, ras_depth: usize) -> Self {
        TaskPredictor::new(PathPredictor::new(exit_dolc), cttb_dolc, ras_depth)
    }
}

impl<E: ExitPredictor> TaskPredictor<E> {
    /// Creates a composite predictor from any exit predictor, a CTTB index
    /// configuration and a RAS depth.
    pub fn new(exit_pred: E, cttb_dolc: Dolc, ras_depth: usize) -> TaskPredictor<E> {
        TaskPredictor {
            exit_pred,
            ras: ReturnAddressStack::new(ras_depth),
            cttb_path: PathRegister::new(cttb_dolc.depth()),
            cttb: Cttb::new(cttb_dolc),
        }
    }

    /// The underlying exit predictor.
    pub fn exit_predictor(&self) -> &E {
        &self.exit_pred
    }

    /// The return-address stack.
    pub fn ras(&self) -> &ReturnAddressStack {
        &self.ras
    }

    /// Predicts the next task: which exit `task` takes and where it leads.
    pub fn predict(&mut self, task: &TaskDesc) -> NextTaskPrediction {
        let exit = self.exit_pred.predict(task);
        let spec = task.exit_clamped(exit);
        let target = match spec.kind {
            ExitKind::Branch | ExitKind::Call | ExitKind::Halt => spec.target,
            ExitKind::Return => self.ras.peek(),
            ExitKind::IndirectBranch | ExitKind::IndirectCall => {
                self.cttb.predict(&self.cttb_path, task.entry())
            }
        };
        NextTaskPrediction { exit, target }
    }

    /// Resolves the step: trains the exit predictor, maintains the RAS and
    /// trains the CTTB for indirect exits. `actual_target` is the entry of
    /// the task actually executed next.
    pub fn update(&mut self, task: &TaskDesc, actual: ExitIndex, actual_target: Addr) {
        self.exit_pred.update(task, actual);
        let spec = task.exit_clamped(actual);
        match spec.kind {
            ExitKind::Call | ExitKind::IndirectCall => {
                if let Some(ra) = spec.return_addr {
                    self.ras.push(ra);
                }
            }
            ExitKind::Return => {
                self.ras.pop();
            }
            _ => {}
        }
        if spec.kind.needs_target_buffer() {
            self.cttb
                .update(&self.cttb_path, task.entry(), actual_target);
        }
        self.cttb_path.push(task.entry());
    }
}

/// Headerless, CTTB-only task prediction (paper §5.4 / §6.4.2): the next
/// task *address* is predicted directly from a large correlated target
/// buffer, with no exit specifiers, no header targets and no RAS.
///
/// The paper shows this trades 4×–54% worse accuracy and 4× the storage
/// for not needing header bits in the ISA — reproduced by Table 3's
/// harness.
#[derive(Debug, Clone)]
pub struct CttbOnlyPredictor {
    cttb: Cttb,
    path: PathRegister,
}

impl CttbOnlyPredictor {
    /// Creates a predictor with the given index configuration.
    pub fn new(dolc: Dolc) -> CttbOnlyPredictor {
        CttbOnlyPredictor {
            path: PathRegister::new(dolc.depth()),
            cttb: Cttb::new(dolc),
        }
    }

    /// Predicts the next task's entry address (`None` while cold).
    pub fn predict(&mut self, current: Addr) -> Option<Addr> {
        self.cttb.predict(&self.path, current)
    }

    /// Trains with the actual next task address and advances the path.
    pub fn update(&mut self, current: Addr, actual_next: Addr) {
        self.cttb.update(&self.path, current, actual_next);
        self.path.push(current);
    }

    /// Storage accounted as in the paper: 4 bytes per entry.
    pub fn storage_bytes(&self) -> usize {
        self.cttb.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automata::LastExitHysteresis;

    type Leh2 = LastExitHysteresis<2>;

    fn e(i: u8) -> ExitIndex {
        ExitIndex::new(i).unwrap()
    }

    fn branch_exit(target: u32) -> ExitInfo {
        ExitInfo {
            kind: ExitKind::Branch,
            target: Some(Addr(target)),
            return_addr: None,
        }
    }

    fn predictor() -> TaskPredictor<PathPredictor<Leh2>> {
        TaskPredictor::path(Dolc::new(4, 4, 6, 6, 2), Dolc::new(4, 3, 4, 4, 2), 32)
    }

    #[test]
    fn task_desc_validates_exit_count() {
        let r = std::panic::catch_unwind(|| TaskDesc::new(Addr(0), vec![]));
        assert!(r.is_err(), "empty exits rejected");
        let r = std::panic::catch_unwind(|| TaskDesc::new(Addr(0), vec![branch_exit(1); 5]));
        assert!(r.is_err(), "five exits rejected");
    }

    #[test]
    fn exit_clamped_handles_aliased_predictions() {
        let t = TaskDesc::new(Addr(0), vec![branch_exit(5), branch_exit(9)]);
        assert_eq!(
            t.exit_clamped(e(3)).target,
            Some(Addr(9)),
            "clamped to last exit"
        );
        assert_eq!(t.exit_clamped(e(0)).target, Some(Addr(5)));
    }

    #[test]
    fn header_targets_used_for_branches_and_calls() {
        let mut p = predictor();
        let t = TaskDesc::new(
            Addr(100),
            vec![ExitInfo {
                kind: ExitKind::Call,
                target: Some(Addr(7)),
                return_addr: Some(Addr(101)),
            }],
        );
        assert_eq!(p.predict(&t).target, Some(Addr(7)));
    }

    #[test]
    fn ras_predicts_return_targets() {
        let mut p = predictor();
        // Task A calls (pushing return address 55)...
        let call_task = TaskDesc::new(
            Addr(10),
            vec![ExitInfo {
                kind: ExitKind::Call,
                target: Some(Addr(30)),
                return_addr: Some(Addr(55)),
            }],
        );
        p.predict(&call_task);
        p.update(&call_task, e(0), Addr(30));
        // ...the callee task returns: the RAS must supply 55.
        let ret_task = TaskDesc::new(
            Addr(30),
            vec![ExitInfo {
                kind: ExitKind::Return,
                target: None,
                return_addr: None,
            }],
        );
        let pred = p.predict(&ret_task);
        assert_eq!(pred.target, Some(Addr(55)));
        p.update(&ret_task, e(0), Addr(55));
        assert!(p.ras().is_empty());
    }

    #[test]
    fn cttb_learns_indirect_targets() {
        let mut p = predictor();
        let t = TaskDesc::new(
            Addr(20),
            vec![ExitInfo {
                kind: ExitKind::IndirectBranch,
                target: None,
                return_addr: None,
            }],
        );
        // Cold miss first.
        assert_eq!(p.predict(&t).target, None);
        // Re-executing the same task repeatedly saturates the path register
        // with its own entry, after which the CTTB index is stable and the
        // learned target must be returned.
        for _ in 0..8 {
            p.update(&t, e(0), Addr(77));
        }
        assert_eq!(p.predict(&t).target, Some(Addr(77)));
    }

    #[test]
    fn exit_predictor_learns_alternation_with_depth() {
        // A task alternating exits 0,1 is perfectly predictable with
        // path/exit history only if history distinguishes the instances;
        // with a self-loop the path is constant so LEH settles on one exit
        // and misses half. This documents the behaviour (not a bug): the
        // real signal appears when different *predecessors* correlate with
        // different exits, which integration tests exercise.
        let mut p = predictor();
        let t = TaskDesc::new(Addr(40), vec![branch_exit(40), branch_exit(80)]);
        let mut miss = 0;
        for i in 0..100u32 {
            let actual = e((i % 2) as u8);
            if p.predict(&t).exit != actual {
                miss += 1;
            }
            p.update(&t, actual, if actual == e(0) { Addr(40) } else { Addr(80) });
        }
        assert!(
            miss <= 60,
            "LEH should not do much worse than always-wrong-half: {miss}"
        );
    }

    #[test]
    fn cttb_only_predicts_repeating_sequences() {
        let mut p = CttbOnlyPredictor::new(Dolc::new(3, 4, 6, 8, 1));
        // A periodic task sequence A->B->C->A->...
        let seq = [Addr(100), Addr(200), Addr(300)];
        let mut misses = 0;
        for round in 0..50 {
            for i in 0..3 {
                let cur = seq[i];
                let next = seq[(i + 1) % 3];
                if p.predict(cur) != Some(next) && round > 1 {
                    misses += 1;
                }
                p.update(cur, next);
            }
        }
        assert_eq!(
            misses, 0,
            "a periodic sequence must be fully learned after warmup"
        );
    }

    #[test]
    fn cttb_only_reports_storage() {
        let p = CttbOnlyPredictor::new(Dolc::new(7, 5, 7, 7, 2));
        assert_eq!(
            p.storage_bytes(),
            (1 << Dolc::new(7, 5, 7, 7, 2).index_bits()) * 4
        );
    }
}
