//! The predictor zoo: exit-predictor families *beyond* the paper's GLOBAL /
//! PER / PATH trio, built from the same parts (automata PHTs, DOLC paths,
//! confidence estimation) to probe the design space the paper opens.
//!
//! * [`GshareExitPredictor`] — gshare (McFarling 1993) transplanted to task
//!   exits: the global *exit-number* history is XORed with task-address bits
//!   to index the PHT, instead of concatenated-and-folded as in
//!   [`crate::history::GlobalPredictor`]. XOR dispersion gives each
//!   (history, task) pair its own likely slot without widening the table.
//! * [`GatedHybridPredictor`] — a confidence-gated selector over a cheap
//!   per-task LEH bank and the paper's PATH scheme. Where the
//!   [`crate::tournament::TournamentPredictor`] learns a per-task *choice*,
//!   this one tracks each component's correct-streak confidence (CIR
//!   estimators, as in `ext-confidence`) and asks the component that has
//!   recently been right; PATH wins ties since it is the paper's winner.
//!
//! Both families are exercised by the harness's `ext-zoo` ranking experiment
//! and by the fuzz corpus, and obey the paper's single-exit rule (§6.1):
//! single-exit tasks predict exit 0 without touching any table, but still
//! advance global history so they remain part of the path identity.

use crate::automata::Automaton;
use crate::confidence::ConfidenceEstimator;
use crate::dolc::Dolc;
use crate::history::{fold, mask64, touch, PathPredictor};
use crate::predictor::{ExitPredictor, TaskDesc, EXIT0};
use crate::rng::XorShift64;
use multiscalar_isa::ExitIndex;

// ---------------------------------------------------------------------------
// GSHARE
// ---------------------------------------------------------------------------

/// Gshare over task exits: `index = fold(exit history) XOR task address`.
///
/// The global register shifts in 2-bit exit numbers exactly like
/// [`crate::history::GlobalPredictor`]; the difference is the hash. XORing
/// history with the address spreads each task's contexts across the whole
/// PHT, where GLOBAL's concatenate-and-fold packs correlated contexts into
/// neighbouring slots and aliases faster at small tables.
///
/// # Example
///
/// ```
/// use multiscalar_core::automata::LastExitHysteresis;
/// use multiscalar_core::zoo::GshareExitPredictor;
///
/// let p: GshareExitPredictor<LastExitHysteresis<2>> = GshareExitPredictor::new(7, 14);
/// assert_eq!(p.storage_bytes(), 8 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct GshareExitPredictor<A: Automaton> {
    depth: u32,
    index_bits: u32,
    hist: u64,
    pht: Vec<A>,
    tie: XorShift64,
    touched: Vec<u64>,
    touched_count: usize,
}

impl<A: Automaton> GshareExitPredictor<A> {
    /// Creates a predictor with `depth` task steps of exit history and a
    /// `2^index_bits`-entry PHT.
    ///
    /// # Panics
    ///
    /// Panics if `2 * depth > 64` or `index_bits` is 0 or > 28.
    pub fn new(depth: u32, index_bits: u32) -> GshareExitPredictor<A> {
        assert!(2 * depth <= 64, "exit history limited to 32 steps");
        assert!((1..=28).contains(&index_bits));
        let n = 1usize << index_bits;
        GshareExitPredictor {
            depth,
            index_bits,
            hist: 0,
            pht: vec![A::default(); n],
            tie: XorShift64::default(),
            touched: vec![0; n.div_ceil(64)],
            touched_count: 0,
        }
    }

    /// History depth in task steps.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// PHT storage in bytes (paper accounting).
    pub fn storage_bytes(&self) -> usize {
        self.pht.len() * A::STORAGE_BITS as usize / 8
    }

    fn index(&self, task: &TaskDesc) -> usize {
        let hist_bits = 2 * self.depth;
        let folded = fold(
            (self.hist & mask64(hist_bits)) as u128,
            hist_bits.max(1),
            self.index_bits,
        );
        folded ^ (task.entry().0 as usize & ((1 << self.index_bits) - 1))
    }
}

impl<A: Automaton> ExitPredictor for GshareExitPredictor<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        if task.single_exit() {
            return EXIT0;
        }
        let idx = self.index(task);
        self.pht[idx].predict(&mut self.tie)
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        if task.single_exit() {
            // Paper §6.1: no table access, but the step stays part of the
            // global history (exit 0 shifts in).
            self.hist <<= 2;
            return;
        }
        let idx = self.index(task);
        self.pht[idx].update(actual);
        self.touched_count += touch(&mut self.touched, idx);
        self.hist = (self.hist << 2) | actual.as_u8() as u64;
    }

    fn states_touched(&self) -> usize {
        self.touched_count
    }
}

// ---------------------------------------------------------------------------
// GATED HYBRID
// ---------------------------------------------------------------------------

/// A confidence-gated LEH + PATH selector.
///
/// Two components run side by side: a per-task bank of automata with no
/// history (a depth-0 [`PathPredictor`] — effectively an LEH automaton per
/// task address) and a full DOLC-indexed PATH predictor. Each component has
/// its own CIR [`ConfidenceEstimator`] tracking how often *it* has recently
/// been right per task; prediction asks the component whose streak clears
/// its threshold, preferring PATH (the paper's winner) when both or neither
/// qualify.
///
/// The hypothesis this tests: the tournament's 2-bit chooser is slow to
/// abandon a component after a phase change, while resetting streak
/// counters collapse to the fallback immediately.
///
/// # Example
///
/// ```
/// use multiscalar_core::automata::LastExitHysteresis;
/// use multiscalar_core::dolc::Dolc;
/// use multiscalar_core::zoo::GatedHybridPredictor;
///
/// let p: GatedHybridPredictor<LastExitHysteresis<2>> =
///     GatedHybridPredictor::new(10, Dolc::new(6, 5, 8, 9, 3), 10, 4);
/// # let _ = p;
/// ```
#[derive(Debug, Clone)]
pub struct GatedHybridPredictor<A: Automaton> {
    leh: PathPredictor<A>,
    path: PathPredictor<A>,
    leh_conf: ConfidenceEstimator,
    path_conf: ConfidenceEstimator,
}

impl<A: Automaton> GatedHybridPredictor<A> {
    /// Creates a gated hybrid: a `2^leh_bits`-entry historyless LEH bank, a
    /// PATH component configured by `path_dolc`, and two
    /// `2^conf_bits`-entry CIR estimators with the given streak threshold.
    ///
    /// # Panics
    ///
    /// Panics if `leh_bits` or `conf_bits` is 0 or > 28, or `threshold`
    /// is 0.
    pub fn new(
        leh_bits: u8,
        path_dolc: Dolc,
        conf_bits: u32,
        threshold: u8,
    ) -> GatedHybridPredictor<A> {
        GatedHybridPredictor {
            // Depth 0, current-task bits only: one automaton per (hashed)
            // task address, no path history.
            leh: PathPredictor::new(Dolc::new(0, 0, 0, leh_bits, 1)),
            path: PathPredictor::new(path_dolc),
            leh_conf: ConfidenceEstimator::new(conf_bits, threshold),
            path_conf: ConfidenceEstimator::new(conf_bits, threshold),
        }
    }

    /// The LEH (historyless) component.
    pub fn leh(&self) -> &PathPredictor<A> {
        &self.leh
    }

    /// The PATH component.
    pub fn path(&self) -> &PathPredictor<A> {
        &self.path
    }

    /// Total table storage in bytes (both PHTs plus both estimators).
    pub fn storage_bytes(&self) -> usize {
        self.leh.storage_bytes()
            + self.path.storage_bytes()
            + self.leh_conf.storage_bytes()
            + self.path_conf.storage_bytes()
    }

    fn select(&self, task: &TaskDesc, p_leh: ExitIndex, p_path: ExitIndex) -> ExitIndex {
        if self.path_conf.high_confidence_for(task) {
            p_path
        } else if self.leh_conf.high_confidence_for(task) {
            p_leh
        } else {
            p_path
        }
    }
}

impl<A: Automaton> ExitPredictor for GatedHybridPredictor<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        let p_leh = self.leh.predict(task);
        let p_path = self.path.predict(task);
        self.select(task, p_leh, p_path)
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        // Re-derive the component predictions (deterministic between
        // predict and update; see TournamentPredictor for the same idiom).
        let p_leh = self.leh.predict(task);
        let p_path = self.path.predict(task);
        // Single-exit tasks are trivially correct for every component (both
        // skip their PHTs and answer exit 0); training the streaks on them
        // would launder free hits into confidence, so gate the estimators
        // the same way the components gate their tables.
        if !task.single_exit() {
            self.leh_conf.update(task.entry(), p_leh == actual);
            self.path_conf.update(task.entry(), p_path == actual);
        }
        self.leh.update(task, actual);
        self.path.update(task, actual);
    }

    fn states_touched(&self) -> usize {
        self.leh.states_touched() + self.path.states_touched()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automata::LastExitHysteresis;
    use crate::predictor::ExitInfo;
    use multiscalar_isa::{Addr, ExitKind};

    type Leh2 = LastExitHysteresis<2>;

    fn e(i: u8) -> ExitIndex {
        ExitIndex::new(i).unwrap()
    }

    fn task(entry: u32, n: usize) -> TaskDesc {
        let exits = (0..n)
            .map(|i| ExitInfo {
                kind: ExitKind::Branch,
                target: Some(Addr(entry + 10 + i as u32)),
                return_addr: None,
            })
            .collect();
        TaskDesc::new(Addr(entry), exits)
    }

    #[test]
    fn gshare_learns_alternation_through_global_history() {
        let mut p: GshareExitPredictor<Leh2> = GshareExitPredictor::new(4, 12);
        let t = task(0x100, 2);
        let mut misses = 0;
        for i in 0..200 {
            let actual = e((i % 2) as u8);
            let got = p.predict(&t);
            if i >= 50 && got != actual {
                misses += 1;
            }
            p.update(&t, actual);
        }
        assert_eq!(misses, 0, "alternation is visible in global exit history");
    }

    #[test]
    fn gshare_separates_tasks_with_identical_history() {
        // Two tasks seen under the same (empty-ish) global history but with
        // opposite biases: the XOR with the address must keep their PHT
        // slots apart. Run them strictly alternating so both always see the
        // same history bits.
        let mut p: GshareExitPredictor<Leh2> = GshareExitPredictor::new(2, 10);
        let a = task(0x111, 2);
        let b = task(0x2E2, 2);
        let mut misses = 0;
        for i in 0..300 {
            for (t, actual) in [(&a, e(0)), (&b, e(1))] {
                let got = p.predict(t);
                if i >= 100 && got != actual {
                    misses += 1;
                }
                p.update(t, actual);
            }
        }
        assert_eq!(misses, 0, "address XOR must separate the two tasks");
    }

    #[test]
    fn gshare_skips_tables_for_single_exit_tasks() {
        let mut p: GshareExitPredictor<Leh2> = GshareExitPredictor::new(4, 10);
        let t1 = task(0x10, 1);
        for _ in 0..10 {
            assert_eq!(p.predict(&t1), e(0));
            p.update(&t1, e(0));
        }
        assert_eq!(p.states_touched(), 0, "single-exit tasks skip the PHT");
    }

    #[test]
    fn gshare_storage_accounting() {
        let p: GshareExitPredictor<Leh2> = GshareExitPredictor::new(7, 14);
        assert_eq!(p.storage_bytes(), 8 * 1024);
        assert_eq!(p.depth(), 7);
    }

    #[test]
    fn gated_hybrid_tracks_path_on_predecessor_correlation() {
        // A random predecessor determines the next task's exit — PATH's
        // home turf; the LEH bank sees an i.i.d. stream.
        let mut h: GatedHybridPredictor<Leh2> =
            GatedHybridPredictor::new(8, Dolc::new(4, 4, 6, 6, 2), 10, 4);
        let t = task(0x08, 2);
        let p1 = task(0x11, 2);
        let p2 = task(0x22, 2);
        let mut rng = XorShift64::new(5);
        let mut misses = 0;
        for i in 0..600 {
            let (pred, actual) = if rng.next_below(2) == 0 {
                (&p1, e(0))
            } else {
                (&p2, e(1))
            };
            let _ = h.predict(pred);
            h.update(pred, e(0));
            if h.predict(&t) != actual && i >= 200 {
                misses += 1;
            }
            h.update(&t, actual);
        }
        assert!(misses <= 20, "gate must settle on PATH: {misses}");
    }

    #[test]
    fn gated_hybrid_falls_back_to_leh_when_path_is_noisy() {
        // Task exits depend only on the task itself (strong static bias per
        // task), while a *random* predecessor scrambles every path context:
        // PATH keeps relearning cold slots, the historyless LEH bank nails
        // it. The gate must fall back to LEH.
        let mut h: GatedHybridPredictor<Leh2> =
            GatedHybridPredictor::new(8, Dolc::new(6, 5, 8, 8, 2), 10, 4);
        let t = task(0x08, 2);
        let mut rng = XorShift64::new(7);
        let mut misses = 0;
        for i in 0..2000 {
            // A predecessor drawn from a large pool, each seen ~once: path
            // contexts for `t` almost never repeat.
            let pred = task(0x1000 + rng.next_below(512) * 4, 2);
            let pred_actual = e(rng.next_below(2) as u8);
            let _ = h.predict(&pred);
            h.update(&pred, pred_actual);
            let got = h.predict(&t);
            if i >= 800 && got != e(0) {
                misses += 1;
            }
            h.update(&t, e(0));
        }
        assert!(
            misses <= 24,
            "gate must fall back to the LEH component: {misses} / 1200"
        );
    }

    #[test]
    fn gated_hybrid_single_exit_tasks_do_not_build_confidence() {
        let mut h: GatedHybridPredictor<Leh2> =
            GatedHybridPredictor::new(8, Dolc::new(2, 4, 6, 6, 1), 8, 2);
        let t1 = task(0x40, 1);
        for _ in 0..20 {
            assert_eq!(h.predict(&t1), e(0));
            h.update(&t1, e(0));
        }
        assert_eq!(h.states_touched(), 0, "single-exit tasks touch no PHT");
    }

    #[test]
    fn gated_hybrid_storage_and_accessors() {
        let h: GatedHybridPredictor<Leh2> =
            GatedHybridPredictor::new(10, Dolc::new(6, 5, 8, 9, 3), 10, 4);
        // LEH bank: 2^10 * 4 bits = 512 B; PATH: 16K * 4 bits = 8 KB;
        // estimators: 2 * 2^10 * 4 bits = 1 KB.
        assert_eq!(h.storage_bytes(), 512 + 8 * 1024 + 1024);
        assert_eq!(h.leh().dolc().depth(), 0);
        assert_eq!(h.path().dolc().depth(), 6);
    }
}
