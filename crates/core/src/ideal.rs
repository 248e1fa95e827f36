//! Ideal (alias-free) predictors — the reference models of paper §5.2.
//!
//! "We define ideal to mean there is no aliasing in any of the data
//! structures": every distinct (task, history) state gets its own
//! automaton, realised here with unbounded maps and tries instead of
//! finite tables.
//!
//! At history depth 0 all three schemes degenerate to one automaton per
//! static task, which is why the paper's Figure 7 curves converge at the
//! left edge — reproduced by this crate's tests.
//!
//! Two engines realise the same models. The map-backed [`IdealGlobal`],
//! [`IdealPer`], [`IdealPath`] and [`crate::target::IdealCttb`] are
//! single-depth predictors: one map probe per event. The depth sweeps
//! ([`IdealSweep`], [`IdealCttbSweep`]) walk one interned history trie per
//! event for all of their depths, and the map models are their oracle.

mod sweep;

pub use sweep::{IdealCttbSweep, IdealSweep};

use crate::automata::Automaton;
use crate::dolc::{PathKey, PathRegister, MAX_PATH_KEY_DEPTH};
use crate::fxhash::FxHashMap;
use crate::history::{mask64, SingleExitMode};
use crate::predictor::{ExitPredictor, TaskDesc, EXIT0};
use crate::rng::XorShift64;
use multiscalar_isa::ExitIndex;

/// Predicts with `a`, then trains it with the actual exit: one event on
/// one automaton, whether it sits in a map or in a trie node.
#[inline]
fn train<A: Automaton>(a: &mut A, tie: &mut XorShift64, actual: ExitIndex) -> ExitIndex {
    let predicted = a.predict(tie);
    a.update(actual);
    predicted
}

/// Ideal GLOBAL: automaton per (task address, exact exit history of the
/// last `depth` task steps).
#[derive(Debug, Clone)]
pub struct IdealGlobal<A: Automaton> {
    depth: u32,
    hist: u64,
    map: FxHashMap<(u32, u64), A>,
    tie: XorShift64,
}

impl<A: Automaton> IdealGlobal<A> {
    /// Creates an ideal GLOBAL predictor with `depth` steps of exit history.
    ///
    /// # Panics
    ///
    /// Panics if `depth > 32` (history is packed 2 bits per step).
    pub fn new(depth: u32) -> IdealGlobal<A> {
        assert!(depth <= 32);
        IdealGlobal {
            depth,
            hist: 0,
            map: FxHashMap::default(),
            tie: XorShift64::default(),
        }
    }

    /// Number of distinct (task, history) states seen.
    pub fn states(&self) -> usize {
        self.map.len()
    }

    fn key(&self, task: &TaskDesc) -> (u32, u64) {
        (task.entry().0, self.hist & mask64(2 * self.depth))
    }
}

impl<A: Automaton> ExitPredictor for IdealGlobal<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        let key = self.key(task);
        match self.map.get(&key) {
            Some(a) => a.predict(&mut self.tie),
            None => A::default().predict(&mut self.tie),
        }
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        let key = self.key(task);
        self.map.entry(key).or_default().update(actual);
        self.hist = (self.hist << 2) | actual.as_u8() as u64;
    }

    fn predict_update(&mut self, task: &TaskDesc, actual: ExitIndex) -> ExitIndex {
        let key = self.key(task);
        let predicted = train(self.map.entry(key).or_default(), &mut self.tie, actual);
        self.hist = (self.hist << 2) | actual.as_u8() as u64;
        predicted
    }

    fn states_touched(&self) -> usize {
        self.states()
    }
}

/// Ideal PER: one unbounded history register per static task, automaton per
/// (task address, that task's own exit history).
#[derive(Debug, Clone)]
pub struct IdealPer<A: Automaton> {
    depth: u32,
    // Dense direct-indexed history table (entry addresses are small program
    // offsets); grown on demand so the per-event path never hashes.
    hists: Vec<u64>,
    map: FxHashMap<(u32, u64), A>,
    tie: XorShift64,
}

impl<A: Automaton> IdealPer<A> {
    /// Creates an ideal PER predictor with `depth` steps of per-task
    /// history.
    ///
    /// # Panics
    ///
    /// Panics if `depth > 32`.
    pub fn new(depth: u32) -> IdealPer<A> {
        assert!(depth <= 32);
        IdealPer {
            depth,
            hists: Vec::new(),
            map: FxHashMap::default(),
            tie: XorShift64::default(),
        }
    }

    /// Number of distinct (task, history) states seen.
    pub fn states(&self) -> usize {
        self.map.len()
    }

    fn key(&self, task: &TaskDesc) -> (u32, u64) {
        let h = self
            .hists
            .get(task.entry().0 as usize)
            .copied()
            .unwrap_or(0);
        (task.entry().0, h & mask64(2 * self.depth))
    }

    fn push(&mut self, task: &TaskDesc, actual: ExitIndex) {
        let i = task.entry().0 as usize;
        if i >= self.hists.len() {
            self.hists.resize(i + 1, 0);
        }
        self.hists[i] = (self.hists[i] << 2) | actual.as_u8() as u64;
    }
}

impl<A: Automaton> ExitPredictor for IdealPer<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        let key = self.key(task);
        match self.map.get(&key) {
            Some(a) => a.predict(&mut self.tie),
            None => A::default().predict(&mut self.tie),
        }
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        let key = self.key(task);
        self.map.entry(key).or_default().update(actual);
        self.push(task, actual);
    }

    fn predict_update(&mut self, task: &TaskDesc, actual: ExitIndex) -> ExitIndex {
        let key = self.key(task);
        let predicted = train(self.map.entry(key).or_default(), &mut self.tie, actual);
        self.push(task, actual);
        predicted
    }

    fn states_touched(&self) -> usize {
        self.states()
    }
}

/// Ideal PATH: automaton per (task address, exact sequence of the last
/// `depth` task addresses) — unique path identification, no folding, no
/// aliasing.
#[derive(Debug, Clone)]
pub struct IdealPath<A: Automaton> {
    depth: usize,
    path: PathRegister,
    map: FxHashMap<(u32, PathKey), A>,
    tie: XorShift64,
    mode: SingleExitMode,
}

impl<A: Automaton> IdealPath<A> {
    /// Creates an ideal PATH predictor of the given depth, with the paper's
    /// single-exit optimisation enabled.
    pub fn new(depth: u32) -> IdealPath<A> {
        Self::with_mode(depth, SingleExitMode::default())
    }

    /// Creates an ideal PATH predictor with an explicit single-exit policy.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds [`MAX_PATH_KEY_DEPTH`] (the paper's sweeps
    /// stop at 8).
    pub fn with_mode(depth: u32, mode: SingleExitMode) -> IdealPath<A> {
        assert!(
            depth as usize <= MAX_PATH_KEY_DEPTH,
            "ideal PATH depth {depth} too deep"
        );
        IdealPath {
            depth: depth as usize,
            path: PathRegister::new(depth as usize),
            map: FxHashMap::default(),
            tie: XorShift64::default(),
            mode,
        }
    }

    /// Number of distinct (task, path) states seen — the "ideal
    /// implementation" curve of the paper's Figure 11.
    pub fn states(&self) -> usize {
        self.map.len()
    }

    fn skip(&self, task: &TaskDesc) -> bool {
        self.mode != SingleExitMode::Off && task.single_exit()
    }
}

impl<A: Automaton> ExitPredictor for IdealPath<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        if self.skip(task) {
            return EXIT0;
        }
        let key = (task.entry().0, self.path.key(self.depth));
        match self.map.get(&key) {
            Some(a) => a.predict(&mut self.tie),
            None => A::default().predict(&mut self.tie),
        }
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        if self.skip(task) {
            self.path.push(task.entry());
            return;
        }
        let key = (task.entry().0, self.path.key(self.depth));
        self.map.entry(key).or_default().update(actual);
        self.path.push(task.entry());
    }

    fn predict_update(&mut self, task: &TaskDesc, actual: ExitIndex) -> ExitIndex {
        if self.skip(task) {
            self.update(task, actual);
            return EXIT0;
        }
        let key = (task.entry().0, self.path.key(self.depth));
        let predicted = train(self.map.entry(key).or_default(), &mut self.tie, actual);
        self.path.push(task.entry());
        predicted
    }

    fn states_touched(&self) -> usize {
        self.states()
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

    /// Predecessor-correlated pattern (same as history.rs tests): a random
    /// predecessor (P1 or P2, both taking their own exit 0) determines the
    /// exit of the following task T. Only PATH can identify the
    /// predecessor; exit histories are indistinguishable.
    fn run_correlated<P: ExitPredictor>(p: &mut P) -> usize {
        let t = task(0x08, 2);
        let p1 = task(0x11, 2);
        let p2 = task(0x22, 2);
        let mut rng = XorShift64::new(77);
        let mut misses = 0;
        for i in 0..140 {
            let (pred_task, actual) = if rng.next_below(2) == 0 {
                (&p1, e(0))
            } else {
                (&p2, e(1))
            };
            let _ = p.predict(pred_task);
            p.update(pred_task, e(0));
            let got = p.predict(&t);
            if i >= 40 && got != actual {
                misses += 1;
            }
            p.update(&t, actual);
        }
        misses
    }

    #[test]
    fn ideal_path_separates_predecessors_ideal_global_cannot() {
        let mut path: IdealPath<Leh2> = IdealPath::new(2);
        assert_eq!(run_correlated(&mut path), 0);

        let mut global: IdealGlobal<Leh2> = IdealGlobal::new(2);
        assert!(
            run_correlated(&mut global) >= 25,
            "GLOBAL sees identical exit histories for both predecessors"
        );

        let mut per: IdealPer<Leh2> = IdealPer::new(2);
        // PER sees only T's own (random) exit stream, so it also fails.
        assert!(run_correlated(&mut per) >= 25);
    }

    #[test]
    fn depth_zero_schemes_coincide() {
        // At depth 0 all three ideal schemes are "one automaton per static
        // task" and must produce identical predictions on any stream.
        let mut g: IdealGlobal<Leh2> = IdealGlobal::new(0);
        let mut p: IdealPer<Leh2> = IdealPer::new(0);
        let mut t: IdealPath<Leh2> = IdealPath::with_mode(0, SingleExitMode::Off);
        let mut rng = XorShift64::new(11);
        for _ in 0..500 {
            let entry = 0x40 + (rng.next_below(8) * 0x10);
            let td = task(entry, 3);
            let actual = e(rng.next_below(3) as u8);
            let pg = g.predict(&td);
            let pp = p.predict(&td);
            let pt = t.predict(&td);
            assert_eq!(pg, pp);
            assert_eq!(pp, pt);
            g.update(&td, actual);
            p.update(&td, actual);
            t.update(&td, actual);
        }
    }

    #[test]
    fn ideal_path_state_count_grows_with_distinct_paths() {
        let mut p: IdealPath<Leh2> = IdealPath::new(3);
        let mut rng = XorShift64::new(5);
        for _ in 0..300 {
            let td = task(0x10 * (1 + rng.next_below(16)), 2);
            let _ = p.predict(&td);
            p.update(&td, e(rng.next_below(2) as u8));
        }
        let s = p.states();
        assert!(s > 16, "distinct paths should multiply states: {s}");
        assert_eq!(p.states_touched(), s);
    }

    #[test]
    fn unseen_state_predicts_default() {
        let mut p: IdealPath<Leh2> = IdealPath::new(4);
        let td = task(0xAA0, 2);
        assert_eq!(
            p.predict(&td),
            e(0),
            "cold prediction is the automaton default"
        );
    }

    #[test]
    fn depth_32_keeps_all_32_steps_of_history() {
        // A 4000-event random stream on one two-exit task: depth 0 has one
        // state, and 32 steps of random history make almost every event a
        // new state. The trie sweep must count the same.
        let td = task(0x30, 2);
        let mut rng = XorShift64::new(32);
        let exits: Vec<ExitIndex> = (0..4000).map(|_| e(rng.next_below(2) as u8)).collect();
        let mut global: Vec<IdealGlobal<Leh2>> = [0, 32].map(IdealGlobal::new).into();
        let mut per: Vec<IdealPer<Leh2>> = [0, 32].map(IdealPer::new).into();
        let mut global_sweep = IdealSweep::<Leh2>::global(&[32]);
        let mut per_sweep = IdealSweep::<Leh2>::per(&[32]);
        for &x in &exits {
            for p in &mut global {
                p.predict_update(&td, x);
            }
            for p in &mut per {
                p.predict_update(&td, x);
            }
            global_sweep.step(&td, x);
            per_sweep.step(&td, x);
        }
        assert_eq!((global[0].states(), per[0].states()), (1, 1));
        assert!(global[1].states() > 3900, "{}", global[1].states());
        assert_eq!(global[1].states(), global_sweep.states(32));
        assert!(per[1].states() > 3900, "{}", per[1].states());
        assert_eq!(per[1].states(), per_sweep.states(32));
    }

    #[test]
    fn predict_update_is_predict_then_update() {
        // One probe per event must not change a single prediction or the
        // tie-break stream: VC RANDOM consumes the generator on ties.
        type VcRandom = crate::automata::VotingCounters<2, false>;
        let mut once: IdealPath<VcRandom> = IdealPath::new(2);
        let mut twice: IdealPath<VcRandom> = IdealPath::new(2);
        let mut rng = XorShift64::new(3);
        for _ in 0..2000 {
            let t = 1 + rng.next_below(6);
            let td = task(0x10 * t, 1 + t as usize % 4);
            let actual = e(rng.next_below(td.num_exits() as u32) as u8);
            let predicted = twice.predict(&td);
            twice.update(&td, actual);
            assert_eq!(once.predict_update(&td, actual), predicted);
        }
        assert_eq!(once.states(), twice.states());
    }

    #[test]
    fn single_exit_tasks_skip_state_creation() {
        let mut p: IdealPath<Leh2> = IdealPath::new(2);
        let td = task(0x50, 1);
        for _ in 0..5 {
            let _ = p.predict(&td);
            p.update(&td, e(0));
        }
        assert_eq!(p.states(), 0);
    }
}
