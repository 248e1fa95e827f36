//! The ideal depth sweeps: one interned history trie, walked once per
//! event for every depth of the sweep.
//!
//! Level 0 of the trie holds one node per static task. The level-k node
//! under a level-(k−1) node is reached on the k-th most recent history
//! symbol:
//!
//! * GLOBAL — the k-th most recent global exit, exit 0 before the trace
//!   has k steps (a zero-filled register);
//! * PER — the task's own k-th most recent exit;
//! * PATH and CTTB — the k-th most recent task, or `END` while the path
//!   is shorter than k (what a `PathKey`'s length encodes).
//!
//! A level-d node therefore stands for exactly one key of the depth-d map
//! model, and the depth-d automaton (or target entry) lives densely in it:
//! the number of level-d nodes is the depth-d states count. Exit symbols
//! are 2-bit, so their children are a dense `[u32; 4]` row; task symbols
//! go through one hash map keyed by (parent, symbol).

use super::train;
use crate::automata::Automaton;
use crate::dolc::MAX_PATH_KEY_DEPTH;
use crate::fxhash::FxHashMap;
use crate::predictor::{TaskDesc, EXIT0};
use crate::rng::XorShift64;
use crate::target::TargetEntry;
use multiscalar_isa::{Addr, ExitIndex};

/// An absent node, child or task symbol.
const NONE: u32 = u32::MAX;

/// The path symbol of a step older than the path so far. Task symbols are
/// dense interned ids, so it never names a task.
const END: u32 = u32::MAX;

/// Deepest GLOBAL or PER sweep: the history register packs 2 bits a step.
const MAX_EXIT_DEPTH: usize = 32;

/// The nodes of one interned history trie, with payload `T` per node.
#[derive(Debug, Clone)]
struct HistoryTrie<T> {
    /// Per-node payload: the automaton or target entry of that state.
    payload: Vec<T>,
    /// Nodes created per level: the states count of each depth.
    level_nodes: Vec<usize>,
    /// Dense task symbol per entry address, `NONE` until first seen.
    symbols: Vec<u32>,
    /// Root node per task symbol, `NONE` until the task is first walked.
    roots: Vec<u32>,
    /// Children on 2-bit exit symbols, one row per node (exit tries only).
    exit_kids: Vec<[u32; 4]>,
    /// Children on task symbols, keyed `parent | symbol << 32`. The parent
    /// sits in the low word because the bucket comes from FxHash's low
    /// output bits, which depend only on the key's low bits, and parents
    /// vary far more than symbols.
    path_kids: FxHashMap<u64, u32>,
    exit_symbols: bool,
}

impl<T: Default> HistoryTrie<T> {
    fn new(levels: usize, exit_symbols: bool) -> HistoryTrie<T> {
        HistoryTrie {
            payload: Vec::new(),
            level_nodes: vec![0; levels],
            symbols: Vec::new(),
            roots: Vec::new(),
            exit_kids: Vec::new(),
            path_kids: FxHashMap::default(),
            exit_symbols,
        }
    }

    /// The dense symbol of the task at `entry`, interned on first sight.
    /// Entry addresses are small program offsets, so the table is direct.
    fn symbol(&mut self, entry: Addr) -> u32 {
        let i = entry.0 as usize;
        if i >= self.symbols.len() {
            self.symbols.resize(i + 1, NONE);
        }
        if self.symbols[i] == NONE {
            self.symbols[i] = self.roots.len() as u32;
            self.roots.push(NONE);
        }
        self.symbols[i]
    }

    fn node(&mut self, level: usize) -> u32 {
        let id = self.payload.len();
        assert!(id < NONE as usize, "history trie is out of node ids");
        self.payload.push(T::default());
        if self.exit_symbols {
            self.exit_kids.push([NONE; 4]);
        }
        self.level_nodes[level] += 1;
        id as u32
    }

    fn root(&mut self, symbol: u32) -> u32 {
        let root = self.roots[symbol as usize];
        if root != NONE {
            return root;
        }
        let root = self.node(0);
        self.roots[symbol as usize] = root;
        root
    }

    fn exit_child(&mut self, parent: u32, exit: u64, level: usize) -> u32 {
        let kid = self.exit_kids[parent as usize][exit as usize];
        if kid != NONE {
            return kid;
        }
        let kid = self.node(level);
        self.exit_kids[parent as usize][exit as usize] = kid;
        kid
    }

    fn path_child(&mut self, parent: u32, symbol: u32, level: usize) -> u32 {
        // One probe: claim the next node id, and create it if claimed.
        let next = self.payload.len() as u32;
        let key = u64::from(parent) | u64::from(symbol) << 32;
        let kid = *self.path_kids.entry(key).or_insert(next);
        if kid == next {
            self.node(level);
        }
        kid
    }

    /// Walks from `symbol`'s root down every level on the exit symbols of
    /// `reg`, 2 bits a level, newest lowest, calling `visit(level, payload)`
    /// on each node.
    fn exit_walk(&mut self, symbol: u32, mut reg: u64, mut visit: impl FnMut(usize, &mut T)) {
        let mut node = self.root(symbol);
        visit(0, &mut self.payload[node as usize]);
        for level in 1..self.level_nodes.len() {
            node = self.exit_child(node, reg & 3, level);
            reg >>= 2;
            visit(level, &mut self.payload[node as usize]);
        }
    }

    /// [`exit_walk`](Self::exit_walk) on the task symbols of a newest-first
    /// path `window`.
    fn path_walk(&mut self, symbol: u32, window: &[u32], mut visit: impl FnMut(usize, &mut T)) {
        let mut node = self.root(symbol);
        visit(0, &mut self.payload[node as usize]);
        for level in 1..self.level_nodes.len() {
            node = self.path_child(node, window[level - 1], level);
            visit(level, &mut self.payload[node as usize]);
        }
    }

    /// The states count of `depth`: its level's nodes (0 beyond the
    /// deepest level walked).
    fn states(&self, depth: usize) -> usize {
        self.level_nodes.get(depth).copied().unwrap_or(0)
    }
}

/// Bit `d` set for every depth `d` in `depths`.
///
/// # Panics
///
/// Panics if a depth exceeds `max`.
fn depth_mask(depths: impl Iterator<Item = usize>, max: usize, scheme: &str) -> u64 {
    depths.fold(0, |mask, d| {
        assert!(d <= max, "ideal {scheme} depth {d} too deep");
        mask | 1 << d
    })
}

/// Levels a walk visits: down to the deepest swept depth, at least the root.
fn levels(wanted: u64) -> usize {
    (64 - wanted.leading_zeros() as usize).max(1)
}

/// Shifts the newest task symbol into a newest-first path window.
fn push_path(window: &mut [u32; MAX_PATH_KEY_DEPTH], symbol: u32) {
    window.copy_within(..MAX_PATH_KEY_DEPTH - 1, 1);
    window[0] = symbol;
}

/// Where an exit sweep's history symbols come from.
#[derive(Debug, Clone)]
enum ExitHistory {
    /// GLOBAL: the most recent exits, 2 bits a step, newest lowest.
    Global(u64),
    /// PER: one such register per task symbol.
    Per(Vec<u64>),
    /// PATH: the most recent task symbols, newest first, `END`-filled.
    Path([u32; MAX_PATH_KEY_DEPTH]),
}

/// An ideal GLOBAL, PER or PATH depth sweep on one history trie.
///
/// Depth for depth, it is bit-identical to one [`super::IdealGlobal`],
/// [`super::IdealPer`] or [`super::IdealPath`] per depth, miss stats and
/// states both: each depth trains its own automata with its own tie-break
/// generator. PATH follows `IdealPath`'s single-exit rule: a single-exit
/// task predicts exit 0 and creates no state, but still joins the path.
///
/// Depths may come in any order and may repeat. The walk costs one trie
/// step per level down to the deepest depth, so a single shallow depth is
/// cheaper on the map model.
#[derive(Debug, Clone)]
pub struct IdealSweep<A: Automaton> {
    history: ExitHistory,
    trie: HistoryTrie<A>,
    /// One tie-break generator per level, as each map model owns one.
    ties: Vec<XorShift64>,
    /// Bit `d` set when depth `d` is swept.
    wanted: u64,
    depths: Vec<u32>,
}

impl<A: Automaton> IdealSweep<A> {
    /// An ideal GLOBAL sweep over `depths`.
    ///
    /// # Panics
    ///
    /// Panics if a depth exceeds 32 (history is packed 2 bits per step).
    pub fn global(depths: &[u32]) -> IdealSweep<A> {
        Self::new(ExitHistory::Global(0), depths, MAX_EXIT_DEPTH, "GLOBAL")
    }

    /// An ideal PER sweep over `depths`.
    ///
    /// # Panics
    ///
    /// Panics if a depth exceeds 32.
    pub fn per(depths: &[u32]) -> IdealSweep<A> {
        Self::new(ExitHistory::Per(Vec::new()), depths, MAX_EXIT_DEPTH, "PER")
    }

    /// An ideal PATH sweep over `depths`, with the paper's single-exit
    /// optimisation.
    ///
    /// # Panics
    ///
    /// Panics if a depth exceeds [`MAX_PATH_KEY_DEPTH`].
    pub fn path(depths: &[u32]) -> IdealSweep<A> {
        let window = ExitHistory::Path([END; MAX_PATH_KEY_DEPTH]);
        Self::new(window, depths, MAX_PATH_KEY_DEPTH, "PATH")
    }

    fn new(history: ExitHistory, depths: &[u32], max: usize, scheme: &str) -> IdealSweep<A> {
        let wanted = depth_mask(depths.iter().map(|&d| d as usize), max, scheme);
        let exit_symbols = !matches!(history, ExitHistory::Path(_));
        IdealSweep {
            history,
            trie: HistoryTrie::new(levels(wanted), exit_symbols),
            ties: vec![XorShift64::default(); levels(wanted)],
            wanted,
            depths: depths.to_vec(),
        }
    }

    /// The swept depths, in the caller's order.
    pub fn depths(&self) -> &[u32] {
        &self.depths
    }

    /// Distinct (task, history) states trained so far at a swept `depth`.
    pub fn states(&self, depth: u32) -> usize {
        self.trie.states(depth as usize)
    }

    /// Predicts and trains every swept depth on one event, then advances
    /// the history. Bit `d` of the result is set when depth `d`
    /// mispredicted.
    pub fn step(&mut self, task: &TaskDesc, actual: ExitIndex) -> u64 {
        let symbol = self.trie.symbol(task.entry());
        let exit = u64::from(actual.as_u8());
        let IdealSweep {
            history,
            trie,
            ties,
            wanted,
            ..
        } = self;
        let mut miss = 0;
        let mut visit = |level: usize, a: &mut A| {
            if *wanted >> level & 1 == 1 {
                miss |= u64::from(train(a, &mut ties[level], actual) != actual) << level;
            }
        };
        match history {
            ExitHistory::Global(reg) => {
                trie.exit_walk(symbol, *reg, &mut visit);
                *reg = *reg << 2 | exit;
            }
            ExitHistory::Per(regs) => {
                let s = symbol as usize;
                if s >= regs.len() {
                    regs.resize(s + 1, 0);
                }
                trie.exit_walk(symbol, regs[s], &mut visit);
                regs[s] = regs[s] << 2 | exit;
            }
            ExitHistory::Path(window) => {
                if !task.single_exit() {
                    trie.path_walk(symbol, window, &mut visit);
                } else if actual != EXIT0 {
                    miss = *wanted;
                }
                push_path(window, symbol);
            }
        }
        miss
    }
}

/// An ideal CTTB depth sweep on one history trie: depth for depth,
/// bit-identical to one [`crate::target::IdealCttb`] per depth, miss stats
/// and states both. Depths may come in any order and may repeat.
#[derive(Debug, Clone)]
pub struct IdealCttbSweep {
    trie: HistoryTrie<TargetEntry>,
    /// The most recent task symbols, newest first, `END`-filled.
    window: [u32; MAX_PATH_KEY_DEPTH],
    /// Bit `d` set when depth `d` is swept.
    wanted: u64,
    depths: Vec<usize>,
}

impl IdealCttbSweep {
    /// An ideal CTTB sweep over path `depths`.
    ///
    /// # Panics
    ///
    /// Panics if a depth exceeds [`MAX_PATH_KEY_DEPTH`].
    pub fn new(depths: &[usize]) -> IdealCttbSweep {
        let wanted = depth_mask(depths.iter().copied(), MAX_PATH_KEY_DEPTH, "CTTB");
        IdealCttbSweep {
            trie: HistoryTrie::new(levels(wanted), false),
            window: [END; MAX_PATH_KEY_DEPTH],
            wanted,
            depths: depths.to_vec(),
        }
    }

    /// The swept depths, in the caller's order.
    pub fn depths(&self) -> &[usize] {
        &self.depths
    }

    /// Distinct (task, path) states trained so far at a swept `depth`.
    pub fn states(&self, depth: usize) -> usize {
        self.trie.states(depth)
    }

    /// One event of the task at `current`. When it left through an
    /// indirect exit, `target` is the address it reached: every swept depth
    /// predicts it, then trains on it, and bit `d` of the result is set
    /// when depth `d` mispredicted. Every event then joins the path.
    pub fn step(&mut self, current: Addr, target: Option<Addr>) -> u64 {
        let symbol = self.trie.symbol(current);
        let mut miss = 0;
        if let Some(actual) = target {
            let wanted = self.wanted;
            self.trie.path_walk(symbol, &self.window, |level, entry| {
                if wanted >> level & 1 == 1 {
                    miss |= u64::from(entry.predict() != Some(actual)) << level;
                    entry.train(actual);
                }
            });
        }
        push_path(&mut self.window, symbol);
        miss
    }
}

#[cfg(test)]
mod tests {
    use super::super::{IdealGlobal, IdealPath, IdealPer};
    use super::*;
    use crate::automata::{LastExit, LastExitHysteresis, VotingCounters};
    use crate::dolc::PathRegister;
    use crate::predictor::{ExitInfo, ExitPredictor};
    use crate::target::IdealCttb;
    use multiscalar_isa::ExitKind;

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

    /// A seeded synthetic task stream: 12 static tasks of 1..=4 exits (so
    /// some are single-exit), each event's exit drawn from a skewed mix of
    /// the task's own last exit and noise, so automata both hit and miss.
    fn stream(seed: u64, len: usize) -> (Vec<TaskDesc>, Vec<(usize, ExitIndex)>) {
        let descs: Vec<TaskDesc> = (0..12u32)
            .map(|i| task(0x10 + 0x20 * i, 1 + (i as usize * 7 + 1) % 4))
            .collect();
        let mut rng = XorShift64::new(seed);
        let mut last = vec![0u8; descs.len()];
        let events = (0..len)
            .map(|_| {
                let t = rng.next_below(descs.len() as u32) as usize;
                let n = descs[t].num_exits() as u32;
                if rng.next_below(4) != 0 {
                    last[t] = rng.next_below(n) as u8;
                }
                (t, ExitIndex::new(last[t]).unwrap())
            })
            .collect();
        (descs, events)
    }

    /// Unordered, repeated, and including both edges of the PATH range.
    const DEPTHS: [u32; 7] = [3, 0, 8, 1, 3, 5, 2];

    /// Runs a trie sweep and one map model per depth over the same stream
    /// and asserts equal miss counts and states at every depth.
    fn assert_sweep_matches<A: Automaton, P: ExitPredictor>(
        mut sweep: IdealSweep<A>,
        oracle: impl Fn(u32) -> P,
        seed: u64,
    ) {
        let (descs, events) = stream(seed, 4000);
        let depths = sweep.depths().to_vec();
        let mut misses = vec![0u64; depths.len()];
        let mut oracles: Vec<P> = depths.iter().map(|&d| oracle(d)).collect();
        let mut oracle_misses = vec![0u64; depths.len()];
        for &(t, actual) in &events {
            let miss = sweep.step(&descs[t], actual);
            for (i, p) in oracles.iter_mut().enumerate() {
                misses[i] += miss >> depths[i] & 1;
                oracle_misses[i] += u64::from(p.predict_update(&descs[t], actual) != actual);
            }
        }
        assert_eq!(misses, oracle_misses, "miss counts per depth {depths:?}");
        let states: Vec<usize> = depths.iter().map(|&d| sweep.states(d)).collect();
        let oracle_states: Vec<usize> = oracles.iter().map(|p| p.states_touched()).collect();
        assert_eq!(states, oracle_states, "states per depth {depths:?}");
        assert!(misses.iter().any(|&m| m > 0), "the stream must miss");
    }

    fn all_schemes<A: Automaton>(seed: u64) {
        assert_sweep_matches(
            IdealSweep::<A>::global(&DEPTHS),
            IdealGlobal::<A>::new,
            seed,
        );
        assert_sweep_matches(IdealSweep::<A>::per(&DEPTHS), IdealPer::<A>::new, seed);
        assert_sweep_matches(IdealSweep::<A>::path(&DEPTHS), IdealPath::<A>::new, seed);
    }

    #[test]
    fn exit_sweeps_match_the_map_models_for_every_automaton() {
        for seed in [1, 0xC0FFEE] {
            all_schemes::<VotingCounters<2, true>>(seed);
            all_schemes::<VotingCounters<2, false>>(seed);
            all_schemes::<LastExitHysteresis<1>>(seed);
            all_schemes::<VotingCounters<3, true>>(seed);
            all_schemes::<VotingCounters<3, false>>(seed);
            all_schemes::<LastExitHysteresis<2>>(seed);
            all_schemes::<LastExit>(seed);
        }
    }

    #[test]
    fn exit_sweeps_reach_depth_32() {
        type Leh2 = LastExitHysteresis<2>;
        let depths = [32, 31, 0];
        assert_sweep_matches(
            IdealSweep::<Leh2>::global(&depths),
            IdealGlobal::<Leh2>::new,
            7,
        );
        assert_sweep_matches(IdealSweep::<Leh2>::per(&depths), IdealPer::<Leh2>::new, 7);
    }

    #[test]
    fn single_exit_tasks_make_no_path_state() {
        let mut sweep = IdealSweep::<LastExitHysteresis<2>>::path(&[0, 2]);
        let single = task(0x50, 1);
        for _ in 0..5 {
            assert_eq!(sweep.step(&single, EXIT0), 0);
        }
        assert_eq!((sweep.states(0), sweep.states(2)), (0, 0));
        // The skipped task still joined the path: a two-exit task after
        // it sees a full depth-2 path, the same state as after two more.
        let two = task(0x60, 2);
        sweep.step(&two, EXIT0);
        sweep.step(&single, EXIT0);
        sweep.step(&single, EXIT0);
        sweep.step(&two, EXIT0);
        assert_eq!((sweep.states(0), sweep.states(2)), (1, 1));
    }

    #[test]
    fn warm_up_paths_are_states_of_their_own() {
        // One task three times: at depth 2 the paths are [], [A] and
        // [A, A], three states. Filling the missing steps with a real
        // task's symbol would fold all three into one.
        let a = task(0x40, 2);
        let mut exits = IdealSweep::<LastExitHysteresis<2>>::path(&[0, 1, 2]);
        let mut oracle = IdealPath::<LastExitHysteresis<2>>::new(2);
        let mut targets = IdealCttbSweep::new(&[0, 1, 2]);
        for _ in 0..3 {
            exits.step(&a, EXIT0);
            oracle.predict_update(&a, EXIT0);
            targets.step(a.entry(), Some(Addr(0x99)));
        }
        assert_eq!([0, 1, 2].map(|d| exits.states(d)), [1, 2, 3]);
        assert_eq!(exits.states(2), oracle.states());
        assert_eq!([0, 1, 2].map(|d| targets.states(d)), [1, 2, 3]);
    }

    #[test]
    fn cttb_sweep_matches_the_map_model_on_indirect_events() {
        let depths = [4, 0, 8, 1, 4, 2];
        let (descs, events) = stream(3, 4000);
        let mut sweep = IdealCttbSweep::new(&depths);
        let mut oracles: Vec<(IdealCttb, PathRegister)> = depths
            .iter()
            .map(|&d| (IdealCttb::new(d), PathRegister::new(d)))
            .collect();
        let mut misses = vec![0u64; depths.len()];
        let mut oracle_misses = vec![0u64; depths.len()];
        let mut rng = XorShift64::new(9);
        for &(t, actual) in &events {
            let current = descs[t].entry();
            // About a third of the events are indirect, reaching one of a
            // few targets that depend on the exit taken.
            let target = (rng.next_below(3) == 0)
                .then(|| Addr(0x900 + 4 * u32::from(actual.as_u8()) + rng.next_below(2)));
            let miss = sweep.step(current, target);
            for (i, (buf, path)) in oracles.iter_mut().enumerate() {
                misses[i] += miss >> depths[i] & 1;
                if let Some(actual) = target {
                    oracle_misses[i] += u64::from(buf.predict(path, current) != Some(actual));
                    buf.update(path, current, actual);
                } else {
                    assert_eq!(miss, 0, "no prediction without an indirect exit");
                }
                path.push(current);
            }
        }
        assert_eq!(misses, oracle_misses);
        let states: Vec<usize> = depths.iter().map(|&d| sweep.states(d)).collect();
        let oracle_states: Vec<usize> = oracles.iter().map(|(b, _)| b.states()).collect();
        assert_eq!(states, oracle_states);
        assert!(states[2] > states[1], "deeper paths split states");
    }

    #[test]
    #[should_panic(expected = "ideal PATH depth 9 too deep")]
    fn path_sweeps_stop_at_the_key_depth() {
        let _ = IdealSweep::<LastExit>::path(&[2, 9]);
    }
}
