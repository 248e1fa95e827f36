//! Lane-packed (SWAR) automata: many predictors per machine word.
//!
//! The paper's LEH automata are tiny by design — a 2-bit exit plus 1–2
//! bits of hysteresis — so a single `u64` holds 16 independent automaton
//! instances. This module exploits that for the harness's real-PATH
//! sweeps (the fig10/fig11 grids train many PATH configurations over one
//! trace walk): [`LanePacked`] stores a
//! struct-of-arrays pattern history table whose entry `j` packs lane `k` =
//! *predictor `k`'s* automaton for index `j`, and [`BatchedExitPredictor`]
//! answers "predict + update" for every lane of a sweep point in one call.
//!
//! Three properties make the packing free of per-lane branching:
//!
//! * **update is branchless lane arithmetic** — equality of each lane's
//!   stored exit with the broadcast actual exit is detected with XOR and a
//!   shift-OR fold to each lane's low bit, then increment/decrement/replace
//!   masks are expanded over the affected fields by multiplication, and one
//!   masked add/subtract trains every lane at once;
//! * **gather/scatter needs no shifts** — predictor `k` always lives in
//!   lane `k`, so reading its table entry is a masked load and writing it
//!   back is a masked read-modify-write, even when the lanes index
//!   different table entries;
//! * **the path register is shared** — every predictor in a fused sweep
//!   observes the same task stream, so one [`PathRegister`] sized to the
//!   deepest configuration serves every lane: [`Dolc::index`] reads only
//!   the first `D` addresses of it, exactly what a register of each lane's
//!   own depth would hold.
//!
//! # Bit-identity contract
//!
//! For every implementing family, the packed trajectory is **bit-identical**
//! to the scalar [`Automaton`]: `lanes_update` commutes with
//! `encode`/`decode`, and `lanes_predict` returns exactly what the scalar
//! `predict` would. The equivalence is enforced by exhaustive and seeded
//! randomized tests in this module.
//!
//! Only [`LastExitHysteresis`] is packed. After Figure 6 the paper uses
//! LEH-2bit for every real predictor, and Figure 6 itself compares the
//! automata on *ideal* predictors, so no workload sweeps a real predictor
//! over another family. That is also why `VC RANDOM`, whose tie-break
//! consumes a per-predictor RNG stream, needs no packed form.

use crate::automata::{Automaton, LastExitHysteresis};
use crate::dolc::{Dolc, PathRegister};
use crate::predictor::TaskDesc;
use multiscalar_isa::ExitIndex;
use std::marker::PhantomData;

/// Widest fan-out a batched sweep supports: one word of four-bit LEH lanes.
pub const MAX_FUSED_LANES: usize = <LastExitHysteresis<2> as LaneAutomaton>::LANES;

/// A word with bit 0 of every `lane_bits`-wide lane set.
const fn lane_lsb(lane_bits: u32) -> u64 {
    let mut w = 0u64;
    let mut i = 0;
    while i < 64 / lane_bits {
        w |= 1 << (i * lane_bits);
        i += 1;
    }
    w
}

/// An [`Automaton`] family that can be packed many-per-word and trained
/// with branchless lane arithmetic.
///
/// Lane `k` occupies bits `k*LANE_BITS .. (k+1)*LANE_BITS` of a `u64`;
/// `encode`/`decode` define the per-lane state image (all-zero must be the
/// default state), and the two `lanes_*` operations act on **all** lanes of
/// a word simultaneously, bit-identically to the scalar automaton.
pub trait LaneAutomaton: Automaton {
    /// Width of one lane in bits (a divisor of 64).
    const LANE_BITS: u32;

    /// Lanes per word.
    const LANES: usize = (64 / Self::LANE_BITS) as usize;

    /// Bit 0 of every lane.
    const LANE_LSB: u64 = lane_lsb(Self::LANE_BITS);

    /// Mask of lane 0.
    const LANE_MASK: u64 = (1u64 << Self::LANE_BITS) - 1;

    /// The exit each lane currently predicts, returned in the low 2 bits of
    /// the corresponding lane (all other bits zero). Must equal what the
    /// scalar [`Automaton::predict`] of each decoded lane returns.
    fn lanes_predict(word: u64) -> u64;

    /// Trains every lane with the actual exit taken, exactly as
    /// [`Automaton::update`] would train each decoded lane.
    fn lanes_update(word: u64, actual: u8) -> u64;

    /// This automaton's state as a lane image (`< 2^LANE_BITS`); the
    /// default state must encode to 0.
    fn encode(&self) -> u64;

    /// Inverse of [`encode`](Self::encode).
    fn decode(lane: u64) -> Self;
}

impl<const BITS: u8> LaneAutomaton for LastExitHysteresis<BITS> {
    // 2 exit bits + up to 2 confidence bits; bit 3 stays zero for BITS=1.
    const LANE_BITS: u32 = {
        assert!(BITS >= 1 && BITS <= 2, "LEH lanes support 1 or 2 bits");
        4
    };

    fn lanes_predict(word: u64) -> u64 {
        word & (Self::LANE_LSB * 0b11)
    }

    fn lanes_update(word: u64, actual: u8) -> u64 {
        let lsb = Self::LANE_LSB;
        let exit_mask = lsb * 0b11;
        let bcast = lsb * actual as u64;
        // Fold "stored exit != actual" down to each lane's low bit.
        let x = (word ^ bcast) & exit_mask;
        let neq = (x | (x >> 1)) & lsb;
        let eq = neq ^ lsb;
        // Confidence saturation/emptiness flags, also at each lane's low bit.
        let c0 = (word >> 2) & lsb;
        let (sat, zero) = if BITS == 1 {
            (c0, c0 ^ lsb)
        } else {
            let c1 = (word >> 3) & lsb;
            (c0 & c1, (c0 | c1) ^ lsb)
        };
        // Correct => gain confidence; wrong => drain it, or replace the
        // exit once it is gone (the scalar three-way branch, as masks).
        let inc = eq & (sat ^ lsb);
        let dec = neq & (zero ^ lsb);
        let repl = neq & zero;
        let trained = word + (inc << 2) - (dec << 2);
        let repl_mask = repl * 0b11;
        (trained & !repl_mask) | (bcast & repl_mask)
    }

    fn encode(&self) -> u64 {
        self.exit().as_u8() as u64 | (self.confidence() as u64) << 2
    }

    fn decode(lane: u64) -> Self {
        LastExitHysteresis::from_parts(
            ExitIndex::new((lane & 0b11) as u8).expect("2-bit exit"),
            ((lane >> 2) & 0b11) as u8,
        )
    }
}

/// A struct-of-arrays pattern history table: entry `j` is one `u64` whose
/// lane `k` holds *predictor `k`'s* automaton state for index `j`.
///
/// Because a predictor owns a fixed lane across all entries, gathering the
/// (generally different) entries the predictors index is a shift-free OR of
/// masked loads, and scattering the trained word back is a masked
/// read-modify-write per lane.
#[derive(Debug, Clone)]
pub struct LanePacked<A: LaneAutomaton> {
    words: Vec<u64>,
    _family: PhantomData<A>,
}

impl<A: LaneAutomaton> LanePacked<A> {
    /// A table of `entries` all-default automata in every lane.
    pub fn new(entries: usize) -> LanePacked<A> {
        debug_assert_eq!(A::default().encode(), 0, "default state must be 0");
        LanePacked {
            words: vec![0; entries],
            _family: PhantomData,
        }
    }

    /// Number of table entries (per lane).
    pub fn entries(&self) -> usize {
        self.words.len()
    }

    /// Collects lane `k` of entry `idxs[k]` for each `k` into one word.
    #[inline]
    pub fn gather(&self, idxs: &[usize]) -> u64 {
        debug_assert!(idxs.len() <= A::LANES);
        let mut word = 0u64;
        let mut mask = A::LANE_MASK;
        for &idx in idxs {
            word |= self.words[idx] & mask;
            mask <<= A::LANE_BITS;
        }
        word
    }

    /// Writes lane `k` of `word` back into entry `idxs[k]` for each `k`.
    #[inline]
    pub fn scatter(&mut self, idxs: &[usize], word: u64) {
        debug_assert!(idxs.len() <= A::LANES);
        let mut mask = A::LANE_MASK;
        for &idx in idxs {
            let w = &mut self.words[idx];
            *w = (*w & !mask) | (word & mask);
            mask <<= A::LANE_BITS;
        }
    }

    /// Decodes lane `lane` of entry `entry` (inspection/tests).
    pub fn lane(&self, lane: usize, entry: usize) -> A {
        A::decode((self.words[entry] >> (lane as u32 * A::LANE_BITS)) & A::LANE_MASK)
    }
}

/// A batch of path-based exit predictors trained over one shared trace
/// walk: lane `k` replays exactly what a scalar
/// [`PathPredictor<A>`](crate::history::PathPredictor) configured with
/// `configs[k]` would do — same [`Dolc`] indexing, same
/// [`SkipPht`](crate::history::SingleExitMode::SkipPht) single-exit
/// handling, same per-lane `states_touched` accounting — but one
/// [`step`](Self::step) call answers predict + update for every lane.
#[derive(Debug, Clone)]
pub struct BatchedExitPredictor<A: LaneAutomaton> {
    dolcs: Vec<Dolc>,
    pht: LanePacked<A>,
    /// One path register for every lane, as deep as the deepest one.
    path: PathRegister,
    /// One touched-entry bitmap of `words_per_lane` words per lane.
    touched: Vec<u64>,
    touched_counts: Vec<usize>,
    words_per_lane: usize,
}

impl<A: LaneAutomaton> BatchedExitPredictor<A> {
    /// Builds a batch over `configs`, one lane per configuration, or `None`
    /// when the batch shape does not fit: no configurations, or more than
    /// [`LaneAutomaton::LANES`] of them. Configurations may differ in depth
    /// and index width; the table and path register are sized to the
    /// largest.
    pub fn new(configs: &[Dolc]) -> Option<BatchedExitPredictor<A>> {
        if configs.is_empty() || configs.len() > A::LANES {
            return None;
        }
        let entries = configs.iter().map(|d| d.table_entries()).max()?;
        let max_depth = configs.iter().map(|d| d.depth()).max()?;
        let words_per_lane = entries.div_ceil(64);
        Some(BatchedExitPredictor {
            dolcs: configs.to_vec(),
            pht: LanePacked::new(entries),
            path: PathRegister::new(max_depth),
            touched: vec![0; configs.len() * words_per_lane],
            touched_counts: vec![0; configs.len()],
            words_per_lane,
        })
    }

    /// Number of active lanes (= configurations).
    pub fn lanes(&self) -> usize {
        self.dolcs.len()
    }

    /// Distinct PHT entries lane `lane` has updated — matches the scalar
    /// predictor's `states_touched()`.
    pub fn states_touched(&self, lane: usize) -> usize {
        self.touched_counts[lane]
    }

    /// The exits the lanes would predict for `task` right now, in the low
    /// 2 bits of each lane, without training. Single-exit tasks predict
    /// exit 0 in every lane (the `SkipPht` fast path).
    pub fn predict_word(&self, task: &TaskDesc) -> u64 {
        if task.single_exit() {
            return 0;
        }
        let mut idxs = [0usize; MAX_FUSED_LANES];
        for (k, d) in self.dolcs.iter().enumerate() {
            idxs[k] = d.index(&self.path, task.entry());
        }
        A::lanes_predict(self.pht.gather(&idxs[..self.dolcs.len()]))
    }

    /// Predict + update for every lane in one call: returns a mask with bit
    /// `k` set when lane `k` mispredicted `actual`, and trains every lane —
    /// bit-identically to running each scalar predictor's `predict` then
    /// `update` for this task event.
    pub fn step(&mut self, task: &TaskDesc, actual: ExitIndex) -> u32 {
        let entry = task.entry();
        if task.single_exit() {
            // SkipPht: predict exit 0 without consulting the table, train
            // nothing, keep the path moving.
            self.path.push(entry);
            return if actual.index() == 0 {
                0
            } else {
                self.all_lanes_mask()
            };
        }
        let n = self.dolcs.len();
        let mut idxs = [0usize; MAX_FUSED_LANES];
        for (k, d) in self.dolcs.iter().enumerate() {
            idxs[k] = d.index(&self.path, entry);
        }
        let word = self.pht.gather(&idxs[..n]);
        let miss = Self::miss_mask(A::lanes_predict(word), actual.as_u8(), n);
        self.pht
            .scatter(&idxs[..n], A::lanes_update(word, actual.as_u8()));
        for (k, &idx) in idxs[..n].iter().enumerate() {
            let slot = &mut self.touched[k * self.words_per_lane + idx / 64];
            let bit = 1u64 << (idx % 64);
            if *slot & bit == 0 {
                *slot |= bit;
                self.touched_counts[k] += 1;
            }
        }
        self.path.push(entry);
        miss
    }

    /// Bit `k` set for every active lane.
    fn all_lanes_mask(&self) -> u32 {
        (1 << self.dolcs.len()) - 1
    }

    /// Compresses per-lane "predicted != actual" (exit bits at each lane's
    /// bottom) into a dense per-lane bit mask.
    fn miss_mask(preds: u64, actual: u8, n: usize) -> u32 {
        let lsb = A::LANE_LSB;
        let x = (preds ^ (lsb * actual as u64)) & (lsb * 0b11);
        let neq = (x | (x >> 1)) & lsb;
        let mut miss = 0u32;
        for k in 0..n {
            miss |= (((neq >> (k as u32 * A::LANE_BITS)) & 1) as u32) << k;
        }
        miss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::PathPredictor;
    use crate::predictor::{ExitInfo, ExitPredictor};
    use crate::rng::XorShift64;
    use multiscalar_isa::{Addr, ExitKind};
    use std::fmt::Debug;

    fn e(i: u8) -> ExitIndex {
        ExitIndex::new(i).unwrap()
    }

    /// Drives lane `lane` of a packed word and a scalar automaton through
    /// the same exit sequence, asserting predict + state + decode agree at
    /// every step.
    fn assert_lane_matches_scalar<A: LaneAutomaton + PartialEq + Debug>(
        seq: &[u8],
        lanes: &[usize],
    ) {
        for &lane in lanes {
            let shift = lane as u32 * A::LANE_BITS;
            let mut word = 0u64;
            let mut scalar = A::default();
            let mut tie = XorShift64::default();
            for &x in seq {
                let pred = (A::lanes_predict(word) >> shift) & 0b11;
                assert_eq!(
                    pred as u8,
                    scalar.predict(&mut tie).as_u8(),
                    "{} predict, lane {lane}, seq {seq:?}",
                    A::NAME
                );
                word = A::lanes_update(word, x);
                scalar.update(e(x));
                let got = (word >> shift) & A::LANE_MASK;
                assert_eq!(
                    got,
                    scalar.encode(),
                    "{} state, lane {lane}, seq {seq:?}",
                    A::NAME
                );
                assert_eq!(A::decode(got), scalar, "{} decode, lane {lane}", A::NAME);
            }
        }
    }

    /// Every exit sequence up to length 5, every lane position (the top
    /// lane exercises the saturation/carry edge of the word).
    fn exhaustive_short_sequences<A: LaneAutomaton + PartialEq + Debug>() {
        let lanes: Vec<usize> = (0..A::LANES).collect();
        for len in 1..=5u32 {
            for code in 0..(1u32 << (2 * len)) {
                let seq: Vec<u8> = (0..len).map(|i| ((code >> (2 * i)) & 3) as u8).collect();
                assert_lane_matches_scalar::<A>(&seq, &lanes);
            }
        }
    }

    #[test]
    fn exhaustive_short_sequences_match_scalar() {
        exhaustive_short_sequences::<LastExitHysteresis<1>>();
        exhaustive_short_sequences::<LastExitHysteresis<2>>();
    }

    fn long_seeded_sequence<A: LaneAutomaton + PartialEq + Debug>(seed: u64) {
        let mut rng = XorShift64::new(seed);
        let seq: Vec<u8> = (0..20_000).map(|_| (rng.next_u64() & 3) as u8).collect();
        let lanes = [0, A::LANES / 2, A::LANES - 1];
        assert_lane_matches_scalar::<A>(&seq, &lanes);
    }

    #[test]
    fn long_seeded_sequences_match_scalar() {
        long_seeded_sequence::<LastExitHysteresis<1>>(0xB0B);
        long_seeded_sequence::<LastExitHysteresis<2>>(0xC0DE);
    }

    /// Lanes holding *different* states must train independently: no carry,
    /// borrow, or mask may leak across a lane boundary.
    fn lanes_are_isolated<A: LaneAutomaton + PartialEq + Debug>(seed: u64) {
        let mut rng = XorShift64::new(seed);
        let mut scalars: Vec<A> = (0..A::LANES)
            .map(|k| {
                let mut a = A::default();
                for _ in 0..(3 * k) {
                    a.update(e((rng.next_u64() & 3) as u8));
                }
                a
            })
            .collect();
        let mut word = 0u64;
        for (k, s) in scalars.iter().enumerate() {
            word |= s.encode() << (k as u32 * A::LANE_BITS);
        }
        let mut tie = XorShift64::default();
        for _ in 0..5_000 {
            let preds = A::lanes_predict(word);
            for (k, s) in scalars.iter().enumerate() {
                let shift = k as u32 * A::LANE_BITS;
                assert_eq!(
                    ((preds >> shift) & 0b11) as u8,
                    s.predict(&mut tie).as_u8(),
                    "{} lane {k} predict diverged",
                    A::NAME
                );
            }
            let x = (rng.next_u64() & 3) as u8;
            word = A::lanes_update(word, x);
            for (k, s) in scalars.iter_mut().enumerate() {
                s.update(e(x));
                assert_eq!(
                    (word >> (k as u32 * A::LANE_BITS)) & A::LANE_MASK,
                    s.encode(),
                    "{} lane {k} state diverged",
                    A::NAME
                );
            }
        }
    }

    #[test]
    fn mixed_lane_states_stay_isolated() {
        lanes_are_isolated::<LastExitHysteresis<1>>(2);
        lanes_are_isolated::<LastExitHysteresis<2>>(3);
    }

    #[test]
    fn top_lane_saturates_without_carry_out() {
        fn check<A: LaneAutomaton + PartialEq + Debug>() {
            let top = A::LANES - 1;
            let shift = top as u32 * A::LANE_BITS;
            let mut word = 0u64;
            let mut scalar = A::default();
            // Far past saturation, then a burst of contrary exits: the
            // moments a saturating add/sub would carry across the word edge.
            for _ in 0..12 {
                word = A::lanes_update(word, 3);
                scalar.update(e(3));
            }
            for _ in 0..12 {
                word = A::lanes_update(word, 0);
                scalar.update(e(0));
                assert_eq!(
                    (word >> shift) & A::LANE_MASK,
                    scalar.encode(),
                    "{}",
                    A::NAME
                );
            }
        }
        check::<LastExitHysteresis<1>>();
        check::<LastExitHysteresis<2>>();
    }

    #[test]
    fn gather_scatter_round_trips_disjoint_entries() {
        let mut pht: LanePacked<LastExitHysteresis<2>> = LanePacked::new(64);
        // Lane k writes entry 63-k; other lanes/entries stay default.
        let idxs: Vec<usize> = (0..16).map(|k| 63 - k).collect();
        let word = LastExitHysteresis::<2>::LANE_LSB * 0b0111; // exit 3, conf 1
        pht.scatter(&idxs, word);
        assert_eq!(pht.gather(&idxs), word);
        for k in 0..16 {
            assert_eq!(pht.lane(k, 63 - k), LastExitHysteresis::from_parts(e(3), 1));
            assert_eq!(pht.lane(k, k), LastExitHysteresis::default());
        }
    }

    fn multi_exit_task(entry: u32, exits: usize) -> TaskDesc {
        TaskDesc::new(
            Addr(entry),
            (0..exits)
                .map(|i| ExitInfo {
                    kind: ExitKind::Branch,
                    target: Some(Addr(entry + 4 * (i as u32 + 1))),
                    return_addr: None,
                })
                .collect(),
        )
    }

    /// The end-to-end tentpole gate: a batched step stream over a task mix
    /// (including single-exit tasks) must match a bank of scalar
    /// `PathPredictor`s event for event — predictions, misses, and
    /// states-touched accounting.
    #[test]
    fn batched_predictor_matches_scalar_path_predictors() {
        type A = LastExitHysteresis<2>;
        let configs = [
            Dolc::new(0, 0, 0, 8, 1),
            Dolc::new(1, 0, 5, 5, 1),
            Dolc::new(2, 4, 5, 5, 2),
            Dolc::new(4, 3, 4, 5, 2),
            Dolc::new(6, 5, 8, 9, 3),
        ];
        let tasks: Vec<TaskDesc> = (0..12)
            .map(|t| {
                multi_exit_task(
                    0x100 + 16 * t,
                    if t % 3 == 0 { 1 } else { 2 + (t as usize % 3) },
                )
            })
            .collect();
        let mut batch: BatchedExitPredictor<A> =
            BatchedExitPredictor::new(&configs).expect("5 lanes fit");
        let mut scalars: Vec<PathPredictor<A>> =
            configs.iter().map(|&d| PathPredictor::new(d)).collect();
        let mut rng = XorShift64::new(0x5EED);
        for _ in 0..30_000 {
            let task = &tasks[(rng.next_u64() % tasks.len() as u64) as usize];
            let n_exits = task.exits().len() as u64;
            let actual = e((rng.next_u64() % n_exits) as u8);
            let preds = batch.predict_word(task);
            let miss = batch.step(task, actual);
            for (k, p) in scalars.iter_mut().enumerate() {
                let shift = k as u32 * A::LANE_BITS;
                let want = p.predict(task);
                assert_eq!(((preds >> shift) & 0b11) as u8, want.as_u8(), "lane {k}");
                assert_eq!(miss >> k & 1 == 1, want != actual, "lane {k} miss");
                p.update(task, actual);
            }
        }
        for (k, p) in scalars.iter().enumerate() {
            assert_eq!(batch.states_touched(k), p.states_touched(), "lane {k}");
        }
    }

    #[test]
    fn batch_shape_limits_are_enforced() {
        type A = LastExitHysteresis<2>;
        let cfg = Dolc::new(1, 0, 5, 5, 1);
        assert!(BatchedExitPredictor::<A>::new(&[]).is_none());
        assert!(
            BatchedExitPredictor::<A>::new(&[cfg; 17]).is_none(),
            "LEH packs 16 lanes, 17 configs must be rejected"
        );
        let mut full = BatchedExitPredictor::<A>::new(&[cfg; 16]).expect("16 LEH lanes");
        assert_eq!(full.lanes(), MAX_FUSED_LANES);
        // All 16 lanes miss a non-zero exit on a single-exit task.
        let single = multi_exit_task(0x40, 1);
        assert_eq!(full.step(&single, e(1)), 0xFFFF);
        assert_eq!(full.step(&single, e(0)), 0);
        assert_eq!(full.states_touched(15), 0, "SkipPht trains nothing");
    }
}
