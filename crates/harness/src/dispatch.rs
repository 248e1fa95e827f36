//! Runtime dispatch over automaton kinds and history schemes, so the CLI
//! can select predictors the library implements with static generics.

use crate::Bench;
use multiscalar_core::automata::{
    Automaton, AutomatonKind, LastExit, LastExitHysteresis, VotingCounters,
};
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::{GlobalPredictor, PathPredictor, PerTaskPredictor};
use multiscalar_core::ideal::{IdealCttbSweep, IdealGlobal, IdealPath, IdealPer, IdealSweep};
use multiscalar_core::lane::{BatchedExitPredictor, LaneAutomaton};
use multiscalar_core::predictor::{ExitPredictor, TaskDesc, TaskPredictor};
use multiscalar_core::target::{Cttb, IdealCttb};
use multiscalar_sim::measure::{
    measure_exits, measure_exits_batched, measure_exits_fused, measure_exits_trie,
    measure_indirect_targets, measure_indirect_targets_fused, measure_indirect_targets_trie,
    MissStats,
};
use multiscalar_sim::timing::NextTaskPredictor;
use multiscalar_sim::trace::SharedTrace;

/// LEH-2bit, the automaton of every predictor after Figure 6.
type Leh2 = LastExitHysteresis<2>;

/// The three history-generation schemes of paper §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Global exit-history register.
    Global,
    /// Per-task history registers (PAp analog).
    Per,
    /// Path-based history.
    Path,
}

impl Scheme {
    /// All three schemes in the paper's order.
    pub const ALL: [Scheme; 3] = [Scheme::Global, Scheme::Per, Scheme::Path];

    /// Name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Global => "GLOBAL",
            Scheme::Per => "PER",
            Scheme::Path => "PATH",
        }
    }
}

/// Measures an *ideal* (alias-free) predictor of the given scheme and
/// depth, with the LEH-2bit automaton (the paper's choice after Fig. 6).
pub fn measure_ideal(scheme: Scheme, depth: u32, bench: &Bench) -> MissStats {
    measure_ideal_on(scheme, depth, &bench.descs, &bench.trace.events)
}

/// [`measure_ideal`] over a bare task trace, for callers that hold a trace
/// without a prepared [`Bench`] (the re-formed programs of
/// [`crate::extensions::ext_taskform`]).
pub fn measure_ideal_on(
    scheme: Scheme,
    depth: u32,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> MissStats {
    ideal_oracle_on::<Leh2>(scheme, depth, descs, events).0
}

/// One ideal predictor on its map model: miss stats and states. The
/// single-depth engine, and the oracle of the trie sweeps
/// ([`ideal_sweep_on`]) in `tests/fused.rs` and fuzz oracle 6.
pub fn ideal_oracle_on<A: Automaton>(
    scheme: Scheme,
    depth: u32,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> (MissStats, usize) {
    fn run<P: ExitPredictor>(
        mut p: P,
        descs: &[TaskDesc],
        events: &SharedTrace,
    ) -> (MissStats, usize) {
        let stats = measure_exits(&mut p, descs, events);
        (stats, p.states_touched())
    }
    match scheme {
        Scheme::Global => run(IdealGlobal::<A>::new(depth), descs, events),
        Scheme::Per => run(IdealPer::<A>::new(depth), descs, events),
        Scheme::Path => run(IdealPath::<A>::new(depth), descs, events),
    }
}

/// An ideal depth sweep over a bare task trace: one walk of one history
/// trie for every depth, returning per-depth miss stats and states in the
/// caller's order. Bit-identical to [`ideal_oracle_on`] per depth.
pub fn ideal_sweep_on<A: Automaton>(
    scheme: Scheme,
    depths: &[u32],
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<(MissStats, usize)> {
    let mut sweep = match scheme {
        Scheme::Global => IdealSweep::<A>::global(depths),
        Scheme::Per => IdealSweep::per(depths),
        Scheme::Path => IdealSweep::path(depths),
    };
    measure_exits_trie(&mut sweep, descs, events)
}

/// Depth-sweep form of [`measure_ideal`]: one walk of one history trie
/// measures every depth, bit-identical to calling `measure_ideal` once per
/// depth.
pub fn measure_ideal_sweep(scheme: Scheme, depths: &[u32], bench: &Bench) -> Vec<MissStats> {
    miss_stats(ideal_sweep_on::<Leh2>(
        scheme,
        depths,
        &bench.descs,
        &bench.trace.events,
    ))
}

/// Drops the states counts of a sweep's results.
fn miss_stats(results: Vec<(MissStats, usize)>) -> Vec<MissStats> {
    results.into_iter().map(|(stats, _)| stats).collect()
}

/// Measures ideal PATH predictors with the given automaton kind (Figure
/// 6's experiment) at every depth, in one walk of one history trie.
pub fn measure_ideal_path_automaton_sweep(
    kind: AutomatonKind,
    depths: &[u32],
    bench: &Bench,
) -> Vec<MissStats> {
    fn run<A: Automaton>(depths: &[u32], bench: &Bench) -> Vec<MissStats> {
        miss_stats(ideal_sweep_on::<A>(
            Scheme::Path,
            depths,
            &bench.descs,
            &bench.trace.events,
        ))
    }
    match kind {
        AutomatonKind::Vc2Mru => run::<VotingCounters<2, true>>(depths, bench),
        AutomatonKind::Vc2Random => run::<VotingCounters<2, false>>(depths, bench),
        AutomatonKind::Leh1 => run::<LastExitHysteresis<1>>(depths, bench),
        AutomatonKind::Vc3Mru => run::<VotingCounters<3, true>>(depths, bench),
        AutomatonKind::Vc3Random => run::<VotingCounters<3, false>>(depths, bench),
        AutomatonKind::Leh2 => run::<LastExitHysteresis<2>>(depths, bench),
        AutomatonKind::LastExit => run::<LastExit>(depths, bench),
    }
}

/// Real-PATH sweep over DOLC configurations (Figures 10 and 11's "real"
/// curves), LEH-2bit: per-config miss stats and PHT states touched.
///
/// Runs on the lane-packed engine only. `configs` is split into chunks of
/// at most one word's lanes, and each chunk is one
/// [`measure_exits_batched`] walk; the ladder fits one chunk. Results are
/// bit-identical to [`path_real_sweep_scalar`], the oracle
/// `tests/lane_dispatch.rs` and fuzz oracle 6 hold it to.
pub fn path_real_sweep(configs: &[Dolc], bench: &Bench) -> Vec<(MissStats, usize)> {
    configs
        .chunks(Leh2::LANES)
        .flat_map(|chunk| {
            let mut batch =
                BatchedExitPredictor::<Leh2>::new(chunk).expect("a chunk fits one word");
            measure_exits_batched(&mut batch, &bench.descs, &bench.trace.events)
        })
        .collect()
}

/// The scalar real-PATH sweep: one LEH-2bit `PathPredictor` per
/// configuration, trained predictor by predictor in one trace walk. No
/// workload runs it; it is the oracle for the lane-packed
/// [`path_real_sweep`].
pub fn path_real_sweep_scalar(
    configs: &[Dolc],
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<(MissStats, usize)> {
    let mut ps: Vec<PathPredictor<LastExitHysteresis<2>>> =
        configs.iter().map(|&d| PathPredictor::new(d)).collect();
    let stats = measure_exits_fused(&mut ps, descs, events);
    stats
        .into_iter()
        .zip(ps.iter().map(|p| p.states_touched()))
        .collect()
}

/// Ideal-PATH sweep over depths (Figures 10 and 11's "ideal" curves): one
/// walk of one history trie, returning per-depth miss stats and distinct
/// states.
pub fn path_ideal_sweep(depths: &[u32], bench: &Bench) -> Vec<(MissStats, usize)> {
    ideal_sweep_on::<Leh2>(Scheme::Path, depths, &bench.descs, &bench.trace.events)
}

/// Fused real-CTTB sweep over DOLC configurations (Figure 12): one walk of
/// the indirect-exit stream drives every configuration.
pub fn cttb_real_sweep(configs: &[Dolc], bench: &Bench) -> Vec<MissStats> {
    let mut bufs: Vec<Cttb> = configs.iter().map(|&d| Cttb::new(d)).collect();
    measure_indirect_targets_fused(&mut bufs, &bench.descs, &bench.trace.events)
}

/// Ideal-CTTB sweep over path depths (Figures 8 and 12): one walk of one
/// history trie over the indirect-exit stream.
pub fn cttb_ideal_sweep(depths: &[usize], bench: &Bench) -> Vec<MissStats> {
    miss_stats(cttb_ideal_sweep_on(
        depths,
        &bench.descs,
        &bench.trace.events,
    ))
}

/// [`cttb_ideal_sweep`] over a bare task trace, with per-depth states.
/// Bit-identical to [`cttb_ideal_oracle_on`] per depth.
pub fn cttb_ideal_sweep_on(
    depths: &[usize],
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<(MissStats, usize)> {
    measure_indirect_targets_trie(&mut IdealCttbSweep::new(depths), descs, events)
}

/// One ideal CTTB on its map model: miss stats and states, the oracle of
/// [`cttb_ideal_sweep_on`].
pub fn cttb_ideal_oracle_on(
    depth: usize,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> (MissStats, usize) {
    let mut buf = IdealCttb::new(depth);
    let stats = measure_indirect_targets(&mut buf, descs, events);
    (stats, buf.states())
}

/// Builds a boxed *real* exit predictor of the given scheme, LEH-2bit, with
/// the paper's Table 4 sizing (16 KB PHT = 2^15 4-bit entries, depth 7).
pub fn real_predictor_16kb(scheme: Scheme) -> Box<dyn ExitPredictor> {
    match scheme {
        Scheme::Global => Box::new(GlobalPredictor::<LastExitHysteresis<2>>::new(7, 15)),
        Scheme::Per => Box::new(PerTaskPredictor::<LastExitHysteresis<2>>::new(7, 8, 7)),
        Scheme::Path => Box::new(PathPredictor::<LastExitHysteresis<2>>::new(dolc_15bit(7))),
    }
}

/// The five predictor columns of Table 4, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table4Column {
    /// Task-address-indexed PATH at depth 0 (no history).
    Simple,
    /// GLOBAL scheme, 16 KB, depth 7.
    Global,
    /// PER scheme, 16 KB, depth 7.
    Per,
    /// PATH scheme, 16 KB, depth 7.
    Path,
    /// Perfect inter-task prediction (no predictor at all).
    Perfect,
}

impl Table4Column {
    /// All five columns in the paper's order.
    pub const ALL: [Table4Column; 5] = [
        Table4Column::Simple,
        Table4Column::Global,
        Table4Column::Per,
        Table4Column::Path,
        Table4Column::Perfect,
    ];

    /// Column name as printed in Table 4.
    pub fn name(self) -> &'static str {
        match self {
            Table4Column::Simple => "Simple",
            Table4Column::Global => "GLOBAL",
            Table4Column::Per => "PER",
            Table4Column::Path => "PATH",
            Table4Column::Perfect => "Perfect",
        }
    }

    /// Builds this column's next-task predictor with the paper's Table 4
    /// sizing (16 KB PHT, 8 KB CTTB, 64-deep RAS); `None` for Perfect.
    pub fn predictor(self) -> Option<Box<dyn NextTaskPredictor>> {
        let cttb_cfg = Dolc::new(7, 4, 4, 5, 3);
        let exit_pred: Box<dyn ExitPredictor> = match self {
            Table4Column::Simple => {
                Box::new(PathPredictor::<LastExitHysteresis<2>>::new(dolc_15bit(0)))
            }
            Table4Column::Global => real_predictor_16kb(Scheme::Global),
            Table4Column::Per => real_predictor_16kb(Scheme::Per),
            Table4Column::Path => real_predictor_16kb(Scheme::Path),
            Table4Column::Perfect => return None,
        };
        Some(Box::new(TaskPredictor::new(exit_pred, cttb_cfg, 64)))
    }
}

/// The paper's Figure 10 ladder of `D-O-L-C (F)` configurations, all with a
/// 14-bit index (8 KB PHT at 4 bits/entry), one per depth 0..=7.
///
/// The depth-7 entry in the paper's figure is illegible in our source; we
/// substitute `7-4-9-9 (3)` which preserves the 14-bit index (documented in
/// DESIGN.md).
pub fn exit_ladder() -> Vec<Dolc> {
    vec![
        Dolc::new(0, 0, 0, 14, 1),
        Dolc::new(1, 0, 7, 7, 1),
        Dolc::new(2, 4, 5, 5, 1),
        Dolc::new(3, 6, 8, 8, 2),
        Dolc::new(4, 5, 6, 7, 2),
        Dolc::new(5, 4, 6, 6, 2),
        Dolc::new(6, 5, 8, 9, 3),
        Dolc::new(7, 4, 9, 9, 3),
    ]
}

/// The paper's Figure 12 ladder for the CTTB: 11-bit index (8 KB at
/// 4 bytes/entry), one per depth 0..=7. These are exactly the
/// configurations printed in the paper.
pub fn cttb_ladder() -> Vec<Dolc> {
    vec![
        Dolc::new(0, 0, 0, 11, 1),
        Dolc::new(1, 0, 5, 6, 1),
        Dolc::new(2, 3, 3, 5, 1),
        Dolc::new(3, 5, 6, 6, 2),
        Dolc::new(4, 4, 5, 5, 2),
        Dolc::new(5, 5, 6, 7, 3),
        Dolc::new(6, 4, 6, 7, 3),
        Dolc::new(7, 4, 4, 5, 3),
    ]
}

/// A 15-bit-index PATH configuration (16 KB PHT) for the given depth, used
/// by Table 4.
pub fn dolc_15bit(depth: u8) -> Dolc {
    match depth {
        0 => Dolc::new(0, 0, 0, 15, 1),
        7 => Dolc::new(7, 5, 7, 8, 3), // (6*5)+7+8 = 45 bits / 3 = 15
        d => {
            // Generic construction: spread bits to reach 15 * min(F, ...).
            let f = 1 + (d as u32 + 1) / 3;
            let target = 15 * f;
            let older = if d > 1 {
                ((target - 16) / (d as u32 - 1)).min(10) as u8
            } else {
                0
            };
            let rest = target - (d as u32 - 1) * older as u32;
            let last = (rest / 2) as u8;
            let current = (rest - last as u32) as u8;
            Dolc::new(d, older, last, current, f as u8)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_have_constant_index_width() {
        for d in exit_ladder() {
            assert_eq!(d.index_bits(), 14, "exit ladder must stay at 8 KB: {d}");
        }
        for d in cttb_ladder() {
            assert_eq!(d.index_bits(), 11, "CTTB ladder must stay at 8 KB: {d}");
        }
    }

    #[test]
    fn ladder_depths_are_sequential() {
        for (i, d) in exit_ladder().iter().enumerate() {
            assert_eq!(d.depth(), i);
        }
        for (i, d) in cttb_ladder().iter().enumerate() {
            assert_eq!(d.depth(), i);
        }
    }

    #[test]
    fn table4_dolc_is_16kb() {
        assert_eq!(dolc_15bit(0).index_bits(), 15);
        assert_eq!(dolc_15bit(7).index_bits(), 15);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::ALL.map(|s| s.name()), ["GLOBAL", "PER", "PATH"]);
    }
}
