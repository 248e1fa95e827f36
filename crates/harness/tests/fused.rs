//! Fused sweeps must be **bit-identical** to measuring one configuration at
//! a time: the predictor instances inside a fused walk never observe each
//! other, so fusing is purely a wall-clock optimisation. The ideal sweeps
//! walk one history trie for all their depths; their oracles are the
//! single-depth map models.

use multiscalar_core::automata::{
    Automaton, AutomatonKind, LastExit, LastExitHysteresis, VotingCounters,
};
use multiscalar_core::history::PathPredictor;
use multiscalar_core::ideal::IdealPath;
use multiscalar_core::predictor::ExitPredictor;
use multiscalar_core::target::{Cttb, IdealCttb};
use multiscalar_harness::dispatch::{
    cttb_ideal_oracle_on, cttb_ideal_sweep, cttb_ideal_sweep_on, cttb_ladder, cttb_real_sweep,
    exit_ladder, ideal_oracle_on, ideal_sweep_on, measure_ideal,
    measure_ideal_path_automaton_sweep, measure_ideal_sweep, path_ideal_sweep, path_real_sweep,
    Scheme,
};
use multiscalar_harness::{prepare, Bench};
use multiscalar_sim::measure::{measure_exits, measure_indirect_targets, MissStats};
use multiscalar_workloads::{Spec92, WorkloadParams};

type Leh2 = LastExitHysteresis<2>;

/// Ideal-sweep depths: unordered, repeated, and spanning the whole PATH
/// range. Depth 8 keeps every trace's first eight events on paths shorter
/// than the depth.
const DEPTHS: [u32; 8] = [5, 0, 8, 2, 5, 1, 8, 3];

/// Two benchmarks with different control-flow character: gcc (indirect
/// heavy) and sc (loop heavy, the PER-friendly outlier).
fn two_benches() -> Vec<Bench> {
    let params = WorkloadParams::small(0xC0FFEE);
    vec![prepare(Spec92::Gcc, &params), prepare(Spec92::Sc, &params)]
}

#[test]
fn fused_ideal_scheme_sweep_matches_one_depth_at_a_time() {
    let depths: Vec<u32> = (0..=6).collect();
    for b in &two_benches() {
        for scheme in Scheme::ALL {
            let fused = measure_ideal_sweep(scheme, &depths, b);
            let sequential: Vec<_> = depths
                .iter()
                .map(|&d| measure_ideal(scheme, d, b))
                .collect();
            assert_eq!(fused, sequential, "{} {scheme:?}", b.name());
        }
    }
}

/// The depth-`d` map oracle of one PATH automaton kind.
fn path_oracle(kind: AutomatonKind, d: u32, b: &Bench) -> MissStats {
    fn run<A: Automaton>(d: u32, b: &Bench) -> MissStats {
        ideal_oracle_on::<A>(Scheme::Path, d, &b.descs, &b.trace.events).0
    }
    match kind {
        AutomatonKind::Vc2Mru => run::<VotingCounters<2, true>>(d, b),
        AutomatonKind::Vc2Random => run::<VotingCounters<2, false>>(d, b),
        AutomatonKind::Leh1 => run::<LastExitHysteresis<1>>(d, b),
        AutomatonKind::Vc3Mru => run::<VotingCounters<3, true>>(d, b),
        AutomatonKind::Vc3Random => run::<VotingCounters<3, false>>(d, b),
        AutomatonKind::Leh2 => run::<Leh2>(d, b),
        AutomatonKind::LastExit => run::<LastExit>(d, b),
    }
}

#[test]
fn fused_automaton_sweep_matches_one_depth_at_a_time() {
    // Every kind, VC RANDOM included: each depth must consume its own
    // tie-break stream exactly as its map model does.
    for b in &two_benches() {
        for kind in AutomatonKind::ALL {
            let fused = measure_ideal_path_automaton_sweep(kind, &DEPTHS, b);
            let sequential: Vec<_> = DEPTHS.iter().map(|&d| path_oracle(kind, d, b)).collect();
            assert_eq!(fused, sequential, "{} {kind:?}", b.name());
        }
    }
}

#[test]
fn trie_sweeps_match_the_map_oracles_on_every_workload() {
    let params = WorkloadParams::small(0xC0FFEE);
    let cttb_depths: Vec<usize> = DEPTHS.iter().map(|&d| d as usize).collect();
    for spec in Spec92::ALL {
        let b = prepare(spec, &params);
        let (descs, events) = (&b.descs, &b.trace.events);
        for scheme in Scheme::ALL {
            let sweep = ideal_sweep_on::<Leh2>(scheme, &DEPTHS, descs, events);
            let oracle: Vec<_> = DEPTHS
                .iter()
                .map(|&d| ideal_oracle_on::<Leh2>(scheme, d, descs, events))
                .collect();
            assert_eq!(sweep, oracle, "{} {scheme:?}", b.name());
        }
        let sweep = cttb_ideal_sweep_on(&cttb_depths, descs, events);
        let oracle: Vec<_> = cttb_depths
            .iter()
            .map(|&d| cttb_ideal_oracle_on(d, descs, events))
            .collect();
        assert_eq!(sweep, oracle, "{} CTTB", b.name());

        // The cases the trie must get right occur in the trace: PATH's
        // single-exit skip, and CTTB predicting on indirect exits only.
        let single = events
            .iter()
            .filter(|e| descs[e.task.index()].single_exit())
            .count();
        assert!(single > 0, "{}: no single-exit task events", b.name());
        assert!(
            sweep[0].0.predictions < events.len() as u64,
            "{}: CTTB predicted on a non-indirect event",
            b.name()
        );
    }
}

#[test]
fn fused_path_ladders_match_one_config_at_a_time() {
    let configs = exit_ladder();
    for b in &two_benches() {
        let fused_real = path_real_sweep(&configs, b);
        let fused_ideal = path_ideal_sweep(
            &configs.iter().map(|d| d.depth() as u32).collect::<Vec<_>>(),
            b,
        );
        for (i, &cfg) in configs.iter().enumerate() {
            let mut real: PathPredictor<Leh2> = PathPredictor::new(cfg);
            let rs = measure_exits(&mut real, &b.descs, &b.trace.events);
            assert_eq!(
                fused_real[i],
                (rs, real.states_touched()),
                "{} real {cfg:?}",
                b.name()
            );

            let mut ideal: IdealPath<Leh2> = IdealPath::new(cfg.depth() as u32);
            let is = measure_exits(&mut ideal, &b.descs, &b.trace.events);
            assert_eq!(
                fused_ideal[i],
                (is, ideal.states()),
                "{} ideal {cfg:?}",
                b.name()
            );
        }
    }
}

#[test]
fn fused_cttb_ladders_match_one_config_at_a_time() {
    let configs = cttb_ladder();
    let depths: Vec<usize> = configs.iter().map(|d| d.depth()).collect();
    for b in &two_benches() {
        let fused_real = cttb_real_sweep(&configs, b);
        let fused_ideal = cttb_ideal_sweep(&depths, b);
        for (i, &cfg) in configs.iter().enumerate() {
            let mut real = Cttb::new(cfg);
            assert_eq!(
                fused_real[i],
                measure_indirect_targets(&mut real, &b.descs, &b.trace.events),
                "{} real {cfg:?}",
                b.name()
            );
            let mut ideal = IdealCttb::new(cfg.depth());
            assert_eq!(
                fused_ideal[i],
                measure_indirect_targets(&mut ideal, &b.descs, &b.trace.events),
                "{} ideal {cfg:?}",
                b.name()
            );
        }
    }
}
