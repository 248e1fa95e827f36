//! Integration tests asserting the paper's *qualitative* findings hold on
//! the reproduction — the headline claims of each section, on small-scale
//! workloads.

use multiscalar::core::automata::{AutomatonKind, LastExitHysteresis};
use multiscalar::core::dolc::Dolc;
use multiscalar::core::history::PathPredictor;
use multiscalar::core::predictor::{CttbOnlyPredictor, TaskPredictor};
use multiscalar::core::target::{Cttb, Ttb};
use multiscalar::harness::dispatch::{
    cttb_ladder, measure_ideal, measure_ideal_path_automaton_sweep, Scheme,
};
use multiscalar::harness::{prepare, Bench};
use multiscalar::sim::measure::{measure_cttb_only, measure_full, measure_indirect_targets};
use multiscalar::workloads::{Spec92, WorkloadParams};

type Leh2 = LastExitHysteresis<2>;

fn params() -> WorkloadParams {
    WorkloadParams {
        seed: 0xC0FFEE,
        scale: 1,
    }
}

fn gcc() -> Bench {
    prepare(Spec92::Gcc, &params())
}

/// §5.1 / Figure 6: LEH-2bit matches the best automata; LE is the worst.
#[test]
fn leh2_beats_last_exit_and_matches_vc3() {
    let b = gcc();
    let le = measure_ideal_path_automaton_sweep(AutomatonKind::LastExit, &[5], &b)[0].miss_rate();
    let leh2 = measure_ideal_path_automaton_sweep(AutomatonKind::Leh2, &[5], &b)[0].miss_rate();
    let vc3 = measure_ideal_path_automaton_sweep(AutomatonKind::Vc3Mru, &[5], &b)[0].miss_rate();
    assert!(leh2 < le, "LEH-2bit ({leh2:.4}) must beat LE ({le:.4})");
    assert!(
        (leh2 - vc3).abs() < 0.01,
        "LEH-2bit ({leh2:.4}) and 3-bit VC MRU ({vc3:.4}) are nearly identical"
    );
}

/// §5.2 / Figure 7: on gcc, PATH beats PER and GLOBAL at depth 7; history
/// depth helps every scheme.
#[test]
fn path_wins_on_gcc_and_depth_helps() {
    let b = gcc();
    let path7 = measure_ideal(Scheme::Path, 7, &b).miss_rate();
    let per7 = measure_ideal(Scheme::Per, 7, &b).miss_rate();
    let global7 = measure_ideal(Scheme::Global, 7, &b).miss_rate();
    assert!(
        path7 < per7,
        "PATH ({path7:.4}) must beat PER ({per7:.4}) on gcc"
    );
    assert!(
        path7 < global7,
        "PATH ({path7:.4}) must beat GLOBAL ({global7:.4}) on gcc"
    );

    for scheme in Scheme::ALL {
        let d0 = measure_ideal(scheme, 0, &b).miss_rate();
        let d7 = measure_ideal(scheme, 7, &b).miss_rate();
        assert!(
            d7 < d0,
            "{} must improve with history depth on gcc: d0={d0:.4} d7={d7:.4}",
            scheme.name()
        );
    }
}

/// §5.2: at depth 0, the three ideal schemes coincide (one automaton per
/// static task).
#[test]
fn schemes_coincide_at_depth_zero() {
    let b = prepare(Spec92::Sc, &params());
    let rates: Vec<f64> = Scheme::ALL
        .iter()
        .map(|&s| measure_ideal(s, 0, &b).miss_rate())
        .collect();
    assert!((rates[0] - rates[1]).abs() < 1e-12);
    assert!((rates[1] - rates[2]).abs() < 1e-12);
}

/// The paper's one exception: on sc, PER is at least as good as PATH.
#[test]
fn per_matches_or_beats_path_on_sc() {
    let b = prepare(Spec92::Sc, &params());
    let path7 = measure_ideal(Scheme::Path, 7, &b).miss_rate();
    let per7 = measure_ideal(Scheme::Per, 7, &b).miss_rate();
    assert!(
        per7 <= path7 * 1.05,
        "sc is the PER-friendly benchmark: PER {per7:.4} vs PATH {path7:.4}"
    );
}

/// compress's miss rate barely responds to history — data dependence
/// dominates (its near-flat Figure 7 curve).
#[test]
fn compress_is_history_resistant() {
    let b = prepare(Spec92::Compress, &params());
    let d0 = measure_ideal(Scheme::Path, 0, &b).miss_rate();
    let d7 = measure_ideal(Scheme::Path, 7, &b).miss_rate();
    assert!(d0 > 0.05, "compress must be hard at depth 0: {d0:.4}");
    assert!(
        d7 > d0 * 0.7,
        "history cannot fix data-dependent branches: d0={d0:.4} d7={d7:.4}"
    );
}

/// §5.3 / Figure 8: a plain TTB does very poorly on indirect targets; the
/// path-indexed CTTB is much better (on the indirect-heavy gcc analog).
#[test]
fn cttb_crushes_ttb_on_indirect_targets() {
    let b = gcc();
    let mut ttb = Ttb::new(11);
    let ttb_stats = measure_indirect_targets(&mut ttb, &b.descs, &b.trace.events);
    let mut cttb = Cttb::new(Dolc::new(7, 4, 4, 5, 3));
    let cttb_stats = measure_indirect_targets(&mut cttb, &b.descs, &b.trace.events);
    assert!(ttb_stats.predictions > 100, "gcc must have indirect exits");
    assert!(
        cttb_stats.miss_rate() < ttb_stats.miss_rate(),
        "CTTB ({:.4}) must beat TTB ({:.4})",
        cttb_stats.miss_rate(),
        ttb_stats.miss_rate()
    );
}

/// §6.4.2 / Table 3: headerless CTTB-only prediction is possible but worse
/// than the full exit predictor with RAS & CTTB, despite 4x the storage.
#[test]
fn cttb_only_is_worse_than_full_predictor() {
    for spec in [Spec92::Gcc, Spec92::Xlisp] {
        let b = prepare(spec, &params());
        let mut only = CttbOnlyPredictor::new(Dolc::new(7, 4, 9, 9, 3));
        let only_rate = measure_cttb_only(&mut only, &b.descs, &b.trace.events).miss_rate();
        let mut full = TaskPredictor::<PathPredictor<Leh2>>::path(
            Dolc::new(7, 4, 9, 9, 3),
            Dolc::new(7, 4, 4, 5, 3),
            64,
        );
        let full_rate = measure_full(&mut full, &b.descs, &b.trace.events)
            .next_task
            .miss_rate();
        assert!(
            full_rate < only_rate,
            "{spec}: full predictor ({full_rate:.4}) must beat CTTB-only ({only_rate:.4})"
        );
    }
}

/// §4.2: the RAS makes return-target prediction nearly perfect on the
/// call-heavy xlisp analog.
#[test]
fn ras_is_nearly_perfect_on_returns() {
    let b = prepare(Spec92::Xlisp, &params());
    let mut full = TaskPredictor::<PathPredictor<Leh2>>::path(
        Dolc::new(7, 4, 9, 9, 3),
        Dolc::new(7, 4, 4, 5, 3),
        64,
    );
    let stats = measure_full(&mut full, &b.descs, &b.trace.events);
    let ret = stats.target_stats(multiscalar::isa::ExitKind::Return);
    assert!(ret.predictions > 1000, "xlisp is return-heavy");
    assert!(
        ret.miss_rate() < 0.01,
        "RAS return prediction must be nearly perfect: {:.4}",
        ret.miss_rate()
    );
}

/// §6.1: the single-exit optimisation — tasks with one exit never touch the
/// PHT, reducing the states used without hurting accuracy.
#[test]
fn single_exit_optimization_reduces_states() {
    use multiscalar::core::history::SingleExitMode;
    use multiscalar::core::predictor::ExitPredictor;
    use multiscalar::sim::measure::measure_exits;

    let b = gcc();
    let d = Dolc::new(6, 5, 8, 9, 3);
    let mut with: PathPredictor<Leh2> = PathPredictor::with_mode(d, SingleExitMode::SkipPht);
    let with_stats = measure_exits(&mut with, &b.descs, &b.trace.events);
    let mut without: PathPredictor<Leh2> = PathPredictor::with_mode(d, SingleExitMode::Off);
    let without_stats = measure_exits(&mut without, &b.descs, &b.trace.events);

    assert!(with.states_touched() < without.states_touched());
    // Single-exit tasks are trivially correct either way, so accuracy may
    // only improve (less aliasing) or stay close.
    assert!(with_stats.miss_rate() <= without_stats.miss_rate() + 0.01);
}

/// Figure 12's premise: real CTTB configurations approach the ideal as the
/// table stops thrashing, and the ideal is never worse than the real one
/// by construction-scale margins.
#[test]
fn real_cttb_tracks_ideal() {
    use multiscalar::core::target::IdealCttb;
    let b = prepare(Spec92::Xlisp, &params());
    for cfg in cttb_ladder() {
        let mut real = Cttb::new(cfg);
        let real_rate = measure_indirect_targets(&mut real, &b.descs, &b.trace.events).miss_rate();
        let mut ideal = IdealCttb::new(cfg.depth());
        let ideal_rate =
            measure_indirect_targets(&mut ideal, &b.descs, &b.trace.events).miss_rate();
        assert!(
            real_rate >= ideal_rate - 0.02,
            "{cfg}: real ({real_rate:.4}) cannot beat ideal ({ideal_rate:.4}) meaningfully"
        );
    }
}

/// §7 / Table 4 ablation: a wider ring extracts more parallelism. With
/// perfect inter-task prediction, IPC on gcc rises strictly from 2 to 4 to
/// 8 processing units (1.30, 1.84, 2.50 at this scale).
#[test]
fn perfect_ipc_rises_with_ring_width() {
    use multiscalar::sim::replay::simulate_replay;
    use multiscalar::sim::timing::TimingConfig;

    let b = gcc();
    // No predictor is Table 4's Perfect column.
    let ipc: Vec<f64> = [2, 4, 8]
        .iter()
        .map(|&units| {
            let config = TimingConfig::paper().n_units(units);
            simulate_replay(&b.replay, &b.descs, None, &config).ipc()
        })
        .collect();
    assert!(
        ipc[0] < ipc[1] && ipc[1] < ipc[2],
        "perfect-prediction IPC must rise with ring width (2/4/8 units): {ipc:.2?}"
    );
}

/// §6.1's two DOLC heuristics — fold older-task bits into the index, and
/// taper them (fewer bits from older tasks) — measured on gcc at an equal
/// index size. At this scale they do *not* win: the unfolded 6-1-4-5(1)
/// (3.39%) beats the uniform 6-6-6-6(3) (3.43%), which beats the folded,
/// tapered 6-5-8-9(3) (3.64%). The test pins that ordering so a change to
/// the predictor or the workloads that moves it is noticed.
#[test]
fn dolc_fold_and_taper_do_not_win_at_small_scale() {
    use multiscalar::sim::measure::measure_exits;

    let b = gcc();
    let miss = |d: Dolc| {
        let mut p: PathPredictor<Leh2> = PathPredictor::new(d);
        measure_exits(&mut p, &b.descs, &b.trace.events).miss_rate()
    };
    let unfolded = Dolc::new(6, 1, 4, 5, 1);
    let uniform = Dolc::new(6, 6, 6, 6, 3);
    let tapered = Dolc::new(6, 5, 8, 9, 3);
    assert_eq!(unfolded.index_bits(), tapered.index_bits());
    assert_eq!(uniform.index_bits(), tapered.index_bits());
    let (u, f, t) = (miss(unfolded), miss(uniform), miss(tapered));
    assert!(
        u < f && f < t,
        "expected unfolded {unfolded} ({u:.4}) < uniform {uniform} ({f:.4}) < \
         folded/tapered {tapered} ({t:.4})"
    );
}
