//! Integration tests for the `sanitize` runtime sanitizer
//! (`cargo test --features sanitize -p multiscalar-sim`).

#![cfg(feature = "sanitize")]

use multiscalar_core::automata::{
    Automaton, AutomatonKind, LastExit, LastExitHysteresis, VotingCounters,
};
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::PathPredictor;
use multiscalar_core::predictor::TaskPredictor;
use multiscalar_sim::arb::{Arb, ArbConfig};
use multiscalar_sim::metrics::CycleBreakdown;
use multiscalar_sim::sanitize::check_replay_agreement;
use multiscalar_sim::timing::{simulate, simulate_with_sink, NextTaskPredictor, TimingConfig};
use multiscalar_sim::{record_replay, simulate_replay, simulate_replay_with_sink, task_descs};
use multiscalar_taskform::TaskFormer;
use multiscalar_workloads::{Spec92, WorkloadParams};

/// The two step feeds agree in lockstep on every built-in workload — the
/// strongest form of the "replay is bit-identical" claim, checked step by
/// step rather than only on the final result.
#[test]
fn replay_agrees_with_interpreter_on_all_workloads() {
    for &spec in Spec92::ALL.iter() {
        let w = spec.build(&WorkloadParams::small(3));
        let tasks = TaskFormer::default().form(&w.program).unwrap();
        let steps = check_replay_agreement(&w.program, &tasks, w.max_steps)
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(steps > 0, "{spec}: empty execution");
    }
}

/// The Table 4-style PATH predictor over automaton family `A`.
fn path_predictor<A: Automaton + 'static>() -> Box<dyn NextTaskPredictor> {
    Box::new(TaskPredictor::<PathPredictor<A>>::path(
        Dolc::new(4, 4, 6, 6, 2),
        Dolc::new(4, 3, 4, 4, 2),
        16,
    ))
}

/// A full sanitized timing run: every armed assertion (ARB FIFO commit,
/// monotone ring clocks) must hold over a real workload, the replay
/// engine must still match the interpreter bit for bit, and perfect
/// prediction is never slower than a real predictor.
#[test]
fn sanitized_timing_run_holds_all_invariants() {
    let w = Spec92::Compress.build(&WorkloadParams::small(5));
    let tasks = TaskFormer::default().form(&w.program).unwrap();
    let descs = task_descs(&tasks);
    let config = TimingConfig::default();
    let legacy = simulate(&w.program, &tasks, &descs, None, &config, w.max_steps).unwrap();
    let replay = record_replay(&w.program, &tasks, w.max_steps).unwrap();
    let fast = simulate_replay(&replay, &descs, None, &config);
    assert_eq!(legacy, fast);
    assert!(legacy.instructions > 0);
    let real = simulate_replay(
        &replay,
        &descs,
        Some(&mut *path_predictor::<LastExitHysteresis<2>>()),
        &config,
    );
    assert!(
        fast.cycles <= real.cycles,
        "perfect prediction can never be slower than a real predictor"
    );
}

/// Every automaton family of Figure 6 — the two `VC RANDOM` kinds
/// included — drives the interpreter-fed and the replay-fed timing runs
/// to the same result and the same cycle attribution, cause by cause,
/// with the attribution summing exactly to the run's cycles.
#[test]
fn every_automaton_kind_times_identically_on_both_engines() {
    let w = Spec92::Compress.build(&WorkloadParams::small(7));
    let tasks = TaskFormer::default().form(&w.program).unwrap();
    let descs = task_descs(&tasks);
    let config = TimingConfig::paper();
    let replay = record_replay(&w.program, &tasks, w.max_steps).unwrap();
    for kind in AutomatonKind::ALL {
        let make = || match kind {
            AutomatonKind::Vc2Mru => path_predictor::<VotingCounters<2, true>>(),
            AutomatonKind::Vc2Random => path_predictor::<VotingCounters<2, false>>(),
            AutomatonKind::Leh1 => path_predictor::<LastExitHysteresis<1>>(),
            AutomatonKind::Vc3Mru => path_predictor::<VotingCounters<3, true>>(),
            AutomatonKind::Vc3Random => path_predictor::<VotingCounters<3, false>>(),
            AutomatonKind::Leh2 => path_predictor::<LastExitHysteresis<2>>(),
            AutomatonKind::LastExit => path_predictor::<LastExit>(),
        };
        let mut interp_bd = CycleBreakdown::new();
        let interp = simulate_with_sink(
            &w.program,
            &tasks,
            &descs,
            Some(&mut *make()),
            &config,
            w.max_steps,
            &mut interp_bd,
        )
        .unwrap();
        let mut replay_bd = CycleBreakdown::new();
        let replayed =
            simulate_replay_with_sink(&replay, &descs, Some(&mut *make()), &config, &mut replay_bd);
        let name = kind.name();
        assert_eq!(interp, replayed, "{name}: TimingResult");
        assert_eq!(interp_bd, replay_bd, "{name}: CycleBreakdown");
        assert_eq!(interp_bd.total(), interp.cycles, "{name}: breakdown sum");
        assert!(interp.dynamic_tasks > 0, "{name}: empty run");
    }
}

/// The ARB commit-order assertion actually fires: after committing stage 5,
/// committing a lower-numbered stage is a sanitizer panic.
#[test]
fn arb_commit_order_assertion_fires() {
    let mut a = Arb::new(ArbConfig::default());
    a.begin_task(5);
    assert_eq!(a.commit_head(), Some(5));
    // The window is empty, so `begin_task` accepts any sequence number —
    // only the sanitizer knows stage 3 would commit out of FIFO order.
    a.begin_task(3);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.commit_head()));
    assert!(r.is_err(), "committing 3 after 5 must trip the sanitizer");
}
