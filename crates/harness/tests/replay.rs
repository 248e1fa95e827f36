//! Replay-vs-interpreter equivalence: `simulate_replay()` must return a
//! bit-identical `TimingResult` to `simulate()` for every Table 4 predictor
//! column on every in-tree workload, and across the timing-model ablation
//! configs — the contract that lets one recording stand in for five
//! interpreter passes, and that lets the `ext` timing experiments replay
//! instead of re-interpreting.

use multiscalar_core::automata::LastExitHysteresis;
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::PathPredictor;
use multiscalar_core::predictor::TaskPredictor;
use multiscalar_harness::dispatch::Table4Column;
use multiscalar_harness::extensions::{
    ext_confidence, ext_intra, ext_memory, ConfidenceRow, IntraRow, MemoryRow,
};
use multiscalar_harness::pool::Pool;
use multiscalar_harness::{prepare, prepare_all, Bench};
use multiscalar_sim::arb::ArbConfig;
use multiscalar_sim::replay::{record_replay, simulate_replay};
use multiscalar_sim::timing::{
    simulate, ForwardingModel, IntraPredictorKind, NextTaskPredictor, TimingConfig, TimingResult,
};
use multiscalar_workloads::{Spec92, WorkloadParams};

fn params() -> WorkloadParams {
    WorkloadParams {
        seed: 0xC0FFEE,
        scale: 1,
    }
}

fn legacy(
    b: &multiscalar_harness::Bench,
    column: Table4Column,
    config: &TimingConfig,
) -> TimingResult {
    let mut pred = column.predictor();
    simulate(
        &b.workload.program,
        &b.tasks,
        &b.descs,
        pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
        config,
        b.workload.max_steps,
    )
    .expect("legacy simulation succeeds")
}

fn replayed(
    replay: &multiscalar_sim::replay::InstrReplay,
    b: &multiscalar_harness::Bench,
    column: Table4Column,
    config: &TimingConfig,
) -> TimingResult {
    let mut pred = column.predictor();
    simulate_replay(
        replay,
        &b.descs,
        pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
        config,
    )
}

#[test]
fn replay_matches_interpreter_for_all_columns_on_all_workloads() {
    let config = TimingConfig::default();
    for spec in Spec92::ALL {
        let b = prepare(spec, &params());
        let replay = record_replay(&b.workload.program, &b.tasks, b.workload.max_steps)
            .expect("recording succeeds");
        for column in Table4Column::ALL {
            let slow = legacy(&b, column, &config);
            let fast = replayed(&replay, &b, column, &config);
            assert_eq!(
                slow,
                fast,
                "{spec}/{}: replay must be bit-identical",
                column.name()
            );
        }
    }
}

/// The PATH task predictor `ext-confidence` drives both of its timing
/// runs with.
fn confidence_predictor() -> TaskPredictor<PathPredictor<LastExitHysteresis<2>>> {
    TaskPredictor::path(Dolc::new(7, 5, 7, 8, 3), Dolc::new(7, 4, 4, 5, 3), 64)
}

fn arb(banks: usize, entries_per_bank: usize) -> TimingConfig {
    TimingConfig::paper().arb(Some(ArbConfig {
        banks,
        entries_per_bank,
        stages: 4,
    }))
}

/// Covers every config the replay-driven `ext` timing experiments run —
/// `ext-memory`'s forwarding/ARB configs (the 1 × 1 ARB included),
/// `ext-intra`'s three intra-task predictors, `ext-confidence`'s gated and
/// ungated runs under its own PATH predictor — plus further ablations, on
/// every workload.
#[test]
fn replay_matches_interpreter_across_ablation_configs() {
    let configs = [
        TimingConfig::paper(),
        TimingConfig::paper().forwarding(ForwardingModel::ReleaseAtEnd),
        TimingConfig::paper().intra_predictor(IntraPredictorKind::Bimodal),
        TimingConfig::paper().intra_predictor(IntraPredictorKind::Gshare),
        TimingConfig::paper().intra_predictor(IntraPredictorKind::McFarling),
        TimingConfig::paper().arb(None),
        arb(1, 4),
        arb(1, 1),
        TimingConfig::paper()
            .n_units(8)
            .issue_width(4)
            .confidence_gate(Some(2)),
    ];
    let gated = [
        TimingConfig::paper(),
        TimingConfig::paper().confidence_gate(Some(8)),
    ];
    for spec in Spec92::ALL {
        let b = prepare(spec, &params());
        for config in &configs {
            for column in [Table4Column::Path, Table4Column::Perfect] {
                let slow = legacy(&b, column, config);
                let fast = replayed(&b.replay, &b, column, config);
                assert_eq!(
                    slow,
                    fast,
                    "{spec}/{:?}/{}: replay must be bit-identical",
                    config,
                    column.name()
                );
            }
        }
        for config in &gated {
            let slow = simulate(
                &b.workload.program,
                &b.tasks,
                &b.descs,
                Some(&mut confidence_predictor()),
                config,
                b.workload.max_steps,
            )
            .expect("legacy simulation succeeds");
            let fast = simulate_replay(
                &b.replay,
                &b.descs,
                Some(&mut confidence_predictor()),
                config,
            );
            assert_eq!(
                slow, fast,
                "{spec}/{config:?}/confidence PATH: replay must be bit-identical"
            );
        }
    }
}

/// `ext-memory`, `ext-intra` and `ext-confidence` rows, which replay the
/// recording, equal rows built from interpreter-driven `simulate` runs.
#[test]
fn ext_timing_rows_match_interpreter_rows() {
    let pool = Pool::new(2);
    let benches = prepare_all(&params());
    let interp = |b: &Bench, predictor: Option<&mut dyn NextTaskPredictor>, config| {
        simulate(
            &b.workload.program,
            &b.tasks,
            &b.descs,
            predictor,
            &config,
            b.workload.max_steps,
        )
        .expect("legacy simulation succeeds")
    };
    let paper = TimingConfig::paper();

    for (b, row) in benches.iter().zip(ext_memory(&benches, &pool)) {
        let eager = interp(b, None, paper);
        let release = interp(b, None, paper.forwarding(ForwardingModel::ReleaseAtEnd));
        let ideal_mem = interp(b, None, paper.arb(None));
        let tiny = interp(b, None, arb(1, 1));
        let expected = MemoryRow {
            name: b.name(),
            eager_ipc: eager.ipc(),
            release_ipc: release.ipc(),
            ideal_mem_ipc: ideal_mem.ipc(),
            tiny_arb_ipc: tiny.ipc(),
            violations: eager.arb_violations,
            full_stalls: eager.arb_full_stalls,
            tiny_full_stalls: tiny.arb_full_stalls,
        };
        assert_eq!(format!("{row:?}"), format!("{expected:?}"));
    }

    for (b, row) in benches.iter().zip(ext_intra(&benches, &pool)) {
        let runs = [
            IntraPredictorKind::Bimodal,
            IntraPredictorKind::Gshare,
            IntraPredictorKind::McFarling,
        ]
        .map(|kind| interp(b, None, paper.intra_predictor(kind)));
        let expected = IntraRow {
            name: b.name(),
            ipc: runs.each_ref().map(|r| r.ipc()),
            mispredicts: runs.each_ref().map(|r| r.intra_mispredicts),
        };
        assert_eq!(format!("{row:?}"), format!("{expected:?}"));
    }

    for (b, row) in benches.iter().zip(ext_confidence(&benches, &pool)) {
        let always = interp(b, Some(&mut confidence_predictor()), paper);
        let gated = interp(
            b,
            Some(&mut confidence_predictor()),
            paper.confidence_gate(Some(8)),
        );
        let expected = ConfidenceRow {
            name: b.name(),
            always_ipc: always.ipc(),
            gated_ipc: gated.ipc(),
            gated_frac: gated.gated_boundaries as f64 / gated.dynamic_tasks.max(1) as f64,
            miss_rate: always.task_miss_rate(),
        };
        assert_eq!(format!("{row:?}"), format!("{expected:?}"));
    }
}

#[test]
fn table4_replay_rows_match_legacy_rows() {
    use multiscalar_harness::experiments::{table4, Engine};
    use multiscalar_harness::pool::Pool;

    let pool = Pool::new(2);
    let benches = vec![prepare(Spec92::Compress, &params())];
    let config = TimingConfig::default();
    let legacy_rows = table4(&benches, &config, &pool, Engine::Legacy);
    let replay_rows = table4(&benches, &config, &pool, Engine::Replay);
    assert_eq!(legacy_rows.len(), replay_rows.len());
    for (l, r) in legacy_rows.iter().zip(&replay_rows) {
        assert_eq!(l.name, r.name);
        assert_eq!(l.simple, r.simple);
        assert_eq!(l.global, r.global);
        assert_eq!(l.per, r.per);
        assert_eq!(l.path, r.path);
        assert_eq!(l.perfect, r.perfect);
    }
}
