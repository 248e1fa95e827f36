//! The functional-miss oracle: paper §3.1 trains every predictor in
//! program order with immediate updates, so each prediction's outcome is a
//! function of the execution alone and never of the cycle count. Table 4's
//! task-level counts must therefore equal a fresh predictor walked over
//! the functional trace — not over the replay's boundary arrays the
//! timing walk reads — and the intra-task and ARB counts, which no
//! inter-task predictor changes, must agree across a benchmark's columns.

use multiscalar_core::confidence::ConfidenceEstimator;
use multiscalar_core::predictor::TaskDesc;
use multiscalar_harness::dispatch::Table4Column;
use multiscalar_harness::experiments::{table4, Table4Row};
use multiscalar_harness::pool::Pool;
use multiscalar_harness::{prepare_all, Bench};
use multiscalar_sim::arb::ArbConfig;
use multiscalar_sim::timing::{NextTaskPredictor, TimingConfig, TimingResult};
use multiscalar_sim::trace::SharedTrace;
use multiscalar_workloads::WorkloadParams;

/// The CIR table size the timing model's confidence gate uses.
const CONFIDENCE_INDEX_BITS: u32 = 12;

/// ext-confidence's gate.
const GATE: u8 = 8;

fn columns(row: &Table4Row) -> [TimingResult; 5] {
    [row.simple, row.global, row.per, row.path, row.perfect]
}

/// Walks `pred` over the trace in program order: (boundaries whose
/// predicted next-task address is wrong, boundaries a CIR estimator with
/// threshold [`GATE`] rates low-confidence).
fn functional_counts(
    pred: &mut dyn NextTaskPredictor,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> (u64, u64) {
    let mut confidence = ConfidenceEstimator::new(CONFIDENCE_INDEX_BITS, GATE);
    let (mut misses, mut gated) = (0u64, 0u64);
    for e in events {
        let desc = &descs[e.task.index()];
        let miss = pred.predict_next(desc) != Some(e.next);
        pred.resolve(desc, e.exit, e.next);
        gated += u64::from(!confidence.high_confidence(desc.entry()));
        confidence.update(desc.entry(), !miss);
        misses += u64::from(miss);
    }
    (misses, gated)
}

fn functional(column: Table4Column, b: &Bench) -> (u64, u64) {
    match column.predictor() {
        Some(mut p) => functional_counts(p.as_mut(), &b.descs, &b.trace.events),
        None => (0, 0),
    }
}

#[test]
fn table4_counts_match_the_functional_oracle() {
    let benches = prepare_all(&WorkloadParams::small(0xC0FFEE));
    let pool = Pool::new(2);
    // The paper's machine, ext-confidence's gate, and ext-memory's
    // one-entry ARB: the paper's ARB never fills, so only a tiny one makes
    // the shared ARB-full count a real comparison.
    let small_arb = ArbConfig {
        banks: 1,
        entries_per_bank: 1,
        stages: 4,
    };
    let configs = [
        TimingConfig::paper(),
        TimingConfig::paper().confidence_gate(Some(GATE)),
        TimingConfig::paper().arb(Some(small_arb)),
    ];
    for config in &configs {
        let rows = table4(&benches, config, &pool);
        for (b, row) in benches.iter().zip(&rows) {
            let cols = columns(row);
            for (column, r) in Table4Column::ALL.into_iter().zip(cols) {
                let label = format!("{}/{} under {config:?}", b.name(), column.name());
                let (misses, low_confidence) = functional(column, b);
                let gated = if config.confidence_gate.is_some() {
                    low_confidence
                } else {
                    0
                };
                let events = b.trace.events.len() as u64;
                assert_eq!(r.dynamic_tasks, events, "{label}: one task per event");
                assert_eq!(r.task_mispredicts, misses, "{label}: task mispredicts");
                assert_eq!(r.gated_boundaries, gated, "{label}: gated boundaries");
                assert_eq!(
                    (r.intra_mispredicts, r.arb_full_stalls),
                    (cols[0].intra_mispredicts, cols[0].arb_full_stalls),
                    "{label}: intra mispredicts and ARB-full stalls are shared by every column"
                );
            }
            assert!(
                row.path.task_mispredicts > 0 && row.path.intra_mispredicts > 0,
                "{}: the oracle must compare real counts",
                b.name()
            );
            if config.arb == Some(small_arb) {
                assert!(
                    row.path.arb_full_stalls > 0,
                    "{}: a one-entry ARB must overflow",
                    b.name()
                );
            }
        }
    }
}
