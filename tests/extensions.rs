//! Integration tests for the extension experiments — each asserts the
//! headline property its EXPERIMENTS.md section reports.

use multiscalar::harness::extensions::{
    ext_confidence, ext_hybrid, ext_memory, ext_pollution, ext_staleness, ext_taskform,
};
use multiscalar::harness::pool::Pool;
use multiscalar::harness::{prepare, prepare_all};
use multiscalar::workloads::{Spec92, WorkloadParams};

fn params() -> WorkloadParams {
    WorkloadParams {
        seed: 0xC0FFEE,
        scale: 1,
    }
}

/// §3.1: the paper's immediate-update idealisation is nearly free — even a
/// 16-deep training delay moves the miss rate by well under one point.
#[test]
fn staleness_is_nearly_free() {
    let b = prepare(Spec92::Gcc, &params());
    let rows = ext_staleness(std::slice::from_ref(&b), &Pool::new(2));
    let miss = &rows[0].miss;
    let spread = miss
        .iter()
        .fold(0.0f64, |acc, &m| acc.max((m - miss[0]).abs()));
    assert!(
        spread < 0.005,
        "training delay must cost <0.5 points on gcc, cost {spread:.4}"
    );
    // And delayed training can essentially never help (same half-point
    // noise floor as the spread bound above).
    assert!(miss.last().unwrap() >= &(miss[0] - 0.005));
}

/// The tournament never does meaningfully worse than its better component,
/// and wins outright somewhere.
#[test]
fn hybrid_tracks_the_better_component() {
    let benches = prepare_all(&params());
    let rows = ext_hybrid(&benches, &Pool::new(2));
    let mut strict_win = false;
    for r in &rows {
        let best = r.path.min(r.per);
        assert!(
            r.hybrid <= best + 0.01,
            "{}: hybrid {:.4} must track best component {:.4}",
            r.name,
            r.hybrid,
            best
        );
        if r.hybrid < best - 0.001 {
            strict_win = true;
        }
    }
    assert!(
        strict_win,
        "per-task choosing should beat both components somewhere"
    );
}

/// §3.2: PATH's advantage over GLOBAL survives re-partitioning at the
/// default and large task budgets on the hard benchmarks.
#[test]
fn predictor_ordering_survives_reforming() {
    let rows = ext_taskform(&params(), &Pool::new(2));
    for r in rows {
        if r.config.starts_with("small") {
            continue; // tiny tasks push context beyond the window — see EXPERIMENTS.md
        }
        if r.name == "gcc" || r.name == "xlisp" {
            let [global, _per, path] = r.miss;
            assert!(
                path <= global,
                "{} / {}: PATH ({path:.4}) must not lose to GLOBAL ({global:.4})",
                r.name,
                r.config
            );
        }
    }
}

/// Release-at-end forwarding is never faster than eager forwarding, and an
/// ideal memory system is never slower than the ARB-modelled one.
#[test]
fn memory_substrate_orderings() {
    let benches = prepare_all(&params());
    for r in ext_memory(&benches, &Pool::new(2)) {
        assert!(
            r.release_ipc <= r.eager_ipc + 1e-9,
            "{}: release-at-end cannot beat eager forwarding",
            r.name
        );
        assert!(
            r.ideal_mem_ipc >= r.eager_ipc - 1e-9,
            "{}: ideal memory cannot lose to the ARB model",
            r.name
        );
        assert!(
            r.tiny_arb_ipc <= r.ideal_mem_ipc + 1e-9,
            "{}: an undersized ARB cannot beat ideal memory",
            r.name
        );
        assert!(
            r.tiny_full_stalls > 0,
            "{}: a 1-entry ARB must overflow",
            r.name
        );
    }
}

/// Confidence gating trades overlap for squashes: it must help where task
/// mispredictions are frequent.
#[test]
fn confidence_gating_helps_hard_benchmarks() {
    let benches: Vec<_> = [Spec92::Sc, Spec92::Compress]
        .iter()
        .map(|&s| prepare(s, &params()))
        .collect();
    for r in ext_confidence(&benches, &Pool::new(2)) {
        assert!(
            r.miss_rate > 0.05,
            "{}: this test targets hard benchmarks",
            r.name
        );
        assert!(
            r.gated_ipc > r.always_ipc,
            "{}: gating must pay off at ~{:.0}% miss rate ({:.2} vs {:.2})",
            r.name,
            r.miss_rate * 100.0,
            r.gated_ipc,
            r.always_ipc
        );
        assert!(r.gated_frac > 0.02 && r.gated_frac < 0.9);
    }
}

/// §3.1's other idealisation: perfect repair makes wrong-path pollution
/// exactly free, and even unrepaired pollution is bounded.
#[test]
fn pollution_repair_is_exactly_free() {
    let b = prepare(Spec92::Gcc, &params());
    let rows = ext_pollution(std::slice::from_ref(&b), &Pool::new(2));
    let r = &rows[0];
    assert!(
        (r.repaired - r.unrepaired[0]).abs() < 1e-12,
        "repaired pollution must equal the clean baseline"
    );
    for (d, m) in r.unrepaired.iter().enumerate() {
        assert!(
            *m >= r.unrepaired[0] - 1e-12,
            "unrepaired pollution cannot help (depth index {d})"
        );
        assert!(
            *m < r.unrepaired[0] + 0.03,
            "pollution damage stays bounded"
        );
    }
}
