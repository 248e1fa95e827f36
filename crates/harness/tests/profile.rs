//! Cycle-attribution invariants: every cycle of every run is attributed to
//! exactly one cause (the breakdown sums to `TimingResult::cycles`), the
//! attribution is engine-independent (legacy interpreter vs record-once
//! replay produce byte-identical breakdowns), attaching a sink never
//! perturbs timing, and `profile --json` keeps its published schema.

use multiscalar_harness::dispatch::Table4Column;
use multiscalar_harness::pool::Pool;
use multiscalar_harness::{prepare, profile};
use multiscalar_sim::metrics::{Cause, CycleBreakdown};
use multiscalar_sim::replay::{record_replay, simulate_replay, simulate_replay_with_sink};
use multiscalar_sim::timing::{simulate_with_sink, NextTaskPredictor, TimingConfig};
use multiscalar_workloads::{Spec92, WorkloadParams};

/// FNV-1a 64 of the compress/PATH event log at scale 1.
const EVENT_LOG_DIGEST: u64 = 0x16be_cac6_f566_6f19;

fn params() -> WorkloadParams {
    WorkloadParams::small(0xC0FFEE)
}

/// Every workload × predictor column, on both engines: the breakdown sums
/// exactly to the run's cycle count, both engines report byte-identical
/// breakdowns, and a live sink leaves the `TimingResult` untouched.
#[test]
fn attribution_sums_exactly_and_is_engine_independent() {
    let config = TimingConfig::paper();
    for spec in Spec92::ALL {
        let b = prepare(spec, &params());
        let replay = record_replay(&b.workload.program, &b.tasks, b.workload.max_steps)
            .expect("recording succeeds");
        for column in Table4Column::ALL {
            let mut legacy_bd = CycleBreakdown::new();
            let mut pred = column.predictor();
            let legacy = simulate_with_sink(
                &b.workload.program,
                &b.tasks,
                &b.descs,
                pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
                &config,
                b.workload.max_steps,
                &mut legacy_bd,
            )
            .expect("legacy simulation succeeds");

            let mut replay_bd = CycleBreakdown::new();
            let mut pred = column.predictor();
            let fast = simulate_replay_with_sink(
                &replay,
                &b.descs,
                pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
                &config,
                &mut replay_bd,
            );

            let label = format!("{spec}/{}", column.name());
            assert_eq!(legacy, fast, "{label}: engines must agree on timing");
            assert_eq!(
                legacy_bd, replay_bd,
                "{label}: engines must agree on attribution"
            );
            assert_eq!(
                legacy_bd.total(),
                legacy.cycles,
                "{label}: every cycle must be attributed exactly once"
            );
            assert!(
                legacy_bd.get(Cause::UsefulIssue) > 0,
                "{label}: some cycles must be useful issue"
            );

            // A live sink must be a pure observer: the no-sink path returns
            // the same result bit for bit.
            let mut pred = column.predictor();
            let unobserved = simulate_replay(
                &replay,
                &b.descs,
                pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
                &config,
            );
            assert_eq!(unobserved, fast, "{label}: sink must not perturb timing");
        }
    }
}

/// Masks every run of digits (including decimal points between digits)
/// with `#`, leaving structure, keys and fixed keywords intact.
fn mask_numbers(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_ascii_digit() {
            while let Some(&n) = chars.peek() {
                if n.is_ascii_digit()
                    || (n == '.' && {
                        let mut ahead = chars.clone();
                        ahead.next();
                        ahead.peek().is_some_and(char::is_ascii_digit)
                    })
                {
                    chars.next();
                } else {
                    break;
                }
            }
            out.push('#');
        } else {
            out.push(c);
        }
    }
    out
}

/// `profile --json` keeps its golden schema: same structure, keys, cause
/// vocabulary and column order, with only the numbers free to change.
#[test]
fn profile_json_matches_golden_schema() {
    let pool = Pool::new(2);
    let benches = vec![prepare(Spec92::Compress, &params())];
    let rows = profile::profile(&benches, &TimingConfig::paper(), &pool, false);
    let json = profile::to_json(&rows);
    assert_eq!(
        mask_numbers(&json),
        include_str!("golden/profile_schema.txt"),
        "profile.json schema drifted; update tests/golden/profile_schema.txt \
         and bump PROFILE_SCHEMA_VERSION if the change is breaking"
    );

    // Cross-check the serialised breakdowns against the structured rows.
    for row in &rows {
        for cell in &row.cells {
            assert_eq!(cell.breakdown.total(), cell.result.cycles);
        }
    }
}

/// `--occupancy` rides the same pass without perturbing it: every cell's
/// timing and breakdown match the occupancy-free run bit for bit, each
/// unit's busy + stalled + idle equals the run's cycles, and the extra
/// columns appear in the render only when requested.
#[test]
fn occupancy_is_a_pure_observer_and_sums_per_unit() {
    let pool = Pool::new(2);
    let config = TimingConfig::paper();
    let benches = vec![prepare(Spec92::Compress, &params())];
    let plain = profile::profile(&benches, &config, &pool, false);
    let with_occ = profile::profile(&benches, &config, &pool, true);

    for (p_row, o_row) in plain.iter().zip(&with_occ) {
        for (p, o) in p_row.cells.iter().zip(&o_row.cells) {
            assert_eq!(p.result, o.result, "occupancy must not perturb timing");
            assert_eq!(p.breakdown, o.breakdown, "nor the attribution");
            assert!(p.occupancy.is_none());
            let occ = o.occupancy.as_ref().expect("occupancy collected");
            assert_eq!(occ.n_units(), config.n_units);
            for u in 0..occ.n_units() {
                assert_eq!(
                    occ.busy()[u] + occ.stalled()[u] + occ.idle()[u],
                    o.result.cycles,
                    "unit {u} must account for every cycle"
                );
            }
            assert!(occ.busy_frac() > 0.0, "some unit-cycles must be busy");
        }
    }

    let plain_render = profile::render(&plain);
    let occ_render = profile::render(&with_occ);
    assert!(!plain_render.contains("u.busy"));
    assert!(occ_render.contains("u.busy") && occ_render.contains("u.idle"));
    assert!(
        occ_render.starts_with(&plain_render[..plain_render.find('\n').unwrap()]),
        "shared header line"
    );
}

/// The task-level event log is well-formed JSON lines covering the whole
/// run: one resolve per dynamic task, a squash line per non-gated
/// mispredict, and a final halt record.
#[test]
fn event_log_covers_the_run() {
    let b = prepare(Spec92::Compress, &params());
    let config = TimingConfig::paper();
    let log = profile::events_jsonl(&b, Table4Column::Path, &config);
    let resolves = log.lines().filter(|l| l.contains("\"resolve\"")).count();
    let squashes = log.lines().filter(|l| l.contains("\"squash\"")).count();
    assert!(resolves > 0, "log must contain task resolutions");
    assert!(squashes > 0, "a real predictor must squash somewhere");
    assert!(squashes <= resolves, "at most one squash per boundary");
    let halt = log.lines().last().expect("log is non-empty");
    assert!(
        halt.contains("\"halt\""),
        "log must end with the halt record"
    );
    for line in log.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed event line: {line}"
        );
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The event log's bytes are pinned: its `predicted` field is the only
/// place a sink reads the predicted next-task address, which the replay
/// walk takes from the predictor pass's target stream.
#[test]
fn event_log_bytes_are_pinned() {
    let b = prepare(Spec92::Compress, &params());
    let log = profile::events_jsonl(&b, Table4Column::Path, &TimingConfig::paper());
    let digest = fnv1a(log.as_bytes());
    assert_eq!(
        digest, EVENT_LOG_DIGEST,
        "compress/PATH event log digest {digest:#018x}"
    );
}
