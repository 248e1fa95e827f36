//! Structural proof of the lane-packed real-PATH sweep: `path_real_sweep`
//! runs one lane-packed walk per word of configurations, asserted via the
//! `lane_packed_sweeps` counter (never inferred from timing), and its
//! results equal the scalar oracle's.
//!
//! This lives in its own binary — one `#[test]` — on purpose: the counter
//! is process-global, and sharing a process with other sweep-running tests
//! would race the deltas.

use multiscalar_core::dolc::Dolc;
use multiscalar_harness::dispatch::{exit_ladder, path_real_sweep, path_real_sweep_scalar};
use multiscalar_harness::prepare_all;
use multiscalar_sim::measure::lane_packed_sweeps;
use multiscalar_workloads::WorkloadParams;

/// The ladder packs as one sweep per workload, and a sweep wider than a
/// word packs as one sweep per word; both match the scalar oracle. Checked
/// on every Spec92 workload at scale 1.
#[test]
fn real_path_sweep_packs_one_walk_per_word() {
    let configs = exit_ladder();
    // LEH lanes are 4 bits wide, so a u64 holds 16: 17 configs are two
    // words.
    let wide_configs: Vec<Dolc> = (0..17).map(|_| Dolc::new(4, 4, 6, 6, 2)).collect();
    let benches = prepare_all(&WorkloadParams::small(0xC0FFEE));

    let ladder_before = lane_packed_sweeps();
    for b in &benches {
        let name = b.name();
        let before = lane_packed_sweeps();
        let ladder = path_real_sweep(&configs, b);
        assert_eq!(
            lane_packed_sweeps() - before,
            1,
            "{name}: the ladder is one lane-packed sweep, the oracle none"
        );
        assert_eq!(
            ladder,
            path_real_sweep_scalar(&configs, &b.descs, &b.trace.events),
            "{name}: lane-packed LEH-2bit must match the scalar oracle"
        );
    }
    assert_eq!(
        lane_packed_sweeps() - ladder_before,
        5,
        "the ladder over all five workloads is five lane-packed sweeps"
    );

    for b in &benches {
        let name = b.name();
        let before = lane_packed_sweeps();
        let wide = path_real_sweep(&wide_configs, b);
        assert_eq!(
            lane_packed_sweeps() - before,
            2,
            "{name}: a 17-config sweep packs as two words"
        );
        assert_eq!(
            wide,
            path_real_sweep_scalar(&wide_configs, &b.descs, &b.trace.events),
            "{name}: the two-word sweep must match the scalar oracle"
        );
    }
}
