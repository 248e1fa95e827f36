//! `--threads N` must be byte-identical to `--threads 1`: the pool collects
//! results in submission order and every job is a pure function of the
//! shared immutable trace, so parallelism can never change output.

use multiscalar_harness::pool::Pool;
use multiscalar_harness::{csv, experiments, extensions, prepare_all_with, profile, report};
use multiscalar_sim::timing::TimingConfig;
use multiscalar_workloads::WorkloadParams;

/// Renders every pool-driven experiment to its CSV form — the exact bytes
/// `harness csv` writes — under the given pool.
fn all_csv(pool: &Pool) -> String {
    let params = WorkloadParams::small(0xC0FFEE);
    let benches = prepare_all_with(&params, pool);
    let mut out = String::new();
    out.push_str(&csv::fig6(&experiments::fig6(&benches[0], pool)));
    out.push_str(&csv::fig7(&experiments::fig7(&benches, pool)));
    out.push_str(&csv::fig8(&experiments::fig8(&benches, pool)));
    out.push_str(&csv::fig10(&experiments::fig10(&benches, pool)));
    out.push_str(&csv::fig11(&experiments::fig11(&benches, pool)));
    out.push_str(&csv::fig12(&experiments::fig12(&benches, pool)));
    out.push_str(&csv::table3(&experiments::table3(&benches, pool)));
    out.push_str(&csv::table4(&experiments::table4(
        &benches,
        &TimingConfig::default(),
        pool,
        experiments::Engine::Replay,
    )));
    // The cycle-attribution profile rides the same pool; its JSON (cycle
    // counts per cause included) must be byte-identical too.
    out.push_str(&profile::to_json(&profile::profile(
        &benches,
        &TimingConfig::default(),
        pool,
        false,
    )));
    out
}

#[test]
fn csv_output_is_byte_identical_across_thread_counts() {
    let serial = all_csv(&Pool::new(1));
    for threads in [2, 8] {
        let parallel = all_csv(&Pool::new(threads));
        assert_eq!(
            serial, parallel,
            "CSV output diverged between --threads 1 and --threads {threads}"
        );
    }
}

/// Renders all eight `ext` experiments — the exact text `harness ext`
/// prints — plus the two `ext` CSVs, under the given pool.
fn all_ext(pool: &Pool) -> String {
    let params = WorkloadParams::small(0xC0FFEE);
    let benches = prepare_all_with(&params, pool);
    let mut out = String::new();
    let staleness = extensions::ext_staleness(&benches, pool);
    out.push_str(&report::render_staleness(&staleness));
    out.push_str(&csv::staleness(&staleness));
    out.push_str(&report::render_hybrid(&extensions::ext_hybrid(
        &benches, pool,
    )));
    out.push_str(&report::render_taskform(&extensions::ext_taskform(
        &params, pool,
    )));
    out.push_str(&report::render_memory(&extensions::ext_memory(
        &benches, pool,
    )));
    out.push_str(&report::render_confidence(&extensions::ext_confidence(
        &benches, pool,
    )));
    out.push_str(&report::render_intra(&extensions::ext_intra(
        &benches, pool,
    )));
    let pollution = extensions::ext_pollution(&benches, pool);
    out.push_str(&report::render_pollution(&pollution));
    out.push_str(&csv::pollution(&pollution));
    out.push_str(&report::render_zoo(&extensions::ext_zoo(&benches, pool)));
    out
}

#[test]
fn ext_output_is_byte_identical_across_thread_counts() {
    let serial = all_ext(&Pool::new(1));
    for threads in [2, 8] {
        let parallel = all_ext(&Pool::new(threads));
        assert_eq!(
            serial, parallel,
            "ext output diverged between --threads 1 and --threads {threads}"
        );
    }
}
