//! Predictor shoot-out: every automaton and every history scheme on one
//! benchmark, at a fixed history depth — a condensed view of the paper's
//! Figures 6 and 7.
//!
//! ```sh
//! cargo run --release --example predictor_shootout -- [benchmark] [depth]
//! ```

use multiscalar::core::automata::AutomatonKind;
use multiscalar::harness::dispatch::{measure_ideal, measure_ideal_path_automaton_sweep, Scheme};
use multiscalar::harness::prepare;
use multiscalar::workloads::{Spec92, WorkloadParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let spec = args
        .next()
        .and_then(|n| Spec92::from_name(&n))
        .unwrap_or(Spec92::Gcc);
    let depth: u32 = args.next().and_then(|d| d.parse().ok()).unwrap_or(7);

    println!("preparing {spec} (this builds, task-forms and traces the program)...");
    let bench = prepare(spec, &WorkloadParams::small(42));
    println!(
        "{} dynamic tasks, {} distinct\n",
        bench.trace.stats.dynamic_tasks, bench.trace.stats.distinct_tasks
    );

    println!("history schemes (ideal, LEH-2bit automaton, depth {depth}):");
    for scheme in Scheme::ALL {
        let stats = measure_ideal(scheme, depth, &bench);
        println!(
            "  {:<8} {:>7.2}% miss",
            scheme.name(),
            stats.miss_rate() * 100.0
        );
    }

    println!("\nprediction automata (ideal PATH indexing, depth {depth}):");
    for kind in AutomatonKind::ALL {
        let stats = measure_ideal_path_automaton_sweep(kind, &[depth], &bench)[0];
        println!(
            "  {:<16} {:>7.2}% miss  ({} bits/entry)",
            kind.name(),
            stats.miss_rate() * 100.0,
            kind.storage_bits()
        );
    }
}
