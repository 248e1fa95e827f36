//! Extension experiments beyond the paper's artifacts:
//!
//! * [`ext_staleness`] — the cost of the paper's §3.1 update-timing
//!   idealisation, measured with delayed PHT training;
//! * [`ext_pollution`] — the other §3.1 idealisation: wrong-path
//!   pollution of the speculative path register, with and without repair;
//! * [`ext_hybrid`] — a PATH/PER tournament predictor against its
//!   components (the follow-on design Figure 7 invites);
//! * [`ext_taskform`] — the paper's §3.2 claim that the *relative*
//!   performance of predictors is consistent across compilations, tested
//!   by re-partitioning every benchmark with three task-former budgets;
//! * [`ext_memory`] — the timing simulator's ARB and register-forwarding
//!   substrate models (violations, overflow stalls, release-at-end cost);
//! * [`ext_intra`] — the processing units' intra-task branch predictor;
//! * [`ext_confidence`] — CIR confidence-gated task speculation;
//! * [`ext_zoo`] — predictor families beyond the paper, ranked on the
//!   paper workloads and a pinned fuzz corpus.
//!
//! Like [`crate::experiments`], every extension fans its grid out on a
//! [`Pool`] — (benchmark × configuration) for most, as documented on each
//! function — and collects results in submission order, so any pool width
//! produces byte-identical output. Every timing run replays the
//! benchmark's recorded [`Bench::replay`]; none re-interprets the program.

use crate::dispatch::{measure_ideal_on, Scheme};
use crate::pool::{Job, Pool};
use crate::{prepare, Bench};
use multiscalar_core::automata::LastExitHysteresis;
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::{PathPredictor, PerTaskPredictor};
use multiscalar_core::pollution::{PollutedExitAdapter, PollutedPathPredictor};
use multiscalar_core::predictor::{TaskDesc, TaskPredictor};
use multiscalar_core::stale::StalePathPredictor;
use multiscalar_core::tournament::TournamentPredictor;
use multiscalar_sim::measure::{measure_exits, task_descs};
use multiscalar_sim::replay::{derive_trace, record_replay, simulate_replay, InstrReplay};
use multiscalar_sim::timing::{ForwardingModel, NextTaskPredictor, TimingConfig, TimingResult};
use multiscalar_sim::trace::{collect_trace, SharedTrace};
use multiscalar_taskform::{TaskFormConfig, TaskFormer};
use multiscalar_workloads::{Spec92, WorkloadParams};

type Leh2 = LastExitHysteresis<2>;

/// Fans `per_bench` jobs per benchmark out on `pool` — job `(b, i)` runs
/// `job(b, i)` — and regroups the results per benchmark, in job order.
fn fan_out<T: Send>(
    benches: &[Bench],
    per_bench: usize,
    pool: &Pool,
    job: impl Fn(&Bench, usize) -> T + Sync,
) -> Vec<Vec<T>> {
    let job = &job;
    let jobs: Vec<Job<'_, T>> = benches
        .iter()
        .flat_map(|b| (0..per_bench).map(move |i| Box::new(move || job(b, i)) as Job<'_, T>))
        .collect();
    let mut results = pool.run(jobs).into_iter();
    benches
        .iter()
        .map(|_| results.by_ref().take(per_bench).collect())
        .collect()
}

/// Replays every benchmark under every config on `pool`, one job per
/// (benchmark × config), each with a fresh predictor from `predictor`
/// (`None` = perfect task prediction). Results are grouped per benchmark,
/// in config order.
fn replay_grid(
    benches: &[Bench],
    configs: &[TimingConfig],
    pool: &Pool,
    predictor: impl Fn() -> Option<Box<dyn NextTaskPredictor>> + Sync,
) -> Vec<Vec<TimingResult>> {
    fan_out(benches, configs.len(), pool, |b, i| {
        let mut p = predictor();
        let p = p.as_mut().map(|p| p.as_mut() as &mut dyn NextTaskPredictor);
        simulate_replay(&b.replay, &b.descs, p, &configs[i])
    })
}

/// Training delays swept by [`ext_staleness`].
pub const STALENESS_DELAYS: [usize; 6] = [0, 1, 2, 4, 8, 16];

/// One row of the staleness study.
#[derive(Debug, Clone)]
pub struct StalenessRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Miss rate per delay in [`STALENESS_DELAYS`].
    pub miss: Vec<f64>,
}

/// Measures how much accuracy delayed (realistic) PHT training costs,
/// using the paper's 8 KB `6-5-8-9 (3)` PATH configuration. One job per
/// (benchmark × delay).
pub fn ext_staleness(benches: &[Bench], pool: &Pool) -> Vec<StalenessRow> {
    let miss = fan_out(benches, STALENESS_DELAYS.len(), pool, |b, i| {
        let mut p: StalePathPredictor<Leh2> =
            StalePathPredictor::new(Dolc::new(6, 5, 8, 9, 3), STALENESS_DELAYS[i]);
        measure_exits(&mut p, &b.descs, &b.trace.events).miss_rate()
    });
    benches
        .iter()
        .zip(miss)
        .map(|(b, miss)| StalenessRow {
            name: b.name(),
            miss,
        })
        .collect()
}

/// One row of the hybrid study.
#[derive(Debug, Clone)]
pub struct HybridRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Real PATH component alone (8 KB).
    pub path: f64,
    /// Real PER component alone (8 KB).
    pub per: f64,
    /// The tournament of both (16 KB + 0.25 KB chooser).
    pub hybrid: f64,
}

/// Measures the PATH/PER tournament predictor against its components. One
/// job per (benchmark × component), the tournament counting as one.
pub fn ext_hybrid(benches: &[Bench], pool: &Pool) -> Vec<HybridRow> {
    let rates = fan_out(benches, 3, pool, |b, component| {
        let path = || PathPredictor::<Leh2>::new(Dolc::new(6, 5, 8, 9, 3));
        let per = || PerTaskPredictor::<Leh2>::new(7, 8, 6);
        let stats = match component {
            0 => measure_exits(&mut path(), &b.descs, &b.trace.events),
            1 => measure_exits(&mut per(), &b.descs, &b.trace.events),
            _ => measure_exits(
                &mut TournamentPredictor::new(path(), per(), 10),
                &b.descs,
                &b.trace.events,
            ),
        };
        stats.miss_rate()
    });
    benches
        .iter()
        .zip(rates)
        .map(|(b, rates)| HybridRow {
            name: b.name(),
            path: rates[0],
            per: rates[1],
            hybrid: rates[2],
        })
        .collect()
}

/// Task-former budgets compared by [`ext_taskform`]: small, default, large
/// tasks.
pub const TASKFORM_CONFIGS: [(&str, TaskFormConfig); 3] = [
    (
        "small (8/2)",
        TaskFormConfig {
            max_instrs: 8,
            max_blocks: 2,
        },
    ),
    (
        "default (32/12)",
        TaskFormConfig {
            max_instrs: 32,
            max_blocks: 12,
        },
    ),
    (
        "large (64/24)",
        TaskFormConfig {
            max_instrs: 64,
            max_blocks: 24,
        },
    ),
];

/// One row of the cross-compilation study: miss rates of the three ideal
/// schemes (depth 7) under one task-former budget.
#[derive(Debug, Clone)]
pub struct TaskformRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Former configuration label.
    pub config: &'static str,
    /// Dynamic tasks under this partition.
    pub dynamic_tasks: u64,
    /// Ideal miss rates at depth 7: `[GLOBAL, PER, PATH]`.
    pub miss: [f64; 3],
}

/// Re-partitions every benchmark with three task budgets and re-measures
/// the three history schemes — the paper's "relative performance of
/// predictors is very consistent across ... compilations" (§3.2). One job
/// per (benchmark × budget); each takes its task trace from one
/// interpreter pass and keeps no recording.
pub fn ext_taskform(params: &WorkloadParams, pool: &Pool) -> Vec<TaskformRow> {
    let workloads: Vec<_> = Spec92::ALL.iter().map(|spec| spec.build(params)).collect();
    let mut jobs: Vec<Job<'_, TaskformRow>> = Vec::new();
    for (spec, w) in Spec92::ALL.into_iter().zip(&workloads) {
        for (label, config) in TASKFORM_CONFIGS {
            jobs.push(Box::new(move || {
                let tasks = TaskFormer::new(config).form(&w.program).expect("formation");
                let trace = collect_trace(&w.program, &tasks, w.max_steps)
                    .expect("re-formed programs trace");
                let descs = task_descs(&tasks);
                TaskformRow {
                    name: spec.name(),
                    config: label,
                    dynamic_tasks: trace.stats.dynamic_tasks,
                    miss: Scheme::ALL.map(|scheme| {
                        measure_ideal_on(scheme, 7, &descs, &trace.events).miss_rate()
                    }),
                }
            }));
        }
    }
    pool.run(jobs)
}

/// One row of the memory-substrate study.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Benchmark name.
    pub name: &'static str,
    /// IPC with eager forwarding + default ARB (perfect task prediction).
    pub eager_ipc: f64,
    /// IPC with release-at-end register forwarding.
    pub release_ipc: f64,
    /// IPC with an ideal (conflict-free) memory system.
    pub ideal_mem_ipc: f64,
    /// IPC with a deliberately undersized ARB (1 bank x 1 entry).
    pub tiny_arb_ipc: f64,
    /// ARB memory-order violations under the default configuration.
    pub violations: u64,
    /// ARB bank-overflow stalls under the default configuration.
    pub full_stalls: u64,
    /// ARB bank-overflow stalls under the undersized configuration.
    pub tiny_full_stalls: u64,
}

/// Measures the substrate models: register-forwarding policy and the ARB.
/// One job per (benchmark × config), each replaying the recording with
/// perfect task prediction.
pub fn ext_memory(benches: &[Bench], pool: &Pool) -> Vec<MemoryRow> {
    let default = TimingConfig::paper();
    let configs = [
        default,
        default.forwarding(ForwardingModel::ReleaseAtEnd),
        default.arb(None),
        // Per-retirement head commit drains the ARB fast enough that a
        // 4-entry bank no longer overflows everywhere; a single entry
        // still demonstrates overflow stalls on every benchmark.
        default.arb(Some(multiscalar_sim::arb::ArbConfig {
            banks: 1,
            entries_per_bank: 1,
            stages: 4,
        })),
    ];
    let runs = replay_grid(benches, &configs, pool, || None);
    benches
        .iter()
        .zip(runs)
        .map(|(b, runs)| {
            let [eager, release, ideal_mem, tiny] = &runs[..] else {
                unreachable!("one run per config")
            };
            MemoryRow {
                name: b.name(),
                eager_ipc: eager.ipc(),
                release_ipc: release.ipc(),
                ideal_mem_ipc: ideal_mem.ipc(),
                tiny_arb_ipc: tiny.ipc(),
                violations: eager.arb_violations,
                full_stalls: eager.arb_full_stalls,
                tiny_full_stalls: tiny.arb_full_stalls,
            }
        })
        .collect()
}

/// Wrong-path excursion depths swept by [`ext_pollution`].
pub const POLLUTION_DEPTHS: [usize; 4] = [0, 1, 2, 4];

/// One row of the pollution study.
#[derive(Debug, Clone)]
pub struct PollutionRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Miss rate per unrepaired wrong-path depth in [`POLLUTION_DEPTHS`].
    pub unrepaired: Vec<f64>,
    /// Miss rate with perfect repair (the paper's assumption), depth 4.
    pub repaired: f64,
}

/// Measures the paper's second §3.1 idealisation: wrong-path pollution of
/// the speculative path register, with and without recovery repair. One
/// job per (benchmark × depth): every unrepaired depth, then repaired at
/// depth 4.
pub fn ext_pollution(benches: &[Bench], pool: &Pool) -> Vec<PollutionRow> {
    let dolc = Dolc::new(6, 5, 8, 9, 3);
    let runs: Vec<(usize, bool)> = POLLUTION_DEPTHS
        .iter()
        .map(|&d| (d, false))
        .chain([(4, true)])
        .collect();
    let miss = fan_out(benches, runs.len(), pool, |b, i| {
        let (depth, repair) = runs[i];
        let mut p: PollutedExitAdapter<Leh2> =
            PollutedExitAdapter::new(PollutedPathPredictor::new(dolc, depth, repair));
        measure_exits(&mut p, &b.descs, &b.trace.events).miss_rate()
    });
    benches
        .iter()
        .zip(miss)
        .map(|(b, mut miss)| PollutionRow {
            name: b.name(),
            repaired: miss.pop().expect("repaired run"),
            unrepaired: miss,
        })
        .collect()
}

/// One row of the intra-task predictor ablation.
#[derive(Debug, Clone)]
pub struct IntraRow {
    /// Benchmark name.
    pub name: &'static str,
    /// IPC and intra-task mispredicts per predictor kind
    /// `[bimodal, gshare, mcfarling]`.
    pub ipc: [f64; 3],
    /// Intra-task misprediction counts in the same order.
    pub mispredicts: [u64; 3],
}

/// Ablates the processing units' intra-task branch predictor (the paper
/// uses a bimodal and reports "minimal accuracy loss"; §2.2). One job per
/// (benchmark × predictor kind), each replaying the recording with perfect
/// task prediction.
pub fn ext_intra(benches: &[Bench], pool: &Pool) -> Vec<IntraRow> {
    use multiscalar_sim::timing::IntraPredictorKind;
    let configs = [
        IntraPredictorKind::Bimodal,
        IntraPredictorKind::Gshare,
        IntraPredictorKind::McFarling,
    ]
    .map(|kind| TimingConfig::paper().intra_predictor(kind));
    let runs = replay_grid(benches, &configs, pool, || None);
    benches
        .iter()
        .zip(runs)
        .map(|(b, runs)| IntraRow {
            name: b.name(),
            ipc: std::array::from_fn(|i| runs[i].ipc()),
            mispredicts: std::array::from_fn(|i| runs[i].intra_mispredicts),
        })
        .collect()
}

/// One row of the confidence-gating study.
#[derive(Debug, Clone)]
pub struct ConfidenceRow {
    /// Benchmark name.
    pub name: &'static str,
    /// IPC with unconditional speculation (PATH predictor).
    pub always_ipc: f64,
    /// IPC with CIR confidence gating (threshold 8).
    pub gated_ipc: f64,
    /// Fraction of boundaries the gate withheld speculation on.
    pub gated_frac: f64,
    /// Task misprediction rate (ungated run).
    pub miss_rate: f64,
}

/// Measures confidence-gated speculation (Jacobson/Rotenberg/Smith's CIR
/// estimator on task predictions): low-confidence boundaries stall instead
/// of risking a squash. One job per (benchmark × gate setting), each
/// replaying the recording under a fresh PATH task predictor.
pub fn ext_confidence(benches: &[Bench], pool: &Pool) -> Vec<ConfidenceRow> {
    let default = TimingConfig::paper();
    let configs = [default, default.confidence_gate(Some(8))];
    let runs = replay_grid(benches, &configs, pool, || {
        Some(Box::new(TaskPredictor::<PathPredictor<Leh2>>::path(
            Dolc::new(7, 5, 7, 8, 3),
            Dolc::new(7, 4, 4, 5, 3),
            64,
        )))
    });
    benches
        .iter()
        .zip(runs)
        .map(|(b, runs)| {
            let (always, gated) = (&runs[0], &runs[1]);
            ConfidenceRow {
                name: b.name(),
                always_ipc: always.ipc(),
                gated_ipc: gated.ipc(),
                gated_frac: gated.gated_boundaries as f64 / gated.dynamic_tasks.max(1) as f64,
                miss_rate: always.task_miss_rate(),
            }
        })
        .collect()
}

/// Convenience used by tests: prepare one benchmark and confirm the hybrid
/// never does much worse than its best component.
pub fn hybrid_sanity(spec: Spec92, params: &WorkloadParams) -> (f64, f64, f64) {
    let b = prepare(spec, params);
    let row = &ext_hybrid(std::slice::from_ref(&b), &Pool::new(1))[0];
    (row.path, row.per, row.hybrid)
}

/// Pinned fuzz-corpus seeds the zoo ranking aggregates into one row
/// alongside the five paper benchmarks — predictor families are ranked on
/// adversarially random control flow too, not just the SPEC92 analogs.
pub const ZOO_CORPUS_SEEDS: std::ops::Range<u64> = 0..32;

/// Predictor families ranked by [`ext_zoo`], in column order: the paper's
/// PATH baseline, the PATH/PER tournament, and the two beyond-the-paper
/// families from `multiscalar_core::zoo`.
pub const ZOO_FAMILIES: [&str; 4] = ["PATH", "TOURN", "GSHARE", "GATED"];

/// One family's scores on one input.
#[derive(Debug, Clone, Copy)]
pub struct ZooCell {
    /// Exit miss rate over the task trace.
    pub miss: f64,
    /// Fraction of timing cycles lost to mispredict squash/refill
    /// ([`multiscalar_sim::metrics::Cause::SquashRefill`]) with this
    /// family driving the sequencer.
    pub squash: f64,
}

/// One row of the zoo ranking: an input (benchmark or the fuzz corpus)
/// scored by every family in [`ZOO_FAMILIES`].
#[derive(Debug, Clone)]
pub struct ZooRow {
    /// Benchmark name, or `"fuzz-corpus"`.
    pub name: String,
    /// Dynamic tasks in the input's trace.
    pub dynamic_tasks: u64,
    /// Per-family scores, in [`ZOO_FAMILIES`] order.
    pub cells: Vec<ZooCell>,
}

/// Builds one zoo family's exit predictor at roughly the paper's 8 KB PHT
/// point (16K two-bit-hysteresis entries / 14-bit index), so the ranking
/// compares prediction quality, not table size.
fn zoo_exit(family: usize) -> Box<dyn multiscalar_core::predictor::ExitPredictor> {
    use multiscalar_core::zoo::{GatedHybridPredictor, GshareExitPredictor};
    match family {
        0 => Box::new(PathPredictor::<Leh2>::new(Dolc::new(6, 5, 8, 9, 3))),
        1 => Box::new(TournamentPredictor::new(
            PathPredictor::<Leh2>::new(Dolc::new(6, 5, 8, 9, 3)),
            PerTaskPredictor::<Leh2>::new(7, 8, 6),
            10,
        )),
        2 => Box::new(GshareExitPredictor::<Leh2>::new(7, 14)),
        _ => Box::new(GatedHybridPredictor::<Leh2>::new(
            10,
            Dolc::new(6, 5, 8, 9, 3),
            10,
            3,
        )),
    }
}

/// Raw counts behind a [`ZooCell`], summed across inputs before dividing.
#[derive(Debug, Clone, Copy, Default)]
struct ZooTally {
    misses: u64,
    predictions: u64,
    squash: u64,
    cycles: u64,
}

impl ZooTally {
    fn add(&mut self, other: ZooTally) {
        self.misses += other.misses;
        self.predictions += other.predictions;
        self.squash += other.squash;
        self.cycles += other.cycles;
    }

    fn cell(self) -> ZooCell {
        ZooCell {
            miss: self.misses as f64 / self.predictions.max(1) as f64,
            squash: self.squash as f64 / self.cycles.max(1) as f64,
        }
    }
}

/// Scores one family on one input: exit misses over the trace, and
/// squash cycles from a timing run on the recording (Table 4's CTTB/RAS
/// sizing, so only the exit predictor varies between columns).
fn zoo_tally(
    family: usize,
    descs: &[TaskDesc],
    events: &SharedTrace,
    replay: &InstrReplay,
) -> ZooTally {
    use multiscalar_sim::metrics::{Cause, CycleBreakdown};
    use multiscalar_sim::replay::simulate_replay_with_sink;
    let stats = measure_exits(&mut zoo_exit(family), descs, events);
    let mut tp = TaskPredictor::new(zoo_exit(family), Dolc::new(7, 4, 4, 5, 3), 64);
    let mut bd = CycleBreakdown::new();
    let result = simulate_replay_with_sink(
        replay,
        descs,
        Some(&mut tp as &mut dyn NextTaskPredictor),
        &TimingConfig::paper(),
        &mut bd,
    );
    ZooTally {
        misses: stats.misses,
        predictions: stats.predictions,
        squash: bd.get(Cause::SquashRefill),
        cycles: result.cycles,
    }
}

/// Ranks the predictor zoo on the five paper benchmarks plus the pinned
/// fuzz corpus ([`ZOO_CORPUS_SEEDS`]): for each input and family, exit
/// miss rate and the squash-cycle fraction of a full timing run. The
/// corpus row aggregates misses and cycles across all corpus programs
/// (predictions and cycles summed before the division, so longer programs
/// weigh more, exactly as in a merged trace).
///
/// One job per (benchmark × family), then one per corpus seed: a seed job
/// generates, forms and records its program and scores every family on
/// that recording. Corpus tallies are summed in seed order.
pub fn ext_zoo(benches: &[Bench], pool: &Pool) -> Vec<ZooRow> {
    use multiscalar_workloads::fuzz::{fuzz_program, FuzzShape, MAX_STEPS};

    let families = ZOO_FAMILIES.len();
    // Every job reports the dynamic tasks of its input and one tally per
    // family it scored.
    let mut jobs: Vec<Job<'_, (u64, Vec<ZooTally>)>> = Vec::new();
    for b in benches {
        for family in 0..families {
            jobs.push(Box::new(move || {
                let tally = zoo_tally(family, &b.descs, &b.trace.events, &b.replay);
                (b.trace.stats.dynamic_tasks, vec![tally])
            }));
        }
    }
    for seed in ZOO_CORPUS_SEEDS {
        jobs.push(Box::new(move || {
            let program = fuzz_program(seed, &FuzzShape::from_seed(seed));
            let tasks = TaskFormer::default()
                .form(&program)
                .expect("fuzz programs always form");
            let replay =
                record_replay(&program, &tasks, MAX_STEPS).expect("fuzz programs always record");
            let trace = derive_trace(&replay, &tasks);
            let descs = task_descs(&tasks);
            let tallies = (0..families)
                .map(|family| zoo_tally(family, &descs, &trace.events, &replay))
                .collect();
            (trace.stats.dynamic_tasks, tallies)
        }));
    }
    let mut results = pool.run(jobs).into_iter();

    let mut rows: Vec<ZooRow> = benches
        .iter()
        .map(|b| ZooRow {
            name: b.name().to_string(),
            dynamic_tasks: b.trace.stats.dynamic_tasks,
            cells: results
                .by_ref()
                .take(families)
                .map(|(_, tallies)| tallies[0].cell())
                .collect(),
        })
        .collect();

    // The fuzz corpus: one aggregate row over every pinned seed.
    let mut dynamic_tasks = 0u64;
    let mut agg = vec![ZooTally::default(); families];
    for (seed_tasks, tallies) in results {
        dynamic_tasks += seed_tasks;
        for (slot, tally) in agg.iter_mut().zip(tallies) {
            slot.add(tally);
        }
    }
    rows.push(ZooRow {
        name: "fuzz-corpus".to_string(),
        dynamic_tasks,
        cells: agg.into_iter().map(ZooTally::cell).collect(),
    });
    rows
}
