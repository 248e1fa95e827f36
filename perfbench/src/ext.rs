//! Traced replicas of the `ext` group: the layer calls each
//! `multiscalar_harness::extensions` function makes, in order, each
//! inside its layer span, rendered by the harness's own renderers.

use multiscalar_core::automata::LastExitHysteresis;
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::{PathPredictor, PerTaskPredictor};
use multiscalar_core::pollution::{PollutedExitAdapter, PollutedPathPredictor};
use multiscalar_core::predictor::{ExitPredictor, TaskPredictor};
use multiscalar_core::stale::StalePathPredictor;
use multiscalar_core::tournament::TournamentPredictor;
use multiscalar_core::zoo::{GatedHybridPredictor, GshareExitPredictor};
use multiscalar_harness::dispatch::{measure_ideal, Scheme};
use multiscalar_harness::extensions::{
    ConfidenceRow, HybridRow, IntraRow, MemoryRow, PollutionRow, StalenessRow, TaskformRow,
    ZooCell, ZooRow, POLLUTION_DEPTHS, STALENESS_DELAYS, TASKFORM_CONFIGS, ZOO_CORPUS_SEEDS,
    ZOO_FAMILIES,
};
use multiscalar_harness::{cache, report, Bench};
use multiscalar_isa::Program;
use multiscalar_sim::arb::ArbConfig;
use multiscalar_sim::measure::{measure_exits, task_descs, MissStats};
use multiscalar_sim::metrics::{Cause, CycleBreakdown};
use multiscalar_sim::replay::{
    derive_trace, record_replay, simulate_replay_with_sink, InstrReplay,
};
use multiscalar_sim::timing::{
    simulate, ForwardingModel, IntraPredictorKind, NextTaskPredictor, TimingConfig, TimingResult,
};
use multiscalar_sim::TraceRun;
use multiscalar_taskform::{TaskFormer, TaskProgram};
use multiscalar_workloads::fuzz::{fuzz_program, FuzzShape, MAX_STEPS};
use multiscalar_workloads::{Spec92, WorkloadParams};

use crate::paper::render;
use crate::trace::Tracer;

type Leh2 = LastExitHysteresis<2>;

/// The extensions in `ext`-output order.
pub const EXT: [&str; 8] = [
    "ext-staleness",
    "ext-hybrid",
    "ext-taskform",
    "ext-memory",
    "ext-confidence",
    "ext-intra",
    "ext-pollution",
    "ext-zoo",
];

/// One scalar predictor over a trace, in the `dispatch.scalar` span.
fn exits<P: ExitPredictor>(
    t: &mut Tracer,
    p: &mut P,
    descs: &[multiscalar_core::predictor::TaskDesc],
    trace: &TraceRun,
) -> MissStats {
    t.add("dispatch.scalar_col_events", trace.events.len() as f64);
    t.span("dispatch.scalar", |_| {
        measure_exits(p, descs, &trace.events)
    })
}

/// One interpreter-driven timing run (`timing::simulate`), in the
/// `timing.interp_walk` span.
pub fn interp_walk(
    t: &mut Tracer,
    b: &Bench,
    pred: Option<&mut dyn NextTaskPredictor>,
    config: &TimingConfig,
) -> TimingResult {
    let r = t.span("timing.interp_walk", |_| {
        simulate(
            &b.workload.program,
            &b.tasks,
            &b.descs,
            pred,
            config,
            b.workload.max_steps,
        )
        .expect("timing succeeds")
    });
    t.add("timing.interp_instructions", r.instructions as f64);
    t.add("timing.sim_cycles", r.cycles as f64);
    r
}

/// One replay timing run feeding a cycle-attribution sink, in the
/// `timing.sink_walk` span. Returns (result, squash-refill cycles).
pub fn sink_walk(
    t: &mut Tracer,
    replay: &InstrReplay,
    descs: &[multiscalar_core::predictor::TaskDesc],
    family: usize,
) -> (TimingResult, u64) {
    let mut tp = TaskPredictor::new(zoo_exit(family), Dolc::new(7, 4, 4, 5, 3), 64);
    let mut bd = CycleBreakdown::new();
    let r = t.span("timing.sink_walk", |_| {
        simulate_replay_with_sink(
            replay,
            descs,
            Some(&mut tp as &mut dyn NextTaskPredictor),
            &TimingConfig::paper(),
            &mut bd,
        )
    });
    t.add("timing.sink_instructions", replay.instructions() as f64);
    t.add("timing.sim_cycles", r.cycles as f64);
    (r, bd.get(Cause::SquashRefill))
}

/// Runs one extension and returns its output block (render + newline).
pub fn experiment(
    t: &mut Tracer,
    name: &'static str,
    benches: &[Bench],
    params: &WorkloadParams,
) -> String {
    t.span(name, |t| {
        let text = match name {
            "ext-staleness" => {
                let rows = staleness(t, benches);
                render(t, || report::render_staleness(&rows))
            }
            "ext-hybrid" => {
                let rows = hybrid(t, benches);
                render(t, || report::render_hybrid(&rows))
            }
            "ext-taskform" => {
                let rows = taskform(t, params);
                render(t, || report::render_taskform(&rows))
            }
            "ext-memory" => {
                let rows = memory(t, benches);
                render(t, || report::render_memory(&rows))
            }
            "ext-confidence" => {
                let rows = confidence(t, benches);
                render(t, || report::render_confidence(&rows))
            }
            "ext-intra" => {
                let rows = intra(t, benches);
                render(t, || report::render_intra(&rows))
            }
            "ext-pollution" => {
                let rows = pollution(t, benches);
                render(t, || report::render_pollution(&rows))
            }
            "ext-zoo" => {
                let rows = zoo(t, benches);
                render(t, || report::render_zoo(&rows))
            }
            other => panic!("not an extension: {other}"),
        };
        format!("{text}\n")
    })
}

fn staleness(t: &mut Tracer, benches: &[Bench]) -> Vec<StalenessRow> {
    benches
        .iter()
        .map(|b| StalenessRow {
            name: b.name(),
            miss: STALENESS_DELAYS
                .iter()
                .map(|&d| {
                    let mut p: StalePathPredictor<Leh2> =
                        StalePathPredictor::new(Dolc::new(6, 5, 8, 9, 3), d);
                    exits(t, &mut p, &b.descs, &b.trace).miss_rate()
                })
                .collect(),
        })
        .collect()
}

fn hybrid(t: &mut Tracer, benches: &[Bench]) -> Vec<HybridRow> {
    benches
        .iter()
        .map(|b| {
            let mut path: PathPredictor<Leh2> = PathPredictor::new(Dolc::new(6, 5, 8, 9, 3));
            let path_rate = exits(t, &mut path, &b.descs, &b.trace).miss_rate();
            let mut per: PerTaskPredictor<Leh2> = PerTaskPredictor::new(7, 8, 6);
            let per_rate = exits(t, &mut per, &b.descs, &b.trace).miss_rate();
            let mut hybrid = TournamentPredictor::new(
                PathPredictor::<Leh2>::new(Dolc::new(6, 5, 8, 9, 3)),
                PerTaskPredictor::<Leh2>::new(7, 8, 6),
                10,
            );
            let hybrid_rate = exits(t, &mut hybrid, &b.descs, &b.trace).miss_rate();
            HybridRow {
                name: b.name(),
                path: path_rate,
                per: per_rate,
                hybrid: hybrid_rate,
            }
        })
        .collect()
}

/// Task formation, recording and derivation of one re-formed or fuzzed
/// program, each in its layer span.
fn form_record(
    t: &mut Tracer,
    program: &Program,
    former: TaskFormer,
    max_steps: u64,
) -> (TaskProgram, InstrReplay, TraceRun) {
    let tasks = t.span("taskform.form", |_| {
        former.form(program).expect("formation")
    });
    t.add("taskform.tasks", tasks.static_task_count() as f64);
    let replay = t.span("replay.record", |_| {
        record_replay(program, &tasks, max_steps).expect("recording succeeds")
    });
    t.add("replay.instructions", replay.instructions() as f64);
    let trace = t.span("replay.derive", |_| derive_trace(&replay, &tasks));
    t.add("trace.events", trace.events.len() as f64);
    (tasks, replay, trace)
}

fn taskform(t: &mut Tracer, params: &WorkloadParams) -> Vec<TaskformRow> {
    let mut rows = Vec::new();
    for spec in Spec92::ALL {
        let w = t.span("workloads.generate", |_| spec.build(params));
        t.add("workloads.static_instrs", w.program.len() as f64);
        for (label, config) in TASKFORM_CONFIGS {
            let (tasks, replay, trace) =
                form_record(t, &w.program, TaskFormer::new(config), w.max_steps);
            let descs = t.span("taskform.form", |_| task_descs(&tasks));
            let key = t.span("cache.key", |_| {
                cache::replay_key(spec, params, &w.program, &tasks, w.max_steps)
            });
            let bench = Bench {
                spec,
                workload: w.clone(),
                tasks,
                descs,
                replay: replay.into_shared(),
                key,
                trace,
            };
            let miss = [Scheme::Global, Scheme::Per, Scheme::Path].map(|scheme| {
                t.add("dispatch.ideal_col_events", bench.trace.events.len() as f64);
                t.span("dispatch.ideal", |_| measure_ideal(scheme, 7, &bench))
                    .miss_rate()
            });
            rows.push(TaskformRow {
                name: spec.name(),
                config: label,
                dynamic_tasks: bench.trace.stats.dynamic_tasks,
                miss,
            });
        }
    }
    rows
}

fn memory(t: &mut Tracer, benches: &[Bench]) -> Vec<MemoryRow> {
    benches
        .iter()
        .map(|b| {
            let default = TimingConfig::paper();
            let eager = interp_walk(t, b, None, &default);
            let release = interp_walk(
                t,
                b,
                None,
                &default.forwarding(ForwardingModel::ReleaseAtEnd),
            );
            let ideal_mem = interp_walk(t, b, None, &default.arb(None));
            let tiny = interp_walk(
                t,
                b,
                None,
                &default.arb(Some(ArbConfig {
                    banks: 1,
                    entries_per_bank: 1,
                    stages: 4,
                })),
            );
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

fn confidence(t: &mut Tracer, benches: &[Bench]) -> Vec<ConfidenceRow> {
    benches
        .iter()
        .map(|b| {
            let run = |t: &mut Tracer, config: &TimingConfig| {
                let mut p = TaskPredictor::<PathPredictor<Leh2>>::path(
                    Dolc::new(7, 5, 7, 8, 3),
                    Dolc::new(7, 4, 4, 5, 3),
                    64,
                );
                interp_walk(t, b, Some(&mut p as &mut dyn NextTaskPredictor), config)
            };
            let default = TimingConfig::paper();
            let always = run(t, &default);
            let gated = run(t, &default.confidence_gate(Some(8)));
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

fn intra(t: &mut Tracer, benches: &[Bench]) -> Vec<IntraRow> {
    benches
        .iter()
        .map(|b| {
            let [bi, gs, mc] = [
                IntraPredictorKind::Bimodal,
                IntraPredictorKind::Gshare,
                IntraPredictorKind::McFarling,
            ]
            .map(|kind| interp_walk(t, b, None, &TimingConfig::paper().intra_predictor(kind)));
            IntraRow {
                name: b.name(),
                ipc: [bi.ipc(), gs.ipc(), mc.ipc()],
                mispredicts: [
                    bi.intra_mispredicts,
                    gs.intra_mispredicts,
                    mc.intra_mispredicts,
                ],
            }
        })
        .collect()
}

fn pollution(t: &mut Tracer, benches: &[Bench]) -> Vec<PollutionRow> {
    let dolc = Dolc::new(6, 5, 8, 9, 3);
    benches
        .iter()
        .map(|b| {
            let run = |t: &mut Tracer, depth: usize, repair: bool| {
                let mut p: PollutedExitAdapter<Leh2> =
                    PollutedExitAdapter::new(PollutedPathPredictor::new(dolc, depth, repair));
                exits(t, &mut p, &b.descs, &b.trace).miss_rate()
            };
            PollutionRow {
                name: b.name(),
                unrepaired: POLLUTION_DEPTHS.iter().map(|&d| run(t, d, false)).collect(),
                repaired: run(t, 4, true),
            }
        })
        .collect()
}

/// The exit predictor of one zoo family, as `extensions::ext_zoo` builds it.
fn zoo_exit(family: usize) -> Box<dyn ExitPredictor> {
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

fn zoo(t: &mut Tracer, benches: &[Bench]) -> Vec<ZooRow> {
    let mut rows: Vec<ZooRow> = benches
        .iter()
        .map(|b| ZooRow {
            name: b.name().to_string(),
            dynamic_tasks: b.trace.stats.dynamic_tasks,
            cells: (0..ZOO_FAMILIES.len())
                .map(|family| {
                    let miss = exits(t, &mut zoo_exit(family), &b.descs, &b.trace).miss_rate();
                    let (result, squash) = sink_walk(t, &b.replay, &b.descs, family);
                    ZooCell {
                        miss,
                        squash: squash as f64 / result.cycles.max(1) as f64,
                    }
                })
                .collect(),
        })
        .collect();

    let mut dynamic_tasks = 0u64;
    let mut agg = vec![(0u64, 0u64, 0u64, 0u64); ZOO_FAMILIES.len()];
    for seed in ZOO_CORPUS_SEEDS {
        let program = t.span("workloads.generate", |_| {
            fuzz_program(seed, &FuzzShape::from_seed(seed))
        });
        t.add("workloads.static_instrs", program.len() as f64);
        let (tasks, replay, trace) = form_record(t, &program, TaskFormer::default(), MAX_STEPS);
        let descs = t.span("taskform.form", |_| task_descs(&tasks));
        dynamic_tasks += trace.stats.dynamic_tasks;
        for (family, slot) in agg.iter_mut().enumerate() {
            let stats = exits(t, &mut zoo_exit(family), &descs, &trace);
            let (result, squash) = sink_walk(t, &replay, &descs, family);
            slot.0 += stats.misses;
            slot.1 += stats.predictions;
            slot.2 += squash;
            slot.3 += result.cycles;
        }
    }
    rows.push(ZooRow {
        name: "fuzz-corpus".to_string(),
        dynamic_tasks,
        cells: agg
            .into_iter()
            .map(|(misses, predictions, squash, cycles)| ZooCell {
                miss: misses as f64 / predictions.max(1) as f64,
                squash: squash as f64 / cycles.max(1) as f64,
            })
            .collect(),
    });
    rows
}
