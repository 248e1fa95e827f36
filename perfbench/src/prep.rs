//! Traced preparation: the calls `multiscalar_harness::prepare_cached`
//! makes, made one by one inside layer spans.

use multiscalar_harness::cache::{self, ArtifactCache};
use multiscalar_harness::Bench;
use multiscalar_sim::measure::task_descs;
use multiscalar_sim::replay::{derive_trace, record_replay};
use multiscalar_taskform::TaskFormer;
use multiscalar_workloads::{Spec92, WorkloadParams};

use crate::trace::Tracer;

/// Builds, task-forms, records (or loads from `store`) and derives one
/// benchmark — the same calls in the same order as `prepare_cached`.
pub fn prepare(
    t: &mut Tracer,
    spec: Spec92,
    params: &WorkloadParams,
    store: Option<&ArtifactCache>,
) -> Bench {
    t.span("prepare", |t| {
        let workload = t.span("workloads.generate", |_| spec.build(params));
        t.add("workloads.static_instrs", workload.program.len() as f64);
        let tasks = t.span("taskform.form", |_| {
            TaskFormer::default()
                .form(&workload.program)
                .expect("generated workloads always form")
        });
        t.add("taskform.tasks", tasks.static_task_count() as f64);
        let descs = t.span("taskform.form", |_| task_descs(&tasks));
        let key = t.span("cache.key", |_| {
            cache::replay_key(spec, params, &workload.program, &tasks, workload.max_steps)
        });
        let loaded = store.and_then(|c| {
            let r = t.span("codec.decode", |_| c.load_replay(key));
            if r.is_some() {
                t.add("codec.decode_bytes", entry_bytes(c, key));
            }
            r
        });
        let replay = match loaded {
            Some(r) => r,
            None => {
                let r = t.span("replay.record", |_| {
                    record_replay(&workload.program, &tasks, workload.max_steps)
                        .expect("generated workloads always record")
                });
                t.add("replay.instructions", r.instructions() as f64);
                if let Some(c) = store {
                    t.span("codec.encode", |_| c.store_replay(key, &r));
                    t.add("codec.encode_bytes", entry_bytes(c, key));
                }
                r
            }
        };
        let trace = t.span("replay.derive", |_| derive_trace(&replay, &tasks));
        t.add("trace.events", trace.events.len() as f64);
        Bench {
            spec,
            workload,
            tasks,
            descs,
            replay: replay.into_shared(),
            key,
            trace,
        }
    })
}

fn entry_bytes(c: &ArtifactCache, key: multiscalar_isa::Fingerprint) -> f64 {
    std::fs::metadata(c.entry_path(key)).map_or(0.0, |m| m.len() as f64)
}
