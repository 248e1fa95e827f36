#![warn(missing_docs)]

//! The Multiscalar simulators of the reproduction.
//!
//! Two simulators, mirroring the paper's methodology (§3.1):
//!
//! * a **functional simulator** ([`trace`], [`measure`]) that executes a
//!   program, reconstructs its task-level trace (which task ran, which exit
//!   it took, where it went) and drives predictors over it — with the
//!   paper's idealisations: immediate predictor updates and no wrong-path
//!   pollution;
//! * a **timing simulator** ([`timing`]) modelling the ring of processing
//!   units (4 × 2-way by default), in-order issue with register-dataflow
//!   stalls, intra-task bimodal prediction and full squash on inter-task
//!   mispredictions — the source of Table 4's IPC numbers. Every
//!   predictor it models trains in program order, so a functional outcome
//!   model resolves each prediction and the cycle walk only consumes the
//!   outcomes. The [`replay`] module records one interpreter pass per
//!   benchmark into an immutable [`replay::InstrReplay`] and resolves the
//!   outcomes once per recording ([`replay::MachineOutcomes`], shared by
//!   every predictor column, and [`replay::TaskOutcomes`], one per
//!   predictor), so every column replays the same execution with zero
//!   re-interpretation and a predictor-free walk
//!   ([`replay::simulate_replay`] is bit-identical to [`timing::simulate`]).
//!
//! Building with `--features sanitize` arms runtime assertions over the
//! timing model's invariants (FIFO ARB commit order, monotone ring clocks)
//! and exposes the `sanitize` module's lockstep replay/interpreter
//! agreement checker; see DESIGN.md.
//!
//! # Example: measuring a predictor on a workload
//!
//! ```no_run
//! use multiscalar_core::automata::LastExitHysteresis;
//! use multiscalar_core::dolc::Dolc;
//! use multiscalar_core::history::PathPredictor;
//! use multiscalar_sim::{measure, trace};
//! use multiscalar_taskform::TaskFormer;
//! use multiscalar_workloads::{Spec92, WorkloadParams};
//!
//! let w = Spec92::Compress.build(&WorkloadParams::small(1));
//! let tasks = TaskFormer::default().form(&w.program).unwrap();
//! let run = trace::collect_trace(&w.program, &tasks, w.max_steps).unwrap();
//! let descs = measure::task_descs(&tasks);
//!
//! let mut pred: PathPredictor<LastExitHysteresis<2>> =
//!     PathPredictor::new(Dolc::new(6, 5, 8, 9, 3));
//! let stats = measure::measure_exits(&mut pred, &descs, &run.events);
//! println!("miss rate: {:.2}%", stats.miss_rate() * 100.0);
//! ```

pub mod arb;
pub mod codec;
pub mod measure;
pub mod metrics;
mod outcome;
pub mod replay;
pub mod sanitize;
pub mod timing;
pub mod trace;

pub use codec::{decode_replay, encode_replay, CodecError, CACHE_SCHEMA};
pub use measure::{task_descs, MissStats};
pub use metrics::{
    BoundaryEvent, Cause, CycleBreakdown, FrontierCause, MetricsSink, NoopSink, StallCause,
    TaskEventSink, UnitOccupancy,
};
pub use replay::{
    derive_trace, record_replay, simulate_replay, simulate_replay_with_sink, walk_replay,
    InstrReplay, MachineOutcomes, TaskOutcomes,
};
pub use trace::{TaskEvent, TraceRun, TraceStats};
