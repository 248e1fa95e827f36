//! Off-path probes: layers a workload's own requests never reach, timed
//! once on that workload's prepared benchmarks inside a `probe` span, so
//! every traced run reports every layer. The probe spans stay outside the
//! workload's `run` span and never count toward its attribution.

use multiscalar_harness::cache::key_for;
use multiscalar_harness::dispatch::{exit_ladder, Table4Column};
use multiscalar_harness::Bench;
use multiscalar_sim::codec::{decode_replay, encode_replay};
use multiscalar_sim::timing::TimingConfig;
use multiscalar_workloads::WorkloadParams;

use crate::trace::Tracer;
use crate::{ext, paper};

/// A layer a probe can time.
#[derive(Clone, Copy)]
pub enum Probe {
    /// `cache::key_for` per benchmark.
    Key,
    /// `codec::encode_replay` then `decode_replay`, in memory.
    Codec,
    /// One lane-packed `path_real_sweep` over the exit ladder.
    Lane,
    /// One Table 4 PATH column (`simulate_replay`).
    Walk,
    /// One replay walk feeding a cycle-attribution sink.
    SinkWalk,
    /// One interpreter-driven `timing::simulate`.
    InterpWalk,
}

/// Runs `probes` over every benchmark in `benches`.
pub fn run(t: &mut Tracer, probes: &[Probe], benches: &[Bench], params: &WorkloadParams) {
    t.span("probe", |t| {
        for probe in probes {
            for b in benches {
                match probe {
                    Probe::Key => {
                        t.span("cache.key", |_| key_for(b.spec, params));
                    }
                    Probe::Codec => {
                        let bytes = t.span("codec.encode", |_| encode_replay(&b.replay, b.key));
                        t.add("codec.encode_bytes", bytes.len() as f64);
                        t.span("codec.decode", |_| decode_replay(&bytes, b.key))
                            .expect("a fresh encoding decodes");
                        t.add("codec.decode_bytes", bytes.len() as f64);
                    }
                    Probe::Lane => {
                        paper::lane_sweep(t, &exit_ladder(), b);
                    }
                    Probe::Walk => {
                        paper::walk(t, b, Table4Column::Path);
                    }
                    Probe::SinkWalk => {
                        ext::sink_walk(t, &b.replay, &b.descs, 0);
                    }
                    Probe::InterpWalk => {
                        ext::interp_walk(t, b, None, &TimingConfig::paper());
                    }
                }
            }
        }
    });
}
