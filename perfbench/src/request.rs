//! The two in-process workloads, `paper-all` and `ext-explore`: one
//! registry request (`all` at scale 4, `ext` at scale 2) prepared with
//! `Prepared::new` and run with `registry::execute`, with no artifact
//! cache, at pool width `nproc` and at width 1.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use multiscalar_harness::pool::Pool;
use multiscalar_harness::proto::{self, Request, Response};
use multiscalar_harness::registry::{self, ExpCtx, Prepared};
use multiscalar_harness::Bench;
use multiscalar_sim::measure::lane_packed_sweeps;
use multiscalar_workloads::{Spec92, WorkloadParams};

use crate::probe::{self, Probe};
use crate::trace::Tracer;
use crate::{ext, paper, prep};

/// One in-process request workload.
pub struct RequestWorkload {
    /// The registry entry it runs.
    pub experiment: &'static str,
    pub scale: u32,
    /// The experiments whose blocks make up the output, in order.
    pub blocks: &'static [&'static str],
    /// Lane-packed sweeps one execution must run (an exact count).
    pub lane_sweeps: u64,
    /// Layers its requests never reach, probed in the traced run.
    pub probes: &'static [Probe],
}

pub const PAPER_ALL: RequestWorkload = RequestWorkload {
    experiment: "all",
    scale: 4,
    blocks: &paper::PAPER,
    // One packed `path_real_sweep` per benchmark for Figures 10/11.
    lane_sweeps: 5,
    probes: &[Probe::Key, Probe::Codec, Probe::SinkWalk, Probe::InterpWalk],
};

pub const EXT_EXPLORE: RequestWorkload = RequestWorkload {
    experiment: "ext",
    scale: 2,
    blocks: &ext::EXT,
    lane_sweeps: 0,
    probes: &[Probe::Key, Probe::Codec, Probe::Lane, Probe::Walk],
};

/// One untraced execution, made in a child process of its own so its
/// peak resident set is the execution's alone.
pub struct Exec {
    /// `Prepared::new` time.
    pub setup_s: f64,
    /// `Prepared::new` + `registry::execute` time.
    pub wall_s: f64,
    /// Lane-packed sweeps the execution ran.
    pub lane_delta: u64,
    /// Digest of the output bytes.
    pub digest: u64,
    /// The child's VmHWM, in MB.
    pub peak_rss_mb: f64,
}

impl RequestWorkload {
    pub fn params(&self, seed: u64) -> WorkloadParams {
        WorkloadParams {
            seed,
            scale: self.scale,
        }
    }

    /// The request as a client would put it on the wire.
    pub fn line(&self, seed: u64) -> String {
        format!(
            "{{\"id\":1,\"experiment\":\"{}\",\"seed\":{seed},\"scale\":{}}}",
            self.experiment, self.scale
        )
    }

    /// Prepares and executes the request once at pool width `width`, in
    /// this process. Returns (`Prepared::new` time, total time, output,
    /// lane-packed sweeps run).
    pub fn execute(&self, seed: u64, width: usize) -> Result<(f64, f64, String, u64), String> {
        let exp = registry::find(self.experiment).expect("registered");
        let mut req = Request::new(self.experiment);
        req.params = self.params(seed);
        let pool = Pool::new(width);
        let lanes = lane_packed_sweeps();
        let t0 = Instant::now();
        let prep = Prepared::new(None, exp.benches, &req.params, &pool, None);
        let setup_s = t0.elapsed().as_secs_f64();
        let ctx = ExpCtx::new(&prep, &pool, &req, None, PathBuf::new());
        let out = registry::execute(exp, &ctx)?;
        let wall_s = t0.elapsed().as_secs_f64();
        if !out.ok {
            return Err(format!("`{}` reported failure", self.experiment));
        }
        Ok((setup_s, wall_s, out.body, lane_packed_sweeps() - lanes))
    }

    /// [`Self::execute`] (or, with `setup_only`, `Prepared::new` alone) in
    /// a child process: `perfbench --exec <workload>`.
    pub fn spawn(
        &self,
        workload: &str,
        seed: u64,
        width: usize,
        setup_only: bool,
    ) -> Result<Exec, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find perfbench: {e}"))?;
        let out = Command::new(exe)
            .args(["--exec", workload, "--seed", &seed.to_string()])
            .args([
                "--width",
                &width.to_string(),
                "--setup-only",
                &u8::from(setup_only).to_string(),
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run perfbench --exec: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<&str> = text
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("EXEC "))
            .map(|l| l.split_whitespace().collect())
            .unwrap_or_default();
        let [setup_s, wall_s, lanes, digest, rss] = fields[..] else {
            return Err(format!("perfbench --exec {workload} failed: {text}"));
        };
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|e| format!("bad --exec output {v}: {e}"))
        };
        Ok(Exec {
            setup_s: num(setup_s)?,
            wall_s: num(wall_s)?,
            lane_delta: lanes
                .parse()
                .map_err(|e| format!("bad --exec output {lanes}: {e}"))?,
            digest: u64::from_str_radix(digest, 16)
                .map_err(|e| format!("bad --exec output {digest}: {e}"))?,
            peak_rss_mb: num(rss)?,
        })
    }

    /// `Prepared::new` alone at pool width `width`, in seconds.
    pub fn setup_only(&self, seed: u64, width: usize) -> f64 {
        let exp = registry::find(self.experiment).expect("registered");
        let pool = Pool::new(width);
        let t0 = Instant::now();
        let prep = Prepared::new(None, exp.benches, &self.params(seed), &pool, None);
        let s = t0.elapsed().as_secs_f64();
        drop(prep);
        s
    }

    /// The traced run: the request's preparation and experiments as
    /// direct layer calls at width 1 inside a `run` span, then the
    /// off-path probes. Returns the output and the prepared benchmarks.
    pub fn traced(&self, t: &mut Tracer, seed: u64) -> Result<(String, Vec<Bench>), String> {
        let params = self.params(seed);
        let line = self.line(seed);
        let (body, benches) = t.span("run", |t| {
            let env = t.span("proto.parse", |_| proto::parse_line(&line))?;
            let proto::Command::Run(req) = env.cmd else {
                return Err("not a run request".to_string());
            };
            let benches: Vec<Bench> = Spec92::ALL
                .iter()
                .map(|&s| prep::prepare(t, s, &req.params, None))
                .collect();
            let mut body = String::new();
            let mut shared = None;
            for name in self.blocks {
                body.push_str(&match self.experiment {
                    "all" => paper::experiment(t, name, &benches, &mut shared),
                    _ => ext::experiment(t, name, &benches, &req.params),
                });
            }
            let resp = Response::Ok {
                id: env.id,
                cached: false,
                exit_ok: true,
                files: Vec::new(),
                body: body.clone(),
            };
            black_box(t.span("proto.encode", |_| resp.to_json()));
            Ok((body, benches))
        })?;
        probe::run(t, self.probes, &benches, &params);
        Ok((body, benches))
    }
}

/// The pinned output digest of `experiment` at `seed`, when one is pinned.
pub fn pinned(experiment: &str, seed: u64) -> Option<u64> {
    crate::PINNED
        .iter()
        .find(|(e, s, _)| *e == experiment && *s == seed)
        .map(|&(_, _, d)| d)
}

/// Checks one execution's output and counters: the digest must match the
/// pinned digest (or, unpinned, the first execution's), and the lane
/// counter must move by the exact count.
pub fn check(
    w: &RequestWorkload,
    seed: u64,
    exec: &Exec,
    first: &mut Option<u64>,
) -> Result<(), String> {
    let d = exec.digest;
    let want = pinned(w.experiment, seed).or(*first).unwrap_or(d);
    first.get_or_insert(d);
    if d != want {
        return Err(format!(
            "`{}` output digest {d:016x}, expected {want:016x}",
            w.experiment
        ));
    }
    if exec.lane_delta != w.lane_sweeps {
        return Err(format!(
            "lane-packed sweeps moved by {}, expected {}",
            exec.lane_delta, w.lane_sweeps
        ));
    }
    Ok(())
}
