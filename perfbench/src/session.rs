//! The serve-session workload: one closed-loop client talking to a real
//! `harness serve` process over stdio, plus its in-process reference and
//! its traced replica.
//!
//! A session walks `points` parameter points (seed, seed+1, ...) at one
//! scale. Set-up pre-seeds the disk artifact store for the even points.
//! Each point gets the light experiments once, then an exact repeat of
//! each, which gives four request classes: the first request of a
//! pre-seeded point (cold, loaded from disk), the first request of an
//! unseen point (cold, generated and recorded), the other first-pass
//! requests (resident miss) and every repeat (result-cache hit).

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

use multiscalar_harness::cache::ArtifactCache;
use multiscalar_harness::pool::Pool;
use multiscalar_harness::proto::{self, Json, Response};
use multiscalar_harness::registry::{self, BenchSource, Resources};
use multiscalar_harness::{prepare_set_cached, Bench};
use multiscalar_isa::Fingerprint;
use multiscalar_workloads::{Spec92, WorkloadParams};

use crate::trace::Tracer;
use crate::{digest, paper, prep};

/// The light experiments each point gets (every paper artifact except the
/// two heavy ones, `fig7` and `table4`).
pub const LIGHT: [&str; 8] = [
    "table2", "fig3", "fig4", "fig8", "fig10", "fig11", "fig12", "table3",
];

/// Which parameter points a session walks.
#[derive(Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub points: u64,
    pub scale: u32,
}

impl Plan {
    fn params(&self, p: u64) -> WorkloadParams {
        WorkloadParams {
            seed: self.seed.wrapping_add(p),
            scale: self.scale,
        }
    }

    fn seeded(p: u64) -> bool {
        p.is_multiple_of(2)
    }

    pub fn requests(&self) -> u64 {
        self.points * 2 * LIGHT.len() as u64
    }

    fn line(&self, id: u64, p: u64, exp: &str) -> String {
        let params = self.params(p);
        format!(
            "{{\"id\":{id},\"experiment\":\"{exp}\",\"seed\":{},\"scale\":{}}}",
            params.seed, params.scale
        )
    }
}

/// Response bodies by (point, experiment index).
pub type Bodies = HashMap<(u64, usize), String>;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Class {
    ColdDisk,
    ColdNew,
    Miss,
    Hit,
}

fn class_of(p: u64, pass: usize, i: usize) -> Class {
    match (pass, i) {
        (1, _) => Class::Hit,
        (_, 0) if Plan::seeded(p) => Class::ColdDisk,
        (_, 0) => Class::ColdNew,
        _ => Class::Miss,
    }
}

/// A running `harness serve` child on stdio.
pub struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(harness: &Path, width: usize, store: &Path) -> Result<Server, String> {
        let mut child = Command::new(harness)
            .arg("serve")
            .arg("--threads")
            .arg(width.to_string())
            .arg("--cache-dir")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", harness.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Server {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one request line and waits for its response line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("serve write failed: {e}"))?;
        let mut resp = String::new();
        match self.stdout.read_line(&mut resp) {
            Ok(0) => Err("serve closed its output".to_string()),
            Ok(_) => Ok(resp),
            Err(e) => Err(format!("serve read failed: {e}")),
        }
    }

    /// The server's peak resident set (VmHWM), in MB.
    fn peak_rss_mb(&self) -> f64 {
        crate::vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the server to shut down and waits for it; kills it if it does
    /// not answer.
    pub fn stop(mut self) {
        if self.call("{\"cmd\":\"shutdown\"}").is_err() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `stop` consumed the child normally; this only runs on error
        // paths, where the child must not outlive the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Fills `store` with the replays of every pre-seeded point.
pub fn preseed(plan: &Plan, store: &Path, width: usize) {
    let cache = ArtifactCache::new(store);
    let pool = Pool::new(width);
    for p in (0..plan.points).filter(|&p| Plan::seeded(p)) {
        drop(prepare_set_cached(
            Spec92::ALL.as_slice(),
            &plan.params(p),
            &pool,
            Some(&cache),
        ));
    }
}

pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Set-up of one session: spawn a server of pool width `width`, pre-seed
/// its store on `seed_width` client threads, first ping. Returns the
/// server and the set-up time in seconds.
pub fn setup(
    harness: &Path,
    width: usize,
    seed_width: usize,
    store: &Path,
    plan: &Plan,
) -> Result<(Server, f64), String> {
    fresh_dir(store)?;
    let t0 = Instant::now();
    let mut server = Server::spawn(harness, width, store)?;
    preseed(plan, store, seed_width);
    let pong = server.call("{\"id\":0,\"cmd\":\"ping\"}")?;
    if !pong.contains("pong") {
        return Err(format!("unexpected ping response: {pong}"));
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// One timed request.
pub struct Sample {
    pub class: Class,
    pub ms: f64,
}

/// Everything one session measured and checked.
pub struct SessionRun {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub stats: Vec<(String, u64)>,
    /// Body of each first-pass request, by (point, experiment index).
    pub bodies: Bodies,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Runs the closed-loop session against `server`, checks every response
/// and the server's exact counters, then stops the server.
pub fn session(mut server: Server, plan: &Plan) -> Result<SessionRun, String> {
    let mut run = SessionRun {
        samples: Vec::new(),
        wall_s: 0.0,
        peak_rss_mb: 0.0,
        stats: Vec::new(),
        bodies: HashMap::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let mut id = 0u64;
    let t0 = Instant::now();
    for p in 0..plan.points {
        for pass in 0..2 {
            for (i, exp) in LIGHT.iter().enumerate() {
                id += 1;
                let line = plan.line(id, p, exp);
                let start = Instant::now();
                let resp = server.call(&line)?;
                let ms = start.elapsed().as_secs_f64() * 1e3;
                let class = class_of(p, pass, i);
                run.attempted += 1;
                run.samples.push(Sample { class, ms });
                let problem = check_response(&resp, id, pass == 1).and_then(|body| {
                    if pass == 0 {
                        run.bodies.insert((p, i), body);
                        Ok(())
                    } else if run.bodies.get(&(p, i)) == Some(&body) {
                        Ok(())
                    } else {
                        Err("hit body differs from its miss body".to_string())
                    }
                });
                if let Err(e) = problem {
                    run.failed += 1;
                    run.problems.push(format!("{line}: {e}"));
                }
            }
        }
    }
    run.wall_s = t0.elapsed().as_secs_f64();
    run.peak_rss_mb = server.peak_rss_mb();
    run.stats = stats(&mut server)?;
    server.stop();
    let seeded = (0..plan.points).filter(|&p| Plan::seeded(p)).count() as u64;
    let unseeded = plan.points - seeded;
    let n = LIGHT.len() as u64;
    let want = [
        ("requests", plan.requests()),
        ("result_hits", plan.points * n),
        ("result_misses", plan.points * n),
        ("bench_resident", plan.points * 5),
        ("store_hits", seeded * 5),
        ("store_misses", unseeded * 5),
        ("store_stores", unseeded * 5),
    ];
    for (key, value) in want {
        let got = run.stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        if got != Some(value) {
            run.failed += 1;
            run.problems
                .push(format!("serve stats {key}: expected {value}, got {got:?}"));
        }
    }
    Ok(run)
}

/// Checks one run response: it parses, succeeded, echoes `id` and says
/// `cached` exactly on repeats. Returns its body.
fn check_response(resp: &str, id: u64, repeat: bool) -> Result<String, String> {
    let Ok(Json::Obj(fields)) = proto::parse_json(resp.trim_end()) else {
        return Err(format!("unparsable response {resp}"));
    };
    if field(&fields, "ok") != Some(&Json::Bool(true)) {
        return Err(format!("request failed: {resp}"));
    }
    if field(&fields, "id") != Some(&Json::Num(id as i128)) {
        return Err("response id does not echo the request".to_string());
    }
    if field(&fields, "cached") != Some(&Json::Bool(repeat)) {
        return Err(format!("expected cached={repeat}"));
    }
    match field(&fields, "body") {
        Some(Json::Str(body)) => Ok(body.clone()),
        _ => Err("response has no body".to_string()),
    }
}

fn stats(server: &mut Server) -> Result<Vec<(String, u64)>, String> {
    let resp = server.call("{\"id\":1000000,\"cmd\":\"stats\"}")?;
    let Ok(Json::Obj(fields)) = proto::parse_json(resp.trim_end()) else {
        return Err(format!("unparsable stats response {resp}"));
    };
    let Some(Json::Obj(stats)) = field(&fields, "stats") else {
        return Err(format!("stats response without stats: {resp}"));
    };
    Ok(stats
        .iter()
        .filter_map(|(k, v)| match v {
            Json::Num(n) => Some((k.clone(), *n as u64)),
            _ => None,
        })
        .collect())
}

/// Prepares each benchmark once per parameter point for the reference
/// dispatches of that point.
#[derive(Default)]
struct PointBenches(Mutex<HashMap<Spec92, Bench>>);

impl BenchSource for PointBenches {
    fn benches(
        &self,
        specs: &[Spec92],
        params: &WorkloadParams,
        pool: &Pool,
        cache: Option<&ArtifactCache>,
    ) -> Vec<Bench> {
        let mut resident = self.0.lock().expect("reference preparation never panics");
        let missing: Vec<Spec92> = specs
            .iter()
            .copied()
            .filter(|s| !resident.contains_key(s))
            .collect();
        for b in prepare_set_cached(&missing, params, pool, cache) {
            resident.insert(b.spec, b);
        }
        specs.iter().map(|s| resident[s].clone()).collect()
    }
}

/// The in-process `registry::dispatch` body of every first-pass request,
/// by (point, experiment index).
pub fn reference(plan: &Plan, width: usize) -> Bodies {
    let pool = Pool::new(width);
    let mut bodies = HashMap::new();
    for p in 0..plan.points {
        let source = PointBenches::default();
        let res = Resources {
            pool: &pool,
            store: None,
            cache_dir: PathBuf::new(),
            source: Some(&source),
        };
        for (i, exp) in LIGHT.iter().enumerate() {
            let mut req = proto::Request::new(*exp);
            req.params = plan.params(p);
            match registry::dispatch(&req, &res) {
                Ok(out) => bodies.insert((p, i), out.body),
                Err(e) => bodies.insert((p, i), format!("dispatch error: {e}")),
            };
        }
    }
    bodies
}

/// The traced replica of one session: the server's per-request calls —
/// parse, result-key derivation and lookup, preparation through the
/// artifact store, the experiment's layer calls, render, encode — made
/// in-process at pool width 1, each inside its layer span. Returns the
/// first-pass bodies and the store's counters (hits, misses, stores).
pub fn replica(t: &mut Tracer, plan: &Plan, store: &Path) -> Result<(Bodies, [u64; 3]), String> {
    let cache = ArtifactCache::new(store);
    let mut bodies = HashMap::new();
    let mut results: HashMap<Fingerprint, String> = HashMap::new();
    let mut id = 0u64;
    t.span("run", |t| {
        for p in 0..plan.points {
            let mut keys: Option<Vec<(Spec92, Fingerprint)>> = None;
            let mut resident: HashMap<Spec92, Bench> = HashMap::new();
            for pass in 0..2 {
                for (i, exp) in LIGHT.iter().enumerate() {
                    id += 1;
                    t.set_request(id);
                    let line = plan.line(id, p, exp);
                    let body = t.span("serve.request", |t| -> Result<String, String> {
                        let env = t.span("proto.parse", |_| proto::parse_line(&line))?;
                        let proto::Command::Run(req) = env.cmd else {
                            return Err("replica sends only run commands".to_string());
                        };
                        let entry = registry::find(&req.experiment).ok_or("unknown experiment")?;
                        let keys = keys.get_or_insert_with(|| {
                            t.span("cache.key", |_| registry::bench_keys(&req.params))
                        });
                        let (key, hit) = t.span("serve.lookup", |_| {
                            let key = registry::result_key(entry, &req, keys);
                            (key, results.get(&key).cloned())
                        });
                        let (body, cached) = match hit {
                            Some(body) => (body, true),
                            None => {
                                let mut benches = Vec::new();
                                for &spec in entry.benches.specs() {
                                    let b = resident.entry(spec).or_insert_with(|| {
                                        prep::prepare(t, spec, &req.params, Some(&cache))
                                    });
                                    benches.push(b.clone());
                                }
                                let body = paper::experiment(t, exp, &benches, &mut None);
                                results.insert(key, body.clone());
                                (body, false)
                            }
                        };
                        if cached != (pass == 1) {
                            return Err(format!("{line}: replica cached={cached}"));
                        }
                        let resp = Response::Ok {
                            id: Some(id as i128),
                            cached,
                            exit_ok: true,
                            files: Vec::new(),
                            body: body.clone(),
                        };
                        black_box(t.span("proto.encode", |_| resp.to_json()));
                        Ok(body)
                    })?;
                    if pass == 0 {
                        bodies.insert((p, i), body);
                    }
                }
            }
        }
        t.set_request(0);
        Ok::<(), String>(())
    })?;
    let s = cache.stats();
    Ok((bodies, [s.hits, s.misses, s.stores]))
}

/// Class medians and tail of one session, in ms, plus requests per second.
pub struct Latency {
    pub req_per_s: f64,
    pub p95_ms: f64,
    pub hit_p50_ms: f64,
    pub miss_p50_ms: f64,
    pub cold_disk_p50_ms: f64,
    pub cold_new_p50_ms: f64,
}

pub fn latency(run: &SessionRun) -> Latency {
    let of = |c: Class| -> Vec<f64> {
        run.samples
            .iter()
            .filter(|s| s.class == c)
            .map(|s| s.ms)
            .collect()
    };
    let all: Vec<f64> = run.samples.iter().map(|s| s.ms).collect();
    Latency {
        req_per_s: run.samples.len() as f64 / run.wall_s,
        p95_ms: crate::percentile(&all, 0.95),
        hit_p50_ms: crate::median(&of(Class::Hit)),
        miss_p50_ms: crate::median(&of(Class::Miss)),
        cold_disk_p50_ms: crate::median(&of(Class::ColdDisk)),
        cold_new_p50_ms: crate::median(&of(Class::ColdNew)),
    }
}

/// Digest of every first-pass body, in request order.
pub fn bodies_digest(plan: &Plan, bodies: &Bodies) -> u64 {
    let mut all = String::new();
    for p in 0..plan.points {
        for i in 0..LIGHT.len() {
            all.push_str(bodies.get(&(p, i)).map_or("", |s| s.as_str()));
        }
    }
    digest(all.as_bytes())
}
