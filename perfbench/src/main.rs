//! `perfbench` — the repository's layered benchmark.
//!
//! ```text
//! perfbench --workload paper-all|ext-explore|serve-session
//!           [--seed N] [--seconds S] [--trace 0|1] --harness PATH --out DIR
//! ```
//!
//! With `--trace 0` it measures the workload end to end for about
//! `--seconds` seconds and prints the end-to-end metrics; with `--trace 1`
//! it makes one traced run, timing each public layer call from outside the
//! program, and prints the per-layer metrics. Either way it checks every
//! output, prints one `{"host": ...}` line of host facts, and ends with one
//! JSON result line. `perfbench/run.py` builds it and the `harness` binary
//! and runs it; `perfbench/README.md` defines every metric.

mod ext;
mod paper;
mod prep;
mod probe;
mod request;
mod session;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use multiscalar_harness::pool::Pool;
use multiscalar_harness::prepare_set_cached;
use multiscalar_workloads::Spec92;

use request::{RequestWorkload, EXT_EXPLORE, PAPER_ALL};
use session::{Plan, SessionRun};
use trace::Tracer;

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;
/// The held-out workload seed: later claims must also hold on it.
pub const HELD_OUT_SEED: u64 = 0xFACADE;

/// FNV-1a digests of the `all` (scale 4) and `ext` (scale 2) output bytes,
/// and of the serve-session first-pass bodies (scale 1, 14 points), at the
/// default and held-out seeds.
pub const PINNED: &[(&str, u64, u64)] = &[
    ("all", DEFAULT_SEED, 0xc6bd_075d_1cc6_c294),
    ("all", HELD_OUT_SEED, 0x192c_cc75_ef12_b99e),
    ("ext", DEFAULT_SEED, 0xebb4_45f7_aae8_4bdf),
    ("ext", HELD_OUT_SEED, 0x44e6_40c0_d000_3375),
    ("serve", DEFAULT_SEED, 0x85b3_6b6d_61ae_0e5f),
    ("serve", HELD_OUT_SEED, 0xdcc4_92de_3d13_ac62),
];

/// Parameter points one serve-session walks: 14 × 16 = 224 requests.
const SESSION_POINTS: u64 = 14;
/// Parameter points of the short serve probe in the other traced runs.
const PROBE_POINTS: u64 = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    harness: PathBuf,
    out: PathBuf,
    /// `--exec`: run one execution of this workload and report it.
    exec: Option<String>,
    width: usize,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 35.0,
        trace: false,
        harness: PathBuf::new(),
        out: PathBuf::new(),
        exec: None,
        width: 1,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse::<u64>().map_err(bad)? as f64,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            "--harness" => args.harness = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            "--exec" => args.exec = Some(value),
            "--width" => args.width = value.parse().map_err(bad)?,
            "--setup-only" => args.setup_only = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = args.harness.as_os_str().is_empty() || args.out.as_os_str().is_empty();
    if args.exec.is_none() && missing {
        return Err("--harness and --out are required".to_string());
    }
    Ok(args)
}

/// FNV-1a, 64-bit: the output digest.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// VmHWM of the process whose `/proc/<pid>/status` is at `path`, in MB.
pub fn vm_hwm_mb(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What one run measured and checked.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    scale: u32,
    widths: Vec<usize>,
}

impl Outcome {
    fn new(scale: u32, widths: Vec<usize>) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            scale,
            widths,
        }
    }

    /// Records `ops` operations that passed (`Ok`) or all failed.
    fn ops(&mut self, ops: u64, result: Result<(), String>) {
        self.attempted += ops;
        if let Err(e) = result {
            self.failed += ops;
            self.problems.push(e);
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    // A checkout that is not a git repository must not report the commit
    // of some repository above it.
    let here = std::env::current_dir().unwrap_or_default();
    let ceiling = here.parent().unwrap_or(&here).to_path_buf();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    multiscalar_harness::proto::write_json_str(&mut out, s);
    out
}

fn host_line(args: &Args, outcome: &Outcome) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let widths: Vec<String> = outcome.widths.iter().map(|w| w.to_string()).collect();
    format!(
        "{{\"host\":{{\"nproc\":{},\"rustc\":{},\"cpu\":{},\"commit\":{},\"workload\":{},\"seed\":{},\"scale\":{},\"pool_widths\":[{}],\"tracing\":{}}}}}",
        nproc(),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&cpu),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&args.workload),
        args.seed,
        outcome.scale,
        widths.join(","),
        args.trace
    )
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

/// Runs `unit(wide)` alternately at full width and at width 1, in the
/// order n, 1, 1, n, n, 1, ... so drift hits both alike, for about
/// `seconds`: once at each width at least, then while the next run, taken
/// to last as long as the previous one at its width, still fits.
fn alternate(seconds: f64, mut unit: impl FnMut(bool) -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    let mut last: [Option<f64>; 2] = [None, None];
    for i in 0usize.. {
        let wide = matches!(i % 4, 0 | 3);
        if let [Some(n), Some(one)] = last {
            let next = if wide { n } else { one };
            if start.elapsed().as_secs_f64() + next > seconds {
                break;
            }
        }
        let t = Instant::now();
        unit(wide)?;
        last[usize::from(!wide)] = Some(t.elapsed().as_secs_f64());
    }
    Ok(())
}

/// The pool widths a run compares: `nproc`, then 1.
fn widths() -> [usize; 2] {
    [nproc(), 1]
}

fn request_untraced(w: &RequestWorkload, args: &Args) -> Result<Outcome, String> {
    let [n, one] = widths();
    let mut out = Outcome::new(w.scale, vec![n, one]);
    let mut setups = Vec::new();
    for _ in 0..3 {
        setups.push(w.spawn(&args.workload, args.seed, n, true)?.setup_s);
    }
    let (mut walls_n, mut walls_1, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let ops = w.blocks.len() as u64;
    alternate(args.seconds, |wide| {
        let e = w.spawn(&args.workload, args.seed, if wide { n } else { one }, false)?;
        out.ops(ops, request::check(w, args.seed, &e, &mut first));
        if wide {
            walls_n.push(e.wall_s);
            setups.push(e.setup_s);
            rss.push(e.peak_rss_mb);
        } else {
            walls_1.push(e.wall_s);
        }
        Ok(())
    })?;
    out.metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("wall_s", median(&walls_n), "s"),
        ("wall_t1_s", median(&walls_1), "s"),
        ("peak_rss_mb", median(&rss), "MB"),
    ];
    Ok(out)
}

/// `--exec`: one execution (or set-up alone) of an in-process workload,
/// reported on one `EXEC` line for the parent run.
fn exec_child(
    w: &RequestWorkload,
    seed: u64,
    width: usize,
    setup_only: bool,
) -> Result<(), String> {
    let (setup_s, wall_s, d, lanes) = if setup_only {
        (w.setup_only(seed, width), 0.0, 0, 0)
    } else {
        let (setup_s, wall_s, body, lanes) = w.execute(seed, width)?;
        (setup_s, wall_s, digest(body.as_bytes()), lanes)
    };
    println!(
        "EXEC {setup_s} {wall_s} {lanes} {d:016x} {}",
        vm_hwm_mb("/proc/self/status")
    );
    Ok(())
}

/// Extra inputs of the per-layer metrics that come from untraced runs.
struct LayerInputs {
    wall_n: f64,
    wall_1: f64,
    width: usize,
    serve: SessionRun,
    cache: [u64; 3],
}

fn layer_metrics(t: &Tracer, x: &LayerInputs) -> Vec<Metric> {
    let own = t.layer_self_s();
    let s = |layer: &str| own.get(layer).copied().unwrap_or(0.0);
    let ms = |layer: &str| s(layer) * 1e3;
    let mrate = |count: &str, layer: &str| ratio(t.count(count), s(layer)) / 1e6;
    let us = |layer: &str| median(&t.durations(layer)) * 1e6;
    let lat = session::latency(&x.serve);
    let stat = |key: &str| {
        x.serve
            .stats
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let (traced_wall, attributed) = t.attribution("run");
    let codec_bytes = t.count("codec.encode_bytes") + t.count("codec.decode_bytes");
    vec![
        ("workloads.generate_ms", ms("workloads.generate"), "ms"),
        (
            "workloads.static_instrs",
            t.count("workloads.static_instrs"),
            "count",
        ),
        ("taskform.form_ms", ms("taskform.form"), "ms"),
        ("taskform.tasks", t.count("taskform.tasks"), "count"),
        ("cache.key_ms", ms("cache.key"), "ms"),
        ("replay.record_ms", ms("replay.record"), "ms"),
        (
            "replay.record_minstr_per_s",
            mrate("replay.instructions", "replay.record"),
            "Minstr/s",
        ),
        (
            "replay.instructions",
            t.count("replay.instructions"),
            "count",
        ),
        ("codec.encode_ms", ms("codec.encode"), "ms"),
        ("codec.decode_ms", ms("codec.decode"), "ms"),
        (
            "codec.decode_mb_per_s",
            mrate("codec.decode_bytes", "codec.decode"),
            "MB/s",
        ),
        ("codec.bytes", codec_bytes, "bytes"),
        ("cache.hits", x.cache[0] as f64, "count"),
        ("cache.misses", x.cache[1] as f64, "count"),
        ("cache.stores", x.cache[2] as f64, "count"),
        ("replay.derive_ms", ms("replay.derive"), "ms"),
        (
            "replay.derive_mevents_per_s",
            mrate("trace.events", "replay.derive"),
            "Mevents/s",
        ),
        ("trace.events", t.count("trace.events"), "count"),
        ("dispatch.ideal_ms", ms("dispatch.ideal"), "ms"),
        (
            "dispatch.ideal_mcol_events_per_s",
            mrate("dispatch.ideal_col_events", "dispatch.ideal"),
            "Mcolev/s",
        ),
        ("dispatch.lane_ms", ms("dispatch.lane"), "ms"),
        (
            "dispatch.lane_mcol_events_per_s",
            mrate("dispatch.lane_col_events", "dispatch.lane"),
            "Mcolev/s",
        ),
        (
            "sim.lane_packed_sweeps",
            t.count("sim.lane_packed_sweeps"),
            "count",
        ),
        (
            "dispatch.lane_packed_frac",
            ratio(
                t.count("sim.lane_packed_sweeps"),
                t.count("dispatch.lane_requested"),
            ),
            "ratio",
        ),
        ("dispatch.scalar_ms", ms("dispatch.scalar"), "ms"),
        (
            "dispatch.scalar_mcol_events_per_s",
            mrate("dispatch.scalar_col_events", "dispatch.scalar"),
            "Mcolev/s",
        ),
        ("timing.walk_ms", ms("timing.walk"), "ms"),
        (
            "timing.walk_minstr_per_s",
            mrate("timing.walk_instructions", "timing.walk"),
            "Minstr/s",
        ),
        ("timing.sim_cycles", t.count("timing.sim_cycles"), "count"),
        ("timing.sink_walk_ms", ms("timing.sink_walk"), "ms"),
        (
            "timing.sink_walk_minstr_per_s",
            mrate("timing.sink_instructions", "timing.sink_walk"),
            "Minstr/s",
        ),
        ("timing.interp_walk_ms", ms("timing.interp_walk"), "ms"),
        (
            "timing.interp_walk_minstr_per_s",
            mrate("timing.interp_instructions", "timing.interp_walk"),
            "Minstr/s",
        ),
        ("report.render_ms", ms("report.render"), "ms"),
        ("report.bytes", t.count("report.bytes"), "bytes"),
        (
            "pool.parallel_efficiency",
            ratio(x.wall_1, x.wall_n * x.width as f64),
            "ratio",
        ),
        ("proto.parse_us", us("proto.parse"), "us"),
        ("proto.encode_us", us("proto.encode"), "us"),
        (
            "serve.result_hit_ratio",
            ratio(
                stat("result_hits"),
                stat("result_hits") + stat("result_misses"),
            ),
            "ratio",
        ),
        ("serve.bench_resident", stat("bench_resident"), "count"),
        ("serve.req_per_s", lat.req_per_s, "1/s"),
        ("serve.p95_ms", lat.p95_ms, "ms"),
        ("serve.hit_p50_ms", lat.hit_p50_ms, "ms"),
        ("serve.miss_p50_ms", lat.miss_p50_ms, "ms"),
        ("serve.cold_disk_p50_ms", lat.cold_disk_p50_ms, "ms"),
        ("serve.cold_new_p50_ms", lat.cold_new_p50_ms, "ms"),
        (
            "trace.unattributed_frac",
            1.0 - ratio(attributed, traced_wall),
            "ratio",
        ),
        (
            "trace.overhead_frac",
            ratio(traced_wall, x.wall_1) - 1.0,
            "ratio",
        ),
    ]
}

/// Runs one checked session (set-up included) at pool width `width`.
fn checked_session(
    args: &Args,
    plan: &Plan,
    width: usize,
    reference: &session::Bodies,
    out: &mut Outcome,
) -> Result<(SessionRun, f64), String> {
    let store = args.out.join("serve-store");
    // The client pre-seeds at full width whatever the server's width, so
    // every set-up does the same work.
    let (server, setup_s) = session::setup(&args.harness, width, nproc(), &store, plan)?;
    let mut run = session::session(server, plan)?;
    let _ = std::fs::remove_dir_all(&store);
    for (k, body) in &run.bodies {
        if reference.get(k) != Some(body) {
            run.failed += 1;
            run.problems.push(format!(
                "point {} {}: serve body differs from the in-process dispatch body",
                k.0,
                session::LIGHT[k.1]
            ));
        }
    }
    let d = session::bodies_digest(plan, &run.bodies);
    if plan.points == SESSION_POINTS {
        if let Some(want) = request::pinned("serve", plan.seed).filter(|&w| w != d) {
            run.failed += 1;
            run.problems.push(format!(
                "serve bodies digest {d:016x}, expected {want:016x}"
            ));
        }
    }
    out.attempted += run.attempted;
    out.failed += run.failed;
    out.problems.append(&mut run.problems);
    Ok((run, setup_s))
}

fn serve_untraced(args: &Args) -> Result<Outcome, String> {
    let [n, one] = widths();
    let plan = Plan {
        seed: args.seed,
        points: SESSION_POINTS,
        scale: 1,
    };
    let mut out = Outcome::new(plan.scale, vec![n, one]);
    let reference = session::reference(&plan, n);
    // One set-up on its own, so set-up time has three samples.
    let store = args.out.join("serve-store");
    let (server, s) = session::setup(&args.harness, n, n, &store, &plan)?;
    server.stop();
    let mut setups = vec![s];
    let (mut walls_n, mut walls_1, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    alternate(args.seconds, |wide| {
        let (run, setup_s) = checked_session(
            args,
            &plan,
            if wide { n } else { one },
            &reference,
            &mut out,
        )?;
        setups.push(setup_s);
        if wide {
            walls_n.push(run.wall_s);
            rss.push(run.peak_rss_mb);
        } else {
            walls_1.push(run.wall_s);
        }
        Ok(())
    })?;
    out.metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("wall_s", median(&walls_n), "s"),
        ("wall_t1_s", median(&walls_1), "s"),
        ("peak_rss_mb", median(&rss), "MB"),
    ];
    Ok(out)
}

/// A short real-server session for the traced runs of the in-process
/// workloads, so they report the serve layer too.
fn serve_probe(args: &Args, out: &mut Outcome) -> Result<SessionRun, String> {
    let plan = Plan {
        seed: args.seed,
        points: PROBE_POINTS,
        scale: 1,
    };
    let reference = session::reference(&plan, nproc());
    Ok(checked_session(args, &plan, nproc(), &reference, out)?.0)
}

fn request_traced(w: &RequestWorkload, args: &Args) -> Result<Outcome, String> {
    let [n, one] = widths();
    let mut out = Outcome::new(w.scale, vec![n, one, 1]);
    let ops = w.blocks.len() as u64;
    let mut first = None;
    let wide = w.spawn(&args.workload, args.seed, n, false)?;
    out.ops(ops, request::check(w, args.seed, &wide, &mut first));
    let narrow = w.spawn(&args.workload, args.seed, one, false)?;
    out.ops(ops, request::check(w, args.seed, &narrow, &mut first));
    let mut t = Tracer::new();
    let (body, benches) = w.traced(&mut t, args.seed)?;
    drop(benches);
    let same = digest(body.as_bytes()) == narrow.digest;
    out.ops(
        ops,
        if same {
            Ok(())
        } else {
            Err("traced output differs from the untraced output".to_string())
        },
    );
    let serve = serve_probe(args, &mut out)?;
    out.metrics = layer_metrics(
        &t,
        &LayerInputs {
            wall_n: wide.wall_s,
            wall_1: narrow.wall_s,
            width: n,
            serve,
            cache: [0; 3],
        },
    );
    write_spans(&t, args);
    Ok(out)
}

fn serve_traced(args: &Args) -> Result<Outcome, String> {
    let [n, one] = widths();
    let plan = Plan {
        seed: args.seed,
        points: SESSION_POINTS,
        scale: 1,
    };
    let mut out = Outcome::new(plan.scale, vec![n, one, 1]);
    let reference = session::reference(&plan, n);
    let (wide, _) = checked_session(args, &plan, n, &reference, &mut out)?;
    let (narrow, _) = checked_session(args, &plan, one, &reference, &mut out)?;

    let store = args.out.join("replica-store");
    session::fresh_dir(&store)?;
    session::preseed(&plan, &store, n);
    let mut t = Tracer::new();
    let (bodies, cache) = session::replica(&mut t, &plan, &store)?;
    let _ = std::fs::remove_dir_all(&store);
    out.ops(
        plan.requests(),
        if bodies == reference {
            Ok(())
        } else {
            Err("traced replica bodies differ from the dispatch bodies".to_string())
        },
    );
    let seeded = plan.points.div_ceil(2);
    let want = [
        seeded * 5,
        (plan.points - seeded) * 5,
        (plan.points - seeded) * 5,
    ];
    if cache != want {
        out.failed += 1;
        out.problems.push(format!(
            "replica store counters {cache:?}, expected {want:?}"
        ));
    }
    // The timing engines are off this workload's path: probe them on the
    // first point's benchmarks.
    let params = multiscalar_workloads::WorkloadParams {
        seed: plan.seed,
        scale: plan.scale,
    };
    let benches = prepare_set_cached(Spec92::ALL.as_slice(), &params, &Pool::new(n), None);
    probe::run(
        &mut t,
        &[
            probe::Probe::Walk,
            probe::Probe::SinkWalk,
            probe::Probe::InterpWalk,
        ],
        &benches,
        &params,
    );
    drop(benches);
    out.metrics = layer_metrics(
        &t,
        &LayerInputs {
            wall_n: wide.wall_s,
            wall_1: narrow.wall_s,
            width: n,
            serve: wide,
            cache,
        },
    );
    write_spans(&t, args);
    Ok(out)
}

fn write_spans(t: &Tracer, args: &Args) {
    let path = args
        .out
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = t.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn request_workload(name: &str) -> Result<&'static RequestWorkload, String> {
    match name {
        "paper-all" => Ok(&PAPER_ALL),
        "ext-explore" => Ok(&EXT_EXPLORE),
        other => Err(format!("`{other}` is not an in-process workload")),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    match (args.workload.as_str(), args.trace) {
        ("paper-all", false) => request_untraced(&PAPER_ALL, args),
        ("paper-all", true) => request_traced(&PAPER_ALL, args),
        ("ext-explore", false) => request_untraced(&EXT_EXPLORE, args),
        ("ext-explore", true) => request_traced(&EXT_EXPLORE, args),
        ("serve-session", false) => serve_untraced(args),
        ("serve-session", true) => serve_traced(args),
        (other, _) => Err(format!(
            "unknown workload `{other}` (paper-all|ext-explore|serve-session)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(name) = &args.exec {
        let done = request_workload(name)
            .and_then(|w| exec_child(w, args.seed, args.width, args.setup_only));
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench --exec: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let started = Instant::now();
    match run(&args) {
        Ok(outcome) => {
            for p in &outcome.problems {
                eprintln!("perfbench: FAILED: {p}");
            }
            eprintln!(
                "perfbench: {} {} seed {} done in {:.1} s",
                args.workload,
                if args.trace { "traced" } else { "untraced" },
                args.seed,
                started.elapsed().as_secs_f64()
            );
            println!("{}", host_line(&args, &outcome));
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
