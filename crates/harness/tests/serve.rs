//! Integration tests for `harness serve`: protocol shape (golden),
//! counter-verified byte-identical memoisation, concurrent-client
//! independence, batch ordering and LRU eviction.

use multiscalar_harness::pool::Pool;
use multiscalar_harness::proto::Request;
use multiscalar_harness::proto::Response;
use multiscalar_harness::registry;
use multiscalar_harness::serve::{self, ServeConfig, Server};
use std::sync::atomic::{AtomicU64, Ordering};

/// Masks every standalone run of digits with `#` (same rule as the lint
/// golden: digits inside letter-prefixed identifiers are kept).
fn mask_numbers(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_ident = false;
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_ascii_digit() && !in_ident {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
            out.push('#');
        } else {
            in_ident = c.is_ascii_alphabetic() || (in_ident && c.is_ascii_digit());
            out.push(c);
        }
    }
    out
}

/// A per-test scratch directory (unique per process + call).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "harness-serve-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(tag: &str, max_bytes: u64) -> ServeConfig {
    ServeConfig {
        pool: Pool::new(2),
        cache_dir: scratch_dir(tag),
        no_cache: false,
        result_max_bytes: max_bytes,
        socket: None,
    }
}

/// A scale-1 request for `experiment` (small enough for tests, large
/// enough to exercise real preparation).
fn req(experiment: &str) -> Request {
    let mut r = Request::new(experiment);
    r.params.scale = 1;
    r
}

fn stat(server: &Server, key: &str) -> u64 {
    server
        .stats()
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("stats has no `{key}` counter"))
}

/// The protocol's response shapes are pinned against a golden file:
/// envelope echo, salvaged ids on malformed requests, error texts, the
/// stats key set and order. None of these lines prepares a benchmark, so
/// the golden stays fast and parameter-independent.
#[test]
fn protocol_shapes_match_golden() {
    let server = Server::new(&config("golden", serve::DEFAULT_RESULT_MAX_BYTES));
    let lines = [
        r#"{"id":1,"cmd":"ping"}"#,
        r#"{"id":2,"cmd":"stats"}"#,
        r#"{"id":3,"experiment":"nope"}"#,
        r#"{"id":4,"experiment":"table4","format":"warp"}"#,
        r#"{"id":5,"experiment":"ext-hybrid","format":"csv"}"#,
        r#"{"id":6,"experiment":"table2","bogus":1}"#,
        r#"{"cmd":"batch","requests":[{"experiment":"nope"},{"experiment":"also-nope"}]}"#,
        r#"not json"#,
        r#"{"id":9,"cmd":"shutdown"}"#,
    ];
    let mut out = String::new();
    let mut stopped = false;
    for line in lines {
        assert!(!stopped, "shutdown must be the last line");
        let (resp, stop) = server.handle_line(line);
        out.push_str(&resp);
        out.push('\n');
        stopped = stop;
    }
    assert!(stopped, "shutdown line must stop the server");
    assert_eq!(
        mask_numbers(&out),
        include_str!("golden/serve_proto.txt"),
        "serve protocol drifted; update tests/golden/serve_proto.txt \
         if the change is deliberate"
    );
}

/// A line nested far deeper than the parser's cap (without it, the
/// recursive parser would overflow the stack and abort the process) gets
/// exactly one error response, and the connection keeps serving.
#[test]
fn deep_nesting_is_one_error_and_the_server_keeps_serving() {
    let server = Server::new(&config("deep", serve::DEFAULT_RESULT_MAX_BYTES));
    let input = format!("{}\n{}\n", "[".repeat(200_000), r#"{"id":2,"cmd":"ping"}"#);
    let mut out = Vec::new();
    let stopped = server.serve_connection(input.as_bytes(), &mut out);
    assert!(!stopped);
    assert_eq!(
        String::from_utf8(out).unwrap(),
        concat!(
            r#"{"id":null,"ok":false,"error":"nesting deeper than 64 at byte 64"}"#,
            "\n",
            r#"{"id":2,"ok":true,"cached":false,"exit":0,"files":[],"body":"pong\n"}"#,
            "\n",
        )
    );
}

/// A fuzz range of every `u64` seed and a scale that would ask for
/// terabytes each get one error naming the cap, with the request id, and
/// the connection keeps serving: neither may reach preparation.
#[test]
fn out_of_range_parameters_are_one_error_each_and_the_server_keeps_serving() {
    let server = Server::new(&config("bounds", serve::DEFAULT_RESULT_MAX_BYTES));
    let input = concat!(
        r#"{"id":2,"cmd":"run","experiment":"fuzz","seeds":"0..18446744073709551615"}"#,
        "\n",
        r#"{"id":3,"cmd":"run","experiment":"table2","scale":4294967295}"#,
        "\n",
        r#"{"id":4,"cmd":"ping"}"#,
        "\n",
    );
    let mut out = Vec::new();
    let stopped = server.serve_connection(input.as_bytes(), &mut out);
    assert!(!stopped);
    assert_eq!(
        String::from_utf8(out).unwrap(),
        concat!(
            r#"{"id":2,"ok":false,"error":"seed range `0..18446744073709551615` names more than 4096 seeds"}"#,
            "\n",
            r#"{"id":3,"ok":false,"error":"scale 4294967295 is above the maximum 16"}"#,
            "\n",
            r#"{"id":4,"ok":true,"cached":false,"exit":0,"files":[],"body":"pong\n"}"#,
            "\n",
        )
    );
}

/// The tentpole property: a repeated identical request is served from the
/// in-memory result cache — counter-verified, byte-identical, and equal
/// to what the CLI's own dispatch path produces for the same request.
#[test]
fn repeated_request_is_a_counted_byte_identical_cache_hit() {
    let cfg = config("memo", serve::DEFAULT_RESULT_MAX_BYTES);
    let server = Server::new(&cfg);
    let request = req("table2");

    let first = server.run_request(Some(1), &request);
    let Response::Ok {
        cached: false,
        body: cold_body,
        exit_ok: true,
        ..
    } = first
    else {
        panic!("cold run must be an uncached Ok: {first:?}");
    };
    assert_eq!(stat(&server, "result_misses"), 1);
    assert_eq!(stat(&server, "result_hits"), 0);

    let second = server.run_request(Some(2), &request);
    let Response::Ok {
        cached: true,
        body: warm_body,
        ..
    } = second
    else {
        panic!("repeat must be a cached Ok: {second:?}");
    };
    assert_eq!(stat(&server, "result_hits"), 1);
    assert_eq!(stat(&server, "result_misses"), 1);
    assert_eq!(cold_body, warm_body, "cache hit must be byte-identical");

    // The memoised body is exactly what the CLI path renders for the
    // same request — the server adds residency, never behavior.
    let pool = Pool::new(2);
    let resources = registry::Resources {
        pool: &pool,
        store: None,
        cache_dir: cfg.cache_dir.clone(),
        source: None,
    };
    let cli = registry::dispatch(&request, &resources).expect("table2 runs");
    assert_eq!(
        cli.body, cold_body,
        "serve and CLI must render the same bytes"
    );

    // Preparation happened once: the second request never touched a
    // benchmark (five SPEC92 analogs resident, no more).
    assert_eq!(stat(&server, "bench_resident"), 5);
}

/// `asm`/`disasm` are first-class tool experiments behind the same
/// [`registry::dispatch`] path the server and CLI share. Their rendered
/// bodies — counts, canonical disassembly, rustc-style and JSON error
/// rendering — are pinned against a golden file over committed fixtures.
/// And because they read files, the server must never memoise them: an
/// identical repeat request is counter-verified to re-run.
#[test]
fn masm_tool_dispatch_matches_golden_and_is_never_memoised() {
    let pool = Pool::new(2);
    let resources = registry::Resources {
        pool: &pool,
        store: None,
        cache_dir: scratch_dir("masm-golden"),
        source: None,
    };
    let cases = [
        ("asm", "tests/fixtures/demo.masm", false),
        ("disasm", "tests/fixtures/demo.masm", false),
        ("asm", "tests/fixtures/broken.masm", false),
        ("asm", "tests/fixtures/broken.masm", true),
    ];
    let mut out = String::new();
    for (tool, file, json) in cases {
        let mut r = req(tool);
        r.opts.file = Some(file.to_string());
        if json {
            r.format = multiscalar_harness::proto::OutputFormat::Json;
        }
        let fmt = if json { "json" } else { "text" };
        let output = registry::dispatch(&r, &resources).expect("masm tools dispatch");
        out.push_str(&format!("== {tool} {file} ({fmt}) ok={}\n", output.ok));
        out.push_str(&output.body);
        if !output.body.ends_with('\n') {
            out.push('\n');
        }
    }
    let golden = include_str!("golden/masm_tools.txt");
    if out != golden {
        let dump = std::env::temp_dir().join("masm_tools_actual.txt");
        std::fs::write(&dump, &out).unwrap();
        panic!(
            "masm tool output drifted; actual written to {} — copy it over \
             tests/golden/masm_tools.txt if the change is deliberate",
            dump.display()
        );
    }

    // file-reading tools are registered `cache_safe: false` — the server
    // re-runs an identical request rather than serving stale bytes.
    let server = Server::new(&config("masm-memo", serve::DEFAULT_RESULT_MAX_BYTES));
    let mut r = req("disasm");
    r.opts.file = Some("tests/fixtures/demo.masm".to_string());
    for id in 0..2 {
        match server.run_request(Some(id), &r) {
            Response::Ok { cached, .. } => {
                assert!(!cached, "file-sourced tools must never be memoised")
            }
            other => panic!("disasm run failed: {other:?}"),
        }
    }
    assert_eq!(stat(&server, "result_hits"), 0);
}

/// Concurrent clients interleave without affecting each other: every
/// response is byte-identical to the serial reference, whatever the
/// thread schedule.
#[test]
fn concurrent_clients_get_independent_byte_identical_responses() {
    let server = Server::new(&config("conc", serve::DEFAULT_RESULT_MAX_BYTES));
    let names = ["fig3", "table2", "fig3"];

    // Serial reference bodies, computed through the same server (the
    // first run warms the caches; determinism is what's under test).
    let reference: Vec<String> = names
        .iter()
        .map(|n| match server.run_request(None, &req(n)) {
            Response::Ok { body, .. } => body,
            other => panic!("reference run failed: {other:?}"),
        })
        .collect();

    let results: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    names
                        .iter()
                        .map(|n| match server.run_request(None, &req(n)) {
                            Response::Ok { body, .. } => body,
                            other => panic!("concurrent run failed: {other:?}"),
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for bodies in &results {
        assert_eq!(
            bodies, &reference,
            "a concurrent client saw different bytes than the serial reference"
        );
    }
}

/// Batch responses come back in request order regardless of execution
/// interleaving on the pool.
#[test]
fn batch_responses_preserve_request_order() {
    let server = Server::new(&config("batch", serve::DEFAULT_RESULT_MAX_BYTES));
    let (resp, stop) = server.handle_line(
        r#"{"id":11,"cmd":"batch","requests":[{"experiment":"fig3","scale":1},{"experiment":"table2","scale":1}]}"#,
    );
    assert!(!stop);
    let fig3_at = resp.find("Figure 3").expect("fig3 body present");
    let table2_at = resp.find("Table 2").expect("table2 body present");
    assert!(
        fig3_at < table2_at,
        "batch responses out of request order: {resp}"
    );
}

/// A byte cap smaller than one rendered result forces the LRU path:
/// inserts evict, nothing stays resident, and the eviction counter says
/// so.
#[test]
fn tiny_result_cap_evicts_and_never_serves_hits() {
    let server = Server::new(&config("evict", 256));
    let request = req("table2");
    for id in 0..2 {
        match server.run_request(Some(id), &request) {
            Response::Ok { cached, .. } => {
                assert!(!cached, "nothing can be cached under a 256-byte cap")
            }
            other => panic!("run failed: {other:?}"),
        }
    }
    assert_eq!(stat(&server, "result_hits"), 0);
    assert_eq!(stat(&server, "result_misses"), 2);
    assert!(stat(&server, "result_evictions") >= 1);
    assert_eq!(stat(&server, "result_entries"), 0);
    assert_eq!(stat(&server, "result_bytes"), 0);
}
