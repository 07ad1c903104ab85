//! End-to-end tests for `kremlin serve`: real sockets against a real
//! daemon on an ephemeral port — submit twice and byte-compare plans,
//! upload a trace, saturate the bounded queue into a 429, and exercise
//! the protocol version gate.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use kremlin::Kremlin;
use kremlin_engine::serve::{ServeConfig, Server};
use kremlin_engine::{Engine, EngineConfig};
use kremlin_obs::json::{self, Value};

mod forged;

const DEMO: &str = "float grid[512];\n\
    int main() { for (int i = 0; i < 512; i++) { grid[i] = sin((float) i); } return 0; }";

/// One parsed HTTP response.
struct Reply {
    status: u16,
    headers: String,
    body: Vec<u8>,
}

/// Sends one request and reads to EOF (the server always closes).
fn roundtrip(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("header terminator");
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head.split_whitespace().nth(1).expect("status code").parse().unwrap();
    Reply { status, headers: head, body: raw[split + 4..].to_vec() }
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> Reply {
    roundtrip(addr, "POST", path, &[("Content-Type", "application/json")], body.as_bytes())
}

fn body_json(reply: &Reply) -> Value {
    json::parse(std::str::from_utf8(&reply.body).expect("UTF-8 body")).expect("JSON body")
}

fn start_server(workers: usize, queue_depth: usize) -> Server {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    Server::start(ServeConfig { port: 0, workers, queue_depth, default_jobs: 1 }, engine)
        .expect("bind ephemeral port")
}

#[test]
fn healthz_and_metrics_respond() {
    let server = start_server(2, 8);
    let addr = server.addr();

    let health = roundtrip(addr, "GET", "/healthz", &[], b"");
    assert_eq!(health.status, 200);
    let doc = body_json(&health);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("kremlin-serve-v1"));

    let metrics = roundtrip(addr, "GET", "/v1/metrics", &[], b"");
    assert_eq!(metrics.status, 200);
    let snap = kremlin_obs::Snapshot::from_json(std::str::from_utf8(&metrics.body).unwrap())
        .expect("metrics body must parse as kremlin-metrics-v1");
    assert!(snap.counter("serve.accepted") >= 1);

    server.shutdown();
}

#[test]
fn second_submit_is_a_cache_hit_with_bit_identical_plan() {
    let server = start_server(2, 8);
    let addr = server.addr();
    let request = Value::Obj(vec![
        ("schema".into(), Value::Str("kremlin-serve-v1".into())),
        ("source".into(), Value::Str(DEMO.into())),
        ("name".into(), Value::Str("grid.kc".into())),
        ("jobs".into(), Value::Num(2.0)),
    ])
    .to_string();

    let cold = post_json(addr, "/v1/profile", &request);
    assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
    let cold_doc = body_json(&cold);
    let cold_reused = cold_doc.get("reused").expect("reused object");
    assert_eq!(cold_reused.get("unit"), Some(&Value::Bool(false)));
    assert_eq!(cold_reused.get("decoded"), Some(&Value::Bool(false)));

    let warm = post_json(addr, "/v1/profile", &request);
    assert_eq!(warm.status, 200);
    let warm_doc = body_json(&warm);
    let warm_reused = warm_doc.get("reused").expect("reused object");
    for stage in ["unit", "decoded", "profile"] {
        assert_eq!(
            warm_reused.get(stage),
            Some(&Value::Bool(true)),
            "warm request must reuse the {stage} artifact"
        );
    }

    let cold_plan = cold_doc.get("plan").and_then(Value::as_str).expect("plan text");
    let warm_plan = warm_doc.get("plan").and_then(Value::as_str).expect("plan text");
    assert!(!cold_plan.is_empty());
    assert_eq!(cold_plan, warm_plan, "plans must be byte-identical across requests");
    assert_eq!(cold_doc.get("module_fingerprint"), warm_doc.get("module_fingerprint"));

    // The CLI's personality names plan from the same row.
    for personality in ["work-only", "self-parallelism"] {
        let body = request.replacen('{', &format!("{{\"personality\":\"{personality}\","), 1);
        let reply = post_json(addr, "/v1/profile", &body);
        assert_eq!(reply.status, 200, "{personality}: {}", String::from_utf8_lossy(&reply.body));
        let doc = body_json(&reply);
        assert_eq!(doc.get("personality").and_then(Value::as_str), Some(personality));
        let plan = doc.get("plan").and_then(Value::as_str).expect("plan text");
        assert!(plan.contains(&format!("[{personality}]")), "{plan}");
        let reused = doc.get("reused").and_then(|r| r.get("profile"));
        assert_eq!(reused, Some(&Value::Bool(true)), "{personality}");
    }

    server.shutdown();
}

#[test]
fn trace_upload_profiles_and_reports_fingerprint() {
    let unit = kremlin::ir::compile(DEMO, "grid.kc").unwrap();
    let trace = Kremlin::new().record(&unit, DEMO).unwrap();
    let expected_fp = format!("{:#018x}", trace.fingerprint());

    let server = start_server(2, 8);
    for personality in ["openmp", "work-only", "self-parallelism"] {
        let reply = roundtrip(
            server.addr(),
            "POST",
            "/v1/trace",
            &[("x-kremlin-jobs", "2"), ("x-kremlin-personality", personality)],
            &trace.to_bytes(),
        );
        assert_eq!(reply.status, 200, "{personality}: {}", String::from_utf8_lossy(&reply.body));
        let doc = body_json(&reply);
        let fp = doc.get("module_fingerprint").and_then(Value::as_str);
        assert_eq!(fp, Some(expected_fp.as_str()));
        assert!(doc.get("entries").and_then(Value::as_arr).is_some());
        assert_eq!(doc.get("personality").and_then(Value::as_str), Some(personality));
    }

    // The header takes the body field's shard counts and its 400.
    for (jobs, status) in [("1", 200), ("2", 200), ("0", 400), ("999", 400), ("abc", 400)] {
        let headers = [("x-kremlin-jobs", jobs)];
        let reply = roundtrip(server.addr(), "POST", "/v1/trace", &headers, &trace.to_bytes());
        assert_eq!(reply.status, status, "jobs {jobs}: {}", String::from_utf8_lossy(&reply.body));
        if status == 400 {
            let error = body_json(&reply).get("error").and_then(Value::as_str).map(str::to_owned);
            assert_eq!(error.as_deref(), Some("\"jobs\" must be an integer in 1..=64"));
        }
    }

    let garbage = roundtrip(server.addr(), "POST", "/v1/trace", &[], b"not a ktrace");
    assert_eq!(garbage.status, 400);

    server.shutdown();
}

/// A forged upload costs one 422: a forged event count does not abort
/// the daemon, forged nesting or addresses do not grow it without bound,
/// and it keeps serving. The forged program's row, once resident,
/// answers none of them. A program past the globals cap gets 422 as an
/// upload and as a source.
#[test]
fn forged_uploads_answer_422_and_the_daemon_keeps_serving() {
    let server = start_server(2, 8);
    let addr = server.addr();
    let traces = forged::traces();
    let refuse_all = |when: &str| {
        for (what, why, bytes) in &traces {
            let reply = roundtrip(addr, "POST", "/v1/trace", &[], bytes);
            let body = String::from_utf8_lossy(&reply.body);
            assert_eq!(reply.status, 422, "{what}, {when}: {body}");
            let error = body_json(&reply).get("error").and_then(Value::as_str).unwrap().to_string();
            assert!(error.contains("corrupt trace event stream"), "{what}, {when}: {error}");
            assert!(error.contains(why), "{what}, {when}: {error}");
            assert_eq!(roundtrip(addr, "GET", "/healthz", &[], b"").status, 200, "{what}");
        }
    };
    refuse_all("no row resident");
    let program = kremlin::interp::Trace::from_bytes(&traces[0].2).unwrap();
    let request = Value::Obj(vec![
        ("schema".into(), Value::Str("kremlin-serve-v1".into())),
        ("source".into(), Value::Str(program.source.clone())),
        ("name".into(), Value::Str(program.source_name.clone())),
    ])
    .to_string();
    assert_eq!(post_json(addr, "/v1/profile", &request).status, 200);
    refuse_all("its row resident");
    // A program past the globals cap, as an upload and as a source.
    let oversized = forged::oversized_globals();
    let program = kremlin::interp::Trace::from_bytes(&oversized).unwrap();
    let request = Value::Obj(vec![
        ("schema".into(), Value::Str("kremlin-serve-v1".into())),
        ("source".into(), Value::Str(program.source.clone())),
        ("name".into(), Value::Str(program.source_name.clone())),
    ])
    .to_string();
    for reply in [
        roundtrip(addr, "POST", "/v1/trace", &[], &oversized),
        post_json(addr, "/v1/profile", &request),
    ] {
        let error = body_json(&reply).get("error").and_then(Value::as_str).unwrap().to_string();
        assert_eq!(reply.status, 422, "{error}");
        assert!(error.contains("more than the 4194304 a program may declare"), "{error}");
    }
    let unit = kremlin::ir::compile(DEMO, "grid.kc").unwrap();
    let trace = Kremlin::new().record(&unit, DEMO).unwrap();
    assert_eq!(roundtrip(addr, "POST", "/v1/trace", &[], &trace.to_bytes()).status, 200);
    server.shutdown();
}

/// With zero workers the queue never drains, so admission control is
/// deterministic: `queue_depth` connections are enqueued, the next is
/// answered 429 with a Retry-After hint.
#[test]
fn saturated_queue_answers_429() {
    let server = start_server(0, 1);
    let addr = server.addr();

    // Occupies the single queue slot (never served — no workers).
    let parked = TcpStream::connect(addr).unwrap();
    // The accept loop processes connections in order; give it a moment
    // to enqueue the parked one before offering the next.
    std::thread::sleep(Duration::from_millis(200));

    let rejected = roundtrip(addr, "GET", "/healthz", &[], b"");
    assert_eq!(rejected.status, 429);
    assert!(rejected.headers.contains("Retry-After"), "{}", rejected.headers);
    let doc = body_json(&rejected);
    assert!(doc.get("error").and_then(Value::as_str).unwrap().contains("saturated"));

    drop(parked);
    server.shutdown();
}

#[test]
fn unknown_protocol_version_is_rejected_naming_both_versions() {
    let server = start_server(1, 4);
    let reply = roundtrip(server.addr(), "GET", "/v2/metrics", &[], b"");
    assert_eq!(reply.status, 400);
    let error = body_json(&reply).get("error").and_then(Value::as_str).unwrap().to_string();
    assert!(error.contains("v2"), "{error}");
    assert!(error.contains("kremlin-serve-v1"), "{error}");
    server.shutdown();
}

#[test]
fn method_and_route_errors_are_clean() {
    let server = start_server(1, 4);
    let addr = server.addr();

    assert_eq!(roundtrip(addr, "DELETE", "/v1/metrics", &[], b"").status, 405);
    assert_eq!(roundtrip(addr, "GET", "/v1/nothing", &[], b"").status, 404);
    assert_eq!(post_json(addr, "/v1/profile", "not json").status, 400);

    let wrong_schema = post_json(
        addr,
        "/v1/profile",
        r#"{"schema":"kremlin-serve-v9","source":"int main() { return 0; }"}"#,
    );
    assert_eq!(wrong_schema.status, 400);
    let error = body_json(&wrong_schema).get("error").and_then(Value::as_str).unwrap().to_string();
    assert!(error.contains("kremlin-serve-v9") && error.contains("kremlin-serve-v1"), "{error}");

    // Personalities go by the CLI's names; the 400 lists them.
    let unknown = post_json(
        addr,
        "/v1/profile",
        r#"{"schema":"kremlin-serve-v1","source":"int main() { return 0; }","personality":"selfp"}"#,
    );
    assert_eq!(unknown.status, 400);
    let error = body_json(&unknown).get("error").and_then(Value::as_str).unwrap().to_string();
    for name in ["selfp", "openmp", "cilk", "work-only", "self-parallelism"] {
        assert!(error.contains(name), "{error}");
    }

    server.shutdown();
}
