//! `kremlin serve` — the profiling pipeline as a long-running service.
//!
//! One [`Engine`] (and thus one artifact cache) is shared by a pool of
//! worker threads behind a **bounded job queue**: the accept loop either
//! enqueues a connection or — when the queue is full — answers `429 Too
//! Many Requests` immediately with a `Retry-After` hint. Workers run
//! requests concurrently through the engine: a source request profiles
//! while the program executes, an upload streams its trace into the
//! profiler. The cache's single-flight population means concurrent
//! submissions of the same program still compile once and profile once.
//!
//! Endpoints (see [`crate::protocol`] for the `kremlin-serve-v1` bodies):
//!
//! | Route              | Meaning                                        |
//! |--------------------|------------------------------------------------|
//! | `GET /healthz`     | liveness probe                                 |
//! | `POST /v1/profile` | submit source, get ranked plan + verdicts      |
//! | `POST /v1/trace`   | upload a `.ktrace`, get ranked plan + verdicts |
//! | `GET /v1/metrics`  | live `kremlin-metrics-v1` snapshot             |

use std::collections::{HashSet, VecDeque};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use kremlin::interp::Trace;
use kremlin::planner::personality;

use crate::http::{read_request, write_response, Request};
use crate::{protocol, Engine};

/// Daemon configuration: the `kremlin serve` flags, and `default_jobs`,
/// which only library callers set and nothing reads.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1; `0` picks an ephemeral port (tests).
    pub port: u16,
    /// Worker threads draining the queue. `0` is allowed and means the
    /// queue never drains — useful only for exercising admission
    /// control deterministically in tests.
    pub workers: usize,
    /// Bounded queue depth; a connection arriving when `queue_depth`
    /// jobs are already waiting is answered 429.
    pub queue_depth: usize,
    /// Ignored: every request profiles in one pass, whatever its shard
    /// count. Goes with the `jobs` field at the next `kremlin-serve-v1`
    /// bump.
    pub default_jobs: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { port: 7071, workers: 4, queue_depth: 32, default_jobs: 1 }
    }
}

/// Bounded connection queue with blocking pop — admission control lives
/// at the push side.
struct JobQueue {
    jobs: Mutex<VecDeque<TcpStream>>,
    depth: usize,
    available: Condvar,
}

impl JobQueue {
    fn new(depth: usize) -> Self {
        JobQueue { jobs: Mutex::new(VecDeque::new()), depth, available: Condvar::new() }
    }

    /// Enqueues unless full; on saturation the connection comes back.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut jobs = self.jobs.lock().expect("queue lock");
        if jobs.len() >= self.depth {
            return Err(stream);
        }
        jobs.push_back(stream);
        kremlin_obs::gauge!("serve.queue.depth").set(jobs.len() as u64);
        drop(jobs);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once `shutdown` is set.
    fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut jobs = self.jobs.lock().expect("queue lock");
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(stream) = jobs.pop_front() {
                kremlin_obs::gauge!("serve.queue.depth").set(jobs.len() as u64);
                return Some(stream);
            }
            jobs = self.available.wait(jobs).expect("queue lock");
        }
    }
}

/// A running daemon. Dropping without [`Server::shutdown`] detaches the
/// threads (the process-exit path of the CLI).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<JobQueue>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and worker pool, and returns. Also
    /// flips the global metrics switch on — a profiling service without
    /// live telemetry would be blind.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServeConfig, engine: Arc<Engine>) -> io::Result<Server> {
        kremlin_obs::set_metrics(true);
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(JobQueue::new(config.queue_depth.max(1)));

        let workers = (0..config.workers)
            .map(|_| {
                let (engine, queue, shutdown) =
                    (Arc::clone(&engine), Arc::clone(&queue), Arc::clone(&shutdown));
                thread::spawn(move || {
                    while let Some(mut stream) = queue.pop(&shutdown) {
                        handle_connection(&engine, &mut stream);
                        kremlin_obs::counter!("serve.handled").incr();
                    }
                })
            })
            .collect();

        let accept = {
            let (queue, shutdown) = (Arc::clone(&queue), Arc::clone(&shutdown));
            thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    kremlin_obs::counter!("serve.accepted").incr();
                    if let Err(rejected) = queue.try_push(stream) {
                        kremlin_obs::counter!("serve.rejected").incr();
                        reject_saturated(rejected);
                    }
                }
            })
        };

        Ok(Server { addr, shutdown, queue, accept: Some(accept), workers })
    }

    /// The bound address (resolves the ephemeral port in tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon shuts down (the CLI foreground path).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Stops accepting, wakes the workers, and joins all threads.
    /// Queued-but-unserved connections are dropped.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.queue.available.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Answers `429` on a connection the full queue turned away, then drains
/// the client's request before closing: closing a socket with unread
/// bytes resets the connection, and the client would lose the answer.
/// The daemon binds loopback only, so an honest client's request is
/// already in flight; the 100 ms bound keeps a silent one from stalling
/// the accept loop.
fn reject_saturated(mut stream: TcpStream) {
    let body = protocol::error_response("server saturated: job queue is full, retry shortly");
    let _ = write_response(
        &mut stream,
        429,
        "application/json",
        body.as_bytes(),
        &[("Retry-After", "1")],
    );
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// One prepared response.
struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response { status, content_type: "application/json", body: body.into_bytes() }
    }
}

fn handle_connection(engine: &Engine, stream: &mut TcpStream) {
    let request = match read_request(stream) {
        Ok(r) => r,
        Err(e) => {
            let body = protocol::error_response(&e.message);
            let _ = write_response(stream, e.status, "application/json", body.as_bytes(), &[]);
            return;
        }
    };
    // A panicking handler must cost one request, not a worker thread.
    let response =
        catch_unwind(AssertUnwindSafe(|| route(engine, &request))).unwrap_or_else(|_| {
            Response::json(500, protocol::error_response("internal error: handler panicked"))
        });
    let _ = write_response(stream, response.status, response.content_type, &response.body, &[]);
}

fn route(engine: &Engine, request: &Request) -> Response {
    if let Err(message) = protocol::check_path_version(&request.path) {
        return Response::json(400, protocol::error_response(&message));
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(
            200,
            format!(
                "{{\"schema\":{},\"status\":\"ok\"}}",
                kremlin_obs::json::escape(protocol::SCHEMA)
            ),
        ),
        ("GET", "/v1/metrics") => {
            kremlin_obs::counter!("serve.requests.metrics").incr();
            Response::json(200, kremlin_obs::snapshot().to_json())
        }
        ("POST", "/v1/profile") => {
            kremlin_obs::counter!("serve.requests.profile").incr();
            let Ok(body) = std::str::from_utf8(&request.body) else {
                return Response::json(400, protocol::error_response("body is not UTF-8"));
            };
            let parsed = match protocol::parse_profile_request(body) {
                Ok(p) => p,
                Err(e) => return Response::json(400, protocol::error_response(&e)),
            };
            let planner = match personality(&parsed.personality) {
                Ok(planner) => planner,
                Err(e) => return Response::json(400, protocol::error_response(&e)),
            };
            match engine.analyze_source(&parsed.source, &parsed.name, parsed.jobs) {
                Ok(result) => {
                    let plan = result.analysis.plan_with(&*planner, &HashSet::new());
                    Response::json(
                        200,
                        protocol::profile_response(&result, &parsed.personality, &plan),
                    )
                }
                Err(e) => Response::json(422, protocol::error_response(&e.to_string())),
            }
        }
        ("POST", "/v1/trace") => {
            kremlin_obs::counter!("serve.requests.trace").incr();
            let trace = match Trace::from_bytes(&request.body) {
                Ok(t) => t,
                Err(e) => return Response::json(400, protocol::error_response(&e.to_string())),
            };
            // Validated like the body field, and likewise not acted on.
            if let Some(v) = request.header("x-kremlin-jobs") {
                if let Err(e) = protocol::parse_jobs(v.parse().ok()) {
                    return Response::json(400, protocol::error_response(&e));
                }
            }
            let personality_name =
                request.header("x-kremlin-personality").unwrap_or("openmp").to_string();
            let planner = match personality(&personality_name) {
                Ok(planner) => planner,
                Err(e) => return Response::json(400, protocol::error_response(&e)),
            };
            match engine.analyze_trace(&trace) {
                Ok(result) => {
                    let plan = result.analysis.plan_with(&*planner, &HashSet::new());
                    Response::json(
                        200,
                        protocol::profile_response(&result, &personality_name, &plan),
                    )
                }
                Err(e) => Response::json(422, protocol::error_response(&e.to_string())),
            }
        }
        (_, "/healthz" | "/v1/metrics" | "/v1/profile" | "/v1/trace") => {
            Response::json(405, protocol::error_response("method not allowed"))
        }
        _ => Response::json(404, protocol::error_response("no such endpoint")),
    }
}
