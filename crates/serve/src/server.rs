//! The daemon: acceptor, worker pool, job supervisor, and HTTP routing.
//!
//! Threading model: one acceptor thread, short-lived per-connection
//! threads (capped), and `workers` long-lived job threads that pull from
//! a bounded in-memory queue. All shared state sits behind one mutex;
//! placements themselves run outside it. Every job state transition is
//! persisted atomically before it becomes observable over the API, which
//! is what makes kill-at-any-instant recovery sound.

use crate::http::{self, Request, Response};
use crate::job::{backoff_delay, fnv1a, JobRecord, JobSpec, JobState};
use crate::json::{obj, s, Value};
use crate::metrics::Metrics;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tvp_core::checkpoint::{write_durable, GcPolicy};
use tvp_core::{CancelToken, PlaceOptions, PlacementResult, Placer, PlacerConfig};

/// Everything that shapes a daemon instance. `Default` gives sensible
/// production values; tests shrink the queue/backoff knobs.
#[derive(Clone, PartialEq, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7433` (`:0` picks a free port).
    pub listen: String,
    /// Root of the durable store: `jobs/`, `checkpoints/`, and the
    /// `addr` discovery file live underneath.
    pub state_dir: PathBuf,
    /// Concurrent job executions.
    pub workers: usize,
    /// Admission-control bound on queued (pending) jobs.
    pub max_queue: usize,
    /// Total thread budget shared fairly across concurrent jobs
    /// (0 = all hardware threads).
    pub thread_budget: usize,
    /// Retry cap for jobs that do not set `max_attempts` themselves.
    pub default_max_attempts: u32,
    /// Base delay of the exponential retry backoff.
    pub retry_base: Duration,
    /// Upper bound on any single backoff delay.
    pub retry_cap: Duration,
    /// How long a graceful shutdown drains before parking what is left.
    pub drain_budget: Duration,
    /// Checkpoint-store hygiene policy applied at startup.
    pub gc_policy: GcPolicy,
    /// Concurrent HTTP connections before excess ones get `503`.
    pub max_connections: usize,
    /// Largest accepted request body (inline designs can be large).
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            state_dir: PathBuf::from("tvp-serve-state"),
            workers: 2,
            max_queue: 8,
            thread_budget: 0,
            default_max_attempts: 3,
            retry_base: Duration::from_millis(500),
            retry_cap: Duration::from_secs(30),
            drain_budget: Duration::from_secs(5),
            gc_policy: GcPolicy::default(),
            max_connections: 32,
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

struct QueueEntry {
    id: String,
    /// Earliest start time; in the future for backoff re-enqueues.
    not_before: Instant,
}

#[derive(Default)]
struct DaemonState {
    jobs: HashMap<String, JobRecord>,
    queue: VecDeque<QueueEntry>,
    running: HashMap<String, CancelToken>,
    cancel_requested: HashSet<String>,
}

struct Inner {
    config: ServerConfig,
    metrics: Metrics,
    budget: tvp_parallel::ThreadBudget,
    state: Mutex<DaemonState>,
    /// Signals workers that the queue changed.
    work_ready: Condvar,
    /// Signals the shutdown drain that a job finished.
    drained: Condvar,
    /// Admission closed; drain in progress.
    shutting_down: AtomicBool,
    /// Drain budget expired: park instead of executing.
    parking: AtomicBool,
    /// Set by `POST /shutdown`; the host loop reacts to it.
    shutdown_requested: AtomicBool,
    next_job: AtomicU64,
    active_connections: AtomicUsize,
}

impl Inner {
    fn lock_state(&self) -> MutexGuard<'_, DaemonState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn job_dir(&self, id: &str) -> PathBuf {
        self.config.state_dir.join("jobs").join(id)
    }

    fn checkpoint_dir(&self, id: &str) -> PathBuf {
        self.config.state_dir.join("checkpoints").join(id)
    }
}

/// A running daemon. Dropping it shuts down without waiting for a
/// drain; call [`shutdown`](Server::shutdown) for the graceful path.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers persisted jobs, garbage-collects the checkpoint
    /// store, and spawns the acceptor and worker threads.
    ///
    /// # Errors
    ///
    /// Returns a message when the state directory cannot be created or
    /// the listen address cannot be bound.
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        let jobs_root = config.state_dir.join("jobs");
        let checkpoints_root = config.state_dir.join("checkpoints");
        for dir in [&jobs_root, &checkpoints_root] {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }

        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| format!("bind {}: {e}", config.listen))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        // Discovery file: lets `tvp serve` clients and the crash test
        // find a daemon that bound port 0.
        std::fs::write(config.state_dir.join("addr"), addr.to_string())
            .map_err(|e| format!("write addr file: {e}"))?;

        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            budget: tvp_parallel::ThreadBudget::new(config.thread_budget),
            config,
            metrics: Metrics::default(),
            state: Mutex::new(DaemonState::default()),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            parking: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
            active_connections: AtomicUsize::new(0),
        });

        recover_persisted_jobs(&inner);
        run_startup_gc(&inner);

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("tvp-serve-accept".to_string())
                .spawn(move || accept_loop(&inner, &listener))
                .map_err(|e| format!("spawn acceptor: {e}"))?
        };
        let worker_handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tvp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .map_err(|e| format!("spawn worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(Server {
            inner,
            addr,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client asked the daemon to exit via `POST /shutdown`
    /// (or a signal handler stored the request). The hosting loop polls
    /// this and then calls [`shutdown`](Server::shutdown).
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Marks the daemon for shutdown, as `POST /shutdown` would.
    pub fn request_shutdown(&self) {
        self.inner.shutdown_requested.store(true, Ordering::Relaxed);
    }

    /// Graceful shutdown: stop admitting, drain the queue within the
    /// configured budget, then cancel-and-park whatever is still
    /// running (their records return to `pending`; their checkpoints
    /// survive, so the next start resumes them). Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        // Unblock `accept` so the acceptor can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }

        let deadline = Instant::now() + self.inner.config.drain_budget;
        {
            let mut st = self.inner.lock_state();
            self.inner.work_ready.notify_all();
            while !(st.queue.is_empty() && st.running.is_empty()) {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = self
                    .inner
                    .drained
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
            if !(st.queue.is_empty() && st.running.is_empty()) {
                // Drain budget spent: park. Queued jobs are already
                // persisted as pending; running ones get cancelled and
                // their workers rewrite them to pending.
                self.inner.parking.store(true, Ordering::SeqCst);
                st.queue.clear();
                self.inner.metrics.queue_depth.store(0, Ordering::Relaxed);
                for token in st.running.values() {
                    token.cancel();
                }
            }
        }
        self.inner.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Fast path for tests and panics: skip the drain wait.
        self.inner.parking.store(true, Ordering::SeqCst);
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Startup: recovery + GC
// ---------------------------------------------------------------------

/// Rebuilds the in-memory job table from `jobs/*/job.json`. Jobs that
/// were `running` when the previous daemon died are re-adopted: their
/// `recoveries` counter bumps and they go back into the queue, where the
/// engine resumes them from the newest intact checkpoint.
fn recover_persisted_jobs(inner: &Arc<Inner>) {
    let jobs_root = inner.config.state_dir.join("jobs");
    let Ok(entries) = std::fs::read_dir(&jobs_root) else {
        return;
    };
    let mut max_counter = 0u64;
    let mut st = inner.lock_state();
    for entry in entries.flatten() {
        let dir = entry.path();
        let mut record = match JobRecord::load(&dir) {
            Ok(record) => record,
            // Corrupt or half-written records are skipped, never fatal.
            Err(_) => continue,
        };
        if let Some(counter) = record
            .id
            .split('-')
            .nth(1)
            .and_then(|n| n.parse::<u64>().ok())
        {
            max_counter = max_counter.max(counter);
        }
        match record.state {
            JobState::Running => {
                record.recoveries += 1;
                record.state = JobState::Pending;
                let _ = record.persist(&dir);
                Metrics::bump(&inner.metrics.recoveries);
            }
            JobState::Pending => {}
            _ => {
                st.jobs.insert(record.id.clone(), record);
                continue;
            }
        }
        st.queue.push_back(QueueEntry {
            id: record.id.clone(),
            not_before: Instant::now(),
        });
        inner.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        st.jobs.insert(record.id.clone(), record);
    }
    drop(st);
    inner.next_job.store(max_counter + 1, Ordering::Relaxed);
}

/// Applies the checkpoint-store GC policy, protecting every job the
/// daemon still intends to run or resume.
fn run_startup_gc(inner: &Arc<Inner>) {
    let live: HashSet<String> = {
        let st = inner.lock_state();
        st.jobs
            .iter()
            .filter(|(_, r)| !r.state.is_terminal())
            .map(|(id, _)| id.clone())
            .collect()
    };
    let root = inner.config.state_dir.join("checkpoints");
    let report =
        tvp_core::checkpoint::gc_store(&root, &inner.config.gc_policy, &|id| live.contains(id));
    if report.removed_anything() {
        eprintln!(
            "[tvp-serve] checkpoint GC: {} corrupt file(s), {} dir(s), {} byte(s) freed",
            report.corrupt_files_removed, report.dirs_removed, report.bytes_freed
        );
    }
}

// ---------------------------------------------------------------------
// Acceptor + HTTP routing
// ---------------------------------------------------------------------

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if inner.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let active = inner.active_connections.fetch_add(1, Ordering::SeqCst);
        if active >= inner.config.max_connections {
            Metrics::bump(&inner.metrics.connections_dropped);
            let _ = http::write_response(
                &mut stream,
                &Response::text(503, "connection limit reached\n".to_string()),
            );
            inner.active_connections.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let conn_inner = Arc::clone(inner);
        let spawned = std::thread::Builder::new()
            .name("tvp-serve-conn".to_string())
            .spawn(move || {
                handle_connection(&conn_inner, &mut stream);
                conn_inner.active_connections.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            inner.active_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn handle_connection(inner: &Arc<Inner>, stream: &mut TcpStream) {
    let response = match http::read_request(stream, inner.config.max_body_bytes) {
        Ok(request) => route(inner, &request),
        Err(message) => Response::text(400, format!("{message}\n")),
    };
    let _ = http::write_response(stream, &response);
}

fn route(inner: &Arc<Inner>, request: &Request) -> Response {
    let segments: Vec<&str> = request
        .path
        .split('/')
        .filter(|segment| !segment.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => submit(inner, &request.body),
        ("GET", ["jobs"]) => list_jobs(inner),
        ("GET", ["jobs", id]) => job_status(inner, id),
        ("GET", ["jobs", id, "placement"]) => job_placement(inner, id),
        ("POST", ["jobs", id, "cancel"]) => cancel_job(inner, id),
        ("GET", ["healthz"]) => healthz(inner),
        ("GET", ["metrics"]) => Response::text(200, inner.metrics.render()),
        ("POST", ["shutdown"]) => {
            inner.shutdown_requested.store(true, Ordering::Relaxed);
            Response::json(
                202,
                obj(vec![("shutting_down", Value::Bool(true))]).to_json(),
            )
        }
        (method, _) if !matches!(method, "GET" | "POST") => {
            Response::text(405, "method not allowed\n".to_string())
        }
        _ => Response::text(404, "no such endpoint\n".to_string()),
    }
}

fn error_json(status: u16, message: &str) -> Response {
    Response::json(status, obj(vec![("error", s(message))]).to_json())
}

fn submit(inner: &Arc<Inner>, body: &[u8]) -> Response {
    if inner.shutting_down.load(Ordering::SeqCst) {
        return error_json(503, "daemon is shutting down");
    }
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return error_json(400, "body is not UTF-8"),
    };
    let doc = match Value::parse(text) {
        Ok(doc) => doc,
        Err(message) => return error_json(400, &format!("malformed JSON: {message}")),
    };
    let spec = match JobSpec::from_json(&doc) {
        Ok(spec) => spec,
        Err(message) => return error_json(400, &message),
    };

    let mut st = inner.lock_state();
    // Admission control: a full queue answers 429 immediately instead of
    // accepting unbounded work. Retry re-enqueues bypass this bound.
    if st.queue.len() >= inner.config.max_queue {
        Metrics::bump(&inner.metrics.jobs_rejected);
        let retry_after = inner.config.retry_base.as_secs().max(1);
        return error_json(429, "queue full").with_header("Retry-After", retry_after.to_string());
    }

    let counter = inner.next_job.fetch_add(1, Ordering::Relaxed);
    let tag = fnv1a(
        spec.name
            .bytes()
            .chain(spec.seed.to_le_bytes())
            .chain(counter.to_le_bytes()),
    ) & 0xff_ffff;
    let id = format!("job-{counter}-{tag:06x}");
    let record = JobRecord::new(id.clone(), spec);
    if let Err(message) = record.persist(&inner.job_dir(&id)) {
        return error_json(500, &format!("cannot persist job: {message}"));
    }
    st.jobs.insert(id.clone(), record);
    st.queue.push_back(QueueEntry {
        id: id.clone(),
        not_before: Instant::now(),
    });
    drop(st);
    Metrics::bump(&inner.metrics.jobs_submitted);
    inner.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
    inner.work_ready.notify_one();
    Response::json(
        202,
        obj(vec![("id", s(id)), ("state", s("pending"))]).to_json(),
    )
}

fn list_jobs(inner: &Arc<Inner>) -> Response {
    let st = inner.lock_state();
    let mut ids: Vec<&String> = st.jobs.keys().collect();
    ids.sort();
    let jobs: Vec<Value> = ids
        .into_iter()
        .map(|id| {
            let record = &st.jobs[id];
            obj(vec![
                ("id", s(record.id.clone())),
                ("state", s(record.state.as_str())),
                ("attempts", Value::Num(f64::from(record.attempts))),
                ("retries", Value::Num(f64::from(record.retries))),
            ])
        })
        .collect();
    Response::json(200, Value::Arr(jobs).to_json())
}

fn job_status(inner: &Arc<Inner>, id: &str) -> Response {
    let st = inner.lock_state();
    match st.jobs.get(id) {
        Some(record) => Response::json(200, record.to_json().to_json()),
        None => error_json(404, "no such job"),
    }
}

fn job_placement(inner: &Arc<Inner>, id: &str) -> Response {
    let exists = inner.lock_state().jobs.contains_key(id);
    if !exists {
        return error_json(404, "no such job");
    }
    match std::fs::read_to_string(inner.job_dir(id).join("placement.pl")) {
        Ok(text) => Response::text(200, text),
        Err(_) => error_json(404, "placement not available (job not finished?)"),
    }
}

fn cancel_job(inner: &Arc<Inner>, id: &str) -> Response {
    let mut st = inner.lock_state();
    let Some(record) = st.jobs.get_mut(id) else {
        return error_json(404, "no such job");
    };
    match record.state {
        JobState::Pending => {
            record.state = JobState::Cancelled;
            let persisted = record.persist(&inner.job_dir(id));
            st.queue.retain(|entry| entry.id != id);
            drop(st);
            Metrics::bump(&inner.metrics.jobs_cancelled);
            decrement_gauge(&inner.metrics.queue_depth);
            match persisted {
                Ok(()) => Response::json(
                    202,
                    obj(vec![("id", s(id)), ("state", s("cancelled"))]).to_json(),
                ),
                Err(message) => error_json(500, &message),
            }
        }
        JobState::Running => {
            st.cancel_requested.insert(id.to_string());
            if let Some(token) = st.running.get(id) {
                token.cancel();
            }
            Response::json(
                202,
                obj(vec![("id", s(id)), ("state", s("cancelling"))]).to_json(),
            )
        }
        state => error_json(409, &format!("job already {}", state.as_str())),
    }
}

fn healthz(inner: &Arc<Inner>) -> Response {
    let (queued, running) = {
        let st = inner.lock_state();
        (st.queue.len(), st.running.len())
    };
    Response::json(
        200,
        obj(vec![
            ("status", s("ok")),
            ("queued", Value::Num(queued as f64)),
            ("running", Value::Num(running as f64)),
            (
                "shutting_down",
                Value::Bool(inner.shutting_down.load(Ordering::SeqCst)),
            ),
        ])
        .to_json(),
    )
}

fn decrement_gauge(gauge: &AtomicU64) {
    let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(inner: &Arc<Inner>) {
    while let Some(id) = next_ready_job(inner) {
        run_job(inner, &id);
        inner.drained.notify_all();
    }
}

/// Blocks until a queue entry is ready (its backoff delay elapsed) or
/// the daemon is shutting down with nothing left to drain.
fn next_ready_job(inner: &Arc<Inner>) -> Option<String> {
    let mut st = inner.lock_state();
    loop {
        if inner.parking.load(Ordering::SeqCst) {
            return None;
        }
        let now = Instant::now();
        if let Some(position) = st.queue.iter().position(|entry| entry.not_before <= now) {
            let entry = st.queue.remove(position)?;
            decrement_gauge(&inner.metrics.queue_depth);
            return Some(entry.id);
        }
        if inner.shutting_down.load(Ordering::SeqCst) && st.queue.is_empty() {
            return None;
        }
        // Sleep until the earliest backoff matures, polling at 200 ms so
        // shutdown flags are never missed.
        let timeout = st
            .queue
            .iter()
            .map(|entry| entry.not_before.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_millis(200))
            .min(Duration::from_millis(200));
        let (guard, _) = inner
            .work_ready
            .wait_timeout(st, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        st = guard;
    }
}

/// Executes one attempt of one job, then applies the supervision
/// policy: success/degraded, cancelled, parked, retry, or dead-letter.
fn run_job(inner: &Arc<Inner>, id: &str) {
    let (spec, attempts, recoveries, token) = {
        let mut st = inner.lock_state();
        let Some(record) = st.jobs.get_mut(id) else {
            return;
        };
        if record.state != JobState::Pending {
            // Cancelled while queued (or a duplicate entry): nothing to do.
            return;
        }
        record.state = JobState::Running;
        record.attempts += 1;
        let _ = record.persist(&inner.job_dir(id));
        let token = CancelToken::new();
        let claimed = (
            record.spec.clone(),
            record.attempts,
            record.recoveries,
            token.clone(),
        );
        st.running.insert(id.to_string(), token);
        claimed
    };
    inner.metrics.running.fetch_add(1, Ordering::Relaxed);
    eprintln!(
        "[tvp-serve] {id}: attempt {attempts} starting ({} cells, seed {})",
        spec.cells
            .map_or_else(|| "inline".to_string(), |n| n.to_string()),
        spec.seed
    );

    let outcome = execute(inner, id, &spec, attempts, recoveries, &token);

    let mut st = inner.lock_state();
    st.running.remove(id);
    let was_cancelled = st.cancel_requested.remove(id);
    let Some(record) = st.jobs.get_mut(id) else {
        inner.metrics.running.fetch_sub(1, Ordering::Relaxed);
        return;
    };
    let parked = !was_cancelled && inner.parking.load(Ordering::SeqCst) && token.is_cancelled();
    // A finished run's placement is durable before its record can say
    // `done`; a failed write is a retryable error, so the retry and
    // dead-letter policy below applies to it.
    let outcome = outcome.and_then(|(result, pl_text)| {
        if !was_cancelled && !parked {
            let path = inner.job_dir(id).join("placement.pl");
            write_durable(&path, pl_text.as_bytes())
                .map_err(|e| (format!("write {}: {e}", path.display()), true))?;
        }
        Ok(result)
    });
    match outcome {
        Ok(result) => {
            if was_cancelled {
                record.state = JobState::Cancelled;
                Metrics::bump(&inner.metrics.jobs_cancelled);
            } else if parked {
                // Parked by shutdown: back to pending with checkpoints
                // intact; the next daemon start resumes this run.
                record.state = JobState::Pending;
                eprintln!("[tvp-serve] {id}: parked by shutdown after attempt {attempts}");
            } else {
                record.absorb_result(&result);
                // The run is over; its stage checkpoints have no future.
                let _ = std::fs::remove_dir_all(inner.checkpoint_dir(id));
                if result.stopped_early {
                    Metrics::bump(&inner.metrics.deadline_stops);
                }
                inner
                    .metrics
                    .degradations
                    .fetch_add(record.degradations.len() as u64, Ordering::Relaxed);
                Metrics::bump(if record.state == JobState::Degraded {
                    &inner.metrics.jobs_degraded
                } else {
                    &inner.metrics.jobs_done
                });
                eprintln!(
                    "[tvp-serve] {id}: {} after {attempts} attempt(s), {} retry(ies), {} degradation(s){}",
                    record.state.as_str(),
                    record.retries,
                    record.degradations.len(),
                    if result.stopped_early { ", stopped at deadline" } else { "" },
                );
            }
            let _ = record.persist(&inner.job_dir(id));
        }
        Err((message, retryable)) => {
            record.error = Some(message.clone());
            let max_attempts = spec
                .max_attempts
                .unwrap_or(inner.config.default_max_attempts);
            let mut requeue_after = None;
            if was_cancelled {
                record.state = JobState::Cancelled;
                Metrics::bump(&inner.metrics.jobs_cancelled);
            } else if retryable && record.attempts < max_attempts {
                record.retries += 1;
                record.state = JobState::Pending;
                let delay = backoff_delay(
                    id,
                    record.retries,
                    inner.config.retry_base,
                    inner.config.retry_cap,
                );
                requeue_after = Some(delay);
                Metrics::bump(&inner.metrics.retries);
                eprintln!(
                    "[tvp-serve] {id}: retryable failure (attempt {attempts}), retrying in {delay:?}: {message}"
                );
            } else {
                record.state = JobState::DeadLetter;
                Metrics::bump(&inner.metrics.jobs_dead_letter);
                eprintln!("[tvp-serve] {id}: dead-letter after {attempts} attempt(s): {message}");
            }
            let _ = record.persist(&inner.job_dir(id));
            if let Some(delay) = requeue_after {
                // Retry re-enqueues bypass admission control: the job
                // already holds a queue slot conceptually.
                st.queue.push_back(QueueEntry {
                    id: id.to_string(),
                    not_before: Instant::now() + delay,
                });
                inner.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                inner.work_ready.notify_one();
            }
        }
    }
    inner.metrics.running.fetch_sub(1, Ordering::Relaxed);
}

/// One placement attempt: build the design, wire up options (deadline,
/// checkpoints, fault plan, fair-share thread lease), run the engine.
///
/// Errors carry `(message, retryable)`; setup failures (bad Bookshelf
/// text, generator errors) are permanent, engine errors defer to
/// [`tvp_core::PlaceError::is_retryable`].
fn execute(
    inner: &Arc<Inner>,
    id: &str,
    spec: &JobSpec,
    attempts: u32,
    recoveries: u32,
    token: &CancelToken,
) -> Result<(PlacementResult, String), (String, bool)> {
    let (netlist, fixed) = build_design(spec).map_err(|message| (message, false))?;

    let mut config = PlacerConfig::new(spec.layers).with_seed(spec.seed);
    if let Some(alpha) = spec.alpha_ilv {
        config = config.with_alpha_ilv(alpha);
    }
    if let Some(alpha) = spec.alpha_temp {
        config = config.with_alpha_temp(alpha);
    }

    // Faults are injected only into the job's very first execution:
    // retries and crash recoveries must run clean so `fault -> retry ->
    // success` and kill/restart resume both converge.
    let faults = if attempts == 1 && recoveries == 0 && !spec.inject_faults.is_empty() {
        let mut plan = tvp_core::FaultPlan::new(spec.seed);
        for fault in &spec.inject_faults {
            let (kind, site) = tvp_core::faults::parse_spec(fault).map_err(|e| (e, false))?;
            plan = plan.inject(kind, site);
        }
        Some(plan)
    } else {
        None
    };

    let requested_threads = spec.threads.unwrap_or_else(|| inner.budget.total());
    let lease = inner.budget.lease(requested_threads);
    let options = PlaceOptions {
        observer: None,
        cancel: Some(token.clone()),
        time_budget: spec.deadline_seconds.map(Duration::from_secs_f64),
        checkpoint_dir: Some(inner.checkpoint_dir(id)),
        faults,
        thread_lease: Some(lease),
    };

    let result = Placer::new(config)
        .place_with_options(&netlist, &fixed, options)
        .map_err(|error| (error.to_string(), error.is_retryable()))?;
    let pl_text = render_placement(&netlist, &result);
    Ok((result, pl_text))
}

/// Fixed terminal positions as the placer takes them.
type FixedPositions = Vec<(tvp_netlist::CellId, f64, f64, u16)>;

/// Materializes the netlist (synthetic or inline Bookshelf) plus fixed
/// terminal positions.
fn build_design(spec: &JobSpec) -> Result<(tvp_netlist::Netlist, FixedPositions), String> {
    if let Some(cells) = spec.cells {
        // ~5 um^2 per cell matches the synthetic suite's density.
        let area = cells as f64 * 5e-12;
        let netlist = tvp_bookshelf::synth::generate(
            &tvp_bookshelf::synth::SynthConfig::named(spec.name.clone(), cells, area)
                .with_seed(spec.seed),
        )
        .map_err(|e| format!("synthetic design: {e}"))?;
        return Ok((netlist, Vec::new()));
    }
    let (Some(nodes_text), Some(nets_text)) = (&spec.nodes, &spec.nets) else {
        return Err("inline design requires both `nodes` and `nets`".to_string());
    };
    let nodes = tvp_bookshelf::parse_nodes(nodes_text).map_err(|e| format!(".nodes: {e}"))?;
    let nets = tvp_bookshelf::parse_nets(nets_text).map_err(|e| format!(".nets: {e}"))?;
    let wts = spec
        .wts
        .as_deref()
        .map(tvp_bookshelf::parse_wts)
        .transpose()
        .map_err(|e| format!(".wts: {e}"))?;
    let pl = spec
        .pl
        .as_deref()
        .map(tvp_bookshelf::parse_pl)
        .transpose()
        .map_err(|e| format!(".pl: {e}"))?;
    let design = tvp_bookshelf::Design::assemble(
        spec.name.clone(),
        &nodes,
        &nets,
        wts.as_ref(),
        pl.as_ref(),
        None,
        tvp_bookshelf::DesignBuilderOptions::default(),
    )
    .map_err(|e| format!("assemble design: {e}"))?;
    let fixed = design
        .netlist
        .iter_cells()
        .filter(|(_, cell)| !cell.is_movable())
        .filter_map(|(id, _)| {
            design
                .positions
                .get(id.index())
                .map(|&(x, y, layer)| (id, x, y, layer as u16))
        })
        .collect();
    Ok((design.netlist, fixed))
}

/// Renders the final placement as a 3D Bookshelf `.pl` document
/// (coordinates in meters), served by `GET /jobs/{id}/placement`.
fn render_placement(netlist: &tvp_netlist::Netlist, result: &PlacementResult) -> String {
    let records = netlist
        .iter_cells()
        .map(|(id, cell)| {
            let (x, y, layer) = result.placement.position(id);
            tvp_bookshelf::PlRecord {
                name: cell.name().to_string(),
                x,
                y,
                layer: Some(u32::from(layer)),
                orient: "N".to_string(),
                fixed: !cell.is_movable(),
            }
        })
        .collect();
    tvp_bookshelf::write_pl(&tvp_bookshelf::PlFile { records })
}
