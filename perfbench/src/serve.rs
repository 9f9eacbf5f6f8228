//! The serve-inline workload: a `tvp_serve::Server` with the default
//! configuration and a fresh state directory on the real filesystem,
//! driven over HTTP by two closed-loop clients that post inline Bookshelf
//! designs, poll status every 50 ms — the period of the repository's own
//! API tests (`wait_terminal` in `crates/serve/tests/serve_api.rs`) — and
//! fetch the `.pl`.
//!
//! The loop is closed because daemon callers (sweep scripts, CI) wait for
//! each result; an open-loop rate would turn host drift into swinging
//! queue waits.

use crate::inputs::{self, ServeDesign, DESIGNS, LAYERS};
use crate::place;
use crate::reference;
use crate::report::{median_or_nan, Report, JOB};
use crate::rounds::{repeat_setups, run_rounds, Ledger, Quality};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::Run;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tvp_bookshelf::{Design, DesignBuilderOptions};
use tvp_core::{Chip, Placer, PlacerConfig};
use tvp_netlist::Netlist;
use tvp_serve::http;
use tvp_serve::job::{JobRecord, JobState};
use tvp_serve::json::Value;
use tvp_serve::{Server, ServerConfig};

/// Concurrent clients: one per hardware thread of the reference host.
const CLIENTS: usize = 2;
/// Status poll period.
const POLL: Duration = Duration::from_millis(50);
/// A job still unfinished after this long counts as failed.
const JOB_LIMIT: f64 = 120.0;
/// In-process reference rounds in the traced run.
const REFERENCE_ROUNDS: usize = 3;
/// Threads of the in-process reference placements: the daemon's fair
/// share when both workers are busy.
const REFERENCE_THREADS: usize = 1;

/// The placer configuration the daemon derives from a job body.
fn config(design: &ServeDesign) -> PlacerConfig {
    PlacerConfig::new(LAYERS).with_seed(design.seed)
}

/// The daemon's record path: parse each file, then `Design::assemble`.
fn assemble(design: &ServeDesign) -> Result<Netlist, String> {
    let nodes = tvp_bookshelf::parse_nodes(&design.nodes).map_err(|e| format!(".nodes: {e}"))?;
    let nets = tvp_bookshelf::parse_nets(&design.nets).map_err(|e| format!(".nets: {e}"))?;
    let wts = tvp_bookshelf::parse_wts(&design.wts).map_err(|e| format!(".wts: {e}"))?;
    Design::assemble(
        design.name.clone(),
        &nodes,
        &nets,
        Some(&wts),
        None,
        None,
        DesignBuilderOptions::default(),
    )
    .map(|d| d.netlist)
    .map_err(|e| format!("assemble: {e}"))
}

/// One design as the benchmark checks it: netlist, chip and the quality
/// of an in-process placement of the same design and configuration.
struct Expected {
    netlist: Netlist,
    chip: Chip,
    quality: Quality,
}

fn expected(design: &ServeDesign) -> Result<Expected, String> {
    let netlist = assemble(design)?;
    let config = config(design).with_threads(REFERENCE_THREADS);
    let result = Placer::new(config.clone())
        .place(&netlist)
        .map_err(|e| format!("in-process placement: {e}"))?;
    let quality = place::check(&netlist, &result)?;
    let chip = Chip::from_netlist(&netlist, &config).map_err(|e| e.to_string())?;
    Ok(Expected {
        netlist,
        chip,
        quality,
    })
}

/// Runs the daemon in this process until a client asks it to shut down
/// or the benchmark that started it dies: a `tvp_serve::Server` with the
/// default configuration on `state_dir`. The benchmark starts itself in
/// this mode, so the daemon is a process of its own, as `tvp serve` is,
/// and its memory is measured alone.
pub fn daemon_main(state_dir: &str) -> i32 {
    let config = ServerConfig {
        state_dir: state_dir.into(),
        ..ServerConfig::default()
    };
    let parent = std::os::unix::process::parent_id();
    match Server::start(config) {
        Ok(mut server) => {
            while !server.shutdown_requested() && std::os::unix::process::parent_id() == parent {
                std::thread::sleep(Duration::from_millis(10));
            }
            server.shutdown();
            0
        }
        Err(e) => {
            eprintln!("daemon: {e}");
            2
        }
    }
}

/// A daemon child process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts a daemon on a fresh, empty state directory and waits until
    /// `/healthz` answers.
    fn start(state_dir: &Path) -> Result<Daemon, String> {
        if state_dir.exists() {
            std::fs::remove_dir_all(state_dir).map_err(|e| format!("clear state dir: {e}"))?;
        }
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // Job outcomes and errors reach the clients through the API; the
        // daemon's per-job log lines would only bury the report.
        let child = Command::new(exe)
            .arg("--daemon")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        // From here on, dropping `daemon` kills and reaps the child.
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited early: {status}"));
            }
            let addr = std::fs::read_to_string(state_dir.join("addr")).unwrap_or_default();
            if addr.parse::<std::net::SocketAddr>().is_ok()
                && http::request(&addr, "GET", "/healthz", "").is_ok_and(|r| r.status == 200)
            {
                daemon.addr = addr;
                return Ok(daemon);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("daemon never became healthy".to_string())
    }

    /// A counter from `/metrics`.
    fn counter(&self, name: &str) -> Result<u64, String> {
        let reply = http::request(&self.addr, "GET", "/metrics", "")?;
        reply
            .body
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .ok_or_else(|| format!("/metrics lacks {name}"))
    }

    /// The daemon's resident high-water mark, MB.
    fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .as_deref()
            .and_then(crate::report::vm_hwm_mb)
            .unwrap_or(f64::NAN)
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        http::request(&self.addr, "POST", "/shutdown", "")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
        Err("daemon did not shut down".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One job as a client saw it. Times are seconds since the run's epoch.
struct ClientJob {
    design: usize,
    submit: (f64, f64),
    polls: Vec<(f64, f64)>,
    /// Estimated moment the job left `pending` (see [`one_job`]).
    started: f64,
    /// Estimated moment the job reached a terminal state.
    finished: f64,
    fetch: (f64, f64),
    status: String,
    placement: String,
    error: Option<String>,
}

impl ClientJob {
    fn latency(&self) -> f64 {
        self.fetch.1 - self.submit.0
    }
}

/// The `"state"` of a job-status body. The record's own state precedes
/// its spec, so the first occurrence is the job's.
fn state_of(body: &str) -> Option<JobState> {
    let rest = &body[body.find("\"state\":\"")? + 9..];
    JobState::parse(&rest[..rest.find('"')?])
}

/// Where in the poll period a client's `k`-th job first polls, as a
/// fraction of [`POLL`]: the golden-ratio sequence, which spreads the
/// phases evenly over [0, 1). A job's run time then ends at an even
/// spread of points in the poll cycle, so latency grows smoothly with run
/// time instead of jumping a whole period when it crosses a poll.
fn poll_phase(k: usize) -> f64 {
    (k as f64 * 0.618_033_988_749_895).fract()
}

/// Estimated moment of a state change first seen by the poll sent at
/// `sent`, the previous poll having been sent at `previous` (`None` for
/// the first poll): the middle of the poll cycle that ended at `sent`.
fn change_estimate(previous: Option<f64>, sent: f64) -> f64 {
    let cycle = previous.map_or(POLL.as_secs_f64(), |p| sent - p);
    sent - cycle / 2.0
}

/// POST one design, poll until it is terminal — first after `phase` of a
/// period, then every [`POLL`] — and fetch the `.pl`.
///
/// A poll sees the job's state at about the moment it is sent. A state
/// change is placed in the middle of the poll cycle that ended with the
/// first poll to see it; the first poll's cycle is one period, of which
/// the phase-spread sleep is a uniform part. Each estimate is off by up
/// to half a cycle, but because the phase is spread evenly they are
/// unbiased on average.
fn one_job(
    addr: &str,
    design: &ServeDesign,
    index: usize,
    phase: f64,
    epoch: Instant,
) -> ClientJob {
    let now = || epoch.elapsed().as_secs_f64();
    let mut job = ClientJob {
        design: index,
        submit: (now(), 0.0),
        polls: Vec::new(),
        started: f64::NAN,
        finished: f64::NAN,
        fetch: (f64::NAN, f64::NAN),
        status: String::new(),
        placement: String::new(),
        error: None,
    };
    let submitted = http::request(addr, "POST", "/jobs", &design.body);
    job.submit.1 = now();
    let id = match submitted {
        Ok(reply) if reply.status == 202 => Value::parse(&reply.body)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string)),
        Ok(reply) => {
            job.error = Some(format!("submit answered {}: {}", reply.status, reply.body));
            return job;
        }
        Err(e) => {
            job.error = Some(e);
            return job;
        }
    };
    let Some(id) = id else {
        job.error = Some("submit reply lacks an id".to_string());
        return job;
    };
    let status_path = format!("/jobs/{id}");
    let mut wait = POLL.mul_f64(phase);
    loop {
        std::thread::sleep(wait);
        wait = POLL;
        let start = now();
        let reply = http::request(addr, "GET", &status_path, "");
        let end = now();
        let changed = change_estimate(job.polls.last().map(|p| p.0), start);
        job.polls.push((start, end));
        let state = match reply {
            Ok(reply) if reply.status == 200 => match state_of(&reply.body) {
                Some(state) => (state, reply.body),
                None => {
                    job.error = Some("status reply lacks a state".to_string());
                    return job;
                }
            },
            Ok(reply) => {
                job.error = Some(format!("status answered {}", reply.status));
                return job;
            }
            Err(e) => {
                job.error = Some(e);
                return job;
            }
        };
        if state.0 != JobState::Pending && job.started.is_nan() {
            job.started = changed;
        }
        if state.0.is_terminal() {
            job.finished = changed;
            job.status = state.1;
            break;
        }
        if end - job.submit.0 > JOB_LIMIT {
            job.error = Some(format!("job {id} unfinished after {JOB_LIMIT} s"));
            return job;
        }
    }
    let start = now();
    let fetched = http::request(addr, "GET", &format!("{status_path}/placement"), "");
    job.fetch = (start, now());
    match fetched {
        Ok(reply) if reply.status == 200 => job.placement = reply.body,
        Ok(reply) => job.error = Some(format!("placement answered {}", reply.status)),
        Err(e) => job.error = Some(e),
    }
    job
}

/// Checks one finished job from the outside: a done or degraded state,
/// a `.pl` that decodes to the reported digest, passes the legality check
/// and matches the reported wirelength and vias, and the same placement
/// and metrics as the in-process reference.
fn verify(job: &ClientJob, expected: &[Expected], ledger: &mut Ledger) -> Result<(), String> {
    if let Some(e) = &job.error {
        return Err(e.clone());
    }
    let record = Value::parse(&job.status).and_then(|v| JobRecord::from_json(&v))?;
    if !matches!(record.state, JobState::Done | JobState::Degraded) || record.stopped_early {
        return Err(format!(
            "job ended {} (stopped early: {}): {:?}",
            record.state.as_str(),
            record.stopped_early,
            record.error
        ));
    }
    let (Some(digest), Some(m)) = (record.digest.as_deref(), record.metrics) else {
        return Err("finished job lacks digest or metrics".to_string());
    };
    let digest = u64::from_str_radix(digest, 16).map_err(|e| format!("digest: {e}"))?;
    let exp = &expected[job.design];
    let placement = reference::placement_from_pl(&exp.netlist, &job.placement)?;
    if reference::digest(&placement) != digest {
        return Err("fetched .pl does not match the reported digest".to_string());
    }
    if let Some(violation) = tvp_core::detail::check_legal(&exp.netlist, &exp.chip, &placement) {
        return Err(format!("illegal placement: {violation}"));
    }
    reference::check_hpwl_ilv(&exp.netlist, &placement, m.wirelength, m.ilv_count)?;
    let quality = Quality {
        digest,
        objective: m.objective,
        hpwl: m.wirelength,
        ilv: m.ilv_count,
        t_max: m.max_temperature,
    };
    if !quality.matches(&exp.quality) {
        return Err(format!(
            "daemon result {quality:?} differs from in-process {:?}",
            exp.quality
        ));
    }
    ledger.record(job.design, quality)
}

/// Runs the clients: whole rounds each until `budget` elapses, or with
/// `None` the warm-up round, which splits the design set between them.
/// Returns every client's jobs.
fn clients(
    addr: &str,
    designs: &[ServeDesign],
    epoch: Instant,
    budget: Option<Duration>,
) -> Vec<ClientJob> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let offset = c * DESIGNS / CLIENTS;
                    let mut jobs = Vec::new();
                    let job = |d: usize| {
                        let phase = poll_phase(jobs.len() * CLIENTS + c);
                        jobs.push(one_job(addr, &designs[d], d, phase, epoch));
                    };
                    match budget {
                        Some(budget) => {
                            run_rounds(DESIGNS, offset, budget, job);
                        }
                        // The warm-up round: each client takes its share
                        // of the design set once.
                        None => (offset..offset + DESIGNS / CLIENTS).for_each(job),
                    }
                    jobs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Runs the serve-inline workload.
pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let designs = inputs::serve_designs(run.seed)?;
    let expected: Vec<Expected> = designs.iter().map(expected).collect::<Result<_, _>>()?;
    let mut ledger = Ledger::new(DESIGNS);
    let mut daemon = None;
    let mut set_up = |k: usize| -> Result<f64, String> {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous)?;
        }
        let start = Instant::now();
        let d = Daemon::start(&run.dir.join(format!("state{k}")))?;
        for job in clients(&d.addr, &designs, start, None) {
            if let Err(e) = verify(&job, &expected, &mut ledger) {
                report.fail(format!("warm-up, design {}: {e}", job.design));
            }
        }
        daemon = Some(d);
        Ok(start.elapsed().as_secs_f64())
    };
    let setup_times = if run.trace {
        vec![set_up(0)?]
    } else {
        repeat_setups(set_up)?
    };
    let daemon = daemon.expect("at least one set-up ran");
    // The daemon keeps every job record, inline design included, so its
    // memory grows with the jobs it has served. Reading the high-water
    // mark after the warm-up round — a fixed number of jobs — keeps
    // `peak_rss_mb` independent of how fast the timed part ran.
    let warm_rss = daemon.peak_rss_mb();

    let epoch = Instant::now();
    let jobs = clients(&daemon.addr, &designs, epoch, Some(run.budget));
    let wall = jobs.iter().map(|j| j.fetch.1).fold(0.0, f64::max);
    if !run.trace {
        let n = format!("daemon VmHWM after the {DESIGNS}-job warm-up round");
        report.set("peak_rss_mb", warm_rss, n);
        report.note(format!(
            "daemon VmHWM {:.1} MB after all {} jobs",
            daemon.peak_rss_mb(),
            jobs.len() + DESIGNS
        ));
    }
    let rejected = daemon.counter("tvp_jobs_rejected_total")?;
    let retries = daemon.counter("tvp_retries_total")?;
    daemon.stop()?;

    let mut ok = 0;
    let mut latencies = Vec::new();
    for job in &jobs {
        match verify(job, &expected, &mut ledger) {
            Ok(()) => {
                ok += 1;
                latencies.push(job.latency());
            }
            Err(e) => report.fail(format!("design {}: {e}", job.design)),
        }
    }
    report.jobs(jobs.len(), jobs.len() - ok);
    report.note(format!(
        "{} jobs from {CLIENTS} clients in {wall:.3} s; daemon counted {rejected} rejections, {retries} retries",
        jobs.len()
    ));
    if run.trace {
        traced(run, &designs, &jobs, epoch, rejected, report);
        return Ok(());
    }
    report.set(
        "setup_s",
        median_or_nan(&setup_times),
        format!("{} set-ups", setup_times.len()),
    );
    let n = format!("{} jobs", latencies.len());
    report.set("latency_p50_s", median_or_nan(&latencies), n.clone());
    report.latency_p90(&latencies);
    report.set("jobs_per_s", ok as f64 / wall, n.clone());
    report.set("ok_ratio", ok as f64 / jobs.len().max(1) as f64, n);
    report.quality(&ledger);
    Ok(())
}

/// The traced run's layer split: client-side spans around every HTTP
/// call and the wait between submit and fetch, queue wait and run time
/// estimated from the polls, then in-process record-path assembly and
/// replayed placements of each design, all on the clients' time line
/// (`epoch`).
fn traced(
    run: &Run,
    designs: &[ServeDesign],
    jobs: &[ClientJob],
    epoch: Instant,
    rejected: u64,
    report: &mut Report,
) {
    let mut tr = Tracer::new(epoch);
    for (k, job) in jobs.iter().enumerate().filter(|(_, j)| j.error.is_none()) {
        tr.set_job(k as u64);
        let root = tr.record_under(None, "serve.job", job.submit.0, job.fetch.1);
        tr.record_under(Some(root), "serve.submit", job.submit.0, job.submit.1);
        let wait = tr.record_under(Some(root), "serve.wait", job.submit.1, job.fetch.0);
        for &(s, e) in &job.polls {
            tr.record_under(Some(wait), "serve.poll", s, e);
        }
        tr.record_under(Some(root), "serve.fetch", job.fetch.0, job.fetch.1);
    }
    let polls: Vec<[usize; 1]> = jobs.iter().map(|j| [j.polls.len()]).collect();
    // Queue wait and run time come from the poll-based estimates of
    // `one_job`. Per job they are off by up to half a poll cycle, so a
    // median would move in steps of the cycle; their mean is unbiased.
    let done: Vec<&ClientJob> = jobs.iter().filter(|j| j.error.is_none()).collect();
    let queued: Vec<f64> = done.iter().map(|j| j.started - j.submit.1).collect();
    let running: Vec<f64> = done.iter().map(|j| j.finished - j.started).collect();

    let (mut untraced, mut place_s, mut counts) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..REFERENCE_ROUNDS {
        for (i, design) in designs.iter().enumerate() {
            let config = config(design).with_threads(REFERENCE_THREADS);
            let mut untraced_job = || -> Result<Quality, String> {
                let start = Instant::now();
                let netlist = assemble(design)?;
                let placing = Instant::now();
                let result = Placer::new(config.clone())
                    .place(&netlist)
                    .map_err(|e| e.to_string())?;
                let end = Instant::now();
                untraced.push((end - start).as_secs_f64());
                place_s.push((end - placing).as_secs_f64());
                place::check(&netlist, &result)
            };
            let traced_job = |tr: &mut Tracer| -> Result<place::Replay, String> {
                tr.set_job((jobs.len() + round * DESIGNS + i) as u64);
                let root = tr.begin(JOB);
                let replayed = tr
                    .span("bookshelf.assemble", |_| assemble(design))
                    .and_then(|netlist| place::replay(&netlist, &[], &config, tr));
                tr.end(root);
                replayed
            };
            // Alternate which placement of a design goes first, as the
            // place workload does, so the second one's head start cancels.
            let pair = if round % 2 == 1 {
                traced_job(&mut tr).and_then(|r| Ok((r, untraced_job()?)))
            } else {
                untraced_job().and_then(|q| Ok((traced_job(&mut tr)?, q)))
            };
            let outcome = pair.and_then(|(r, q)| {
                if !r.quality.matches(&q) {
                    return Err(format!(
                        "traced placement differs: {:?} vs {q:?}",
                        r.quality
                    ));
                }
                counts.push(r.counts());
                Ok(())
            });
            if let Err(e) = outcome {
                report.fail(format!("in-process design {i}: {e}"));
            }
        }
    }
    let spans = tr.into_spans();
    let profiles = trace::profiles(&spans);
    report.layers(&profiles, &untraced);
    let n = format!("mean of {} jobs", done.len());
    let mean = |v: &[f64]| stats::mean(v).unwrap_or(f64::NAN);
    report.set("serve.queue_wait_s", mean(&queued), n.clone());
    report.set("serve.run_s", mean(&running), n);
    report.counts(&place::REPLAY_COUNTS, &counts);
    report.counts(&["serve.polls_per_job"], &polls);
    report.set("serve.rejected", rejected as f64, "run total".to_string());
    let core = median_or_nan(&place_s);
    report.set(
        "core.place_s",
        core,
        format!("{} placements", place_s.len()),
    );
    let overhead = report.value("serve.run_s") - core - report.value("bookshelf.assemble_s");
    report.set(
        "serve.job_overhead_s",
        overhead,
        "serve.run_s - core.place_s - bookshelf.assemble_s".to_string(),
    );
    report.write_trace(run, &spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_phases_spread_evenly_over_the_period() {
        const N: usize = 16;
        let mut phases: Vec<f64> = (0..N).map(poll_phase).collect();
        assert!(phases.iter().all(|p| (0.0..1.0).contains(p)), "{phases:?}");
        phases.sort_by(f64::total_cmp);
        let wrap = 1.0 - phases[N - 1] + phases[0];
        let widest = phases.windows(2).map(|w| w[1] - w[0]).fold(wrap, f64::max);
        assert!(widest < 2.0 / N as f64, "gap {widest} in {phases:?}");
    }

    #[test]
    fn poll_estimates_are_unbiased_on_average_but_stepped_per_job() {
        // A job submitted at 0 starts at 1 ms and finishes at 137 ms; each
        // poll takes 3 ms. Clients poll it with spread phases.
        let (start, finish, cost) = (0.001, 0.137, 0.003);
        let period = POLL.as_secs_f64();
        let (mut starts, mut runs) = (Vec::new(), Vec::new());
        for k in 0..1000 {
            let mut sent = poll_phase(k) * period;
            let mut previous = None;
            let (mut seen_start, mut seen_finish) = (None, None);
            while seen_finish.is_none() {
                let estimate = change_estimate(previous, sent);
                if sent >= start && seen_start.is_none() {
                    seen_start = Some(estimate);
                }
                if sent >= finish {
                    seen_finish = Some(estimate);
                }
                previous = Some(sent);
                sent += cost + period;
            }
            starts.push(seen_start.unwrap());
            runs.push(seen_finish.unwrap() - seen_start.unwrap());
        }
        let mean = |v: &[f64]| crate::stats::mean(v).unwrap();
        assert!((mean(&starts) - start).abs() < 1e-3, "{}", mean(&starts));
        assert!(
            (mean(&runs) - (finish - start)).abs() < 2e-3,
            "{}",
            mean(&runs)
        );
        // Per job, the run estimate takes only a few values a poll cycle
        // apart, so its median would step.
        let mut steps: Vec<i64> = runs.iter().map(|r| (r * 1e4).round() as i64).collect();
        steps.sort_unstable();
        steps.dedup();
        assert!(steps.len() <= 4, "{steps:?}");
    }
}
