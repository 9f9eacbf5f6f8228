//! End-to-end API tests: admission control under a burst, retry and
//! dead-letter supervision, deadlines, cancellation, and the
//! observability endpoints — all against an in-process daemon.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use tvp_serve::http::{request, ClientReply};
use tvp_serve::json::Value;
use tvp_serve::{Server, ServerConfig};

fn temp_state(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tvp-serve-api-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(name: &str, tweak: impl FnOnce(&mut ServerConfig)) -> (Server, String, PathBuf) {
    let state_dir = temp_state(name);
    let mut config = ServerConfig {
        state_dir: state_dir.clone(),
        workers: 1,
        retry_base: Duration::from_millis(10),
        drain_budget: Duration::ZERO,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    let server = Server::start(config).expect("daemon starts");
    let addr = server.addr().to_string();
    (server, addr, state_dir)
}

fn submit(addr: &str, body: &str) -> ClientReply {
    request(addr, "POST", "/jobs", body).expect("submit request")
}

fn job_id(reply: &ClientReply) -> String {
    assert_eq!(reply.status, 202, "submit failed: {}", reply.body);
    Value::parse(&reply.body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

/// Polls `GET /jobs/{id}` until the job reaches a terminal state.
fn wait_terminal(addr: &str, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = request(addr, "GET", &format!("/jobs/{id}"), "").expect("status request");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = Value::parse(&reply.body).unwrap();
        let state = doc.get("state").unwrap().as_str().unwrap();
        if !matches!(state, "pending" | "running") {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in `{state}`");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn full_queue_answers_429_with_retry_after_and_stays_healthy() {
    let (mut server, addr, state_dir) = start("burst", |c| c.max_queue = 8);

    let mut accepted = 0;
    let mut rejected = 0;
    for i in 0..32 {
        let reply = submit(
            &addr,
            &format!(r#"{{"name":"burst-{i}","cells":300,"seed":{i}}}"#),
        );
        match reply.status {
            202 => accepted += 1,
            429 => {
                rejected += 1;
                let retry_after = reply
                    .header("retry-after")
                    .expect("429 carries Retry-After");
                assert!(retry_after.parse::<u64>().unwrap() >= 1);
            }
            status => panic!("unexpected status {status}: {}", reply.body),
        }
    }
    assert_eq!(accepted + rejected, 32);
    // The queue holds 8; the single worker can drain a few during the
    // burst, but most of the 32 must bounce.
    assert!(accepted >= 8, "only {accepted} accepted");
    assert!(rejected >= 10, "only {rejected} rejected");

    // The daemon is still fully responsive after the burst.
    let health = request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
    let metrics = request(&addr, "GET", "/metrics", "").unwrap();
    assert!(
        metrics
            .body
            .contains(&format!("tvp_jobs_rejected_total {rejected}")),
        "{}",
        metrics.body
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn injected_fault_retries_to_success_and_exhaustion_dead_letters() {
    let (mut server, addr, state_dir) = start("retry", |c| c.workers = 2);

    // Default max_attempts (3): the checkpoint-write fault fails attempt
    // 1 with a retryable typed error; attempt 2 runs clean and succeeds.
    let healing = job_id(&submit(
        &addr,
        r#"{"name":"healing","cells":200,"seed":3,"inject_faults":["io-error:checkpoint-write:global"]}"#,
    ));
    // max_attempts 1: the same fault becomes terminal immediately.
    let doomed = job_id(&submit(
        &addr,
        r#"{"name":"doomed","cells":200,"seed":3,"max_attempts":1,"inject_faults":["io-error:checkpoint-write:global"]}"#,
    ));

    let healed = wait_terminal(&addr, &healing);
    assert_eq!(
        healed.get("state").unwrap().as_str(),
        Some("done"),
        "{}",
        healed.to_json()
    );
    assert_eq!(healed.get("retries").unwrap().as_u64(), Some(1));
    assert_eq!(healed.get("attempts").unwrap().as_u64(), Some(2));
    assert!(healed.get("digest").unwrap().as_str().unwrap().len() == 16);

    let dead = wait_terminal(&addr, &doomed);
    assert_eq!(
        dead.get("state").unwrap().as_str(),
        Some("dead-letter"),
        "{}",
        dead.to_json()
    );
    let error = dead.get("error").unwrap().as_str().unwrap();
    assert!(error.contains("injected I/O failure"), "{error}");

    // The healed job's placement is served as Bookshelf .pl text.
    let pl = request(&addr, "GET", &format!("/jobs/{healing}/placement"), "").unwrap();
    assert_eq!(pl.status, 200);
    assert!(
        pl.body.contains("UCLA pl") || pl.body.contains(" : N"),
        "{}",
        pl.body
    );
    // The dead-lettered one has none.
    let none = request(&addr, "GET", &format!("/jobs/{doomed}/placement"), "").unwrap();
    assert_eq!(none.status, 404);

    let metrics = request(&addr, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.body.contains("tvp_retries_total 1"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("tvp_jobs_dead_letter_total 1"),
        "{}",
        metrics.body
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
}

/// The placement file is written (tmp + fsync + rename) before the
/// record may say `done`, and a failed write goes through the retry and
/// dead-letter policy instead of leaving a `done` job without a
/// placement.
#[test]
fn failed_placement_write_dead_letters_instead_of_done() {
    let (mut server, addr, state_dir) = start("pl-write", |c| c.workers = 1);
    let id = job_id(&submit(
        &addr,
        r#"{"name":"unwritable","cells":200,"seed":3,"max_attempts":1,"inject_faults":["slow-stage:global"]}"#,
    ));
    // The injected stall holds the job inside global; a directory where
    // the placement file belongs makes its final rename fail.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reply = request(&addr, "GET", &format!("/jobs/{id}"), "").expect("status request");
        let doc = Value::parse(&reply.body).unwrap();
        if doc.get("state").unwrap().as_str() == Some("running") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "job never started: {}",
            reply.body
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let blocker = state_dir.join("jobs").join(&id).join("placement.pl");
    std::fs::create_dir_all(&blocker).unwrap();

    let dead = wait_terminal(&addr, &id);
    assert_eq!(
        dead.get("state").unwrap().as_str(),
        Some("dead-letter"),
        "{}",
        dead.to_json()
    );
    let error = dead.get("error").unwrap().as_str().unwrap();
    assert!(error.contains("placement.pl"), "{error}");
    let none = request(&addr, "GET", &format!("/jobs/{id}/placement"), "").unwrap();
    assert_eq!(none.status, 404);

    server.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn deadline_returns_legal_best_so_far_instead_of_killing() {
    let (mut server, addr, state_dir) = start("deadline", |c| c.workers = 1);

    let id = job_id(&submit(
        &addr,
        r#"{"name":"rushed","cells":800,"seed":5,"deadline_seconds":0.01}"#,
    ));
    let doc = wait_terminal(&addr, &id);
    assert_eq!(
        doc.get("state").unwrap().as_str(),
        Some("done"),
        "{}",
        doc.to_json()
    );
    assert_eq!(doc.get("stopped_early").unwrap().as_bool(), Some(true));
    // Even a deadline-stopped job reports real metrics and a placement.
    assert!(
        doc.get("metrics")
            .unwrap()
            .get("wirelength")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn pending_jobs_cancel_cleanly_and_terminal_cancels_conflict() {
    let (mut server, addr, state_dir) = start("cancel", |c| c.workers = 1);

    // Occupy the single worker, then queue a victim.
    let runner = job_id(&submit(&addr, r#"{"name":"runner","cells":500,"seed":1}"#));
    let victim = job_id(&submit(&addr, r#"{"name":"victim","cells":500,"seed":2}"#));

    let reply = request(&addr, "POST", &format!("/jobs/{victim}/cancel"), "").unwrap();
    assert_eq!(reply.status, 202, "{}", reply.body);
    let doc = wait_terminal(&addr, &victim);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("cancelled"));

    // Cancelling a terminal job is a conflict, not a crash.
    let again = request(&addr, "POST", &format!("/jobs/{victim}/cancel"), "").unwrap();
    assert_eq!(again.status, 409);

    let done = wait_terminal(&addr, &runner);
    assert_eq!(done.get("state").unwrap().as_str(), Some("done"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn malformed_submissions_and_unknown_routes_answer_4xx() {
    let (mut server, addr, state_dir) = start("reject", |c| c.workers = 1);

    for (body, needle) in [
        ("not json", "malformed JSON"),
        ("{}", "supply either"),
        (
            r#"{"cells":100,"inject_faults":["bogus"]}"#,
            "unknown fault kind",
        ),
    ] {
        let reply = submit(&addr, body);
        assert_eq!(reply.status, 400, "{body}: {}", reply.body);
        assert!(reply.body.contains(needle), "{body}: {}", reply.body);
    }
    assert_eq!(request(&addr, "GET", "/jobs/nope", "").unwrap().status, 404);
    assert_eq!(request(&addr, "GET", "/nothing", "").unwrap().status, 404);
    assert_eq!(request(&addr, "DELETE", "/jobs", "").unwrap().status, 405);

    // A shutdown request is acknowledged and surfaced to the host loop.
    assert_eq!(request(&addr, "POST", "/shutdown", "").unwrap().status, 202);
    assert!(server.shutdown_requested());

    server.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
}
