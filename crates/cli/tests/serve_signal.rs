//! `tvp serve` under a process supervisor: SIGTERM must drain the daemon
//! and exit 0, exactly as it does for the standalone `tvp-served`.
#![cfg(unix)]

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

#[test]
fn sigterm_drains_and_exits_zero() {
    let state = std::env::temp_dir().join(format!("tvp-cli-sigterm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let mut child = Command::new(env!("CARGO_BIN_EXE_tvp"))
        .args(["serve", "--listen", "127.0.0.1:0", "--state-dir"])
        .arg(&state)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tvp serve");

    // The address file appears once the listener is bound, and the
    // signal handlers are installed before that.
    let addr_file = state.join("addr");
    let deadline = Instant::now() + Duration::from_secs(30);
    while std::fs::read_to_string(&addr_file).map_or(true, |a| a.is_empty()) {
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("daemon never wrote {}", addr_file.display());
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let pid = i32::try_from(child.id()).expect("pid fits in i32");
    // SAFETY: `kill(2)` with a live child's pid and a standard signal.
    assert_eq!(unsafe { kill(pid, SIGTERM) }, 0, "kill(SIGTERM) failed");
    // Stderr reaches EOF when the daemon exits.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for tvp serve");
    let _ = std::fs::remove_dir_all(&state);

    assert!(status.success(), "exit {status:?}; stderr:\n{stderr}");
    let draining = stderr
        .find("shutting down (draining)")
        .unwrap_or_else(|| panic!("no drain line; stderr:\n{stderr}"));
    assert!(
        stderr[..draining].contains("listening on http://"),
        "stderr:\n{stderr}"
    );
}
