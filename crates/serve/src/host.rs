//! The daemon's command-line front end, shared by the `tvp-served`
//! binary and `tvp serve`: one flag parser, one SIGINT/SIGTERM handler
//! and one host loop. [`Server::start`] holds none of the three, so a
//! program that embeds the daemon keeps hosting it through its own loop.

use crate::{Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Parses the daemon's flags (without the program or subcommand name)
/// over [`ServerConfig::default`].
///
/// # Errors
///
/// Names the offending flag: an unknown flag or stray argument, a
/// missing or non-numeric value, or `--max-attempts 0`.
pub fn parse_flags(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("flag {flag} expects a value"))
        };
        match flag.as_str() {
            "--listen" => config.listen = value()?.to_string(),
            "--state-dir" => config.state_dir = PathBuf::from(value()?),
            "--workers" => config.workers = parse_num(flag, value()?)?,
            "--max-queue" => config.max_queue = parse_num(flag, value()?)?,
            "--thread-budget" => config.thread_budget = parse_num(flag, value()?)?,
            "--max-attempts" => {
                config.default_max_attempts = parse_num(flag, value()?)?;
                if config.default_max_attempts == 0 {
                    return Err("flag --max-attempts expects a value of at least 1".to_string());
                }
            }
            "--retry-base-ms" => {
                config.retry_base = Duration::from_millis(parse_num(flag, value()?)?);
            }
            "--drain-secs" => config.drain_budget = Duration::from_secs(parse_num(flag, value()?)?),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(config)
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("flag {flag}: `{value}` is not a valid number"))
}

/// Set by the signal handler, polled by [`run`].
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // Raw libc `signal(2)`: std exposes no handler registration and the
    // build is dependency-free. Storing a flag is all the handler does,
    // which keeps it trivially async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` is an `extern "C" fn(i32)` that only stores to
    // an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Runs the daemon in the foreground until a client posts `/shutdown` or
/// the process gets SIGINT or SIGTERM, then drains gracefully
/// (checkpoint-and-park after the drain budget). The handlers are in
/// place before the listener binds. The bound address goes to stderr
/// and to `<state-dir>/addr`, so clients can find a daemon started with
/// `--listen 127.0.0.1:0`.
///
/// # Errors
///
/// Returns [`Server::start`]'s message when the state directory cannot
/// be created or the listen address cannot be bound.
pub fn run(config: ServerConfig) -> Result<(), String> {
    install_signal_handlers();
    let mut server = Server::start(config)?;
    eprintln!("[tvp-serve] listening on http://{}", server.addr());
    while !server.shutdown_requested() && !SIGNALLED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("[tvp-serve] shutting down (draining)...");
    server.shutdown();
    eprintln!("[tvp-serve] bye");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn serve_parses_flags_and_defaults() {
        let a = parse_flags(&argv(
            "--listen 127.0.0.1:7433 --state-dir /tmp/tvp --workers 4 \
             --max-queue 16 --thread-budget 8 --max-attempts 5 \
             --retry-base-ms 100 --drain-secs 2",
        ))
        .unwrap();
        assert_eq!(a.listen, "127.0.0.1:7433");
        assert_eq!(a.state_dir, PathBuf::from("/tmp/tvp"));
        assert_eq!(a.workers, 4);
        assert_eq!(a.max_queue, 16);
        assert_eq!(a.thread_budget, 8);
        assert_eq!(a.default_max_attempts, 5);
        assert_eq!(a.retry_base, Duration::from_millis(100));
        assert_eq!(a.drain_budget, Duration::from_secs(2));

        let d = parse_flags(&[]).unwrap();
        assert_eq!(d.listen, "127.0.0.1:0");
        assert_eq!(d.workers, 2);
        assert_eq!(d.max_queue, 8);
        assert_eq!(d.default_max_attempts, 3);

        assert!(parse_flags(&argv("--max-attempts 0")).is_err());
        assert!(parse_flags(&argv("--bogus")).is_err());
    }
}
