//! `tvp-served`: the standalone daemon binary.
//!
//! ```text
//! tvp-served --listen 127.0.0.1:7433 --state-dir /var/lib/tvp \
//!            --workers 2 --max-queue 8
//! ```
//!
//! Runs until `POST /shutdown` or SIGTERM/SIGINT, then drains
//! gracefully (checkpoint-and-park after the drain budget). The bound
//! address is written to `<state-dir>/addr` so clients can discover a
//! daemon started with `--listen 127.0.0.1:0`. `tvp serve` runs the same
//! host ([`tvp_serve::host`]).

const USAGE: &str = "\
tvp-served: fault-tolerant placement daemon

USAGE:
    tvp-served [OPTIONS]

OPTIONS:
    --listen ADDR          Bind address (default 127.0.0.1:0)
    --state-dir DIR        Durable job/checkpoint store (default ./tvp-serve-state)
    --workers N            Concurrent job executions (default 2)
    --max-queue N          Admission-control queue bound (default 8)
    --thread-budget N      Threads shared across jobs, 0 = hardware (default 0)
    --max-attempts N       Default retry cap per job, at least 1 (default 3)
    --retry-base-ms N      Backoff base delay in ms (default 500)
    --drain-secs N         Graceful-shutdown drain budget (default 5)
    --help                 Show this help
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    let config = match tvp_serve::host::parse_flags(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(message) = tvp_serve::host::run(config) {
        eprintln!("tvp-served: {message}");
        std::process::exit(1);
    }
}
