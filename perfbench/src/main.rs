//! `tvp-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload place-ilv --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Untraced runs (`--trace 0`) time only the surfaces users touch and
//! report the end-to-end metrics; traced runs (`--trace 1`) replay the
//! same work with spans around each layer and report the per-layer split.
//! Every run checks the program's outputs from the outside and exits
//! nonzero when a check fails. See `perfbench/README.md`.

mod inputs;
mod place;
mod probe;
mod reference;
mod report;
mod rounds;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["place-ilv", "serve-inline"];

const USAGE: &str = "usage: tvp-perfbench --workload place-ilv|serve-inline \
                     --seed N --seconds N --trace 0|1";

/// One benchmark invocation.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed budget; runs end at the first round boundary after it.
    pub budget: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory of this run, removed when it ends.
    pub dir: PathBuf,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    Ok(Run {
        dir: root.join(format!("{workload}-seed{seed}-{}", std::process::id())),
        trace_dir: root.join("traces"),
        workload,
        seed,
        budget: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, state_dir] if flag == "--daemon" => {
            std::process::exit(serve::daemon_main(state_dir))
        }
        [flag] if flag == probe::CHILD_FLAG => {
            println!("{}", probe::host_probe());
            return;
        }
        _ => {}
    }
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("tvp-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} hardware threads {}",
        run.workload,
        run.seed,
        run.budget.as_secs(),
        u8::from(run.trace),
        tvp_parallel::available_threads()
    );
    let mut report = report::Report::new(run.trace);
    let mut measure = || -> Result<(f64, f64), String> {
        let before = probe::in_child()?;
        std::fs::create_dir_all(&run.dir)
            .map_err(|e| format!("create {}: {e}", run.dir.display()))?;
        match run.workload.as_str() {
            "place-ilv" => place::run(&run, &mut report),
            _ => serve::run(&run, &mut report),
        }?;
        Ok((before, probe::in_child()?))
    };
    let outcome = measure();
    let _ = std::fs::remove_dir_all(&run.dir);
    let (probe_before, probe_after) = outcome.unwrap_or_else(|e| {
        eprintln!("tvp-perfbench: {}: {e}", run.workload);
        std::process::exit(2);
    });
    report.note(format!(
        "host probe {probe_before:.4} s before, {probe_after:.4} s after"
    ));
    if run.trace {
        report.set(
            "host.probe_s",
            0.5 * (probe_before + probe_after),
            "mean of the probes before and after".to_string(),
        );
    }
    let (text, correct) = report.render();
    print!("{text}");
    std::process::exit(if correct { 0 } else { 1 });
}
