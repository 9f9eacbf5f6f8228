//! Implementation of the `tvp` command-line placer.
//!
//! Six subcommands:
//!
//! * `tvp place <design.aux>` — load a Bookshelf benchmark, run the full
//!   thermal/via-aware placement pipeline, print metrics, and optionally
//!   write the placed design back out. Validation runs automatically
//!   before placing (`--no-preflight` skips it) and faults can be
//!   injected deterministically (`--inject-fault`).
//! * `tvp validate <design.aux>` — preflight diagnostics without
//!   placing; `--repair` applies safe normalizations.
//! * `tvp synth <name>` — generate a synthetic IBM-PLACE-like benchmark
//!   and save it as Bookshelf files.
//! * `tvp stats <design.aux>` — print netlist statistics.
//! * `tvp sweep <design.aux>` — trace the wirelength/via tradeoff curve,
//!   optionally exporting CSV.
//! * `tvp serve` — run the fault-tolerant placement daemon (HTTP job
//!   API with admission control, deadlines, retry, and crash recovery)
//!   through `tvp_serve::host`, the same flags, signal handling and
//!   graceful drain as the standalone `tvp-served` binary.
//!
//! The library portion exists so argument parsing and command dispatch
//! are unit-testable; [`main`](../src/main.rs) is a thin wrapper.

pub mod args;
pub mod commands;
pub mod progress;

pub use args::{Command, ParseArgsError, PlaceArgs, StatsArgs, SweepArgs, SynthArgs, ValidateArgs};
pub use progress::StderrProgress;

/// Entry point shared by the binary and the tests.
///
/// # Errors
///
/// Returns a human-readable error string for bad arguments or failed
/// commands (the binary prints it to stderr and exits nonzero).
pub fn run(argv: &[String]) -> Result<String, String> {
    let command = args::parse(argv).map_err(|e| e.to_string())?;
    match command {
        Command::Place(a) => commands::place(&a),
        Command::Validate(a) => commands::validate(&a),
        Command::Synth(a) => commands::synth(&a),
        Command::Stats(a) => commands::stats(&a),
        Command::Sweep(a) => commands::sweep(&a),
        Command::Serve(config) => tvp_serve::host::run(config).map(|()| String::new()),
        Command::Help => Ok(args::USAGE.to_string()),
    }
}
