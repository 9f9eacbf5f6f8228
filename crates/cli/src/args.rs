//! Argument parsing for the `tvp` binary (no external dependencies).

use std::error::Error;
use std::fmt;

/// Usage text printed by `tvp help`.
pub const USAGE: &str = "\
tvp — thermal- and via-aware 3D-IC placement (DAC'07 reproduction)

USAGE:
  tvp place <design.aux> [--layers N] [--alpha-ilv X] [--alpha-temp X]
            [--seed N] [--starts N] [--threads N] [--units METERS_PER_UNIT]
            [--coarse-shift-iterations N]
            [--thermal-precond P] [--mg-levels N]
            [--out DIR] [--svg FILE.svg] [--trace-out FILE.jsonl]
            [--time-budget SECONDS] [--checkpoint-dir DIR]
            [--no-preflight] [--inject-fault KIND[:SITE]]...
  tvp validate <design.aux> [--layers N] [--units METERS_PER_UNIT]
            [--alpha-temp X] [--repair [--out DIR]]
  tvp synth <name> --cells N [--area-mm2 A] [--seed N] --out DIR
  tvp stats <design.aux> [--units METERS_PER_UNIT]
  tvp sweep <design.aux> [--scenario S] [--layers N] [--points N]
            [--threads N] [--units M] [--thermal-precond P] [--mg-levels N]
            [--csv FILE] [--progress]
  tvp serve [--listen ADDR] [--state-dir DIR] [--workers N]
            [--max-queue N] [--thread-budget N] [--max-attempts N]
            [--retry-base-ms N] [--drain-secs N]
  tvp help

  --threads N        worker threads for the parallel hot paths (0 = all
                     cores, the default; 1 = fully serial; same result
                     either way)
  --coarse-shift-iterations N
                     (place) hard cap on cell-shifting passes per
                     spreading phase (default 50); spreading normally
                     stops earlier, when the passes converge
  --thermal-precond P
                     CG preconditioner for the evaluation thermal solver:
                     multigrid (or mg; the default — near-grid-independent
                     iteration counts) or jacobi (the flat baseline)
  --mg-levels N      cap the multigrid hierarchy depth (default 0 = coarsen
                     automatically until the lateral grid is trivial)
  --scenario S       (sweep) alpha-ilv (default: trace the wirelength/via
                     tradeoff) or stacks (place onto named heterogeneous
                     layer stacks and tabulate the thermal impact)
  --trace-out FILE   write the stage engine's structured events as JSON
                     Lines (one event object per line)
  --time-budget S    stop gracefully after S seconds of wall clock; the
                     returned placement is still legal
  --checkpoint-dir D write a checkpoint after every completed stage; when
                     D already holds a compatible checkpoint, resume from
                     it (skipping the completed stages)
  --progress         (sweep) narrate per-stage progress on stderr
  --no-preflight     (place) skip the automatic design validation that
                     otherwise runs before placement
  --inject-fault F   (place) deterministically inject a fault for
                     robustness testing; KIND is one of nan-power,
                     cg-breakdown, partition-imbalance,
                     corrupt-checkpoint, io-error:checkpoint-write,
                     slow-stage, with an optional :SITE (a stage
                     name such as global, coarse[0], detail[0], final);
                     may repeat
  --repair           (validate) apply safe normalizations (drop
                     degenerate nets, clamp non-finite dims) and report
                     every change; with --out DIR the repaired design is
                     written back as Bookshelf files
  --listen ADDR      (serve) bind address for the placement daemon
                     (default 127.0.0.1:0; the bound address is written
                     to <state-dir>/addr)
  --state-dir DIR    (serve) durable job/checkpoint store; killed
                     daemons recover in-flight jobs from it on restart
                     (default ./tvp-serve-state)
  --workers N        (serve) concurrent job executions (default 2); all
                     jobs share the --thread-budget pool fairly
  --max-queue N      (serve) admission-control bound on queued jobs; a
                     full queue answers HTTP 429 + Retry-After
                     (default 8)
  --thread-budget N  (serve) total threads leased across concurrent
                     jobs, 0 = all hardware threads (default 0)
  --max-attempts N   (serve) default retry cap for retryable job
                     failures before dead-lettering (default 3)
  --retry-base-ms N  (serve) base delay of the jittered exponential
                     retry backoff (default 500)
  --drain-secs N     (serve) graceful-shutdown drain budget; running
                     jobs still unfinished after it are checkpointed
                     and parked for the next start (default 5)

EXAMPLES:
  tvp synth demo --cells 2000 --out bench/
  tvp place bench/demo.aux --layers 4 --alpha-ilv 1e-5 --out placed/
  tvp place bench/demo.aux --trace-out trace.jsonl --time-budget 300 \\
            --checkpoint-dir ckpt/
";

/// A parsed `tvp` invocation.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// `tvp place`.
    Place(PlaceArgs),
    /// `tvp validate`.
    Validate(ValidateArgs),
    /// `tvp synth`.
    Synth(SynthArgs),
    /// `tvp stats`.
    Stats(StatsArgs),
    /// `tvp sweep`.
    Sweep(SweepArgs),
    /// `tvp serve`.
    Serve(ServeArgs),
    /// `tvp help` (or no arguments).
    Help,
}

/// Arguments of `tvp serve`: the fault-tolerant placement daemon.
#[derive(Clone, PartialEq, Debug)]
pub struct ServeArgs {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Durable job/checkpoint store directory.
    pub state_dir: String,
    /// Concurrent job executions.
    pub workers: usize,
    /// Admission-control bound on queued jobs.
    pub max_queue: usize,
    /// Threads shared across concurrent jobs (0 = all hardware threads).
    pub thread_budget: usize,
    /// Default retry cap per job.
    pub max_attempts: u32,
    /// Backoff base delay, milliseconds.
    pub retry_base_ms: u64,
    /// Graceful-shutdown drain budget, seconds.
    pub drain_secs: u64,
}

/// Arguments of `tvp validate`: preflight diagnostics for one design.
#[derive(Clone, PartialEq, Debug)]
pub struct ValidateArgs {
    /// Path to the `.aux` manifest.
    pub aux: String,
    /// Device layers the design would be placed onto.
    pub layers: usize,
    /// Meters per Bookshelf site unit.
    pub meters_per_unit: f64,
    /// Thermal coefficient the design would be placed with (enables the
    /// inert-thermal-objective check; 0 = off).
    pub alpha_temp: f64,
    /// Apply safe normalizations and report them.
    pub repair: bool,
    /// Output directory for the repaired design (requires `--repair`).
    pub out: Option<String>,
}

/// Arguments of `tvp sweep`: an `α_ILV` tradeoff sweep on one design.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepArgs {
    /// Path to the `.aux` manifest.
    pub aux: String,
    /// Sweep scenario (`"alpha-ilv"` or `"stacks"`).
    pub scenario: String,
    /// Device layers.
    pub layers: usize,
    /// Number of sweep points.
    pub points: usize,
    /// Worker threads (0 = all hardware threads).
    pub threads: usize,
    /// Meters per Bookshelf site unit.
    pub meters_per_unit: f64,
    /// Thermal CG preconditioner (`"multigrid"` or `"jacobi"`).
    pub thermal_precond: String,
    /// Multigrid hierarchy depth cap (0 = automatic).
    pub mg_levels: usize,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Narrate per-stage progress on stderr.
    pub progress: bool,
}

/// Arguments of `tvp place`.
#[derive(Clone, PartialEq, Debug)]
pub struct PlaceArgs {
    /// Path to the `.aux` manifest.
    pub aux: String,
    /// Device layers.
    pub layers: usize,
    /// Interlayer via coefficient, meters.
    pub alpha_ilv: f64,
    /// Thermal coefficient, m/K (0 = off).
    pub alpha_temp: f64,
    /// RNG seed.
    pub seed: u64,
    /// Bisection restarts.
    pub starts: usize,
    /// Worker threads (0 = all hardware threads).
    pub threads: usize,
    /// Meters per Bookshelf site unit.
    pub meters_per_unit: f64,
    /// Hard cap on cell-shifting passes per spreading phase (`None` =
    /// the library default; spreading normally converges earlier).
    pub coarse_shift_iterations: Option<usize>,
    /// Thermal CG preconditioner (`"multigrid"` or `"jacobi"`).
    pub thermal_precond: String,
    /// Multigrid hierarchy depth cap (0 = automatic).
    pub mg_levels: usize,
    /// Output directory for the placed design (omitted = metrics only).
    pub out: Option<String>,
    /// Path for an SVG rendering of the placement (omitted = none).
    pub svg: Option<String>,
    /// Path for a JSONL trace of the stage engine's events.
    pub trace_out: Option<String>,
    /// Wall-clock budget in seconds; the run stops gracefully when it
    /// expires.
    pub time_budget: Option<f64>,
    /// Checkpoint directory (written after every completed stage; resumed
    /// from when it already holds a compatible checkpoint).
    pub checkpoint_dir: Option<String>,
    /// Skip the automatic preflight validation.
    pub no_preflight: bool,
    /// Fault specs (`kind` or `kind:site`) to inject deterministically.
    pub inject_faults: Vec<String>,
}

/// Arguments of `tvp synth`.
#[derive(Clone, PartialEq, Debug)]
pub struct SynthArgs {
    /// Benchmark name.
    pub name: String,
    /// Number of cells.
    pub cells: usize,
    /// Total cell area in mm².
    pub area_mm2: f64,
    /// RNG seed.
    pub seed: u64,
    /// Output directory.
    pub out: String,
    /// Meters per Bookshelf site unit for the written files.
    pub meters_per_unit: f64,
}

/// Arguments of `tvp stats`.
#[derive(Clone, PartialEq, Debug)]
pub struct StatsArgs {
    /// Path to the `.aux` manifest.
    pub aux: String,
    /// Meters per Bookshelf site unit.
    pub meters_per_unit: f64,
}

/// Error produced while parsing the command line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseArgsError(String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{USAGE}", self.0)
    }
}

impl Error for ParseArgsError {}

fn err(msg: impl Into<String>) -> ParseArgsError {
    ParseArgsError(msg.into())
}

/// Parses `argv` (without the program name).
///
/// # Errors
///
/// Returns [`ParseArgsError`] describing the offending flag or missing
/// value; its `Display` includes the usage text.
pub fn parse(argv: &[String]) -> Result<Command, ParseArgsError> {
    let mut it = argv.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "place" => parse_place(&mut it),
        "validate" => parse_validate(&mut it),
        "synth" => parse_synth(&mut it),
        "stats" => parse_stats(&mut it),
        "sweep" => parse_sweep(&mut it),
        "serve" => parse_serve(&mut it),
        other => Err(err(format!("unknown subcommand `{other}`"))),
    }
}

fn take_value<'a>(
    flag: &str,
    it: &mut std::slice::Iter<'a, String>,
) -> Result<&'a str, ParseArgsError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| err(format!("flag {flag} expects a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ParseArgsError> {
    value
        .parse()
        .map_err(|_| err(format!("flag {flag}: `{value}` is not a valid number")))
}

/// Normalizes a `--thermal-precond` value (`mg` is shorthand for
/// `multigrid`).
fn parse_precond(value: &str) -> Result<String, ParseArgsError> {
    match value {
        "multigrid" | "mg" => Ok("multigrid".to_string()),
        "jacobi" => Ok("jacobi".to_string()),
        other => Err(err(format!(
            "flag --thermal-precond: `{other}` is not one of multigrid, mg, jacobi"
        ))),
    }
}

fn parse_place(it: &mut std::slice::Iter<'_, String>) -> Result<Command, ParseArgsError> {
    let mut args = PlaceArgs {
        aux: String::new(),
        layers: 4,
        alpha_ilv: 1.0e-5,
        alpha_temp: 0.0,
        seed: 1,
        starts: 1,
        threads: 0,
        meters_per_unit: 1.0e-6,
        coarse_shift_iterations: None,
        thermal_precond: "multigrid".to_string(),
        mg_levels: 0,
        out: None,
        svg: None,
        trace_out: None,
        time_budget: None,
        checkpoint_dir: None,
        no_preflight: false,
        inject_faults: Vec::new(),
    };
    while let Some(token) = it.next() {
        match token.as_str() {
            "--layers" => args.layers = parse_num(token, take_value(token, it)?)?,
            "--alpha-ilv" => args.alpha_ilv = parse_num(token, take_value(token, it)?)?,
            "--alpha-temp" => args.alpha_temp = parse_num(token, take_value(token, it)?)?,
            "--seed" => args.seed = parse_num(token, take_value(token, it)?)?,
            "--starts" => args.starts = parse_num(token, take_value(token, it)?)?,
            "--threads" => args.threads = parse_num(token, take_value(token, it)?)?,
            "--units" => args.meters_per_unit = parse_num(token, take_value(token, it)?)?,
            "--coarse-shift-iterations" => {
                let cap: usize = parse_num(token, take_value(token, it)?)?;
                if cap == 0 {
                    return Err(err(
                        "flag --coarse-shift-iterations expects a value of at least 1",
                    ));
                }
                args.coarse_shift_iterations = Some(cap);
            }
            "--thermal-precond" => args.thermal_precond = parse_precond(take_value(token, it)?)?,
            "--mg-levels" => args.mg_levels = parse_num(token, take_value(token, it)?)?,
            "--out" => args.out = Some(take_value(token, it)?.to_string()),
            "--svg" => args.svg = Some(take_value(token, it)?.to_string()),
            "--trace-out" => args.trace_out = Some(take_value(token, it)?.to_string()),
            "--time-budget" => {
                let seconds: f64 = parse_num(token, take_value(token, it)?)?;
                if !seconds.is_finite() || seconds < 0.0 {
                    return Err(err("flag --time-budget expects a non-negative number"));
                }
                args.time_budget = Some(seconds);
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(take_value(token, it)?.to_string()),
            "--no-preflight" => args.no_preflight = true,
            "--inject-fault" => args.inject_faults.push(take_value(token, it)?.to_string()),
            flag if flag.starts_with("--") => {
                return Err(err(format!("unknown flag `{flag}` for `place`")))
            }
            positional if args.aux.is_empty() => args.aux = positional.to_string(),
            extra => return Err(err(format!("unexpected argument `{extra}`"))),
        }
    }
    if args.aux.is_empty() {
        return Err(err("`place` needs a <design.aux> path"));
    }
    Ok(Command::Place(args))
}

fn parse_validate(it: &mut std::slice::Iter<'_, String>) -> Result<Command, ParseArgsError> {
    let mut args = ValidateArgs {
        aux: String::new(),
        layers: 4,
        meters_per_unit: 1.0e-6,
        alpha_temp: 0.0,
        repair: false,
        out: None,
    };
    while let Some(token) = it.next() {
        match token.as_str() {
            "--layers" => args.layers = parse_num(token, take_value(token, it)?)?,
            "--units" => args.meters_per_unit = parse_num(token, take_value(token, it)?)?,
            "--alpha-temp" => args.alpha_temp = parse_num(token, take_value(token, it)?)?,
            "--repair" => args.repair = true,
            "--out" => args.out = Some(take_value(token, it)?.to_string()),
            flag if flag.starts_with("--") => {
                return Err(err(format!("unknown flag `{flag}` for `validate`")))
            }
            positional if args.aux.is_empty() => args.aux = positional.to_string(),
            extra => return Err(err(format!("unexpected argument `{extra}`"))),
        }
    }
    if args.aux.is_empty() {
        return Err(err("`validate` needs a <design.aux> path"));
    }
    if args.out.is_some() && !args.repair {
        return Err(err("`validate --out` requires `--repair`"));
    }
    Ok(Command::Validate(args))
}

fn parse_synth(it: &mut std::slice::Iter<'_, String>) -> Result<Command, ParseArgsError> {
    let mut name = String::new();
    let mut cells = None;
    let mut area_mm2 = None;
    let mut seed = 1;
    let mut out = None;
    let mut meters_per_unit = 1.0e-6;
    while let Some(token) = it.next() {
        match token.as_str() {
            "--cells" => cells = Some(parse_num(token, take_value(token, it)?)?),
            "--area-mm2" => area_mm2 = Some(parse_num(token, take_value(token, it)?)?),
            "--seed" => seed = parse_num(token, take_value(token, it)?)?,
            "--out" => out = Some(take_value(token, it)?.to_string()),
            "--units" => meters_per_unit = parse_num(token, take_value(token, it)?)?,
            flag if flag.starts_with("--") => {
                return Err(err(format!("unknown flag `{flag}` for `synth`")))
            }
            positional if name.is_empty() => name = positional.to_string(),
            extra => return Err(err(format!("unexpected argument `{extra}`"))),
        }
    }
    if name.is_empty() {
        return Err(err("`synth` needs a benchmark <name>"));
    }
    let cells = cells.ok_or_else(|| err("`synth` needs --cells N"))?;
    // Default: IBM-PLACE-like average cell area (≈ 5 µm² per cell).
    let area_mm2 = area_mm2.unwrap_or(cells as f64 * 5.0e-6);
    let out = out.ok_or_else(|| err("`synth` needs --out DIR"))?;
    Ok(Command::Synth(SynthArgs {
        name,
        cells,
        area_mm2,
        seed,
        out,
        meters_per_unit,
    }))
}

fn parse_stats(it: &mut std::slice::Iter<'_, String>) -> Result<Command, ParseArgsError> {
    let mut aux = String::new();
    let mut meters_per_unit = 1.0e-6;
    while let Some(token) = it.next() {
        match token.as_str() {
            "--units" => meters_per_unit = parse_num(token, take_value(token, it)?)?,
            flag if flag.starts_with("--") => {
                return Err(err(format!("unknown flag `{flag}` for `stats`")))
            }
            positional if aux.is_empty() => aux = positional.to_string(),
            extra => return Err(err(format!("unexpected argument `{extra}`"))),
        }
    }
    if aux.is_empty() {
        return Err(err("`stats` needs a <design.aux> path"));
    }
    Ok(Command::Stats(StatsArgs {
        aux,
        meters_per_unit,
    }))
}

fn parse_sweep(it: &mut std::slice::Iter<'_, String>) -> Result<Command, ParseArgsError> {
    let mut args = SweepArgs {
        aux: String::new(),
        scenario: "alpha-ilv".to_string(),
        layers: 4,
        points: 7,
        threads: 0,
        meters_per_unit: 1.0e-6,
        thermal_precond: "multigrid".to_string(),
        mg_levels: 0,
        csv: None,
        progress: false,
    };
    while let Some(token) = it.next() {
        match token.as_str() {
            "--scenario" => {
                let value = take_value(token, it)?;
                match value {
                    "alpha-ilv" | "stacks" => args.scenario = value.to_string(),
                    other => {
                        return Err(err(format!(
                            "flag --scenario: `{other}` is not one of alpha-ilv, stacks"
                        )))
                    }
                }
            }
            "--layers" => args.layers = parse_num(token, take_value(token, it)?)?,
            "--points" => args.points = parse_num(token, take_value(token, it)?)?,
            "--threads" => args.threads = parse_num(token, take_value(token, it)?)?,
            "--units" => args.meters_per_unit = parse_num(token, take_value(token, it)?)?,
            "--thermal-precond" => args.thermal_precond = parse_precond(take_value(token, it)?)?,
            "--mg-levels" => args.mg_levels = parse_num(token, take_value(token, it)?)?,
            "--csv" => args.csv = Some(take_value(token, it)?.to_string()),
            "--progress" => args.progress = true,
            flag if flag.starts_with("--") => {
                return Err(err(format!("unknown flag `{flag}` for `sweep`")))
            }
            positional if args.aux.is_empty() => args.aux = positional.to_string(),
            extra => return Err(err(format!("unexpected argument `{extra}`"))),
        }
    }
    if args.aux.is_empty() {
        return Err(err("`sweep` needs a <design.aux> path"));
    }
    if args.points < 2 {
        return Err(err("`sweep` needs --points >= 2"));
    }
    Ok(Command::Sweep(args))
}

fn parse_serve(it: &mut std::slice::Iter<'_, String>) -> Result<Command, ParseArgsError> {
    let mut args = ServeArgs {
        listen: "127.0.0.1:0".to_string(),
        state_dir: "tvp-serve-state".to_string(),
        workers: 2,
        max_queue: 8,
        thread_budget: 0,
        max_attempts: 3,
        retry_base_ms: 500,
        drain_secs: 5,
    };
    while let Some(token) = it.next() {
        match token.as_str() {
            "--listen" => args.listen = take_value(token, it)?.to_string(),
            "--state-dir" => args.state_dir = take_value(token, it)?.to_string(),
            "--workers" => args.workers = parse_num(token, take_value(token, it)?)?,
            "--max-queue" => args.max_queue = parse_num(token, take_value(token, it)?)?,
            "--thread-budget" => args.thread_budget = parse_num(token, take_value(token, it)?)?,
            "--max-attempts" => {
                args.max_attempts = parse_num(token, take_value(token, it)?)?;
                if args.max_attempts == 0 {
                    return Err(err("flag --max-attempts expects a value of at least 1"));
                }
            }
            "--retry-base-ms" => args.retry_base_ms = parse_num(token, take_value(token, it)?)?,
            "--drain-secs" => args.drain_secs = parse_num(token, take_value(token, it)?)?,
            flag if flag.starts_with("--") => {
                return Err(err(format!("unknown flag `{flag}` for `serve`")))
            }
            extra => return Err(err(format!("unexpected argument `{extra}`"))),
        }
    }
    Ok(Command::Serve(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn serve_parses_flags_and_defaults() {
        let Command::Serve(a) = parse(&argv(
            "serve --listen 127.0.0.1:7433 --state-dir /tmp/tvp --workers 4 \
             --max-queue 16 --thread-budget 8 --max-attempts 5 \
             --retry-base-ms 100 --drain-secs 2",
        ))
        .unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(a.listen, "127.0.0.1:7433");
        assert_eq!(a.state_dir, "/tmp/tvp");
        assert_eq!(a.workers, 4);
        assert_eq!(a.max_queue, 16);
        assert_eq!(a.thread_budget, 8);
        assert_eq!(a.max_attempts, 5);
        assert_eq!(a.retry_base_ms, 100);
        assert_eq!(a.drain_secs, 2);

        let Command::Serve(d) = parse(&argv("serve")).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(d.listen, "127.0.0.1:0");
        assert_eq!(d.workers, 2);
        assert_eq!(d.max_queue, 8);
        assert_eq!(d.max_attempts, 3);

        assert!(parse(&argv("serve --max-attempts 0")).is_err());
        assert!(parse(&argv("serve --bogus")).is_err());
    }

    #[test]
    fn place_defaults_and_flags() {
        let Command::Place(a) = parse(&argv(
            "place d.aux --layers 2 --alpha-ilv 1e-6 --alpha-temp 1e-5 --seed 9 --threads 8 --out o",
        ))
        .unwrap() else {
            panic!("expected place")
        };
        assert_eq!(a.aux, "d.aux");
        assert_eq!(a.layers, 2);
        assert_eq!(a.alpha_ilv, 1e-6);
        assert_eq!(a.alpha_temp, 1e-5);
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, 8);
        assert_eq!(a.out.as_deref(), Some("o"));

        let Command::Place(d) = parse(&argv("place d.aux")).unwrap() else {
            panic!()
        };
        assert_eq!(d.layers, 4);
        assert_eq!(d.alpha_ilv, 1e-5);
        assert_eq!(d.threads, 0, "default = all hardware threads");
        assert_eq!(d.coarse_shift_iterations, None, "library default cap");
        assert_eq!(d.thermal_precond, "multigrid", "multigrid is the default");
        assert_eq!(d.mg_levels, 0, "default = automatic depth");
        assert_eq!(d.out, None);
        assert_eq!(d.trace_out, None);
        assert_eq!(d.time_budget, None);
        assert_eq!(d.checkpoint_dir, None);
    }

    #[test]
    fn thermal_precond_flags_parse_and_validate() {
        let Command::Place(a) = parse(&argv("place d.aux --thermal-precond jacobi")).unwrap()
        else {
            panic!("expected place")
        };
        assert_eq!(a.thermal_precond, "jacobi");

        // `mg` is shorthand for multigrid; the depth cap rides along.
        let Command::Place(a) =
            parse(&argv("place d.aux --thermal-precond mg --mg-levels 3")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.thermal_precond, "multigrid");
        assert_eq!(a.mg_levels, 3);

        let Command::Sweep(s) =
            parse(&argv("sweep d.aux --thermal-precond jacobi --mg-levels 2")).unwrap()
        else {
            panic!()
        };
        assert_eq!(s.thermal_precond, "jacobi");
        assert_eq!(s.mg_levels, 2);

        let e = parse(&argv("place d.aux --thermal-precond ilu")).unwrap_err();
        assert!(e.to_string().contains("multigrid, mg, jacobi"));
    }

    #[test]
    fn thermal_tier_flag_is_unknown() {
        let e = parse(&argv("place d.aux --thermal-tier coarse=compact")).unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown flag `--thermal-tier` for `place`"),
            "{e}"
        );
    }

    #[test]
    fn validate_accepts_alpha_temp() {
        let Command::Validate(a) = parse(&argv("validate d.aux --alpha-temp 1e-4")).unwrap() else {
            panic!("expected validate")
        };
        assert_eq!(a.alpha_temp, 1e-4);
        let Command::Validate(d) = parse(&argv("validate d.aux")).unwrap() else {
            panic!()
        };
        assert_eq!(d.alpha_temp, 0.0);
    }

    #[test]
    fn sweep_scenario_parses_and_rejects_unknown() {
        let Command::Sweep(a) = parse(&argv("sweep d.aux --scenario stacks")).unwrap() else {
            panic!()
        };
        assert_eq!(a.scenario, "stacks");
        let Command::Sweep(d) = parse(&argv("sweep d.aux")).unwrap() else {
            panic!()
        };
        assert_eq!(d.scenario, "alpha-ilv");
        let e = parse(&argv("sweep d.aux --scenario frob")).unwrap_err();
        assert!(e.to_string().contains("alpha-ilv, stacks"));
    }

    #[test]
    fn place_run_control_flags() {
        let Command::Place(a) = parse(&argv(
            "place d.aux --trace-out t.jsonl --time-budget 2.5 --checkpoint-dir ck",
        ))
        .unwrap() else {
            panic!("expected place")
        };
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(a.time_budget, Some(2.5));
        assert_eq!(a.checkpoint_dir.as_deref(), Some("ck"));

        let e = parse(&argv("place d.aux --time-budget -1")).unwrap_err();
        assert!(e.to_string().contains("non-negative"));
        let e = parse(&argv("place d.aux --time-budget nope")).unwrap_err();
        assert!(e.to_string().contains("not a valid number"));
    }

    #[test]
    fn coarse_shift_iterations_is_a_validated_cap() {
        let Command::Place(a) = parse(&argv("place d.aux --coarse-shift-iterations 80")).unwrap()
        else {
            panic!("expected place")
        };
        assert_eq!(a.coarse_shift_iterations, Some(80));
        let e = parse(&argv("place d.aux --coarse-shift-iterations 0")).unwrap_err();
        assert!(e.to_string().contains("at least 1"));
    }

    #[test]
    fn place_robustness_flags() {
        let Command::Place(a) = parse(&argv(
            "place d.aux --no-preflight --inject-fault nan-power --inject-fault cg-breakdown:final",
        ))
        .unwrap() else {
            panic!("expected place")
        };
        assert!(a.no_preflight);
        assert_eq!(a.inject_faults, ["nan-power", "cg-breakdown:final"]);

        let Command::Place(d) = parse(&argv("place d.aux")).unwrap() else {
            panic!()
        };
        assert!(!d.no_preflight, "preflight is on by default");
        assert!(d.inject_faults.is_empty());
    }

    #[test]
    fn validate_parses() {
        let Command::Validate(a) = parse(&argv("validate d.aux --layers 2")).unwrap() else {
            panic!("expected validate")
        };
        assert_eq!(a.aux, "d.aux");
        assert_eq!(a.layers, 2);
        assert!(!a.repair);
        assert_eq!(a.out, None);

        let Command::Validate(a) = parse(&argv("validate d.aux --repair --out fixed")).unwrap()
        else {
            panic!()
        };
        assert!(a.repair);
        assert_eq!(a.out.as_deref(), Some("fixed"));

        assert!(parse(&argv("validate")).is_err());
        let e = parse(&argv("validate d.aux --out fixed")).unwrap_err();
        assert!(e.to_string().contains("--repair"));
    }

    #[test]
    fn synth_requires_cells_and_out() {
        assert!(parse(&argv("synth demo --out o")).is_err());
        assert!(parse(&argv("synth demo --cells 100")).is_err());
        let Command::Synth(a) = parse(&argv("synth demo --cells 100 --out o --seed 3")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.name, "demo");
        assert_eq!(a.cells, 100);
        assert_eq!(a.seed, 3);
        assert!((a.area_mm2 - 100.0 * 5.0e-6).abs() < 1e-12, "default area");
    }

    #[test]
    fn bad_flags_are_reported_with_usage() {
        let e = parse(&argv("place d.aux --bogus 1")).unwrap_err();
        assert!(e.to_string().contains("--bogus"));
        assert!(e.to_string().contains("USAGE"));
        let e = parse(&argv("place")).unwrap_err();
        assert!(e.to_string().contains("design.aux"));
        let e = parse(&argv("place d.aux --layers")).unwrap_err();
        assert!(e.to_string().contains("expects a value"));
        let e = parse(&argv("place d.aux --layers x")).unwrap_err();
        assert!(e.to_string().contains("not a valid number"));
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn sweep_parses_with_defaults_and_flags() {
        let Command::Sweep(a) = parse(&argv("sweep d.aux")).unwrap() else {
            panic!()
        };
        assert_eq!(a.layers, 4);
        assert_eq!(a.points, 7);
        assert_eq!(a.csv, None);
        assert!(!a.progress);
        let Command::Sweep(a) = parse(&argv(
            "sweep d.aux --layers 2 --points 5 --threads 2 --csv out.csv --progress",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.layers, 2);
        assert_eq!(a.points, 5);
        assert_eq!(a.threads, 2);
        assert_eq!(a.csv.as_deref(), Some("out.csv"));
        assert!(a.progress);
        assert!(parse(&argv("sweep d.aux --points 1")).is_err());
        assert!(parse(&argv("sweep")).is_err());
    }

    #[test]
    fn stats_parses() {
        let Command::Stats(a) = parse(&argv("stats d.aux --units 2e-6")).unwrap() else {
            panic!()
        };
        assert_eq!(a.aux, "d.aux");
        assert_eq!(a.meters_per_unit, 2e-6);
    }
}
