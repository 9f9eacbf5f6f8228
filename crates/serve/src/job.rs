//! Job specifications, persistent job records, and the retry/backoff
//! policy.
//!
//! Every job owns one directory under `<state_dir>/jobs/<id>/` holding
//! `job.json` (the record below, rewritten atomically on every state
//! transition) and, while the job is in flight, stage checkpoints under
//! `<state_dir>/checkpoints/<id>/`. Because the record and the
//! checkpoints survive a daemon crash, a restarted daemon rebuilds its
//! queue by scanning the store and re-enqueuing every non-terminal job;
//! the placement engine then resumes from the newest intact checkpoint
//! and reproduces the interrupted run bitwise.

use crate::json::{obj, s, Value};
use std::path::Path;
use std::time::Duration;
use tvp_core::checkpoint::write_durable;
use tvp_core::PlacementResult;

/// What a client may submit: either a synthetic benchmark request
/// (`cells` + `seed`) or an inline Bookshelf design (`nodes` + `nets`
/// text, optional `wts`/`pl`).
#[derive(Clone, PartialEq, Debug)]
pub struct JobSpec {
    /// Job name, used for logging and the synthetic generator.
    pub name: String,
    /// Synthetic design size; `None` when an inline design is supplied.
    pub cells: Option<usize>,
    /// RNG seed for both the generator and the placer.
    pub seed: u64,
    /// Device layers in the 3D stack.
    pub layers: usize,
    /// Via-count weight override (paper's alpha_ILV).
    pub alpha_ilv: Option<f64>,
    /// Temperature weight override (paper's alpha_temp).
    pub alpha_temp: Option<f64>,
    /// Per-job deadline, mapped onto the engine's time budget; a job
    /// that exceeds it still returns its legal best-so-far placement,
    /// flagged `stopped_early`.
    pub deadline_seconds: Option<f64>,
    /// Per-job override of the daemon's retry cap.
    pub max_attempts: Option<u32>,
    /// Requested worker threads (a fair-share lease may grant fewer).
    pub threads: Option<usize>,
    /// Deterministic fault specs (`kind` or `kind:site`), validated at
    /// admission; injected only into the job's first-ever execution so
    /// that retries and crash recovery run clean.
    pub inject_faults: Vec<String>,
    /// Inline `.nodes` text for a client-supplied design.
    pub nodes: Option<String>,
    /// Inline `.nets` text for a client-supplied design.
    pub nets: Option<String>,
    /// Inline `.wts` text for a client-supplied design.
    pub wts: Option<String>,
    /// Inline `.pl` text for a client-supplied design.
    pub pl: Option<String>,
}

impl JobSpec {
    /// Parses and validates a submission body.
    ///
    /// # Errors
    ///
    /// Returns a `400`-worthy message for missing/contradictory design
    /// sources, out-of-range parameters, or unknown fault specs.
    pub fn from_json(body: &Value) -> Result<JobSpec, String> {
        // An absent field takes its default; a present one must parse,
        // or admission fails naming it — never a silent default.
        fn field<'v, T>(
            body: &'v Value,
            key: &str,
            what: &str,
            parse: impl FnOnce(&'v Value) -> Option<T>,
        ) -> Result<Option<T>, String> {
            body.get(key)
                .map(|v| parse(v).ok_or_else(|| format!("`{key}` must be {what}")))
                .transpose()
        }
        let uint = |key| field(body, key, "a non-negative integer", Value::as_u64);
        let num = |key| field(body, key, "a number", Value::as_f64);
        let text = |key| field(body, key, "a string", |v| v.as_str().map(str::to_string));
        let spec = JobSpec {
            name: text("name")?.unwrap_or_else(|| "job".to_string()),
            cells: uint("cells")?.map(|n| n as usize),
            seed: uint("seed")?.unwrap_or(1),
            layers: uint("layers")?.map_or(2, |n| n as usize),
            alpha_ilv: num("alpha_ilv")?,
            alpha_temp: num("alpha_temp")?,
            deadline_seconds: num("deadline_seconds")?,
            max_attempts: field(
                body,
                "max_attempts",
                "a non-negative integer below 2^32",
                |v| v.as_u64().and_then(|n| u32::try_from(n).ok()),
            )?,
            threads: uint("threads")?.map(|n| n as usize),
            inject_faults: field(body, "inject_faults", "an array of strings", |v| {
                v.as_arr()?
                    .iter()
                    .map(|item| item.as_str().map(str::to_string))
                    .collect()
            })?
            .unwrap_or_default(),
            nodes: text("nodes")?,
            nets: text("nets")?,
            wts: text("wts")?,
            pl: text("pl")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        match (self.cells, &self.nodes, &self.nets) {
            (Some(n), None, None) if n >= 2 => {}
            (Some(_), None, None) => return Err("`cells` must be at least 2".to_string()),
            (None, Some(_), Some(_)) => {}
            (None, _, _) => {
                return Err(
                    "supply either `cells` (synthetic) or both `nodes` and `nets` (inline design)"
                        .to_string(),
                )
            }
            (Some(_), _, _) => {
                return Err("`cells` and inline `nodes`/`nets` are mutually exclusive".to_string())
            }
        }
        if !(2..=8).contains(&self.layers) {
            return Err("`layers` must be between 2 and 8".to_string());
        }
        if self
            .deadline_seconds
            .is_some_and(|d| d <= 0.0 || Duration::try_from_secs_f64(d).is_err())
        {
            return Err("`deadline_seconds` must be positive and finite".to_string());
        }
        if self.alpha_ilv.is_some_and(|a| !(a.is_finite() && a > 0.0)) {
            return Err("`alpha_ilv` must be positive and finite".to_string());
        }
        if self
            .alpha_temp
            .is_some_and(|a| !(a.is_finite() && a >= 0.0))
        {
            return Err("`alpha_temp` must be non-negative and finite".to_string());
        }
        if self.max_attempts.is_some_and(|a| a == 0) {
            return Err("`max_attempts` must be at least 1".to_string());
        }
        for spec in &self.inject_faults {
            tvp_core::faults::parse_spec(spec)?;
        }
        Ok(())
    }

    fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("name", s(self.name.clone())),
            ("seed", Value::UInt(self.seed)),
            ("layers", Value::Num(self.layers as f64)),
        ];
        if let Some(cells) = self.cells {
            pairs.push(("cells", Value::Num(cells as f64)));
        }
        if let Some(a) = self.alpha_ilv {
            pairs.push(("alpha_ilv", Value::Num(a)));
        }
        if let Some(a) = self.alpha_temp {
            pairs.push(("alpha_temp", Value::Num(a)));
        }
        if let Some(d) = self.deadline_seconds {
            pairs.push(("deadline_seconds", Value::Num(d)));
        }
        if let Some(a) = self.max_attempts {
            pairs.push(("max_attempts", Value::Num(f64::from(a))));
        }
        if let Some(t) = self.threads {
            pairs.push(("threads", Value::Num(t as f64)));
        }
        if !self.inject_faults.is_empty() {
            pairs.push((
                "inject_faults",
                Value::Arr(self.inject_faults.iter().cloned().map(s).collect()),
            ));
        }
        for (key, text) in [
            ("nodes", &self.nodes),
            ("nets", &self.nets),
            ("wts", &self.wts),
            ("pl", &self.pl),
        ] {
            if let Some(text) = text {
                pairs.push((key, s(text.clone())));
            }
        }
        obj(pairs)
    }
}

/// Lifecycle of a job. `Pending` and `Running` are transient; everything
/// else is terminal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    /// Queued, or parked by a drain/crash awaiting re-execution.
    Pending,
    /// Claimed by a worker thread.
    Running,
    /// Finished cleanly.
    Done,
    /// Finished, but only by degrading (fault fallbacks fired).
    Degraded,
    /// Exhausted its retry budget on retryable errors, or hit a
    /// non-retryable one; the last error is preserved on the record.
    DeadLetter,
    /// Cancelled by the client.
    Cancelled,
}

impl JobState {
    /// Wire name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Degraded => "degraded",
            JobState::DeadLetter => "dead-letter",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<JobState> {
        [
            JobState::Pending,
            JobState::Running,
            JobState::Done,
            JobState::Degraded,
            JobState::DeadLetter,
            JobState::Cancelled,
        ]
        .into_iter()
        .find(|state| state.as_str() == name)
    }

    /// Whether the job will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Degraded | JobState::DeadLetter | JobState::Cancelled
        )
    }
}

/// Result metrics worth reporting over the API (a small projection of
/// [`tvp_core::PlacementMetrics`]).
#[derive(Clone, PartialEq, Debug)]
pub struct MetricsSummary {
    /// Total weighted wirelength, meters.
    pub wirelength: f64,
    /// Interlayer-via count.
    pub ilv_count: f64,
    /// Average on-chip temperature, Kelvin.
    pub avg_temperature: f64,
    /// Peak on-chip temperature, Kelvin.
    pub max_temperature: f64,
    /// Combined placement objective.
    pub objective: f64,
}

/// The durable record for one job: everything `job.json` stores.
#[derive(Clone, PartialEq, Debug)]
pub struct JobRecord {
    /// Unique job id (`job-<n>-<hash>`).
    pub id: String,
    /// The validated submission.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Executions started (first run plus retries).
    pub attempts: u32,
    /// Retries performed after retryable errors.
    pub retries: u32,
    /// Times a daemon restart re-adopted this job mid-flight.
    pub recoveries: u32,
    /// Last error message (dead-letter jobs keep theirs forever).
    pub error: Option<String>,
    /// Graceful degradations recorded by the engine, as `kind: detail`.
    pub degradations: Vec<String>,
    /// Whether the deadline/cancellation stopped the pipeline early.
    pub stopped_early: bool,
    /// FNV-1a digest of the final placement, as fixed-width hex.
    pub digest: Option<String>,
    /// Final quality metrics.
    pub metrics: Option<MetricsSummary>,
}

impl JobRecord {
    /// A fresh pending record for a newly admitted spec.
    pub fn new(id: String, spec: JobSpec) -> JobRecord {
        JobRecord {
            id,
            spec,
            state: JobState::Pending,
            attempts: 0,
            retries: 0,
            recoveries: 0,
            error: None,
            degradations: Vec::new(),
            stopped_early: false,
            digest: None,
            metrics: None,
        }
    }

    /// Fills the result fields from a finished placement and moves the
    /// state to `Done` or `Degraded`.
    pub fn absorb_result(&mut self, result: &PlacementResult) {
        self.degradations = result
            .degradations
            .iter()
            .map(|d| format!("{}: {}", d.kind(), d.detail()))
            .collect();
        self.stopped_early = result.stopped_early;
        self.digest = Some(format!("{:016x}", digest_placement(result)));
        self.metrics = Some(MetricsSummary {
            wirelength: result.metrics.wirelength,
            ilv_count: result.metrics.ilv_count,
            avg_temperature: result.metrics.avg_temperature,
            max_temperature: result.metrics.max_temperature,
            objective: result.metrics.objective,
        });
        self.error = None;
        self.state = if self.degradations.is_empty() {
            JobState::Done
        } else {
            JobState::Degraded
        };
    }

    /// Serializes the record to the `job.json` document.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("id", s(self.id.clone())),
            ("state", s(self.state.as_str())),
            ("attempts", Value::Num(f64::from(self.attempts))),
            ("retries", Value::Num(f64::from(self.retries))),
            ("recoveries", Value::Num(f64::from(self.recoveries))),
            ("stopped_early", Value::Bool(self.stopped_early)),
            ("spec", self.spec.to_json()),
        ];
        if let Some(error) = &self.error {
            pairs.push(("error", s(error.clone())));
        }
        if !self.degradations.is_empty() {
            pairs.push((
                "degradations",
                Value::Arr(self.degradations.iter().cloned().map(s).collect()),
            ));
        }
        if let Some(digest) = &self.digest {
            pairs.push(("digest", s(digest.clone())));
        }
        if let Some(m) = &self.metrics {
            pairs.push((
                "metrics",
                obj(vec![
                    ("wirelength", Value::Num(m.wirelength)),
                    ("ilv_count", Value::Num(m.ilv_count)),
                    ("avg_temperature", Value::Num(m.avg_temperature)),
                    ("max_temperature", Value::Num(m.max_temperature)),
                    ("objective", Value::Num(m.objective)),
                ]),
            ));
        }
        obj(pairs)
    }

    /// Deserializes a `job.json` document.
    ///
    /// # Errors
    ///
    /// Returns a message when required fields are missing or malformed;
    /// the daemon treats such records as corrupt and skips them.
    pub fn from_json(doc: &Value) -> Result<JobRecord, String> {
        let id = doc
            .get("id")
            .and_then(Value::as_str)
            .ok_or("job record missing `id`")?
            .to_string();
        let state = doc
            .get("state")
            .and_then(Value::as_str)
            .and_then(JobState::parse)
            .ok_or("job record missing or unknown `state`")?;
        let spec = JobSpec::from_json(doc.get("spec").ok_or("job record missing `spec`")?)?;
        let count = |key: &str| doc.get(key).and_then(Value::as_u64).unwrap_or(0) as u32;
        let metrics = doc.get("metrics").map(|m| {
            let f = |key: &str| m.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
            MetricsSummary {
                wirelength: f("wirelength"),
                ilv_count: f("ilv_count"),
                avg_temperature: f("avg_temperature"),
                max_temperature: f("max_temperature"),
                objective: f("objective"),
            }
        });
        Ok(JobRecord {
            id,
            spec,
            state,
            attempts: count("attempts"),
            retries: count("retries"),
            recoveries: count("recoveries"),
            error: doc.get("error").and_then(Value::as_str).map(str::to_string),
            degradations: doc
                .get("degradations")
                .and_then(Value::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            stopped_early: doc
                .get("stopped_early")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            digest: doc
                .get("digest")
                .and_then(Value::as_str)
                .map(str::to_string),
            metrics,
        })
    }

    /// Atomically rewrites `<dir>/job.json` (tmp + fsync + rename), the
    /// same discipline the checkpoint store uses, so a crash can never
    /// leave a half-written record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as strings.
    pub fn persist(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join("job.json");
        write_durable(&path, self.to_json().to_json().as_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Loads `<dir>/job.json`.
    ///
    /// # Errors
    ///
    /// Returns a message when the file is missing, unreadable, or not a
    /// valid record.
    pub fn load(dir: &Path) -> Result<JobRecord, String> {
        let path = dir.join("job.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        JobRecord::from_json(&Value::parse(&text)?)
    }
}

/// 64-bit FNV-1a over a byte stream (the workspace's one definition,
/// re-exported where job ids, retry jitter and placement digests use it).
pub use tvp_netlist::fnv1a;

/// Digest of the final placement coordinates — bit-exact, so two runs
/// match iff their placements are bitwise identical. This is what the
/// crash-recovery test compares across a kill/restart.
pub fn digest_placement(result: &PlacementResult) -> u64 {
    let placement = &result.placement;
    let mut bytes = Vec::with_capacity(placement.len() * 18);
    for (_, x, y, layer) in placement.iter() {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        bytes.extend_from_slice(&y.to_bits().to_le_bytes());
        bytes.extend_from_slice(&layer.to_le_bytes());
    }
    fnv1a(bytes)
}

/// Jittered exponential backoff before retry `attempt` (1-based): the
/// base delay doubles per attempt, capped, then scaled by a
/// deterministic jitter in `[0.75, 1.25)` derived from the job id — so
/// tests are reproducible while concurrent retries still decorrelate.
pub fn backoff_delay(job_id: &str, attempt: u32, base: Duration, cap: Duration) -> Duration {
    let exp = 2f64.powi(attempt.saturating_sub(1).min(16) as i32);
    let raw = base.as_secs_f64() * exp;
    let hash = fnv1a(job_id.bytes().chain(attempt.to_le_bytes()));
    let jitter = 0.75 + (hash % 1000) as f64 / 2000.0;
    Duration::from_secs_f64((raw * jitter).min(cap.as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth_spec() -> Value {
        Value::parse(
            r#"{"name":"t","cells":200,"seed":7,"inject_faults":["slow-stage:coarse[0]"]}"#,
        )
        .unwrap()
    }

    #[test]
    fn record_round_trips_through_json() {
        let spec = JobSpec::from_json(&synth_spec()).unwrap();
        let mut record = JobRecord::new("job-1-abc".to_string(), spec);
        record.state = JobState::Degraded;
        record.attempts = 2;
        record.retries = 1;
        record.degradations = vec!["thermal-degraded: cg breakdown".to_string()];
        record.digest = Some("00deadbeef001234".to_string());
        record.metrics = Some(MetricsSummary {
            wirelength: 1.5,
            ilv_count: 42.0,
            avg_temperature: 310.0,
            max_temperature: 330.5,
            objective: 2.5,
        });
        let round = JobRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(round, record);
    }

    #[test]
    fn persist_and_load_survive_a_stray_tmp_file() {
        let dir = std::env::temp_dir().join(format!("tvp-serve-job-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let record = JobRecord::new(
            "job-9-f00".to_string(),
            JobSpec::from_json(&synth_spec()).unwrap(),
        );
        record.persist(&dir).unwrap();
        // A later crashed write leaves a tmp file behind; load ignores it.
        std::fs::write(dir.join("job.json.tmp"), b"{garbage").unwrap();
        assert_eq!(JobRecord::load(&dir).unwrap(), record);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeds_above_2_pow_53_are_admitted_and_persisted_exactly() {
        let dir = std::env::temp_dir().join(format!("tvp-serve-seed-{}", std::process::id()));
        for seed in [9_007_199_254_740_993u64, u64::MAX] {
            let body = format!(r#"{{"cells":100,"seed":{seed}}}"#);
            let spec = JobSpec::from_json(&Value::parse(&body).unwrap()).unwrap();
            assert_eq!(spec.seed, seed);
            let _ = std::fs::remove_dir_all(&dir);
            JobRecord::new("job-1-5eed".to_string(), spec)
                .persist(&dir)
                .unwrap();
            assert_eq!(JobRecord::load(&dir).unwrap().spec.seed, seed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_validation_rejects_bad_submissions() {
        for (body, needle) in [
            (r#"{}"#, "supply either"),
            (r#"{"cells":1}"#, "at least 2"),
            (
                r#"{"cells":100,"nodes":"x","nets":"y"}"#,
                "mutually exclusive",
            ),
            (r#"{"cells":100,"layers":1}"#, "layers"),
            (r#"{"cells":100,"deadline_seconds":0}"#, "deadline_seconds"),
            (r#"{"cells":100,"max_attempts":0}"#, "max_attempts"),
            (
                r#"{"cells":100,"inject_faults":["bogus"]}"#,
                "unknown fault kind",
            ),
            // Present but mistyped or out of range: rejected by name,
            // never replaced with the field's default.
            (r#"{"cells":100,"seed":1e300}"#, "`seed`"),
            (r#"{"cells":100,"seed":-1}"#, "`seed`"),
            (r#"{"cells":100,"seed":18446744073709551616}"#, "`seed`"),
            (
                r#"{"cells":100,"deadline_seconds":"5"}"#,
                "`deadline_seconds`",
            ),
            (
                r#"{"cells":100,"deadline_seconds":1e300}"#,
                "`deadline_seconds`",
            ),
            (r#"{"cells":100,"layers":4.5}"#, "`layers`"),
            (r#"{"cells":"100"}"#, "`cells`"),
            (r#"{"cells":100,"name":7}"#, "`name`"),
            (r#"{"cells":100,"alpha_ilv":"1e-5"}"#, "`alpha_ilv`"),
            (r#"{"cells":100,"alpha_ilv":-1e-5}"#, "`alpha_ilv`"),
            (r#"{"cells":100,"alpha_temp":true}"#, "`alpha_temp`"),
            (r#"{"cells":100,"alpha_temp":-1}"#, "`alpha_temp`"),
            (r#"{"cells":100,"max_attempts":2.5}"#, "`max_attempts`"),
            (
                r#"{"cells":100,"max_attempts":4294967296}"#,
                "`max_attempts`",
            ),
            (r#"{"cells":100,"threads":"2"}"#, "`threads`"),
            (
                r#"{"cells":100,"inject_faults":"nan-power"}"#,
                "`inject_faults`",
            ),
            (r#"{"cells":100,"inject_faults":[1]}"#, "`inject_faults`"),
            (r#"{"nodes":"x","nets":3}"#, "`nets`"),
            (r#"{"nodes":"x","nets":"y","wts":1}"#, "`wts`"),
            (r#"{"nodes":"x","nets":"y","pl":null}"#, "`pl`"),
        ] {
            let err = JobSpec::from_json(&Value::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn backoff_grows_jitters_deterministically_and_caps() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(5);
        let d1 = backoff_delay("job-1-a", 1, base, cap);
        let d2 = backoff_delay("job-1-a", 2, base, cap);
        let d9 = backoff_delay("job-1-a", 9, base, cap);
        assert!(d1 >= Duration::from_millis(75) && d1 < Duration::from_millis(125));
        assert!(d2 > d1);
        assert_eq!(d9, cap);
        // Same inputs, same delay; different job, different jitter.
        assert_eq!(backoff_delay("job-1-a", 1, base, cap), d1);
        assert_ne!(backoff_delay("job-2-b", 1, base, cap), d1);
    }

    #[test]
    fn terminal_states_are_exactly_the_non_queue_states() {
        for state in ["pending", "running"] {
            assert!(!JobState::parse(state).unwrap().is_terminal());
        }
        for state in ["done", "degraded", "dead-letter", "cancelled"] {
            assert!(JobState::parse(state).unwrap().is_terminal());
        }
    }
}
