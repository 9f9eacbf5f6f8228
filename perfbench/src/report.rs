//! Metric declarations and the run report: a human-readable table with
//! every metric's unit and sample count, then the one-line JSON result.

use crate::rounds::Ledger;
use crate::stats::{self, median, tail_percentile};
use crate::trace::{self, JobProfile, Span};
use crate::Run;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported by untraced runs. Must
/// match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("objective", "m"),
    ("hpwl_m", "m"),
    ("ilv", "count"),
    ("t_max_c", "degC"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. Must match
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("global.self_s", "s"),
    ("global.partition_retries", "count"),
    ("coarse.self_s", "s"),
    ("coarse.shift_passes", "count"),
    ("coarse.moves_improved", "count"),
    ("detail.self_s", "s"),
    ("thermal.self_s", "s"),
    ("thermal.cg_iterations", "count"),
    ("bookshelf.load_s", "s"),
    ("validate.self_s", "s"),
    ("bookshelf.assemble_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.poll_s", "s"),
    ("serve.polls_per_job", "count"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.fetch_s", "s"),
    ("serve.job_overhead_s", "s"),
    ("serve.rejected", "count"),
    ("core.place_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.probe_s", "s"),
];

/// Per-layer metrics read as per-job self time of one span name.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("global.self_s", "global"),
    ("coarse.self_s", "coarse"),
    ("detail.self_s", "detail"),
    ("thermal.self_s", "thermal"),
    ("bookshelf.load_s", "bookshelf.load"),
    ("validate.self_s", "validate"),
    ("bookshelf.assemble_s", "bookshelf.assemble"),
    ("serve.submit_s", "serve.submit"),
    ("serve.poll_s", "serve.poll"),
    ("serve.fetch_s", "serve.fetch"),
];

/// Root span of a traced placement job.
pub const JOB: &str = "job";

/// The `VmHWM` (resident high-water mark) of a `/proc/<pid>/status`
/// text, MB.
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(kb.split_whitespace().next()?.parse::<f64>().ok()? / 1024.0)
}

/// Median, or NaN (reported as a missing metric) without samples.
pub fn median_or_nan(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

/// Everything one run measured and checked.
pub struct Report {
    declared: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, (f64, String)>,
    notes: Vec<String>,
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Report {
    /// An empty report for a traced (`PER_LAYER`) or untraced
    /// (`END_TO_END`) run.
    pub fn new(traced: bool) -> Self {
        Self {
            declared: if traced { PER_LAYER } else { END_TO_END },
            values: BTreeMap::new(),
            notes: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Sets metric `name` with a note of the samples behind it.
    ///
    /// # Panics
    ///
    /// When `name` is not a declared metric of this run kind: a bug in
    /// the benchmark itself.
    pub fn set(&mut self, name: &'static str, value: f64, samples: String) {
        assert!(
            self.declared.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, (value, samples));
    }

    /// The value set for `name`, NaN when unset.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).map_or(f64::NAN, |v| v.0)
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, message: String) {
        self.notes.push(message);
    }

    /// Records the job counts behind the result.
    pub fn jobs(&mut self, attempted: usize, failed: usize) {
        self.attempted = attempted;
        self.failed = failed;
    }

    /// Sets `latency_p90_s` when enough samples lie beyond it. Otherwise
    /// the metric stays unmeasured, which fails the run: it is too short
    /// for the percentile.
    pub fn latency_p90(&mut self, latencies: &[f64]) {
        let n = latencies.len();
        match tail_percentile(latencies, 0.9) {
            Some(p90) => self.set("latency_p90_s", p90, format!("{n} jobs")),
            None => self.notes.push(format!(
                "latency p90 withheld: {} of {n} samples lie beyond it, {} needed",
                stats::samples_beyond(n, 0.9),
                stats::MIN_TAIL_SAMPLES
            )),
        }
    }

    /// Notes the median latency of each design from `(design, latency)`
    /// samples.
    pub fn per_design(&mut self, samples: &[(usize, f64)], designs: usize) {
        let medians: Vec<String> = (0..designs)
            .map(|d| {
                let mine: Vec<f64> = samples.iter().filter(|s| s.0 == d).map(|s| s.1).collect();
                format!("{:.4}", median_or_nan(&mine))
            })
            .collect();
        self.notes.push(format!(
            "median latency per design, s: {}",
            medians.join(" ")
        ));
    }

    /// Sets `peak_rss_mb` from this process's resident high-water mark.
    pub fn peak_rss(&mut self) {
        let mb = std::fs::read_to_string("/proc/self/status")
            .ok()
            .as_deref()
            .and_then(vm_hwm_mb)
            .unwrap_or(f64::NAN);
        self.set("peak_rss_mb", mb, "VmHWM".to_string());
    }

    /// Sets the quality metrics: means over the design set.
    pub fn quality(&mut self, ledger: &Ledger) {
        let Some(q) = ledger.mean() else {
            self.fail("not every design was placed".to_string());
            return;
        };
        let note = || "mean over the design set".to_string();
        self.set("objective", q.objective, note());
        self.set("hpwl_m", q.hpwl, note());
        self.set("ilv", q.ilv, note());
        self.set("t_max_c", q.t_max, note());
        self.notes.push(format!(
            "design-set digest {:016x} (equal across runs of one commit and seed)",
            q.digest
        ));
    }

    /// Sets the span-derived per-layer metrics, `trace.coverage` and
    /// `trace.overhead` (traced placement jobs against `untraced`
    /// latencies of the same work), and notes each root's layer shares.
    pub fn layers(&mut self, profiles: &[JobProfile], untraced: &[f64]) {
        for &(metric, span) in LAYER_SPANS {
            let values: Vec<f64> = profiles
                .iter()
                .filter_map(|p| p.self_time.get(span).copied())
                .collect();
            if values.is_empty() {
                self.set(metric, 0.0, "absent in this workload".to_string());
            } else {
                let n = format!("{} jobs", values.len());
                self.set(metric, median_or_nan(&values), n);
            }
        }
        let jobs: Vec<&JobProfile> = profiles.iter().filter(|p| p.root == JOB).collect();
        let coverage: Vec<f64> = jobs.iter().map(|p| p.coverage).collect();
        let walls: Vec<f64> = jobs.iter().map(|p| p.wall).collect();
        let n = format!("{} traced jobs", jobs.len());
        self.set("trace.coverage", median_or_nan(&coverage), n.clone());
        self.notes.push(format!(
            "trace.coverage min {:.4}",
            coverage.iter().copied().fold(f64::INFINITY, f64::min)
        ));
        let overhead = median_or_nan(&walls) / median_or_nan(untraced) - 1.0;
        self.set(
            "trace.overhead",
            overhead,
            format!("{n} vs {} untraced", untraced.len()),
        );
        let mut roots: Vec<&'static str> = profiles.iter().map(|p| p.root).collect();
        roots.sort_unstable();
        roots.dedup();
        for root in roots {
            self.notes.push(layer_shares(root, profiles));
        }
    }

    /// Sets count metrics as the mean per job of each column of `rows`.
    pub fn counts<const N: usize>(&mut self, names: &[&'static str; N], rows: &[[usize; N]]) {
        for (j, &name) in names.iter().enumerate() {
            let column: Vec<f64> = rows.iter().map(|r| r[j] as f64).collect();
            let mean = stats::mean(&column).unwrap_or(f64::NAN);
            self.set(name, mean, format!("mean of {} jobs", rows.len()));
        }
    }

    /// Sets metrics of layers this workload never exercises to 0.
    pub fn absent(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0, "absent in this workload".to_string());
        }
    }

    /// Writes the spans as JSON lines beside the benchmark.
    pub fn write_trace(&mut self, run: &Run, spans: &[Span]) {
        let path = run
            .trace_dir
            .join(format!("{}-seed{}.jsonl", run.workload, run.seed));
        match std::fs::create_dir_all(&run.trace_dir)
            .and_then(|()| trace::write_jsonl(spans, &path))
        {
            Ok(()) => self.notes.push(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => self.fail(format!("writing {}: {e}", path.display())),
        }
    }

    /// Renders the report: the human-readable lines, then the JSON result
    /// as the last line. Returns the text and whether every check passed
    /// and every declared metric was measured.
    pub fn render(mut self) -> (String, bool) {
        let mut out = String::new();
        let mut metrics = Vec::new();
        for &(name, unit) in self.declared {
            match self.values.get(name) {
                Some((value, samples)) if value.is_finite() => {
                    let _ = writeln!(out, "  {name:<26} {value:>16.6} {unit:<6} ({samples})");
                    metrics.push(format!(
                        "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
                    ));
                }
                _ => self
                    .failures
                    .push(format!("metric {name} was not measured")),
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        for failure in &self.failures {
            let _ = writeln!(out, "  FAILED: {failure}");
        }
        // A run that attempted nothing is one failed attempt.
        let (attempted, failed) = match self.attempted {
            0 => (1, 1),
            n => (n, self.failed),
        };
        let correct = self.failures.is_empty() && failed == 0;
        let _ = writeln!(
            out,
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        );
        (out, correct)
    }
}

/// One line per root span name: each layer's share of the summed wall.
fn layer_shares(root: &str, profiles: &[JobProfile]) -> String {
    let jobs: Vec<&JobProfile> = profiles.iter().filter(|p| p.root == root).collect();
    let wall: f64 = jobs.iter().map(|p| p.wall).sum();
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    for p in &jobs {
        for (&name, &t) in &p.self_time {
            *totals.entry(name).or_insert(0.0) += t;
        }
    }
    let mut shares: Vec<(&str, f64)> = totals.into_iter().map(|(n, t)| (n, t / wall)).collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let parts: Vec<String> = shares
        .iter()
        .map(|(n, s)| format!("{n} {:.1}%", 100.0 * s))
        .collect();
    format!(
        "layer shares of {} `{root}` jobs ({:.3} s median): {}",
        jobs.len(),
        median_or_nan(&jobs.iter().map(|p| p.wall).collect::<Vec<_>>()),
        parts.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_serve::json::Value;

    /// The metric tables here and `BENCHMARK.json` name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn declarations_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let declared: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, declared, "{key}");
        }
    }

    #[test]
    fn render_flags_unmeasured_metrics_and_prints_json_last() {
        let mut report = Report::new(false);
        report.jobs(4, 0);
        report.set("setup_s", 1.25, "3 set-ups".to_string());
        let (text, correct) = report.render();
        assert!(!correct, "most metrics are missing");
        assert!(text.contains("metric latency_p50_s was not measured"));
        let last = text.lines().last().unwrap();
        let json = Value::parse(last).unwrap();
        assert_eq!(json.get("correct").and_then(Value::as_bool), Some(false));
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }
}
