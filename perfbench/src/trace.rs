//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! the program itself is not instrumented. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Clone, PartialEq, Debug)]
pub struct Span {
    /// Layer name, e.g. `global` or `serve.submit`.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Wall duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans in memory; nesting follows `begin`/`end` order.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    /// A tracer whose times count from `epoch` (shared by every tracer of
    /// one run so their spans merge onto one time line).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Sets the job id later spans carry.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Opens a span, nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start = self.now();
        let id = self.record_under(self.open.last().copied(), name, start, start);
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn end(&mut self, id: usize) {
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Records an already-finished interval under `parent` (for
    /// intervals measured or inferred outside the tracer); returns its
    /// index.
    pub fn record_under(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start: f64,
        end: f64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            job: self.job,
        });
        id
    }

    /// Every span recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Child-span indices of every span, in recording order.
fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            kids[p].push(i);
        }
    }
    kids
}

fn child_cover(spans: &[Span], kids: &[usize], parent: &Span) -> f64 {
    let intervals = kids
        .iter()
        .map(|&k| (spans[k].start, spans[k].end))
        .collect();
    covered(intervals, parent.start, parent.end)
}

/// Per job (a span without a parent), the summed self time of every span
/// name recorded under it, plus the root span's own name and duration.
#[derive(Clone, PartialEq, Debug)]
pub struct JobProfile {
    /// Name of the root span.
    pub root: &'static str,
    /// Root span duration, seconds.
    pub wall: f64,
    /// Share of the root's interval its direct children cover.
    pub coverage: f64,
    /// Self time per span name below the root, seconds.
    pub self_time: BTreeMap<&'static str, f64>,
}

/// Folds spans into one [`JobProfile`] per root span, in recording order.
pub fn profiles(spans: &[Span]) -> Vec<JobProfile> {
    let kids = children(spans);
    let mut out: Vec<JobProfile> = Vec::new();
    let mut root_of = vec![usize::MAX; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        match span.parent {
            None => {
                root_of[i] = out.len();
                let cover = child_cover(spans, &kids[i], span);
                out.push(JobProfile {
                    root: span.name,
                    wall: span.duration(),
                    coverage: if span.duration() > 0.0 {
                        cover / span.duration()
                    } else {
                        0.0
                    },
                    self_time: BTreeMap::new(),
                });
            }
            Some(p) => {
                root_of[i] = root_of[p];
                let self_time = span.duration() - child_cover(spans, &kids[i], span);
                *out[root_of[i]].self_time.entry(span.name).or_insert(0.0) += self_time;
            }
        }
    }
    out
}

/// Writes spans as JSON lines (`name`, `start`, `end`, `parent`, `job`).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"job\":{}}}",
            span.name, span.start, span.end, span.job
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips_to_the_parent() {
        assert_eq!(covered(vec![], 0.0, 1.0), 0.0);
        assert_eq!(covered(vec![(0.0, 2.0), (1.0, 3.0)], 0.0, 10.0), 3.0);
        assert_eq!(covered(vec![(5.0, 6.0), (0.0, 1.0)], 0.0, 10.0), 2.0);
        assert_eq!(covered(vec![(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0), 2.0);
        assert_eq!(covered(vec![(1.0, 4.0), (2.0, 3.0)], 0.0, 10.0), 3.0);
    }

    #[test]
    fn self_time_subtracts_covered_children_and_coverage_is_a_share() {
        // job [0, 10]: global [0, 4] with a nested thermal [1, 2];
        // coarse [4, 9] with two overlapping children [5, 7] and [6, 8].
        let spans = vec![
            span("job", 0.0, 10.0, None),
            span("global", 0.0, 4.0, Some(0)),
            span("thermal", 1.0, 2.0, Some(1)),
            span("coarse", 4.0, 9.0, Some(0)),
            span("thermal", 5.0, 7.0, Some(3)),
            span("thermal", 6.0, 8.0, Some(3)),
            span("job", 10.0, 12.0, None),
            span("global", 10.0, 12.0, Some(6)),
        ];
        let p = profiles(&spans);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].root, "job");
        assert_eq!(p[0].wall, 10.0);
        assert_eq!(p[0].coverage, 0.9);
        assert_eq!(p[0].self_time["global"], 3.0);
        assert_eq!(p[0].self_time["coarse"], 2.0);
        assert_eq!(p[0].self_time["thermal"], 1.0 + 2.0 + 2.0);
        assert_eq!(p[1].coverage, 1.0);
        assert_eq!(p[1].self_time["global"], 2.0);
        assert!(!p[1].self_time.contains_key("coarse"));
    }

    #[test]
    fn tracer_nests_by_begin_order_and_records_inferred_intervals() {
        let mut t = Tracer::new(Instant::now());
        t.set_job(7);
        let root = t.begin("job");
        t.span("global", |t| t.span("thermal", |_| ()));
        t.record_under(Some(root), "serve.wait", 0.0, 0.0);
        t.end(root);
        let spans = t.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("job", None),
                ("global", Some(0)),
                ("thermal", Some(1)),
                ("serve.wait", Some(0)),
            ]
        );
        assert!(spans.iter().all(|s| s.job == 7 && s.end >= s.start));
        assert!(spans[0].end >= spans[1].end);
    }
}
