//! Pipeline observability: structured events emitted by the stage engine.
//!
//! The engine (DESIGN.md §9) reports its progress through a
//! [`PlacerObserver`] — an event sink attached to one run via
//! [`PlaceOptions`](crate::PlaceOptions). Observers are strictly
//! *listeners*: they receive every event by reference and cannot touch the
//! placement, so attaching one never changes the produced result (covered
//! by the `observer_determinism` integration tests).
//!
//! Three sinks ship with the crate:
//!
//! * [`NopObserver`] — the default; reports [`enabled`] = `false`, which
//!   lets the engine skip event construction entirely (zero overhead).
//! * [`RecordingObserver`] — buffers events in memory, for tests and
//!   programmatic consumers.
//! * [`JsonlObserver`] — serializes each event as one JSON object per
//!   line, the format behind `tvp place --trace-out`.
//!
//! [`enabled`]: PlacerObserver::enabled

use crate::placer::ThermalSnapshot;
use std::io::Write;

/// Fine-grained progress inside one stage, emitted at pass boundaries
/// (the same boundaries where cancellation is honored).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PassEvent {
    /// One coarse-legalization pass of global + local moves/swaps.
    CoarseMoves {
        /// Pass number within the stage, from 0.
        pass: usize,
        /// Improving actions executed (moves + swaps).
        improved: usize,
        /// Objective value after the pass.
        objective: f64,
    },
    /// One cell-shifting phase run to convergence.
    CoarseShift {
        /// Shifting iterations executed.
        iterations: usize,
        /// Maximum bin density after shifting.
        max_density: f64,
        /// Objective value after shifting.
        objective: f64,
    },
    /// One cell-shifting pass inside a [`CoarseShift`](Self::CoarseShift)
    /// phase — the per-pass signal the convergence detector reads.
    ShiftPass {
        /// Pass index within the phase, from 0.
        pass: usize,
        /// Cells moved by the pass (x rows + y rows + z columns).
        moved: usize,
        /// Largest relative bin-boundary displacement any row solved for
        /// (|new − old| / old bin width).
        max_boundary_delta: f64,
        /// Maximum bin density after the pass — the stall-detection
        /// signal.
        max_density: f64,
        /// Wall-clock milliseconds the pass took.
        wall_ms: f64,
    },
    /// One layer fully packed by detailed legalization.
    DetailRows {
        /// Layer index.
        layer: usize,
        /// Rows that received at least one cell.
        rows: usize,
        /// Cells packed on the layer.
        cells: usize,
    },
    /// One legality-preserving refinement pass.
    RefinePass {
        /// Pass number, from 0.
        pass: usize,
        /// Objective improvement accumulated so far (positive = better).
        improvement: f64,
    },
}

/// One structured event from the stage engine.
///
/// The JSONL rendering of each variant is documented in DESIGN.md §9; the
/// in-memory form here is what [`RecordingObserver`] stores.
#[derive(Clone, PartialEq, Debug)]
pub enum PlacerEvent {
    /// The run is starting; lists every planned stage in execution order.
    RunBegin {
        /// Stage names, in order.
        stages: Vec<String>,
        /// Index of the last stage restored from a checkpoint, if the run
        /// resumed.
        resumed_from: Option<usize>,
    },
    /// A stage was skipped because a checkpoint already covers it.
    StageSkipped {
        /// Stage index in the plan.
        index: usize,
        /// Stage name.
        stage: String,
    },
    /// A stage is starting.
    StageBegin {
        /// Stage index in the plan.
        index: usize,
        /// Stage name.
        stage: String,
    },
    /// Progress inside the currently running stage.
    Pass {
        /// Stage index in the plan.
        index: usize,
        /// Stage name.
        stage: String,
        /// The pass-level payload.
        pass: PassEvent,
    },
    /// A stage finished (completed or interrupted at a pass boundary).
    StageEnd {
        /// Stage index in the plan.
        index: usize,
        /// Stage name.
        stage: String,
        /// Wall-clock seconds the stage took.
        seconds: f64,
        /// Objective value when the stage ended.
        objective: f64,
        /// Whether the stage stopped early at a cancellation point.
        interrupted: bool,
    },
    /// A thermal solve ran at a stage boundary (CG statistics included).
    ThermalSolved {
        /// The snapshot appended to the thermal trajectory.
        snapshot: ThermalSnapshot,
    },
    /// A checkpoint was written after a stage.
    CheckpointWritten {
        /// Stage index the checkpoint covers.
        index: usize,
        /// Stage name.
        stage: String,
        /// Path of the written `.pl` file.
        path: String,
    },
    /// A planned fault fired ([`FaultPlan`](crate::FaultPlan)).
    FaultInjected {
        /// The fault class (`nan-power`, `cg-breakdown`, ...).
        kind: String,
        /// The stage-boundary site it fired at.
        site: String,
    },
    /// The pipeline recovered from a failure by degrading gracefully
    /// (also recorded in
    /// [`PlacementResult::degradations`](crate::PlacementResult)).
    Degraded {
        /// The degradation class (`thermal-degraded`, ...).
        kind: String,
        /// Human-readable description of what was given up.
        detail: String,
    },
    /// A corrupted checkpoint was renamed to `*.corrupt`; the run starts
    /// fresh instead of resuming.
    CheckpointQuarantined {
        /// New path of the quarantined file.
        path: String,
        /// Why the checkpoint was rejected.
        reason: String,
    },
    /// The run is over; the result is about to be returned.
    RunEnd {
        /// Total wall-clock seconds.
        seconds: f64,
        /// Whether cancellation or the time budget stopped the pipeline
        /// before every planned stage ran.
        stopped_early: bool,
    },
}

/// An event sink for one placement run.
///
/// Implementations must not assume anything about call timing beyond the
/// documented order: `RunBegin`, then per stage either `StageSkipped` or
/// `StageBegin` → `Pass`* → `StageEnd` (with `ThermalSolved` /
/// `CheckpointWritten` interleaved at stage boundaries), then `RunEnd`.
pub trait PlacerObserver {
    /// Whether the sink wants events at all. The engine skips event
    /// construction when this returns `false`, so a disabled observer
    /// costs nothing on the hot path.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event.
    fn event(&mut self, event: &PlacerEvent);
}

/// The default observer: discards everything and reports itself disabled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NopObserver;

impl PlacerObserver for NopObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn event(&mut self, _event: &PlacerEvent) {}
}

/// Buffers every event in memory.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RecordingObserver {
    /// All events received so far, in order.
    pub events: Vec<PlacerEvent>,
}

impl RecordingObserver {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names of all stages that emitted `StageEnd`, in order.
    pub fn completed_stages(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                PlacerEvent::StageEnd { stage, .. } => Some(stage.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl PlacerObserver for RecordingObserver {
    fn event(&mut self, event: &PlacerEvent) {
        self.events.push(event.clone());
    }
}

/// Serializes each event as one JSON object per line (JSON Lines).
///
/// This is the sink behind `tvp place --trace-out`. Write errors are
/// remembered and reported by [`finish`](Self::finish) rather than
/// aborting the placement.
#[derive(Debug)]
pub struct JsonlObserver<W: Write> {
    writer: W,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlObserver<W> {
    /// Creates a sink writing to `writer`.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            error: None,
        }
    }

    /// Flushes the writer and returns the first write error, if any.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit while writing or flushing.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> PlacerObserver for JsonlObserver<W> {
    fn event(&mut self, event: &PlacerEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = event_to_json(event);
        line.push('\n');
        if let Err(e) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one finite float as JSON (JSON has no NaN/∞; those become
/// `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders one event as a single-line JSON object (no trailing newline).
pub fn event_to_json(event: &PlacerEvent) -> String {
    match event {
        PlacerEvent::RunBegin {
            stages,
            resumed_from,
        } => {
            let list = stages
                .iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect::<Vec<_>>()
                .join(",");
            let resumed = match resumed_from {
                Some(i) => i.to_string(),
                None => "null".to_string(),
            };
            format!("{{\"event\":\"run_begin\",\"stages\":[{list}],\"resumed_from\":{resumed}}}")
        }
        PlacerEvent::StageSkipped { index, stage } => format!(
            "{{\"event\":\"stage_skipped\",\"index\":{index},\"stage\":\"{}\"}}",
            json_escape(stage)
        ),
        PlacerEvent::StageBegin { index, stage } => format!(
            "{{\"event\":\"stage_begin\",\"index\":{index},\"stage\":\"{}\"}}",
            json_escape(stage)
        ),
        PlacerEvent::Pass { index, stage, pass } => {
            let body = match pass {
                PassEvent::CoarseMoves {
                    pass,
                    improved,
                    objective,
                } => format!(
                    "\"kind\":\"coarse_moves\",\"pass\":{pass},\"improved\":{improved},\
                     \"objective\":{}",
                    json_f64(*objective)
                ),
                PassEvent::CoarseShift {
                    iterations,
                    max_density,
                    objective,
                } => format!(
                    "\"kind\":\"coarse_shift\",\"iterations\":{iterations},\"max_density\":{},\
                     \"objective\":{}",
                    json_f64(*max_density),
                    json_f64(*objective)
                ),
                PassEvent::ShiftPass {
                    pass,
                    moved,
                    max_boundary_delta,
                    max_density,
                    wall_ms,
                } => format!(
                    "\"kind\":\"shift_pass\",\"pass\":{pass},\"moved\":{moved},\
                     \"max_boundary_delta\":{},\"max_density\":{},\"wall_ms\":{}",
                    json_f64(*max_boundary_delta),
                    json_f64(*max_density),
                    json_f64(*wall_ms)
                ),
                PassEvent::DetailRows { layer, rows, cells } => format!(
                    "\"kind\":\"detail_rows\",\"layer\":{layer},\"rows\":{rows},\"cells\":{cells}"
                ),
                PassEvent::RefinePass { pass, improvement } => format!(
                    "\"kind\":\"refine_pass\",\"pass\":{pass},\"improvement\":{}",
                    json_f64(*improvement)
                ),
            };
            format!(
                "{{\"event\":\"pass\",\"index\":{index},\"stage\":\"{}\",{body}}}",
                json_escape(stage)
            )
        }
        PlacerEvent::StageEnd {
            index,
            stage,
            seconds,
            objective,
            interrupted,
        } => format!(
            "{{\"event\":\"stage_end\",\"index\":{index},\"stage\":\"{}\",\"seconds\":{},\
             \"objective\":{},\"interrupted\":{interrupted}}}",
            json_escape(stage),
            json_f64(*seconds),
            json_f64(*objective)
        ),
        PlacerEvent::ThermalSolved { snapshot } => format!(
            "{{\"event\":\"thermal\",\"stage\":\"{}\",\"avg_c\":{},\"max_c\":{},\
             \"cg_iterations\":{},\"warm_started\":{},\"preconditioner\":\"{}\",\
             \"initial_residual\":{}}}",
            json_escape(snapshot.stage),
            json_f64(snapshot.avg_temperature),
            json_f64(snapshot.max_temperature),
            snapshot.cg_iterations,
            snapshot.warm_started,
            json_escape(snapshot.preconditioner),
            json_f64(snapshot.initial_residual)
        ),
        PlacerEvent::CheckpointWritten { index, stage, path } => format!(
            "{{\"event\":\"checkpoint\",\"index\":{index},\"stage\":\"{}\",\"path\":\"{}\"}}",
            json_escape(stage),
            json_escape(path)
        ),
        PlacerEvent::FaultInjected { kind, site } => format!(
            "{{\"event\":\"fault_injected\",\"kind\":\"{}\",\"site\":\"{}\"}}",
            json_escape(kind),
            json_escape(site)
        ),
        PlacerEvent::Degraded { kind, detail } => format!(
            "{{\"event\":\"degraded\",\"kind\":\"{}\",\"detail\":\"{}\"}}",
            json_escape(kind),
            json_escape(detail)
        ),
        PlacerEvent::CheckpointQuarantined { path, reason } => format!(
            "{{\"event\":\"checkpoint_quarantined\",\"path\":\"{}\",\"reason\":\"{}\"}}",
            json_escape(path),
            json_escape(reason)
        ),
        PlacerEvent::RunEnd {
            seconds,
            stopped_early,
        } => format!(
            "{{\"event\":\"run_end\",\"seconds\":{},\"stopped_early\":{stopped_early}}}",
            json_f64(*seconds)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_observer_is_disabled() {
        assert!(!NopObserver.enabled());
    }

    #[test]
    fn recording_observer_collects_in_order() {
        let mut rec = RecordingObserver::new();
        rec.event(&PlacerEvent::StageBegin {
            index: 0,
            stage: "global".into(),
        });
        rec.event(&PlacerEvent::StageEnd {
            index: 0,
            stage: "global".into(),
            seconds: 0.5,
            objective: 1.0,
            interrupted: false,
        });
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.completed_stages(), vec!["global"]);
    }

    #[test]
    fn jsonl_lines_are_valid_objects() {
        let events = [
            PlacerEvent::RunBegin {
                stages: vec!["global".into(), "coarse[0]".into()],
                resumed_from: None,
            },
            PlacerEvent::Pass {
                index: 1,
                stage: "coarse[0]".into(),
                pass: PassEvent::CoarseMoves {
                    pass: 0,
                    improved: 3,
                    objective: 0.25,
                },
            },
            PlacerEvent::RunEnd {
                seconds: 1.5,
                stopped_early: true,
            },
        ];
        let mut sink = JsonlObserver::new(Vec::new());
        for e in &events {
            sink.event(e);
        }
        let buf = sink.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"event\":"));
        }
        assert!(text.contains("\"resumed_from\":null"));
        assert!(text.contains("\"stopped_early\":true"));
    }

    #[test]
    fn shift_pass_events_render_as_json() {
        let line = event_to_json(&PlacerEvent::Pass {
            index: 1,
            stage: "coarse[0]".into(),
            pass: PassEvent::ShiftPass {
                pass: 7,
                moved: 1234,
                max_boundary_delta: 0.025,
                max_density: 1.875,
                wall_ms: 12.5,
            },
        });
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"kind\":\"shift_pass\""));
        assert!(line.contains("\"pass\":7"));
        assert!(line.contains("\"moved\":1234"));
        assert!(line.contains("\"max_boundary_delta\":0.025"));
        assert!(line.contains("\"max_density\":1.875"));
        assert!(line.contains("\"wall_ms\":12.5"));
    }

    #[test]
    fn fault_and_degradation_events_render_as_json() {
        let events = [
            PlacerEvent::FaultInjected {
                kind: "nan-power".into(),
                site: "global".into(),
            },
            PlacerEvent::Degraded {
                kind: "thermal-degraded".into(),
                detail: "CG gave way to damped Jacobi".into(),
            },
            PlacerEvent::CheckpointQuarantined {
                path: "/tmp/ck/manifest.tvp.corrupt".into(),
                reason: "placement hash mismatch".into(),
            },
        ];
        for e in &events {
            let line = event_to_json(e);
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(event_to_json(&events[0]).contains("\"event\":\"fault_injected\""));
        assert!(event_to_json(&events[1]).contains("\"kind\":\"thermal-degraded\""));
        assert!(event_to_json(&events[2]).contains("\"event\":\"checkpoint_quarantined\""));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
