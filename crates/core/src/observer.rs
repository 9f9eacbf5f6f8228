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

use crate::json::{obj, s, Value};
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

/// Renders one event as a single-line JSON object (no trailing newline).
pub fn event_to_json(event: &PlacerEvent) -> String {
    let uint = |n: usize| Value::UInt(n as u64);
    let value = match event {
        PlacerEvent::RunBegin {
            stages,
            resumed_from,
        } => obj(vec![
            ("event", s("run_begin")),
            ("stages", Value::Arr(stages.iter().map(s).collect())),
            ("resumed_from", resumed_from.map_or(Value::Null, uint)),
        ]),
        PlacerEvent::StageSkipped { index, stage } => obj(vec![
            ("event", s("stage_skipped")),
            ("index", uint(*index)),
            ("stage", s(stage)),
        ]),
        PlacerEvent::StageBegin { index, stage } => obj(vec![
            ("event", s("stage_begin")),
            ("index", uint(*index)),
            ("stage", s(stage)),
        ]),
        PlacerEvent::Pass { index, stage, pass } => {
            let mut pairs = vec![
                ("event", s("pass")),
                ("index", uint(*index)),
                ("stage", s(stage)),
            ];
            pairs.extend(match *pass {
                PassEvent::CoarseMoves {
                    pass,
                    improved,
                    objective,
                } => vec![
                    ("kind", s("coarse_moves")),
                    ("pass", uint(pass)),
                    ("improved", uint(improved)),
                    ("objective", Value::Num(objective)),
                ],
                PassEvent::CoarseShift {
                    iterations,
                    max_density,
                    objective,
                } => vec![
                    ("kind", s("coarse_shift")),
                    ("iterations", uint(iterations)),
                    ("max_density", Value::Num(max_density)),
                    ("objective", Value::Num(objective)),
                ],
                PassEvent::ShiftPass {
                    pass,
                    moved,
                    max_boundary_delta,
                    max_density,
                    wall_ms,
                } => vec![
                    ("kind", s("shift_pass")),
                    ("pass", uint(pass)),
                    ("moved", uint(moved)),
                    ("max_boundary_delta", Value::Num(max_boundary_delta)),
                    ("max_density", Value::Num(max_density)),
                    ("wall_ms", Value::Num(wall_ms)),
                ],
                PassEvent::DetailRows { layer, rows, cells } => vec![
                    ("kind", s("detail_rows")),
                    ("layer", uint(layer)),
                    ("rows", uint(rows)),
                    ("cells", uint(cells)),
                ],
                PassEvent::RefinePass { pass, improvement } => vec![
                    ("kind", s("refine_pass")),
                    ("pass", uint(pass)),
                    ("improvement", Value::Num(improvement)),
                ],
            });
            obj(pairs)
        }
        PlacerEvent::StageEnd {
            index,
            stage,
            seconds,
            objective,
            interrupted,
        } => obj(vec![
            ("event", s("stage_end")),
            ("index", uint(*index)),
            ("stage", s(stage)),
            ("seconds", Value::Num(*seconds)),
            ("objective", Value::Num(*objective)),
            ("interrupted", Value::Bool(*interrupted)),
        ]),
        PlacerEvent::ThermalSolved { snapshot } => obj(vec![
            ("event", s("thermal")),
            ("stage", s(snapshot.stage)),
            ("avg_c", Value::Num(snapshot.avg_temperature)),
            ("max_c", Value::Num(snapshot.max_temperature)),
            ("cg_iterations", uint(snapshot.cg_iterations)),
            ("warm_started", Value::Bool(snapshot.warm_started)),
            ("preconditioner", s(snapshot.preconditioner)),
            ("initial_residual", Value::Num(snapshot.initial_residual)),
        ]),
        PlacerEvent::CheckpointWritten { index, stage, path } => obj(vec![
            ("event", s("checkpoint")),
            ("index", uint(*index)),
            ("stage", s(stage)),
            ("path", s(path)),
        ]),
        PlacerEvent::FaultInjected { kind, site } => obj(vec![
            ("event", s("fault_injected")),
            ("kind", s(kind)),
            ("site", s(site)),
        ]),
        PlacerEvent::Degraded { kind, detail } => obj(vec![
            ("event", s("degraded")),
            ("kind", s(kind)),
            ("detail", s(detail)),
        ]),
        PlacerEvent::CheckpointQuarantined { path, reason } => obj(vec![
            ("event", s("checkpoint_quarantined")),
            ("path", s(path)),
            ("reason", s(reason)),
        ]),
        PlacerEvent::RunEnd {
            seconds,
            stopped_early,
        } => obj(vec![
            ("event", s("run_end")),
            ("seconds", Value::Num(*seconds)),
            ("stopped_early", Value::Bool(*stopped_early)),
        ]),
    };
    value.to_json()
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

    /// Pins the exact JSONL bytes of every event variant and every pass
    /// kind: key order, compact form, integers as integers, `null` for
    /// non-finite numbers, string escapes, and `-0.0` written as `0`.
    #[test]
    fn every_event_renders_its_pinned_line() {
        let pass = |pass| PlacerEvent::Pass {
            index: 1,
            stage: "coarse[0]".into(),
            pass,
        };
        let events = [
            PlacerEvent::RunBegin {
                stages: vec!["global".into(), "coarse[0]".into()],
                resumed_from: None,
            },
            PlacerEvent::RunBegin {
                stages: vec![],
                resumed_from: Some(2),
            },
            PlacerEvent::StageSkipped {
                index: 0,
                stage: "global".into(),
            },
            PlacerEvent::StageBegin {
                index: 1,
                stage: "coarse[0]".into(),
            },
            pass(PassEvent::CoarseMoves {
                pass: 0,
                improved: 3,
                objective: 0.25,
            }),
            pass(PassEvent::CoarseShift {
                iterations: 4,
                max_density: f64::NAN,
                objective: 2.0,
            }),
            pass(PassEvent::ShiftPass {
                pass: 7,
                moved: 1234,
                max_boundary_delta: 0.025,
                max_density: 1.875,
                wall_ms: f64::INFINITY,
            }),
            pass(PassEvent::DetailRows {
                layer: 1,
                rows: 12,
                cells: 250,
            }),
            pass(PassEvent::RefinePass {
                pass: 1,
                improvement: -0.0,
            }),
            PlacerEvent::StageEnd {
                index: 1,
                stage: "coarse[0]".into(),
                seconds: 0.31,
                objective: 1.0e-12,
                interrupted: false,
            },
            PlacerEvent::ThermalSolved {
                snapshot: ThermalSnapshot {
                    stage: "final",
                    avg_temperature: 45.5,
                    max_temperature: 1.0e20,
                    cg_iterations: 17,
                    warm_started: true,
                    preconditioner: "multigrid",
                    initial_residual: -3.5,
                },
            },
            PlacerEvent::CheckpointWritten {
                index: 1,
                stage: "coarse[0]".into(),
                path: "ck/stage-001.pl".into(),
            },
            PlacerEvent::FaultInjected {
                kind: "nan-power".into(),
                site: "global".into(),
            },
            PlacerEvent::Degraded {
                kind: "thermal-degraded".into(),
                detail: "CG said \"no\" at C:\\x\nthen\tJacobi".into(),
            },
            PlacerEvent::CheckpointQuarantined {
                path: "ck/manifest.tvp.corrupt".into(),
                reason: "bell\u{7}".into(),
            },
            PlacerEvent::RunEnd {
                seconds: 1.5,
                stopped_early: true,
            },
        ];
        let expected = [
            r#"{"event":"run_begin","stages":["global","coarse[0]"],"resumed_from":null}"#,
            r#"{"event":"run_begin","stages":[],"resumed_from":2}"#,
            r#"{"event":"stage_skipped","index":0,"stage":"global"}"#,
            r#"{"event":"stage_begin","index":1,"stage":"coarse[0]"}"#,
            r#"{"event":"pass","index":1,"stage":"coarse[0]","kind":"coarse_moves","pass":0,"improved":3,"objective":0.25}"#,
            r#"{"event":"pass","index":1,"stage":"coarse[0]","kind":"coarse_shift","iterations":4,"max_density":null,"objective":2}"#,
            r#"{"event":"pass","index":1,"stage":"coarse[0]","kind":"shift_pass","pass":7,"moved":1234,"max_boundary_delta":0.025,"max_density":1.875,"wall_ms":null}"#,
            r#"{"event":"pass","index":1,"stage":"coarse[0]","kind":"detail_rows","layer":1,"rows":12,"cells":250}"#,
            r#"{"event":"pass","index":1,"stage":"coarse[0]","kind":"refine_pass","pass":1,"improvement":0}"#,
            r#"{"event":"stage_end","index":1,"stage":"coarse[0]","seconds":0.31,"objective":0.000000000001,"interrupted":false}"#,
            r#"{"event":"thermal","stage":"final","avg_c":45.5,"max_c":100000000000000000000,"cg_iterations":17,"warm_started":true,"preconditioner":"multigrid","initial_residual":-3.5}"#,
            r#"{"event":"checkpoint","index":1,"stage":"coarse[0]","path":"ck/stage-001.pl"}"#,
            r#"{"event":"fault_injected","kind":"nan-power","site":"global"}"#,
            r#"{"event":"degraded","kind":"thermal-degraded","detail":"CG said \"no\" at C:\\x\nthen\tJacobi"}"#,
            r#"{"event":"checkpoint_quarantined","path":"ck/manifest.tvp.corrupt","reason":"bell\u0007"}"#,
            r#"{"event":"run_end","seconds":1.5,"stopped_early":true}"#,
        ];
        let mut sink = JsonlObserver::new(Vec::new());
        for e in &events {
            sink.event(e);
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(text.ends_with('\n'));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), expected.len());
        for (line, want) in lines.iter().zip(expected) {
            assert_eq!(*line, want);
        }
    }
}
