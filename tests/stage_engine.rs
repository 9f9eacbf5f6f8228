//! Integration tests for the stage engine (DESIGN.md §9): observability,
//! cancellation, checkpoints/resume, and the JSONL trace format.

use std::time::Duration;
use tvp_bookshelf::synth::{generate, SynthConfig};
use tvp_core::detail::check_legal;
use tvp_core::{
    CancelToken, JsonlObserver, PassEvent, PlaceError, PlaceOptions, Placer, PlacerConfig,
    PlacerEvent, PlacerObserver, RecordingObserver,
};

fn netlist(cells: usize) -> tvp_netlist::Netlist {
    generate(&SynthConfig::named("se", cells, cells as f64 * 5.0e-12)).unwrap()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tvp_stage_engine_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A short tag for comparing event *sequences* while ignoring payloads
/// that legitimately vary between runs (wall-clock seconds).
fn event_tag(e: &PlacerEvent) -> String {
    match e {
        PlacerEvent::RunBegin { stages, .. } => format!("run_begin({})", stages.join(",")),
        PlacerEvent::StageSkipped { stage, .. } => format!("skip({stage})"),
        PlacerEvent::StageBegin { stage, .. } => format!("begin({stage})"),
        PlacerEvent::Pass { stage, .. } => format!("pass({stage})"),
        PlacerEvent::StageEnd {
            stage, interrupted, ..
        } => {
            format!("end({stage},interrupted={interrupted})")
        }
        PlacerEvent::ThermalSolved { snapshot } => format!("thermal({})", snapshot.stage),
        PlacerEvent::CheckpointWritten { stage, .. } => format!("checkpoint({stage})"),
        PlacerEvent::FaultInjected { kind, site } => format!("fault({kind}@{site})"),
        PlacerEvent::Degraded { kind, .. } => format!("degraded({kind})"),
        PlacerEvent::CheckpointQuarantined { .. } => "quarantined".to_string(),
        PlacerEvent::RunEnd { stopped_early, .. } => format!("run_end({stopped_early})"),
    }
}

/// Cancels a token the moment a specific stage reports `StageEnd`.
struct CancelAtStageEnd {
    stage: &'static str,
    token: CancelToken,
    events: Vec<PlacerEvent>,
}

impl PlacerObserver for CancelAtStageEnd {
    fn event(&mut self, event: &PlacerEvent) {
        if let PlacerEvent::StageEnd { stage, .. } = event {
            if stage == self.stage {
                self.token.cancel();
            }
        }
        self.events.push(event.clone());
    }
}

#[test]
fn observer_does_not_change_the_placement() {
    let netlist = netlist(250);
    let config = PlacerConfig::new(2);

    let baseline = Placer::new(config.clone()).place(&netlist).unwrap();

    for threads in [1usize, 4] {
        let mut rec = RecordingObserver::new();
        let observed = Placer::new(config.clone().with_threads(threads))
            .place_with_options(
                &netlist,
                &[],
                PlaceOptions {
                    observer: Some(&mut rec),
                    ..PlaceOptions::default()
                },
            )
            .unwrap();
        assert_eq!(
            observed.placement, baseline.placement,
            "observer must be a pure listener (threads = {threads})"
        );
        assert_eq!(observed.metrics.wirelength, baseline.metrics.wirelength);
        assert!(!rec.events.is_empty());
        assert!(matches!(
            rec.events.first(),
            Some(PlacerEvent::RunBegin { .. })
        ));
        assert!(matches!(
            rec.events.last(),
            Some(PlacerEvent::RunEnd { .. })
        ));
        assert_eq!(
            rec.completed_stages(),
            vec!["global", "coarse[0]", "detail[0]"]
        );
    }
}

#[test]
fn event_sequence_is_thread_count_independent() {
    let netlist = netlist(200);
    let config = PlacerConfig::new(2);
    let run = |threads: usize| -> Vec<String> {
        let mut rec = RecordingObserver::new();
        Placer::new(config.clone().with_threads(threads))
            .place_with_options(
                &netlist,
                &[],
                PlaceOptions {
                    observer: Some(&mut rec),
                    ..PlaceOptions::default()
                },
            )
            .unwrap();
        rec.events.iter().map(event_tag).collect()
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn cancellation_mid_pipeline_returns_a_legal_placement() {
    let netlist = netlist(250);
    let config = PlacerConfig::new(2);

    // Cancel as soon as global placement ends: coarse[0] notices at its
    // first pass boundary, the engine runs the finalize legalization, and
    // the result must still be fully legal.
    let token = CancelToken::new();
    let mut obs = CancelAtStageEnd {
        stage: "global",
        token: token.clone(),
        events: Vec::new(),
    };
    let result = Placer::new(config.clone())
        .place_with_options(
            &netlist,
            &[],
            PlaceOptions {
                observer: Some(&mut obs),
                cancel: Some(token),
                ..PlaceOptions::default()
            },
        )
        .unwrap();
    assert!(result.stopped_early);
    assert_eq!(
        check_legal(&netlist, &result.chip, &result.placement),
        None,
        "a cancelled run must still return a legal placement"
    );
    let tags: Vec<String> = obs.events.iter().map(event_tag).collect();
    assert!(
        tags.contains(&"end(finalize,interrupted=false)".to_string()),
        "finalize stage must restore legality: {tags:?}"
    );
    assert!(tags.contains(&"run_end(true)".to_string()));

    // A cancelled run is a strict prefix + finalize, so it must be
    // cheaper in pipeline work than the full run (here: no detail[0]).
    assert!(!tags.contains(&"begin(detail[0])".to_string()));
}

/// Cancels a token at the first pass-boundary event of a specific stage.
struct CancelAtFirstPass {
    stage: &'static str,
    token: CancelToken,
    events: Vec<PlacerEvent>,
}

impl PlacerObserver for CancelAtFirstPass {
    fn event(&mut self, event: &PlacerEvent) {
        if let PlacerEvent::Pass { stage, .. } = event {
            if stage == self.stage {
                self.token.cancel();
            }
        }
        self.events.push(event.clone());
    }
}

#[test]
fn cancellation_inside_detail_finishes_legalization_and_stops_refinement() {
    let netlist = netlist(250);
    for layers in [2usize, 4] {
        // The first `detail[0]` event is legalization's first
        // `DetailRows`: legalization ignores the stop and packs every
        // layer, then refinement stops at its first pass boundary.
        let token = CancelToken::new();
        let mut obs = CancelAtFirstPass {
            stage: "detail[0]",
            token: token.clone(),
            events: Vec::new(),
        };
        let result = Placer::new(PlacerConfig::new(layers))
            .place_with_options(
                &netlist,
                &[],
                PlaceOptions {
                    observer: Some(&mut obs),
                    cancel: Some(token),
                    ..PlaceOptions::default()
                },
            )
            .unwrap();
        assert!(result.stopped_early);
        assert_eq!(check_legal(&netlist, &result.chip, &result.placement), None);

        let detail_passes: Vec<PassEvent> = obs
            .events
            .iter()
            .filter_map(|e| match e {
                PlacerEvent::Pass { stage, pass, .. } if stage == "detail[0]" => Some(*pass),
                _ => None,
            })
            .collect();
        let rows = detail_passes
            .iter()
            .filter(|p| matches!(p, PassEvent::DetailRows { .. }))
            .count();
        let refines = detail_passes
            .iter()
            .filter(|p| matches!(p, PassEvent::RefinePass { .. }))
            .count();
        assert_eq!(rows, layers, "one DetailRows per layer ({layers} layers)");
        assert_eq!(refines, 1, "refinement stops after its first pass");

        let tags: Vec<String> = obs.events.iter().map(event_tag).collect();
        assert!(
            tags.contains(&"end(detail[0],interrupted=true)".to_string()),
            "{tags:?}"
        );
        assert!(
            !tags.iter().any(|t| t.contains("finalize")),
            "a legal placement needs no finalize stage: {tags:?}"
        );
        assert!(tags.contains(&"run_end(true)".to_string()));
    }
}

#[test]
fn zero_time_budget_stops_before_any_stage() {
    let netlist = netlist(150);
    let result = Placer::new(PlacerConfig::new(2))
        .place_with_options(
            &netlist,
            &[],
            PlaceOptions {
                time_budget: Some(Duration::ZERO),
                ..PlaceOptions::default()
            },
        )
        .unwrap();
    assert!(result.stopped_early);
    assert_eq!(check_legal(&netlist, &result.chip, &result.placement), None);
}

#[test]
fn interrupt_then_resume_matches_uninterrupted_run_bitwise() {
    let netlist = netlist(250);
    let config = PlacerConfig::new(2);
    let dir = tmpdir("resume");

    let reference = Placer::new(config.clone()).place(&netlist).unwrap();

    // Run 1: checkpoints on, cancelled right after coarse[0] completes
    // (its checkpoint is still written — checkpoints cover completed
    // stages).
    let token = CancelToken::new();
    let mut obs = CancelAtStageEnd {
        stage: "coarse[0]",
        token: token.clone(),
        events: Vec::new(),
    };
    let interrupted = Placer::new(config.clone())
        .place_with_options(
            &netlist,
            &[],
            PlaceOptions {
                observer: Some(&mut obs),
                cancel: Some(token),
                checkpoint_dir: Some(dir.clone()),
                ..PlaceOptions::default()
            },
        )
        .unwrap();
    assert!(interrupted.stopped_early);
    assert_eq!(
        check_legal(&netlist, &interrupted.chip, &interrupted.placement),
        None
    );
    let tags: Vec<String> = obs.events.iter().map(event_tag).collect();
    assert!(
        tags.contains(&"checkpoint(coarse[0])".to_string()),
        "coarse[0] completed, so its checkpoint must exist: {tags:?}"
    );

    // Run 2: same directory, no cancellation — resumes after coarse[0]
    // and must finish bitwise identical to the uninterrupted reference.
    let mut rec = RecordingObserver::new();
    let resumed = Placer::new(config.clone())
        .place_with_options(
            &netlist,
            &[],
            PlaceOptions {
                observer: Some(&mut rec),
                checkpoint_dir: Some(dir.clone()),
                ..PlaceOptions::default()
            },
        )
        .unwrap();
    assert_eq!(resumed.resumed_from.as_deref(), Some("coarse[0]"));
    assert!(!resumed.stopped_early);
    assert_eq!(
        resumed.placement, reference.placement,
        "resume must be bitwise identical to the uninterrupted run"
    );
    assert_eq!(resumed.metrics.wirelength, reference.metrics.wirelength);
    assert_eq!(resumed.metrics.ilv_count, reference.metrics.ilv_count);
    let tags: Vec<String> = rec.events.iter().map(event_tag).collect();
    assert!(tags.contains(&"skip(global)".to_string()));
    assert!(tags.contains(&"skip(coarse[0])".to_string()));
    assert!(tags.contains(&"begin(detail[0])".to_string()));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_a_different_configuration() {
    let netlist = netlist(120);
    let dir = tmpdir("mismatch");

    let config = PlacerConfig::new(2);
    Placer::new(config.clone())
        .place_with_options(
            &netlist,
            &[],
            PlaceOptions {
                checkpoint_dir: Some(dir.clone()),
                ..PlaceOptions::default()
            },
        )
        .unwrap();

    // Same directory, different seed: the checkpoint belongs to another
    // trajectory and must be refused, not silently mixed in.
    let err = Placer::new(config.with_seed(12345))
        .place_with_options(
            &netlist,
            &[],
            PlaceOptions {
                checkpoint_dir: Some(dir.clone()),
                ..PlaceOptions::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, PlaceError::Checkpoint { .. }), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jsonl_trace_replays_the_full_event_sequence() {
    let netlist = netlist(200);
    let mut config = PlacerConfig::new(2);
    config.post_opt_rounds = 1;

    let mut sink = JsonlObserver::new(Vec::new());
    Placer::new(config)
        .place_with_options(
            &netlist,
            &[],
            PlaceOptions {
                observer: Some(&mut sink),
                ..PlaceOptions::default()
            },
        )
        .unwrap();
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    let lines: Vec<&str> = text.lines().collect();

    assert!(lines.first().unwrap().contains("\"event\":\"run_begin\""));
    assert!(lines.last().unwrap().contains("\"event\":\"run_end\""));
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each line must be one JSON object: {line}"
        );
    }
    // Every planned stage begins and ends exactly once, in order, with at
    // least one pass event inside each coarse/detail stage.
    let expect_stage = |stage: &str, expect_passes: bool| {
        let begin = lines
            .iter()
            .position(|l| {
                l.contains("\"event\":\"stage_begin\",\"index\"")
                    && l.contains(&format!("\"stage\":\"{stage}\""))
            })
            .unwrap_or_else(|| panic!("missing stage_begin for {stage}"));
        let end = lines
            .iter()
            .position(|l| {
                l.contains("\"event\":\"stage_end\"")
                    && l.contains(&format!("\"stage\":\"{stage}\""))
            })
            .unwrap_or_else(|| panic!("missing stage_end for {stage}"));
        assert!(begin < end, "{stage} must begin before it ends");
        if expect_passes {
            let passes = lines[begin..end]
                .iter()
                .filter(|l| l.contains("\"event\":\"pass\""))
                .count();
            assert!(passes > 0, "{stage} should report pass progress");
        }
    };
    expect_stage("global", false);
    for stage in ["coarse[0]", "detail[0]", "coarse[1]", "detail[1]"] {
        expect_stage(stage, true);
    }
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"event\":\"thermal\""))
            .count(),
        3,
        "global, coarse, final"
    );
}
