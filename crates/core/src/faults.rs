//! Deterministic fault injection and the degradation record.
//!
//! A [`FaultPlan`] attached to a run via
//! [`PlaceOptions::faults`](crate::PlaceOptions) makes the pipeline
//! *pretend* specific failures happened at specific stage boundaries —
//! the same (stage, pass) key space the observer events use — so the
//! recovery paths hardened into the engine can be exercised end to end
//! without building pathological inputs:
//!
//! * [`FaultKind::NanPower`] — poisons one power-map deposit with NaN
//!   before the thermal solve at the keyed stage boundary.
//! * [`FaultKind::CgBreakdown`] — makes the CG solve at the keyed stage
//!   boundary report non-convergence, forcing the damped-Jacobi fallback.
//! * [`FaultKind::PartitionImbalance`] — makes the root bisection of
//!   global placement report an imbalance failure, forcing the
//!   relaxed-tolerance retry path.
//! * [`FaultKind::CorruptCheckpoint`] — truncates the checkpoint file
//!   written after the keyed stage, so a later resume exercises the
//!   quarantine path.
//! * [`FaultKind::CheckpointWriteIo`] — makes the checkpoint write after
//!   the keyed stage fail with a typed
//!   [`PlaceError::Checkpoint`](crate::PlaceError), the retryable error
//!   class a supervising daemon must handle (retry with backoff, then
//!   dead-letter).
//! * [`FaultKind::SlowStage`] — injects a fixed wall-clock stall at the
//!   keyed stage's begin, without touching any placement arithmetic, so
//!   deadline/time-budget and queue-latency paths are exercisable.
//!
//! Injection is deterministic: a site either is armed explicitly with
//! [`FaultPlan::inject`], or arms itself when a seeded hash of
//! `(seed, kind, site)` falls below the configured probability
//! ([`FaultPlan::with_probability`]). Either way the decision depends
//! only on the plan, never on timing or thread count, and each armed
//! site fires at most once.
//!
//! Every recovery the run performs — injected or genuine — is recorded
//! as a [`Degradation`] in
//! [`PlacementResult::degradations`](crate::PlacementResult) and
//! reported through the observer as
//! [`PlacerEvent::Degraded`](crate::PlacerEvent).

use std::fmt;
use tvp_netlist::fnv1a;

/// One injectable fault class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// Poison a power-map deposit with NaN before a thermal solve.
    NanPower,
    /// Make a CG thermal solve report non-convergence.
    CgBreakdown,
    /// Make the root bisection of global placement report an imbalance
    /// failure.
    PartitionImbalance,
    /// Truncate the checkpoint `.pl` written after the keyed stage.
    CorruptCheckpoint,
    /// Fail the checkpoint write after the keyed stage with a typed
    /// I/O error ([`PlaceError::Checkpoint`](crate::PlaceError)).
    CheckpointWriteIo,
    /// Stall the keyed stage's begin by a fixed wall-clock delay
    /// (placement bits are unaffected).
    SlowStage,
}

impl FaultKind {
    /// Stable machine-readable name (used in events and logs).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::NanPower => "nan-power",
            FaultKind::CgBreakdown => "cg-breakdown",
            FaultKind::PartitionImbalance => "partition-imbalance",
            FaultKind::CorruptCheckpoint => "corrupt-checkpoint",
            FaultKind::CheckpointWriteIo => "io-error:checkpoint-write",
            FaultKind::SlowStage => "slow-stage",
        }
    }

    /// All injectable kinds, in declaration order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::NanPower,
        FaultKind::CgBreakdown,
        FaultKind::PartitionImbalance,
        FaultKind::CorruptCheckpoint,
        FaultKind::CheckpointWriteIo,
        FaultKind::SlowStage,
    ];

    /// Parses a stable name back into a kind.
    pub fn parse(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.as_str() == name)
    }

    /// The stage site a fault lands on when a spec names none.
    pub fn default_site(self) -> &'static str {
        match self {
            FaultKind::NanPower | FaultKind::CgBreakdown => "final",
            FaultKind::PartitionImbalance
            | FaultKind::CorruptCheckpoint
            | FaultKind::CheckpointWriteIo => "global",
            FaultKind::SlowStage => "coarse[0]",
        }
    }
}

/// Parses one `KIND[:SITE]` fault spec (the `--inject-fault` syntax,
/// shared by the CLI and the `tvp serve` job API). Kind names may
/// themselves contain `:` (`io-error:checkpoint-write`), so the known
/// names are matched longest-first before the remainder is read as a
/// site; an omitted site defaults to [`FaultKind::default_site`].
///
/// # Errors
///
/// Returns a human-readable message naming the valid kinds when `spec`
/// matches none of them.
pub fn parse_spec(spec: &str) -> Result<(FaultKind, String), String> {
    let matched = FaultKind::ALL
        .into_iter()
        .filter(|k| {
            spec == k.as_str()
                || spec
                    .strip_prefix(k.as_str())
                    .is_some_and(|rest| rest.starts_with(':'))
        })
        .max_by_key(|k| k.as_str().len());
    let Some(kind) = matched else {
        return Err(format!(
            "unknown fault kind in `{spec}` (expected one of: {})",
            FaultKind::ALL.map(FaultKind::as_str).join(", ")
        ));
    };
    let site = spec[kind.as_str().len()..]
        .strip_prefix(':')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .unwrap_or_else(|| kind.default_site().to_string());
    Ok((kind, site))
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A deterministic, seeded plan of faults to inject into one run.
///
/// Sites are keyed by `(kind, site)` where `site` is a stage label
/// (`"global"`, `"coarse"`, `"detail[0]"`, `"final"`, ...) matching the
/// labels the observer events carry. The plan is consumed by the run it
/// is attached to.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Probability in `[0, 1]` that a queried site self-arms.
    probability: f64,
    /// Explicitly armed `(kind, site)` pairs.
    armed: Vec<(FaultKind, String)>,
    /// Sites that already fired (each fires at most once).
    fired: Vec<(FaultKind, String)>,
}

impl FaultPlan {
    /// An empty plan: nothing fires unless armed with
    /// [`inject`](Self::inject).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// A plan where every queried site independently self-arms with the
    /// given probability, decided by a hash of `(seed, kind, site)` —
    /// deterministic for a given seed, independent of query order,
    /// timing, and thread count.
    pub fn with_probability(seed: u64, probability: f64) -> Self {
        Self {
            seed,
            probability: probability.clamp(0.0, 1.0),
            ..Self::default()
        }
    }

    /// Arms one `(kind, site)` pair explicitly.
    #[must_use]
    pub fn inject(mut self, kind: FaultKind, site: impl Into<String>) -> Self {
        self.armed.push((kind, site.into()));
        self
    }

    /// Whether `(kind, site)` should fire now. An armed site fires
    /// exactly once; unarmed sites never fire.
    pub fn should_fire(&mut self, kind: FaultKind, site: &str) -> bool {
        if self.fired.iter().any(|(k, s)| *k == kind && s == site) {
            return false;
        }
        let armed = self.armed.iter().any(|(k, s)| *k == kind && s == site)
            || (self.probability > 0.0
                && site_hash(self.seed, kind, site) < arm_threshold(self.probability));
        if armed {
            self.fired.push((kind, site.to_string()));
        }
        armed
    }

    /// Every `(kind, site)` that fired so far, in firing order.
    pub fn fired(&self) -> &[(FaultKind, String)] {
        &self.fired
    }
}

/// FNV-1a over the seed, kind, and site label.
fn site_hash(seed: u64, kind: FaultKind, site: &str) -> u64 {
    fnv1a(
        seed.to_le_bytes()
            .into_iter()
            .chain(kind.as_str().bytes())
            .chain(site.bytes()),
    )
}

fn arm_threshold(probability: f64) -> u64 {
    if probability >= 1.0 {
        u64::MAX
    } else {
        (probability * u64::MAX as f64) as u64
    }
}

/// One graceful degradation the pipeline performed instead of failing.
#[derive(Clone, PartialEq, Debug)]
pub enum Degradation {
    /// A thermal solve at `stage` could not run the normal path: NaN
    /// power deposits were zeroed and/or CG gave way to the damped-Jacobi
    /// fallback. Temperatures for that snapshot are approximate.
    ThermalDegraded {
        /// Stage label of the affected solve.
        stage: String,
        /// What happened (sanitized deposits, fallback residual, ...).
        detail: String,
    },
    /// Bisections exceeded the balance tolerance and were retried with a
    /// relaxed tolerance. Placement quality may be reduced.
    PartitionRetried {
        /// Total relaxed-tolerance retries across global placement.
        retries: usize,
    },
    /// A corrupted checkpoint was renamed to `*.corrupt` and the run
    /// restarted from scratch instead of resuming.
    CheckpointQuarantined {
        /// Path of the quarantined manifest.
        path: String,
        /// Why the checkpoint was rejected.
        reason: String,
    },
}

impl Degradation {
    /// Stable machine-readable name (used in events and logs).
    pub fn kind(&self) -> &'static str {
        match self {
            Degradation::ThermalDegraded { .. } => "thermal-degraded",
            Degradation::PartitionRetried { .. } => "partition-retried",
            Degradation::CheckpointQuarantined { .. } => "checkpoint-quarantined",
        }
    }

    /// Human-readable detail string.
    pub fn detail(&self) -> String {
        match self {
            Degradation::ThermalDegraded { stage, detail } => format!("{stage}: {detail}"),
            Degradation::PartitionRetried { retries } => {
                format!("{retries} relaxed-tolerance retries")
            }
            Degradation::CheckpointQuarantined { path, reason } => format!("{path}: {reason}"),
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_sites_fire_exactly_once() {
        let mut plan = FaultPlan::new(1).inject(FaultKind::NanPower, "global");
        assert!(!plan.should_fire(FaultKind::NanPower, "coarse"));
        assert!(!plan.should_fire(FaultKind::CgBreakdown, "global"));
        assert!(plan.should_fire(FaultKind::NanPower, "global"));
        assert!(!plan.should_fire(FaultKind::NanPower, "global"), "one-shot");
        assert_eq!(plan.fired().len(), 1);
    }

    #[test]
    fn probability_extremes() {
        let mut never = FaultPlan::with_probability(7, 0.0);
        let mut always = FaultPlan::with_probability(7, 1.0);
        for site in ["global", "coarse", "final"] {
            assert!(!never.should_fire(FaultKind::NanPower, site));
            assert!(always.should_fire(FaultKind::NanPower, site));
        }
    }

    #[test]
    fn probabilistic_arming_is_seed_deterministic() {
        let decide = |seed: u64| -> Vec<bool> {
            let mut plan = FaultPlan::with_probability(seed, 0.5);
            ["global", "coarse", "detail[0]", "final"]
                .iter()
                .map(|s| plan.should_fire(FaultKind::CgBreakdown, s))
                .collect()
        };
        assert_eq!(decide(3), decide(3));
        // Across many seeds, both outcomes occur.
        let any_fired = (0..32).any(|s| decide(s).iter().any(|&b| b));
        let any_skipped = (0..32).any(|s| decide(s).iter().any(|&b| !b));
        assert!(any_fired && any_skipped);
    }

    #[test]
    fn kind_names_round_trip_through_parse() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(
            FaultKind::parse("io-error:checkpoint-write"),
            Some(FaultKind::CheckpointWriteIo)
        );
        assert_eq!(FaultKind::parse("slow-stage"), Some(FaultKind::SlowStage));
        assert_eq!(FaultKind::parse("io-error"), None);
        assert_eq!(FaultKind::parse("no-such-fault"), None);
    }

    #[test]
    fn degradations_render_kind_and_detail() {
        let d = Degradation::ThermalDegraded {
            stage: "global".into(),
            detail: "3 NaN deposits zeroed".into(),
        };
        assert_eq!(d.kind(), "thermal-degraded");
        assert!(d.to_string().contains("global"));
        let d = Degradation::PartitionRetried { retries: 2 };
        assert!(d.to_string().contains("2 relaxed"));
        let d = Degradation::CheckpointQuarantined {
            path: "/tmp/ck/manifest.tvp.corrupt".into(),
            reason: "placement hash mismatch".into(),
        };
        assert!(d.to_string().contains("hash mismatch"));
    }
}
