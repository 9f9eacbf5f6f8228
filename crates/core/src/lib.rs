//! Thermal- and interlayer-via-aware placement of 3D ICs.
//!
//! A from-scratch reproduction of *Goplen & Sapatnekar, "Placement of 3D
//! ICs with Thermal and Interlayer Via Considerations," DAC 2007*. The flow
//! minimizes the paper's objective (Eq. 3)
//!
//! ```text
//! Σ_nets [ WL_i + α_ILV · ILV_i ]  +  α_TEMP · Σ_cells [ R_j · P_j ]
//! ```
//!
//! over three stages:
//!
//! 1. [`global`] — 3D recursive min-cut bisection with cut-direction
//!    selection, terminal propagation, thermal net weighting (§3.1), and
//!    thermal-resistance-reduction nets (§3.2).
//! 2. [`coarse`] — coarse legalization: cell shifting (§4.1) interleaved
//!    with objective-driven moves and swaps (§4.2).
//! 3. [`detail`] — detailed legalization into rows (§5).
//!
//! The one-call entry point is [`Placer`]:
//!
//! ```
//! use tvp_core::{Placer, PlacerConfig};
//! use tvp_bookshelf::synth::{SynthConfig, generate};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = generate(&SynthConfig::named("demo", 200, 1.0e-9))?;
//! let config = PlacerConfig::new(4).with_alpha_ilv(1.0e-5);
//! let result = Placer::new(config).place(&netlist)?;
//! println!("wirelength = {} m, ILVs = {}", result.metrics.wirelength, result.metrics.ilv_count);
//! # Ok(())
//! # }
//! ```

//! Runs are observable, cancellable, and resumable through the stage
//! engine (DESIGN.md §9): attach a [`PlacerObserver`] for structured
//! progress events, a [`CancelToken`] or time budget for graceful early
//! stops, and a checkpoint directory to resume interrupted runs — all via
//! [`Placer::place_with_options`].

pub mod checkpoint;
pub mod chip;
pub mod coarse;
pub mod config;
mod control;
pub mod detail;
pub mod engine;
mod error;
pub mod faults;
pub mod global;
pub mod metrics;
pub mod netweight;
pub mod objective;
pub mod observer;
pub mod placement;
mod placer;
pub mod power;
mod thermal_pricer;
pub mod trr;
pub mod validate;

pub use chip::Chip;
pub use config::{PlacerConfig, ShiftStrategy, TechnologyParams, ThermalTierPolicy};
pub use control::CancelToken;
pub use engine::{StageKind, StageRun};
pub use error::PlaceError;
pub use faults::{Degradation, FaultKind, FaultPlan};
pub use metrics::PlacementMetrics;
pub use observer::{
    event_to_json, JsonlObserver, NopObserver, PassEvent, PlacerEvent, PlacerObserver,
    RecordingObserver,
};
pub use placement::Placement;
pub use placer::{
    PlaceOptions, PlacementResult, Placer, RoundTiming, StageTimings, ThermalSnapshot,
};
pub use tvp_thermal::{LayerSpec, PrecondKind, Preconditioner, ThermalTier};
pub use validate::{
    repair, validate, Diagnostic, DiagnosticCode, RepairAction, Severity, ValidateOptions,
    ValidationReport,
};
