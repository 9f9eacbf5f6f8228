//! Thermal models for 3D-IC placement.
//!
//! Two levels of fidelity, mirroring how the DAC'07 flow uses temperature:
//!
//! 1. **Placement-time resistance model** ([`ResistanceModel`]): the paper's
//!    straight-path approximation — heat flows from a cell to each chip
//!    surface along a straight column whose cross-section equals the cell
//!    area, through the effective conductivity of the stack, ending in a
//!    convective film at the surface. The six directional paths combine in
//!    parallel. This gives `R_j^cell` of Eq. 2 in O(1) per query, plus the
//!    linearized vertical profile `R0_z + Rz_slope · z` of §3.2. It is
//!    the only temperature term that prices moves.
//! 2. **Evaluation-time simulator** ([`ThermalSimulator`]): a steady-state 3D
//!    finite-volume discretization of `∇·(k∇T) = −q` over the layer stack
//!    with a convective boundary at the heat sink, solved with
//!    multigrid-preconditioned conjugate gradients. The paper evaluates
//!    final placements with FEA under the same boundary conditions; both
//!    are consistent discretizations of the same PDE (DESIGN.md §5,
//!    substitution 3). The placer reaches it through [`GridOracle`],
//!    which keeps one warm-started solve context across a run's stage
//!    boundaries and falls back to damped Jacobi when CG breaks down.
//!
//! # Example
//!
//! ```
//! use tvp_thermal::{LayerStack, ThermalSimulator, PowerMap};
//!
//! let stack = LayerStack::mitll_0_18um(4);
//! let sim = ThermalSimulator::new(stack, 1.0e-3, 1.0e-3, 8, 8)?;
//! let mut power = PowerMap::new(8, 8, 4);
//! power.deposit(0.5e-3, 0.5e-3, 3, 0.1, 1.0e-3, 1.0e-3); // 0.1 W on top layer
//! let field = sim.solve(&power)?;
//! assert!(field.max_temperature() > field.ambient());
//! # Ok::<(), tvp_thermal::ThermalError>(())
//! ```

mod error;
mod grid;
mod multigrid;
mod oracle;
mod power_map;
mod resistance;
mod stack;

pub use error::ThermalError;
pub use grid::{
    CgStats, FallbackStats, PrecondKind, Preconditioner, TemperatureField, ThermalSimulator,
    ThermalSolveContext,
};
pub use oracle::{GridOracle, OracleStats};
pub use power_map::PowerMap;
pub use resistance::{ResistanceModel, VerticalProfile};
pub use stack::{HeatSink, LayerSpec, LayerStack};

/// Convenience alias used by solver entry points.
pub type Result<T> = std::result::Result<T, ThermalError>;
