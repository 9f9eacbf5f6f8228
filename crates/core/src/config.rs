//! Placer configuration: the paper's coefficients plus Table 2 technology
//! parameters.

use crate::PlaceError;
use tvp_thermal::{LayerSpec, LayerStack, Preconditioner};

/// Electrical technology parameters (Table 2, derived from the MIT-LL
/// 0.18 µm 3D FD-SOI process and capacitance data of \[19\]).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TechnologyParams {
    /// Clock frequency `f` in Eq. 4, Hz.
    pub clock_frequency: f64,
    /// Supply voltage `V_DD`, volts.
    pub vdd: f64,
    /// Lateral interconnect capacitance `C_per wl`, F/m (Table 2:
    /// 73.8 pF/m).
    pub cap_per_wirelength: f64,
    /// Interlayer via capacitance per unit via length, F/m (Table 2:
    /// 1480 pF/m). A via spanning one layer pitch contributes
    /// `cap_per_ilv_length × layer_pitch` farads.
    pub cap_per_ilv_length: f64,
    /// Input pin capacitance `C_per pin`, F (Table 2: 0.350 fF).
    pub input_pin_cap: f64,
    /// Static (leakage) power per cell, W. The paper notes leakage "could
    /// be added to `P_j^cell`" (§3.2); zero by default to match Table 2.
    pub leakage_per_cell: f64,
}

impl Default for TechnologyParams {
    fn default() -> Self {
        Self {
            clock_frequency: 1.0e9,
            vdd: 1.8,
            cap_per_wirelength: 73.8e-12,
            cap_per_ilv_length: 1480.0e-12,
            input_pin_cap: 0.350e-15,
            leakage_per_cell: 0.0,
        }
    }
}

impl TechnologyParams {
    /// The `½ f V_DD²` prefactor shared by every dynamic-power term.
    pub fn power_prefactor(&self) -> f64 {
        0.5 * self.clock_frequency * self.vdd * self.vdd
    }
}

/// Full placer configuration.
///
/// Defaults reproduce the paper's Table 2 experimental setup: 4 layers, 5%
/// whitespace, 25% inter-row spacing, `α_ILV = 10⁻⁵` (the average cell
/// dimension), `α_TEMP = 0` (thermal objective off).
#[derive(Clone, PartialEq, Debug)]
pub struct PlacerConfig {
    /// Number of active device layers.
    pub num_layers: usize,
    /// Interlayer via coefficient `α_ILV`, meters (the wirelength a via is
    /// worth). Paper sweeps 5×10⁻⁹ … 5.2×10⁻³.
    pub alpha_ilv: f64,
    /// Thermal coefficient `α_TEMP`, meters per kelvin. Paper sweeps
    /// 10⁻⁸ … 5.2×10⁻³; 0 disables thermal placement.
    pub alpha_temp: f64,
    /// Whitespace fraction of the placement area (Table 2: 5%).
    pub whitespace: f64,
    /// Inter-row space as a fraction of row height (Table 2: 25%).
    pub row_space: f64,
    /// Vertical stack geometry and thermal materials.
    pub stack: LayerStack,
    /// Electrical technology parameters.
    pub tech: TechnologyParams,
    /// Random restarts per bisection (quality/runtime knob of §7).
    pub partition_starts: usize,
    /// Recursion stops when a single-layer region holds at most this many
    /// cells.
    pub leaf_cells: usize,
    /// Cell shifting stops once the maximum bin density is below this.
    pub coarse_max_density: f64,
    /// Hard cap on cell-shifting passes per spreading phase. Spreads
    /// normally stop earlier — when the density target is met, a pass
    /// moves nothing, or the peak density stalls (no relative
    /// improvement for a few consecutive passes); the cap only catches
    /// pathological non-convergence.
    pub coarse_shift_iterations: usize,
    /// Passes of global+local moves/swaps during coarse legalization.
    pub coarse_move_passes: usize,
    /// Target-region size for global moves, in bins per dimension.
    pub coarse_target_region_bins: usize,
    /// Rows above/below the target row tried during detailed legalization.
    pub detail_row_window: usize,
    /// Extra coarse+detailed optimization rounds after the first legal
    /// placement (§7 reports quality/runtime for up to 10).
    pub post_opt_rounds: usize,
    /// Legality-preserving refinement rounds (slides and in-row swaps)
    /// after every detailed legalization.
    pub legal_refine_passes: usize,
    /// Lateral resolution of the evaluation thermal grid.
    pub thermal_grid: (usize, usize),
    /// Base RNG seed for all randomized stages.
    pub seed: u64,
    /// Ablation: propagate external net pins into region partitions
    /// (§3, Dunlop–Kernighan terminal propagation). On by default.
    pub terminal_propagation: bool,
    /// Ablation: add thermal-resistance-reduction nets (§3.2). On by
    /// default (they only act when `alpha_temp > 0`).
    pub trr_nets: bool,
    /// Ablation: thermal net weighting (§3.1). On by default (only acts
    /// when `alpha_temp > 0`).
    pub thermal_net_weights: bool,
    /// Ablation: use PEKO-3D lower bounds as floors for TRR cell powers
    /// (§3.2, Eq. 13–15). On by default.
    pub peko_floors: bool,
    /// Ablation: weight the region depth by `α_ILV` when choosing the cut
    /// direction (§3). Off = compare raw physical extents.
    pub weighted_depth_cut: bool,
    /// Ablation: cell-shifting strategy (§4.1). The paper's whole-row
    /// solve by default; [`ShiftStrategy::AdjacentPair`] reproduces the
    /// FastPlace-style rule the paper improves upon.
    pub shift_strategy: ShiftStrategy,
    /// Worker threads for the parallel hot paths (thermal solve,
    /// objective rebuild, recursive bisection). `0` means "all hardware
    /// threads". `1` runs the same chunks inline on the calling thread;
    /// any value produces the same placement (DESIGN.md §8).
    pub threads: usize,
    /// CG preconditioner for the evaluation thermal solver. Geometric
    /// multigrid by default (near-grid-independent iteration counts);
    /// Jacobi remains available as the comparison baseline and is the
    /// automatic fallback when the hierarchy cannot be built
    /// (DESIGN.md §12).
    pub thermal_precond: Preconditioner,
    /// Per-layer material/thickness overrides for the evaluation thermal
    /// model (heterogeneous stacks). `None` (the default) uses the
    /// uniform [`LayerStack`] discretization; `Some` must hold exactly
    /// `num_layers` entries.
    pub stack_layers: Option<Vec<LayerSpec>>,
}

/// Cell-shifting bin-boundary rule (§4.1 ablation).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ShiftStrategy {
    /// Solve each whole row of bins at once (the paper's method; conserves
    /// row width, so boundaries can never cross over).
    #[default]
    WholeRow,
    /// FastPlace-style: each boundary moves based only on its two adjacent
    /// bins' densities. Boundaries can cross over and sparse regions keep
    /// spreading even when that helps no congested bin.
    AdjacentPair,
}

impl PlacerConfig {
    /// Creates the Table 2 default configuration with the given layer
    /// count.
    pub fn new(num_layers: usize) -> Self {
        Self {
            num_layers,
            alpha_ilv: 1.0e-5,
            alpha_temp: 0.0,
            whitespace: 0.05,
            row_space: 0.25,
            stack: LayerStack::mitll_0_18um(num_layers.max(1)),
            tech: TechnologyParams::default(),
            partition_starts: 1,
            leaf_cells: 4,
            coarse_max_density: 1.10,
            coarse_shift_iterations: 50,
            coarse_move_passes: 2,
            coarse_target_region_bins: 5,
            detail_row_window: 4,
            post_opt_rounds: 0,
            legal_refine_passes: 2,
            thermal_grid: (16, 16),
            seed: 0xDAC_2007,
            terminal_propagation: true,
            trr_nets: true,
            thermal_net_weights: true,
            peko_floors: true,
            weighted_depth_cut: true,
            shift_strategy: ShiftStrategy::WholeRow,
            threads: 0,
            thermal_precond: Preconditioner::default(),
            stack_layers: None,
        }
    }

    /// Sets the interlayer via coefficient.
    pub fn with_alpha_ilv(mut self, alpha_ilv: f64) -> Self {
        self.alpha_ilv = alpha_ilv;
        self
    }

    /// Sets the thermal coefficient.
    pub fn with_alpha_temp(mut self, alpha_temp: f64) -> Self {
        self.alpha_temp = alpha_temp;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of bisection restarts (quality/effort knob).
    pub fn with_partition_starts(mut self, starts: usize) -> Self {
        self.partition_starts = starts.max(1);
        self
    }

    /// Sets the worker-thread count (`0` = all hardware threads).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the hard cap on cell-shifting passes per spreading phase
    /// (spreads normally stop earlier, on convergence).
    pub fn with_coarse_shift_iterations(mut self, cap: usize) -> Self {
        self.coarse_shift_iterations = cap.max(1);
        self
    }

    /// Sets the evaluation thermal solver's CG preconditioner.
    pub fn with_thermal_precond(mut self, precond: Preconditioner) -> Self {
        self.thermal_precond = precond;
        self
    }

    /// Overrides the per-layer materials/thicknesses of the evaluation
    /// thermal model (heterogeneous stacks).
    pub fn with_stack_layers(mut self, layers: Vec<LayerSpec>) -> Self {
        self.stack_layers = Some(layers);
        self
    }

    /// Total coarse+detail optimization rounds the pipeline will run: the
    /// mandatory first legalization plus `post_opt_rounds`.
    pub fn rounds(&self) -> usize {
        1 + self.post_opt_rounds
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::InvalidConfig`] naming the offending
    /// parameter, or a wrapped thermal error if the stack is inconsistent.
    pub fn validate(&self) -> Result<(), PlaceError> {
        let checks: [(&'static str, f64, bool); 7] = [
            ("num_layers", self.num_layers as f64, self.num_layers >= 1),
            (
                "alpha_ilv",
                self.alpha_ilv,
                self.alpha_ilv.is_finite() && self.alpha_ilv > 0.0,
            ),
            (
                "alpha_temp",
                self.alpha_temp,
                self.alpha_temp.is_finite() && self.alpha_temp >= 0.0,
            ),
            (
                "whitespace",
                self.whitespace,
                (0.0..1.0).contains(&self.whitespace),
            ),
            ("row_space", self.row_space, self.row_space >= 0.0),
            (
                "coarse_max_density",
                self.coarse_max_density,
                self.coarse_max_density >= 1.0,
            ),
            ("leaf_cells", self.leaf_cells as f64, self.leaf_cells >= 1),
        ];
        for (name, value, ok) in checks {
            if !ok {
                return Err(PlaceError::InvalidConfig { name, value });
            }
        }
        if self.stack.num_layers != self.num_layers {
            return Err(PlaceError::InvalidConfig {
                name: "stack.num_layers",
                value: self.stack.num_layers as f64,
            });
        }
        self.stack.validate()?;
        if let Some(layers) = &self.stack_layers {
            if layers.len() != self.num_layers {
                return Err(PlaceError::InvalidConfig {
                    name: "stack_layers",
                    value: layers.len() as f64,
                });
            }
            for spec in layers {
                spec.validate()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = PlacerConfig::new(4);
        assert_eq!(c.num_layers, 4);
        assert_eq!(c.alpha_ilv, 1.0e-5);
        assert_eq!(c.alpha_temp, 0.0);
        assert_eq!(c.whitespace, 0.05);
        assert_eq!(c.row_space, 0.25);
        assert!((c.tech.cap_per_wirelength - 73.8e-12).abs() < 1e-18);
        assert!((c.tech.input_pin_cap - 0.35e-15).abs() < 1e-24);
        c.validate().unwrap();
    }

    #[test]
    fn thermal_tiers_default_to_full_grid_everywhere() {
        // Every temperature the placer reports comes from one model: the
        // finite-volume grid at `thermal_grid` over the uniform stack.
        let c = PlacerConfig::new(4);
        assert!(c.stack_layers.is_none());
        let (nx, ny) = c.thermal_grid;
        assert_eq!((nx, ny), (16, 16));
        let sim = tvp_thermal::ThermalSimulator::new(c.stack, 1.0e-3, 1.0e-3, nx, ny).unwrap();
        let oracle = tvp_thermal::GridOracle::full_grid(sim, c.thermal_precond);
        assert_eq!(oracle.grid_dims(), (nx, ny, c.num_layers));
    }

    #[test]
    fn power_prefactor() {
        let t = TechnologyParams::default();
        assert!((t.power_prefactor() - 0.5 * 1.0e9 * 1.8 * 1.8).abs() < 1.0);
    }

    #[test]
    fn builder_methods() {
        let c = PlacerConfig::new(2)
            .with_alpha_ilv(5.0e-7)
            .with_alpha_temp(1.0e-6)
            .with_seed(3)
            .with_partition_starts(4)
            .with_threads(2)
            .with_thermal_precond(Preconditioner::Jacobi);
        assert_eq!(c.alpha_ilv, 5.0e-7);
        assert_eq!(c.alpha_temp, 1.0e-6);
        assert_eq!(c.seed, 3);
        assert_eq!(c.partition_starts, 4);
        assert_eq!(c.threads, 2);
        assert_eq!(c.thermal_precond, Preconditioner::Jacobi);
        c.validate().unwrap();
    }

    #[test]
    fn thermal_preconditioner_defaults_to_multigrid() {
        assert_eq!(
            PlacerConfig::new(4).thermal_precond,
            Preconditioner::Multigrid { levels: 0 }
        );
    }

    #[test]
    fn threads_default_to_all_hardware() {
        assert_eq!(PlacerConfig::new(4).threads, 0);
    }

    #[test]
    fn ablation_flags_default_on_and_shift_default_whole_row() {
        let c = PlacerConfig::new(4);
        assert!(c.terminal_propagation);
        assert!(c.trr_nets);
        assert!(c.thermal_net_weights);
        assert!(c.peko_floors);
        assert!(c.weighted_depth_cut);
        assert_eq!(c.shift_strategy, ShiftStrategy::WholeRow);
        assert_eq!(ShiftStrategy::default(), ShiftStrategy::WholeRow);
        assert_eq!(c.legal_refine_passes, 2);
    }

    #[test]
    fn stack_layers_must_match_layer_count_and_be_physical() {
        let spec = LayerSpec {
            thickness: 5.0e-6,
            conductivity: 120.0,
        };
        let c = PlacerConfig::new(2).with_stack_layers(vec![spec; 2]);
        c.validate().unwrap();

        let c = PlacerConfig::new(2).with_stack_layers(vec![spec; 3]);
        assert!(c.validate().is_err(), "wrong layer count must fail");

        let bad = LayerSpec {
            thickness: -1.0,
            conductivity: 120.0,
        };
        let c = PlacerConfig::new(2).with_stack_layers(vec![bad; 2]);
        assert!(c.validate().is_err(), "unphysical spec must fail");
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = PlacerConfig::new(4);
        c.alpha_ilv = 0.0;
        assert!(c.validate().is_err());

        let mut c = PlacerConfig::new(4);
        c.alpha_temp = -1.0;
        assert!(c.validate().is_err());

        let mut c = PlacerConfig::new(4);
        c.whitespace = 1.0;
        assert!(c.validate().is_err());

        let mut c = PlacerConfig::new(4);
        c.stack.num_layers = 2;
        assert!(c.validate().is_err());

        let c = PlacerConfig::new(0);
        assert!(c.validate().is_err());
    }
}
