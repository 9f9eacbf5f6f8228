//! Steady-state finite-volume thermal simulation.
//!
//! The chip is discretized into `nx × ny` columns. Vertically there is one
//! node layer for the bulk substrate plus one per device layer. Adjacent
//! nodes exchange heat through conduction conductances `G = k·A/d`; the
//! substrate couples to ambient through the series of half its own
//! conduction and the heat-sink convective film, and the remaining faces
//! carry a weak natural-convection film. The resulting conductance matrix
//! is symmetric positive definite, and `G·ΔT = P` is solved with
//! preconditioned conjugate gradients.
//!
//! # Preconditioning
//!
//! Two preconditioners are available (see [`Preconditioner`]):
//!
//! * **Geometric multigrid** (the default): one V-cycle per CG iteration
//!   over a semi-coarsened hierarchy of rediscretized conductance grids
//!   with z-line red-black Gauss–Seidel smoothing and an exact coarsest
//!   solve (see the `multigrid` module). Iteration counts are nearly
//!   independent of grid resolution.
//! * **Jacobi**: the inverse diagonal. Cheap to set up, but CG iterations
//!   grow with grid resolution; kept as the comparison baseline and as
//!   the automatic fallback when the hierarchy cannot be built.
//!
//! # Parallelism and warm starting
//!
//! The CG kernels are fused, allocation-free, row-sliced passes (stencil
//! apply + `p·Ap` in one sweep; `r ← r − αAp` + `‖r‖²` in one sweep;
//! Jacobi `z = D⁻¹r` + `r·z` in one sweep) dispatched through the
//! `tvp-parallel` pool with a serial cutoff for small grids. Every
//! reduction folds chunk partials in chunk order, and chunk boundaries
//! are a pure function of the data length, so the solver is bitwise
//! identical for **every** thread count (including 1).
//!
//! Placement loops solve a slowly-drifting sequence of power maps, so
//! [`ThermalSolveContext`] carries the previous solution and the
//! preconditioner setup between [`ThermalSimulator::solve_with`] calls:
//! CG starts from the old field instead of zero —
//! [`CgStats::initial_residual`] records how close that start was — and
//! the multigrid hierarchy is built once per context, not per solve.

use crate::multigrid::MgHierarchy;
use crate::stack::LayerSpec;
use crate::{LayerStack, PowerMap, ThermalError};
use tvp_parallel as parallel;

/// Minimum elements per parallel chunk for elementwise CG kernels.
pub(crate) const ELEM_MIN_CHUNK: usize = 2048;
/// Minimum elements per chunk for chunked dot-product reductions.
const DOT_MIN_CHUNK: usize = 4096;
/// Below this many nodes the CG kernels skip pool dispatch and run their
/// chunks inline (bitwise identical either way): small grids lose more
/// to scheduling than they gain from parallelism.
pub(crate) const SERIAL_CUTOFF: usize = 32_768;

/// Steady-state temperature solution over the simulation grid.
#[derive(Clone, PartialEq, Debug)]
pub struct TemperatureField {
    nx: usize,
    ny: usize,
    /// Device layers only (substrate excluded).
    nz: usize,
    ambient: f64,
    /// Absolute temperatures of device-layer nodes, °C,
    /// `(k, j, i)` row-major.
    values: Vec<f64>,
}

impl TemperatureField {
    /// Grid dimensions `(nx, ny, num_device_layers)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// The ambient temperature the rise is measured against, °C.
    pub fn ambient(&self) -> f64 {
        self.ambient
    }

    /// Temperature of device-layer node `(i, j, layer)`, °C.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn at(&self, i: usize, j: usize, layer: usize) -> f64 {
        assert!(i < self.nx && j < self.ny && layer < self.nz);
        self.values[(layer * self.ny + j) * self.nx + i]
    }

    /// Mean temperature over all device-layer nodes, °C.
    pub fn average_temperature(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Maximum device-layer node temperature, °C.
    pub fn max_temperature(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean temperature of one device layer, °C.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_average(&self, layer: usize) -> f64 {
        assert!(layer < self.nz);
        let n = self.nx * self.ny;
        self.values[layer * n..(layer + 1) * n].iter().sum::<f64>() / n as f64
    }

    /// Samples the field at a physical position (clamped to the chip).
    pub fn sample(&self, x: f64, y: f64, layer: usize, width: f64, depth: f64) -> f64 {
        let i = ((x / width * self.nx as f64).floor() as isize).clamp(0, self.nx as isize - 1);
        let j = ((y / depth * self.ny as f64).floor() as isize).clamp(0, self.ny as isize - 1);
        self.at(i as usize, j as usize, layer.min(self.nz - 1))
    }

    /// Raw device-layer values, `(k, j, i)` row-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// The 7-point finite-volume conductance operator for one grid
/// resolution: the dimensions, the per-node-layer conductances, and the
/// precomputed matrix diagonal. [`ThermalSimulator`] holds one for the
/// evaluation grid; each multigrid level holds one rediscretized at its
/// own resolution.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct StencilOp {
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    /// Total node layers = device layers + 1 (substrate at k = 0).
    pub(crate) nz: usize,
    /// Lateral conductances per node layer.
    pub(crate) gx: Vec<f64>,
    pub(crate) gy: Vec<f64>,
    /// `gz[k]` couples node layer `k` to `k + 1`.
    pub(crate) gz: Vec<f64>,
    /// Grounding conductance to ambient per node layer (bottom film on
    /// the substrate layer, weak top film on the topmost layer).
    pub(crate) gamb: Vec<f64>,
    /// Weak side films per node layer (applied on boundary columns).
    pub(crate) gside: Vec<f64>,
    /// Precomputed matrix diagonal, one entry per node.
    pub(crate) diag: Vec<f64>,
}

impl StencilOp {
    /// Discretizes the layer stack over a `width × depth` footprint at
    /// `nx × ny` lateral resolution. Conductances are physical (they
    /// scale with the cell areas of *this* resolution), so coarse
    /// multigrid operators built by rediscretization stay consistent
    /// with conservative (summing) residual restriction.
    ///
    /// `layers` optionally overrides the per-device-layer thickness and
    /// conductivity (heterogeneous stacks); `None` reproduces the uniform
    /// stack bit for bit. Layer data is resolution-independent, so the
    /// same slice serves every multigrid level.
    pub(crate) fn discretize(
        stack: &LayerStack,
        layers: Option<&[LayerSpec]>,
        width: f64,
        depth: f64,
        nx: usize,
        ny: usize,
    ) -> Self {
        let nz = stack.num_layers + 1;
        let dx = width / nx as f64;
        let dy = depth / ny as f64;
        let k = stack.conductivity;
        let area_xy = dx * dy;

        // Node-layer thicknesses and conductivities: the bulk substrate
        // node (k = 0) conducts at silicon conductivity; device layers
        // use the stack's effective conductivity, or their own when a
        // heterogeneous override is given.
        let k_sub = stack.substrate_conductivity;
        let mut tz = Vec::with_capacity(nz);
        let mut kz = Vec::with_capacity(nz);
        tz.push(stack.substrate_thickness);
        kz.push(k_sub);
        match layers {
            Some(specs) => {
                for spec in specs.iter().take(stack.num_layers) {
                    tz.push(spec.thickness);
                    kz.push(spec.conductivity);
                }
            }
            None => {
                for _ in 0..stack.num_layers {
                    tz.push(stack.layer_thickness);
                    kz.push(k);
                }
            }
        }

        let gx: Vec<f64> = tz
            .iter()
            .zip(&kz)
            .map(|(&t, &kl)| kl * (dy * t) / dx)
            .collect();
        let gy: Vec<f64> = tz
            .iter()
            .zip(&kz)
            .map(|(&t, &kl)| kl * (dx * t) / dy)
            .collect();
        let mut gz = Vec::with_capacity(nz - 1);
        for kk in 0..nz - 1 {
            // Series of: half of layer kk at its conductivity, the bonding
            // dielectric (counted at stack conductivity), half of kk + 1.
            let r = tz[kk] / (2.0 * kz[kk])
                + stack.interlayer_thickness / k
                + tz[kk + 1] / (2.0 * kz[kk + 1]);
            gz.push(area_xy / r);
        }

        let h_sink = stack.heat_sink.convection_coefficient;
        let h_side = stack.side_convection_coefficient;
        let mut gamb = vec![0.0; nz];
        // Bottom: half the substrate conduction in series with the sink film.
        gamb[0] = area_xy / (tz[0] / 2.0 / k_sub + 1.0 / h_sink);
        // Top: half the top layer (at its own conductivity) in series
        // with the weak film.
        gamb[nz - 1] += area_xy / (tz[nz - 1] / 2.0 / kz[nz - 1] + 1.0 / h_side);
        // Side films per layer, applied along boundary columns.
        let gside: Vec<f64> = tz
            .iter()
            .map(|&t| {
                // Use the mean of the two side areas; the film dominates.
                let area = t * (dx + dy) / 2.0;
                area / (1.0 / h_side)
            })
            .collect();

        let mut op = Self {
            nx,
            ny,
            nz,
            gx,
            gy,
            gz,
            gamb,
            gside,
            diag: Vec::new(),
        };
        op.diag = op.build_diagonal();
        op
    }

    /// Total node count.
    pub(crate) fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    fn build_diagonal(&self) -> Vec<f64> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let mut diag = vec![0.0; nx * ny * nz];
        let plane = nx * ny;
        for (n, slot) in diag.iter_mut().enumerate() {
            let k = n / plane;
            let rem = n % plane;
            let j = rem / nx;
            let i = rem % nx;
            let mut d = self.gamb[k];
            d += if i + 1 < nx {
                self.gx[k]
            } else {
                self.gside[k]
            };
            d += if i > 0 { self.gx[k] } else { self.gside[k] };
            d += if j + 1 < ny {
                self.gy[k]
            } else {
                self.gside[k]
            };
            d += if j > 0 { self.gy[k] } else { self.gside[k] };
            if k + 1 < nz {
                d += self.gz[k];
            }
            if k > 0 {
                d += self.gz[k - 1];
            }
            *slot = d;
        }
        diag
    }

    /// The fused row-sliced stencil kernel: writes `out[m] = (G·t)[n]`
    /// for nodes `n = start + m` and returns the partial `Σ t[n]·out[m]`
    /// over the range. Rows (constant `k, j`) are processed with their
    /// `y`/`z` neighbor terms and gating hoisted out of the inner loop;
    /// each node's arithmetic is a pure function of `t` and `n`, so the
    /// result is independent of how the range was chunked.
    fn apply_rows(&self, t: &[f64], start: usize, out: &mut [f64]) -> f64 {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let plane = nx * ny;
        let end = start + out.len();
        let mut dot = 0.0;
        let mut n = start;
        while n < end {
            let k = n / plane;
            let rem = n % plane;
            let j = rem / nx;
            let i0 = rem % nx;
            let row_start = n - i0;
            let i1 = nx.min(i0 + (end - n));
            let gxk = self.gx[k];
            let gyk = self.gy[k];
            let y_up = j + 1 < ny;
            let y_dn = j > 0;
            let z_up = k + 1 < nz;
            let gz_up = if z_up { self.gz[k] } else { 0.0 };
            let gz_dn = if k > 0 { self.gz[k - 1] } else { 0.0 };
            for i in i0..i1 {
                let m = row_start + i;
                let ti = t[m];
                let mut acc = 0.0;
                if i + 1 < nx {
                    acc += gxk * t[m + 1];
                }
                if i > 0 {
                    acc += gxk * t[m - 1];
                }
                if y_up {
                    acc += gyk * t[m + nx];
                }
                if y_dn {
                    acc += gyk * t[m - nx];
                }
                if z_up {
                    acc += gz_up * t[m + plane];
                }
                if k > 0 {
                    acc += gz_dn * t[m - plane];
                }
                let o = self.diag[m] * ti - acc;
                out[m - start] = o;
                dot += o * ti;
            }
            n = row_start + i1;
        }
        dot
    }

    /// Applies the conductance matrix: `out = G · t`. Matrix-free and
    /// embarrassingly parallel; bitwise identical for any thread count.
    pub(crate) fn apply(&self, t: &[f64], out: &mut [f64]) {
        parallel::for_each_chunk_mut(out, ELEM_MIN_CHUNK, SERIAL_CUTOFF, |start, chunk| {
            self.apply_rows(t, start, chunk);
        });
    }

    /// Fused `ap = G·p` and `p·ap` in one sweep. Chunk partials fold in
    /// chunk order — identical for every thread count.
    pub(crate) fn apply_dot(&self, p: &[f64], ap: &mut [f64]) -> f64 {
        parallel::map_chunks_mut(ap, ELEM_MIN_CHUNK, SERIAL_CUTOFF, |start, chunk| {
            self.apply_rows(p, start, chunk)
        })
        .into_iter()
        .sum()
    }

    /// Fused residual: `r = b − G·x`, elementwise.
    pub(crate) fn residual(&self, x: &[f64], b: &[f64], r: &mut [f64]) {
        parallel::for_each_chunk_mut(r, ELEM_MIN_CHUNK, SERIAL_CUTOFF, |start, chunk| {
            self.apply_rows(x, start, chunk);
            for (off, ri) in chunk.iter_mut().enumerate() {
                *ri = b[start + off] - *ri;
            }
        });
    }
}

/// Finite-volume steady-state simulator for one chip geometry.
#[derive(Clone, PartialEq, Debug)]
pub struct ThermalSimulator {
    stack: LayerStack,
    /// Per-device-layer thickness/conductivity overrides (heterogeneous
    /// stacks); `None` = the uniform stack.
    layers: Option<Vec<LayerSpec>>,
    width: f64,
    depth: f64,
    op: StencilOp,
}

impl ThermalSimulator {
    /// Creates a simulator for a `width × depth` chip with the given stack,
    /// discretized into `nx × ny` columns.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a non-positive
    /// footprint, grid, or stack parameter.
    pub fn new(
        stack: LayerStack,
        width: f64,
        depth: f64,
        nx: usize,
        ny: usize,
    ) -> crate::Result<Self> {
        Self::build(stack, None, width, depth, nx, ny)
    }

    /// [`new`](Self::new) with per-device-layer thickness/conductivity
    /// overrides: `layers[l]` describes device layer `l` (0 = closest to
    /// the heat sink). The scalar stack still supplies the substrate,
    /// bonding dielectric, and boundary films.
    ///
    /// # Errors
    ///
    /// Additionally to [`new`](Self::new)'s contract, returns
    /// [`ThermalError::InvalidParameter`] when the override count differs
    /// from `stack.num_layers` or any spec is non-positive/non-finite.
    pub fn with_layers(
        stack: LayerStack,
        layers: Vec<LayerSpec>,
        width: f64,
        depth: f64,
        nx: usize,
        ny: usize,
    ) -> crate::Result<Self> {
        if layers.len() != stack.num_layers {
            return Err(ThermalError::InvalidParameter {
                name: "layer_specs (count must equal num_layers)",
                value: layers.len() as f64,
            });
        }
        for spec in &layers {
            spec.validate()?;
        }
        Self::build(stack, Some(layers), width, depth, nx, ny)
    }

    fn build(
        stack: LayerStack,
        layers: Option<Vec<LayerSpec>>,
        width: f64,
        depth: f64,
        nx: usize,
        ny: usize,
    ) -> crate::Result<Self> {
        stack.validate()?;
        for (name, value) in [
            ("chip width", width),
            ("chip depth", depth),
            ("nx", nx as f64),
            ("ny", ny as f64),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(ThermalError::InvalidParameter { name, value });
            }
        }
        let op = StencilOp::discretize(&stack, layers.as_deref(), width, depth, nx, ny);
        Ok(Self {
            stack,
            layers,
            width,
            depth,
            op,
        })
    }

    /// The layer stack being simulated.
    pub fn stack(&self) -> &LayerStack {
        &self.stack
    }

    /// The per-layer overrides, when this simulator models a
    /// heterogeneous stack.
    pub fn layer_specs(&self) -> Option<&[LayerSpec]> {
        self.layers.as_deref()
    }

    /// Chip footprint `(width, depth)`, meters.
    pub fn footprint(&self) -> (f64, f64) {
        (self.width, self.depth)
    }

    /// Grid dimensions the power map must match: `(nx, ny, num_layers)`.
    pub fn grid_dims(&self) -> (usize, usize, usize) {
        (self.op.nx, self.op.ny, self.stack.num_layers)
    }

    /// Creates a reusable solve context with the default preconditioner
    /// (geometric multigrid, automatic depth): the preconditioner is set
    /// up once, and each [`solve_with`](Self::solve_with) stores its
    /// solution for the next call to warm start from.
    pub fn context(&self) -> ThermalSolveContext {
        self.context_with(Preconditioner::default())
    }

    /// [`context`](Self::context) with an explicit preconditioner choice.
    ///
    /// When the multigrid hierarchy cannot be built for this geometry
    /// (more node layers than the line smoother supports), the context
    /// silently degrades to Jacobi preconditioning;
    /// [`ThermalSolveContext::preconditioner`] reports what was actually
    /// set up.
    pub fn context_with(&self, precond: Preconditioner) -> ThermalSolveContext {
        let setup_start = std::time::Instant::now();
        let inv_diag: Vec<f64> = self.op.diag.iter().map(|&d| 1.0 / d).collect();
        let mg = match precond {
            Preconditioner::Jacobi => None,
            Preconditioner::Multigrid { levels } => MgHierarchy::build(
                &self.stack,
                self.layers.as_deref(),
                self.width,
                self.depth,
                &self.op,
                levels,
            ),
        };
        let kind = if mg.is_some() {
            PrecondKind::Multigrid
        } else {
            PrecondKind::Jacobi
        };
        ThermalSolveContext {
            requested: precond,
            kind,
            setup_seconds: setup_start.elapsed().as_secs_f64(),
            inv_diag,
            mg,
            prev: None,
            stats: None,
        }
    }

    /// Solves for the steady-state temperature field produced by `power`,
    /// cold-starting from zero. Equivalent to
    /// [`solve_with`](Self::solve_with) on a fresh
    /// [`context`](Self::context).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::GridMismatch`] if the power map grid differs
    /// from [`grid_dims`](Self::grid_dims), or
    /// [`ThermalError::SolverDiverged`] if CG fails to converge (which for
    /// an SPD conductance matrix indicates pathological parameters).
    pub fn solve(&self, power: &PowerMap) -> crate::Result<TemperatureField> {
        let mut context = self.context();
        self.solve_with(power, &mut context)
    }

    /// Solves for the steady-state field, warm-starting CG from the
    /// previous solution held in `context` (if any) and caching this
    /// solution there for the next call. For the slowly-drifting power
    /// maps a placement loop produces, warm starts converge in a fraction
    /// of the cold iteration count; [`ThermalSolveContext::last_stats`]
    /// reports what happened, including how close the warm start was
    /// ([`CgStats::initial_residual`]).
    ///
    /// A context built for a different grid geometry is detected and
    /// rebuilt with the same requested preconditioner (losing the
    /// warm-start state) rather than misused.
    ///
    /// # Errors
    ///
    /// Same contract as [`solve`](Self::solve).
    pub fn solve_with(
        &self,
        power: &PowerMap,
        context: &mut ThermalSolveContext,
    ) -> crate::Result<TemperatureField> {
        if power.dims() != self.grid_dims() {
            return Err(ThermalError::GridMismatch {
                expected: self.grid_dims(),
                found: power.dims(),
            });
        }
        let n = self.op.len();
        if context.inv_diag.len() != n {
            *context = self.context_with(context.requested);
        }
        // Right-hand side: device layer l feeds node layer l + 1.
        let mut rhs = vec![0.0; n];
        let dev_nodes = self.op.nx * self.op.ny;
        rhs[dev_nodes..].copy_from_slice(power.values());

        let x0 = context.prev.take();
        let (t_rise, stats) = self.conjugate_gradient(&rhs, context, x0)?;
        let ambient = self.stack.heat_sink.ambient;
        let values: Vec<f64> = t_rise[dev_nodes..].iter().map(|dt| ambient + dt).collect();
        context.stats = Some(stats);
        context.prev = Some(t_rise);
        Ok(TemperatureField {
            nx: self.op.nx,
            ny: self.op.ny,
            nz: self.stack.num_layers,
            ambient,
            values,
        })
    }

    /// Damped-Jacobi fallback solve for when conjugate gradients break
    /// down (or are injected to break down by a fault plan).
    ///
    /// The iteration `x ← x + ω·D⁻¹·(b − G·x)` converges unconditionally
    /// for the weakly diagonally dominant SPD conductance matrix, just
    /// slowly — so this is a *degraded* path: it runs a bounded number of
    /// sweeps and returns the best field it reached together with the
    /// residual, instead of erroring on slow convergence. Callers should
    /// flag the result as thermally degraded.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::GridMismatch`] if the power map grid differs
    /// from [`grid_dims`](Self::grid_dims). Non-convergence is *not* an
    /// error here; inspect [`FallbackStats::residual`].
    pub fn solve_fallback(
        &self,
        power: &PowerMap,
    ) -> crate::Result<(TemperatureField, FallbackStats)> {
        if power.dims() != self.grid_dims() {
            return Err(ThermalError::GridMismatch {
                expected: self.grid_dims(),
                found: power.dims(),
            });
        }
        let n = self.op.len();
        let dev_nodes = self.op.nx * self.op.ny;
        let mut rhs = vec![0.0; n];
        rhs[dev_nodes..].copy_from_slice(power.values());

        let diag = &self.op.diag;
        let b_norm = dot(&rhs, &rhs).sqrt();
        let ambient = self.stack.heat_sink.ambient;
        let mut x = vec![0.0; n];
        let mut stats = FallbackStats {
            iterations: 0,
            residual: 0.0,
        };
        if b_norm > 0.0 {
            const OMEGA: f64 = 0.8;
            const MAX_SWEEPS: usize = 20_000;
            let tol = 1.0e-8 * b_norm;
            let mut gx = vec![0.0; n];
            for sweep in 1..=MAX_SWEEPS {
                self.op.apply(&x, &mut gx);
                let mut r_sq = 0.0;
                for i in 0..n {
                    let r = rhs[i] - gx[i];
                    r_sq += r * r;
                    x[i] += OMEGA * r / diag[i];
                }
                let r_norm = r_sq.sqrt();
                stats.iterations = sweep;
                stats.residual = r_norm / b_norm;
                if r_norm <= tol {
                    break;
                }
            }
        }
        let values: Vec<f64> = x[dev_nodes..].iter().map(|dt| ambient + dt).collect();
        Ok((
            TemperatureField {
                nx: self.op.nx,
                ny: self.op.ny,
                nz: self.stack.num_layers,
                ambient,
                values,
            },
            stats,
        ))
    }

    /// Preconditioned CG on `G·x = b`, starting from `x0` (or zero),
    /// preconditioned by whatever `context` holds. Every kernel is fused
    /// and chunk-deterministic, so the solve is bitwise identical for
    /// any thread count.
    ///
    /// # Errors
    ///
    /// [`ThermalError::SolverDiverged`] on breakdown: a non-positive or
    /// non-finite curvature `p·Gp` or preconditioned product `r·z`
    /// (impossible for exact SPD arithmetic, so it signals pathological
    /// parameters or an injected fault), or residual stagnation at the
    /// iteration cap.
    fn conjugate_gradient(
        &self,
        b: &[f64],
        context: &mut ThermalSolveContext,
        x0: Option<Vec<f64>>,
    ) -> crate::Result<(Vec<f64>, CgStats)> {
        let n = b.len();
        let warm_started = x0.is_some();
        let kind = context.kind;
        let setup_seconds = context.setup_seconds;
        let stats_at = |iterations: usize, residual: f64, initial_residual: f64| CgStats {
            iterations,
            residual,
            initial_residual,
            warm_started,
            preconditioner: kind,
            setup_seconds,
        };
        let b_norm = dot(b, b).sqrt();
        if b_norm == 0.0 {
            return Ok((vec![0.0; n], stats_at(0, 0.0, 0.0)));
        }
        let tol = 1.0e-10 * b_norm;
        let max_iter = 20 * n + 200;

        let (x, mut r) = match x0 {
            Some(x0) => {
                let mut r = vec![0.0; n];
                self.op.residual(&x0, b, &mut r);
                (x0, r)
            }
            None => (vec![0.0; n], b.to_vec()),
        };
        let mut x = x;
        let mut r_norm = dot(&r, &r).sqrt();
        let initial_residual = r_norm / b_norm;
        if r_norm <= tol {
            // Warm start already at the answer (identical power map).
            return Ok((x, stats_at(0, initial_residual, initial_residual)));
        }

        let mut z = vec![0.0; n];
        let mut rz = context.precondition(&r, &mut z);
        if !(rz.is_finite() && rz > 0.0) {
            return Err(ThermalError::SolverDiverged {
                iterations: 0,
                residual: initial_residual,
            });
        }
        let mut p = z.clone();
        let mut ap = vec![0.0; n];

        for iteration in 1..=max_iter {
            // Fused stencil apply + curvature dot in one sweep.
            let pap = self.op.apply_dot(&p, &mut ap);
            if !(pap.is_finite() && pap > 0.0) {
                return Err(ThermalError::SolverDiverged {
                    iterations: iteration,
                    residual: r_norm / b_norm,
                });
            }
            let alpha = rz / pap;
            parallel::for_each_chunk_mut(&mut x, ELEM_MIN_CHUNK, SERIAL_CUTOFF, |start, xs| {
                for (off, xi) in xs.iter_mut().enumerate() {
                    *xi += alpha * p[start + off];
                }
            });
            // Fused residual update + ‖r‖² in one sweep.
            let r_sq: f64 =
                parallel::map_chunks_mut(&mut r, ELEM_MIN_CHUNK, SERIAL_CUTOFF, |start, rs| {
                    let mut sq = 0.0;
                    for (off, ri) in rs.iter_mut().enumerate() {
                        *ri -= alpha * ap[start + off];
                        sq += *ri * *ri;
                    }
                    sq
                })
                .into_iter()
                .sum();
            r_norm = r_sq.sqrt();
            if r_norm <= tol {
                return Ok((x, stats_at(iteration, r_norm / b_norm, initial_residual)));
            }
            let rz_new = context.precondition(&r, &mut z);
            if !(rz_new.is_finite() && rz_new > 0.0) {
                return Err(ThermalError::SolverDiverged {
                    iterations: iteration,
                    residual: r_norm / b_norm,
                });
            }
            let beta = rz_new / rz;
            rz = rz_new;
            parallel::for_each_chunk_mut(&mut p, ELEM_MIN_CHUNK, SERIAL_CUTOFF, |start, ps| {
                for (off, pi) in ps.iter_mut().enumerate() {
                    *pi = z[start + off] + beta * *pi;
                }
            });
        }
        let residual = r_norm / b_norm;
        // Accept near-converged solutions; flag genuine divergence.
        if residual < 1.0e-6 {
            Ok((x, stats_at(max_iter, residual, initial_residual)))
        } else {
            Err(ThermalError::SolverDiverged {
                iterations: max_iter,
                residual,
            })
        }
    }
}

/// CG preconditioner selection for [`ThermalSimulator::context_with`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Preconditioner {
    /// Inverse-diagonal (Jacobi) preconditioning: cheap setup, but CG
    /// iteration counts grow with grid resolution.
    Jacobi,
    /// Geometric multigrid V-cycle preconditioning: near-grid-independent
    /// iteration counts. `levels = 0` coarsens automatically until the
    /// lateral grid is trivial; a non-zero value caps the hierarchy
    /// depth (clamped to what the geometry allows, minimum 1).
    Multigrid {
        /// Hierarchy depth cap; `0` = automatic.
        levels: usize,
    },
}

impl Default for Preconditioner {
    fn default() -> Self {
        Preconditioner::Multigrid { levels: 0 }
    }
}

/// Which preconditioner a context actually set up (multigrid requests
/// degrade to Jacobi when the hierarchy cannot be built).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrecondKind {
    /// Inverse-diagonal preconditioning.
    Jacobi,
    /// Geometric multigrid V-cycle preconditioning.
    Multigrid,
}

impl PrecondKind {
    /// Stable lowercase identifier (`"jacobi"` / `"multigrid"`), used in
    /// event streams and benchmark artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            PrecondKind::Jacobi => "jacobi",
            PrecondKind::Multigrid => "multigrid",
        }
    }
}

/// Convergence record of one damped-Jacobi fallback solve
/// ([`ThermalSimulator::solve_fallback`]).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct FallbackStats {
    /// Damped-Jacobi sweeps executed.
    pub iterations: usize,
    /// Final residual norm relative to `‖b‖` (0 when the right-hand side
    /// was all zero).
    pub residual: f64,
}

/// Convergence record of one CG solve.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CgStats {
    /// Iterations consumed (0 = the start vector already satisfied the
    /// tolerance).
    pub iterations: usize,
    /// Final residual norm relative to `‖b‖`.
    pub residual: f64,
    /// Residual norm relative to `‖b‖` *before* the first iteration:
    /// exactly 1 for a cold start, and a measure of how much the warm
    /// start already knew for a warm one (0 = it was the exact answer).
    pub initial_residual: f64,
    /// Whether the solve started from a previous solution.
    pub warm_started: bool,
    /// The preconditioner that actually ran.
    pub preconditioner: PrecondKind,
    /// Wall-clock seconds the context spent building the preconditioner
    /// (once per context, amortized over every solve through it).
    pub setup_seconds: f64,
}

/// Reusable state threaded between [`ThermalSimulator::solve_with`]
/// calls: the preconditioner (Jacobi diagonal or multigrid hierarchy,
/// built once), the previous solution vector (the warm start), and the
/// last solve's [`CgStats`].
#[derive(Clone, PartialEq, Debug)]
pub struct ThermalSolveContext {
    /// What the caller asked for (used to rebuild on geometry change).
    requested: Preconditioner,
    /// What was actually set up.
    kind: PrecondKind,
    setup_seconds: f64,
    inv_diag: Vec<f64>,
    mg: Option<MgHierarchy>,
    /// Previous temperature-rise solution over all node layers.
    prev: Option<Vec<f64>>,
    stats: Option<CgStats>,
}

impl ThermalSolveContext {
    /// Statistics of the most recent solve through this context.
    pub fn last_stats(&self) -> Option<CgStats> {
        self.stats
    }

    /// The preconditioner this context actually set up (a multigrid
    /// request degrades to Jacobi when the hierarchy cannot be built).
    pub fn preconditioner(&self) -> PrecondKind {
        self.kind
    }

    /// Wall-clock seconds spent building the preconditioner.
    pub fn setup_seconds(&self) -> f64 {
        self.setup_seconds
    }

    /// Depth of the multigrid hierarchy actually built (finest level
    /// included), or `None` under Jacobi preconditioning.
    pub fn multigrid_levels(&self) -> Option<usize> {
        self.mg.as_ref().map(MgHierarchy::num_levels)
    }

    /// Drops the warm-start state (the next solve runs cold).
    pub fn reset(&mut self) {
        self.prev = None;
    }

    /// Applies the preconditioner once: `z = M⁻¹·r`, returning `r·z`.
    /// One fused Jacobi sweep or one multigrid V-cycle — the unit of
    /// work CG pays per iteration, exposed for benchmarking and tests.
    ///
    /// # Panics
    ///
    /// Panics if `r` and `z` don't match the context's grid size.
    pub fn apply_preconditioner(&mut self, r: &[f64], z: &mut [f64]) -> f64 {
        assert_eq!(r.len(), self.inv_diag.len());
        assert_eq!(z.len(), self.inv_diag.len());
        self.precondition(r, z)
    }

    /// `z = M⁻¹·r` fused with the `r·z` reduction CG needs next.
    fn precondition(&mut self, r: &[f64], z: &mut [f64]) -> f64 {
        match &mut self.mg {
            Some(mg) => {
                mg.vcycle(r, z);
                dot(r, z)
            }
            None => {
                let inv_diag = &self.inv_diag;
                parallel::map_chunks_mut(z, ELEM_MIN_CHUNK, SERIAL_CUTOFF, |start, zs| {
                    let mut partial = 0.0;
                    for (off, zi) in zs.iter_mut().enumerate() {
                        let i = start + off;
                        *zi = r[i] * inv_diag[i];
                        partial += r[i] * *zi;
                    }
                    partial
                })
                .into_iter()
                .sum()
            }
        }
    }
}

/// Dot product: chunk partials folded in fixed chunk order, with the
/// chunk boundaries a pure function of the length — bitwise identical
/// for every thread count, and dispatched serially below the cutoff.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    parallel::sum_chunks(a.len(), DOT_MIN_CHUNK, SERIAL_CUTOFF, |range| {
        a[range.clone()]
            .iter()
            .zip(&b[range])
            .map(|(x, y)| x * y)
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simulator(layers: usize, nx: usize, ny: usize) -> ThermalSimulator {
        ThermalSimulator::new(LayerStack::mitll_0_18um(layers), 1.0e-3, 1.0e-3, nx, ny).unwrap()
    }

    const BOTH_PRECONDS: [Preconditioner; 2] = [
        Preconditioner::Jacobi,
        Preconditioner::Multigrid { levels: 0 },
    ];

    fn solve_pre(
        sim: &ThermalSimulator,
        power: &PowerMap,
        precond: Preconditioner,
    ) -> (TemperatureField, CgStats) {
        let mut context = sim.context_with(precond);
        let field = sim.solve_with(power, &mut context).unwrap();
        (field, context.last_stats().unwrap())
    }

    /// Single-column sanity check against the series-resistance analytic
    /// solution: one device layer, 1×1 grid, all heat exits the sink path.
    /// Runs against both preconditioners (a 1×1 lateral grid exercises
    /// the degenerate single-level multigrid hierarchy: CG is then
    /// preconditioned by the exact coarsest solve).
    #[test]
    fn single_column_matches_analytic_resistance() {
        let mut stack = LayerStack::mitll_0_18um(1);
        // Make the non-sink films negligible so the analytic path is exact.
        stack.side_convection_coefficient = 1.0e-9;
        let sim = ThermalSimulator::new(stack, 1.0e-3, 1.0e-3, 1, 1).unwrap();
        let mut power = PowerMap::new(1, 1, 1);
        power.add(0, 0, 0, 0.5);

        let area = 1.0e-6; // 1 mm × 1 mm
        let k = stack.conductivity;
        let k_sub = stack.substrate_conductivity;
        // Node-center to ambient: layer0 half + bond at stack conductivity,
        // then the full substrate (half to its center, half below) at
        // silicon conductivity, then the sink film.
        let r = (stack.layer_thickness / 2.0 + stack.interlayer_thickness) / (k * area)
            + stack.substrate_thickness / (k_sub * area)
            + 1.0 / (stack.heat_sink.convection_coefficient * area);
        let expected = 0.5 * r;
        for precond in BOTH_PRECONDS {
            let (field, stats) = solve_pre(&sim, &power, precond);
            let got = field.at(0, 0, 0) - field.ambient();
            assert!(
                (got - expected).abs() < 1e-6 * expected.max(1.0),
                "{precond:?}: ΔT = {got}, analytic {expected}"
            );
            assert!(stats.residual <= 1.0e-6, "{precond:?}: {stats:?}");
        }
    }

    #[test]
    fn upper_layers_run_hotter() {
        let sim = simulator(4, 4, 4);
        let mut power = PowerMap::new(4, 4, 4);
        // Same uniform power on every layer.
        for k in 0..4 {
            for j in 0..4 {
                for i in 0..4 {
                    power.add(i, j, k, 1.0e-3);
                }
            }
        }
        let field = sim.solve(&power).unwrap();
        for l in 0..3 {
            assert!(
                field.layer_average(l + 1) > field.layer_average(l),
                "layer {} ({}) should be cooler than layer {} ({})",
                l,
                field.layer_average(l),
                l + 1,
                field.layer_average(l + 1)
            );
        }
    }

    #[test]
    fn symmetric_input_gives_symmetric_field() {
        let sim = simulator(2, 6, 6);
        let mut power = PowerMap::new(6, 6, 2);
        power.add(2, 2, 1, 0.01);
        power.add(3, 3, 1, 0.01);
        power.add(2, 3, 1, 0.01);
        power.add(3, 2, 1, 0.01);
        for precond in BOTH_PRECONDS {
            let (field, _) = solve_pre(&sim, &power, precond);
            for l in 0..2 {
                for j in 0..6 {
                    for i in 0..6 {
                        let a = field.at(i, j, l);
                        let b = field.at(5 - i, 5 - j, l);
                        assert!(
                            (a - b).abs() < 1e-9,
                            "{precond:?}: field must be 180° symmetric"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn superposition_holds() {
        // The system is linear: solve(p1 + p2) == solve(p1) + solve(p2) - ambient.
        let sim = simulator(2, 4, 4);
        let mut p1 = PowerMap::new(4, 4, 2);
        p1.add(0, 0, 0, 0.02);
        let mut p2 = PowerMap::new(4, 4, 2);
        p2.add(3, 3, 1, 0.05);
        let mut p12 = PowerMap::new(4, 4, 2);
        p12.add(0, 0, 0, 0.02);
        p12.add(3, 3, 1, 0.05);
        for precond in BOTH_PRECONDS {
            let (f1, _) = solve_pre(&sim, &p1, precond);
            let (f2, _) = solve_pre(&sim, &p2, precond);
            let (f12, _) = solve_pre(&sim, &p12, precond);
            for l in 0..2 {
                for j in 0..4 {
                    for i in 0..4 {
                        let lhs = f12.at(i, j, l) - f12.ambient();
                        let rhs = (f1.at(i, j, l) - f1.ambient()) + (f2.at(i, j, l) - f2.ambient());
                        assert!(
                            (lhs - rhs).abs() < 1e-8 * lhs.abs().max(1e-12),
                            "{precond:?}: superposition"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn power_near_sink_is_cooler_than_power_far_from_sink() {
        let sim = simulator(4, 4, 4);
        let mut low = PowerMap::new(4, 4, 4);
        low.add(1, 1, 0, 0.05);
        let mut high = PowerMap::new(4, 4, 4);
        high.add(1, 1, 3, 0.05);
        let t_low = sim.solve(&low).unwrap().max_temperature();
        let t_high = sim.solve(&high).unwrap().max_temperature();
        assert!(
            t_high > t_low,
            "power on the top layer ({t_high}) must run hotter than near the sink ({t_low})"
        );
    }

    #[test]
    fn zero_power_is_ambient() {
        let sim = simulator(2, 3, 3);
        let field = sim.solve(&PowerMap::new(3, 3, 2)).unwrap();
        assert!((field.average_temperature() - field.ambient()).abs() < 1e-12);
        assert!((field.max_temperature() - field.ambient()).abs() < 1e-12);
    }

    #[test]
    fn grid_mismatch_is_reported() {
        let sim = simulator(2, 4, 4);
        let power = PowerMap::new(3, 4, 2);
        assert!(matches!(
            sim.solve(&power),
            Err(ThermalError::GridMismatch { .. })
        ));
    }

    #[test]
    fn sample_reads_the_right_bin() {
        let sim = simulator(1, 4, 4);
        let mut power = PowerMap::new(4, 4, 1);
        power.add(3, 0, 0, 0.1);
        let field = sim.solve(&power).unwrap();
        let sampled = field.sample(0.9e-3, 0.1e-3, 0, 1.0e-3, 1.0e-3);
        assert_eq!(sampled, field.at(3, 0, 0));
    }

    /// A smooth, asymmetric power map exercising every grid bin.
    fn dense_power(nx: usize, ny: usize, layers: usize) -> PowerMap {
        let mut power = PowerMap::new(nx, ny, layers);
        for k in 0..layers {
            for j in 0..ny {
                for i in 0..nx {
                    let w = 1.0e-3 * (1.0 + i as f64 * 0.37 + j as f64 * 0.11 + k as f64 * 0.53);
                    power.add(i, j, k, w);
                }
            }
        }
        power
    }

    #[test]
    fn multigrid_field_matches_jacobi_field() {
        let sim = simulator(4, 32, 32);
        let power = dense_power(32, 32, 4);
        let (jac, jac_stats) = solve_pre(&sim, &power, Preconditioner::Jacobi);
        let (mg, mg_stats) = solve_pre(&sim, &power, Preconditioner::Multigrid { levels: 0 });
        assert_eq!(jac_stats.preconditioner, PrecondKind::Jacobi);
        assert_eq!(mg_stats.preconditioner, PrecondKind::Multigrid);
        // Both converged to the CG tolerance; the fields must agree in
        // max norm within (a safety factor of) that tolerance.
        let mut max_diff = 0.0f64;
        let mut max_temp = 0.0f64;
        for l in 0..4 {
            for j in 0..32 {
                for i in 0..32 {
                    max_diff = max_diff.max((jac.at(i, j, l) - mg.at(i, j, l)).abs());
                    max_temp = max_temp.max((jac.at(i, j, l) - jac.ambient()).abs());
                }
            }
        }
        assert!(
            max_diff <= 1e-6 * max_temp.max(1.0),
            "fields diverged: max |Δ| = {max_diff}, max rise = {max_temp}"
        );
    }

    #[test]
    fn multigrid_iterations_are_far_fewer_and_nearly_grid_independent() {
        // The acceptance case: 64×64 lateral grid, 8 device layers, cold
        // solve. Multigrid must need at most a fifth of Jacobi's CG
        // iterations.
        let sim =
            ThermalSimulator::new(LayerStack::mitll_0_18um(8), 1.0e-3, 1.0e-3, 64, 64).unwrap();
        let power = dense_power(64, 64, 8);
        let (_, jac) = solve_pre(&sim, &power, Preconditioner::Jacobi);
        let (_, mg) = solve_pre(&sim, &power, Preconditioner::Multigrid { levels: 0 });
        assert!(
            mg.iterations * 5 <= jac.iterations,
            "multigrid took {} iterations vs {} for Jacobi",
            mg.iterations,
            jac.iterations
        );

        // Near-flat scaling: the MG iteration count may not grow by more
        // than a few iterations from a grid a quarter the size.
        let small = simulator(8, 32, 32);
        let (_, mg_small) = solve_pre(
            &small,
            &dense_power(32, 32, 8),
            Preconditioner::Multigrid { levels: 0 },
        );
        assert!(
            mg.iterations <= mg_small.iterations + 10,
            "iterations grew {} → {} from 32×32 to 64×64",
            mg_small.iterations,
            mg.iterations
        );
    }

    #[test]
    fn explicit_level_cap_still_converges() {
        let sim = simulator(4, 32, 32);
        let power = dense_power(32, 32, 4);
        let (reference, _) = solve_pre(&sim, &power, Preconditioner::Jacobi);
        for levels in [1usize, 2, 3] {
            let (field, stats) = solve_pre(&sim, &power, Preconditioner::Multigrid { levels });
            assert_eq!(stats.preconditioner, PrecondKind::Multigrid);
            for l in 0..4 {
                for j in 0..32 {
                    for i in 0..32 {
                        let a = reference.at(i, j, l);
                        let b = field.at(i, j, l);
                        assert!(
                            (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                            "levels={levels} at ({i},{j},{l}): {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cg_stats_report_preconditioner_and_setup_time() {
        let sim = simulator(2, 8, 8);
        let power = dense_power(8, 8, 2);
        let mut context = sim.context();
        assert_eq!(context.preconditioner(), PrecondKind::Multigrid);
        sim.solve_with(&power, &mut context).unwrap();
        let stats = context.last_stats().unwrap();
        assert_eq!(stats.preconditioner, PrecondKind::Multigrid);
        assert!(stats.setup_seconds >= 0.0);
        assert_eq!(stats.setup_seconds, context.setup_seconds());

        let mut jac = sim.context_with(Preconditioner::Jacobi);
        assert_eq!(jac.preconditioner(), PrecondKind::Jacobi);
        sim.solve_with(&power, &mut jac).unwrap();
        assert_eq!(
            jac.last_stats().unwrap().preconditioner,
            PrecondKind::Jacobi
        );
    }

    #[test]
    fn warm_start_matches_cold_solve() {
        for precond in BOTH_PRECONDS {
            let sim = simulator(4, 8, 8);
            let power = dense_power(8, 8, 4);
            let cold = {
                let mut context = sim.context_with(precond);
                sim.solve_with(&power, &mut context).unwrap()
            };

            let mut context = sim.context_with(precond);
            sim.solve_with(&power, &mut context).unwrap();
            let cold_stats = context.last_stats().unwrap();
            assert!(cold_stats.iterations > 0);
            assert!(!cold_stats.warm_started);
            assert_eq!(
                cold_stats.initial_residual, 1.0,
                "a cold start begins at the full right-hand side"
            );

            // Re-solving the identical map warm must agree with the cold
            // field to CG tolerance and converge (near-)instantly.
            let warm = sim.solve_with(&power, &mut context).unwrap();
            let stats = context.last_stats().unwrap();
            assert!(stats.warm_started);
            assert!(
                stats.initial_residual < 1.0e-6,
                "identical map: warm start is already the answer ({})",
                stats.initial_residual
            );
            assert!(
                stats.iterations < cold_stats.iterations / 4,
                "{precond:?}: warm solve of the same map took {} iterations vs {} cold",
                stats.iterations,
                cold_stats.iterations
            );
            for l in 0..4 {
                for j in 0..8 {
                    for i in 0..8 {
                        let c = cold.at(i, j, l);
                        let w = warm.at(i, j, l);
                        assert!(
                            (c - w).abs() <= 1e-6 * c.abs().max(1.0),
                            "{precond:?}: cold {c} vs warm {w} at ({i},{j},{l})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn warm_start_saves_iterations_on_perturbed_power() {
        for precond in BOTH_PRECONDS {
            let sim = simulator(4, 8, 8);
            let base = dense_power(8, 8, 4);
            let mut perturbed = dense_power(8, 8, 4);
            // A small local drift, like one cell moving between solves.
            perturbed.add(3, 4, 2, 2.0e-4);
            perturbed.add(5, 1, 0, -1.0e-4);

            let cold_iters = {
                let mut context = sim.context_with(precond);
                sim.solve_with(&perturbed, &mut context).unwrap();
                context.last_stats().unwrap().iterations
            };

            let mut context = sim.context_with(precond);
            sim.solve_with(&base, &mut context).unwrap();
            let warm = sim.solve_with(&perturbed, &mut context).unwrap();
            let warm_stats = context.last_stats().unwrap();
            assert!(warm_stats.warm_started);
            // The previous solution really was used as x₀: the recorded
            // initial residual is far below a cold start's 1.0.
            assert!(
                warm_stats.initial_residual < 0.1,
                "{precond:?}: initial residual {} says x₀ was not the previous field",
                warm_stats.initial_residual
            );
            assert!(
                warm_stats.iterations < cold_iters,
                "{precond:?}: warm ({}) must beat cold ({cold_iters}) on a perturbed map",
                warm_stats.iterations
            );
            // And it is still the right answer.
            let (cold, _) = solve_pre(&sim, &perturbed, precond);
            for l in 0..4 {
                for j in 0..8 {
                    for i in 0..8 {
                        let c = cold.at(i, j, l);
                        let w = warm.at(i, j, l);
                        assert!((c - w).abs() <= 1e-6 * c.abs().max(1.0));
                    }
                }
            }
        }
    }

    #[test]
    fn context_reset_forgets_the_warm_start() {
        let sim = simulator(2, 4, 4);
        let power = dense_power(4, 4, 2);
        let mut context = sim.context();
        sim.solve_with(&power, &mut context).unwrap();
        context.reset();
        sim.solve_with(&power, &mut context).unwrap();
        assert!(!context.last_stats().unwrap().warm_started);
    }

    #[test]
    fn context_from_wrong_geometry_is_rebuilt() {
        let sim_a = simulator(2, 4, 4);
        let sim_b = simulator(4, 8, 8);
        let mut context = sim_a.context_with(Preconditioner::Jacobi);
        sim_a
            .solve_with(&dense_power(4, 4, 2), &mut context)
            .unwrap();
        // Same context against a different simulator: must not panic or
        // poison the solve, just run cold — and keep the preconditioner
        // the caller asked for.
        let field = sim_b
            .solve_with(&dense_power(8, 8, 4), &mut context)
            .unwrap();
        assert!(!context.last_stats().unwrap().warm_started);
        assert_eq!(context.preconditioner(), PrecondKind::Jacobi);
        assert!(field.max_temperature() > field.ambient());
    }

    #[test]
    fn solve_is_equivalent_across_thread_counts() {
        // Big enough that every kernel spans multiple chunks and clears
        // the serial cutoff, so the dispatched paths actually execute.
        for precond in BOTH_PRECONDS {
            let sim =
                ThermalSimulator::new(LayerStack::mitll_0_18um(8), 1.0e-3, 1.0e-3, 64, 64).unwrap();
            let power = dense_power(64, 64, 8);
            let solve = || {
                let mut context = sim.context_with(precond);
                sim.solve_with(&power, &mut context).unwrap()
            };
            let serial = tvp_parallel::with_threads(1, solve);
            for threads in [2usize, 4] {
                let parallel_field = tvp_parallel::with_threads(threads, solve);
                for l in 0..8 {
                    for j in 0..64 {
                        for i in 0..64 {
                            let s = serial.at(i, j, l);
                            let p = parallel_field.at(i, j, l);
                            // Chunk boundaries and fold order are pure
                            // functions of the data, so the fields agree
                            // bit for bit.
                            assert!(
                                s.to_bits() == p.to_bits(),
                                "{precond:?}: serial {s} vs {threads}-thread {p} at ({i},{j},{l})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn more_layers_same_total_power_runs_hotter() {
        // Stacking the same total power higher raises mean temperature —
        // the core 3D-IC thermal problem the paper motivates.
        let total = 0.2;
        let mut temps = Vec::new();
        for layers in [1usize, 2, 4] {
            let sim = simulator(layers, 4, 4);
            let mut power = PowerMap::new(4, 4, layers);
            let per_bin = total / (16.0 * layers as f64);
            for k in 0..layers {
                for j in 0..4 {
                    for i in 0..4 {
                        power.add(i, j, k, per_bin);
                    }
                }
            }
            temps.push(sim.solve(&power).unwrap().average_temperature());
        }
        assert!(temps[1] > temps[0]);
        assert!(temps[2] > temps[1]);
    }
}
