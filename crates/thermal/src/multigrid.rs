//! Geometric multigrid V-cycle preconditioner for the thermal CG solve.
//!
//! The conductance grid is *semi-coarsened*: each level halves the lateral
//! resolution (`nx`, `ny` via ceiling division) and keeps every node layer,
//! because the stack is strongly anisotropic — vertical conductances exceed
//! lateral ones by an order of magnitude or more, so z-coupled errors must
//! be handled by the smoother, not the hierarchy. Coarse operators are
//! *rediscretized* from the physical layer stack at each resolution (not
//! Galerkin products), which keeps them SPD, 7-point, and exactly
//! representable by the same [`StencilOp`] the fine grid uses.
//!
//! **Smoother** — z-line red–black Gauss–Seidel: grid columns are colored
//! by `(i + j)` parity and each column's vertical tridiagonal system is
//! solved exactly (Thomas algorithm) with its lateral neighbors frozen.
//! Line relaxation in z is what makes the smoother robust under the
//! anisotropy; red–black ordering makes it parallel *and* deterministic —
//! same-color columns touch disjoint unknowns and read only opposite-color
//! values, so the result is bitwise independent of thread count.
//!
//! **Transfers** — cell-centered bilinear prolongation in x/y (identity in
//! z), and restriction exactly its transpose (both derive their weights
//! from one shared 1-D stencil), so the V-cycle is a symmetric operator.
//! Residual restriction therefore *sums* fine-cell residuals into coarse
//! cells, which matches the rediscretized operators: coarse conductances
//! scale with coarse cell areas, so summed power over larger cells yields
//! corrections with the correct temperature scale.
//!
//! **Coarsest level** — an exact dense Cholesky solve when the level is
//! small enough, otherwise a fixed number of symmetric smoothing sweeps.
//! Either way the cycle stays a fixed symmetric positive-definite linear
//! operator, which is what CG requires of its preconditioner: the V-cycle
//! starts from a zero initial guess at every level on every application.
//!
//! The hierarchy is built once per [`ThermalSolveContext`]
//! (crate::ThermalSolveContext) and reused warm across solves. If the
//! geometry cannot be handled (more node layers than the line smoother's
//! stack buffers), [`MgHierarchy::build`] returns `None` and the context
//! degrades to Jacobi preconditioning.

use crate::grid::StencilOp;
use crate::LayerStack;
use tvp_parallel as parallel;

/// Upper bound on node layers (device layers + substrate) supported by the
/// fixed stack buffers in the z-line smoother. Far above any realistic 3D
/// stack; beyond it multigrid setup reports failure and the solver falls
/// back to Jacobi preconditioning.
pub(crate) const MAX_NZ: usize = 64;

/// Stop coarsening once the lateral grid is this small: the level is then
/// solved exactly instead of smoothed.
const COARSE_LATERAL: usize = 4;

/// Coarsest-level node count up to which a dense Cholesky factorization is
/// built; larger coarsest levels (only reachable via an explicit shallow
/// level cap) fall back to smoothing sweeps.
const MAX_DENSE: usize = 1024;

/// Symmetric smoothing sweeps standing in for the exact solve when the
/// coarsest level is too large to factor densely.
const FALLBACK_SWEEPS: usize = 8;

/// One level of the hierarchy: its rediscretized operator plus solution,
/// right-hand-side, and residual scratch (allocated once at setup, so the
/// V-cycle itself is allocation-free).
#[derive(Clone, PartialEq, Debug)]
struct MgLevel {
    op: StencilOp,
    x: Vec<f64>,
    b: Vec<f64>,
    r: Vec<f64>,
}

impl MgLevel {
    fn new(op: StencilOp) -> Self {
        let n = op.len();
        Self {
            op,
            x: vec![0.0; n],
            b: vec![0.0; n],
            r: vec![0.0; n],
        }
    }
}

/// How the coarsest level is solved.
#[derive(Clone, PartialEq, Debug)]
enum CoarseSolve {
    /// Dense Cholesky factor (lower triangle, row-major) of the coarsest
    /// operator — an exact solve.
    Cholesky { l: Vec<f64>, n: usize },
    /// Fixed count of symmetric red–black line sweeps (used when the
    /// coarsest level is too large to factor, or if factorization fails
    /// numerically). Still symmetric positive definite as an operator.
    Sweeps(usize),
}

impl CoarseSolve {
    fn solve(&self, op: &StencilOp, b: &[f64], x: &mut [f64]) {
        match self {
            CoarseSolve::Cholesky { l, n } => {
                // x = A⁻¹ b via  L y = b,  Lᵀ x = y.
                let n = *n;
                for i in 0..n {
                    let mut sum = b[i];
                    for j in 0..i {
                        sum -= l[i * n + j] * x[j];
                    }
                    x[i] = sum / l[i * n + i];
                }
                for i in (0..n).rev() {
                    let mut sum = x[i];
                    for j in i + 1..n {
                        sum -= l[j * n + i] * x[j];
                    }
                    x[i] = sum / l[i * n + i];
                }
            }
            CoarseSolve::Sweeps(count) => {
                x.fill(0.0);
                for _ in 0..*count {
                    smooth(op, b, x, &[0, 1, 1, 0]);
                }
            }
        }
    }
}

/// The assembled multigrid hierarchy: finest level first, coarsest last.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct MgHierarchy {
    levels: Vec<MgLevel>,
    coarse: CoarseSolve,
}

impl MgHierarchy {
    /// Builds the hierarchy for the given fine operator by rediscretizing
    /// the physical stack at successively halved lateral resolutions.
    /// `level_cap = 0` coarsens until the lateral grid reaches
    /// [`COARSE_LATERAL`]; a non-zero cap limits the total number of
    /// levels (minimum one). Returns `None` when the geometry exceeds the
    /// smoother's layer capacity, signalling the caller to fall back to
    /// Jacobi preconditioning.
    pub(crate) fn build(
        stack: &LayerStack,
        layers: Option<&[crate::stack::LayerSpec]>,
        width: f64,
        depth: f64,
        fine: &StencilOp,
        level_cap: usize,
    ) -> Option<Self> {
        if fine.nz > MAX_NZ {
            return None;
        }
        let mut levels = vec![MgLevel::new(fine.clone())];
        loop {
            let last = &levels[levels.len() - 1].op;
            if last.nx.min(last.ny) <= COARSE_LATERAL {
                break;
            }
            if level_cap != 0 && levels.len() >= level_cap {
                break;
            }
            let op = StencilOp::discretize(
                stack,
                layers,
                width,
                depth,
                last.nx.div_ceil(2),
                last.ny.div_ceil(2),
            );
            levels.push(MgLevel::new(op));
        }
        let coarsest = &levels[levels.len() - 1].op;
        let coarse = cholesky(coarsest).unwrap_or(CoarseSolve::Sweeps(FALLBACK_SWEEPS));
        Some(Self { levels, coarse })
    }

    /// Number of levels in the hierarchy (finest included).
    pub(crate) fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Applies one V-cycle to the residual: `z ≈ A⁻¹ r`. A fixed symmetric
    /// positive-definite linear operation — every level starts from a zero
    /// guess, pre-smoothing runs colors red→black and post-smoothing
    /// black→red, and restriction is exactly the transpose of
    /// prolongation.
    pub(crate) fn vcycle(&mut self, r: &[f64], z: &mut [f64]) {
        self.levels[0].b.copy_from_slice(r);
        descend(&mut self.levels, &self.coarse);
        z.copy_from_slice(&self.levels[0].x);
    }
}

/// Recursive V-cycle worker over `levels[0..]` (coarsest last).
fn descend(levels: &mut [MgLevel], coarse: &CoarseSolve) {
    let Some((level, rest)) = levels.split_first_mut() else {
        return;
    };
    if rest.is_empty() {
        coarse.solve(&level.op, &level.b, &mut level.x);
        return;
    }
    // Pre-smooth from zero (required for a fixed linear operator).
    level.x.fill(0.0);
    smooth(&level.op, &level.b, &mut level.x, &[0, 1]);
    // Fine residual r = b − A·x, restricted into the coarse RHS.
    level.op.residual(&level.x, &level.b, &mut level.r);
    restrict(&level.op, &rest[0].op, &level.r, &mut rest[0].b);
    descend(rest, coarse);
    // Coarse-grid correction, then post-smooth in reversed color order.
    prolong(&rest[0].op, &level.op, &rest[0].x, &mut level.x);
    smooth(&level.op, &level.b, &mut level.x, &[1, 0]);
}

/// The shared 1-D transfer stencil: fine cell `i` interpolates from coarse
/// base cell `i / 2` (weight ¾) and the adjacent coarse cell on the side
/// `i`'s center leans toward (weight ¼), clamped to full base weight at
/// the boundary. Used by both prolongation (gather) and restriction
/// (scatter), which makes restriction exactly the transpose of
/// prolongation.
fn stencil_1d(i: usize, nc: usize) -> ((usize, f64), (usize, f64)) {
    let base = i / 2;
    let neighbor = if i.is_multiple_of(2) {
        base.checked_sub(1)
    } else {
        (base + 1 < nc).then_some(base + 1)
    };
    match neighbor {
        Some(nb) => ((base, 0.75), (nb, 0.25)),
        None => ((base, 1.0), (base, 0.0)),
    }
}

/// Restriction `b_c = Pᵀ·r_f`: scatters each fine residual into the coarse
/// cells its prolongation stencil reads from. Serial — a cheap O(n) pass
/// next to the smoother, and scattering in index order keeps it exactly
/// reproducible.
fn restrict(fine: &StencilOp, coarse_op: &StencilOp, r: &[f64], b: &mut [f64]) {
    b.fill(0.0);
    let (nxf, nyf, nz) = (fine.nx, fine.ny, fine.nz);
    let (nxc, nyc) = (coarse_op.nx, coarse_op.ny);
    let plane_f = nxf * nyf;
    let plane_c = nxc * nyc;
    for k in 0..nz {
        for j in 0..nyf {
            let ((jy0, wy0), (jy1, wy1)) = stencil_1d(j, nyc);
            for i in 0..nxf {
                let ((ix0, wx0), (ix1, wx1)) = stencil_1d(i, nxc);
                let v = r[k * plane_f + j * nxf + i];
                let base = k * plane_c;
                b[base + jy0 * nxc + ix0] += wy0 * wx0 * v;
                b[base + jy0 * nxc + ix1] += wy0 * wx1 * v;
                b[base + jy1 * nxc + ix0] += wy1 * wx0 * v;
                b[base + jy1 * nxc + ix1] += wy1 * wx1 * v;
            }
        }
    }
}

/// Prolongation `x_f += P·x_c`: gathers the bilinear interpolation of the
/// coarse correction into each fine node. A pure per-node gather, so it
/// parallelizes chunk-deterministically.
fn prolong(coarse_op: &StencilOp, fine: &StencilOp, xc: &[f64], xf: &mut [f64]) {
    let (nxf, nyf) = (fine.nx, fine.ny);
    let (nxc, nyc) = (coarse_op.nx, coarse_op.ny);
    let plane_f = nxf * nyf;
    let plane_c = nxc * nyc;
    parallel::for_each_chunk_mut(
        xf,
        crate::grid::ELEM_MIN_CHUNK,
        crate::grid::SERIAL_CUTOFF,
        |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                let m = start + off;
                let k = m / plane_f;
                let rem = m % plane_f;
                let j = rem / nxf;
                let i = rem % nxf;
                let ((jy0, wy0), (jy1, wy1)) = stencil_1d(j, nyc);
                let ((ix0, wx0), (ix1, wx1)) = stencil_1d(i, nxc);
                let base = k * plane_c;
                *slot += wy0 * wx0 * xc[base + jy0 * nxc + ix0]
                    + wy0 * wx1 * xc[base + jy0 * nxc + ix1]
                    + wy1 * wx0 * xc[base + jy1 * nxc + ix0]
                    + wy1 * wx1 * xc[base + jy1 * nxc + ix1];
            }
        },
    );
}

/// Shared-everything pointer for the red–black smoother. Soundness
/// argument for the unsafe accesses: within one color pass, the columns
/// being written form a disjoint set (one writer each — a column is
/// processed by exactly one row task), and every *read* of another column
/// is of the opposite color, which no task writes during this pass. So
/// there are no concurrent writes and no read/write overlaps.
struct FieldPtr(*mut f64);
unsafe impl Sync for FieldPtr {}
unsafe impl Send for FieldPtr {}

/// Z-line red–black Gauss–Seidel: for each color in `colors`, every grid
/// column `(i, j)` with `(i + j) % 2 == color` gets its vertical
/// tridiagonal system solved exactly (Thomas algorithm) with lateral
/// neighbors frozen at their current values. Deterministic for any thread
/// count: same-color columns are independent, so execution order cannot
/// change the result.
fn smooth(op: &StencilOp, b: &[f64], x: &mut [f64], colors: &[usize]) {
    let (nx, ny, nz) = (op.nx, op.ny, op.nz);
    debug_assert!(nz <= MAX_NZ);
    let plane = nx * ny;
    let rows_per_chunk = (crate::grid::SERIAL_CUTOFF / (nx * nz).max(1)).max(1);
    let ptr = FieldPtr(x.as_mut_ptr());
    let ptr = &ptr;
    for &color in colors {
        // One pass per color; rows are chunked across the pool. `x` is
        // accessed only through the raw pointer inside the pass (see
        // `FieldPtr` for the aliasing argument).
        parallel::map_chunks(ny, rows_per_chunk, |rows| {
            let t = ptr.0;
            // Thomas-algorithm scratch, fixed-capacity (nz ≤ MAX_NZ).
            let mut cp = [0.0f64; MAX_NZ];
            let mut dp = [0.0f64; MAX_NZ];
            for j in rows {
                let i_first = (color + j) % 2;
                let mut i = i_first;
                while i < nx {
                    let col = j * nx + i;
                    // Forward elimination over the column's layers.
                    for k in 0..nz {
                        let m = k * plane + col;
                        // RHS: b plus lateral neighbor terms at frozen values.
                        let mut rhs = b[m];
                        unsafe {
                            if i + 1 < nx {
                                rhs += op.gx[k] * *t.add(m + 1);
                            }
                            if i > 0 {
                                rhs += op.gx[k] * *t.add(m - 1);
                            }
                            if j + 1 < ny {
                                rhs += op.gy[k] * *t.add(m + nx);
                            }
                            if j > 0 {
                                rhs += op.gy[k] * *t.add(m - nx);
                            }
                        }
                        let diag = op.diag[m];
                        if k == 0 {
                            cp[0] = if nz > 1 { -op.gz[0] / diag } else { 0.0 };
                            dp[0] = rhs / diag;
                        } else {
                            let sub = -op.gz[k - 1];
                            let denom = diag - sub * cp[k - 1];
                            cp[k] = if k + 1 < nz { -op.gz[k] / denom } else { 0.0 };
                            dp[k] = (rhs - sub * dp[k - 1]) / denom;
                        }
                    }
                    // Back substitution writes the column in place.
                    unsafe {
                        let mut prev = dp[nz - 1];
                        *t.add((nz - 1) * plane + col) = prev;
                        for k in (0..nz - 1).rev() {
                            prev = dp[k] - cp[k] * prev;
                            *t.add(k * plane + col) = prev;
                        }
                    }
                    i += 2;
                }
            }
        });
    }
}

/// Dense Cholesky factorization of the coarsest operator, built by
/// applying the stencil to basis vectors. Returns `None` when the level is
/// too large to factor or the factorization hits a non-positive pivot
/// (numerically impossible for a well-formed SPD conductance matrix, but
/// handled rather than trusted).
fn cholesky(op: &StencilOp) -> Option<CoarseSolve> {
    let n = op.len();
    if n > MAX_DENSE {
        return None;
    }
    // Assemble A column by column; A is symmetric so row-major storage of
    // columns is equivalent.
    let mut a = vec![0.0; n * n];
    let mut e = vec![0.0; n];
    let mut col = vec![0.0; n];
    for jj in 0..n {
        e[jj] = 1.0;
        op.apply(&e, &mut col);
        e[jj] = 0.0;
        for ii in 0..n {
            a[ii * n + jj] = col[ii];
        }
    }
    // In-place lower-triangular Cholesky.
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= a[i * n + k] * a[j * n + k];
            }
            if i == j {
                if !(sum.is_finite() && sum > 0.0) {
                    return None;
                }
                a[i * n + i] = sum.sqrt();
            } else {
                a[i * n + j] = sum / a[j * n + j];
            }
        }
    }
    Some(CoarseSolve::Cholesky { l: a, n })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(layers: usize, nx: usize, ny: usize) -> StencilOp {
        let stack = LayerStack::mitll_0_18um(layers);
        StencilOp::discretize(&stack, None, 1.0e-3, 1.0e-3, nx, ny)
    }

    #[test]
    fn hierarchy_coarsens_to_the_lateral_floor() {
        let stack = LayerStack::mitll_0_18um(4);
        let fine = op(4, 64, 64);
        let mg = MgHierarchy::build(&stack, None, 1.0e-3, 1.0e-3, &fine, 0).unwrap();
        // 64 → 32 → 16 → 8 → 4.
        assert_eq!(mg.num_levels(), 5);
        let coarsest = &mg.levels[mg.num_levels() - 1].op;
        assert_eq!((coarsest.nx, coarsest.ny), (4, 4));
        assert!(matches!(mg.coarse, CoarseSolve::Cholesky { .. }));
    }

    #[test]
    fn level_cap_limits_depth_and_zero_means_auto() {
        let stack = LayerStack::mitll_0_18um(2);
        let fine = op(2, 32, 32);
        let capped = MgHierarchy::build(&stack, None, 1.0e-3, 1.0e-3, &fine, 2).unwrap();
        assert_eq!(capped.num_levels(), 2);
        let auto = MgHierarchy::build(&stack, None, 1.0e-3, 1.0e-3, &fine, 0).unwrap();
        assert_eq!(auto.num_levels(), 4); // 32 → 16 → 8 → 4
    }

    #[test]
    fn too_many_layers_reports_unbuildable() {
        // MAX_NZ node layers means MAX_NZ device layers + substrate > MAX_NZ.
        let stack = LayerStack::mitll_0_18um(MAX_NZ);
        let fine = StencilOp::discretize(&stack, None, 1.0e-3, 1.0e-3, 8, 8);
        assert!(MgHierarchy::build(&stack, None, 1.0e-3, 1.0e-3, &fine, 0).is_none());
    }

    #[test]
    fn restriction_is_the_transpose_of_prolongation() {
        // ⟨P·xc, yf⟩ must equal ⟨xc, Pᵀ·yf⟩ for arbitrary vectors — the
        // property that keeps the V-cycle symmetric for CG.
        let stack = LayerStack::mitll_0_18um(2);
        let fine = op(2, 9, 7); // odd sizes exercise the clamped stencil
        let coarse_op = StencilOp::discretize(
            &stack,
            None,
            1.0e-3,
            1.0e-3,
            fine.nx.div_ceil(2),
            fine.ny.div_ceil(2),
        );
        let nf = fine.len();
        let nc = coarse_op.len();
        // Deterministic pseudo-random fill.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let xc: Vec<f64> = (0..nc).map(|_| next()).collect();
        let yf: Vec<f64> = (0..nf).map(|_| next()).collect();

        let mut pxc = vec![0.0; nf];
        prolong(&coarse_op, &fine, &xc, &mut pxc);
        let mut pty = vec![0.0; nc];
        restrict(&fine, &coarse_op, &yf, &mut pty);

        let lhs: f64 = pxc.iter().zip(&yf).map(|(a, b)| a * b).sum();
        let rhs: f64 = xc.iter().zip(&pty).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() <= 1e-12 * lhs.abs().max(1.0),
            "⟨P xc, yf⟩ = {lhs} but ⟨xc, Pᵀ yf⟩ = {rhs}"
        );
    }

    #[test]
    fn smoother_error_contracts_monotonically_in_energy_norm() {
        // Gauss–Seidel relaxation (and line variants) reduce the error's
        // A-norm monotonically — the theorem the smoother leans on. (The
        // residual 2-norm is *not* monotone for GS, so that's not what we
        // test.) Manufacture a known solution so the error is computable.
        let fine = op(4, 16, 16);
        let n = fine.len();
        let x_true: Vec<f64> = (0..n)
            .map(|i| 1.0 + (i as f64 * 0.61).sin() * 0.3)
            .collect();
        let mut b = vec![0.0; n];
        fine.apply(&x_true, &mut b);

        let a_norm = |x: &[f64]| {
            let e: Vec<f64> = x.iter().zip(&x_true).map(|(a, t)| a - t).collect();
            let mut ae = vec![0.0; n];
            fine.apply(&e, &mut ae);
            e.iter().zip(&ae).map(|(a, c)| a * c).sum::<f64>().sqrt()
        };
        let mut x = vec![0.0; n];
        let mut last = a_norm(&x);
        for sweep in 0..8 {
            smooth(&fine, &b, &mut x, &[0, 1, 1, 0]);
            let now = a_norm(&x);
            assert!(
                now < last,
                "sweep {sweep}: error A-norm rose {last} → {now}"
            );
            last = now;
        }
    }

    #[test]
    fn smoother_is_bitwise_identical_across_thread_counts() {
        let fine = op(8, 48, 48);
        let n = fine.len();
        let b: Vec<f64> = (0..n)
            .map(|i| 1.0e-3 * (1.0 + (i % 13) as f64 * 0.21))
            .collect();
        let run = |threads: usize| {
            tvp_parallel::with_threads(threads, || {
                let mut x = vec![0.0; n];
                for _ in 0..3 {
                    smooth(&fine, &b, &mut x, &[0, 1, 1, 0]);
                }
                x
            })
        };
        let serial = run(1);
        for threads in [2usize, 4] {
            let threaded = run(threads);
            for (s, p) in serial.iter().zip(&threaded) {
                assert_eq!(s.to_bits(), p.to_bits());
            }
        }
    }

    #[test]
    fn vcycle_solves_better_than_one_jacobi_sweep() {
        // The whole point of the preconditioner: one V-cycle applied to
        // the raw right-hand side must land much closer to the solution
        // than one diagonal scaling does, and must contract the residual
        // well below where it started.
        let stack = LayerStack::mitll_0_18um(4);
        let fine = op(4, 32, 32);
        let n = fine.len();
        let mut mg = MgHierarchy::build(&stack, None, 1.0e-3, 1.0e-3, &fine, 0).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0e-3 * (1.0 + (i % 5) as f64)).collect();
        let b_norm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();

        let mut z = vec![0.0; n];
        mg.vcycle(&b, &mut z);
        let mut r = vec![0.0; n];
        fine.residual(&z, &b, &mut r);
        let mg_res: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();

        let zj: Vec<f64> = (0..n).map(|i| b[i] / fine.diag[i]).collect();
        fine.residual(&zj, &b, &mut r);
        let jac_res: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();

        assert!(
            mg_res < 0.3 * b_norm,
            "one V-cycle left {mg_res} of ‖b‖ = {b_norm}"
        );
        assert!(
            mg_res * 4.0 < jac_res,
            "V-cycle residual {mg_res} not ≪ Jacobi residual {jac_res}"
        );
    }

    #[test]
    fn cholesky_solves_the_coarsest_level_exactly() {
        let coarse_op = op(3, 4, 4);
        let n = coarse_op.len();
        let solver = cholesky(&coarse_op).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x = vec![0.0; n];
        solver.solve(&coarse_op, &b, &mut x);
        let mut r = vec![0.0; n];
        coarse_op.residual(&x, &b, &mut r);
        let res: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        let b_norm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(res <= 1e-12 * b_norm, "direct solve residual {res}");
    }
}
