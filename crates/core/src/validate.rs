//! Preflight validation of a netlist before placement.
//!
//! [`validate`] inspects a netlist (plus optional fixed positions and row
//! geometry) and returns a [`ValidationReport`] of structured
//! [`Diagnostic`]s — each with a machine-readable [`DiagnosticCode`], a
//! [`Severity`], and the offending cell/net name. Errors describe inputs
//! the pipeline cannot place meaningfully (zero-area cells, overlapping
//! fixed cells, more area than the die holds); warnings describe inputs
//! it handles but a designer probably didn't intend (degenerate nets,
//! disconnected cells).
//!
//! [`repair`] applies the safe subset of normalizations — clamping
//! degenerate cell dimensions and dropping nets with fewer than two pins
//! — and reports every change as a [`RepairAction`], so a design that
//! fails preflight for those reasons can be round-tripped into a
//! placeable one.
//!
//! The CLI surfaces both as `tvp validate` and runs [`validate`]
//! automatically before `tvp place`.

use std::fmt;
use tvp_netlist::{CellId, Netlist, NetlistBuilder};

/// How bad a [`Diagnostic`] is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// The pipeline tolerates this, but it is probably unintended.
    Warning,
    /// Placement would be meaningless or fail; fix (or `--repair`) first.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Machine-readable identity of a validation finding.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DiagnosticCode {
    /// A cell has non-positive width or height.
    ZeroAreaCell,
    /// A cell has NaN or infinite dimensions.
    NonFiniteCellDims,
    /// A net has no pins.
    EmptyNet,
    /// A net has exactly one pin (contributes nothing to wirelength).
    SinglePinNet,
    /// A fixed cell is seeded at a NaN or infinite position.
    NonFiniteFixedPosition,
    /// Two fixed cells occupy overlapping footprints on the same layer.
    OverlappingFixedCells,
    /// A cell is wider than the widest placement row.
    CellWiderThanRow,
    /// Total cell area exceeds the row capacity across all layers.
    AreaExceedsCapacity,
    /// A movable cell has no pins; nothing pulls it anywhere.
    DisconnectedCell,
    /// The netlist has no movable cells at all.
    NoMovableCells,
    /// The thermal objective is enabled (`alpha_temp > 0`) but no net
    /// both switches and has a driver, so the dynamic power map is
    /// all-zero and the thermal term cannot steer anything.
    ThermalObjectiveInert,
}

impl DiagnosticCode {
    /// Stable kebab-case code (what `tvp validate` prints in brackets).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::ZeroAreaCell => "zero-area-cell",
            DiagnosticCode::NonFiniteCellDims => "non-finite-cell-dims",
            DiagnosticCode::EmptyNet => "empty-net",
            DiagnosticCode::SinglePinNet => "single-pin-net",
            DiagnosticCode::NonFiniteFixedPosition => "non-finite-fixed-position",
            DiagnosticCode::OverlappingFixedCells => "overlapping-fixed-cells",
            DiagnosticCode::CellWiderThanRow => "cell-wider-than-row",
            DiagnosticCode::AreaExceedsCapacity => "area-exceeds-capacity",
            DiagnosticCode::DisconnectedCell => "disconnected-cell",
            DiagnosticCode::NoMovableCells => "no-movable-cells",
            DiagnosticCode::ThermalObjectiveInert => "thermal-objective-inert",
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One validation finding.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Machine-readable code.
    pub code: DiagnosticCode,
    /// Error or warning.
    pub severity: Severity,
    /// Name of the offending cell or net (empty for whole-design findings).
    pub subject: String,
    /// Human-readable explanation with the offending values.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.subject.is_empty() {
            write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
        } else {
            write!(
                f,
                "{}[{}]: {}: {}",
                self.severity, self.code, self.subject, self.message
            )
        }
    }
}

/// Everything [`validate`] found, in netlist order.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ValidationReport {
    /// All findings, errors and warnings interleaved in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl ValidationReport {
    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// `true` when no error-severity finding exists (warnings are fine).
    pub fn is_placeable(&self) -> bool {
        self.errors().next().is_none()
    }

    fn push(
        &mut self,
        code: DiagnosticCode,
        severity: Severity,
        subject: impl Into<String>,
        message: String,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            subject: subject.into(),
            message,
        });
    }
}

/// Context [`validate`] checks the netlist against.
#[derive(Clone, Copy, Debug, Default)]
pub struct ValidateOptions<'a> {
    /// Seeded positions of fixed cells (same tuples as
    /// [`Placer::place_with_fixed`](crate::Placer::place_with_fixed)):
    /// `(cell, x, y, layer)`, centers in meters. Used for the
    /// overlapping-fixed-cells check.
    pub fixed_positions: &'a [(CellId, f64, f64, u16)],
    /// Explicit row geometry `(y_bottom, height, x_left, x_right)` in
    /// meters, per layer. When absent the row-dependent checks (cell
    /// wider than a row, area vs. capacity) are skipped: the placer then
    /// derives a chip that auto-sizes to fit the widest cell.
    pub rows: Option<&'a [(f64, f64, f64, f64)]>,
    /// Layer count the rows repeat across (ignored without `rows`;
    /// clamped to at least 1).
    pub num_layers: u16,
    /// The `α_TEMP` the design would be placed with (0 = thermal term
    /// off). Enables the inert-thermal-objective check: a positive
    /// coefficient over an all-zero power map buys nothing.
    pub alpha_temp: f64,
}

/// Validates a netlist for placement and reports every finding.
///
/// Never fails and never panics; an unplaceable design simply yields a
/// report whose [`is_placeable`](ValidationReport::is_placeable) is
/// `false`.
pub fn validate(netlist: &Netlist, options: &ValidateOptions<'_>) -> ValidationReport {
    let mut report = ValidationReport::default();

    // Per-cell geometry.
    for (id, cell) in netlist.iter_cells() {
        let (w, h) = (cell.width(), cell.height());
        if !w.is_finite() || !h.is_finite() {
            report.push(
                DiagnosticCode::NonFiniteCellDims,
                Severity::Error,
                cell.name(),
                format!("dimensions {w} x {h} m are not finite"),
            );
        } else if w <= 0.0 || h <= 0.0 {
            report.push(
                DiagnosticCode::ZeroAreaCell,
                Severity::Error,
                cell.name(),
                format!("dimensions {w} x {h} m enclose no area"),
            );
        }
        if cell.is_movable() && netlist.cell_pins(id).is_empty() {
            report.push(
                DiagnosticCode::DisconnectedCell,
                Severity::Warning,
                cell.name(),
                "movable cell has no pins; placement puts it anywhere".into(),
            );
        }
    }

    // Per-net degeneracy.
    for (_, net) in netlist.iter_nets() {
        match net.degree() {
            0 => report.push(
                DiagnosticCode::EmptyNet,
                Severity::Warning,
                net.name(),
                "net has no pins".into(),
            ),
            1 => report.push(
                DiagnosticCode::SinglePinNet,
                Severity::Warning,
                net.name(),
                "net has a single pin and contributes nothing to wirelength".into(),
            ),
            _ => {}
        }
    }

    // Whole-design placeability.
    let movable = netlist.cells().iter().filter(|c| c.is_movable()).count();
    if movable == 0 {
        report.push(
            DiagnosticCode::NoMovableCells,
            Severity::Error,
            "",
            "netlist has no movable cells; there is nothing to place".into(),
        );
    }

    // Thermal-objective sanity: with default technology parameters
    // (zero per-cell leakage) the Eq. 10 power map deposits each net's
    // dynamic power at its driver, so the map is identically zero when
    // no net both switches and has a driver — a positive alpha_temp
    // then multiplies zeros and the run pays for thermal solves that
    // cannot steer the placement.
    if options.alpha_temp > 0.0
        && netlist
            .nets()
            .iter()
            .all(|net| net.switching_activity() <= 0.0 || net.driver().is_none())
    {
        report.push(
            DiagnosticCode::ThermalObjectiveInert,
            Severity::Warning,
            "",
            format!(
                "alpha_temp = {:e} but no net both switches and has a driver: \
                 the power map is all-zero and the thermal objective term is inert",
                options.alpha_temp
            ),
        );
    }

    // Non-finite fixed positions: nothing downstream can place against
    // them, and every comparison with NaN is false.
    let known = options
        .fixed_positions
        .iter()
        .copied()
        .filter(|&(c, ..)| c.index() < netlist.num_cells());
    for (c, x, y, _) in known.clone() {
        if !x.is_finite() || !y.is_finite() {
            report.push(
                DiagnosticCode::NonFiniteFixedPosition,
                Severity::Error,
                netlist.cell(c).name(),
                format!("fixed position ({x}, {y}) is not finite"),
            );
        }
    }

    // Overlapping fixed cells (footprints centered on the seeded
    // positions, same layer only). Fixed sets are small, so the pairwise
    // scan is fine.
    let placed: Vec<(CellId, f64, f64, u16)> = known
        .filter(|&(_, x, y, _)| x.is_finite() && y.is_finite())
        .collect();
    for (i, &(ca, xa, ya, la)) in placed.iter().enumerate() {
        for &(cb, xb, yb, lb) in &placed[i + 1..] {
            if la != lb || ca == cb {
                continue;
            }
            let (a, b) = (netlist.cell(ca), netlist.cell(cb));
            let half_w = (a.width() + b.width()) / 2.0;
            let half_h = (a.height() + b.height()) / 2.0;
            // Strict overlap: abutting edges are legal.
            let eps = 1e-12;
            if (xa - xb).abs() < half_w - eps && (ya - yb).abs() < half_h - eps {
                report.push(
                    DiagnosticCode::OverlappingFixedCells,
                    Severity::Error,
                    a.name(),
                    format!(
                        "fixed footprint overlaps fixed cell `{}` on layer {la}",
                        b.name()
                    ),
                );
            }
        }
    }

    // Row-dependent checks.
    if let Some(rows) = options.rows {
        let widest_row = rows
            .iter()
            .map(|&(_, _, xl, xr)| xr - xl)
            .fold(0.0_f64, f64::max);
        if widest_row > 0.0 {
            for (_, cell) in netlist.iter_cells() {
                let w = cell.width();
                if w.is_finite() && w > widest_row {
                    report.push(
                        DiagnosticCode::CellWiderThanRow,
                        Severity::Error,
                        cell.name(),
                        format!("cell width {w} m exceeds the widest row span {widest_row} m"),
                    );
                }
            }
        }
        let layers = options.num_layers.max(1) as f64;
        let capacity: f64 = rows
            .iter()
            .map(|&(_, h, xl, xr)| (xr - xl).max(0.0) * h.max(0.0))
            .sum::<f64>()
            * layers;
        let area = netlist.total_cell_area();
        if area.is_finite() && capacity > 0.0 && area > capacity {
            report.push(
                DiagnosticCode::AreaExceedsCapacity,
                Severity::Error,
                "",
                format!(
                    "total cell area {area:.3e} m^2 exceeds row capacity {capacity:.3e} m^2 \
                     across {} layer(s)",
                    options.num_layers.max(1)
                ),
            );
        }
    }

    report
}

/// One normalization [`repair`] applied.
#[derive(Clone, PartialEq, Debug)]
pub struct RepairAction {
    /// The finding the action fixes.
    pub code: DiagnosticCode,
    /// Name of the repaired cell or net.
    pub subject: String,
    /// What was changed.
    pub detail: String,
}

impl fmt::Display for RepairAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "repair[{}]: {}: {}",
            self.code, self.subject, self.detail
        )
    }
}

/// Whether [`repair`] acts on at least one of `report`'s errors. It
/// clamps degenerate cell dimensions and drops nets with fewer than two
/// pins; every other error (a bad fixed position, overlapping fixed
/// cells, too little capacity) needs a fix it cannot make.
pub fn repair_fixes_an_error(report: &ValidationReport) -> bool {
    report.errors().any(|d| {
        matches!(
            d.code,
            DiagnosticCode::ZeroAreaCell
                | DiagnosticCode::NonFiniteCellDims
                | DiagnosticCode::EmptyNet
                | DiagnosticCode::SinglePinNet
        )
    })
}

/// Applies the safe normalizations: clamps non-finite or non-positive
/// cell dimensions to the design's typical (first finite positive) value,
/// and drops nets with fewer than two pins. Cell kinds, net weights,
/// switching activities, and pin directions/offsets are preserved.
///
/// Returns the repaired netlist and the list of actions taken (empty when
/// nothing needed fixing — the netlist is still rebuilt).
///
/// # Errors
///
/// Propagates [`BuildNetlistError`](tvp_netlist::BuildNetlistError) from
/// the rebuild. This cannot happen for a netlist that itself came out of
/// a [`NetlistBuilder`], since repair only removes elements.
pub fn repair(
    netlist: &Netlist,
) -> Result<(Netlist, Vec<RepairAction>), tvp_netlist::BuildNetlistError> {
    let mut actions = Vec::new();

    let good = |v: f64| v.is_finite() && v > 0.0;
    let fallback_w = netlist
        .cells()
        .iter()
        .map(|c| c.width())
        .find(|&w| good(w))
        .unwrap_or(1e-6);
    let fallback_h = netlist
        .cells()
        .iter()
        .map(|c| c.height())
        .find(|&h| good(h))
        .unwrap_or(1e-6);

    let mut builder =
        NetlistBuilder::with_capacity(netlist.num_cells(), netlist.num_nets(), netlist.num_pins());

    let mut cell_map = Vec::with_capacity(netlist.num_cells());
    for (_, cell) in netlist.iter_cells() {
        let (mut w, mut h) = (cell.width(), cell.height());
        if !good(w) || !good(h) {
            let (ow, oh) = (w, h);
            if !good(w) {
                w = fallback_w;
            }
            if !good(h) {
                h = fallback_h;
            }
            actions.push(RepairAction {
                code: if ow.is_finite() && oh.is_finite() {
                    DiagnosticCode::ZeroAreaCell
                } else {
                    DiagnosticCode::NonFiniteCellDims
                },
                subject: cell.name().to_string(),
                detail: format!("dimensions {ow} x {oh} m clamped to {w} x {h} m"),
            });
        }
        cell_map.push(builder.add_cell_with_kind(cell.name(), w, h, cell.kind()));
    }

    for (nid, net) in netlist.iter_nets() {
        if net.degree() < 2 {
            actions.push(RepairAction {
                code: if net.degree() == 0 {
                    DiagnosticCode::EmptyNet
                } else {
                    DiagnosticCode::SinglePinNet
                },
                subject: net.name().to_string(),
                detail: format!("dropped net with {} pin(s)", net.degree()),
            });
            continue;
        }
        let id = builder.add_net(net.name());
        builder.set_net_weight(id, net.weight())?;
        builder.set_switching_activity(id, net.switching_activity())?;
        for &pin_id in netlist.net_pins(nid) {
            let pin = netlist.pin(pin_id);
            builder.connect_with_offset(
                id,
                cell_map[pin.cell().index()],
                pin.direction(),
                pin.offset_x(),
                pin.offset_y(),
            )?;
        }
    }

    Ok((builder.build()?, actions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_netlist::{CellKind, PinDirection};

    fn two_cell_net(b: &mut NetlistBuilder, name: &str, a: CellId, z: CellId) {
        let n = b.add_net(name);
        b.connect(n, a, PinDirection::Output).unwrap();
        b.connect(n, z, PinDirection::Input).unwrap();
    }

    fn codes(report: &ValidationReport) -> Vec<DiagnosticCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_netlist_is_placeable_with_no_findings() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1e-6, 1e-6);
        let z = b.add_cell("z", 1e-6, 1e-6);
        two_cell_net(&mut b, "n", a, z);
        let netlist = b.build().unwrap();
        let report = validate(&netlist, &ValidateOptions::default());
        assert!(report.is_placeable());
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn flags_zero_area_and_non_finite_dims_as_errors() {
        // The strict builder rejects these dims; permissive mode exists
        // precisely so diagnostics and repair can see them.
        let mut b = NetlistBuilder::new().permissive();
        let a = b.add_cell("flat", 1e-6, 0.0);
        let z = b.add_cell("nan", f64::NAN, 1e-6);
        two_cell_net(&mut b, "n", a, z);
        let netlist = b.build().unwrap();
        let report = validate(&netlist, &ValidateOptions::default());
        assert!(!report.is_placeable());
        assert!(codes(&report).contains(&DiagnosticCode::ZeroAreaCell));
        assert!(codes(&report).contains(&DiagnosticCode::NonFiniteCellDims));
        let flat = report.errors().find(|d| d.subject == "flat").unwrap();
        assert_eq!(flat.code, DiagnosticCode::ZeroAreaCell);
    }

    #[test]
    fn flags_degenerate_nets_as_warnings() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1e-6, 1e-6);
        let z = b.add_cell("z", 1e-6, 1e-6);
        two_cell_net(&mut b, "ok", a, z);
        b.add_net("empty");
        let single = b.add_net("single");
        b.connect(single, a, PinDirection::Output).unwrap();
        let netlist = b.build().unwrap();
        let report = validate(&netlist, &ValidateOptions::default());
        assert!(report.is_placeable(), "warnings only");
        assert_eq!(report.warnings().count(), 2);
        assert!(codes(&report).contains(&DiagnosticCode::EmptyNet));
        assert!(codes(&report).contains(&DiagnosticCode::SinglePinNet));
    }

    #[test]
    fn flags_disconnected_movable_and_all_fixed() {
        let mut b = NetlistBuilder::new();
        b.add_cell("loner", 1e-6, 1e-6);
        let netlist = b.build().unwrap();
        let report = validate(&netlist, &ValidateOptions::default());
        assert!(codes(&report).contains(&DiagnosticCode::DisconnectedCell));

        let mut b = NetlistBuilder::new();
        let a = b.add_cell_with_kind("p0", 1e-6, 1e-6, CellKind::Pad);
        let z = b.add_cell_with_kind("p1", 1e-6, 1e-6, CellKind::Fixed);
        two_cell_net(&mut b, "n", a, z);
        let netlist = b.build().unwrap();
        let report = validate(&netlist, &ValidateOptions::default());
        assert!(!report.is_placeable());
        assert!(codes(&report).contains(&DiagnosticCode::NoMovableCells));
    }

    #[test]
    fn flags_non_finite_fixed_positions_as_errors() {
        let mut b = NetlistBuilder::new();
        let f0 = b.add_cell_with_kind("f0", 2e-6, 2e-6, CellKind::Fixed);
        let f1 = b.add_cell_with_kind("f1", 2e-6, 2e-6, CellKind::Fixed);
        let m = b.add_cell("m", 1e-6, 1e-6);
        two_cell_net(&mut b, "n", f0, m);
        two_cell_net(&mut b, "n2", f1, m);
        let netlist = b.build().unwrap();

        let positions = [(f0, f64::NAN, 0.0, 0), (f1, 5e-6, f64::INFINITY, 0)];
        let report = validate(
            &netlist,
            &ValidateOptions {
                fixed_positions: &positions,
                ..ValidateOptions::default()
            },
        );
        assert!(!report.is_placeable());
        let flagged: Vec<&str> = report
            .errors()
            .filter(|d| d.code == DiagnosticCode::NonFiniteFixedPosition)
            .map(|d| d.subject.as_str())
            .collect();
        assert_eq!(flagged, ["f0", "f1"]);
        assert_eq!(
            DiagnosticCode::NonFiniteFixedPosition.as_str(),
            "non-finite-fixed-position"
        );
    }

    #[test]
    fn flags_overlapping_fixed_cells_only_on_same_layer() {
        let mut b = NetlistBuilder::new();
        let f0 = b.add_cell_with_kind("f0", 2e-6, 2e-6, CellKind::Fixed);
        let f1 = b.add_cell_with_kind("f1", 2e-6, 2e-6, CellKind::Fixed);
        let m = b.add_cell("m", 1e-6, 1e-6);
        two_cell_net(&mut b, "n", f0, m);
        two_cell_net(&mut b, "n2", f1, m);
        let netlist = b.build().unwrap();

        let overlapping = [(f0, 0.0, 0.0, 0), (f1, 1e-6, 0.0, 0)];
        let report = validate(
            &netlist,
            &ValidateOptions {
                fixed_positions: &overlapping,
                ..ValidateOptions::default()
            },
        );
        assert!(codes(&report).contains(&DiagnosticCode::OverlappingFixedCells));

        for positions in [
            [(f0, 0.0, 0.0, 0), (f1, 1e-6, 0.0, 1)], // different layer
            [(f0, 0.0, 0.0, 0), (f1, 2e-6, 0.0, 0)], // abutting
        ] {
            let report = validate(
                &netlist,
                &ValidateOptions {
                    fixed_positions: &positions,
                    ..ValidateOptions::default()
                },
            );
            assert!(report.is_placeable(), "{positions:?}");
        }
    }

    #[test]
    fn row_checks_fire_only_with_rows() {
        let mut b = NetlistBuilder::new();
        let wide = b.add_cell("wide", 50e-6, 1e-6);
        let z = b.add_cell("z", 1e-6, 1e-6);
        two_cell_net(&mut b, "n", wide, z);
        let netlist = b.build().unwrap();

        let report = validate(&netlist, &ValidateOptions::default());
        assert!(report.is_placeable(), "no rows, no row checks");

        // One 10 µm x 1 µm row: the 50 µm cell cannot fit, and total area
        // exceeds capacity.
        let rows = [(0.0, 1e-6, 0.0, 10e-6)];
        let report = validate(
            &netlist,
            &ValidateOptions {
                rows: Some(&rows),
                num_layers: 1,
                ..ValidateOptions::default()
            },
        );
        assert!(codes(&report).contains(&DiagnosticCode::CellWiderThanRow));
        assert!(codes(&report).contains(&DiagnosticCode::AreaExceedsCapacity));
        // More layers give enough capacity, but the width error stays.
        let report = validate(
            &netlist,
            &ValidateOptions {
                rows: Some(&rows),
                num_layers: 8,
                ..ValidateOptions::default()
            },
        );
        assert!(codes(&report).contains(&DiagnosticCode::CellWiderThanRow));
        assert!(!codes(&report).contains(&DiagnosticCode::AreaExceedsCapacity));
    }

    #[test]
    fn inert_thermal_objective_is_a_warning_only_with_alpha_temp() {
        // A net that never switches deposits no power at its driver.
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1e-6, 1e-6);
        let z = b.add_cell("z", 1e-6, 1e-6);
        let quiet = b.add_net("n");
        b.connect(quiet, a, PinDirection::Output).unwrap();
        b.connect(quiet, z, PinDirection::Input).unwrap();
        b.set_switching_activity(quiet, 0.0).unwrap();
        // A switching net with no driver has nowhere to deposit power.
        let floating = b.add_net("f");
        b.connect(floating, a, PinDirection::Input).unwrap();
        b.connect(floating, z, PinDirection::Input).unwrap();
        let silent = b.build().unwrap();

        let report = validate(&silent, &ValidateOptions::default());
        assert!(
            !codes(&report).contains(&DiagnosticCode::ThermalObjectiveInert),
            "alpha_temp = 0 never warns"
        );
        let report = validate(
            &silent,
            &ValidateOptions {
                alpha_temp: 1.0e-4,
                ..ValidateOptions::default()
            },
        );
        assert!(codes(&report).contains(&DiagnosticCode::ThermalObjectiveInert));
        assert!(report.is_placeable(), "warning, not an error");

        // One switching net makes the power map non-zero: no warning.
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1e-6, 1e-6);
        let z = b.add_cell("z", 1e-6, 1e-6);
        let n = b.add_net("n");
        b.connect(n, a, PinDirection::Output).unwrap();
        b.connect(n, z, PinDirection::Input).unwrap();
        b.set_switching_activity(n, 0.2).unwrap();
        let switching = b.build().unwrap();
        let report = validate(
            &switching,
            &ValidateOptions {
                alpha_temp: 1.0e-4,
                ..ValidateOptions::default()
            },
        );
        assert!(!codes(&report).contains(&DiagnosticCode::ThermalObjectiveInert));
    }

    #[test]
    fn repair_round_trips_to_a_placeable_design() {
        let mut b = NetlistBuilder::new().permissive();
        let a = b.add_cell("a", 1e-6, 2e-6);
        let bad = b.add_cell("bad", f64::INFINITY, 0.0);
        two_cell_net(&mut b, "keep", a, bad);
        b.add_net("empty");
        let single = b.add_net("single");
        b.connect(single, a, PinDirection::Output).unwrap();
        let netlist = b.build().unwrap();
        assert!(!validate(&netlist, &ValidateOptions::default()).is_placeable());

        let (fixed, actions) = repair(&netlist).unwrap();
        assert_eq!(actions.len(), 3, "one clamp, two dropped nets: {actions:?}");
        let report = validate(&fixed, &ValidateOptions::default());
        assert!(report.is_placeable(), "{report:?}");
        assert_eq!(fixed.num_nets(), 1);
        // The clamped cell takes the design's typical dimensions.
        let bad_fixed = &fixed.cells()[bad.index()];
        assert_eq!(bad_fixed.width(), 1e-6);
        assert_eq!(bad_fixed.height(), 2e-6);
    }

    #[test]
    fn repair_preserves_kinds_weights_activities_and_offsets() {
        let mut b = NetlistBuilder::new();
        let pad = b.add_cell_with_kind("pad", 1e-6, 1e-6, CellKind::Pad);
        let m = b.add_cell("m", 1e-6, 1e-6);
        let n = b.add_net("n");
        b.connect_with_offset(n, pad, PinDirection::Output, 0.25e-6, -0.25e-6)
            .unwrap();
        b.connect(n, m, PinDirection::Input).unwrap();
        b.set_net_weight(n, 3.5).unwrap();
        b.set_switching_activity(n, 0.7).unwrap();
        let netlist = b.build().unwrap();

        let (fixed, actions) = repair(&netlist).unwrap();
        assert!(actions.is_empty());
        assert_eq!(fixed.cells()[0].kind(), CellKind::Pad);
        let net = &fixed.nets()[0];
        assert_eq!(net.weight(), 3.5);
        assert_eq!(net.switching_activity(), 0.7);
        let driver = fixed.pin(net.driver().unwrap());
        assert_eq!(driver.offset_x(), 0.25e-6);
        assert_eq!(driver.offset_y(), -0.25e-6);
        assert_eq!(fixed.num_pins(), netlist.num_pins());
    }

    #[test]
    fn diagnostics_render_code_and_subject() {
        let d = Diagnostic {
            code: DiagnosticCode::ZeroAreaCell,
            severity: Severity::Error,
            subject: "c7".into(),
            message: "dimensions 0 x 0 m enclose no area".into(),
        };
        assert_eq!(
            d.to_string(),
            "error[zero-area-cell]: c7: dimensions 0 x 0 m enclose no area"
        );
    }
}
