//! The placement objective (Eq. 3) with O(1)-amortized incremental
//! evaluation.
//!
//! ```text
//! F = Σ_nets [ WL_i + α_ILV · ILV_i ]  +  α_TEMP · Σ_cells [ R_j · P_j ]
//! ```
//!
//! where `WL_i` is half-perimeter wirelength, `ILV_i` the net's layer span,
//! `R_j` the straight-path thermal resistance of cell `j` at its current
//! position, and `P_j` the dynamic power it dissipates (Eq. 10). Every
//! placement stage — moves, swaps, shifting, legalization — prices its
//! candidate moves through [`IncrementalObjective`].
//!
//! # Delta engine
//!
//! Instead of rescanning a net's full bounding box per probe, the evaluator
//! tracks per-net, per-axis extremes with their multiplicities
//! (`NetExtremes`): the min and max pin coordinate on each axis plus how
//! many pins sit exactly at each extreme. Moving a pin then prices in O(1)
//! per incident net — a full rescan is needed only when the *unique* pin at
//! an extreme retreats inward, which is amortized away over random move
//! sequences.
//!
//! Pricing (`delta_move`, `delta_pair`, `delta_swap`) never touches the
//! committed caches. Every move, in both objective modes, prices through
//! one fold ([`IncrementalObjective::delta_move`]): per net of the moved
//! cell, the WL + α_ILV·ILV change read from the probe memo (below) and,
//! with the thermal term, that net's power change at its driver's cached
//! resistance; last, the cell's own change in `R·P`. `apply_move` patches
//! the caches in place and returns that fold's delta bit for bit.
//!
//! A pair of moves (a swap, or refinement's adjacent swap) prices as two
//! such folds. The first leg is the first cell's ordinary fold. The
//! second leg folds the other cell's entries, except that an entry on a
//! net the first cell also touches is built on the spot: its exclusion
//! extremes and old geometry come from a scan of the net with the first
//! cell at its target. With the thermal term, the second leg reads the
//! first cell's resistance at its target, and the second cell's starting
//! power carries the first leg's power changes on the nets it drives,
//! added in the first cell's net order. Each leg is thus exactly what
//! committing it after the other adds to `total`, so `apply_pair`
//! commits each leg in place and adds the two priced legs, in order. A
//! sweep commit (`apply_sweep`) prices nothing: it rescans the nets its
//! moves touch and refolds the total, like a partial `rebuild`.
//!
//! # Probe memo
//!
//! Single-cell pricing and the coarse optimal-region rectangles both read
//! one *probe entry* per (cell, distinct net): the net's extremes with
//! the cell's own pins excluded, plus the committed geometry. The
//! evaluator owns one lazily built memo of these entries. It is `Sync`,
//! so every worker of a parallel phase prices through one shared borrow
//! of the evaluator, and an entry one worker builds serves them all.
//! Each entry is a pure function of the committed state of its net, so
//! the memo's only invalidation rule is exact: a commit that moves a
//! cell drops the entries of every net that cell touches, and `rebuild`
//! drops them all. Nothing outside this module creates or drops entries.
//! The thermal fold reads powers and resistances from the live caches,
//! never from an entry, and a pair's on-the-spot entries are never
//! memoized, so the rule holds in both modes.
//!
//! Cells connecting to one net through several pins are handled by a
//! per-cell *distinct-net* CSR shared by pricing and commit: each incident
//! net is priced exactly once, with all of the cell's pins on it updated
//! together (the per-pin view double-counted such nets).
//!
//! Determinism contract (DESIGN.md §8, §11): every cached value is the
//! result of the same pin-order scan or exact O(1) extreme update, so the
//! incremental caches stay bitwise equal to a from-scratch `rebuild`
//! (`IncrementalObjective::rebuild`) after arbitrary move/swap sequences,
//! at every thread count.

use crate::power::PowerModel;
use crate::{Chip, Placement, PlacerConfig};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use tvp_netlist::{CellId, NetId, Netlist, PinId};
use tvp_parallel as parallel;
use tvp_thermal::ResistanceModel;

/// Minimum nets/cells per parallel chunk when rebuilding caches; smaller
/// designs run single-chunk (serially) where threading overhead would
/// dominate.
const REBUILD_MIN_CHUNK: usize = 512;

/// Below this many nets/cells the rebuild passes skip pool dispatch and
/// run their chunks inline (bitwise identical): BENCH_hotpaths.json showed
/// the dispatched path regressing 0.087 → 0.113 ms on small designs.
const REBUILD_SERIAL_BELOW: usize = 4096;
/// Minimum elements per chunk for the scalar reductions in
/// `compute_total`.
const SUM_MIN_CHUNK: usize = 4096;

/// Static (placement-independent) parts of the objective.
#[derive(Clone, Debug)]
pub struct ObjectiveModel {
    /// Interlayer via coefficient `α_ILV`, meters.
    pub alpha_ilv: f64,
    /// Thermal coefficient `α_TEMP`, meters per kelvin.
    pub alpha_temp: f64,
    power: PowerModel,
    resistance: ResistanceModel,
}

impl ObjectiveModel {
    /// Builds the objective model for a netlist on a chip.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model construction errors for invalid chip
    /// geometry.
    pub fn new(
        netlist: &Netlist,
        chip: &Chip,
        config: &PlacerConfig,
    ) -> Result<Self, crate::PlaceError> {
        // A 3D via crosses the bonding dielectric between tiers; its
        // capacitance is `C_per_ilv_length` times that crossing length.
        let power = PowerModel::new(netlist, &config.tech, chip.stack.interlayer_thickness);
        let resistance = ResistanceModel::new(chip.stack, chip.width, chip.depth)?;
        Ok(Self {
            alpha_ilv: config.alpha_ilv,
            alpha_temp: config.alpha_temp,
            power,
            resistance,
        })
    }

    /// The per-net power coefficients.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The straight-path resistance model.
    pub fn resistance(&self) -> &ResistanceModel {
        &self.resistance
    }

    /// `R_j^cell` for a cell of the given area at a position.
    pub fn cell_resistance(&self, x: f64, y: f64, layer: u16, cell_area: f64) -> f64 {
        self.resistance
            .cell_resistance(x, y, layer as usize, cell_area)
    }
}

/// Per-net geometry: HPWL components and layer span.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct NetGeometry {
    /// X span of the net's pins, meters.
    pub wl_x: f64,
    /// Y span of the net's pins, meters.
    pub wl_y: f64,
    /// Layer span = number of interlayer boundaries the net crosses.
    pub ilv: f64,
}

impl NetGeometry {
    /// Half-perimeter wirelength, meters.
    #[inline]
    pub fn wirelength(&self) -> f64 {
        self.wl_x + self.wl_y
    }
}

/// Per-net, per-axis extremes with multiplicities: the min/max pin
/// coordinate on each axis plus the number of pins sitting exactly at each
/// extreme. `x_min_n == 0` marks a pinless net (canonical zero geometry).
///
/// The counts are what make O(1) updates sound: a move away from an
/// extreme only forces a rescan when the count says the moved pin was the
/// *only* one there.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
struct NetExtremes {
    x_min: f64,
    x_max: f64,
    y_min: f64,
    y_max: f64,
    l_min: u16,
    l_max: u16,
    x_min_n: u32,
    x_max_n: u32,
    y_min_n: u32,
    y_max_n: u32,
    l_min_n: u32,
    l_max_n: u32,
}

impl NetExtremes {
    /// Derives the HPWL/ILV geometry. Bitwise identical to what the old
    /// full-scan produced: the same subtraction of the same extremes.
    #[inline]
    fn geometry(&self) -> NetGeometry {
        if self.x_min_n == 0 {
            return NetGeometry::default();
        }
        NetGeometry {
            wl_x: self.x_max - self.x_min,
            wl_y: self.y_max - self.y_min,
            ilv: (self.l_max - self.l_min) as f64,
        }
    }

    #[inline]
    fn first(px: f64, py: f64, l: u16) -> Self {
        Self {
            x_min: px,
            x_max: px,
            y_min: py,
            y_max: py,
            l_min: l,
            l_max: l,
            x_min_n: 1,
            x_max_n: 1,
            y_min_n: 1,
            y_max_n: 1,
            l_min_n: 1,
            l_max_n: 1,
        }
    }

    /// Folds one pin into the extremes (scan path).
    #[inline]
    fn accumulate(&mut self, px: f64, py: f64, l: u16) {
        if self.x_min_n == 0 {
            *self = Self::first(px, py, l);
            return;
        }
        acc_min(&mut self.x_min, &mut self.x_min_n, px);
        acc_max(&mut self.x_max, &mut self.x_max_n, px);
        acc_min(&mut self.y_min, &mut self.y_min_n, py);
        acc_max(&mut self.y_max, &mut self.y_max_n, py);
        acc_min(&mut self.l_min, &mut self.l_min_n, l);
        acc_max(&mut self.l_max, &mut self.l_max_n, l);
    }

    /// O(1) update for one pin moving `old → new` on every axis. Returns
    /// `false` when a unique extreme retreated and a rescan is required
    /// (`self` is then partially updated and must be discarded).
    #[inline]
    fn update(&mut self, (ox, oy, ol): (f64, f64, u16), (nx, ny, nl): (f64, f64, u16)) -> bool {
        upd_min(&mut self.x_min, &mut self.x_min_n, ox, nx)
            && upd_max(&mut self.x_max, &mut self.x_max_n, ox, nx)
            && upd_min(&mut self.y_min, &mut self.y_min_n, oy, ny)
            && upd_max(&mut self.y_max, &mut self.y_max_n, oy, ny)
            && upd_min(&mut self.l_min, &mut self.l_min_n, ol, nl)
            && upd_max(&mut self.l_max, &mut self.l_max_n, ol, nl)
    }
}

#[inline]
fn acc_min<T: PartialOrd + Copy>(m: &mut T, n: &mut u32, v: T) {
    if v < *m {
        *m = v;
        *n = 1;
    } else if v == *m {
        *n += 1;
    }
}

#[inline]
fn acc_max<T: PartialOrd + Copy>(m: &mut T, n: &mut u32, v: T) {
    if v > *m {
        *m = v;
        *n = 1;
    } else if v == *m {
        *n += 1;
    }
}

/// One pin leaves value `ov` and arrives at `nv`; maintain the min and its
/// multiplicity. `false` = the unique min pin retreated, rescan.
#[inline]
fn upd_min<T: PartialOrd + Copy>(m: &mut T, n: &mut u32, ov: T, nv: T) -> bool {
    if ov == *m {
        if nv < *m {
            *m = nv;
            *n = 1;
        } else if nv != *m {
            if *n == 1 {
                return false;
            }
            *n -= 1;
        }
        true
    } else {
        acc_min(m, n, nv);
        true
    }
}

/// Mirror of [`upd_min`] for the max side.
#[inline]
fn upd_max<T: PartialOrd + Copy>(m: &mut T, n: &mut u32, ov: T, nv: T) -> bool {
    if ov == *m {
        if nv > *m {
            *m = nv;
            *n = 1;
        } else if nv != *m {
            if *n == 1 {
                return false;
            }
            *n -= 1;
        }
        true
    } else {
        acc_max(m, n, nv);
        true
    }
}

/// Full pin scan of one net, with up to a handful of position overrides
/// (later entries win). Pin order matches the builder's net pin
/// order, so the result is deterministic and thread-count independent.
fn scan_net_extremes(
    netlist: &Netlist,
    placement: &Placement,
    e: NetId,
    moved: &[(CellId, (f64, f64, u16))],
) -> NetExtremes {
    let mut ext = NetExtremes::default();
    for &p in netlist.net_pins(e) {
        let pin = netlist.pin(p);
        let cell = pin.cell();
        let mut pos = placement.position(cell);
        for &(m, mp) in moved {
            if m == cell {
                pos = mp;
            }
        }
        ext.accumulate(pos.0 + pin.offset_x(), pos.1 + pin.offset_y(), pos.2);
    }
    ext
}

/// Count-free bounding-box scan with one cell's position overridden —
/// the arithmetic of the pre-delta-engine per-probe kernel, kept as the
/// benchmark reference and test oracle for
/// [`IncrementalObjective::delta_move_rescan`].
fn scan_net_bbox(
    netlist: &Netlist,
    placement: &Placement,
    e: NetId,
    moved: CellId,
    pos: (f64, f64, u16),
) -> NetGeometry {
    let mut first = true;
    let (mut x0, mut x1, mut y0, mut y1) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut l0, mut l1) = (0u16, 0u16);
    for &p in netlist.net_pins(e) {
        let pin = netlist.pin(p);
        let cell = pin.cell();
        let (cx, cy, cl) = if cell == moved {
            pos
        } else {
            placement.position(cell)
        };
        let (px, py) = (cx + pin.offset_x(), cy + pin.offset_y());
        if first {
            (x0, x1, y0, y1, l0, l1) = (px, px, py, py, cl, cl);
            first = false;
        } else {
            x0 = x0.min(px);
            x1 = x1.max(px);
            y0 = y0.min(py);
            y1 = y1.max(py);
            l0 = l0.min(cl);
            l1 = l1.max(cl);
        }
    }
    if first {
        return NetGeometry::default();
    }
    NetGeometry {
        wl_x: x1 - x0,
        wl_y: y1 - y0,
        ilv: (l1 - l0) as f64,
    }
}

/// Per-cell distinct-incident-net CSR: for each cell, one entry per
/// *distinct* net it touches (first-occurrence order, which equals pin
/// order for netlists without shared-net pins), with the cell's pins on
/// that net grouped together. Shared by pricing and commit so a
/// multi-pin-same-net cell prices each net exactly once.
#[derive(Clone, Debug, Default)]
struct DistinctNets {
    /// `entries[offsets[c]..offsets[c+1]]` are cell `c`'s distinct nets.
    offsets: Vec<u32>,
    /// `(net, pin_lo, pin_hi)`: pins are `pins[pin_lo..pin_hi]`.
    entries: Vec<(NetId, u32, u32)>,
    /// Pin IDs grouped by (cell, net).
    pins: Vec<PinId>,
    /// For each pin, the index of its (cell, net) entry — how a commit
    /// finds the probe-memo slots of a net's pin cells.
    pin_entry: Vec<u32>,
}

impl DistinctNets {
    fn build(netlist: &Netlist) -> Self {
        let mut offsets = Vec::with_capacity(netlist.num_cells() + 1);
        let mut entries = Vec::with_capacity(netlist.num_pins());
        let mut pins = Vec::with_capacity(netlist.num_pins());
        let mut pin_entry = vec![0u32; netlist.num_pins()];
        let mut buf: Vec<(NetId, PinId)> = Vec::new();
        offsets.push(0u32);
        for c in 0..netlist.num_cells() {
            buf.clear();
            for &p in netlist.cell_pins(CellId::new(c)) {
                buf.push((netlist.pin(p).net(), p));
            }
            for i in 0..buf.len() {
                let (e, _) = buf[i];
                if buf[..i].iter().any(|&(e2, _)| e2 == e) {
                    continue; // net already emitted for this cell
                }
                let lo = pins.len() as u32;
                for &(e2, p2) in &buf[i..] {
                    if e2 == e {
                        pins.push(p2);
                        pin_entry[p2.index()] = entries.len() as u32;
                    }
                }
                entries.push((e, lo, pins.len() as u32));
            }
            offsets.push(entries.len() as u32);
        }
        Self {
            offsets,
            entries,
            pins,
            pin_entry,
        }
    }

    #[inline]
    fn range(&self, cell: CellId) -> std::ops::Range<usize> {
        self.offsets[cell.index()] as usize..self.offsets[cell.index() + 1] as usize
    }
}

/// Per-(cell, net) probe-memo entry: the net's extremes *excluding* the
/// cell's own pins, plus the committed geometry. A candidate position
/// folds in with six branchless min/max ops — no rescan can ever be
/// needed, because the moved pins are not part of the reduced extremes.
///
/// Sentinels (`f64::INFINITY` / `u16::MAX` on the min side and their
/// mirrors on the max side) make a net whose only pins belong to the cell
/// fold correctly without a branch.
#[derive(Clone, Copy, Debug)]
struct ProbeEntry {
    /// Extremes of the other cells' pins on this net.
    rx0: f64,
    rx1: f64,
    ry0: f64,
    ry1: f64,
    /// Own pin offset (when the cell has exactly one pin on the net —
    /// the overwhelmingly common case; more pins fall back to the CSR).
    dx: f64,
    dy: f64,
    /// Committed geometry, for the `new − old` delta terms.
    old_wl: f64,
    old_ilv: f64,
    rl0: u16,
    rl1: u16,
    /// Number of the cell's own pins on this net.
    own_pins: u32,
}

impl Default for ProbeEntry {
    fn default() -> Self {
        Self {
            rx0: f64::INFINITY,
            rx1: f64::NEG_INFINITY,
            ry0: f64::INFINITY,
            ry1: f64::NEG_INFINITY,
            dx: 0.0,
            dy: 0.0,
            old_wl: 0.0,
            old_ilv: 0.0,
            rl0: u16::MAX,
            rl1: 0,
            own_pins: 0,
        }
    }
}

impl ProbeEntry {
    /// The entry of distinct-net CSR slot `idx` with the net's geometry
    /// `old` and its exclusion extremes still empty.
    fn new(netlist: &Netlist, cell_nets: &DistinctNets, idx: usize, old: NetGeometry) -> Self {
        let (_, plo, phi) = cell_nets.entries[idx];
        let mut entry = Self {
            own_pins: phi - plo,
            old_wl: old.wirelength(),
            old_ilv: old.ilv,
            ..Self::default()
        };
        if entry.own_pins == 1 {
            let pin = netlist.pin(cell_nets.pins[plo as usize]);
            entry.dx = pin.offset_x();
            entry.dy = pin.offset_y();
        }
        entry
    }

    /// Folds every pin of net `e` that is not on `cell` into the
    /// exclusion extremes, at the placement's positions with `moved`
    /// overriding (as in [`scan_net_extremes`]).
    fn exclude(
        mut self,
        netlist: &Netlist,
        placement: &Placement,
        e: NetId,
        cell: CellId,
        moved: &[(CellId, (f64, f64, u16))],
    ) -> Self {
        for &p in netlist.net_pins(e) {
            let pin = netlist.pin(p);
            let c = pin.cell();
            if c == cell {
                continue;
            }
            let mut pos = placement.position(c);
            for &(m, mp) in moved {
                if m == c {
                    pos = mp;
                }
            }
            let (px, py) = (pos.0 + pin.offset_x(), pos.1 + pin.offset_y());
            self.rx0 = self.rx0.min(px);
            self.rx1 = self.rx1.max(px);
            self.ry0 = self.ry0.min(py);
            self.ry1 = self.ry1.max(py);
            self.rl0 = self.rl0.min(pos.2);
            self.rl1 = self.rl1.max(pos.2);
        }
        self
    }
}

/// Builds the probe entry for distinct-net CSR slot `idx` of `cell`: the
/// net's extremes with the cell's own pins excluded, plus the committed
/// geometry — the one constructor of probe-memo entries.
fn probe_entry_at(
    netlist: &Netlist,
    placement: &Placement,
    nets: &[NetExtremes],
    cell_nets: &DistinctNets,
    idx: usize,
    cell: CellId,
) -> ProbeEntry {
    let (e, plo, phi) = cell_nets.entries[idx];
    let ext = &nets[e.index()];
    let mut entry = ProbeEntry::new(netlist, cell_nets, idx, ext.geometry());

    // Fast path: the committed extremes carry multiplicity counts, so
    // when every extreme keeps at least one non-cell holder the
    // exclusion extremes ARE the committed ones — O(own pins) instead of
    // a full net scan, and bitwise identical to it (the counts were
    // accumulated from the very same `position + offset` arithmetic).
    // An own pin that empties an extreme's holder count falls through to
    // the scan, which recovers the unstored runner-up.
    if ext.x_min_n != 0 && netlist.net_pins(e).len() as u32 > entry.own_pins {
        let (cx, cy, cl) = placement.position(cell);
        let mut nx0 = ext.x_min_n;
        let mut nx1 = ext.x_max_n;
        let mut ny0 = ext.y_min_n;
        let mut ny1 = ext.y_max_n;
        let mut nl0 = ext.l_min_n;
        let mut nl1 = ext.l_max_n;
        for &p in &cell_nets.pins[plo as usize..phi as usize] {
            let pin = netlist.pin(p);
            let px = cx + pin.offset_x();
            let py = cy + pin.offset_y();
            nx0 -= (px == ext.x_min) as u32;
            nx1 -= (px == ext.x_max) as u32;
            ny0 -= (py == ext.y_min) as u32;
            ny1 -= (py == ext.y_max) as u32;
            nl0 -= (cl == ext.l_min) as u32;
            nl1 -= (cl == ext.l_max) as u32;
        }
        if nx0 > 0 && nx1 > 0 && ny0 > 0 && ny1 > 0 && nl0 > 0 && nl1 > 0 {
            entry.rx0 = ext.x_min;
            entry.rx1 = ext.x_max;
            entry.ry0 = ext.y_min;
            entry.ry1 = ext.y_max;
            entry.rl0 = ext.l_min;
            entry.rl1 = ext.l_max;
            return entry;
        }
    }
    entry.exclude(netlist, placement, e, cell, &[])
}

/// Prices one net of a probe: folds the cell's pins at `pos` into the
/// entry's exclusion extremes and returns the net's `(ΔWL, ΔILV)`.
/// Forced inline: every pricer's inner loop is this fold, and an
/// out-of-line call per net and target doubles a probe's cost.
#[inline(always)]
fn probe_entry_change(
    netlist: &Netlist,
    cell_nets: &DistinctNets,
    idx: usize,
    entry: &ProbeEntry,
    pos: (f64, f64, u16),
) -> (f64, f64) {
    let (mut x0, mut x1) = (entry.rx0, entry.rx1);
    let (mut y0, mut y1) = (entry.ry0, entry.ry1);
    let (mut l0, mut l1) = (entry.rl0, entry.rl1);
    if entry.own_pins == 1 {
        let (px, py) = (pos.0 + entry.dx, pos.1 + entry.dy);
        x0 = x0.min(px);
        x1 = x1.max(px);
        y0 = y0.min(py);
        y1 = y1.max(py);
        l0 = l0.min(pos.2);
        l1 = l1.max(pos.2);
    } else {
        let (_, plo, phi) = cell_nets.entries[idx];
        for &p in &cell_nets.pins[plo as usize..phi as usize] {
            let pin = netlist.pin(p);
            let (px, py) = (pos.0 + pin.offset_x(), pos.1 + pin.offset_y());
            x0 = x0.min(px);
            x1 = x1.max(px);
            y0 = y0.min(py);
            y1 = y1.max(py);
            l0 = l0.min(pos.2);
            l1 = l1.max(pos.2);
        }
    }
    let new_wl = (x1 - x0) + (y1 - y0);
    let new_ilv = (l1 - l0) as f64;
    (new_wl - entry.old_wl, new_ilv - entry.old_ilv)
}

/// Eq. 3's α_TEMP term as a move's delta folds it (DESIGN.md §11), read
/// from the committed caches; present only while the term is active.
#[derive(Clone, Copy)]
struct ThermalTerm<'b> {
    netlist: &'b Netlist,
    model: &'b ObjectiveModel,
    cell_power: &'b [f64],
    cell_resistance: &'b [f64],
    /// Set only while a pair's second leg folds.
    first_leg: Option<FirstLeg>,
}

/// What a pair's second leg reads of its first (module docs): the first
/// cell's resistance at its target, and the second cell's power with the
/// first leg's power changes on the nets it drives added.
#[derive(Clone, Copy)]
struct FirstLeg {
    cell: CellId,
    resistance: f64,
    second_power: f64,
}

impl<'b> ThermalTerm<'b> {
    /// The term over the given caches, or `None` in WL+ILV mode.
    #[inline]
    fn of(
        netlist: &'b Netlist,
        model: &'b ObjectiveModel,
        cell_power: &'b [f64],
        cell_resistance: &'b [f64],
    ) -> Option<Self> {
        (model.alpha_temp > 0.0).then_some(Self {
            netlist,
            model,
            cell_power,
            cell_resistance,
            first_leg: None,
        })
    }

    /// Net `e`'s power change `ΔP = s_wl·ΔWL + s_ilv·ΔILV` for its
    /// geometry change `(dwl, dilv)`.
    #[inline]
    fn power_change(&self, e: NetId, (dwl, dilv): (f64, f64)) -> f64 {
        self.model.power.s_wl(e) * dwl + self.model.power.s_ilv(e) * dilv
    }

    /// Net `e`'s power change when `cell` moves: added to `delta` at its
    /// driver's resistance, or, when `cell` drives `e`, to the cell's own
    /// power change `own_dp`.
    #[inline]
    fn add_net(
        &self,
        cell: CellId,
        e: NetId,
        change: (f64, f64),
        delta: &mut f64,
        own_dp: &mut f64,
    ) {
        let Some(d) = self.netlist.net_driver_cell(e) else {
            return;
        };
        let dp = self.power_change(e, change);
        if d == cell {
            *own_dp += dp;
        } else {
            let r = match self.first_leg {
                Some(leg) if leg.cell == d => leg.resistance,
                _ => self.cell_resistance[d.index()],
            };
            *delta += self.model.alpha_temp * r * dp;
        }
    }

    /// The moved cell's own `α_TEMP·(R'·P' − R·P)` at `pos`, with
    /// `P' = P + own_dp`.
    #[inline]
    fn own(&self, cell: CellId, pos: (f64, f64, u16), own_dp: f64) -> f64 {
        let c = cell.index();
        let old_p = match self.first_leg {
            Some(leg) => leg.second_power,
            None => self.cell_power[c],
        };
        let old_r = self.cell_resistance[c];
        let new_r = resistance_at(self.model, self.netlist, cell, pos);
        self.model.alpha_temp * (new_r * (old_p + own_dp) - old_r * old_p)
    }
}

/// The probe memo (module docs): one lazily built [`ProbeEntry`] slot per
/// distinct-net CSR entry. Slots fill through `&self` — so the memo is
/// `Sync` and parallel workers share it — and empty only through
/// `&mut self`, which only [`IncrementalObjective`]'s commit paths hold.
#[derive(Debug, Default)]
struct ProbeMemo {
    slots: Vec<OnceLock<ProbeEntry>>,
    /// Per net: set when one of its slots fills, cleared when they are
    /// dropped. A commit skips the pin walk of every net nobody probed
    /// since its last invalidation. `Relaxed` suffices: the flag publishes no data, and it is read only through
    /// `&mut self`, after every worker that could have set it was joined.
    net_filled: Vec<AtomicBool>,
}

impl Clone for ProbeMemo {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            net_filled: self
                .net_filled
                .iter()
                .map(|f| AtomicBool::new(f.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl ProbeMemo {
    fn empty(entries: usize, nets: usize) -> Self {
        Self {
            slots: (0..entries).map(|_| OnceLock::new()).collect(),
            net_filled: (0..nets).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Slot `idx` (an entry on net `e`), built by `build` on first use.
    #[inline]
    fn get_or_build(
        &self,
        idx: usize,
        e: NetId,
        build: impl FnOnce() -> ProbeEntry,
    ) -> &ProbeEntry {
        self.slots[idx].get_or_init(|| {
            self.net_filled[e.index()].store(true, Ordering::Relaxed);
            build()
        })
    }

    /// Drops every slot on net `e` — the entry of each of its pin cells.
    fn invalidate_net(&mut self, netlist: &Netlist, cell_nets: &DistinctNets, e: NetId) {
        if std::mem::take(self.net_filled[e.index()].get_mut()) {
            for &p in netlist.net_pins(e) {
                self.slots[cell_nets.pin_entry[p.index()] as usize].take();
            }
        }
    }

    /// Drops every slot.
    fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.take();
        }
        for filled in &mut self.net_filled {
            *filled.get_mut() = false;
        }
    }
}

/// One candidate relocation, for the pair and sweep pricing/commit APIs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CellMove {
    /// The cell to move.
    pub cell: CellId,
    /// Target x, meters (cell center).
    pub x: f64,
    /// Target y, meters (cell center).
    pub y: f64,
    /// Target device layer.
    pub layer: u16,
}

/// Objective evaluator maintaining per-net extreme caches, per-cell power
/// and resistance caches (only while the thermal term is active), and the
/// scalar total. Probes price in O(1) amortized per incident net and
/// never touch the committed caches. The evaluator is `Sync`: a parallel
/// phase prices through one shared borrow of it, and its proposals are
/// re-priced against the live evaluator once the borrow ends and commits
/// resume (DESIGN.md §16, §17).
#[derive(Clone, Debug)]
pub struct IncrementalObjective<'a> {
    netlist: &'a Netlist,
    model: &'a ObjectiveModel,
    placement: Placement,
    nets: Vec<NetExtremes>,
    cell_power: Vec<f64>,
    cell_resistance: Vec<f64>,
    total: f64,
    cell_nets: DistinctNets,
    probes: ProbeMemo,
}

impl<'a> IncrementalObjective<'a> {
    /// Builds the evaluator for a placement.
    pub fn new(netlist: &'a Netlist, model: &'a ObjectiveModel, placement: Placement) -> Self {
        let cell_nets = DistinctNets::build(netlist);
        let thermal_cells = thermal_cells(netlist, model);
        let mut this = Self {
            netlist,
            model,
            placement,
            nets: vec![NetExtremes::default(); netlist.num_nets()],
            cell_power: vec![0.0; thermal_cells],
            cell_resistance: vec![0.0; thermal_cells],
            total: 0.0,
            probes: ProbeMemo::empty(cell_nets.entries.len(), netlist.num_nets()),
            cell_nets,
        };
        this.rebuild();
        this
    }

    /// Recomputes every cache from scratch (used after bulk placement
    /// changes and by consistency tests).
    ///
    /// Both passes are elementwise maps, parallelized over chunks of nets
    /// and cells; each element's arithmetic is independent of the
    /// chunking, so the rebuilt caches are bitwise identical for every
    /// thread count, and so is the total folded from them (see
    /// `compute_total`).
    pub fn rebuild(&mut self) {
        let netlist = self.netlist;
        let mut nets = std::mem::take(&mut self.nets);
        {
            let placement = &self.placement;
            parallel::for_each_chunk_mut(
                &mut nets,
                REBUILD_MIN_CHUNK,
                REBUILD_SERIAL_BELOW,
                |start, chunk| {
                    for (off, slot) in chunk.iter_mut().enumerate() {
                        *slot = scan_net_extremes(netlist, placement, NetId::new(start + off), &[]);
                    }
                },
            );
        }
        self.nets = nets;

        // The per-cell pass runs over the thermal caches, which are empty
        // in WL+ILV mode: there it does nothing.
        let mut cell_power = std::mem::take(&mut self.cell_power);
        let mut cell_resistance = std::mem::take(&mut self.cell_resistance);
        {
            let model = self.model;
            let placement = &self.placement;
            let nets = &self.nets;
            parallel::for_each_chunk_mut2(
                &mut cell_power,
                &mut cell_resistance,
                REBUILD_MIN_CHUNK,
                REBUILD_SERIAL_BELOW,
                |start, powers, resistances| {
                    for (off, (p, r)) in powers.iter_mut().zip(resistances.iter_mut()).enumerate() {
                        let cell = CellId::new(start + off);
                        *p = power_from(model, netlist, nets, cell);
                        *r = resistance_at(model, netlist, cell, placement.position(cell));
                    }
                },
            );
        }
        self.cell_power = cell_power;
        self.cell_resistance = cell_resistance;

        self.total = self.compute_total();
        self.probes.clear();
    }

    /// The objective from the current caches: per-chunk partials of the
    /// net terms and of the thermal terms, each folded in chunk order.
    /// Chunk boundaries depend only on the net and cell counts, so the
    /// value is bitwise identical at every thread count, one included.
    fn compute_total(&self) -> f64 {
        let alpha_ilv = self.model.alpha_ilv;
        let nets = &self.nets;
        let mut total = parallel::sum_chunks(nets.len(), SUM_MIN_CHUNK, 0, |range| {
            nets[range]
                .iter()
                .map(|ext| {
                    let g = ext.geometry();
                    g.wirelength() + alpha_ilv * g.ilv
                })
                .sum()
        });
        if self.model.alpha_temp > 0.0 {
            let alpha_temp = self.model.alpha_temp;
            let cell_power = &self.cell_power;
            let cell_resistance = &self.cell_resistance;
            total += parallel::sum_chunks(cell_power.len(), SUM_MIN_CHUNK, 0, |range| {
                cell_resistance[range.clone()]
                    .iter()
                    .zip(&cell_power[range])
                    .map(|(r, p)| alpha_temp * r * p)
                    .sum()
            });
        }
        total
    }

    /// The current objective value.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The current placement.
    #[inline]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The objective model this evaluator prices against.
    #[inline]
    pub fn model(&self) -> &ObjectiveModel {
        self.model
    }

    /// Consumes the evaluator, returning the placement.
    pub fn into_placement(self) -> Placement {
        self.placement
    }

    /// Geometry of net `e`.
    #[inline]
    pub fn net_geometry(&self, e: NetId) -> NetGeometry {
        self.nets[e.index()].geometry()
    }

    /// Cached power of `cell` (Eq. 10), W.
    ///
    /// Kept only while the thermal term is active (`alpha_temp > 0`). With
    /// the term off the evaluator holds no thermal state and this reads
    /// 0: the power never enters the objective then, and every consumer
    /// either scales it by `alpha_temp` or recomputes it from the model.
    #[inline]
    pub fn cell_power(&self, cell: CellId) -> f64 {
        self.cell_power.get(cell.index()).copied().unwrap_or(0.0)
    }

    /// Cached thermal resistance of `cell`, K/W. Same contract as
    /// [`cell_power`](Self::cell_power).
    #[inline]
    pub fn cell_resistance(&self, cell: CellId) -> f64 {
        self.cell_resistance
            .get(cell.index())
            .copied()
            .unwrap_or(0.0)
    }

    /// The thermal term over the committed caches, or `None` in WL+ILV
    /// mode.
    #[inline]
    fn thermal(&self) -> Option<ThermalTerm<'_>> {
        ThermalTerm::of(
            self.netlist,
            self.model,
            &self.cell_power,
            &self.cell_resistance,
        )
    }

    /// The memoized probe entry of distinct-net CSR slot `idx` of `cell`,
    /// built on first use. Racing builders compute the same pure function
    /// of the committed state, so whichever wins, every reader sees
    /// bitwise-identical values at any thread count.
    #[inline]
    fn entry(&self, idx: usize, cell: CellId) -> &ProbeEntry {
        self.probes
            .get_or_build(idx, self.cell_nets.entries[idx].0, || {
                probe_entry_at(
                    self.netlist,
                    &self.placement,
                    &self.nets,
                    &self.cell_nets,
                    idx,
                    cell,
                )
            })
    }

    /// Drops the memoized probe entries a move of `cell` made stale:
    /// every (pin cell, net) entry of every net the cell touches. Each
    /// entry caches one net's extremes and committed geometry, which only
    /// change when one of that net's pins moves, so entries on every
    /// other net stay valid.
    fn drop_stale_probes(&mut self, cell: CellId) {
        for idx in self.cell_nets.range(cell) {
            let (e, _, _) = self.cell_nets.entries[idx];
            self.probes.invalidate_net(self.netlist, &self.cell_nets, e);
        }
    }

    /// Objective change if `cell` moved to `(x, y, layer)`, without
    /// committing; negative is an improvement. One fold of the cell's
    /// memoized probe entries in CSR order, in `delta_move_rescan`'s
    /// order of additions: per net the WL + α_ILV·ILV change and, with
    /// the thermal term, that net's power change at its driver's cached
    /// resistance (or, when the cell drives the net, to the cell's own
    /// power change); last the cell's own `α_TEMP·(R'·P' − R·P)`.
    /// [`apply_move`](Self::apply_move) returns this fold bit for bit.
    #[inline]
    pub fn delta_move(&self, cell: CellId, x: f64, y: f64, layer: u16) -> f64 {
        self.fold_one(cell, (x, y, layer), self.thermal(), |idx| {
            self.entry(idx, cell)
        })
    }

    /// Objective change of moving `cell` to each of `targets`, written to
    /// `out[t]` (`out` is as long as `targets`), each bit for bit
    /// `delta_move(cell, targets[t])`. In WL+ILV mode the cell's memoized
    /// probe entries are read once and folded net-major: each target's
    /// sum starts at `0.0` and adds one term per net in CSR order, the
    /// additions `delta_move` makes.
    pub fn delta_move_batch(&self, cell: CellId, targets: &[(f64, f64, u16)], out: &mut [f64]) {
        self.fold_targets(cell, targets, out, |idx| *self.entry(idx, cell));
    }

    /// [`delta_move_batch`](Self::delta_move_batch) with each entry built
    /// on the spot instead of read from the memo, which it leaves
    /// unfilled: for callers whose own commit drops those entries before
    /// anyone could reuse them (row shifting, DESIGN.md §17).
    pub(crate) fn delta_move_batch_unmemoized(
        &self,
        cell: CellId,
        targets: &[(f64, f64, u16)],
        out: &mut [f64],
    ) {
        self.fold_targets(cell, targets, out, |idx| {
            probe_entry_at(
                self.netlist,
                &self.placement,
                &self.nets,
                &self.cell_nets,
                idx,
                cell,
            )
        });
    }

    /// [`delta_move`](Self::delta_move)'s fold over the entries `entry`
    /// hands out, with `thermal` as the α_TEMP term. The objective mode
    /// is tested once, outside the net loop.
    #[inline(always)]
    fn fold_one<E: Borrow<ProbeEntry>>(
        &self,
        cell: CellId,
        pos: (f64, f64, u16),
        thermal: Option<ThermalTerm<'_>>,
        entry: impl Fn(usize) -> E,
    ) -> f64 {
        let (netlist, cell_nets, alpha_ilv) = (self.netlist, &self.cell_nets, self.model.alpha_ilv);
        let mut delta = 0.0;
        let Some(thermal) = thermal else {
            for idx in cell_nets.range(cell) {
                let (dwl, dilv) =
                    probe_entry_change(netlist, cell_nets, idx, entry(idx).borrow(), pos);
                delta += dwl + alpha_ilv * dilv;
            }
            return delta;
        };
        let mut own_dp = 0.0;
        for idx in cell_nets.range(cell) {
            let change = probe_entry_change(netlist, cell_nets, idx, entry(idx).borrow(), pos);
            delta += change.0 + alpha_ilv * change.1;
            let e = cell_nets.entries[idx].0;
            thermal.add_net(cell, e, change, &mut delta, &mut own_dp);
        }
        delta + thermal.own(cell, pos, own_dp)
    }

    /// The fold behind the batch pricers. WL+ILV mode folds net-major,
    /// one `entry(idx)` per distinct net of `cell` added to every
    /// target's sum, and tests the mode outside the net and target loops.
    /// Thermal batches are short (row shifting's two β candidates), so
    /// each of their targets folds on its own.
    #[inline]
    fn fold_targets(
        &self,
        cell: CellId,
        targets: &[(f64, f64, u16)],
        out: &mut [f64],
        entry: impl Fn(usize) -> ProbeEntry,
    ) {
        debug_assert_eq!(out.len(), targets.len());
        if let Some(thermal) = self.thermal() {
            for (sum, &pos) in out.iter_mut().zip(targets) {
                *sum = self.fold_one(cell, pos, Some(thermal), &entry);
            }
            return;
        }
        out.fill(0.0);
        if targets.is_empty() {
            return;
        }
        let (netlist, cell_nets, alpha_ilv) = (self.netlist, &self.cell_nets, self.model.alpha_ilv);
        for idx in cell_nets.range(cell) {
            let entry = entry(idx);
            for (sum, &pos) in out.iter_mut().zip(targets) {
                let (dwl, dilv) = probe_entry_change(netlist, cell_nets, idx, &entry, pos);
                *sum += dwl + alpha_ilv * dilv;
            }
        }
    }

    /// Calls `push` with one `(x0, x1, y0, y1)` exclusion rectangle per
    /// own pin of `cell` whose net has at least one pin on another cell —
    /// the inputs of the coarse global pass's optimal-region medians.
    /// Read from the very probe entries [`delta_move`](Self::delta_move)
    /// prices with, so each rectangle is bitwise identical to a fresh
    /// exclude-the-cell scan of the net, at O(own pins) in the common
    /// case instead of O(net degree).
    pub fn exclusion_rects(&self, cell: CellId, mut push: impl FnMut(f64, f64, f64, f64)) {
        for idx in self.cell_nets.range(cell) {
            let entry = self.entry(idx, cell);
            // A finite min marks a non-empty exclusion (positions are
            // always finite); nets the cell fully owns are skipped, like
            // the historical scan's `others > 0` test. Multi-pin nets
            // repeat their rectangle once per own pin, matching the
            // per-pin iteration order's multiset of median inputs.
            if entry.rx0 != f64::INFINITY {
                for _ in 0..entry.own_pins {
                    push(entry.rx0, entry.rx1, entry.ry0, entry.ry1);
                }
            }
        }
    }

    /// The two legs of a pair as committing them one after the other
    /// adds them to `total` (module docs): the first cell's probe fold,
    /// then the second cell's fold over the first leg's outcome.
    fn pair_legs(&self, first: CellMove, second: CellMove) -> (f64, f64) {
        debug_assert_ne!(first.cell, second.cell, "a pair moves two distinct cells");
        let (a, pa) = (first.cell, (first.x, first.y, first.layer));
        let (b, pb) = (second.cell, (second.x, second.y, second.layer));
        let thermal = self.thermal();
        let d1 = self.fold_one(a, pa, thermal, |idx| self.entry(idx, a));
        let a_nets = &self.cell_nets.entries[self.cell_nets.range(a)];
        let on_a = |e: NetId| a_nets.iter().any(|&(e2, _, _)| e2 == e);
        let b_nets = &self.cell_nets.entries[self.cell_nets.range(b)];
        if !b_nets.iter().any(|&(e, _, _)| on_a(e)) {
            // Cells that share no net: the first leg moves no pin, no
            // driver and no power the second reads.
            return (d1, self.fold_one(b, pb, thermal, |idx| self.entry(idx, b)));
        }
        let thermal = thermal.map(|t| ThermalTerm {
            first_leg: Some(FirstLeg {
                cell: a,
                resistance: resistance_at(self.model, self.netlist, a, pa),
                second_power: self.carried_power(&t, a, pa, b),
            }),
            ..t
        });
        let d2 = self.fold_one(b, pb, thermal, |idx| {
            let e = self.cell_nets.entries[idx].0;
            if !on_a(e) {
                return *self.entry(idx, b);
            }
            // The first leg moves a pin of this net: scan it with the
            // first cell at its target.
            let moved = [(a, pa)];
            let old = scan_net_extremes(self.netlist, &self.placement, e, &moved).geometry();
            ProbeEntry::new(self.netlist, &self.cell_nets, idx, old).exclude(
                self.netlist,
                &self.placement,
                e,
                b,
                &moved,
            )
        });
        (d1, d2)
    }

    /// `second`'s power after `first` moves to `pos`: its cached power
    /// plus the first leg's power change on each net it drives, added in
    /// `first`'s net order.
    fn carried_power(
        &self,
        thermal: &ThermalTerm<'_>,
        first: CellId,
        pos: (f64, f64, u16),
        second: CellId,
    ) -> f64 {
        let mut power = self.cell_power[second.index()];
        for idx in self.cell_nets.range(first) {
            let e = self.cell_nets.entries[idx].0;
            if self.netlist.net_driver_cell(e) == Some(second) {
                let entry = self.entry(idx, first);
                power += thermal.power_change(
                    e,
                    probe_entry_change(self.netlist, &self.cell_nets, idx, entry, pos),
                );
            }
        }
        power
    }

    /// Objective change of moving two distinct cells one after the
    /// other, without committing: the sum of the two legs
    /// [`apply_pair`](Self::apply_pair) adds to `total`.
    pub fn delta_pair(&self, first: CellMove, second: CellMove) -> f64 {
        let (d1, d2) = self.pair_legs(first, second);
        d1 + d2
    }

    /// Objective change for swapping the positions of two cells, without
    /// committing. Read-only: `total`, the caches, and the placement are
    /// untouched.
    pub fn delta_swap(&self, a: CellId, b: CellId) -> f64 {
        let [first, second] = self.swap_moves(a, b);
        self.delta_pair(first, second)
    }

    /// The two moves that swap the positions of `a` and `b`.
    fn swap_moves(&self, a: CellId, b: CellId) -> [CellMove; 2] {
        let ((ax, ay, al), (bx, by, bl)) = (self.placement.position(a), self.placement.position(b));
        [
            CellMove {
                cell: a,
                x: bx,
                y: by,
                layer: bl,
            },
            CellMove {
                cell: b,
                x: ax,
                y: ay,
                layer: al,
            },
        ]
    }

    /// Moves `cell` to `(x, y, layer)`, updating all caches. Returns the
    /// objective change that was applied: the probe fold's delta
    /// ([`delta_move`](Self::delta_move)) bit for bit.
    pub fn apply_move(&mut self, cell: CellId, x: f64, y: f64, layer: u16) -> f64 {
        let delta = self.commit_move(cell, (x, y, layer));
        self.total += delta;
        delta
    }

    /// [`apply_move`](Self::apply_move) without its update of `total`:
    /// patches the caches in place and returns the fold's delta.
    fn commit_move(&mut self, cell: CellId, pos: (f64, f64, u16)) -> f64 {
        // Per net, the update-or-rescan of its extremes. The new extremes
        // hold the very min/max values the probe folds from its exclusion
        // extremes, so each net's (ΔWL, ΔILV) — and with them every
        // addition of the probe's fold, in the same order — are the
        // probe's.
        let netlist = self.netlist;
        let old_pos = self.placement.position(cell);
        let alpha_ilv = self.model.alpha_ilv;
        let thermal = ThermalTerm::of(netlist, self.model, &self.cell_power, &self.cell_resistance);
        let (mut delta, mut own_dp) = (0.0, 0.0);
        for idx in self.cell_nets.range(cell) {
            let (e, plo, phi) = self.cell_nets.entries[idx];
            let old_ext = self.nets[e.index()];
            let mut new_ext = old_ext;
            let updated = self.cell_nets.pins[plo as usize..phi as usize]
                .iter()
                .all(|&p| {
                    let (dx, dy) = (netlist.pin(p).offset_x(), netlist.pin(p).offset_y());
                    new_ext.update(
                        (old_pos.0 + dx, old_pos.1 + dy, old_pos.2),
                        (pos.0 + dx, pos.1 + dy, pos.2),
                    )
                });
            if !updated {
                new_ext = scan_net_extremes(netlist, &self.placement, e, &[(cell, pos)]);
            }
            let (og, ng) = (old_ext.geometry(), new_ext.geometry());
            let change = (ng.wirelength() - og.wirelength(), ng.ilv - og.ilv);
            delta += change.0 + alpha_ilv * change.1;
            if let Some(thermal) = &thermal {
                thermal.add_net(cell, e, change, &mut delta, &mut own_dp);
            }
            self.nets[e.index()] = new_ext;
        }
        if let Some(thermal) = thermal {
            delta += thermal.own(cell, pos, own_dp);
            // The caches take the exact rebuild arithmetic, not the
            // fold's linear update: each driver's power from its nets'
            // new geometry, the cell's resistance at its new position.
            for idx in self.cell_nets.range(cell) {
                if let Some(d) = netlist.net_driver_cell(self.cell_nets.entries[idx].0) {
                    self.cell_power[d.index()] = power_from(self.model, netlist, &self.nets, d);
                }
            }
            self.cell_resistance[cell.index()] = resistance_at(self.model, netlist, cell, pos);
        }
        self.placement.set(cell, pos.0, pos.1, pos.2);
        self.drop_stale_probes(cell);
        delta
    }

    /// Moves two distinct cells one after the other. The caches take
    /// each leg's [`apply_move`](Self::apply_move) commit, and `total`
    /// takes the two legs [`delta_pair`](Self::delta_pair) prices, in
    /// order. Returns their sum, bitwise `delta_pair`'s.
    pub fn apply_pair(&mut self, first: CellMove, second: CellMove) -> f64 {
        let (d1, d2) = self.pair_legs(first, second);
        self.commit_move(first.cell, (first.x, first.y, first.layer));
        self.commit_move(second.cell, (second.x, second.y, second.layer));
        self.total += d1;
        self.total += d2;
        d1 + d2
    }

    /// Commits a whole sweep of moves at once: sets every position,
    /// rescans each net the moved cells touch once from the final
    /// positions (`scan_net_extremes`, the scan `rebuild` runs), drops
    /// those nets' probe entries, refreshes the thermal caches the moves
    /// reach, and refolds `total` with `compute_total`. The caches and
    /// `total` end bitwise equal to a rebuild of the committed placement,
    /// whatever the order of `moves` (a repeated cell's last move wins).
    ///
    /// For callers that price their moves against one snapshot and need
    /// no per-move deltas: the row-shifting commit (DESIGN.md §17), which
    /// this spares one update-or-rescan commit per cell.
    pub fn apply_sweep(&mut self, moves: &[CellMove]) {
        let netlist = self.netlist;
        for m in moves {
            self.placement.set(m.cell, m.x, m.y, m.layer);
        }
        let thermal = self.model.alpha_temp > 0.0;
        let mut touched = vec![false; self.nets.len()];
        let mut drivers = Vec::new();
        for m in moves {
            for idx in self.cell_nets.range(m.cell) {
                let e = self.cell_nets.entries[idx].0;
                if std::mem::replace(&mut touched[e.index()], true) {
                    continue;
                }
                self.nets[e.index()] = scan_net_extremes(netlist, &self.placement, e, &[]);
                self.probes.invalidate_net(netlist, &self.cell_nets, e);
                // A net's geometry enters its driver's power.
                if let Some(d) = netlist.net_driver_cell(e).filter(|_| thermal) {
                    drivers.push(d);
                }
            }
        }
        if thermal {
            drivers.sort_unstable();
            drivers.dedup();
            let (model, nets) = (self.model, &self.nets);
            for d in drivers {
                self.cell_power[d.index()] = power_from(model, netlist, nets, d);
            }
            for m in moves {
                let pos = self.placement.position(m.cell);
                self.cell_resistance[m.cell.index()] = resistance_at(model, netlist, m.cell, pos);
            }
        }
        self.total = self.compute_total();
    }

    /// Swaps the positions of two cells. Returns the objective change.
    pub fn apply_swap(&mut self, a: CellId, b: CellId) -> f64 {
        let [first, second] = self.swap_moves(a, b);
        self.apply_pair(first, second)
    }

    /// Reference pricing kernel: prices a move by fully rescanning every
    /// incident net's bounding box, one scan per pin — the pre-delta-engine
    /// algorithm. Kept for benches (the speedup baseline) and as an
    /// independent oracle in tests. It returns the same delta as
    /// [`delta_move`](Self::delta_move) bitwise in both objective modes
    /// (for netlists without shared-net pins; with them, this kernel
    /// double-counts — the historical bug the distinct-net CSR fixes).
    pub fn delta_move_rescan(&self, cell: CellId, x: f64, y: f64, layer: u16) -> f64 {
        let pos = (x, y, layer);
        let alpha_ilv = self.model.alpha_ilv;
        let alpha_temp = self.model.alpha_temp;
        let mut delta = 0.0;
        let mut moved_cell_dp = 0.0;
        for &p in self.netlist.cell_pins(cell) {
            let e = self.netlist.pin(p).net();
            let old = self.nets[e.index()].geometry();
            let new = scan_net_bbox(self.netlist, &self.placement, e, cell, pos);
            delta += (new.wirelength() - old.wirelength()) + alpha_ilv * (new.ilv - old.ilv);
            if alpha_temp > 0.0 {
                let dp = self.model.power.s_wl(e) * (new.wirelength() - old.wirelength())
                    + self.model.power.s_ilv(e) * (new.ilv - old.ilv);
                if dp != 0.0 {
                    if let Some(driver) = self.netlist.net_driver_cell(e) {
                        if driver == cell {
                            moved_cell_dp += dp;
                        } else {
                            delta += alpha_temp * self.cell_resistance[driver.index()] * dp;
                        }
                    }
                }
            }
        }
        if alpha_temp > 0.0 {
            let c = cell.index();
            let old_r = self.cell_resistance[c];
            let new_r = resistance_at(self.model, self.netlist, cell, pos);
            let old_p = self.cell_power[c];
            let new_p = old_p + moved_cell_dp;
            delta += alpha_temp * (new_r * new_p - old_r * old_p);
        }
        delta
    }

    /// Sum of `WL_i` over all nets, meters.
    pub fn total_wirelength(&self) -> f64 {
        self.nets
            .iter()
            .map(|ext| ext.geometry().wirelength())
            .sum()
    }

    /// Sum of `ILV_i` over all nets.
    pub fn total_ilv(&self) -> f64 {
        self.nets.iter().map(|ext| ext.geometry().ilv).sum()
    }

    /// Total dynamic power at the current placement, W.
    pub fn total_power(&self) -> f64 {
        (0..self.netlist.num_nets())
            .map(|e| {
                let g = self.nets[e].geometry();
                self.model
                    .power
                    .net_power(NetId::new(e), g.wirelength(), g.ilv)
            })
            .sum()
    }

    /// Recomputes the objective from scratch and returns it (the test
    /// oracle for the incremental caches; does not modify them).
    pub fn recompute_total(&self) -> f64 {
        let thermal_cells = thermal_cells(self.netlist, self.model);
        let mut clone = Self {
            netlist: self.netlist,
            model: self.model,
            placement: self.placement.clone(),
            nets: vec![NetExtremes::default(); self.netlist.num_nets()],
            cell_power: vec![0.0; thermal_cells],
            cell_resistance: vec![0.0; thermal_cells],
            total: 0.0,
            cell_nets: DistinctNets::default(),
            probes: ProbeMemo::default(),
        };
        clone.rebuild();
        clone.total
    }

    /// Re-syncs the accumulated `total` with a fold of the live caches
    /// and returns the drift (`accumulated − folded`) that was corrected.
    /// Called at stage boundaries so float round-off from long move
    /// sequences never compounds across stages. Only the scalar drifts:
    /// the caches stay bitwise equal to a rebuild (module docs), so the
    /// fold equals [`recompute_total`](Self::recompute_total) bit for bit
    /// without cloning the placement or rebuilding a cache.
    pub fn resync_total(&mut self) -> f64 {
        let fresh = self.compute_total();
        let drift = self.total - fresh;
        self.total = fresh;
        drift
    }
}

/// Cells the power/resistance caches cover: all of them while the
/// thermal term is active, none in WL+ILV mode, where nothing reads them
/// (16 B per cell saved).
fn thermal_cells(netlist: &Netlist, model: &ObjectiveModel) -> usize {
    if model.alpha_temp > 0.0 {
        netlist.num_cells()
    } else {
        0
    }
}

/// `cell`'s power (Eq. 10) from the committed net geometry: the
/// arithmetic of `rebuild`, which every power-cache patch repeats.
fn power_from(
    model: &ObjectiveModel,
    netlist: &Netlist,
    nets: &[NetExtremes],
    cell: CellId,
) -> f64 {
    model.power.cell_power(netlist, cell, |e| {
        let g = nets[e.index()].geometry();
        (g.wirelength(), g.ilv)
    })
}

fn resistance_at(
    model: &ObjectiveModel,
    netlist: &Netlist,
    cell: CellId,
    (x, y, layer): (f64, f64, u16),
) -> f64 {
    model.cell_resistance(x, y, layer, netlist.cell(cell).area())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use tvp_bookshelf::synth::{generate, SynthConfig};
    use tvp_netlist::{NetlistBuilder, PinDirection};

    fn fixture(alpha_temp: f64) -> (Netlist, Chip, PlacerConfig) {
        let netlist = generate(&SynthConfig::named("t", 120, 6.0e-10)).unwrap();
        let config = PlacerConfig::new(4)
            .with_alpha_ilv(1.0e-5)
            .with_alpha_temp(alpha_temp);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        (netlist, chip, config)
    }

    fn random_spread(netlist: &Netlist, chip: &Chip, seed: u64) -> Placement {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = Placement::centered(netlist.num_cells(), chip);
        for i in 0..netlist.num_cells() {
            p.set(
                CellId::new(i),
                rng.random_range(0.0..chip.width),
                rng.random_range(0.0..chip.depth),
                rng.random_range(0..chip.num_layers as u16),
            );
        }
        p
    }

    #[test]
    fn centered_start_has_zero_wl_and_ilv() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let obj = IncrementalObjective::new(
            &netlist,
            &model,
            Placement::centered(netlist.num_cells(), &chip),
        );
        assert_eq!(obj.total_wirelength(), 0.0);
        assert_eq!(obj.total_ilv(), 0.0);
        assert_eq!(obj.total(), 0.0);
        // Power is still positive: pin capacitances are placement-free.
        assert!(obj.total_power() > 0.0);
    }

    #[test]
    fn incremental_matches_scratch_wl_only() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 1);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..200 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            let x = rng.random_range(0.0..chip.width);
            let y = rng.random_range(0.0..chip.depth);
            let l = rng.random_range(0..chip.num_layers as u16);
            obj.apply_move(c, x, y, l);
        }
        let scratch = obj.recompute_total();
        assert!(
            (obj.total() - scratch).abs() < 1e-9 * scratch.abs().max(1e-12),
            "incremental {} vs scratch {}",
            obj.total(),
            scratch
        );
    }

    #[test]
    fn incremental_matches_scratch_with_thermal() {
        let (netlist, chip, config) = fixture(1.0e-4);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 3);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..200 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            let x = rng.random_range(0.0..chip.width);
            let y = rng.random_range(0.0..chip.depth);
            let l = rng.random_range(0..chip.num_layers as u16);
            obj.apply_move(c, x, y, l);
        }
        let scratch = obj.recompute_total();
        assert!(
            (obj.total() - scratch).abs() < 1e-6 * scratch.abs().max(1e-12),
            "incremental {} vs scratch {}",
            obj.total(),
            scratch
        );
    }

    #[test]
    fn delta_move_is_pure_and_matches_apply() {
        let (netlist, chip, config) = fixture(5.0e-5);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 5);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let before = obj.total();
        let c = CellId::new(17);
        let d_probe = obj.delta_move(c, chip.width * 0.1, chip.depth * 0.9, 2);
        assert_eq!(obj.total(), before, "delta_move must not mutate");
        let d_applied = obj.apply_move(c, chip.width * 0.1, chip.depth * 0.9, 2);
        assert_eq!(d_probe, d_applied, "probe and commit price identically");
        assert!((obj.total() - (before + d_applied)).abs() < 1e-12 * before.max(1.0));
    }

    #[test]
    fn delta_matches_rescan_reference_wl_only() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 9);
        let obj = IncrementalObjective::new(&netlist, &model, placement);
        let mut rng = SmallRng::seed_from_u64(10);
        for _ in 0..500 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            let x = rng.random_range(0.0..chip.width);
            let y = rng.random_range(0.0..chip.depth);
            let l = rng.random_range(0..chip.num_layers as u16);
            assert_eq!(
                obj.delta_move(c, x, y, l),
                obj.delta_move_rescan(c, x, y, l),
                "incremental and full-rescan pricing must agree bitwise"
            );
        }
    }

    #[test]
    fn cached_probe_matches_commit_wl_only() {
        // Probes read the probe memo while commits patch the caches in
        // place; the two must agree bitwise, for moves and for swaps
        // (disjoint and net-sharing).
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 11);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let mut rng = SmallRng::seed_from_u64(12);
        let mut shared = 0;
        for i in 0..500 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            if i % 3 == 0 {
                let mut b = CellId::new(rng.random_range(0..netlist.num_cells()));
                if b == c {
                    b = CellId::new((b.index() + 1) % netlist.num_cells());
                }
                if netlist
                    .cell_nets(c)
                    .any(|e| netlist.cell_nets(b).any(|e2| e2 == e))
                {
                    shared += 1;
                }
                let probe = obj.delta_swap(c, b);
                let applied = obj.apply_swap(c, b);
                assert_eq!(probe, applied, "swap probe == commit");
            } else {
                let x = rng.random_range(0.0..chip.width);
                let y = rng.random_range(0.0..chip.depth);
                let l = rng.random_range(0..chip.num_layers as u16);
                let probe = obj.delta_move(c, x, y, l);
                let applied = obj.apply_move(c, x, y, l);
                assert_eq!(probe, applied, "move probe == commit");
            }
        }
        // The random pairs must have covered both swap pricing paths.
        assert!(shared > 0, "no net-sharing swap pair was exercised");
    }

    #[test]
    fn unmemoized_batch_prices_like_delta_move_and_fills_no_slot() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let obj = IncrementalObjective::new(&netlist, &model, random_spread(&netlist, &chip, 13));
        let mut rng = SmallRng::seed_from_u64(14);
        let mut probes = Vec::new();
        for _ in 0..200 {
            let cell = CellId::new(rng.random_range(0..netlist.num_cells()));
            let targets = [(); 3].map(|_| {
                (
                    rng.random_range(0.0..chip.width),
                    rng.random_range(0.0..chip.depth),
                    rng.random_range(0..chip.num_layers as u16),
                )
            });
            let mut sums = [0.0; 3];
            obj.delta_move_batch_unmemoized(cell, &targets, &mut sums);
            probes.push((cell, targets, sums));
        }
        assert!(
            obj.probes.slots.iter().all(|slot| slot.get().is_none()),
            "planning-only pricing must leave the memo empty"
        );
        for (cell, targets, sums) in probes {
            for ((x, y, l), sum) in targets.into_iter().zip(sums) {
                assert_eq!(sum.to_bits(), obj.delta_move(cell, x, y, l).to_bits());
            }
        }
    }

    #[test]
    fn delta_swap_probe_leaves_everything_bitwise_unchanged() {
        let (netlist, chip, config) = fixture(5.0e-5);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 6);
        let obj = IncrementalObjective::new(&netlist, &model, placement);
        let snapshot = obj.clone();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let a = CellId::new(rng.random_range(0..netlist.num_cells()));
            let mut b = CellId::new(rng.random_range(0..netlist.num_cells()));
            if b == a {
                b = CellId::new((b.index() + 1) % netlist.num_cells());
            }
            let _ = obj.delta_swap(a, b);
        }
        // `total`, every cache, and the placement are bitwise untouched.
        assert_eq!(obj.total(), snapshot.total());
        assert_eq!(obj.nets, snapshot.nets);
        assert_eq!(obj.cell_power, snapshot.cell_power);
        assert_eq!(obj.cell_resistance, snapshot.cell_resistance);
        assert_eq!(obj.placement, snapshot.placement);
    }

    #[test]
    fn delta_swap_probe_matches_apply() {
        let (netlist, chip, config) = fixture(5.0e-5);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 6);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let before = obj.total();
        let pa = obj.placement().position(CellId::new(1));
        let pb = obj.placement().position(CellId::new(2));
        let probe = obj.delta_swap(CellId::new(1), CellId::new(2));
        assert_eq!(obj.total(), before, "probe must not perturb total");
        assert_eq!(obj.placement().position(CellId::new(1)), pa);
        assert_eq!(obj.placement().position(CellId::new(2)), pb);
        let applied = obj.apply_swap(CellId::new(1), CellId::new(2));
        assert_eq!(probe, applied, "swap probe and commit price identically");
        assert_eq!(obj.placement().position(CellId::new(1)), pb);
        assert_eq!(obj.placement().position(CellId::new(2)), pa);
    }

    #[test]
    fn shared_net_pins_price_each_net_once() {
        // A cell with two pins on the same net: the per-pin view counted
        // that net's WL/ILV delta twice. The distinct-net CSR prices it
        // once; the probe must match the true objective change.
        let mut b = NetlistBuilder::new().allow_shared_net_pins();
        let m = b.add_cell("m", 1.0e-6, 1.0e-6);
        let s = b.add_cell("s", 1.0e-6, 1.0e-6);
        let t = b.add_cell("t", 1.0e-6, 1.0e-6);
        let n = b.add_net("n");
        b.connect_with_offset(n, m, PinDirection::Output, -2.0e-7, 0.0)
            .unwrap();
        b.connect_with_offset(n, m, PinDirection::Input, 2.0e-7, 1.0e-7)
            .unwrap();
        b.connect(n, s, PinDirection::Input).unwrap();
        let n2 = b.add_net("n2");
        b.connect(n2, m, PinDirection::Input).unwrap();
        b.connect(n2, t, PinDirection::Output).unwrap();
        let netlist = b.build().unwrap();
        let config = PlacerConfig::new(4)
            .with_alpha_ilv(1.0e-5)
            .with_alpha_temp(1.0e-4);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 21);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);

        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..50 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            let x = rng.random_range(0.0..chip.width);
            let y = rng.random_range(0.0..chip.depth);
            let l = rng.random_range(0..chip.num_layers as u16);
            let before = obj.total();
            let probe = obj.delta_move(c, x, y, l);
            let applied = obj.apply_move(c, x, y, l);
            assert_eq!(probe, applied);
            // The delta must be the true objective change, not the
            // double-counted one: compare against a from-scratch total.
            let scratch = obj.recompute_total();
            assert!(
                (before + applied - scratch).abs() < 1e-9 * scratch.abs().max(1e-15),
                "delta {applied} drifts from scratch change {}",
                scratch - before
            );
        }
        // And the caches stay bitwise equal to a rebuild.
        let mut fresh = obj.clone();
        fresh.rebuild();
        assert_eq!(obj.nets, fresh.nets);
        assert_eq!(obj.cell_power, fresh.cell_power);
        assert_eq!(obj.cell_resistance, fresh.cell_resistance);
    }

    #[test]
    fn caches_stay_bitwise_equal_to_rebuild() {
        for &alpha_temp in &[0.0, 1.0e-4] {
            let (netlist, chip, config) = fixture(alpha_temp);
            let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
            let placement = random_spread(&netlist, &chip, 31);
            let mut obj = IncrementalObjective::new(&netlist, &model, placement);
            let mut rng = SmallRng::seed_from_u64(32);
            for i in 0..500 {
                let c = CellId::new(rng.random_range(0..netlist.num_cells()));
                if i % 3 == 0 {
                    let mut b = CellId::new(rng.random_range(0..netlist.num_cells()));
                    if b == c {
                        b = CellId::new((b.index() + 1) % netlist.num_cells());
                    }
                    obj.apply_swap(c, b);
                } else {
                    obj.apply_move(
                        c,
                        rng.random_range(0.0..chip.width),
                        rng.random_range(0.0..chip.depth),
                        rng.random_range(0..chip.num_layers as u16),
                    );
                }
            }
            let mut fresh = obj.clone();
            fresh.rebuild();
            assert_eq!(obj.nets, fresh.nets, "net extremes == rebuild");
            if alpha_temp > 0.0 {
                // Thermal caches are only maintained while the term is
                // active; with it off they freeze at the rebuild values.
                assert_eq!(obj.cell_power, fresh.cell_power, "cell power == rebuild");
                assert_eq!(
                    obj.cell_resistance, fresh.cell_resistance,
                    "cell resistance == rebuild"
                );
            }
        }
    }

    #[test]
    fn total_drift_stays_bounded_and_resyncs() {
        let (netlist, chip, config) = fixture(1.0e-4);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 41);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            obj.apply_move(
                c,
                rng.random_range(0.0..chip.width),
                rng.random_range(0.0..chip.depth),
                rng.random_range(0..chip.num_layers as u16),
            );
        }
        let scratch = obj.recompute_total();
        assert!(
            (obj.total() - scratch).abs() < 1e-6 * scratch.abs().max(1e-12),
            "accumulated {} vs recomputed {} after 10k moves",
            obj.total(),
            scratch
        );
        let drift = obj.resync_total();
        assert!(drift.abs() < 1e-6 * scratch.abs().max(1e-12));
        assert_eq!(
            obj.total(),
            scratch,
            "resync pins total to the recomputation"
        );
        // A second resync is a no-op.
        assert_eq!(obj.resync_total(), 0.0);
    }

    #[test]
    fn moving_apart_increases_wirelength_term() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let mut obj = IncrementalObjective::new(
            &netlist,
            &model,
            Placement::centered(netlist.num_cells(), &chip),
        );
        // Pick a cell that actually has nets (the generator can leave a
        // few cells unconnected).
        let connected = (0..netlist.num_cells())
            .map(CellId::new)
            .find(|&c| netlist.cell_nets(c).next().is_some())
            .expect("some connected cell");
        let d = obj.apply_move(connected, 0.0, 0.0, 0);
        assert!(d >= 0.0, "moving a cell away from the pack cannot help");
        assert!(obj.total_wirelength() > 0.0);
    }

    #[test]
    fn ilv_counts_layer_span() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let mut obj = IncrementalObjective::new(
            &netlist,
            &model,
            Placement::centered(netlist.num_cells(), &chip),
        );
        // Move one cell to layer 3: every net it touches now spans 3
        // boundaries.
        let c = CellId::new(0);
        let nets: Vec<NetId> = netlist.cell_nets(c).collect();
        obj.apply_move(c, chip.width / 2.0, chip.depth / 2.0, 3);
        for e in nets {
            assert_eq!(obj.net_geometry(e).ilv, 3.0);
        }
    }

    #[test]
    fn thermal_term_prefers_lower_layers() {
        let (netlist, chip, config) = fixture(1.0e-3);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 8);
        let obj = IncrementalObjective::new(&netlist, &model, placement);
        // Pick a driver cell and compare moving it down vs up, keeping
        // x/y identical so only the thermal term differs meaningfully.
        let driver = (0..netlist.num_cells())
            .map(CellId::new)
            .find(|&c| netlist.driven_nets(c).next().is_some() && obj.cell_power(c) > 0.0)
            .expect("some driver exists");
        let (x, y, _) = obj.placement().position(driver);
        let d_down = obj.delta_move(driver, x, y, 0);
        let d_up = obj.delta_move(driver, x, y, (chip.num_layers - 1) as u16);
        assert!(
            d_down - d_up < 0.0 - 1e-18 || obj.cell_power(driver) == 0.0,
            "down {d_down} should beat up {d_up} for a powered driver"
        );
    }

    #[test]
    fn extreme_multiplicity_survives_coincident_pins() {
        // Three cells at the same x: moving one off the shared extreme
        // must not force a stale bbox (the multiplicity path), and moving
        // the unique extreme must trigger a correct rescan.
        let mut b = NetlistBuilder::new();
        let c0 = b.add_cell("c0", 1.0e-6, 1.0e-6);
        let c1 = b.add_cell("c1", 1.0e-6, 1.0e-6);
        let c2 = b.add_cell("c2", 1.0e-6, 1.0e-6);
        let n = b.add_net("n");
        b.connect(n, c0, PinDirection::Output).unwrap();
        b.connect(n, c1, PinDirection::Input).unwrap();
        b.connect(n, c2, PinDirection::Input).unwrap();
        let netlist = b.build().unwrap();
        let config = PlacerConfig::new(2);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let mut p = Placement::centered(3, &chip);
        let (w, d) = (chip.width, chip.depth);
        p.set(c0, 0.0, 0.0, 0);
        p.set(c1, 0.0, d * 0.5, 0);
        p.set(c2, w * 0.5, d * 0.25, 0);
        let mut obj = IncrementalObjective::new(&netlist, &model, p);
        let e = NetId::new(0);
        assert_eq!(obj.net_geometry(e).wl_x, w * 0.5);
        // Two pins share x_min = 0; moving one away keeps the extreme.
        obj.apply_move(c1, w * 0.25, d * 0.5, 0);
        assert_eq!(obj.net_geometry(e).wl_x, w * 0.5);
        // Moving the last pin at x_min forces the rescan path.
        obj.apply_move(c0, w * 0.5, 0.0, 0);
        assert_eq!(obj.net_geometry(e).wl_x, w * 0.25);
        let mut fresh = obj.clone();
        fresh.rebuild();
        assert_eq!(obj.nets, fresh.nets);
    }
}
