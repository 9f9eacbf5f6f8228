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
//! Pricing (`delta_move`, `delta_moves`, `delta_swap`) never touches the
//! committed caches: candidate geometry, power, and resistance values are
//! staged in a reusable epoch-stamped `DeltaWorkspace` owned by the
//! evaluator. Commit (`apply_move`, `apply_moves`, `apply_swap`) prices
//! through the same code path and then patches the staged values into the
//! caches, so a probe and its commit return bitwise-identical deltas.
//!
//! # Probe memo
//!
//! WL+ILV single-cell pricing and the coarse optimal-region rectangles
//! both read one *probe entry* per (cell, distinct net): the net's
//! extremes with the cell's own pins excluded, plus the committed
//! geometry. The evaluator owns one lazily built memo of these entries,
//! shared read-only (it is `Sync`) by every [`FrozenPricer`] worker. Each
//! entry is a pure function of the committed state of its net, so the
//! memo's only invalidation rule is exact: a commit that moves a cell
//! drops the entries of every net that cell touches, and `rebuild` drops
//! them all. Nothing outside this module creates or drops entries.
//!
//! Cells connecting to one net through several pins are handled by a
//! per-cell *distinct-net* CSR shared by pricing and commit: each incident
//! net is priced exactly once, with all of the cell's pins on it updated
//! together (the per-pin view double-counted such nets).
//!
//! Determinism contract (DESIGN.md §8, §11): every staged value is the
//! result of the same pin-order scan or exact O(1) extreme update, so the
//! incremental caches stay bitwise equal to a from-scratch `rebuild`
//! (`IncrementalObjective::rebuild`) after arbitrary move/swap sequences,
//! at every thread count.

use crate::power::PowerModel;
use crate::{Chip, Placement, PlacerConfig};
use std::cell::RefCell;
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

/// Full pin scan of one net, with up to a handful of staged position
/// overrides (later entries win). Pin order matches the builder's net pin
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
    let mut entry = ProbeEntry {
        own_pins: phi - plo,
        ..ProbeEntry::default()
    };
    if entry.own_pins == 1 {
        let pin = netlist.pin(cell_nets.pins[plo as usize]);
        entry.dx = pin.offset_x();
        entry.dy = pin.offset_y();
    }
    let ext = &nets[e.index()];
    let og = ext.geometry();
    entry.old_wl = og.wirelength();
    entry.old_ilv = og.ilv;

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
    for &p in netlist.net_pins(e) {
        let pin = netlist.pin(p);
        let c = pin.cell();
        if c == cell {
            continue;
        }
        let (cx, cy, cl) = placement.position(c);
        let (px, py) = (cx + pin.offset_x(), cy + pin.offset_y());
        entry.rx0 = entry.rx0.min(px);
        entry.rx1 = entry.rx1.max(px);
        entry.ry0 = entry.ry0.min(py);
        entry.ry1 = entry.ry1.max(py);
        entry.rl0 = entry.rl0.min(cl);
        entry.rl1 = entry.rl1.max(cl);
    }
    entry
}

/// Prices one net of a probe: folds the cell's pins at `pos` into the
/// entry's exclusion extremes and returns the WL + α_ILV·ILV change.
#[inline]
fn probe_entry_delta(
    netlist: &Netlist,
    cell_nets: &DistinctNets,
    idx: usize,
    entry: &ProbeEntry,
    pos: (f64, f64, u16),
    alpha_ilv: f64,
) -> f64 {
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
    (new_wl - entry.old_wl) + alpha_ilv * (new_ilv - entry.old_ilv)
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
    /// since its last invalidation — most nets in thermal mode, where
    /// only the global pass's optimal regions read the memo. `Relaxed`
    /// suffices: the flag publishes no data, and it is read only through
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

/// Read-only pricing view over the committed caches and the evaluator's
/// probe memo, for data-parallel proposal generation (DESIGN.md §11,
/// §16). It is `Sync` — unlike [`IncrementalObjective`], whose
/// interior-mutable staging workspace pins it to one thread — so every
/// worker of a parallel phase prices through the same view, and a probe
/// entry built by one worker serves all of them. Only available in
/// WL+ILV mode (`alpha_temp == 0`): the thermal term needs staged power
/// bookkeeping a read-only view cannot provide.
///
/// Deltas are priced against the state at snapshot time. Callers that
/// interleave commits must re-validate each proposal against the live
/// objective before applying — the coarse batched passes do exactly
/// that.
pub struct FrozenPricer<'b> {
    netlist: &'b Netlist,
    placement: &'b Placement,
    nets: &'b [NetExtremes],
    cell_nets: &'b DistinctNets,
    probes: &'b ProbeMemo,
    alpha_ilv: f64,
}

impl FrozenPricer<'_> {
    /// The snapshot's placement.
    #[inline]
    pub fn placement(&self) -> &Placement {
        self.placement
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
                    self.placement,
                    self.nets,
                    self.cell_nets,
                    idx,
                    cell,
                )
            })
    }

    /// Objective change if `cell` moved to `(x, y, layer)`, priced
    /// against the snapshot: one fold of the cell's memoized probe
    /// entries in CSR order — the same fold the live
    /// [`IncrementalObjective::delta_move`] runs in WL+ILV mode, so the
    /// two agree bitwise.
    pub fn delta_move(&self, cell: CellId, x: f64, y: f64, layer: u16) -> f64 {
        let mut delta = 0.0;
        for idx in self.cell_nets.range(cell) {
            delta += probe_entry_delta(
                self.netlist,
                self.cell_nets,
                idx,
                self.entry(idx, cell),
                (x, y, layer),
                self.alpha_ilv,
            );
        }
        delta
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
}

/// Reusable staging area for pricing: epoch-stamped sparse overlays over
/// the committed net/power/resistance caches, plus the staged move list
/// and per-move deltas. Pricing writes only here; commit patches the
/// staged values into the caches. Begin-of-probe cost is O(1) — clearing
/// is done by bumping the epoch, not by touching the stamp arrays.
#[derive(Clone, Debug, Default)]
struct DeltaWorkspace {
    epoch: u32,
    net_stamp: Vec<u32>,
    net_slot: Vec<u32>,
    net_entries: Vec<(NetId, NetExtremes)>,
    power_stamp: Vec<u32>,
    power_val: Vec<f64>,
    power_cells: Vec<CellId>,
    res_stamp: Vec<u32>,
    res_val: Vec<f64>,
    res_cells: Vec<CellId>,
    /// Staged moves, in pricing order (later entries win on conflict).
    moves: Vec<(CellId, (f64, f64, u16))>,
    /// Per-move deltas; commit folds them into `total` one by one, so a
    /// committed swap perturbs `total` exactly like two sequential moves.
    deltas: Vec<f64>,
    /// Scratch: drivers touched by the move being priced (deduplicated).
    drivers: Vec<CellId>,
}

impl DeltaWorkspace {
    fn sized(nets: usize, cells: usize) -> Self {
        Self {
            epoch: 0,
            net_stamp: vec![0; nets],
            net_slot: vec![0; nets],
            power_stamp: vec![0; cells],
            power_val: vec![0.0; cells],
            res_stamp: vec![0; cells],
            res_val: vec![0.0; cells],
            ..Self::default()
        }
    }

    /// Starts a fresh pricing sequence (invalidates all staged state).
    fn begin(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap: reset the stamps once every 2^32 - 1 probes.
            self.net_stamp.fill(0);
            self.power_stamp.fill(0);
            self.res_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.net_entries.clear();
        self.power_cells.clear();
        self.res_cells.clear();
        self.moves.clear();
        self.deltas.clear();
    }

    /// The position a cell would have after the staged moves.
    #[inline]
    fn effective_position(&self, placement: &Placement, cell: CellId) -> (f64, f64, u16) {
        let mut pos = placement.position(cell);
        for &(m, p) in &self.moves {
            if m == cell {
                pos = p;
            }
        }
        pos
    }
}

/// One candidate relocation, for the multi-move pricing/commit APIs.
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
/// and resistance caches, and the scalar total. Probes price in O(1)
/// amortized per incident net and never touch the committed caches.
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
    pricing: RefCell<DeltaWorkspace>,
}

impl<'a> IncrementalObjective<'a> {
    /// Builds the evaluator for a placement.
    pub fn new(netlist: &'a Netlist, model: &'a ObjectiveModel, placement: Placement) -> Self {
        let cell_nets = DistinctNets::build(netlist);
        let mut this = Self {
            netlist,
            model,
            placement,
            nets: vec![NetExtremes::default(); netlist.num_nets()],
            cell_power: vec![0.0; netlist.num_cells()],
            cell_resistance: vec![0.0; netlist.num_cells()],
            total: 0.0,
            probes: ProbeMemo::empty(cell_nets.entries.len(), netlist.num_nets()),
            cell_nets,
            pricing: RefCell::new(DeltaWorkspace::sized(
                netlist.num_nets(),
                netlist.num_cells(),
            )),
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
            parallel::for_each_chunk_mut_cutoff(
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

        let mut cell_power = std::mem::take(&mut self.cell_power);
        let mut cell_resistance = std::mem::take(&mut self.cell_resistance);
        {
            let model = self.model;
            let placement = &self.placement;
            let nets = &self.nets;
            parallel::for_each_chunk_mut2_cutoff(
                &mut cell_power,
                &mut cell_resistance,
                REBUILD_MIN_CHUNK,
                REBUILD_SERIAL_BELOW,
                |start, powers, resistances| {
                    for (off, (p, r)) in powers.iter_mut().zip(resistances.iter_mut()).enumerate() {
                        let cell = CellId::new(start + off);
                        *p = model.power.cell_power(netlist, cell, |e| {
                            let g = nets[e.index()].geometry();
                            (g.wirelength(), g.ilv)
                        });
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
        let mut total = parallel::sum_chunks(nets.len(), SUM_MIN_CHUNK, |range| {
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
            total += parallel::sum_chunks(cell_power.len(), SUM_MIN_CHUNK, |range| {
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
    /// Maintained incrementally only while the thermal term is active
    /// (`alpha_temp > 0`); with the term off the cache stays at its last
    /// [`rebuild`](Self::rebuild) value — it never enters the objective
    /// then, and every consumer either scales it by `alpha_temp` or
    /// recomputes from the model.
    #[inline]
    pub fn cell_power(&self, cell: CellId) -> f64 {
        self.cell_power[cell.index()]
    }

    /// Cached thermal resistance of `cell`, K/W. Same maintenance
    /// contract as [`cell_power`](Self::cell_power).
    #[inline]
    pub fn cell_resistance(&self, cell: CellId) -> f64 {
        self.cell_resistance[cell.index()]
    }

    fn resistance_at(&self, cell: CellId, pos: (f64, f64, u16)) -> f64 {
        resistance_at(self.model, self.netlist, cell, pos)
    }

    /// The staged (if any) or committed geometry of a net.
    #[inline]
    fn staged_geometry(&self, ws: &DeltaWorkspace, e: NetId) -> NetGeometry {
        let ei = e.index();
        if ws.net_stamp[ei] == ws.epoch {
            ws.net_entries[ws.net_slot[ei] as usize].1.geometry()
        } else {
            self.nets[ei].geometry()
        }
    }

    /// From-scratch cell power against staged-or-committed geometry — the
    /// exact arithmetic `rebuild` uses, so committed power caches stay
    /// bitwise equal to a rebuild.
    fn staged_cell_power(&self, ws: &DeltaWorkspace, cell: CellId) -> f64 {
        self.model.power.cell_power(self.netlist, cell, |e| {
            let g = self.staged_geometry(ws, e);
            (g.wirelength(), g.ilv)
        })
    }

    /// Rescan of net `e` with all staged moves plus the candidate applied.
    fn rescan(
        &self,
        ws: &DeltaWorkspace,
        e: NetId,
        cell: CellId,
        pos: (f64, f64, u16),
    ) -> NetExtremes {
        let mut ext = NetExtremes::default();
        for &p in self.netlist.net_pins(e) {
            let pin = self.netlist.pin(p);
            let c = pin.cell();
            let cpos = if c == cell {
                pos
            } else {
                ws.effective_position(&self.placement, c)
            };
            ext.accumulate(cpos.0 + pin.offset_x(), cpos.1 + pin.offset_y(), cpos.2);
        }
        ext
    }

    /// Prices one move on top of the staged state, staging its geometry,
    /// power, and resistance effects. The returned delta is exactly what
    /// committing this move (after the already-staged ones) adds to
    /// `total`.
    fn price_move(&self, ws: &mut DeltaWorkspace, cell: CellId, pos: (f64, f64, u16)) -> f64 {
        let alpha_ilv = self.model.alpha_ilv;
        let alpha_temp = self.model.alpha_temp;
        let old_pos = ws.effective_position(&self.placement, cell);
        let mut delta = 0.0;
        ws.drivers.clear();

        for idx in self.cell_nets.range(cell) {
            let (e, plo, phi) = self.cell_nets.entries[idx];
            let ei = e.index();
            let staged = ws.net_stamp[ei] == ws.epoch;
            let old_ext = if staged {
                ws.net_entries[ws.net_slot[ei] as usize].1
            } else {
                self.nets[ei]
            };
            let mut new_ext = old_ext;
            let mut ok = true;
            for &p in &self.cell_nets.pins[plo as usize..phi as usize] {
                let pin = self.netlist.pin(p);
                let (dx, dy) = (pin.offset_x(), pin.offset_y());
                if !new_ext.update(
                    (old_pos.0 + dx, old_pos.1 + dy, old_pos.2),
                    (pos.0 + dx, pos.1 + dy, pos.2),
                ) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                new_ext = self.rescan(ws, e, cell, pos);
            }
            let og = old_ext.geometry();
            let ng = new_ext.geometry();
            delta += (ng.wirelength() - og.wirelength()) + alpha_ilv * (ng.ilv - og.ilv);
            if staged {
                ws.net_entries[ws.net_slot[ei] as usize].1 = new_ext;
            } else {
                ws.net_stamp[ei] = ws.epoch;
                ws.net_slot[ei] = ws.net_entries.len() as u32;
                ws.net_entries.push((e, new_ext));
            }
            if alpha_temp > 0.0 && ng != og {
                if let Some(d) = self.netlist.net_driver_cell(e) {
                    if d != cell && !ws.drivers.contains(&d) {
                        ws.drivers.push(d);
                    }
                }
            }
        }

        if alpha_temp > 0.0 {
            // Drivers of changed nets: their power changes at a fixed
            // resistance. Recomputed from scratch against the staged
            // geometry so the committed cache matches a rebuild bitwise.
            for i in 0..ws.drivers.len() {
                let d = ws.drivers[i];
                let di = d.index();
                let p_old = if ws.power_stamp[di] == ws.epoch {
                    ws.power_val[di]
                } else {
                    self.cell_power[di]
                };
                let p_new = self.staged_cell_power(ws, d);
                let r_d = if ws.res_stamp[di] == ws.epoch {
                    ws.res_val[di]
                } else {
                    self.cell_resistance[di]
                };
                delta += alpha_temp * r_d * (p_new - p_old);
                if ws.power_stamp[di] != ws.epoch {
                    ws.power_stamp[di] = ws.epoch;
                    ws.power_cells.push(d);
                }
                ws.power_val[di] = p_new;
            }
            // The moved cell: both its resistance and (if it drives any of
            // its own nets) its power change.
            let ci = cell.index();
            let p_old = if ws.power_stamp[ci] == ws.epoch {
                ws.power_val[ci]
            } else {
                self.cell_power[ci]
            };
            let p_new = self.staged_cell_power(ws, cell);
            let r_old = if ws.res_stamp[ci] == ws.epoch {
                ws.res_val[ci]
            } else {
                self.cell_resistance[ci]
            };
            let r_new = self.resistance_at(cell, pos);
            delta += alpha_temp * (r_new * p_new - r_old * p_old);
            if ws.power_stamp[ci] != ws.epoch {
                ws.power_stamp[ci] = ws.epoch;
                ws.power_cells.push(cell);
            }
            ws.power_val[ci] = p_new;
            if ws.res_stamp[ci] != ws.epoch {
                ws.res_stamp[ci] = ws.epoch;
                ws.res_cells.push(cell);
            }
            ws.res_val[ci] = r_new;
        }

        ws.moves.push((cell, pos));
        ws.deltas.push(delta);
        delta
    }

    /// Patches all staged values into the caches.
    fn commit(&mut self, ws: &DeltaWorkspace) {
        for &(e, ext) in &ws.net_entries {
            self.nets[e.index()] = ext;
        }
        for &c in &ws.power_cells {
            self.cell_power[c.index()] = ws.power_val[c.index()];
        }
        for &c in &ws.res_cells {
            self.cell_resistance[c.index()] = ws.res_val[c.index()];
        }
        for &(c, (x, y, l)) in &ws.moves {
            self.placement.set(c, x, y, l);
        }
        for &d in &ws.deltas {
            self.total += d;
        }
    }

    /// True when the probe memo prices exactly like the staged path:
    /// WL-only mode (the thermal term needs staged power bookkeeping).
    #[inline]
    fn fast_probes(&self) -> bool {
        self.model.alpha_temp == 0.0
    }

    /// The probe-memo view of the committed state, in any objective mode.
    fn memo(&self) -> FrozenPricer<'_> {
        FrozenPricer {
            netlist: self.netlist,
            placement: &self.placement,
            nets: &self.nets,
            cell_nets: &self.cell_nets,
            probes: &self.probes,
            alpha_ilv: self.model.alpha_ilv,
        }
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

    /// A [`FrozenPricer`] view of the committed state, or `None` when the
    /// thermal term is active (pricing then needs staged power
    /// bookkeeping a read-only view cannot provide).
    pub fn frozen_pricer(&self) -> Option<FrozenPricer<'_>> {
        self.fast_probes().then(|| self.memo())
    }

    /// Calls `push` with the optimal-region exclusion rectangles of
    /// `cell` — see [`FrozenPricer::exclusion_rects`]. Available in every
    /// objective mode: the rectangles are pure WL geometry.
    pub fn exclusion_rects(&self, cell: CellId, push: impl FnMut(f64, f64, f64, f64)) {
        self.memo().exclusion_rects(cell, push);
    }

    /// Objective change if `cell` moved to `(x, y, layer)`, without
    /// committing. Negative is an improvement. In WL+ILV mode this is the
    /// probe-memo fold of [`FrozenPricer::delta_move`]; with the thermal
    /// term it stages the move in the allocation-free workspace.
    pub fn delta_move(&self, cell: CellId, x: f64, y: f64, layer: u16) -> f64 {
        if let Some(frozen) = self.frozen_pricer() {
            return frozen.delta_move(cell, x, y, layer);
        }
        let mut ws = self.pricing.borrow_mut();
        let ws = &mut *ws;
        ws.begin();
        self.price_move(ws, cell, (x, y, layer))
    }

    /// Objective change for executing `moves` in order (later moves are
    /// priced on top of earlier ones), without committing. The sum equals
    /// folding the per-move deltas left to right, exactly as
    /// [`apply_moves`](Self::apply_moves) would add them to `total`.
    pub fn delta_moves(&self, moves: &[CellMove]) -> f64 {
        match (self.frozen_pricer(), moves) {
            (Some(frozen), [m]) => frozen.delta_move(m.cell, m.x, m.y, m.layer),
            (Some(frozen), [a, b]) if self.nets_disjoint(a.cell, b.cell) => {
                // Disjoint cells price independently: the staged path
                // would see no cross-talk between the two legs, so two
                // memo probes summed in order are bitwise identical.
                let mut sum = frozen.delta_move(a.cell, a.x, a.y, a.layer);
                sum += frozen.delta_move(b.cell, b.x, b.y, b.layer);
                sum
            }
            _ => {
                let mut ws = self.pricing.borrow_mut();
                let ws = &mut *ws;
                ws.begin();
                let mut sum = 0.0;
                for m in moves {
                    sum += self.price_move(ws, m.cell, (m.x, m.y, m.layer));
                }
                sum
            }
        }
    }

    /// True when `a` and `b` share no net (their moves price
    /// independently). O(deg(a) · deg(b)) over the distinct-net CSR —
    /// cell degrees are small.
    fn nets_disjoint(&self, a: CellId, b: CellId) -> bool {
        if a == b {
            return false;
        }
        let ra = self.cell_nets.range(a);
        for idx in self.cell_nets.range(b) {
            let (e, _, _) = self.cell_nets.entries[idx];
            if self.cell_nets.entries[ra.clone()]
                .iter()
                .any(|&(e2, _, _)| e2 == e)
            {
                return false;
            }
        }
        true
    }

    /// Objective change for swapping the positions of two cells, without
    /// committing. Read-only: `total`, the caches, and the placement are
    /// untouched.
    pub fn delta_swap(&self, a: CellId, b: CellId) -> f64 {
        let pa = self.placement.position(a);
        let pb = self.placement.position(b);
        self.delta_moves(&[
            CellMove {
                cell: a,
                x: pb.0,
                y: pb.1,
                layer: pb.2,
            },
            CellMove {
                cell: b,
                x: pa.0,
                y: pa.1,
                layer: pa.2,
            },
        ])
    }

    /// Moves `cell` to `(x, y, layer)`, updating all caches. Returns the
    /// objective change that was applied.
    pub fn apply_move(&mut self, cell: CellId, x: f64, y: f64, layer: u16) -> f64 {
        if !self.fast_probes() {
            return self.apply_moves(&[CellMove { cell, x, y, layer }]);
        }
        // WL-only single-move commit: patch the caches in place — the
        // same per-net update-or-rescan and the same delta arithmetic as
        // the staged path, minus the staging round trip. A commit is the
        // staged path's one-move sequence, so the returned delta is
        // bitwise identical (and equals the memo probe's).
        let pos = (x, y, layer);
        let old_pos = self.placement.position(cell);
        let alpha_ilv = self.model.alpha_ilv;
        let mut delta = 0.0;
        for idx in self.cell_nets.range(cell) {
            let (e, plo, phi) = self.cell_nets.entries[idx];
            let old_ext = self.nets[e.index()];
            let mut new_ext = old_ext;
            let mut ok = true;
            for &p in &self.cell_nets.pins[plo as usize..phi as usize] {
                let pin = self.netlist.pin(p);
                let (dx, dy) = (pin.offset_x(), pin.offset_y());
                if !new_ext.update(
                    (old_pos.0 + dx, old_pos.1 + dy, old_pos.2),
                    (pos.0 + dx, pos.1 + dy, pos.2),
                ) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                new_ext = scan_net_extremes(self.netlist, &self.placement, e, &[(cell, pos)]);
            }
            let og = old_ext.geometry();
            let ng = new_ext.geometry();
            delta += (ng.wirelength() - og.wirelength()) + alpha_ilv * (ng.ilv - og.ilv);
            self.nets[e.index()] = new_ext;
        }
        self.placement.set(cell, x, y, layer);
        self.total += delta;
        self.drop_stale_probes(cell);
        delta
    }

    /// Executes `moves` in order, updating all caches once. Returns the
    /// total objective change, bitwise equal to what
    /// [`delta_moves`](Self::delta_moves) predicted.
    pub fn apply_moves(&mut self, moves: &[CellMove]) -> f64 {
        let mut ws = self.pricing.take();
        ws.begin();
        let mut sum = 0.0;
        for m in moves {
            sum += self.price_move(&mut ws, m.cell, (m.x, m.y, m.layer));
        }
        self.commit(&ws);
        for &(cell, _) in &ws.moves {
            self.drop_stale_probes(cell);
        }
        *self.pricing.get_mut() = ws;
        sum
    }

    /// Commits one planned row of shift moves. Every entry goes through
    /// the single-move commit path in order, so the caches, `total`, and
    /// the returned summed delta are bitwise identical to calling
    /// [`apply_move`](Self::apply_move) per cell — the contract the
    /// row-parallel shift engine's serial commit phase relies on. Unlike
    /// [`apply_moves`](Self::apply_moves) this never stages: a row plan
    /// touches each cell at most once, so there is no cross-move
    /// dependence to stage for, and in WL+ILV mode every commit takes
    /// the in-place fast path.
    pub fn apply_row_moves(&mut self, moves: &[CellMove]) -> f64 {
        let mut sum = 0.0;
        for m in moves {
            sum += self.apply_move(m.cell, m.x, m.y, m.layer);
        }
        sum
    }

    /// Swaps the positions of two cells. Returns the objective change.
    pub fn apply_swap(&mut self, a: CellId, b: CellId) -> f64 {
        let pa = self.placement.position(a);
        let pb = self.placement.position(b);
        self.apply_moves(&[
            CellMove {
                cell: a,
                x: pb.0,
                y: pb.1,
                layer: pb.2,
            },
            CellMove {
                cell: b,
                x: pa.0,
                y: pa.1,
                layer: pa.2,
            },
        ])
    }

    /// Reference pricing kernel: prices a move by fully rescanning every
    /// incident net's bounding box, one scan per pin — the pre-delta-engine
    /// algorithm. Kept for benches (the speedup baseline) and as an
    /// independent oracle in tests. With `alpha_temp == 0` it returns the
    /// same delta as [`delta_move`](Self::delta_move) bitwise (for
    /// netlists without shared-net pins; with them, this kernel
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
            let new_r = self.resistance_at(cell, pos);
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

    /// Recomputes the objective from scratch and returns it (for
    /// consistency checks; does not modify the caches).
    pub fn recompute_total(&self) -> f64 {
        let mut clone = Self {
            netlist: self.netlist,
            model: self.model,
            placement: self.placement.clone(),
            nets: vec![NetExtremes::default(); self.netlist.num_nets()],
            cell_power: vec![0.0; self.netlist.num_cells()],
            cell_resistance: vec![0.0; self.netlist.num_cells()],
            total: 0.0,
            cell_nets: DistinctNets::default(),
            probes: ProbeMemo::default(),
            pricing: RefCell::new(DeltaWorkspace::default()),
        };
        clone.rebuild();
        clone.total
    }

    /// Re-syncs the accumulated `total` with a from-scratch recomputation
    /// and returns the drift (`accumulated − recomputed`) that was
    /// corrected. Called at stage boundaries so float round-off from long
    /// move sequences never compounds across stages.
    pub fn resync_total(&mut self) -> f64 {
        let fresh = self.recompute_total();
        let drift = self.total - fresh;
        self.total = fresh;
        drift
    }
}

fn resistance_at(
    model: &ObjectiveModel,
    netlist: &Netlist,
    cell: CellId,
    (x, y, layer): (f64, f64, u16),
) -> f64 {
    if model.alpha_temp == 0.0 {
        return 0.0; // never read when the thermal term is off
    }
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
    fn cached_probe_matches_staged_commit_wl_only() {
        // WL-only probes go through the probe memo while commits price
        // through the staged path; the two must agree bitwise, for moves
        // and for swaps (disjoint and net-sharing).
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
                assert_eq!(probe, applied, "swap probe == staged commit");
            } else {
                let x = rng.random_range(0.0..chip.width);
                let y = rng.random_range(0.0..chip.depth);
                let l = rng.random_range(0..chip.num_layers as u16);
                let probe = obj.delta_move(c, x, y, l);
                let applied = obj.apply_move(c, x, y, l);
                assert_eq!(probe, applied, "move probe == staged commit");
            }
        }
        // The random pairs must have covered both swap pricing paths.
        assert!(shared > 0, "no net-sharing swap pair was exercised");
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
