//! The benchmark's own reference code for checking placements from the
//! outside: wirelength and via counts recomputed from coordinates, the
//! placement digest, and `.pl` decoding.

use std::collections::HashMap;
use tvp_core::Placement;
use tvp_netlist::{NetId, Netlist};

/// Relative tolerance for the recomputed wirelength: the reference sums
/// nets in netlist order, which need not be the engine's order.
pub const HPWL_REL_TOL: f64 = 1e-9;

/// `(HPWL, ILV)` of `placement`: per net, the half-perimeter of the pin
/// bounding box (cell position plus pin offset) and the number of
/// interlayer boundaries its pins span, summed over all nets.
pub fn hpwl_ilv(netlist: &Netlist, placement: &Placement) -> (f64, f64) {
    let mut hpwl = 0.0;
    let mut ilv = 0.0;
    for e in 0..netlist.num_nets() {
        let mut bbox: Option<(f64, f64, f64, f64, u16, u16)> = None;
        for &p in netlist.net_pins(NetId::new(e)) {
            let pin = netlist.pin(p);
            let (x, y, l) = placement.position(pin.cell());
            let (px, py) = (x + pin.offset_x(), y + pin.offset_y());
            bbox = Some(match bbox {
                None => (px, px, py, py, l, l),
                Some((x0, x1, y0, y1, l0, l1)) => (
                    x0.min(px),
                    x1.max(px),
                    y0.min(py),
                    y1.max(py),
                    l0.min(l),
                    l1.max(l),
                ),
            });
        }
        if let Some((x0, x1, y0, y1, l0, l1)) = bbox {
            hpwl += (x1 - x0) + (y1 - y0);
            ilv += f64::from(l1 - l0);
        }
    }
    (hpwl, ilv)
}

/// Checks reported wirelength and vias against [`hpwl_ilv`].
///
/// # Errors
///
/// Describes the first disagreement.
pub fn check_hpwl_ilv(
    netlist: &Netlist,
    placement: &Placement,
    reported_hpwl: f64,
    reported_ilv: f64,
) -> Result<(), String> {
    let (hpwl, ilv) = hpwl_ilv(netlist, placement);
    if (hpwl - reported_hpwl).abs() > HPWL_REL_TOL * hpwl.abs() {
        return Err(format!(
            "reported HPWL {reported_hpwl} != recomputed {hpwl}"
        ));
    }
    if ilv != reported_ilv {
        return Err(format!("reported ILV {reported_ilv} != recomputed {ilv}"));
    }
    Ok(())
}

/// Bit-exact digest of a placement: the byte stream and hash of
/// `tvp_serve::job::digest_placement`, so it can be compared with the
/// digest a daemon job reports.
pub fn digest(placement: &Placement) -> u64 {
    let mut bytes = Vec::with_capacity(placement.len() * 18);
    for (_, x, y, layer) in placement.iter() {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        bytes.extend_from_slice(&y.to_bits().to_le_bytes());
        bytes.extend_from_slice(&layer.to_le_bytes());
    }
    tvp_serve::job::fnv1a(bytes)
}

/// Decodes a 3D `.pl` document (coordinates in meters, as the daemon
/// renders them) into a placement of `netlist`'s cells.
///
/// # Errors
///
/// Fails on malformed text, unknown or missing cells, or a record without
/// a layer.
pub fn placement_from_pl(netlist: &Netlist, text: &str) -> Result<Placement, String> {
    let file = tvp_bookshelf::parse_pl(text).map_err(|e| format!(".pl: {e}"))?;
    let ids: HashMap<&str, usize> = netlist
        .iter_cells()
        .map(|(id, cell)| (cell.name(), id.index()))
        .collect();
    let n = netlist.num_cells();
    let (mut x, mut y, mut layer) = (vec![0.0; n], vec![0.0; n], vec![0u16; n]);
    let mut seen = vec![false; n];
    for record in &file.records {
        let &i = ids
            .get(record.name.as_str())
            .ok_or_else(|| format!(".pl names unknown cell `{}`", record.name))?;
        let l = record
            .layer
            .ok_or_else(|| format!(".pl record `{}` has no layer", record.name))?;
        x[i] = record.x;
        y[i] = record.y;
        layer[i] = u16::try_from(l).map_err(|_| format!("layer {l} out of range"))?;
        seen[i] = true;
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(format!(".pl lacks cell #{missing}"));
    }
    Ok(Placement::from_parts(x, y, layer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_bookshelf::synth::{generate, SynthConfig};
    use tvp_core::{Placer, PlacerConfig};
    use tvp_netlist::{NetlistBuilder, PinDirection};

    #[test]
    fn hpwl_and_ilv_of_a_hand_placed_net() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 1.0);
        let c = b.add_cell("c", 1.0, 1.0);
        let d = b.add_cell("d", 1.0, 1.0);
        let n = b.add_net("n");
        b.connect(n, a, PinDirection::Output).unwrap();
        b.connect_with_offset(n, c, PinDirection::Input, 0.5, -0.5)
            .unwrap();
        let lone = b.add_net("lone");
        b.connect(lone, d, PinDirection::Output).unwrap();
        let netlist = b.build().unwrap();
        let placement =
            Placement::from_parts(vec![0.0, 3.0, 9.0], vec![1.0, 4.0, 9.0], vec![0, 2, 3]);
        // Pins at (0, 1, layer 0) and (3.5, 3.5, layer 2); the one-pin
        // net spans nothing.
        assert_eq!(hpwl_ilv(&netlist, &placement), (3.5 + 2.5, 2.0));
        assert!(check_hpwl_ilv(&netlist, &placement, 6.0, 2.0).is_ok());
        assert!(check_hpwl_ilv(&netlist, &placement, 6.0 * (1.0 + 1e-6), 2.0).is_err());
        assert!(check_hpwl_ilv(&netlist, &placement, 6.0, 3.0).is_err());
    }

    #[test]
    fn reference_agrees_with_the_placer_and_the_daemon_digest() {
        let netlist = generate(&SynthConfig::named("t", 300, 1.5e-9)).unwrap();
        let result = Placer::new(PlacerConfig::new(4).with_threads(1))
            .place(&netlist)
            .unwrap();
        assert!(check_hpwl_ilv(
            &netlist,
            &result.placement,
            result.metrics.wirelength,
            result.metrics.ilv_count
        )
        .is_ok());
        assert_eq!(
            digest(&result.placement),
            tvp_serve::job::digest_placement(&result)
        );
    }

    #[test]
    fn pl_text_decodes_back_to_the_same_bits() {
        let netlist = generate(&SynthConfig::named("t", 40, 2.0e-10)).unwrap();
        let placement = Placement::from_parts(
            (0..40)
                .map(|i| f64::from(i) * 1.1e-7 + 1e-9 / 3.0)
                .collect(),
            (0..40).map(|i| f64::from(i) * 7.7e-8).collect(),
            (0..40).map(|i| (i % 4) as u16).collect(),
        );
        let records = netlist
            .iter_cells()
            .map(|(id, cell)| {
                let (x, y, layer) = placement.position(id);
                tvp_bookshelf::PlRecord {
                    name: cell.name().to_string(),
                    x,
                    y,
                    layer: Some(u32::from(layer)),
                    orient: "N".to_string(),
                    fixed: false,
                }
            })
            .collect();
        let text = tvp_bookshelf::write_pl(&tvp_bookshelf::PlFile { records });
        let decoded = placement_from_pl(&netlist, &text).unwrap();
        assert_eq!(digest(&decoded), digest(&placement));
        let truncated: String = text.lines().take(10).collect::<Vec<_>>().join("\n");
        assert!(placement_from_pl(&netlist, &truncated).is_err());
    }
}
