//! Thermal-aware net weighting (paper §3.1, Eq. 6–8).
//!
//! Rewriting the objective per net (Eq. 7) yields one weight for the
//! lateral (x/y) wirelength component and one for the vertical (ILV)
//! component of every net:
//!
//! ```text
//! nw_lat(i)  = 1 + α_TEMP · R_i^net · s_i^wl
//! nw_vert(i) = 1 + α_TEMP · R_i^net · s_i^ilv / α_ILV
//! ```
//!
//! where `R_i^net` is the thermal resistance at the net's driver cell.
//! Nets that drive power into a hot (high-resistance) environment are
//! weighted up, so min-cut partitioning shortens them preferentially —
//! which reduces power exactly where it hurts most.

use crate::objective::ObjectiveModel;
use crate::Placement;
use tvp_netlist::{NetId, Netlist};

/// Minimum nets per parallel chunk (the per-net work is one resistance
/// query; smaller batches are not worth scheduling).
const NETWEIGHT_MIN_CHUNK: usize = 512;

/// Below this many nets the whole weighting runs inline — pool dispatch
/// costs more than it saves on small designs (BENCH_hotpaths.json showed
/// threading *regressing* 0.021 → 0.040 ms). The inline path runs the
/// identical chunks, so results stay bitwise equal.
const NETWEIGHT_SERIAL_BELOW: usize = 4096;

/// Per-net lateral and vertical weights.
#[derive(Clone, PartialEq, Debug)]
pub struct NetWeights {
    lateral: Vec<f64>,
    vertical: Vec<f64>,
}

impl NetWeights {
    /// Uniform unit weights (thermal weighting off).
    pub fn unit(num_nets: usize) -> Self {
        Self {
            lateral: vec![1.0; num_nets],
            vertical: vec![1.0; num_nets],
        }
    }

    /// Computes Eq. 8 weights at the current placement.
    ///
    /// `R_i^net` is evaluated with the full 3D straight-path model at each
    /// driver's current position (§3.2 notes the weights use all three
    /// dimensions). Driverless nets keep weight 1. The structural net
    /// weight from the benchmark multiplies both components.
    pub fn thermal(netlist: &Netlist, model: &ObjectiveModel, placement: &Placement) -> Self {
        let n = netlist.num_nets();
        let mut lateral = vec![0.0; n];
        let mut vertical = vec![0.0; n];
        let alpha_temp = model.alpha_temp;
        let alpha_ilv = model.alpha_ilv;
        // One weight pair per net, each a pure function of that net's
        // driver position: chunk-parallel and bitwise identical for any
        // thread count.
        tvp_parallel::for_each_chunk_mut2(
            &mut lateral,
            &mut vertical,
            NETWEIGHT_MIN_CHUNK,
            NETWEIGHT_SERIAL_BELOW,
            |start, lats, verts| {
                for (off, (l, v)) in lats.iter_mut().zip(verts.iter_mut()).enumerate() {
                    let net_id = NetId::new(start + off);
                    let structural = netlist.net(net_id).weight();
                    let (mut lat, mut vert) = (1.0, 1.0);
                    if alpha_temp > 0.0 {
                        if let Some(driver) = netlist.net_driver_cell(net_id) {
                            let (x, y, layer) = placement.position(driver);
                            let r_net =
                                model.cell_resistance(x, y, layer, netlist.cell(driver).area());
                            lat += alpha_temp * r_net * model.power().s_wl(net_id);
                            vert += alpha_temp * r_net * model.power().s_ilv(net_id) / alpha_ilv;
                        }
                    }
                    *l = structural * lat;
                    *v = structural * vert;
                }
            },
        );
        Self { lateral, vertical }
    }

    /// Weight of net `i` for x/y-direction cuts.
    #[inline]
    pub fn lateral(&self, net: NetId) -> f64 {
        self.lateral[net.index()]
    }

    /// Weight of net `i` for z-direction cuts.
    #[inline]
    pub fn vertical(&self, net: NetId) -> f64 {
        self.vertical[net.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chip, Placement, PlacerConfig};
    use tvp_bookshelf::synth::{generate, SynthConfig};
    use tvp_netlist::CellId;

    fn fixture(alpha_temp: f64) -> (Netlist, Chip, PlacerConfig) {
        let netlist = generate(&SynthConfig::named("t", 80, 4.0e-10)).unwrap();
        let config = PlacerConfig::new(4).with_alpha_temp(alpha_temp);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        (netlist, chip, config)
    }

    #[test]
    fn zero_alpha_temp_gives_structural_weights() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = Placement::centered(netlist.num_cells(), &chip);
        let w = NetWeights::thermal(&netlist, &model, &placement);
        for e in 0..netlist.num_nets() {
            let id = NetId::new(e);
            assert_eq!(w.lateral(id), netlist.net(id).weight());
            assert_eq!(w.vertical(id), netlist.net(id).weight());
        }
    }

    #[test]
    fn thermal_weights_exceed_one() {
        let (netlist, chip, config) = fixture(1.0e-4);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = Placement::centered(netlist.num_cells(), &chip);
        let w = NetWeights::thermal(&netlist, &model, &placement);
        let mut some_above = false;
        for e in 0..netlist.num_nets() {
            let id = NetId::new(e);
            assert!(w.lateral(id) >= netlist.net(id).weight());
            assert!(w.vertical(id) >= netlist.net(id).weight());
            if w.lateral(id) > netlist.net(id).weight() {
                some_above = true;
            }
        }
        assert!(some_above, "thermal term must raise some weights");
    }

    #[test]
    fn drivers_higher_in_the_stack_get_heavier_nets() {
        let (netlist, chip, config) = fixture(1.0e-3);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let mut placement = Placement::centered(netlist.num_cells(), &chip);
        let low = NetWeights::thermal(&netlist, &model, &placement);
        // Raise every cell to the top layer: all resistances grow.
        for i in 0..netlist.num_cells() {
            let c = CellId::new(i);
            let (x, y, _) = placement.position(c);
            placement.set(c, x, y, (chip.num_layers - 1) as u16);
        }
        let high = NetWeights::thermal(&netlist, &model, &placement);
        for e in 0..netlist.num_nets() {
            let id = NetId::new(e);
            if netlist.net_driver_cell(id).is_some() && netlist.net(id).switching_activity() > 0.0 {
                assert!(
                    high.lateral(id) >= low.lateral(id),
                    "net {e}: {} < {}",
                    high.lateral(id),
                    low.lateral(id)
                );
            }
        }
    }

    #[test]
    fn vertical_weight_scales_with_inverse_alpha_ilv() {
        let (netlist, chip, _) = fixture(1.0e-4);
        let config_small = PlacerConfig::new(4)
            .with_alpha_temp(1.0e-4)
            .with_alpha_ilv(1.0e-6);
        let config_large = PlacerConfig::new(4)
            .with_alpha_temp(1.0e-4)
            .with_alpha_ilv(1.0e-4);
        let model_small = ObjectiveModel::new(&netlist, &chip, &config_small).unwrap();
        let model_large = ObjectiveModel::new(&netlist, &chip, &config_large).unwrap();
        let placement = Placement::centered(netlist.num_cells(), &chip);
        let w_small = NetWeights::thermal(&netlist, &model_small, &placement);
        let w_large = NetWeights::thermal(&netlist, &model_large, &placement);
        // Smaller α_ILV → vias are cheap in the base objective → thermal
        // term dominates the vertical weight more strongly.
        let driven = (0..netlist.num_nets())
            .map(NetId::new)
            .find(|&e| {
                netlist.net_driver_cell(e).is_some() && netlist.net(e).switching_activity() > 0.0
            })
            .unwrap();
        assert!(w_small.vertical(driven) > w_large.vertical(driven));
    }

    #[test]
    fn unit_weights_are_all_one() {
        let w = NetWeights::unit(5);
        assert_eq!(w.lateral(NetId::new(4)), 1.0);
        assert_eq!(w.vertical(NetId::new(0)), 1.0);
    }
}
