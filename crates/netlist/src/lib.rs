//! Standard-cell netlist data model for 3D-IC placement.
//!
//! This crate provides the hypergraph netlist representation shared by every
//! stage of the thermal/via-aware 3D placement flow: cells with physical
//! dimensions, multi-pin nets with switching activities, and directed pins
//! (drivers vs. sinks) that the power model of the placer needs.
//!
//! The representation is arena-based: cells, nets, and pins live in flat
//! vectors indexed by the newtype IDs [`CellId`], [`NetId`], and [`PinId`].
//! A [`Netlist`] is immutable once built; construct one through
//! [`NetlistBuilder`], which validates the design before freezing it into
//! compact connectivity arrays.
//!
//! # Example
//!
//! ```
//! use tvp_netlist::{NetlistBuilder, PinDirection};
//!
//! # fn main() -> Result<(), tvp_netlist::BuildNetlistError> {
//! let mut b = NetlistBuilder::new();
//! let a = b.add_cell("a", 1.0e-6, 2.0e-6);
//! let c = b.add_cell("c", 1.0e-6, 2.0e-6);
//! let n = b.add_net("n1");
//! b.connect(n, a, PinDirection::Output)?;
//! b.connect(n, c, PinDirection::Input)?;
//! let netlist = b.build()?;
//! assert_eq!(netlist.num_cells(), 2);
//! assert_eq!(netlist.net(n).degree(), 2);
//! # Ok(())
//! # }
//! ```

mod cell;
mod error;
pub mod hash;
mod ids;
mod net;
mod netlist;
mod pin;
mod stats;

pub use cell::{Cell, CellKind};
pub use error::BuildNetlistError;
pub use hash::{fnv1a, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{CellId, NetId, PinId};
pub use net::Net;
pub use netlist::{Netlist, NetlistBuilder};
pub use pin::{Pin, PinDirection};
pub use stats::NetlistStats;
