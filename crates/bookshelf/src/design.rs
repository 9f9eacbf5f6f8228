//! Assembling parsed Bookshelf files into a placer-ready design.

use crate::nets::{NetsFile, PinDirectionHint};
use crate::nodes::NodesFile;
use crate::pl::PlFile;
use crate::scl::SclFile;
use crate::wts::WtsFile;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use tvp_netlist::{BuildNetlistError, CellId, CellKind, Netlist, NetlistBuilder, PinDirection};

/// Options controlling how Bookshelf files are assembled into a [`Design`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DesignBuilderOptions {
    /// Meters per Bookshelf site unit. IBM-PLACE uses abstract units; the
    /// DAC'07 setup derives geometry from the MIT-LL 0.18um process, where
    /// one site is on the order of a micron.
    pub meters_per_unit: f64,
}

impl Default for DesignBuilderOptions {
    fn default() -> Self {
        Self {
            meters_per_unit: 1.0e-6,
        }
    }
}

/// Error produced while assembling parsed files into a [`Design`].
#[derive(Clone, PartialEq, Debug)]
pub enum AssembleDesignError {
    /// A `.nets`/`.pl`/`.wts` record referenced a node missing from `.nodes`.
    UnknownNode(String),
    /// The underlying netlist builder rejected the connectivity.
    Netlist(BuildNetlistError),
}

impl fmt::Display for AssembleDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleDesignError::UnknownNode(name) => {
                write!(f, "reference to unknown node `{name}`")
            }
            AssembleDesignError::Netlist(e) => write!(f, "netlist construction failed: {e}"),
        }
    }
}

impl Error for AssembleDesignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AssembleDesignError::Netlist(e) => Some(e),
            AssembleDesignError::UnknownNode(_) => None,
        }
    }
}

impl From<BuildNetlistError> for AssembleDesignError {
    fn from(e: BuildNetlistError) -> Self {
        AssembleDesignError::Netlist(e)
    }
}

/// A fully assembled benchmark: the netlist plus optional initial positions
/// and row geometry, all converted to meters.
#[derive(Clone, PartialEq, Debug)]
pub struct Design {
    /// Benchmark name (from the `.aux` stem or generator config).
    pub name: String,
    /// The hypergraph netlist.
    pub netlist: Netlist,
    /// Initial `(x, y, layer)` per cell from `.pl`, meters; empty if absent.
    pub positions: Vec<(f64, f64, u32)>,
    /// Core row rectangles `(y_bottom, height, x_left, x_right)` from
    /// `.scl`, meters; empty if absent.
    pub rows: Vec<(f64, f64, f64, f64)>,
}

impl Design {
    /// Assembles a design from parsed Bookshelf files.
    ///
    /// Direction hints map as follows: the first `O` pin of a net becomes
    /// the driver; additional `O` pins and `B` pins are demoted to inputs
    /// (real suites occasionally contain multi-driver records).
    ///
    /// # Errors
    ///
    /// Returns [`AssembleDesignError::UnknownNode`] if `.nets`, `.pl`, or
    /// `.wts` reference a node that `.nodes` does not declare, or
    /// [`AssembleDesignError::Netlist`] if the netlist itself is invalid
    /// (e.g. non-positive cell dimensions).
    pub fn assemble(
        name: impl Into<String>,
        nodes: &NodesFile,
        nets: &NetsFile,
        wts: Option<&WtsFile>,
        pl: Option<&PlFile>,
        scl: Option<&SclFile>,
        options: DesignBuilderOptions,
    ) -> Result<Self, AssembleDesignError> {
        let scale = options.meters_per_unit;
        let mut builder =
            NetlistBuilder::with_capacity(nodes.nodes.len(), nets.nets.len(), nets.num_pins());
        let mut by_name: HashMap<&str, CellId> = HashMap::with_capacity(nodes.nodes.len());
        for record in &nodes.nodes {
            let kind = if record.terminal {
                CellKind::Fixed
            } else {
                CellKind::Movable
            };
            let id = builder.add_cell_with_kind(
                record.name.clone(),
                record.width * scale,
                record.height * scale,
                kind,
            );
            by_name.insert(record.name.as_str(), id);
        }

        let mut net_ids = HashMap::with_capacity(nets.nets.len());
        for record in &nets.nets {
            let net_id = builder.add_net(record.name.clone());
            net_ids.insert(record.name.as_str(), net_id);
            let mut has_driver = false;
            for pin in &record.pins {
                let &cell = by_name
                    .get(pin.node.as_str())
                    .ok_or_else(|| AssembleDesignError::UnknownNode(pin.node.clone()))?;
                let direction = match pin.direction {
                    Some(PinDirectionHint::Output) if !has_driver => {
                        has_driver = true;
                        PinDirection::Output
                    }
                    _ => PinDirection::Input,
                };
                builder.connect_with_offset(
                    net_id,
                    cell,
                    direction,
                    pin.offset_x * scale,
                    pin.offset_y * scale,
                )?;
            }
        }

        if let Some(wts) = wts {
            for record in &wts.records {
                if let Some(&net_id) = net_ids.get(record.name.as_str()) {
                    builder.set_net_weight(net_id, record.weight)?;
                }
                // Weights for nodes (some suites weight nodes) are ignored.
            }
        }

        let netlist = builder.build()?;

        let mut positions = Vec::new();
        if let Some(pl) = pl {
            positions = vec![(0.0, 0.0, 0u32); netlist.num_cells()];
            for record in &pl.records {
                let &cell = by_name
                    .get(record.name.as_str())
                    .ok_or_else(|| AssembleDesignError::UnknownNode(record.name.clone()))?;
                positions[cell.index()] = (
                    record.x * scale,
                    record.y * scale,
                    record.layer.unwrap_or(0),
                );
            }
        }

        let rows = scl
            .map(|scl| {
                scl.rows
                    .iter()
                    .map(|r| {
                        (
                            r.coordinate * scale,
                            r.height * scale,
                            r.subrow_origin * scale,
                            r.right_edge() * scale,
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();

        Ok(Design {
            name: name.into(),
            netlist,
            positions,
            rows,
        })
    }

    /// Assembles a design directly from Bookshelf file *text* in one
    /// streaming pass per file, with no intermediate record structures.
    ///
    /// Node and net names are read as `&str` slices of the input and only
    /// copied into the netlist arena, builders are pre-sized from the
    /// declared header counts, and the name→cell map borrows from
    /// `nodes_text` — at a million cells this path is several times faster
    /// than `parse_*` followed by [`assemble`](Self::assemble) and peaks
    /// at a fraction of the memory. [`load`](Self::load) uses it.
    ///
    /// Direction hints and `.wts`/`.pl` handling match
    /// [`assemble`](Self::assemble) exactly; the two paths produce
    /// identical designs.
    ///
    /// # Errors
    ///
    /// Returns [`LoadDesignError::Parse`] for malformed file text and
    /// [`LoadDesignError::Assemble`] for references to undeclared nodes or
    /// invalid netlist structure.
    pub fn assemble_streaming(
        name: impl Into<String>,
        nodes_text: &str,
        nets_text: &str,
        wts_text: Option<&str>,
        pl_text: Option<&str>,
        scl: Option<&SclFile>,
        options: DesignBuilderOptions,
    ) -> Result<Self, LoadDesignError> {
        Self::assemble_streaming_with(
            name, nodes_text, nets_text, wts_text, pl_text, scl, options, false,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble_streaming_with(
        name: impl Into<String>,
        nodes_text: &str,
        nets_text: &str,
        wts_text: Option<&str>,
        pl_text: Option<&str>,
        scl: Option<&SclFile>,
        options: DesignBuilderOptions,
        permissive: bool,
    ) -> Result<Self, LoadDesignError> {
        use tvp_netlist::FxHashMap;
        let build_err = |e: BuildNetlistError| LoadDesignError::from(AssembleDesignError::from(e));
        let scale = options.meters_per_unit;
        let mut nodes = crate::stream::NodesReader::new(nodes_text)?;
        let mut nets = crate::stream::NetsReader::new(nets_text)?;
        let nodes_header = nodes.header();
        let nets_header = nets.header();
        let mut builder = NetlistBuilder::with_capacity(
            nodes_header.num_nodes,
            nets_header.num_nets,
            nets_header.num_pins,
        );
        if permissive {
            builder = builder.permissive();
        }
        let mut by_name: FxHashMap<&str, CellId> =
            FxHashMap::with_capacity_and_hasher(nodes_header.num_nodes, Default::default());
        while let Some(record) = nodes.next_node()? {
            let kind = if record.terminal {
                CellKind::Fixed
            } else {
                CellKind::Movable
            };
            let id = builder.add_cell_with_kind(
                record.name,
                record.width * scale,
                record.height * scale,
                kind,
            );
            by_name.insert(record.name, id);
        }

        // Names borrowed from `nets_text` cover named records; generated
        // default names (`net{i}`) for unnamed records go in a side map so
        // `.wts` lookups behave identically to the record-based path.
        let mut net_ids: FxHashMap<&str, tvp_netlist::NetId> =
            FxHashMap::with_capacity_and_hasher(nets_header.num_nets, Default::default());
        let mut generated_ids: FxHashMap<String, tvp_netlist::NetId> = FxHashMap::default();
        while let Some(net) = nets.next_net()? {
            let net_id = match net.name {
                Some(n) => {
                    let id = builder.add_net(n);
                    net_ids.insert(n, id);
                    id
                }
                None => {
                    let n = format!("net{}", net.index);
                    let id = builder.add_net(n.clone());
                    generated_ids.insert(n, id);
                    id
                }
            };
            let mut has_driver = false;
            for _ in 0..net.degree {
                let pin = nets.next_pin()?;
                let &cell = by_name.get(pin.node).ok_or_else(|| {
                    LoadDesignError::from(AssembleDesignError::UnknownNode(pin.node.to_string()))
                })?;
                let direction = match pin.direction {
                    Some(PinDirectionHint::Output) if !has_driver => {
                        has_driver = true;
                        PinDirection::Output
                    }
                    _ => PinDirection::Input,
                };
                builder
                    .connect_with_offset(
                        net_id,
                        cell,
                        direction,
                        pin.offset_x * scale,
                        pin.offset_y * scale,
                    )
                    .map_err(build_err)?;
            }
        }

        if let Some(text) = wts_text {
            let mut wts = crate::stream::WtsReader::new(text);
            while let Some(record) = wts.next_record()? {
                let id = net_ids
                    .get(record.name)
                    .or_else(|| generated_ids.get(record.name));
                if let Some(&net_id) = id {
                    builder
                        .set_net_weight(net_id, record.weight)
                        .map_err(build_err)?;
                }
                // Weights for nodes (some suites weight nodes) are ignored.
            }
        }

        let netlist = builder.build().map_err(build_err)?;

        let mut positions = Vec::new();
        if let Some(text) = pl_text {
            let mut pl = crate::stream::PlReader::new(text);
            positions = vec![(0.0, 0.0, 0u32); netlist.num_cells()];
            while let Some(record) = pl.next_record()? {
                let &cell = by_name.get(record.name).ok_or_else(|| {
                    LoadDesignError::from(AssembleDesignError::UnknownNode(record.name.to_string()))
                })?;
                positions[cell.index()] = (
                    record.x * scale,
                    record.y * scale,
                    record.layer.unwrap_or(0),
                );
            }
        }

        let rows = scl
            .map(|scl| {
                scl.rows
                    .iter()
                    .map(|r| {
                        (
                            r.coordinate * scale,
                            r.height * scale,
                            r.subrow_origin * scale,
                            r.right_edge() * scale,
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();

        Ok(Design {
            name: name.into(),
            netlist,
            positions,
            rows,
        })
    }
}

/// Error loading a benchmark from disk: I/O, parse, or assembly.
#[derive(Debug)]
pub enum LoadDesignError {
    /// Reading a file failed.
    Io(std::io::Error),
    /// A Bookshelf file failed to parse.
    Parse(crate::ParseBookshelfError),
    /// The parsed files do not assemble into a consistent design.
    Assemble(AssembleDesignError),
    /// The `.aux` did not reference a required file kind.
    MissingFile(&'static str),
}

impl fmt::Display for LoadDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadDesignError::Io(e) => write!(f, "i/o error: {e}"),
            LoadDesignError::Parse(e) => write!(f, "parse error: {e}"),
            LoadDesignError::Assemble(e) => write!(f, "assembly error: {e}"),
            LoadDesignError::MissingFile(kind) => {
                write!(f, "aux file lists no `.{kind}` file")
            }
        }
    }
}

impl Error for LoadDesignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadDesignError::Io(e) => Some(e),
            LoadDesignError::Parse(e) => Some(e),
            LoadDesignError::Assemble(e) => Some(e),
            LoadDesignError::MissingFile(_) => None,
        }
    }
}

impl From<std::io::Error> for LoadDesignError {
    fn from(e: std::io::Error) -> Self {
        LoadDesignError::Io(e)
    }
}

impl From<crate::ParseBookshelfError> for LoadDesignError {
    fn from(e: crate::ParseBookshelfError) -> Self {
        LoadDesignError::Parse(e)
    }
}

impl From<AssembleDesignError> for LoadDesignError {
    fn from(e: AssembleDesignError) -> Self {
        LoadDesignError::Assemble(e)
    }
}

impl Design {
    /// Loads a benchmark from a `.aux` manifest on disk, parsing every
    /// referenced file (`.wts`, `.pl`, and `.scl` are optional).
    ///
    /// # Errors
    ///
    /// Returns [`LoadDesignError`] for I/O failures, parse errors, missing
    /// `.nodes`/`.nets` references, or inconsistent contents.
    pub fn load(
        aux_path: impl AsRef<std::path::Path>,
        options: DesignBuilderOptions,
    ) -> Result<Self, LoadDesignError> {
        Self::load_with(aux_path.as_ref(), options, false)
    }

    /// [`load`](Self::load) with the netlist builder in permissive mode:
    /// degenerate cell dimensions are admitted instead of rejected, so
    /// `tvp validate` can diagnose and repair such designs. Connectivity
    /// errors are still hard failures.
    ///
    /// # Errors
    ///
    /// Same as [`load`](Self::load), minus dimension rejections.
    pub fn load_permissive(
        aux_path: impl AsRef<std::path::Path>,
        options: DesignBuilderOptions,
    ) -> Result<Self, LoadDesignError> {
        Self::load_with(aux_path.as_ref(), options, true)
    }

    fn load_with(
        aux_path: &std::path::Path,
        options: DesignBuilderOptions,
        permissive: bool,
    ) -> Result<Self, LoadDesignError> {
        let aux = crate::parse_aux(&std::fs::read_to_string(aux_path)?)?;
        let dir = aux_path
            .parent()
            .unwrap_or_else(|| std::path::Path::new("."));
        let read = |name: &str| std::fs::read_to_string(dir.join(name));

        let nodes_name = aux
            .file_with_extension("nodes")
            .ok_or(LoadDesignError::MissingFile("nodes"))?;
        let nets_name = aux
            .file_with_extension("nets")
            .ok_or(LoadDesignError::MissingFile("nets"))?;
        let nodes_text = read(nodes_name)?;
        let nets_text = read(nets_name)?;
        let wts_text = aux.file_with_extension("wts").map(read).transpose()?;
        let pl_text = aux.file_with_extension("pl").map(read).transpose()?;
        let scl = aux
            .file_with_extension("scl")
            .map(|n| {
                read(n)
                    .map_err(LoadDesignError::from)
                    .and_then(|t| crate::parse_scl(&t).map_err(LoadDesignError::from))
            })
            .transpose()?;

        let name = aux_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "design".to_string());
        Design::assemble_streaming_with(
            name,
            &nodes_text,
            &nets_text,
            wts_text.as_deref(),
            pl_text.as_deref(),
            scl.as_ref(),
            options,
            permissive,
        )
    }

    /// Writes the design to `dir` as `<name>.aux`, `.nodes`, `.nets`,
    /// `.wts`, and (when positions are present) `.pl`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing files.
    pub fn save(
        &self,
        dir: impl AsRef<std::path::Path>,
        options: DesignBuilderOptions,
    ) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let (nodes, nets, wts, pl) = self.to_files(options);
        let base = &self.name;
        std::fs::write(
            dir.join(format!("{base}.nodes")),
            crate::write_nodes(&nodes),
        )?;
        std::fs::write(dir.join(format!("{base}.nets")), crate::write_nets(&nets))?;
        std::fs::write(dir.join(format!("{base}.wts")), crate::write_wts(&wts))?;
        let mut files = vec![
            format!("{base}.nodes"),
            format!("{base}.nets"),
            format!("{base}.wts"),
        ];
        if let Some(pl) = pl {
            std::fs::write(dir.join(format!("{base}.pl")), crate::write_pl(&pl))?;
            files.push(format!("{base}.pl"));
        }
        let aux = crate::AuxFile {
            style: "RowBasedPlacement".to_string(),
            files,
        };
        std::fs::write(dir.join(format!("{base}.aux")), crate::write_aux(&aux))?;
        Ok(())
    }

    /// Wraps an existing netlist as a design with no positions or rows.
    pub fn from_netlist(name: impl Into<String>, netlist: Netlist) -> Self {
        Self {
            name: name.into(),
            netlist,
            positions: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Converts the design back to Bookshelf file structures (the inverse
    /// of [`assemble`](Self::assemble)), scaling meters to site units.
    /// Layers are written through the 3D `.pl` extension.
    pub fn to_files(
        &self,
        options: DesignBuilderOptions,
    ) -> (
        crate::NodesFile,
        crate::NetsFile,
        crate::WtsFile,
        Option<crate::PlFile>,
    ) {
        let inv = 1.0 / options.meters_per_unit;
        let nodes = crate::NodesFile {
            nodes: self
                .netlist
                .cells()
                .iter()
                .map(|c| crate::NodeRecord {
                    name: c.name().to_string(),
                    width: c.width() * inv,
                    height: c.height() * inv,
                    terminal: !c.is_movable(),
                })
                .collect(),
        };
        let nets = crate::NetsFile {
            nets: self
                .netlist
                .iter_nets()
                .map(|(nid, n)| crate::NetRecord {
                    name: n.name().to_string(),
                    pins: self
                        .netlist
                        .net_pins(nid)
                        .iter()
                        .map(|&p| {
                            let pin = self.netlist.pin(p);
                            crate::NetPinRecord {
                                node: self.netlist.cell(pin.cell()).name().to_string(),
                                direction: Some(match pin.direction() {
                                    tvp_netlist::PinDirection::Output => {
                                        crate::PinDirectionHint::Output
                                    }
                                    tvp_netlist::PinDirection::Input => {
                                        crate::PinDirectionHint::Input
                                    }
                                }),
                                offset_x: pin.offset_x() * inv,
                                offset_y: pin.offset_y() * inv,
                            }
                        })
                        .collect(),
                })
                .collect(),
        };
        let wts = crate::WtsFile {
            records: self
                .netlist
                .nets()
                .iter()
                .map(|n| crate::WtsRecord {
                    name: n.name().to_string(),
                    weight: n.weight(),
                })
                .collect(),
        };
        let pl = (!self.positions.is_empty()).then(|| crate::PlFile {
            records: self
                .netlist
                .cells()
                .iter()
                .zip(&self.positions)
                .map(|(c, &(x, y, layer))| crate::PlRecord {
                    name: c.name().to_string(),
                    x: x * inv,
                    y: y * inv,
                    layer: Some(layer),
                    orient: "N".to_string(),
                    fixed: !c.is_movable(),
                })
                .collect(),
        });
        (nodes, nets, wts, pl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_nets, parse_nodes, parse_pl, parse_scl, parse_wts};

    fn sample() -> Design {
        let nodes =
            parse_nodes("NumNodes : 3\nNumTerminals : 1\n a 4 8\n b 2 8\n p 1 1 terminal\n")
                .unwrap();
        let nets = parse_nets(
            "NumNets : 2\nNumPins : 4\nNetDegree : 2 n0\n a O\n b I\nNetDegree : 2 n1\n b O\n p I\n",
        )
        .unwrap();
        let wts = parse_wts("n0 2\n").unwrap();
        let pl = parse_pl("a 0 0 : N\nb 4 0 : N\np 10 10 : N /FIXED\n").unwrap();
        let scl = parse_scl(
            "NumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n Height : 8\n SubrowOrigin : 0 NumSites : 20\nEnd\n",
        )
        .unwrap();
        Design::assemble(
            "sample",
            &nodes,
            &nets,
            Some(&wts),
            Some(&pl),
            Some(&scl),
            DesignBuilderOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn assembles_netlist_with_units() {
        let d = sample();
        assert_eq!(d.netlist.num_cells(), 3);
        assert_eq!(d.netlist.num_nets(), 2);
        let a = &d.netlist.cells()[0];
        assert!((a.width() - 4.0e-6).abs() < 1e-18);
        assert!(!d.netlist.cells()[2].is_movable());
    }

    #[test]
    fn maps_directions_and_weights() {
        let d = sample();
        let n0 = tvp_netlist::NetId::new(0);
        assert_eq!(
            d.netlist.net_driver_cell(n0),
            Some(tvp_netlist::CellId::new(0))
        );
        assert_eq!(d.netlist.net(n0).weight(), 2.0);
    }

    #[test]
    fn carries_positions_and_rows() {
        let d = sample();
        assert_eq!(d.positions.len(), 3);
        assert!((d.positions[1].0 - 4.0e-6).abs() < 1e-18);
        assert_eq!(d.rows.len(), 1);
        assert!((d.rows[0].3 - 20.0e-6).abs() < 1e-18);
    }

    #[test]
    fn to_files_round_trips_through_text() {
        let d = sample();
        let opts = DesignBuilderOptions::default();
        let (nodes, nets, wts, pl) = d.to_files(opts);
        let nodes2 = parse_nodes(&crate::write_nodes(&nodes)).unwrap();
        let nets2 = parse_nets(&crate::write_nets(&nets)).unwrap();
        let wts2 = parse_wts(&crate::write_wts(&wts)).unwrap();
        let pl2 = parse_pl(&crate::write_pl(&pl.unwrap())).unwrap();
        let d2 = Design::assemble(
            "sample2",
            &nodes2,
            &nets2,
            Some(&wts2),
            Some(&pl2),
            None,
            opts,
        )
        .unwrap();
        assert_eq!(d.netlist.num_cells(), d2.netlist.num_cells());
        assert_eq!(d.netlist.num_nets(), d2.netlist.num_nets());
        assert_eq!(d.netlist.num_pins(), d2.netlist.num_pins());
        for (a, b) in d.positions.iter().zip(&d2.positions) {
            assert!((a.0 - b.0).abs() < 1e-15);
            assert!((a.1 - b.1).abs() < 1e-15);
            assert_eq!(a.2, b.2);
        }
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let d = sample();
        let dir = std::env::temp_dir().join(format!("tvp_bs_{}", std::process::id()));
        let opts = DesignBuilderOptions::default();
        d.save(&dir, opts).unwrap();
        let loaded = Design::load(dir.join("sample.aux"), opts).unwrap();
        assert_eq!(loaded.name, "sample");
        assert_eq!(loaded.netlist.num_cells(), d.netlist.num_cells());
        assert_eq!(loaded.netlist.num_nets(), d.netlist.num_nets());
        assert_eq!(loaded.netlist.num_pins(), d.netlist.num_pins());
        for (a, b) in d.positions.iter().zip(&loaded.positions) {
            assert!((a.0 - b.0).abs() < 1e-15 && (a.1 - b.1).abs() < 1e-15);
            assert_eq!(a.2, b.2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_reports_missing_aux() {
        let err = Design::load("/nonexistent/x.aux", DesignBuilderOptions::default()).unwrap_err();
        assert!(matches!(err, LoadDesignError::Io(_)));
        assert!(err.to_string().contains("i/o"));
    }

    #[test]
    fn load_reports_missing_nodes_reference() {
        let dir = std::env::temp_dir().join(format!("tvp_bs_aux_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("x.aux"), "RowBasedPlacement : x.nets\n").unwrap();
        let err = Design::load(dir.join("x.aux"), DesignBuilderOptions::default()).unwrap_err();
        assert!(matches!(err, LoadDesignError::MissingFile("nodes")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permissive_load_admits_degenerate_dims_for_repair_tooling() {
        let opts = DesignBuilderOptions::default();
        let dir = std::env::temp_dir().join(format!("tvp_bs_perm_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("x.aux"), "RowBasedPlacement : x.nodes x.nets\n").unwrap();
        std::fs::write(
            dir.join("x.nodes"),
            "NumNodes : 2\nNumTerminals : 0\n a 0 0\n b 1 1\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("x.nets"),
            "NumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n a O\n b I\n",
        )
        .unwrap();
        assert!(Design::load(dir.join("x.aux"), opts).is_err());
        let loaded = Design::load_permissive(dir.join("x.aux"), opts).unwrap();
        assert_eq!(loaded.netlist.num_cells(), 2);
        assert_eq!(loaded.netlist.cells()[0].width(), 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_netlist_wraps_without_positions() {
        let d = sample();
        let wrapped = Design::from_netlist("w", d.netlist.clone());
        assert_eq!(wrapped.name, "w");
        assert!(wrapped.positions.is_empty());
        assert!(wrapped.rows.is_empty());
    }

    #[test]
    fn unknown_node_in_nets_is_error() {
        let nodes = parse_nodes("NumNodes : 1\nNumTerminals : 0\n a 1 1\n").unwrap();
        let nets = parse_nets("NumNets : 1\nNumPins : 1\nNetDegree : 1 n0\n ghost I\n").unwrap();
        let err = Design::assemble(
            "x",
            &nodes,
            &nets,
            None,
            None,
            None,
            DesignBuilderOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AssembleDesignError::UnknownNode(_)));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn duplicate_output_pins_demoted() {
        let nodes = parse_nodes("NumNodes : 2\nNumTerminals : 0\n a 1 1\n b 1 1\n").unwrap();
        let nets = parse_nets("NumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n a O\n b O\n").unwrap();
        let d = Design::assemble(
            "x",
            &nodes,
            &nets,
            None,
            None,
            None,
            DesignBuilderOptions::default(),
        )
        .unwrap();
        let net = d.netlist.net(tvp_netlist::NetId::new(0));
        assert_eq!(net.num_input_pins(), 1);
    }
}
