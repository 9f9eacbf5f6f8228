//! Stage-boundary checkpoints: Bookshelf `.pl` snapshots plus a manifest.
//!
//! When a checkpoint directory is configured
//! ([`PlaceOptions::checkpoint_dir`](crate::PlaceOptions)), the engine
//! writes the full placement after every *completed* stage and rewrites
//! `manifest.tvp` to point at it. A later run with the same directory
//! resumes from the newest checkpoint, skipping every stage the manifest
//! covers; because stage boundaries are also RNG boundaries (each stage
//! reseeds deterministically) and `.pl` coordinates round-trip `f64`
//! exactly, the resumed run finishes bitwise identical to an
//! uninterrupted one.
//!
//! Both files are written crash-safely by [`write_durable`]: content
//! goes to a temp file in the same directory, is fsynced, then renamed
//! over the target, so a crash mid-write can never leave a half-written
//! checkpoint under the final name. The manifest additionally records
//! an FNV-1a hash of the `.pl` bytes, so damage that slips past the
//! atomic write (filesystem corruption, manual truncation, fault
//! injection) is detected on resume: [`load_latest`] then *quarantines*
//! the damaged files — renames them to `*.corrupt` — and reports
//! [`CheckpointLoad::Quarantined`], letting the run restart fresh instead
//! of failing or resuming from garbage.
//!
//! Manifest format (`manifest.tvp`, one `key value` pair per line):
//!
//! ```text
//! tvp-checkpoint v1
//! stage_index 1
//! stage coarse[0]
//! stages 3
//! legal false
//! fingerprint 00a1b2c3d4e5f607
//! cells 250
//! placement stage-001.pl
//! placement_hash 8f1a2b3c4d5e6f70
//! ```
//!
//! The fingerprint hashes every placement-relevant configuration field
//! (thread count excluded — placements are thread-count independent) plus
//! the netlist shape; a mismatch means the checkpoint belongs to a
//! *different run* and is reported as [`PlaceError::Checkpoint`] rather
//! than quarantined or silently restarted — the files are intact and the
//! user should point the run at the right directory (or clear it).

use crate::{Chip, PlaceError, Placement, PlacerConfig};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use tvp_bookshelf::{parse_pl, write_pl, PlFile, PlRecord};
use tvp_netlist::{fnv1a, CellId, Netlist};

/// Name of the manifest file inside a checkpoint directory.
pub const MANIFEST_NAME: &str = "manifest.tvp";

/// The state restored from the newest checkpoint of a directory.
#[derive(Clone, PartialEq, Debug)]
pub struct ResumePoint {
    /// Index (in the stage plan) of the last completed stage.
    pub stage_index: usize,
    /// Name of that stage.
    pub stage: String,
    /// Whether the checkpointed placement is row-legal.
    pub legal: bool,
    /// The restored placement.
    pub placement: Placement,
}

/// What [`load_latest`] found in a checkpoint directory.
#[derive(Clone, PartialEq, Debug)]
pub enum CheckpointLoad {
    /// No manifest: a fresh run.
    Fresh,
    /// A valid checkpoint to resume from.
    Resume(ResumePoint),
    /// The checkpoint was damaged (truncated or corrupted content); the
    /// offending files were renamed to `*.corrupt` and the run should
    /// start fresh.
    Quarantined {
        /// The `*.corrupt` paths the damaged files now live under.
        quarantined: Vec<String>,
        /// What was wrong with the checkpoint.
        reason: String,
    },
}

fn ck_err(path: &Path, reason: impl Into<String>) -> PlaceError {
    PlaceError::Checkpoint {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// Fingerprint of everything that determines the placement trajectory:
/// the full configuration (thread count normalized away) and the netlist
/// shape. FNV-1a over the debug rendering — stability across *builds* is
/// not required, only agreement between the run that wrote a checkpoint
/// and the run resuming from it.
pub fn fingerprint(netlist: &Netlist, config: &PlacerConfig) -> u64 {
    let mut cfg = config.clone();
    cfg.threads = 0; // any thread count produces the same placement
    let text = format!(
        "{cfg:?}|cells={}|nets={}|pins={}",
        netlist.num_cells(),
        netlist.num_nets(),
        netlist.num_pins()
    );
    fnv1a(text.bytes())
}

/// Writes `bytes` to `path` durably: through a sibling `.tmp` file that
/// is fsynced and then renamed over `path`, so a crash leaves the old
/// file or the new one, never a truncated mix. The directory is synced
/// after the rename where the platform allows it, so the new name
/// survives a crash too. A failed write removes the `.tmp` file.
///
/// # Errors
///
/// Any I/O failure of the write, the fsync or the rename.
pub fn write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let written = std::fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    match &written {
        Ok(()) => {
            if let Some(dir) = path.parent() {
                let _ = std::fs::File::open(dir).and_then(|dir| dir.sync_all());
            }
        }
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
        }
    }
    written
}

/// Writes the checkpoint for stage `stage_index` and updates the
/// manifest. Both writes are atomic (temp file + fsync + rename) and the
/// manifest carries a content hash of the `.pl` bytes, so a later resume
/// detects any partial or damaged write. Returns the path of the written
/// `.pl` file.
///
/// # Errors
///
/// Returns [`PlaceError::Checkpoint`] for any I/O failure.
#[allow(clippy::too_many_arguments)]
pub fn write_checkpoint(
    dir: &Path,
    stage_index: usize,
    stage: &str,
    num_stages: usize,
    legal: bool,
    netlist: &Netlist,
    placement: &Placement,
    fingerprint: u64,
) -> Result<String, PlaceError> {
    std::fs::create_dir_all(dir).map_err(|e| ck_err(dir, e.to_string()))?;

    let pl_name = format!("stage-{stage_index:03}.pl");
    let mut file = PlFile::default();
    for (cell, x, y, layer) in placement.iter() {
        file.records.push(PlRecord {
            name: netlist.cell(cell).name().to_string(),
            x,
            y,
            layer: Some(layer as u32),
            orient: "N".to_string(),
            fixed: !netlist.cell(cell).is_movable(),
        });
    }
    let pl_bytes = write_pl(&file).into_bytes();
    let pl_path = dir.join(&pl_name);
    write_durable(&pl_path, &pl_bytes).map_err(|e| ck_err(&pl_path, e.to_string()))?;

    // The manifest is written second: a crash between the two writes
    // leaves the previous manifest intact and still consistent.
    let manifest = format!(
        "tvp-checkpoint v1\n\
         stage_index {stage_index}\n\
         stage {stage}\n\
         stages {num_stages}\n\
         legal {legal}\n\
         fingerprint {fingerprint:016x}\n\
         cells {}\n\
         placement {pl_name}\n\
         placement_hash {:016x}\n",
        placement.len(),
        fnv1a(pl_bytes.iter().copied())
    );
    let manifest_path = dir.join(MANIFEST_NAME);
    write_durable(&manifest_path, manifest.as_bytes())
        .map_err(|e| ck_err(&manifest_path, e.to_string()))?;
    Ok(pl_path.display().to_string())
}

/// Truncates a checkpoint file to half its length, simulating a partial
/// write that slipped past the atomic rename (the
/// [`FaultKind::CorruptCheckpoint`](crate::FaultKind) injection).
///
/// # Errors
///
/// Returns [`PlaceError::Checkpoint`] for any I/O failure.
pub fn truncate_for_fault(path: &Path) -> Result<(), PlaceError> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| ck_err(path, e.to_string()))?;
    let len = file
        .metadata()
        .map_err(|e| ck_err(path, e.to_string()))?
        .len();
    file.set_len(len / 2)
        .map_err(|e| ck_err(path, e.to_string()))?;
    file.sync_all().map_err(|e| ck_err(path, e.to_string()))?;
    Ok(())
}

/// Renames each existing file to `<name>.corrupt` (best effort) and
/// returns the new paths of those that were moved.
fn quarantine(paths: &[&Path]) -> Vec<String> {
    let mut moved = Vec::new();
    for path in paths {
        if !path.exists() {
            continue;
        }
        let mut name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "checkpoint".into());
        name.push(".corrupt");
        let target = path.with_file_name(name);
        if std::fs::rename(path, &target).is_ok() {
            moved.push(target.display().to_string());
        }
    }
    moved
}

/// Loads the newest checkpoint of `dir`.
///
/// Returns [`CheckpointLoad::Fresh`] when the directory has no manifest,
/// and [`CheckpointLoad::Quarantined`] when the checkpoint content is
/// damaged — truncated or malformed manifest, placement-hash mismatch,
/// unreadable or inconsistent `.pl`, a non-finite coordinate — in which
/// case the damaged files have been renamed to `*.corrupt` and the
/// caller should start fresh.
///
/// # Errors
///
/// Returns [`PlaceError::Checkpoint`] for I/O failures and for *intact*
/// checkpoints that belong to a different run (fingerprint, cell count,
/// or stage-plan mismatch): those are caller mistakes, not file damage,
/// so the files are left in place.
pub fn load_latest(
    dir: &Path,
    netlist: &Netlist,
    expected_fingerprint: u64,
    num_stages: usize,
    chip: &Chip,
) -> Result<CheckpointLoad, PlaceError> {
    let manifest_path = dir.join(MANIFEST_NAME);
    let text = match std::fs::read_to_string(&manifest_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(CheckpointLoad::Fresh),
        Err(e) => return Err(ck_err(&manifest_path, e.to_string())),
    };

    // Phase 1: parse the manifest. Any failure here means the file is
    // damaged -> quarantine.
    let parsed = match parse_manifest(&text) {
        Ok(p) => p,
        Err(reason) => {
            return Ok(CheckpointLoad::Quarantined {
                quarantined: quarantine(&[&manifest_path]),
                reason: format!("{}: {reason}", manifest_path.display()),
            })
        }
    };

    // Phase 2: compatibility. The manifest is intact but may describe a
    // different run -> hard error, leave the files alone.
    if parsed.fingerprint != expected_fingerprint {
        return Err(ck_err(
            &manifest_path,
            "checkpoint was written for a different design or configuration \
             (fingerprint mismatch)",
        ));
    }
    if parsed.cells != netlist.num_cells() {
        return Err(ck_err(
            &manifest_path,
            format!(
                "checkpoint has {} cells, netlist has {}",
                parsed.cells,
                netlist.num_cells()
            ),
        ));
    }
    if parsed.stages != num_stages || parsed.stage_index >= num_stages {
        return Err(ck_err(
            &manifest_path,
            format!(
                "stage plan mismatch: manifest {}/{}, run has {num_stages}",
                parsed.stage_index, parsed.stages
            ),
        ));
    }

    // Phase 3: restore the placement. Content damage -> quarantine both
    // files; genuine I/O failures (permissions, ...) stay hard errors.
    let pl_path = dir.join(&parsed.pl_name);
    let damaged = |reason: String| -> Result<CheckpointLoad, PlaceError> {
        Ok(CheckpointLoad::Quarantined {
            quarantined: quarantine(&[&manifest_path, &pl_path]),
            reason,
        })
    };
    let pl_bytes = match std::fs::read(&pl_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return damaged(format!("{}: placement file is missing", pl_path.display()))
        }
        Err(e) => return Err(ck_err(&pl_path, e.to_string())),
    };
    if let Some(expected) = parsed.pl_hash {
        let actual = fnv1a(pl_bytes.iter().copied());
        if actual != expected {
            return damaged(format!(
                "{}: placement hash mismatch (expected {expected:016x}, got {actual:016x}; \
                 truncated or partial write)",
                pl_path.display()
            ));
        }
    }
    let pl_text = match String::from_utf8(pl_bytes) {
        Ok(t) => t,
        Err(_) => return damaged(format!("{}: placement is not UTF-8", pl_path.display())),
    };
    let file = match parse_pl(&pl_text) {
        Ok(f) => f,
        Err(e) => return damaged(format!("{}: {e}", pl_path.display())),
    };

    let by_name: HashMap<&str, CellId> =
        netlist.iter_cells().map(|(id, c)| (c.name(), id)).collect();
    let n = netlist.num_cells();
    let mut placement = Placement::centered(n, chip);
    let mut seen = vec![false; n];
    for r in &file.records {
        let Some(&id) = by_name.get(r.name.as_str()) else {
            return damaged(format!("{}: unknown cell `{}`", pl_path.display(), r.name));
        };
        if !r.x.is_finite() || !r.y.is_finite() {
            return damaged(format!(
                "{}: cell `{}` has a non-finite position ({}, {})",
                pl_path.display(),
                r.name,
                r.x,
                r.y
            ));
        }
        let layer = r.layer.unwrap_or(0) as u16;
        placement.set(id, r.x, r.y, layer);
        seen[id.index()] = true;
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return damaged(format!(
            "{}: no position for cell `{}`",
            pl_path.display(),
            netlist.cell(CellId::new(missing)).name()
        ));
    }

    Ok(CheckpointLoad::Resume(ResumePoint {
        stage_index: parsed.stage_index,
        stage: parsed.stage,
        legal: parsed.legal,
        placement,
    }))
}

/// Policy for [`gc_store`]: what counts as garbage and how much disk the
/// store may keep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GcPolicy {
    /// Anything quarantined (`*.corrupt`) or abandoned (a per-job
    /// subdirectory the caller no longer claims) is deleted once its
    /// newest content is at least this old.
    pub max_age: std::time::Duration,
    /// After age-based collection, abandoned subdirectories are deleted
    /// oldest-first until the bytes they hold drop to this cap.
    /// Directories the caller still claims never count against the cap
    /// and are never deleted.
    pub max_total_bytes: u64,
}

impl Default for GcPolicy {
    fn default() -> Self {
        Self {
            max_age: std::time::Duration::from_secs(7 * 24 * 3600),
            max_total_bytes: 256 << 20,
        }
    }
}

/// What one [`gc_store`] sweep removed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GcReport {
    /// Aged `*.corrupt` quarantine files deleted (store-wide).
    pub corrupt_files_removed: usize,
    /// Abandoned per-job checkpoint directories deleted.
    pub dirs_removed: usize,
    /// Total bytes reclaimed.
    pub bytes_freed: u64,
}

impl GcReport {
    /// Whether the sweep removed anything at all.
    pub fn removed_anything(&self) -> bool {
        self.corrupt_files_removed > 0 || self.dirs_removed > 0
    }
}

/// Garbage-collects a checkpoint store rooted at `root`.
///
/// Two classes of garbage accumulate without this: `*.corrupt` files
/// left behind by quarantine (by design — damaged files are moved aside,
/// never destroyed, so they stay inspectable for a while) and whole
/// per-job checkpoint directories whose job finished or was abandoned
/// (e.g. a daemon was killed and the job never reclaimed). The sweep:
///
/// 1. deletes every `*.corrupt` file anywhere under `root` whose
///    modification time is at least [`GcPolicy::max_age`] old;
/// 2. treats each immediate subdirectory of `root` for which
///    `in_use(name)` returns `false` as abandoned, deletes those whose
///    newest content is at least `max_age` old, then — oldest first —
///    deletes further abandoned directories until the bytes they hold
///    fit under [`GcPolicy::max_total_bytes`].
///
/// Directories the caller claims via `in_use` are never touched, and
/// neither are live (non-corrupt) files directly under `root` — a plain
/// `--checkpoint-dir` used by a single run is only ever cleaned of its
/// aged quarantine files. The sweep is best-effort: entries that cannot
/// be read or removed are skipped, never an error — hygiene must not
/// take down the caller.
pub fn gc_store(root: &Path, policy: &GcPolicy, in_use: &dyn Fn(&str) -> bool) -> GcReport {
    let mut report = GcReport::default();
    let now = std::time::SystemTime::now();
    let aged = |t: std::time::SystemTime| -> bool {
        now.duration_since(t)
            .map(|age| age >= policy.max_age)
            .unwrap_or(false)
    };

    // Pass 1: aged quarantine files, anywhere in the store.
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            let path = entry.path();
            if meta.is_dir() {
                stack.push(path);
            } else if path.to_string_lossy().ends_with(".corrupt")
                && meta.modified().map(&aged).unwrap_or(false)
                && std::fs::remove_file(&path).is_ok()
            {
                report.corrupt_files_removed += 1;
                report.bytes_freed += meta.len();
            }
        }
    }

    // Pass 2: abandoned per-job directories, oldest first.
    let Ok(entries) = std::fs::read_dir(root) else {
        return report;
    };
    let mut abandoned: Vec<(PathBuf, std::time::SystemTime, u64)> = Vec::new();
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_dir() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if in_use(&name) {
            continue;
        }
        let (bytes, newest) = dir_stats(&entry.path());
        abandoned.push((entry.path(), newest, bytes));
    }
    abandoned.sort_by_key(|(_, newest, _)| *newest);
    let mut held: u64 = abandoned.iter().map(|(_, _, b)| b).sum();
    for (path, newest, bytes) in &abandoned {
        if (aged(*newest) || held > policy.max_total_bytes) && std::fs::remove_dir_all(path).is_ok()
        {
            report.dirs_removed += 1;
            report.bytes_freed += bytes;
            held -= bytes;
        }
    }
    report
}

/// Total file bytes under `dir` and the newest modification time found
/// (the UNIX epoch for an empty directory, which therefore always reads
/// as aged).
fn dir_stats(dir: &Path) -> (u64, std::time::SystemTime) {
    let mut bytes = 0u64;
    let mut newest = std::time::SystemTime::UNIX_EPOCH;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                bytes += meta.len();
                if let Ok(m) = meta.modified() {
                    newest = newest.max(m);
                }
            }
        }
    }
    (bytes, newest)
}

struct ParsedManifest {
    stage_index: usize,
    stage: String,
    stages: usize,
    legal: bool,
    fingerprint: u64,
    cells: usize,
    pl_name: String,
    /// Absent in manifests written before the hash was introduced.
    pl_hash: Option<u64>,
}

fn parse_manifest(text: &str) -> Result<ParsedManifest, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some("tvp-checkpoint v1") => {}
        other => return Err(format!("unsupported header {other:?}")),
    }
    let mut fields: HashMap<&str, &str> = HashMap::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed line `{line}`"))?;
        fields.insert(key, value.trim());
    }
    let field = |key: &str| -> Result<&str, String> {
        fields
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing field `{key}`"))
    };
    let parse_usize = |key: &str| -> Result<usize, String> {
        field(key)?
            .parse()
            .map_err(|_| format!("field `{key}` is not an integer"))
    };
    Ok(ParsedManifest {
        stage_index: parse_usize("stage_index")?,
        stage: field("stage")?.to_string(),
        stages: parse_usize("stages")?,
        legal: field("legal")? == "true",
        fingerprint: u64::from_str_radix(field("fingerprint")?, 16)
            .map_err(|_| "fingerprint is not hex".to_string())?,
        cells: parse_usize("cells")?,
        pl_name: field("placement")?.to_string(),
        pl_hash: match fields.get("placement_hash") {
            None => None,
            Some(v) => Some(
                u64::from_str_radix(v, 16).map_err(|_| "placement_hash is not hex".to_string())?,
            ),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_bookshelf::synth::{generate, SynthConfig};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tvp_ck_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fixture() -> (Netlist, Chip, PlacerConfig, Placement) {
        let netlist = generate(&SynthConfig::named("ck", 60, 3.0e-10)).unwrap();
        let config = PlacerConfig::new(2);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let mut placement = Placement::centered(netlist.num_cells(), &chip);
        // Awkward, non-round coordinates to exercise exact round-tripping.
        for i in 0..netlist.num_cells() {
            placement.set(
                CellId::new(i),
                chip.width * (i as f64 + 0.1) / 61.0,
                chip.depth * (i as f64 + 0.7) / 61.3,
                (i % 2) as u16,
            );
        }
        (netlist, chip, config, placement)
    }

    fn expect_resume(load: CheckpointLoad) -> ResumePoint {
        match load {
            CheckpointLoad::Resume(r) => r,
            other => panic!("expected a resume, got {other:?}"),
        }
    }

    fn expect_quarantine(load: CheckpointLoad) -> (Vec<String>, String) {
        match load {
            CheckpointLoad::Quarantined {
                quarantined,
                reason,
            } => (quarantined, reason),
            other => panic!("expected a quarantine, got {other:?}"),
        }
    }

    #[test]
    fn write_then_load_round_trips_bitwise() {
        let (netlist, chip, config, placement) = fixture();
        let dir = tmpdir("rt");
        let fp = fingerprint(&netlist, &config);
        write_checkpoint(&dir, 1, "coarse[0]", 3, false, &netlist, &placement, fp).unwrap();
        let resume = expect_resume(load_latest(&dir, &netlist, fp, 3, &chip).unwrap());
        assert_eq!(resume.stage_index, 1);
        assert_eq!(resume.stage, "coarse[0]");
        assert!(!resume.legal);
        assert_eq!(resume.placement, placement, "f64 positions must round-trip");
        // Atomic writes leave no temp droppings behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_a_fresh_run() {
        let (netlist, chip, config, _) = fixture();
        let dir = tmpdir("fresh");
        let fp = fingerprint(&netlist, &config);
        assert_eq!(
            load_latest(&dir, &netlist, fp, 3, &chip).unwrap(),
            CheckpointLoad::Fresh
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_an_error() {
        let (netlist, chip, config, placement) = fixture();
        let dir = tmpdir("fp");
        let fp = fingerprint(&netlist, &config);
        write_checkpoint(&dir, 0, "global", 3, false, &netlist, &placement, fp).unwrap();
        let err = load_latest(&dir, &netlist, fp ^ 1, 3, &chip).unwrap_err();
        assert!(matches!(err, PlaceError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("fingerprint"));
        // Incompatibility must NOT quarantine: the files are intact.
        assert!(dir.join(MANIFEST_NAME).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_ignores_threads_but_not_seed() {
        let (netlist, _, config, _) = fixture();
        let serial = fingerprint(&netlist, &config.clone().with_threads(1));
        let parallel = fingerprint(&netlist, &config.clone().with_threads(8));
        assert_eq!(serial, parallel, "thread count never changes placement");
        assert_ne!(
            fingerprint(&netlist, &config.clone().with_seed(1)),
            fingerprint(&netlist, &config.clone().with_seed(2))
        );
    }

    #[test]
    fn stage_plan_mismatch_is_an_error() {
        let (netlist, chip, config, placement) = fixture();
        let dir = tmpdir("plan");
        let fp = fingerprint(&netlist, &config);
        write_checkpoint(&dir, 2, "detail[0]", 3, true, &netlist, &placement, fp).unwrap();
        let err = load_latest(&dir, &netlist, fp, 5, &chip).unwrap_err();
        assert!(err.to_string().contains("stage plan"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_manifest_is_quarantined() {
        let (netlist, chip, config, placement) = fixture();
        let dir = tmpdir("trunc_manifest");
        let fp = fingerprint(&netlist, &config);
        write_checkpoint(&dir, 1, "coarse[0]", 3, false, &netlist, &placement, fp).unwrap();
        // Chop the manifest mid-file: a field goes missing.
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        std::fs::write(&manifest_path, &text[..text.len() / 3]).unwrap();

        let (quarantined, reason) =
            expect_quarantine(load_latest(&dir, &netlist, fp, 3, &chip).unwrap());
        // Depending on where the cut lands, the damage reads as a
        // half-line (`malformed line`) or a whole missing field.
        assert!(
            reason.contains("missing field") || reason.contains("malformed line"),
            "{reason}"
        );
        assert_eq!(quarantined.len(), 1);
        assert!(quarantined[0].ends_with("manifest.tvp.corrupt"));
        assert!(!manifest_path.exists(), "damaged manifest moved aside");
        // The directory now reads as a fresh run.
        assert_eq!(
            load_latest(&dir, &netlist, fp, 3, &chip).unwrap(),
            CheckpointLoad::Fresh
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_placement_is_quarantined_via_hash() {
        let (netlist, chip, config, placement) = fixture();
        let dir = tmpdir("trunc_pl");
        let fp = fingerprint(&netlist, &config);
        let pl =
            write_checkpoint(&dir, 1, "coarse[0]", 3, false, &netlist, &placement, fp).unwrap();
        truncate_for_fault(Path::new(&pl)).unwrap();

        let (quarantined, reason) =
            expect_quarantine(load_latest(&dir, &netlist, fp, 3, &chip).unwrap());
        assert!(reason.contains("hash mismatch"), "{reason}");
        assert_eq!(quarantined.len(), 2, "manifest and pl: {quarantined:?}");
        assert!(quarantined.iter().all(|p| p.ends_with(".corrupt")));
        assert_eq!(
            load_latest(&dir, &netlist, fp, 3, &chip).unwrap(),
            CheckpointLoad::Fresh
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_placement_file_is_quarantined() {
        let (netlist, chip, config, placement) = fixture();
        let dir = tmpdir("missing_pl");
        let fp = fingerprint(&netlist, &config);
        let pl = write_checkpoint(&dir, 0, "global", 3, false, &netlist, &placement, fp).unwrap();
        std::fs::remove_file(&pl).unwrap();
        let (quarantined, reason) =
            expect_quarantine(load_latest(&dir, &netlist, fp, 3, &chip).unwrap());
        assert!(reason.contains("missing"), "{reason}");
        assert_eq!(quarantined.len(), 1, "only the manifest existed to move");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_removes_aged_corrupt_files_and_keeps_fresh_ones() {
        let dir = tmpdir("gc_corrupt");
        let nested = dir.join("job-1");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(dir.join("manifest.tvp.corrupt"), b"damaged").unwrap();
        std::fs::write(nested.join("stage-000.pl.corrupt"), b"damaged").unwrap();
        std::fs::write(nested.join("stage-001.pl"), b"healthy").unwrap();

        // A generous age keeps everything.
        let keep = GcPolicy {
            max_age: std::time::Duration::from_secs(3600),
            max_total_bytes: u64::MAX,
        };
        let report = gc_store(&dir, &keep, &|_| true);
        assert_eq!(report, GcReport::default());
        assert!(dir.join("manifest.tvp.corrupt").exists());

        // Age zero: every quarantine file is garbage, healthy files stay.
        let sweep = GcPolicy {
            max_age: std::time::Duration::ZERO,
            max_total_bytes: u64::MAX,
        };
        let report = gc_store(&dir, &sweep, &|_| true);
        assert_eq!(report.corrupt_files_removed, 2);
        assert!(report.bytes_freed >= 14);
        assert!(!dir.join("manifest.tvp.corrupt").exists());
        assert!(!nested.join("stage-000.pl.corrupt").exists());
        assert!(nested.join("stage-001.pl").exists(), "live files untouched");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_removes_aged_abandoned_dirs_but_never_claimed_ones() {
        let dir = tmpdir("gc_dirs");
        for job in ["job-old", "job-live"] {
            let d = dir.join(job);
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("stage-000.pl"), b"snapshot").unwrap();
        }
        let sweep = GcPolicy {
            max_age: std::time::Duration::ZERO,
            max_total_bytes: u64::MAX,
        };
        let report = gc_store(&dir, &sweep, &|name| name == "job-live");
        assert_eq!(report.dirs_removed, 1);
        assert!(!dir.join("job-old").exists());
        assert!(
            dir.join("job-live").join("stage-000.pl").exists(),
            "claimed directories survive even at age zero"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_size_cap_evicts_oldest_abandoned_dirs_first() {
        let dir = tmpdir("gc_size");
        for (i, job) in ["job-a", "job-b", "job-c"].iter().enumerate() {
            let d = dir.join(job);
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("stage-000.pl"), vec![b'x'; 100]).unwrap();
            // Distinct mtimes so the eviction order is well-defined.
            if i < 2 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
        // Nothing is old enough to age out, but three 100-byte dirs
        // exceed the 150-byte cap: the two oldest must go.
        let policy = GcPolicy {
            max_age: std::time::Duration::from_secs(3600),
            max_total_bytes: 150,
        };
        let report = gc_store(&dir, &policy, &|_| false);
        assert_eq!(report.dirs_removed, 2, "{report:?}");
        assert!(!dir.join("job-a").exists());
        assert!(!dir.join("job-b").exists());
        assert!(dir.join("job-c").exists(), "newest survivor fits the cap");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_of_a_missing_or_empty_store_is_a_quiet_no_op() {
        let dir = tmpdir("gc_empty");
        let report = gc_store(&dir, &GcPolicy::default(), &|_| false);
        assert_eq!(report, GcReport::default());
        std::fs::remove_dir_all(&dir).ok();
        let report = gc_store(&dir.join("never-existed"), &GcPolicy::default(), &|_| false);
        assert_eq!(report, GcReport::default());
    }

    #[test]
    fn manifest_without_hash_still_resumes() {
        // Back-compat: manifests from before the hash field.
        let (netlist, chip, config, placement) = fixture();
        let dir = tmpdir("nohash");
        let fp = fingerprint(&netlist, &config);
        write_checkpoint(&dir, 1, "coarse[0]", 3, false, &netlist, &placement, fp).unwrap();
        let manifest_path = dir.join(MANIFEST_NAME);
        let stripped: String = std::fs::read_to_string(&manifest_path)
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("placement_hash"))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&manifest_path, stripped).unwrap();
        let resume = expect_resume(load_latest(&dir, &netlist, fp, 3, &chip).unwrap());
        assert_eq!(resume.placement, placement);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_position_is_quarantined() {
        // Without a placement hash nothing else catches a NaN coordinate:
        // `NaN` parses as a float, and every legality comparison with it
        // is false.
        let (netlist, chip, config, placement) = fixture();
        let dir = tmpdir("nan_pl");
        let fp = fingerprint(&netlist, &config);
        let pl = write_checkpoint(&dir, 0, "global", 3, false, &netlist, &placement, fp).unwrap();
        let manifest_path = dir.join(MANIFEST_NAME);
        let stripped: String = std::fs::read_to_string(&manifest_path)
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("placement_hash"))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&manifest_path, stripped).unwrap();
        let name = netlist.cell(CellId::new(3)).name().to_string();
        let poisoned: String = std::fs::read_to_string(&pl)
            .unwrap()
            .lines()
            .map(|l| {
                let mut tokens: Vec<&str> = l.split_whitespace().collect();
                if tokens.first() == Some(&name.as_str()) {
                    tokens[1] = "NaN";
                }
                format!("{}\n", tokens.join(" "))
            })
            .collect();
        assert!(poisoned.contains("NaN"), "the cell's line was rewritten");
        std::fs::write(&pl, poisoned).unwrap();

        let (quarantined, reason) =
            expect_quarantine(load_latest(&dir, &netlist, fp, 3, &chip).unwrap());
        assert!(reason.contains("non-finite"), "{reason}");
        assert_eq!(quarantined.len(), 2, "manifest and pl: {quarantined:?}");
        assert_eq!(
            load_latest(&dir, &netlist, fp, 3, &chip).unwrap(),
            CheckpointLoad::Fresh
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
