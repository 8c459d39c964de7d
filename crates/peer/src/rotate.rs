//! Rotated MRT dumps of live capture.
//!
//! Real collectors publish their update feed as a series of fixed-window
//! MRT files (`updates.20200315.0000`, …). [`MrtRotator`] does the same
//! for the live daemon: updates append to the current file, and the file
//! rotates after a configurable number of records — so live capture
//! round-trips through exactly the offline path ([`kcc_collector::MrtSource`],
//! `UpdateArchive::read_mrt`) the rest of the system analyzes.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use kcc_bgp_types::RouteUpdate;
use kcc_collector::archive::mrt_record_for;
use kcc_collector::PeerMeta;
use kcc_mrt::{MrtError, MrtWriter};

/// Rotation policy and naming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotateConfig {
    /// Directory the dump files are written into.
    pub dir: PathBuf,
    /// File-name prefix; files are `<prefix>.<seq>.mrt` with a
    /// zero-padded sequence number.
    pub prefix: String,
    /// Rotate after this many records (0 = never rotate; one big file).
    pub max_records: u64,
}

impl RotateConfig {
    /// Dumps named `updates.<seq>.mrt` in `dir`, rotating every
    /// `max_records` records.
    pub fn new(dir: impl Into<PathBuf>, max_records: u64) -> Self {
        RotateConfig { dir: dir.into(), prefix: "updates".to_owned(), max_records }
    }
}

/// Writes live updates into rotating MRT files.
///
/// The file being written carries a `.part` suffix
/// (`updates.00000.mrt.part`) and is renamed to its final `.mrt` name
/// only when rotated out or finished — so a concurrent reader scanning
/// the dump directory for `*.mrt` (e.g. `kcc_collector`'s directory
/// source) only ever sees complete files.
#[derive(Debug)]
pub struct MrtRotator {
    cfg: RotateConfig,
    epoch_seconds: u32,
    writer: Option<MrtWriter<BufWriter<File>>>,
    current_path: Option<PathBuf>,
    records_in_file: u64,
    seq: u64,
    finished: Vec<PathBuf>,
    total_records: u64,
}

impl MrtRotator {
    /// A rotator writing into `cfg.dir` (created if missing).
    pub fn new(cfg: RotateConfig, epoch_seconds: u32) -> Result<Self, MrtError> {
        std::fs::create_dir_all(&cfg.dir)?;
        Ok(MrtRotator {
            cfg,
            epoch_seconds,
            writer: None,
            current_path: None,
            records_in_file: 0,
            seq: 0,
            finished: Vec::new(),
            total_records: 0,
        })
    }

    fn open_next(&mut self) -> Result<(), MrtError> {
        let path = self.cfg.dir.join(format!("{}.{:05}.mrt", self.cfg.prefix, self.seq));
        self.seq += 1;
        self.writer = Some(MrtWriter::new(BufWriter::new(File::create(part_path(&path))?)));
        self.current_path = Some(path);
        self.records_in_file = 0;
        Ok(())
    }

    /// Flushes and renames the in-progress `.part` file to its final
    /// `.mrt` name, recording it as finished.
    fn close_current(&mut self) -> Result<(), MrtError> {
        if let Some(mut w) = self.writer.take() {
            w.flush()?;
            drop(w);
            if let Some(p) = self.current_path.take() {
                std::fs::rename(part_path(&p), &p)?;
                self.finished.push(p);
            }
        }
        Ok(())
    }

    /// Appends one update as a BGP4MP record, rotating first if the
    /// current file is full.
    pub fn write(&mut self, meta: &PeerMeta, update: &RouteUpdate) -> Result<(), MrtError> {
        if self.writer.is_none()
            || (self.cfg.max_records > 0 && self.records_in_file >= self.cfg.max_records)
        {
            self.rotate()?;
        }
        let record = mrt_record_for(meta, self.epoch_seconds, update);
        self.writer.as_mut().expect("opened above").write_record(&record)?;
        self.records_in_file += 1;
        self.total_records += 1;
        Ok(())
    }

    /// Closes the current file (if any) and opens the next one.
    pub fn rotate(&mut self) -> Result<(), MrtError> {
        self.close_current()?;
        self.open_next()
    }

    /// Total records written across all files.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Flushes and closes the current file; returns every dump written,
    /// in order.
    pub fn finish(mut self) -> Result<Vec<PathBuf>, MrtError> {
        self.close_current()?;
        Ok(self.finished)
    }
}

/// The in-progress name for a dump file: `<final>.part`.
fn part_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".part");
    PathBuf::from(os)
}

/// Concatenates rotated dump files into one MRT byte stream — the shape
/// `MrtSource` and `UpdateArchive::read_mrt` consume.
pub fn concat_dumps(files: &[impl AsRef<Path>]) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend(std::fs::read(f)?);
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{Asn, PathAttributes};
    use kcc_collector::{SessionKey, UpdateArchive};

    fn meta() -> PeerMeta {
        PeerMeta::normal(SessionKey::new("rrc00", Asn(20_205), "192.0.2.9".parse().unwrap()))
    }

    fn announce(t: u64) -> RouteUpdate {
        let attrs = PathAttributes {
            as_path: "20205 3356 12654".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        RouteUpdate::announce(t, "84.205.64.0/24".parse().unwrap(), attrs)
    }

    #[test]
    fn rotates_by_record_count_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("kcc_rotate_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rot = MrtRotator::new(RotateConfig::new(&dir, 3), 100).unwrap();
        let m = meta();
        for i in 0..8u64 {
            rot.write(&m, &announce(i * 1_000_000)).unwrap();
        }
        assert_eq!(rot.total_records(), 8);
        let files = rot.finish().unwrap();
        assert_eq!(files.len(), 3, "8 records at 3/file → 3 files");

        let bytes = concat_dumps(&files).unwrap();
        let archive = UpdateArchive::read_mrt(&bytes[..], "rrc00", 100).unwrap();
        assert_eq!(archive.update_count(), 8);
        let rec = archive.session(&m.key).unwrap();
        let times: Vec<u64> = rec.updates.iter().map(|u| u.time_us).collect();
        assert_eq!(times, (0..8).map(|i| i * 1_000_000).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_progress_file_carries_part_suffix() {
        let dir = std::env::temp_dir().join(format!("kcc_rotate_part_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rot = MrtRotator::new(RotateConfig::new(&dir, 2), 0).unwrap();
        let m = meta();
        let names = |d: &Path| {
            let mut v: Vec<String> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            v.sort();
            v
        };
        rot.write(&m, &announce(0)).unwrap();
        assert_eq!(names(&dir), ["updates.00000.mrt.part"]);
        rot.write(&m, &announce(1)).unwrap();
        rot.write(&m, &announce(2)).unwrap(); // rotates the full file out
        assert_eq!(names(&dir), ["updates.00000.mrt", "updates.00001.mrt.part"]);
        let files = rot.finish().unwrap();
        assert_eq!(names(&dir), ["updates.00000.mrt", "updates.00001.mrt"]);
        assert!(files.iter().all(|f| f.extension().is_some_and(|e| e == "mrt")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_max_records_never_rotates() {
        let dir = std::env::temp_dir().join(format!("kcc_rotate_one_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rot = MrtRotator::new(RotateConfig::new(&dir, 0), 0).unwrap();
        let m = meta();
        for i in 0..10u64 {
            rot.write(&m, &announce(i)).unwrap();
        }
        let files = rot.finish().unwrap();
        assert_eq!(files.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
