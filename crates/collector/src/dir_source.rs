//! Tailing a directory of rotated MRT dumps as one collector feed.
//!
//! A live collector daemon (`kcc_peer`) publishes its capture as a
//! series of rotated files — `updates.00000.mrt`, `updates.00001.mrt`,
//! … — renaming each into place only once it is complete. A RouteViews
//! mirror looks the same: a directory of per-window dump files for one
//! collector. [`MrtDirSource`] streams such a directory as a single
//! [`UpdateSource`]: every `*.mrt` file in name order, record at a
//! time, under one collector name, with session registrations deduped
//! across file boundaries (each file re-discovers its sessions; the
//! source still announces each session exactly once).
//!
//! In **follow** mode ([`MrtDirSource::follow`]) the source does not
//! end when the directory is drained: it rescans at a poll interval and
//! picks up files that appear later — the always-on companion to a
//! running daemon. A [`ShutdownFlag`] ends the run: once triggered, the
//! source drains everything already on disk and then reports
//! end-of-stream. In-progress files (any non-`.mrt` suffix, e.g. the
//! rotator's `.part` files) are never opened.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::corpus::MrtFileOptions;
use crate::live::ShutdownFlag;
use crate::session::SessionKey;
use crate::source::{SourceError, SourceItem, UpdateSource};
use crate::MrtSource;

/// The `*.mrt` files of a directory, sorted by name — the one listing
/// rule every directory consumer shares, so a rotator's in-progress
/// `.part` files are invisible to all of them.
fn mrt_files_in(dir: &Path) -> Result<Vec<PathBuf>, SourceError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| SourceError::Other(format!("read dir {}: {e}", dir.display())))?;
    let mut found: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "mrt"))
        .collect();
    found.sort();
    Ok(found)
}

/// The day anchor of a set of MRT inputs: the earliest timestamp of a
/// file's first record (4 bytes of I/O per file, never the file) across
/// them, floored to midnight UTC. An input is a file or a directory of
/// `*.mrt` files. `None` when no file has a first record or a directory
/// cannot be read.
pub fn first_record_day<P: AsRef<Path>>(inputs: impl IntoIterator<Item = P>) -> Option<u32> {
    let mut files = Vec::new();
    for input in inputs {
        let input = input.as_ref();
        if input.is_dir() {
            files.extend(mrt_files_in(input).ok()?);
        } else {
            files.push(input.to_path_buf());
        }
    }
    let first_record = |path: &PathBuf| {
        let mut buf = [0u8; 4];
        File::open(path).ok()?.read_exact(&mut buf).ok()?;
        Some(u32::from_be_bytes(buf))
    };
    let earliest = files.iter().filter_map(first_record).min()?;
    Some(earliest - earliest % 86_400)
}

/// Streams every `*.mrt` file of a directory, in name order, as one
/// collector's feed; optionally keeps following the directory for new
/// files. See the [module docs](self) for the full contract.
#[derive(Debug)]
pub struct MrtDirSource {
    dir: PathBuf,
    collector: String,
    epoch_seconds: u32,
    options: MrtFileOptions,
    follow: Option<Duration>,
    stop: ShutdownFlag,
    processed: BTreeSet<PathBuf>,
    queue: VecDeque<PathBuf>,
    current: Option<MrtSource<BufReader<File>>>,
    seen_sessions: HashSet<SessionKey>,
    files_done: u64,
}

impl MrtDirSource {
    /// A one-shot source over `dir` for the named collector: the `*.mrt`
    /// files present when the first item is pulled, then end-of-stream.
    /// Update times become microseconds since `epoch_seconds`.
    pub fn new(dir: impl Into<PathBuf>, collector: &str, epoch_seconds: u32) -> Self {
        MrtDirSource {
            dir: dir.into(),
            collector: collector.to_owned(),
            epoch_seconds,
            options: MrtFileOptions::default(),
            follow: None,
            stop: ShutdownFlag::new(),
            processed: BTreeSet::new(),
            queue: VecDeque::new(),
            current: None,
            seen_sessions: HashSet::new(),
            files_done: 0,
        }
    }

    /// Per-file options applied to every file (pre-epoch clamp,
    /// route-server metadata MRT cannot carry).
    pub fn with_options(mut self, options: MrtFileOptions) -> Self {
        self.options = options;
        self
    }

    /// Keep following the directory: after draining the files on disk,
    /// rescan every `poll` until the [`ShutdownFlag`] is triggered, then
    /// drain what remains and end.
    pub fn follow(mut self, poll: Duration) -> Self {
        self.follow = Some(poll);
        self
    }

    /// The stop signal for follow mode; share it with whatever decides
    /// when the run is over. Without [`MrtDirSource::follow`] the source
    /// ends on its own and the flag is unused.
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.stop.clone()
    }

    /// Files fully streamed so far.
    pub fn files_done(&self) -> u64 {
        self.files_done
    }

    /// Scans the directory and queues every `*.mrt` file not yet
    /// picked up, in name order.
    fn scan(&mut self) -> Result<(), SourceError> {
        for p in mrt_files_in(&self.dir)? {
            if self.processed.insert(p.clone()) {
                self.queue.push_back(p);
            }
        }
        Ok(())
    }
}

impl UpdateSource for MrtDirSource {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        loop {
            if let Some(src) = &mut self.current {
                match src.next_item()? {
                    Some(SourceItem::Session(meta)) => {
                        // Each file re-announces its sessions; only the
                        // first sighting across the whole run surfaces.
                        if self.seen_sessions.insert(meta.key.clone()) {
                            return Ok(Some(SourceItem::Session(meta)));
                        }
                        continue;
                    }
                    Some(item) => return Ok(Some(item)),
                    None => {
                        self.current = None;
                        self.files_done += 1;
                    }
                }
            }
            if let Some(path) = self.queue.pop_front() {
                self.current =
                    Some(self.options.open(&path, &self.collector, self.epoch_seconds)?);
                continue;
            }
            self.scan()?;
            if !self.queue.is_empty() {
                continue;
            }
            let Some(poll) = self.follow else {
                return Ok(None);
            };
            if self.stop.is_triggered() {
                // Re-scan once after observing the trigger: a file
                // completed just before it may have landed after the
                // scan above. Everything on disk by trigger time drains.
                self.scan()?;
                if self.queue.is_empty() {
                    return Ok(None);
                }
                continue;
            }
            std::thread::sleep(poll);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::UpdateArchive;
    use crate::session::PeerMeta;
    use kcc_bgp_types::{Asn, PathAttributes, RouteUpdate};

    fn key(peer: u32) -> SessionKey {
        SessionKey::new("lab", Asn(peer), "192.0.2.9".parse().unwrap())
    }

    fn announce(t: u64) -> RouteUpdate {
        let attrs = PathAttributes {
            as_path: "20205 3356 12654".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        RouteUpdate::announce(t, "84.205.64.0/24".parse().unwrap(), attrs)
    }

    fn write_file(dir: &Path, name: &str, times: &[u64]) {
        let mut a = UpdateArchive::new(0);
        for &t in times {
            a.record(&key(20_205), announce(t));
        }
        let mut bytes = Vec::new();
        a.write_mrt(&mut bytes).unwrap();
        std::fs::write(dir.join(name), bytes).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kcc_dir_source_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn streams_files_in_name_order_under_one_collector() {
        let dir = temp_dir("order");
        write_file(&dir, "updates.00001.mrt", &[10, 11]);
        write_file(&dir, "updates.00000.mrt", &[1, 2]);
        write_file(&dir, "updates.00000.mrt.part", &[99]); // in progress: ignored
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let mut src = MrtDirSource::new(&dir, "rrc00", 0);
        let archive = UpdateArchive::from_source(&mut src, 0).unwrap();
        assert_eq!(src.files_done(), 2);
        assert_eq!(archive.session_count(), 1);
        let k = SessionKey::new("rrc00", Asn(20_205), "192.0.2.9".parse().unwrap());
        let times: Vec<u64> =
            archive.session(&k).unwrap().updates.iter().map(|u| u.time_us).collect();
        assert_eq!(times, [1, 2, 10, 11], "name order, .part and non-mrt files skipped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_record_day_floors_the_earliest_file_or_directory_member() {
        use crate::beacon::DAY_US;
        let dir = temp_dir("epoch");
        let feed = dir.join("feed");
        std::fs::create_dir(&feed).unwrap();
        write_file(&feed, "b.mrt", &[3 * DAY_US + 7_000_000]);
        write_file(&feed, "a.mrt", &[2 * DAY_US + 5_000_000]); // earliest
        write_file(&dir, "single.mrt", &[4 * DAY_US]);
        let day = first_record_day([feed.as_path(), &dir.join("single.mrt")]);
        assert_eq!(day, Some(2 * 86_400), "midnight before the earliest first record");
        assert_eq!(first_record_day([dir.join("single.mrt")]), Some(4 * 86_400));

        let empty = dir.join("empty");
        std::fs::create_dir(&empty).unwrap();
        assert_eq!(first_record_day(Vec::<PathBuf>::new()), None, "no inputs");
        assert_eq!(first_record_day([&empty]), None, "a directory without dumps");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_announced_once_across_files() {
        let dir = temp_dir("dedup");
        write_file(&dir, "a.mrt", &[1]);
        write_file(&dir, "b.mrt", &[2]);
        let mut src = MrtDirSource::new(&dir, "rrc00", 0);
        let mut sessions: Vec<std::sync::Arc<PeerMeta>> = Vec::new();
        let mut updates = 0;
        while let Some(item) = src.next_item().unwrap() {
            match item {
                SourceItem::Session(m) => sessions.push(m),
                SourceItem::Update(..) => updates += 1,
            }
        }
        assert_eq!(sessions.len(), 1, "same session in both files announced once");
        assert_eq!(updates, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn follow_mode_picks_up_late_files_and_drains_on_shutdown() {
        let dir = temp_dir("follow");
        write_file(&dir, "updates.00000.mrt", &[1]);
        let mut src = MrtDirSource::new(&dir, "rrc00", 0).follow(Duration::from_millis(5));
        let flag = src.shutdown_flag();
        let writer_dir = dir.clone();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            write_file(&writer_dir, "updates.00001.mrt", &[2, 3]);
            flag.trigger();
        });
        let mut times = Vec::new();
        while let Some(item) = src.next_item().unwrap() {
            if let SourceItem::Update(_, u) = item {
                times.push(u.time_us);
            }
        }
        writer.join().unwrap();
        assert_eq!(times, [1, 2, 3], "late file drained before end-of-stream");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_shot_mode_ends_without_follow() {
        let dir = temp_dir("oneshot");
        let mut src = MrtDirSource::new(&dir, "rrc00", 0);
        assert!(src.next_item().unwrap().is_none(), "empty dir, no follow: immediate end");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
