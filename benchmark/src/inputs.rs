//! Input generation: everything a workload consumes is made here from
//! the seed, so the program under test receives only generated inputs.

use std::net::{IpAddr, Ipv4Addr};

use kcc_bgp_types::{Asn, RouteUpdate};
use kcc_collector::archive::mrt_record_for;
use kcc_collector::{MrtSource, SessionKey, SourceItem, UpdateArchive, UpdateSource};
use kcc_core::AllocationRegistry;
use kcc_mrt::MrtWriter;
use kcc_tracegen::{Mar20Config, Mar20Source};

use crate::trace::Sampled;

/// The collector name generated MRT days are read back under (MRT
/// carries no collector name, so all sessions collapse onto one).
pub const COLLECTOR: &str = "rrc00";

/// The generator configuration of every day-shaped input: the default
/// March-2020 model with the stream seed and the size replaced. The
/// universe (peers, prefixes, transits) keeps its own fixed seed, so
/// seeds vary the traffic and not the shape of the measured table.
pub fn day_config(seed: u64, target_announcements: u64) -> Mar20Config {
    Mar20Config { seed, target_announcements, ..Default::default() }
}

/// A generated collector day as the MRT bytes a collector would
/// publish, with the side-band metadata MRT cannot carry.
#[derive(Debug)]
pub struct Day {
    /// RFC 6396 bytes.
    pub bytes: Vec<u8>,
    /// Updates written (one per record).
    pub updates: u64,
    /// Allocation registry of the generated universe, for cleaning.
    pub registry: AllocationRegistry,
    /// Route-server endpoints.
    pub route_servers: Vec<(Asn, IpAddr)>,
    /// Archive epoch.
    pub epoch_seconds: u32,
    /// Timing of `Mar20Source::next_item` (traced set-up only).
    pub gen: Sampled,
    /// Timing of `MrtWriter::write_record` (traced set-up only).
    pub write: Sampled,
}

impl Day {
    /// Streams `cfg`'s day into memory, session at a time. `every`
    /// samples the writer's calls for the trace (0 = off); the
    /// generator's are then all clocked, see [`clock_generator`].
    pub fn generate(cfg: &Mar20Config, every: u32) -> Day {
        let mut source = Mar20Source::new(cfg);
        let registry = source.registry().clone();
        let route_servers = source.route_server_peers();
        // Reserved up front (a record is ~100 bytes) so the day is not
        // copied as it grows; pages never written stay non-resident.
        let mut writer =
            MrtWriter::new(Vec::with_capacity(cfg.target_announcements as usize * 128));
        let (mut gen, mut write) = (clock_generator(every), Sampled::every(every));
        let mut updates = 0u64;
        while let Some(item) =
            gen.time(|| source.next_item()).expect("generated sources cannot fail")
        {
            if let SourceItem::Update(meta, update) = item {
                let record = mrt_record_for(&meta, cfg.epoch_seconds, &update);
                write.time(|| writer.write_record(&record)).expect("in-memory write cannot fail");
                updates += 1;
            }
        }
        Day {
            bytes: writer.into_inner(),
            updates,
            registry,
            route_servers,
            epoch_seconds: cfg.epoch_seconds,
            gen,
            write,
        }
    }

    /// A fresh source over the day's bytes.
    pub fn open(&self) -> MrtSource<&[u8]> {
        MrtSource::new(&self.bytes[..], COLLECTOR, self.epoch_seconds)
            .with_route_servers(self.route_servers.iter().copied())
    }

    /// FNV-1a of the bytes: equal seeds must give equal digests.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.bytes)
    }
}

/// The generator builds a whole session inside one `next_item` call and
/// then hands its updates out one cheap call at a time, so a sample of
/// the calls would mostly miss the few that do the work: when tracing,
/// clock every call.
fn clock_generator(every: u32) -> Sampled {
    Sampled::every(every.min(1))
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// Dealt session `p` speaks as this AS number plus `p` (private range).
pub const FIRST_SPEAKER_ASN: u32 = 64_512;

/// The first `total` updates of a generated day dealt round-robin onto
/// `sessions` BGP sessions, so every speaker carries the day's mix of
/// announcements, withdrawals and community churn.
#[derive(Debug)]
pub struct Dealt {
    /// Per-session streams in send order (what the flood rig plans from).
    pub archive: UpdateArchive,
    /// The session keys, in dealing order.
    pub keys: Vec<SessionKey>,
    /// Timing of `Mar20Source::next_item` (traced set-up only).
    pub gen: Sampled,
}

impl Dealt {
    /// Generates and deals.
    pub fn generate(cfg: &Mar20Config, total: u64, sessions: usize, every: u32) -> Dealt {
        let keys: Vec<SessionKey> = (0..sessions)
            .map(|p| {
                let ip = Ipv4Addr::new(10, 99, (p >> 8) as u8, (p & 0xFF) as u8);
                SessionKey::new("bench", Asn(FIRST_SPEAKER_ASN + p as u32), IpAddr::V4(ip))
            })
            .collect();
        let mut archive = UpdateArchive::new(0);
        let mut source = Mar20Source::new(cfg);
        let mut gen = clock_generator(every);
        let mut dealt = 0u64;
        while dealt < total {
            let Some(item) =
                gen.time(|| source.next_item()).expect("generated sources cannot fail")
            else {
                break;
            };
            if let SourceItem::Update(_, update) = item {
                archive.record(&keys[dealt as usize % sessions], update);
                dealt += 1;
            }
        }
        Dealt { archive, keys, gen }
    }

    /// Updates dealt.
    pub fn updates(&self) -> u64 {
        self.archive.update_count() as u64
    }

    /// Session `i`'s updates in send order.
    pub fn session(&self, i: usize) -> &[RouteUpdate] {
        self.archive.session(&self.keys[i]).map_or(&[], |rec| &rec.updates)
    }
}
