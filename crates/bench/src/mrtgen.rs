//! Shared harness helper: generate a Mar'20-style collector day straight
//! to in-memory MRT bytes (session-at-a-time, never materializing the
//! archive), for the pipeline measurements (`tests/profile_overhead.rs`).

use kcc_bgp_types::Asn;
use kcc_collector::archive::write_mrt_from;
use kcc_core::AllocationRegistry;
use kcc_tracegen::{Mar20Config, Mar20Source};

/// A generated day as the bytes a collector would publish, plus the
/// side-band metadata the cleaning stage needs.
#[derive(Debug)]
pub struct MrtDay {
    /// RFC 6396 MRT bytes.
    pub bytes: Vec<u8>,
    /// Updates written.
    pub updates: u64,
    /// The allocation registry covering the generated universe.
    pub registry: AllocationRegistry,
    /// Route-server session endpoints (metadata MRT cannot carry).
    pub route_servers: Vec<(Asn, std::net::IpAddr)>,
}

/// Streams a generated day into MRT bytes.
pub fn generate_mrt_day(cfg: &Mar20Config) -> MrtDay {
    let mut source = Mar20Source::new(cfg);
    let registry = source.registry().clone();
    let route_servers = source.route_server_peers();
    let mut bytes = Vec::new();
    let updates = write_mrt_from(&mut source, cfg.epoch_seconds, &mut bytes)
        .expect("generated sources and in-memory writes cannot fail");
    MrtDay { bytes, updates, registry, route_servers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_collector::{MrtSource, UpdateArchive};
    use kcc_tracegen::generate_mar20;

    #[test]
    fn streamed_bytes_match_batch_generation() {
        let cfg = Mar20Config {
            target_announcements: 5_000,
            universe: kcc_tracegen::universe::UniverseConfig {
                n_collectors: 2,
                n_peers: 6,
                n_sessions: 10,
                n_prefixes_v4: 100,
                n_prefixes_v6: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        let day = generate_mrt_day(&cfg);
        let batch = generate_mar20(&cfg);
        assert_eq!(day.updates, batch.archive.update_count() as u64);

        // Reading the streamed bytes back gives the same per-session
        // streams the batch archive holds (collector names collapse to
        // one, but the generated universe keys sessions by peer).
        let mut source = MrtSource::new(&day.bytes[..], "rrc00", cfg.epoch_seconds);
        let parsed = UpdateArchive::from_source(&mut source, cfg.epoch_seconds).unwrap();
        assert_eq!(parsed.update_count(), batch.archive.update_count());
    }
}
