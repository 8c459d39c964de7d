//! Every decoder's verdict on one fixed corpus, pinned as a digest.
//!
//! The corpus: every record of a small seeded generated day, the shapes
//! a collector RIB dump writes (PEER_INDEX_TABLE, RIB_IPVx_UNICAST),
//! state changes and the non-UPDATE message types, plus 8 seeded mutants
//! of each record (truncated at a random offset, or 1–4 random bytes
//! overwritten). Each input goes through `MrtReader::next_record`; the
//! BGP message a BGP4MP MESSAGE record embeds also goes through
//! `decode_message` under both AS widths. The `Debug` text of every
//! result (and, on success, how many bytes the message decoder
//! consumed) is hashed with FNV-1a 64, so any change in what a decoder
//! accepts, rejects, reports or produces moves the digest. A second
//! digest pins the bytes the encoders write.

use std::net::IpAddr;

use keep_communities_clean::adapter::dump_rib;
use keep_communities_clean::mrt::{
    Bgp4mpMessage, Bgp4mpStateChange, BgpState, MrtReader, MrtRecord, MrtTimestamp, MrtWriter,
};
use keep_communities_clean::sim::{Network, SimConfig, SimTime};
use keep_communities_clean::topology::{generate, Tier, TopologyConfig};
use keep_communities_clean::tracegen::universe::UniverseConfig;
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};
use keep_communities_clean::types::{Asn, Community, CommunitySet, PathAttributes};
use keep_communities_clean::wire::{
    decode_message, encode_message, Capability, Message, Notification, OpenMessage, RouteRefresh,
    SessionConfig, UpdatePacket,
};

/// The digest of every verdict over the corpus below.
const PINNED_DIGEST: u64 = 0x75a2_37a8_532e_3b08;
/// How many inputs (records and mutants) the corpus holds.
const PINNED_INPUTS: usize = 22_032;
/// The digest of every encoder's bytes on the inputs of
/// [`encoded_bytes_are_pinned`], and how many bytes they are.
const PINNED_ENCODED: (usize, u64) = (214_843, 0x0d75_2960_c03a_a1c2);

const MUTANTS_PER_RECORD: usize = 8;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// SplitMix64: a seeded stream with no dependency on the `rand` shim.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Cuts an MRT byte stream into its records by the header length field.
fn split_records(mut bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let len = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let (record, rest) = bytes.split_at(12 + len);
        out.push(record.to_vec());
        bytes = rest;
    }
    out
}

fn encode(records: &[MrtRecord]) -> Vec<Vec<u8>> {
    records
        .iter()
        .map(|r| {
            let mut w = MrtWriter::new(Vec::new());
            w.write_record(r).expect("in-memory write");
            w.into_inner()
        })
        .collect()
}

/// A small generated day, written as the MRT a collector publishes.
fn generated_day() -> Vec<Vec<u8>> {
    let cfg = Mar20Config {
        seed: 42,
        target_announcements: 400,
        universe: UniverseConfig {
            seed: 42,
            n_collectors: 2,
            n_peers: 8,
            n_sessions: 12,
            n_prefixes_v4: 120,
            n_prefixes_v6: 20,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut bytes = Vec::new();
    generate_mar20(&cfg).archive.write_mrt(&mut bytes).expect("MRT export");
    split_records(&bytes)
}

/// A converged simulator's collector table dumped as TABLE_DUMP_V2.
fn rib_dump() -> Vec<Vec<u8>> {
    let topo =
        generate(&TopologyConfig { n_tier1: 2, n_transit: 4, n_stub: 6, ..Default::default() });
    let mut net = Network::from_topology(&topo, SimConfig::default());
    let peers: Vec<_> =
        topo.nodes().filter(|n| n.tier == Tier::Transit).map(|n| n.router_id(0)).collect();
    let (collector, _) = net.attach_collector(Asn(3333), &peers);
    net.announce_all_origins(&topo, SimTime::ZERO);
    net.run_until_quiet();
    encode(&dump_rib(&net, collector, "synthetic-bview", 1_584_230_400))
}

/// State changes and every non-UPDATE message type, on both address
/// families and both ASN widths.
fn session_records() -> Vec<Vec<u8>> {
    let sessions: [(Asn, IpAddr, IpAddr); 3] = [
        (Asn(20_205), "192.0.2.99".parse().unwrap(), "192.0.2.1".parse().unwrap()),
        (Asn(196_615), "192.0.2.98".parse().unwrap(), "192.0.2.1".parse().unwrap()),
        (Asn(3356), "2001:db8::99".parse().unwrap(), "2001:db8::1".parse().unwrap()),
    ];
    let messages = [
        Message::Open(OpenMessage::standard(Asn(20_205), "10.0.0.1".parse().unwrap(), 180)),
        Message::Open(OpenMessage::standard(Asn(196_615), "10.0.0.2".parse().unwrap(), 90)),
        Message::Keepalive,
        Message::Notification(Notification::cease_admin_shutdown()),
        Message::RouteRefresh(RouteRefresh { afi: 1, safi: 1 }),
    ];
    let mut records = Vec::new();
    for (i, &(peer_asn, peer_ip, local_ip)) in sessions.iter().enumerate() {
        let timestamp = MrtTimestamp::micros(1_584_230_400 + i as u32, 17);
        records.push(MrtRecord::StateChange(Bgp4mpStateChange {
            timestamp,
            peer_asn,
            local_asn: Asn(12_654),
            ifindex: 0,
            peer_ip,
            local_ip,
            old_state: BgpState::OpenConfirm,
            new_state: BgpState::Established,
        }));
        for message in &messages {
            records.push(MrtRecord::Message(Bgp4mpMessage {
                timestamp,
                peer_asn,
                local_asn: Asn(12_654),
                ifindex: 0,
                peer_ip,
                local_ip,
                message: message.clone(),
            }));
        }
    }
    encode(&records)
}

/// The embedded BGP message of a BGP4MP MESSAGE(_AS4) record, located
/// by the record's own (possibly mutated) type, subtype and AFI fields.
fn embedded_message(record: &[u8]) -> Option<&[u8]> {
    let field = |at: usize| Some(u16::from_be_bytes(record.get(at..at + 2)?.try_into().ok()?));
    let mut at = match field(4)? {
        16 => 12,
        17 => 16,
        _ => return None,
    };
    at += match field(6)? {
        1 => 6,
        4 => 10,
        _ => return None,
    };
    at += match field(at)? {
        1 => 2 + 8,
        2 => 2 + 32,
        _ => return None,
    };
    record.get(at..)
}

/// Folds every verdict on `input` into `hash`.
fn digest_input(mut hash: u64, input: &[u8]) -> u64 {
    let verdict = MrtReader::new(input).next_record();
    hash = fnv1a(hash, format!("{verdict:?}\n").as_bytes());
    if let Some(message) = embedded_message(input) {
        for four_octet_as in [true, false] {
            let mut rest = message;
            let decoded = decode_message(&mut rest, &SessionConfig { four_octet_as });
            let consumed = decoded.as_ref().map(|_| message.len() - rest.len());
            hash = fnv1a(hash, format!("{four_octet_as} {decoded:?} {consumed:?}\n").as_bytes());
        }
    }
    hash
}

fn mutant(record: &[u8], rng: &mut SplitMix) -> Vec<u8> {
    let mut m = record.to_vec();
    if rng.next() & 1 == 0 {
        m.truncate(rng.below(record.len()));
    } else {
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(m.len());
            m[at] = rng.next() as u8;
        }
    }
    m
}

#[test]
fn decoder_verdicts_are_pinned() {
    let records: Vec<Vec<u8>> =
        [generated_day(), rib_dump(), session_records()].into_iter().flatten().collect();
    let mut rng = SplitMix(42);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut inputs = 0;
    for record in &records {
        let original = MrtReader::new(&record[..]).next_record();
        assert!(matches!(original, Ok(Some(_))), "an unmutated record must decode: {original:?}");
        hash = digest_input(hash, record);
        inputs += 1;
        for _ in 0..MUTANTS_PER_RECORD {
            hash = digest_input(hash, &mutant(record, &mut rng));
            inputs += 1;
        }
    }
    assert_eq!(inputs, PINNED_INPUTS, "the corpus changed size");
    assert_eq!(hash, PINNED_DIGEST, "a decoder's verdict changed: digest {hash:#018x}");
}

/// One of each message shape, for `encode_message`: an OPEN with every
/// capability kind, a v4 UPDATE, a v6 UPDATE (MP_REACH), a withdrawal of
/// both families (MP_UNREACH), a NOTIFICATION with data, a KEEPALIVE and
/// a ROUTE-REFRESH. The day and the RIB dump carry the other attributes.
fn message_shapes() -> Vec<Message> {
    let mut open = OpenMessage::standard(Asn(4_200_000_001), "192.0.2.1".parse().unwrap(), 90);
    open.capabilities.push(Capability::Unknown { code: 73, value: vec![1, 2, 3] });
    let v4 = PathAttributes {
        as_path: "20205 3356 4200000001 12654".parse().unwrap(),
        next_hop: "192.0.2.7".parse().unwrap(),
        med: Some(10),
        communities: CommunitySet::from_classic([Community(3356 << 16 | 2)]),
        ..Default::default()
    };
    let v6 = PathAttributes { next_hop: "2001:db8::7".parse().unwrap(), ..v4.clone() };
    let withdrawn = vec!["10.1.0.0/16".parse().unwrap(), "2001:db8:1::/48".parse().unwrap()];
    vec![
        Message::Open(open),
        Message::Update(UpdatePacket::announce("192.0.2.0/24".parse().unwrap(), v4)),
        Message::Update(UpdatePacket::announce("2001:db8:2::/48".parse().unwrap(), v6)),
        Message::Update(UpdatePacket { withdrawn, ..Default::default() }),
        Message::Notification(Notification::unacceptable_hold_time(2)),
        Message::Keepalive,
        Message::RouteRefresh(RouteRefresh { afi: 2, safi: 1 }),
    ]
}

/// Every encoder's bytes, pinned: the seeded day's MRT as `write_mrt`
/// writes it, the RIB dump's TABLE_DUMP_V2 records through `MrtWriter`,
/// and `encode_message` on each message shape under both AS widths,
/// back to back in one buffer. The pins above hash decoded values, so
/// they cannot see a re-encoding that decodes equal; this one can.
#[test]
fn encoded_bytes_are_pinned() {
    let mut wire = Vec::new();
    for four_octet_as in [true, false] {
        for message in message_shapes() {
            encode_message(&message, &SessionConfig { four_octet_as }, &mut wire);
        }
    }
    let mut encoded = generated_day().concat();
    encoded.extend(rib_dump().concat());
    encoded.extend_from_slice(&wire);
    let digest = fnv1a(0xcbf2_9ce4_8422_2325, &encoded);
    assert_eq!(
        (encoded.len(), digest),
        PINNED_ENCODED,
        "an encoder's bytes changed: {} bytes, digest {digest:#018x}",
        encoded.len()
    );
}
