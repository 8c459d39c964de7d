//! Property-based tests on cross-crate invariants (proptest).

use std::collections::HashMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use keep_communities_clean::analysis::table::{overview, OverviewSink};
use keep_communities_clean::analysis::{
    classify_pair, AllocationRegistry, AnnouncementType, CleaningConfig, CleaningStage, CountsSink,
    MrtSource, PipelineBuilder, Stage, StreamClassifier, TypeCounts,
};
use keep_communities_clean::collector::timestamps::normalize_timestamps;
use keep_communities_clean::collector::{ArchiveSource, PeerMeta, SessionKey, UpdateArchive};
use keep_communities_clean::mrt::{
    Bgp4mpMessage, Bgp4mpStateChange, BgpState, MrtError, MrtReader, MrtRecord, MrtTimestamp,
    MrtWriter, PeerIndexTable, RibSnapshot,
};
use keep_communities_clean::types::attrs::{Aggregator, Origin};
use keep_communities_clean::types::extended::ExtendedCommunity;
use keep_communities_clean::types::large::LargeCommunity;
use keep_communities_clean::types::{
    AsPath, Asn, AttrStore, Community, CommunitySet, MessageKind, PathAttributes, PathSegment,
    Prefix, RouteUpdate, SegmentKind,
};
use keep_communities_clean::wire::attr::decode_attributes;
use keep_communities_clean::wire::nlri::Afi;
use keep_communities_clean::wire::{
    decode_message, encode_message, Capability, Message, Notification, OpenMessage, RouteRefresh,
    SessionConfig, UpdatePacket, HEADER_LEN,
};

fn arb_asn() -> impl Strategy<Value = Asn> {
    // Mix of 2-byte and 4-byte ASNs.
    prop_oneof![1u32..65_536, 65_536u32..4_000_000_000].prop_map(Asn)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| {
            Prefix::v4(std::net::Ipv4Addr::from(addr), len).expect("valid v4 length")
        }),
        (any::<u128>(), 0u8..=128).prop_map(|(addr, len)| {
            Prefix::v6(std::net::Ipv6Addr::from(addr), len).expect("valid v6 length")
        }),
    ]
}

fn arb_communities() -> impl Strategy<Value = CommunitySet> {
    vec(any::<u32>(), 0..12)
        .prop_map(|values| CommunitySet::from_classic(values.into_iter().map(Community)))
}

fn arb_extended() -> impl Strategy<Value = ExtendedCommunity> {
    prop_oneof![
        (any::<u16>(), any::<u32>())
            .prop_map(|(asn, value)| ExtendedCommunity::RouteTarget { asn, value }),
        (any::<u16>(), any::<u32>())
            .prop_map(|(asn, value)| ExtendedCommunity::RouteOrigin { asn, value }),
        // Raw communities in the opaque / non-transitive type space, so
        // the wire decoder cannot re-interpret them as the structured
        // variants above (that would change the value's *shape* while
        // preserving its bytes).
        (0u8..4, any::<u8>(), any::<u32>(), any::<u16>()).prop_map(|(t, sub, v, w)| {
            let ty = 0x40 | t;
            let vb = v.to_be_bytes();
            let wb = w.to_be_bytes();
            ExtendedCommunity::Raw([ty, sub, wb[0], wb[1], vb[0], vb[1], vb[2], vb[3]])
        }),
    ]
}

fn arb_large() -> impl Strategy<Value = LargeCommunity> {
    (any::<u32>(), any::<u32>(), any::<u32>())
        .prop_map(|(global, d1, d2)| LargeCommunity::new(global, d1, d2))
}

/// A community set spanning all three families (classic, RFC 4360
/// extended, RFC 8092 large).
fn arb_full_communities() -> impl Strategy<Value = CommunitySet> {
    (vec(any::<u32>(), 0..8), vec(arb_extended(), 0..6), vec(arb_large(), 0..6)).prop_map(
        |(classic, extended, large)| {
            let mut set = CommunitySet::from_classic(classic.into_iter().map(Community));
            for e in extended {
                set.insert_extended(e);
            }
            for l in large {
                set.insert_large(l);
            }
            set
        },
    )
}

/// Path attributes exercising every wire-encodable field: all community
/// families, MED, ATOMIC_AGGREGATE and AGGREGATOR.
fn arb_full_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        (vec(arb_asn(), 1..8), any::<u32>()),
        proptest::option::of(any::<u32>()),
        arb_full_communities(),
        0u8..3,
        any::<bool>(),
        proptest::option::of((arb_asn(), any::<u32>())),
    )
        .prop_map(|((asns, nh), med, communities, origin, atomic, agg)| PathAttributes {
            origin: Origin::from_code(origin).expect("0..3"),
            as_path: AsPath::from_asns(asns),
            next_hop: std::net::IpAddr::V4(std::net::Ipv4Addr::from(nh)),
            med,
            local_pref: None,
            atomic_aggregate: atomic,
            aggregator: agg.map(|(asn, router)| Aggregator {
                asn,
                router_id: std::net::Ipv4Addr::from(router),
            }),
            communities,
        })
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        vec(arb_asn(), 1..8),
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        arb_communities(),
        0u8..3,
    )
        .prop_map(|(asns, nh, med, communities, origin)| PathAttributes {
            origin: Origin::from_code(origin).expect("0..3"),
            as_path: AsPath::from_asns(asns),
            next_hop: std::net::IpAddr::V4(std::net::Ipv4Addr::from(nh)),
            med,
            local_pref: None,
            atomic_aggregate: false,
            aggregator: None,
            communities,
        })
}

/// The §5 rule written out naively: within each `(session, prefix)`
/// stream every announcement is `classify_pair`ed against the stream's
/// last announcement, and a withdrawal is counted without resetting it.
fn naive_counts(archive: &UpdateArchive) -> TypeCounts {
    let mut counts = TypeCounts::default();
    for (_, rec) in archive.sessions() {
        let mut last: HashMap<Prefix, &PathAttributes> = HashMap::new();
        for u in &rec.updates {
            let MessageKind::Announcement(attrs) = &u.kind else {
                counts.withdrawals += 1;
                continue;
            };
            let Some(prev) = last.insert(u.prefix, attrs) else {
                counts.initial += 1;
                continue;
            };
            let t = classify_pair(prev, attrs);
            counts.add(t);
            if t == AnnouncementType::Nn && prev.differs_only_in_med(attrs) {
                counts.nn_med_only += 1;
            }
        }
    }
    counts
}

/// An arbitrary multi-session archive: up to 4 sessions, each with an
/// arbitrary interleaving of announcements and withdrawals over a small
/// prefix pool — the adversarial input for streaming-vs-batch equality.
fn arb_archive() -> impl Strategy<Value = UpdateArchive> {
    let prefixes = ["84.205.64.0/24", "84.205.65.0/24", "2001:7fb:fe00::/48"];
    let update = (0u8..3, 0u64..86_400, any::<bool>(), arb_attrs());
    vec(vec(update, 0..40), 1..5).prop_map(move |sessions| {
        let mut archive = UpdateArchive::new(0);
        for (s, updates) in sessions.into_iter().enumerate() {
            let key = SessionKey::new(
                if s % 2 == 0 { "rrc00" } else { "rrc01" },
                Asn(20_000 + s as u32),
                format!("192.0.2.{}", s + 1).parse().unwrap(),
            );
            let mut sorted = updates;
            sorted.sort_by_key(|(_, t, _, _)| *t);
            for (p, t, withdraw, mut attrs) in sorted {
                let prefix: Prefix = prefixes[p as usize].parse().unwrap();
                if withdraw {
                    archive.record(&key, RouteUpdate::withdraw(t * 1_000_000, prefix));
                } else {
                    if prefix.is_ipv6() {
                        attrs.next_hop = "2001:db8::1".parse().unwrap();
                    }
                    archive.record(&key, RouteUpdate::announce(t * 1_000_000, prefix, attrs));
                }
            }
        }
        archive
    })
}

proptest! {
    /// The pipeline's counts equal a naive per-stream fold of
    /// `classify_pair` on arbitrary archives, and its overview equals the
    /// `overview` helper, even when the stream takes the MRT-bytes route
    /// (different source implementation, same per-session streams).
    #[test]
    fn streaming_equals_batch_on_arbitrary_archives(archive in arb_archive()) {
        // Direct archive streaming: one pass, two sinks.
        let out = PipelineBuilder::new(ArchiveSource::new(&archive))
            .sink((CountsSink::default(), OverviewSink::default()))
            .run()
            .expect("archive source");
        let (counts_sink, overview_sink) = out.sink;
        prop_assert_eq!(counts_sink.finish(), naive_counts(&archive));
        prop_assert_eq!(overview_sink.finish(), overview(&archive));

        // MRT-bytes streaming: write, then classify record-at-a-time.
        let mut bytes = Vec::new();
        archive.write_mrt(&mut bytes).expect("export");
        let reread = UpdateArchive::read_mrt(&bytes[..], "rrc00", 0).expect("import");
        let via_bytes = PipelineBuilder::new(MrtSource::new(&bytes[..], "rrc00", 0))
            .sink(CountsSink::default())
            .run()
            .expect("mrt source");
        prop_assert_eq!(via_bytes.sink.finish(), naive_counts(&reread));
    }

    /// Any announcement survives a wire encode/decode round-trip exactly.
    #[test]
    fn wire_roundtrip_announcement(attrs in arb_attrs(), prefix in arb_prefix()) {
        // IPv6 NLRI requires an IPv6 next hop on the wire; align family.
        let mut attrs = attrs;
        if prefix.is_ipv6() {
            attrs.next_hop = "2001:db8::1".parse().unwrap();
        }
        let cfg = SessionConfig::default();
        let msg = Message::Update(UpdatePacket::announce(prefix, attrs));
        let mut buf = bytes::BytesMut::new();
        encode_message(&msg, &cfg, &mut buf);
        let decoded = decode_message(&mut &buf[..], &cfg).expect("decode");
        prop_assert_eq!(decoded, msg);
    }

    /// Two-octet sessions reconstruct 4-byte paths via AS4_PATH.
    #[test]
    fn wire_roundtrip_two_octet_session(asns in vec(arb_asn(), 1..8)) {
        let attrs = PathAttributes {
            as_path: AsPath::from_asns(asns),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        let cfg = SessionConfig { four_octet_as: false };
        let msg = Message::Update(UpdatePacket::announce(
            "10.0.0.0/8".parse().unwrap(),
            attrs.clone(),
        ));
        let mut buf = bytes::BytesMut::new();
        encode_message(&msg, &cfg, &mut buf);
        let decoded = decode_message(&mut &buf[..], &cfg).expect("decode");
        if let Message::Update(p) = decoded {
            prop_assert_eq!(p.attrs.expect("attrs").as_path, attrs.as_path);
        } else {
            prop_assert!(false, "wrong message type");
        }
    }

    /// An announcement equal to its predecessor is always `nn`;
    /// classification against itself can never be a change type.
    #[test]
    fn classify_reflexive_is_nn(attrs in arb_attrs()) {
        prop_assert_eq!(classify_pair(&attrs, &attrs), AnnouncementType::Nn);
    }

    /// The first classification letter depends only on the AS path and
    /// the second only on the community attribute.
    #[test]
    fn classify_axes_are_independent(a in arb_attrs(), b in arb_attrs()) {
        let t = classify_pair(&a, &b);
        let path_changed = a.as_path != b.as_path;
        let comm_changed = a.communities != b.communities;
        prop_assert_eq!(t.community_changed(), comm_changed);
        prop_assert_eq!(t.is_no_path_change(), !path_changed);
        if path_changed && a.as_path.same_as_set(&b.as_path) {
            prop_assert!(matches!(t, AnnouncementType::Xc | AnnouncementType::Xn));
        }
    }

    /// Community sets are order-insensitive and idempotent under merge.
    #[test]
    fn community_set_semantics(values in vec(any::<u32>(), 0..20)) {
        let forward = CommunitySet::from_classic(values.iter().copied().map(Community));
        let mut reversed_values = values.clone();
        reversed_values.reverse();
        let reversed = CommunitySet::from_classic(reversed_values.into_iter().map(Community));
        prop_assert_eq!(&forward, &reversed);
        let mut merged = forward.clone();
        merged.merge(&forward);
        prop_assert_eq!(&merged, &forward);
        prop_assert_eq!(forward.canonical_key(), reversed.canonical_key());
    }

    /// Timestamp normalization preserves order, spacing ties apart and
    /// never moving a message before its original second.
    #[test]
    fn normalization_is_monotonic(seconds in vec(0u64..100, 1..50)) {
        let prefix: Prefix = "10.0.0.0/8".parse().unwrap();
        let mut sorted = seconds;
        sorted.sort_unstable();
        let mut updates: Vec<RouteUpdate> = sorted
            .iter()
            .map(|&s| RouteUpdate::withdraw(s * 1_000_000, prefix))
            .collect();
        normalize_timestamps(&mut updates);
        for w in updates.windows(2) {
            prop_assert!(w[0].time_us <= w[1].time_us, "order violated");
        }
        for (u, &s) in updates.iter().zip(&sorted) {
            prop_assert!(u.time_us >= s * 1_000_000);
            prop_assert!(u.time_us < s * 1_000_000 + 1_000_000, "left its second");
        }
    }

    /// Same-second runs of arbitrary length stay monotonic and never
    /// leave their own second — the regression class where a long run
    /// (≥100,000 updates × 10 µs) used to cross the 1 s boundary and
    /// overtake the next distinct timestamp.
    #[test]
    fn normalization_clamps_arbitrary_run_lengths(
        runs in vec((0u64..12, 1usize..4_000), 1..5),
    ) {
        let prefix: Prefix = "10.0.0.0/8".parse().unwrap();
        let mut runs = runs;
        runs.sort_unstable();
        runs.dedup_by_key(|r| r.0);
        let mut updates = Vec::new();
        let mut run_second = Vec::new();
        for &(s, len) in &runs {
            for _ in 0..len {
                updates.push(RouteUpdate::withdraw(s * 1_000_000, prefix));
                run_second.push(s);
            }
        }
        normalize_timestamps(&mut updates);
        for w in updates.windows(2) {
            prop_assert!(w[0].time_us <= w[1].time_us, "order violated");
        }
        for (u, &s) in updates.iter().zip(&run_second) {
            prop_assert!(u.time_us >= s * 1_000_000, "moved before its second");
            prop_assert!(
                u.time_us < (s + 1) * 1_000_000,
                "crossed into the next second: t={} from second {}",
                u.time_us,
                s
            );
        }
    }

    /// MRT archive round-trips preserve per-session update streams.
    #[test]
    fn mrt_archive_roundtrip(
        times in vec(0u64..86_400_000_000, 1..30),
        withdraw_mask in vec(any::<bool>(), 1..30),
    ) {
        let mut archive = UpdateArchive::new(1_000_000);
        let key = SessionKey::new("rrc00", Asn(20_205), "192.0.2.9".parse().unwrap());
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        let mut sorted = times;
        sorted.sort_unstable();
        for (i, t) in sorted.iter().enumerate() {
            let withdraw = withdraw_mask.get(i % withdraw_mask.len()).copied().unwrap_or(false);
            if withdraw {
                archive.record(&key, RouteUpdate::withdraw(*t, prefix));
            } else {
                let attrs = PathAttributes {
                    as_path: "20205 3356 12654".parse().unwrap(),
                    next_hop: "192.0.2.1".parse().unwrap(),
                    ..Default::default()
                };
                archive.record(&key, RouteUpdate::announce(*t, prefix, attrs));
            }
        }
        let mut bytes = Vec::new();
        archive.write_mrt(&mut bytes).expect("export");
        let parsed = UpdateArchive::read_mrt(&bytes[..], "rrc00", 1_000_000).expect("import");
        prop_assert_eq!(
            parsed.session(&key).expect("session").updates.clone(),
            archive.session(&key).expect("session").updates.clone()
        );
    }

    /// Prefix parse/display round-trips for arbitrary canonical prefixes.
    #[test]
    fn prefix_text_roundtrip(p in arb_prefix()) {
        let text = p.to_string();
        let parsed: Prefix = text.parse().expect("reparse");
        prop_assert_eq!(parsed, p);
    }

    /// AS path display/parse round-trips (single-sequence paths).
    #[test]
    fn as_path_text_roundtrip(asns in vec(arb_asn(), 0..10)) {
        let path = AsPath::from_asns(asns);
        let text = path.to_string();
        let parsed: AsPath = text.parse().expect("reparse");
        prop_assert_eq!(parsed, path);
    }

    /// UPDATE encode→decode→encode is the identity for attributes using
    /// every wire-encodable field: classic, extended and large community
    /// families, MED, ATOMIC_AGGREGATE and AGGREGATOR. The value
    /// round-trips *and* the re-encoded bytes are identical, so the
    /// canonical wire form is stable.
    #[test]
    fn wire_roundtrip_full_attributes(attrs in arb_full_attrs(), prefix in arb_prefix()) {
        let mut attrs = attrs;
        if prefix.is_ipv6() {
            attrs.next_hop = "2001:db8::1".parse().unwrap();
        }
        let cfg = SessionConfig::default();
        let msg = Message::Update(UpdatePacket::announce(prefix, attrs));
        let mut first = bytes::BytesMut::new();
        encode_message(&msg, &cfg, &mut first);
        let first = first.freeze();
        let decoded = decode_message(&mut &first[..], &cfg).expect("decode");
        prop_assert_eq!(&decoded, &msg);
        let mut second = bytes::BytesMut::new();
        encode_message(&decoded, &cfg, &mut second);
        prop_assert_eq!(second.freeze(), first);
    }

    /// Withdrawals round-trip for both address families.
    #[test]
    fn wire_roundtrip_withdrawal(prefix in arb_prefix()) {
        let cfg = SessionConfig::default();
        let msg = Message::Update(UpdatePacket::withdraw(prefix));
        let mut buf = bytes::BytesMut::new();
        encode_message(&msg, &cfg, &mut buf);
        let decoded = decode_message(&mut &buf[..], &cfg).expect("decode");
        prop_assert_eq!(decoded, msg);
    }

    /// MRT record streams survive write→read exactly: BGP4MP MESSAGE(_AS4)
    /// records with full-attribute updates and STATE_CHANGE records, in
    /// arbitrary interleavings. The AS4 subtype switch (forced by 4-byte
    /// ASNs) must be transparent.
    #[test]
    fn mrt_record_stream_roundtrip(
        cells in vec(
            (
                0u32..100_000, 0u32..1_000_000, arb_asn(), arb_full_attrs(),
                any::<bool>(), any::<bool>(),
            ),
            1..20,
        ),
    ) {
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        let states = [
            BgpState::Idle, BgpState::Connect, BgpState::Active,
            BgpState::OpenSent, BgpState::OpenConfirm, BgpState::Established,
        ];
        let records: Vec<MrtRecord> = cells
            .into_iter()
            .enumerate()
            .map(|(i, (secs, micros, peer_asn, attrs, withdraw, state_change))| {
                let timestamp = MrtTimestamp::micros(secs, micros);
                let peer_ip: std::net::IpAddr = "192.0.2.9".parse().unwrap();
                let local_ip: std::net::IpAddr = "192.0.2.1".parse().unwrap();
                if state_change {
                    MrtRecord::StateChange(Bgp4mpStateChange {
                        timestamp,
                        peer_asn,
                        local_asn: Asn(3333),
                        ifindex: 0,
                        peer_ip,
                        local_ip,
                        old_state: states[i % states.len()],
                        new_state: states[(i + 1) % states.len()],
                    })
                } else {
                    let packet = if withdraw {
                        UpdatePacket::withdraw(prefix)
                    } else {
                        UpdatePacket::announce(prefix, attrs)
                    };
                    MrtRecord::Message(Bgp4mpMessage {
                        timestamp,
                        peer_asn,
                        local_asn: Asn(3333),
                        ifindex: 0,
                        peer_ip,
                        local_ip,
                        message: Message::Update(packet),
                    })
                }
            })
            .collect();

        let mut writer = MrtWriter::new(Vec::new());
        writer.write_all(&records).expect("write records");
        prop_assert_eq!(writer.records_written(), records.len() as u64);
        let bytes = writer.into_inner();

        let mut reader = MrtReader::new(&bytes[..]);
        let mut parsed = Vec::new();
        while let Some(record) = reader.next_record().expect("read record") {
            parsed.push(record);
        }
        prop_assert_eq!(parsed, records);
    }
}

/// One negotiable capability. `Unknown` codes stay clear of the decoded
/// registry (1 = multiprotocol, 2 = route refresh, 65 = 4-octet AS) so
/// decode cannot re-shape them, and their payloads respect the one-byte
/// length field.
fn arb_capability() -> impl Strategy<Value = Capability> {
    prop_oneof![
        (prop_oneof![Just(Afi::Ipv4), Just(Afi::Ipv6)], any::<u8>())
            .prop_map(|(afi, safi)| Capability::Multiprotocol { afi, safi }),
        Just(Capability::RouteRefresh),
        any::<u32>().prop_map(|v| Capability::FourOctetAs(Asn(v))),
        (100u8..=255, vec(any::<u8>(), 0..12))
            .prop_map(|(code, value)| Capability::Unknown { code, value }),
    ]
}

/// Legal hold times only: RFC 4271 §4.2 allows 0 or ≥ 3 seconds, with
/// the boundaries (0, 3, 65535) always in the mix.
fn arb_hold_time() -> impl Strategy<Value = u16> {
    prop_oneof![Just(0u16), Just(3u16), Just(u16::MAX), 3u16..=u16::MAX]
}

proptest! {
    /// OPEN encode → decode → re-encode is byte-stable across ASN widths
    /// (2-octet, and 4-octet collapsing the header field to AS_TRANS),
    /// unknown capability payloads, and hold-time boundaries.
    #[test]
    fn open_message_wire_roundtrip_is_byte_stable(
        asn in arb_asn(),
        hold_time in arb_hold_time(),
        bgp_id in any::<u32>(),
        capabilities in vec(arb_capability(), 0..6),
    ) {
        let open = OpenMessage {
            asn,
            hold_time,
            bgp_id: std::net::Ipv4Addr::from(bgp_id),
            capabilities,
        };
        let mut first = bytes::BytesMut::new();
        open.encode_body(&mut first);
        let decoded = OpenMessage::decode_body(&mut &first[..])
            .expect("legal OPEN must decode");
        prop_assert_eq!(decoded.hold_time, hold_time);
        prop_assert_eq!(&decoded.capabilities, &open.capabilities);
        let mut second = bytes::BytesMut::new();
        decoded.encode_body(&mut second);
        let mut third_src = bytes::BytesMut::new();
        open.encode_body(&mut third_src);
        // Re-encoding the decoded OPEN must reproduce the bytes exactly.
        prop_assert_eq!(second.freeze().to_vec(), third_src.freeze().to_vec());
    }

    /// The classifier's incremental memory account is exact: after every
    /// step of an arbitrary announce/withdraw interleaving with
    /// mixed-family community sets (classic + extended + large),
    /// `state_bytes` equals the from-scratch recomputation over live
    /// stream slots — the running sum never drifts or underflows, no
    /// matter how attribute sets are shared, replaced or re-announced.
    #[test]
    fn state_bytes_always_equals_audit(
        steps in vec((0u8..4, any::<bool>(), arb_full_attrs(), any::<bool>()), 0..60),
    ) {
        let prefixes = ["84.205.64.0/24", "84.205.65.0/24", "10.1.0.0/16", "2001:7fb:fe00::/48"];
        let mut classifier = StreamClassifier::new();
        let mut shared: Option<std::sync::Arc<PathAttributes>> = None;
        for (i, (p, withdraw, attrs, reuse)) in steps.into_iter().enumerate() {
            let prefix: Prefix = prefixes[p as usize].parse().unwrap();
            let u = if withdraw {
                RouteUpdate::withdraw(i as u64, prefix)
            } else {
                // Alternate fresh allocations with re-sent shared handles
                // so the classifier sees both replace and shared-handle paths.
                let handle = match (&shared, reuse) {
                    (Some(a), true) => std::sync::Arc::clone(a),
                    _ => {
                        let a = std::sync::Arc::new(attrs);
                        shared = Some(std::sync::Arc::clone(&a));
                        a
                    }
                };
                RouteUpdate::announce(i as u64, prefix, handle)
            };
            classifier.classify(&u);
            let (incremental, audited) = (classifier.state_bytes(), classifier.audit_state_bytes());
            prop_assert!(
                incremental == audited,
                "incremental account drifted after step {}: {} != {}",
                i,
                incremental,
                audited
            );
        }
    }

    /// Sharing allocations is invisible to classification: a stream whose
    /// announcements share one allocation per attribute set produces the
    /// identical event sequence to the same stream with every update
    /// deep-copied into its own allocation.
    #[test]
    fn interned_and_owned_attrs_classify_identically(
        steps in vec((0u8..3, any::<bool>(), arb_full_attrs(), any::<bool>()), 0..60),
    ) {
        let prefixes = ["84.205.64.0/24", "84.205.65.0/24", "2001:7fb:fe00::/48"];
        let mut last: Option<std::sync::Arc<PathAttributes>> = None;
        let updates: Vec<RouteUpdate> = steps
            .into_iter()
            .enumerate()
            .map(|(i, (p, withdraw, attrs, reuse))| {
                let prefix: Prefix = prefixes[p as usize].parse().unwrap();
                if withdraw {
                    RouteUpdate::withdraw(i as u64, prefix)
                } else {
                    let handle = match (&last, reuse) {
                        (Some(a), true) => std::sync::Arc::clone(a),
                        _ => {
                            let a = std::sync::Arc::new(attrs);
                            last = Some(std::sync::Arc::clone(&a));
                            a
                        }
                    };
                    RouteUpdate::announce(i as u64, prefix, handle)
                }
            })
            .collect();
        let owned: Vec<RouteUpdate> = updates
            .iter()
            .map(|u| match u.attributes() {
                Some(attrs) => RouteUpdate::announce(u.time_us, u.prefix, attrs.clone()),
                None => RouteUpdate::withdraw(u.time_us, u.prefix),
            })
            .collect();

        let mut a = StreamClassifier::new();
        let mut b = StreamClassifier::new();
        for (u_shared, u_owned) in updates.iter().zip(&owned) {
            let ea = a.classify(u_shared);
            let eb = b.classify(u_owned);
            prop_assert_eq!(ea.kind, eb.kind);
            prop_assert_eq!(ea.time_us, eb.time_us);
            prop_assert_eq!(ea.prefix, eb.prefix);
            // Attribute *values* must match; allocations may differ.
            prop_assert_eq!(
                ea.attrs.as_deref(),
                eb.attrs.as_deref()
            );
        }
        prop_assert_eq!(a.stream_count(), b.stream_count());
        // Footprints are *capacity*-based, so the two classifiers may
        // legitimately account different byte totals for value-equal sets
        // (a `clone` can shrink capacity) — but each account must agree
        // with its own audit.
        prop_assert_eq!(a.state_bytes(), a.audit_state_bytes());
        prop_assert_eq!(b.state_bytes(), b.audit_state_bytes());
    }

    /// The codec refuses the RFC 4271 §4.2 illegal hold times (1–2 s) at
    /// decode, whatever else the OPEN carries.
    #[test]
    fn open_message_rejects_unacceptable_hold_times(
        asn in arb_asn(),
        hold_time in 1u16..=2,
        capabilities in vec(arb_capability(), 0..4),
    ) {
        let open = OpenMessage {
            asn,
            hold_time,
            bgp_id: "192.0.2.1".parse().unwrap(),
            capabilities,
        };
        let mut buf = bytes::BytesMut::new();
        open.encode_body(&mut buf);
        prop_assert_eq!(
            OpenMessage::decode_body(&mut &buf[..]),
            Err(keep_communities_clean::wire::WireError::BadValue {
                what: "hold time",
                value: hold_time as u32,
            })
        );
    }
}

proptest! {
    /// One logical update encodes to exactly the bytes of its one-prefix
    /// packet under both AS widths — across IPv6 prefixes, paths long
    /// enough to split into several wire segments, and community lists
    /// whose attribute body needs the extended length.
    #[test]
    fn route_update_encodes_like_its_packet(
        attrs in arb_full_attrs(),
        long_path in vec(arb_asn(), 0..600),
        more_communities in vec(any::<u32>(), 0..100),
        prefix in arb_prefix(),
        announce in any::<bool>(),
        four_octet_as in any::<bool>(),
    ) {
        use keep_communities_clean::wire::{encode_route_update, encode_update};
        let mut attrs = attrs;
        if !long_path.is_empty() {
            attrs.as_path = AsPath::from_asns(long_path);
        }
        for c in more_communities {
            attrs.communities.insert(Community(c));
        }
        if prefix.is_ipv6() {
            attrs.next_hop = "2001:db8::1".parse().unwrap();
        }
        let update = if announce {
            RouteUpdate::announce(7, prefix, attrs)
        } else {
            RouteUpdate::withdraw(7, prefix)
        };
        let cfg = SessionConfig { four_octet_as };
        let mut direct = bytes::BytesMut::new();
        encode_route_update(&update, &cfg, &mut direct);
        let mut via_packet = bytes::BytesMut::new();
        encode_update(&UpdatePacket::from_route_update(&update), &cfg, &mut via_packet);
        prop_assert_eq!(&direct[..], &via_packet[..]);
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Every message shape the encoder writes, as wire bytes under `cfg`: a
/// seeded generated day's updates one per UPDATE and eight per UPDATE
/// (mixed families and kinds in one packet), plus hand-built UPDATEs
/// that cross the 255-ASN segment split, the extended attribute length
/// and unknown-attribute pass-through, and one of each other message.
fn pinned_wire(cfg: &SessionConfig) -> Vec<u8> {
    use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};
    use keep_communities_clean::wire::attr::RawAttribute;
    use keep_communities_clean::wire::{encode_update, Notification, RouteRefresh};

    let mut gen_cfg = Mar20Config { seed: 7, target_announcements: 3_000, ..Default::default() };
    gen_cfg.universe.n_prefixes_v4 = 300;
    gen_cfg.universe.n_prefixes_v6 = 100;
    gen_cfg.universe.n_sessions = 12;
    let day = generate_mar20(&gen_cfg).archive;
    let mut buf = bytes::BytesMut::new();
    for (_, rec) in day.sessions() {
        for update in &rec.updates {
            encode_update(&UpdatePacket::from_route_update(update), cfg, &mut buf);
        }
        for run in rec.updates.chunks(8) {
            let mut packet = UpdatePacket::default();
            for update in run {
                match update.attributes() {
                    Some(attrs) => {
                        packet.attrs.get_or_insert_with(|| attrs.clone());
                        packet.nlri.push(update.prefix);
                    }
                    None => packet.withdrawn.push(update.prefix),
                }
            }
            encode_update(&packet, cfg, &mut buf);
        }
    }

    let mut long = PathAttributes {
        as_path: AsPath::from_asns((0..300u32).map(|i| Asn(64_000 + i * 7_919))),
        next_hop: "2001:db8::7".parse().unwrap(),
        med: Some(10),
        local_pref: Some(200),
        atomic_aggregate: true,
        aggregator: Some(Aggregator {
            asn: Asn(4_200_000_001),
            router_id: "192.0.2.9".parse().unwrap(),
        }),
        ..Default::default()
    };
    long.communities = CommunitySet::from_classic((0..80u32).map(|i| Community(i * 65_537)));
    long.communities.insert_large(LargeCommunity::new(4_200_000_001, 1, 2));
    long.communities.insert_extended(ExtendedCommunity::RouteTarget { asn: 3356, value: 9 });
    let mixed = UpdatePacket {
        withdrawn: vec!["10.1.0.0/16".parse().unwrap(), "2001:db8:1::/48".parse().unwrap()],
        nlri: vec!["192.0.2.0/24".parse().unwrap(), "2001:db8:2::/48".parse().unwrap()],
        attrs: Some(long),
        unknown_attrs: vec![RawAttribute { flags: 0xC0, code: 99, value: vec![7; 300] }],
    };
    let v6_withdrawal = UpdatePacket::withdraw("2001:db8:3::/48".parse().unwrap());
    for packet in [&mixed, &v6_withdrawal, &UpdatePacket::default()] {
        encode_update(packet, cfg, &mut buf);
    }
    for message in [
        Message::Open(OpenMessage::standard(Asn(4_200_000_001), "192.0.2.1".parse().unwrap(), 90)),
        Message::Keepalive,
        Message::Notification(Notification::cease_admin_shutdown()),
        Message::RouteRefresh(RouteRefresh { afi: 2, safi: 1 }),
        Message::Update(mixed),
    ] {
        encode_message(&message, cfg, &mut buf);
    }
    buf.to_vec()
}

/// The encoder's bytes, pinned: a rewrite of any encode path must leave
/// every message byte-identical under both AS widths.
#[test]
fn wire_encoding_is_pinned() {
    for (four_octet_as, want_len, want_digest) in
        [(true, 511_323usize, 0xc997_28a3_1d56_1282u64), (false, 472_037, 0xa3f3_361f_4e2f_dfa0)]
    {
        let wire = pinned_wire(&SessionConfig { four_octet_as });
        let digest = fnv1a(0xcbf2_9ce4_8422_2325, &wire);
        println!("four_octet_as {four_octet_as}: {} bytes, digest {digest:016x}", wire.len());
        assert_eq!((wire.len(), digest), (want_len, want_digest), "four_octet_as {four_octet_as}");
    }
}

/// How many bytes a slice decoder consumed, given the input it was
/// handed and the slice it left behind; `None` unless what is left is a
/// suffix of the input, i.e. the decoder read only bytes it was given.
fn consumed(input: &[u8], rest: &[u8]) -> Option<usize> {
    let n = input.len().checked_sub(rest.len())?;
    std::ptr::eq(input[n..].as_ptr(), rest.as_ptr()).then_some(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary bytes, raw and behind a well-formed BGP header of any
    /// message type, never panic a wire decoder: each returns a typed
    /// `WireError` or a value, reads only what it was given, and on
    /// success consumes exactly the bytes its length says.
    #[test]
    fn wire_decoders_survive_arbitrary_bytes(
        bytes in vec(any::<u8>(), 0..600),
        mtype in 0u8..7,
        claim in 0usize..700,
    ) {
        let header_len = (HEADER_LEN + bytes.len()) as u16;
        let framed = [&[0xFF; 16][..], &header_len.to_be_bytes(), &[mtype], &bytes].concat();
        for four_octet_as in [true, false] {
            let cfg = SessionConfig { four_octet_as };
            for input in [&bytes[..], &framed[..]] {
                let mut rest = input;
                let decoded = decode_message(&mut rest, &cfg);
                let n = consumed(input, rest);
                prop_assert!(n.is_some(), "decode_message read outside its input");
                if decoded.is_ok() {
                    let len = u16::from_be_bytes([input[16], input[17]]) as usize;
                    prop_assert_eq!(n, Some(len));
                }
            }

            let mut rest = &bytes[..];
            let decoded = UpdatePacket::decode_body(&mut rest, claim, &cfg);
            let n = consumed(&bytes, rest);
            prop_assert!(n.is_some_and(|n| n <= claim), "UPDATE body: consumed {:?} of {}", n, claim);
            if decoded.is_ok() {
                prop_assert_eq!(n, Some(claim));
            }

            let mut rest = &bytes[..];
            let decoded = decode_attributes(&mut rest, claim, &cfg);
            let n = consumed(&bytes, rest);
            prop_assert!(n.is_some_and(|n| n <= claim), "attributes: consumed {:?} of {}", n, claim);
            if decoded.is_ok() {
                prop_assert_eq!(n, Some(claim));
            }
        }

        let mut rest = &bytes[..];
        let decoded = Notification::decode_body(&mut rest, claim);
        let n = consumed(&bytes, rest);
        prop_assert!(n.is_some_and(|n| n <= claim), "NOTIFICATION: consumed {:?} of {}", n, claim);
        if decoded.is_ok() {
            prop_assert_eq!(n, Some(claim));
        }

        let mut rest = &bytes[..];
        let decoded = RouteRefresh::decode_body(&mut rest, claim);
        let n = consumed(&bytes, rest);
        prop_assert!(n.is_some_and(|n| n <= claim), "ROUTE-REFRESH: consumed {:?} of {}", n, claim);
        if decoded.is_ok() {
            prop_assert_eq!(n, Some(claim));
        }

        let mut rest = &bytes[..];
        if let Err(e) = OpenMessage::decode_body(&mut rest) {
            prop_assert!(!e.to_string().is_empty());
        }
        prop_assert!(consumed(&bytes, rest).is_some(), "OPEN read outside its input");
    }

    /// Arbitrary bytes, raw and as the body of every record type the
    /// reader decodes, never panic `MrtReader::next_record`: each record
    /// is a value or a typed `MrtError`, never an I/O error from an
    /// in-memory stream. The TABLE_DUMP_V2 body decoders, handed the
    /// bytes directly, return a value or a typed error too.
    #[test]
    fn mrt_reader_survives_arbitrary_bytes(bytes in vec(any::<u8>(), 0..600), kind in 0usize..7) {
        let (mrt_type, subtype) =
            [(16u16, 0u16), (16, 1), (17, 4), (17, 5), (13, 1), (13, 2), (13, 4)][kind];
        let framed = [
            &1_584_230_400u32.to_be_bytes()[..],
            &mrt_type.to_be_bytes(),
            &subtype.to_be_bytes(),
            &(bytes.len() as u32).to_be_bytes(),
            &bytes,
        ]
        .concat();
        let timestamp = MrtTimestamp::seconds(1_584_230_400);
        if let Err(e) = PeerIndexTable::decode_body(timestamp, &bytes) {
            prop_assert!(!e.to_string().is_empty());
        }
        // RIB_IPV4_UNICAST and RIB_IPV6_UNICAST.
        for subtype in [2u16, 4] {
            if let Err(e) = RibSnapshot::decode_body(timestamp, subtype, &bytes) {
                prop_assert!(!e.to_string().is_empty());
            }
        }
        for input in [&bytes[..], &framed[..]] {
            let mut reader = MrtReader::new(input);
            loop {
                match reader.next_record() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(MrtError::Io(e)) => prop_assert!(false, "I/O error from a slice: {}", e),
                    Err(e) => {
                        prop_assert!(!e.to_string().is_empty());
                        break;
                    }
                }
            }
        }
    }
}

/// The naive store `AttrStore` must agree with: one `(value, refcount,
/// canonical handle)` row per distinct attribute set, found by scanning.
#[derive(Default)]
struct NaiveStore {
    rows: Vec<(PathAttributes, usize, Arc<PathAttributes>)>,
}

impl NaiveStore {
    fn find(&self, attrs: &PathAttributes) -> Option<usize> {
        self.rows.iter().position(|(v, _, _)| v == attrs)
    }

    fn bytes(&self) -> usize {
        self.rows.iter().map(|(v, _, _)| v.deep_footprint()).sum()
    }
}

proptest! {
    /// `AttrStore` against a naive scan-based model over random
    /// `acquire` / `acquire_owned` / `release` / `canonical` sequences,
    /// with handles that are the canonical allocation and handles that
    /// are only value-equal to it: the same distinct sets and bytes
    /// after every step, every returned handle the canonical allocation,
    /// and an empty store once every handle is released.
    #[test]
    fn attr_store_matches_naive_model(
        pool in vec(arb_attrs(), 1..6),
        ops in vec((0u8..4, 0usize..6, any::<bool>(), any::<u16>()), 0..80),
    ) {
        let mut store = AttrStore::new();
        let mut model = NaiveStore::default();
        let mut held: Vec<Arc<PathAttributes>> = Vec::new();
        for (op, v, copy, pick) in ops {
            let value = &pool[v % pool.len()];
            let canonical = model.find(value).map(|i| Arc::clone(&model.rows[i].2));
            // The handle an operation is given: the canonical allocation,
            // or a fresh value-equal one.
            let handle = match canonical.clone() {
                Some(c) if !copy => c,
                _ => Arc::new(value.clone()),
            };
            match op {
                0 | 1 => {
                    let given = Arc::clone(&handle);
                    let got = if op == 0 { store.acquire(&handle) } else { store.acquire_owned(handle) };
                    match model.find(value) {
                        Some(i) => {
                            prop_assert!(Arc::ptr_eq(&got, &model.rows[i].2));
                            model.rows[i].1 += 1;
                        }
                        None => {
                            prop_assert!(Arc::ptr_eq(&got, &given), "a new value keeps its allocation");
                            model.rows.push((value.clone(), 1, Arc::clone(&got)));
                        }
                    }
                    held.push(got);
                }
                2 if !held.is_empty() => {
                    let h = held.swap_remove(pick as usize % held.len());
                    let i = model.find(&h).expect("held handles are interned");
                    if copy {
                        store.release(&Arc::new(PathAttributes::clone(&h)));
                    } else {
                        store.release(&h);
                    }
                    model.rows[i].1 -= 1;
                    if model.rows[i].1 == 0 {
                        model.rows.swap_remove(i);
                    }
                }
                _ => {
                    let got = store.canonical(value);
                    prop_assert_eq!(got.is_some(), canonical.is_some());
                    if let (Some(got), Some(c)) = (got, canonical) {
                        prop_assert!(Arc::ptr_eq(&got, &c));
                    }
                }
            }
            prop_assert_eq!(store.len(), model.rows.len());
            prop_assert_eq!(store.bytes(), model.bytes());
            prop_assert_eq!(store.is_empty(), model.rows.is_empty());
        }
        for h in held.drain(..) {
            store.release(&h);
        }
        prop_assert_eq!(store.len(), 0);
        prop_assert_eq!(store.bytes(), 0);
    }
}

/// AS paths over a five-ASN pool, so sets often coincide: zero to three
/// segments of every kind, each with repeats allowed and possibly empty.
fn arb_segmented_path() -> impl Strategy<Value = AsPath> {
    let kind = prop_oneof![
        Just(SegmentKind::Sequence),
        Just(SegmentKind::Set),
        Just(SegmentKind::ConfedSequence),
        Just(SegmentKind::ConfedSet),
    ];
    vec((kind, vec((1u32..6).prop_map(Asn), 0..5)), 0..4).prop_map(|segments| {
        AsPath::from_segments(
            segments.into_iter().map(|(kind, asns)| PathSegment { kind, asns }).collect(),
        )
    })
}

/// Registries of nested blocks (a /8, a /16 and a /24 inside it, and a
/// sibling /16), each registered or not at its own epoch, and ASNs 1–4
/// at their own epochs; ASNs 5 and 6 are never allocated.
fn arb_registry() -> impl Strategy<Value = AllocationRegistry> {
    (vec(proptest::option::of(0u64..50), 4..5), vec(0u64..50, 4..5)).prop_map(|(blocks, asns)| {
        let mut registry = AllocationRegistry::new();
        let nested = ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16"];
        for (block, epoch) in nested.iter().zip(blocks) {
            if let Some(epoch) = epoch {
                registry.register_block(block.parse().unwrap(), epoch);
            }
        }
        for (asn, epoch) in (1u32..).zip(asns) {
            registry.register_asn(Asn(asn), epoch);
        }
        registry
    })
}

/// Prefixes near two v4 and two v6 anchor addresses: an anchor with its
/// bits below a random depth scrambled, at a random length. Blocks drawn
/// from this nest, repeat and sit side by side, and queries drawn from
/// it fall inside some of them and outside others.
fn arb_anchored_prefix() -> impl Strategy<Value = Prefix> {
    const V4: [u32; 2] = [0x0a01_0203, 0xc0a8_8001];
    const V6: [u128; 2] = [0x2001_0db8_0001 << 80, 0x2a00_1450 << 96];
    prop_oneof![
        (0usize..2, any::<u32>(), 0u32..=32, 0u8..=32).prop_map(|(i, noise, depth, len)| {
            let addr = V4[i] ^ noise.checked_shr(depth).unwrap_or(0);
            Prefix::v4(addr.into(), len).expect("valid v4 length")
        }),
        (0usize..2, any::<u128>(), 0u32..=128, 0u8..=128).prop_map(|(i, noise, depth, len)| {
            let addr = V6[i] ^ noise.checked_shr(depth).unwrap_or(0);
            Prefix::v6(addr.into(), len).expect("valid v6 length")
        }),
    ]
}

proptest! {
    /// A prefix's allocation epoch is the earliest epoch at which any
    /// block containing it was registered, over nested, duplicate and
    /// re-registered v4 and v6 blocks — exactly what a linear scan of
    /// every registration answers.
    #[test]
    fn registry_prefix_epoch_matches_linear_scan(
        blocks in vec((arb_anchored_prefix(), 0u64..100, proptest::option::of(0u64..100)), 0..24),
        queries in vec((prop_oneof![arb_anchored_prefix(), arb_prefix()], 0u64..100), 1..32),
    ) {
        let mut registry = AllocationRegistry::new();
        let mut registered = Vec::new();
        for &(block, epoch, _) in &blocks {
            registry.register_block(block, epoch);
            registered.push((block, epoch));
        }
        // Re-register some blocks, earlier or later, after all of them.
        for &(block, _, again) in &blocks {
            if let Some(epoch) = again {
                registry.register_block(block, epoch);
                registered.push((block, epoch));
            }
        }
        let distinct: std::collections::HashSet<Prefix> =
            registered.iter().map(|&(block, _)| block).collect();
        prop_assert_eq!(registry.block_count(), distinct.len());
        // Every block is also a query, at its own epoch.
        for (query, at_us) in queries.into_iter().chain(registered.clone()) {
            let expected = registered
                .iter()
                .filter(|(block, _)| block.contains(&query))
                .map(|&(_, epoch)| epoch)
                .min();
            prop_assert_eq!(registry.prefix_epoch(&query), expected, "{}", query);
            prop_assert_eq!(
                registry.prefix_allocated(&query, at_us),
                expected.is_some_and(|from| from <= at_us),
                "{} at {}", query, at_us
            );
        }
    }

    /// The allocation-free `same_as_set` answers exactly what comparing
    /// the two sorted, deduplicated `as_set`s does.
    #[test]
    fn same_as_set_equals_as_set_comparison(
        a in arb_segmented_path(),
        b in arb_segmented_path(),
        derive in any::<bool>(),
    ) {
        // Half the time, `b` repeats every ASN of `a` in reversed
        // segments, so the sets match under different shapes.
        let b = if derive {
            AsPath::from_segments(
                a.segments()
                    .iter()
                    .rev()
                    .map(|s| PathSegment {
                        kind: s.kind,
                        asns: s.asns.iter().flat_map(|&asn| [asn, asn]).collect(),
                    })
                    .collect(),
            )
        } else {
            b
        };
        prop_assert_eq!(a.same_as_set(&b), a.as_set() == b.as_set());
        prop_assert_eq!(b.same_as_set(&a), a.as_set() == b.as_set());
    }

    /// `CleaningStage`, which looks a prefix's allocation epoch up once
    /// and reuses it, keeps and drops exactly the updates a per-update
    /// `prefix_allocated` / `asn_allocated` check would, with the same
    /// reasons counted — also when a prefix recurs at an earlier time.
    #[test]
    fn cleaning_stage_matches_per_update_allocation_checks(
        registry in arb_registry(),
        updates in vec(
            (0usize..7, 0u64..60, proptest::option::of(vec((1u32..7).prop_map(Asn), 0..4))),
            0..80,
        ),
    ) {
        let prefixes = [
            "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.128/25", "10.1.3.0/24",
            "10.2.9.0/24", "11.0.0.0/8",
        ];
        let config = CleaningConfig {
            filter_unallocated: true,
            insert_route_server_asn: false,
            normalize_timestamps: false,
        };
        let mut stage = CleaningStage::new(&registry, config);
        let meta = PeerMeta {
            key: SessionKey::new("rrc00", Asn(1), "10.0.0.1".parse().unwrap()),
            route_server: false,
            second_granularity: false,
        };
        stage.on_session(&meta);
        let (mut unallocated_prefix, mut unallocated_asn) = (0, 0);
        for (p, time_us, path) in updates {
            let prefix: Prefix = prefixes[p].parse().unwrap();
            let update = match &path {
                Some(asns) => RouteUpdate::announce(
                    time_us,
                    prefix,
                    PathAttributes { as_path: AsPath::from_asns(asns.clone()), ..Default::default() },
                ),
                None => RouteUpdate::withdraw(time_us, prefix),
            };
            let expected = if !registry.prefix_allocated(&prefix, time_us) {
                unallocated_prefix += 1;
                false
            } else if path.iter().flatten().any(|&asn| !registry.asn_allocated(asn, time_us)) {
                unallocated_asn += 1;
                false
            } else {
                true
            };
            let kept = stage.process(&meta, update.clone());
            prop_assert_eq!(kept.as_ref(), expected.then_some(&update));
        }
        let report = stage.report();
        prop_assert_eq!(report.removed_unallocated_prefix, unallocated_prefix);
        prop_assert_eq!(report.removed_unallocated_asn, unallocated_asn);
    }
}
