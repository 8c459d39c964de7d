//! Streaming MRT reader.

use std::io::{ErrorKind, Read};

use kcc_bgp_wire::cursor;

use crate::bgp4mp::{self, Bgp4mpMessage, Bgp4mpStateChange};
use crate::error::MrtError;
use crate::record::{MrtRecord, MrtTimestamp};
use crate::tabledump::{self, PeerIndexTable, RibSnapshot};
use crate::{TYPE_BGP4MP, TYPE_BGP4MP_ET, TYPE_TABLE_DUMP_V2};

/// Reads MRT records from any `io::Read`.
///
/// Iterate with [`MrtReader::next_record`] or the `Iterator` impl; both
/// yield `None`/end at a clean EOF (stream ends exactly on a record
/// boundary) and an error on a torn record.
///
/// Each record body is read into one `Vec<u8>` that the reader keeps and
/// reuses, and the record is decoded from that slice: no allocation per
/// record once the buffer has grown to the largest record seen. The
/// buffer grows only as body bytes actually arrive, so a corrupt length
/// field claiming gigabytes costs what the stream really holds and ends
/// in [`MrtError::Truncated`].
#[derive(Debug)]
pub struct MrtReader<R: Read> {
    inner: R,
    records_read: u64,
    body: Vec<u8>,
}

impl<R: Read> MrtReader<R> {
    /// Wraps a reader.
    pub fn new(inner: R) -> Self {
        MrtReader { inner, records_read: 0, body: Vec::new() }
    }

    /// Number of records read so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Reads the next record; `Ok(None)` at clean EOF.
    pub fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        let mut header = [0u8; 12];
        match read_exact_or_eof(&mut self.inner, &mut header)? {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Full => {}
        }
        let mut h = &header[..];
        let seconds = cursor::u32(&mut h);
        let mrt_type = cursor::u16(&mut h);
        let subtype = cursor::u16(&mut h);
        let length = cursor::u32(&mut h);

        self.body.clear();
        let read = (&mut self.inner).take(length as u64).read_to_end(&mut self.body);
        if !read.is_ok_and(|n| n == length as usize) {
            return Err(MrtError::Truncated("record body shorter than header length"));
        }
        let mut body = &self.body[..];

        let timestamp = if mrt_type == TYPE_BGP4MP_ET {
            if body.len() < 4 {
                return Err(MrtError::Truncated("extended timestamp"));
            }
            MrtTimestamp::micros(seconds, cursor::u32(&mut body))
        } else {
            MrtTimestamp::seconds(seconds)
        };

        let record = match (mrt_type, subtype) {
            (TYPE_BGP4MP | TYPE_BGP4MP_ET, bgp4mp::subtypes::MESSAGE)
            | (TYPE_BGP4MP | TYPE_BGP4MP_ET, bgp4mp::subtypes::MESSAGE_AS4) => {
                MrtRecord::Message(Bgp4mpMessage::decode_body(timestamp, subtype, body)?)
            }
            (TYPE_BGP4MP | TYPE_BGP4MP_ET, bgp4mp::subtypes::STATE_CHANGE)
            | (TYPE_BGP4MP | TYPE_BGP4MP_ET, bgp4mp::subtypes::STATE_CHANGE_AS4) => {
                MrtRecord::StateChange(Bgp4mpStateChange::decode_body(timestamp, subtype, body)?)
            }
            (TYPE_TABLE_DUMP_V2, tabledump::subtypes::PEER_INDEX_TABLE) => {
                MrtRecord::PeerIndexTable(PeerIndexTable::decode_body(timestamp, body)?)
            }
            (TYPE_TABLE_DUMP_V2, tabledump::subtypes::RIB_IPV4_UNICAST)
            | (TYPE_TABLE_DUMP_V2, tabledump::subtypes::RIB_IPV6_UNICAST) => {
                MrtRecord::RibSnapshot(RibSnapshot::decode_body(timestamp, subtype, body)?)
            }
            _ => return Err(MrtError::UnsupportedType { mrt_type, subtype }),
        };
        self.records_read += 1;
        Ok(Some(record))
    }
}

enum ReadOutcome {
    Full,
    Eof,
}

/// Reads exactly `buf.len()` bytes, distinguishing a clean EOF before any
/// byte from a torn read.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<ReadOutcome, MrtError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(ReadOutcome::Eof);
                }
                return Err(MrtError::Truncated("header torn at EOF"));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(MrtError::Io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

impl<R: Read> Iterator for MrtReader<R> {
    type Item = Result<MrtRecord, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::MrtWriter;
    use kcc_bgp_types::{Asn, PathAttributes};
    use kcc_bgp_wire::{Message, UpdatePacket};

    fn sample_records() -> Vec<MrtRecord> {
        let attrs = PathAttributes {
            as_path: "20205 3356 174 12654".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        let msg = Bgp4mpMessage {
            timestamp: MrtTimestamp::micros(1_584_230_400, 77),
            peer_asn: Asn(20_205),
            local_asn: Asn(12_345),
            ifindex: 0,
            peer_ip: "192.0.2.99".parse().unwrap(),
            local_ip: "192.0.2.1".parse().unwrap(),
            message: Message::Update(UpdatePacket::announce(
                "84.205.64.0/24".parse().unwrap(),
                attrs,
            )),
        };
        let msg_plain =
            Bgp4mpMessage { timestamp: MrtTimestamp::seconds(1_584_230_401), ..msg.clone() };
        let wd = Bgp4mpMessage {
            timestamp: MrtTimestamp::micros(1_584_230_402, 0),
            message: Message::Update(UpdatePacket::withdraw("84.205.64.0/24".parse().unwrap())),
            ..msg.clone()
        };
        vec![MrtRecord::Message(msg), MrtRecord::Message(msg_plain), MrtRecord::Message(wd)]
    }

    #[test]
    fn write_read_roundtrip() {
        let records = sample_records();
        let mut w = MrtWriter::new(Vec::new());
        w.write_all(&records).unwrap();
        assert_eq!(w.records_written(), 3);
        let raw = w.into_inner();

        let mut r = MrtReader::new(&raw[..]);
        let got: Result<Vec<_>, _> = r.by_ref().collect();
        let got = got.unwrap();
        assert_eq!(got, records);
        assert_eq!(r.records_read(), 3);
    }

    #[test]
    fn et_and_plain_types_coexist() {
        // Microsecond records must come back with micros, plain without.
        let records = sample_records();
        let mut w = MrtWriter::new(Vec::new());
        w.write_all(&records).unwrap();
        let raw = w.into_inner();
        let got: Vec<_> = MrtReader::new(&raw[..]).map(|r| r.unwrap()).collect();
        assert!(got[0].timestamp().microseconds.is_some());
        assert!(got[1].timestamp().microseconds.is_none());
    }

    #[test]
    fn clean_eof_ends_iteration() {
        let mut w = MrtWriter::new(Vec::new());
        w.write_all(&sample_records()).unwrap();
        let raw = w.into_inner();
        let mut reader = MrtReader::new(&raw[..]);
        while let Some(r) = reader.next_record().unwrap() {
            drop(r);
        }
        // Second call after EOF stays None.
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn torn_record_is_error() {
        let mut w = MrtWriter::new(Vec::new());
        w.write_all(&sample_records()).unwrap();
        let raw = w.into_inner();
        let torn = &raw[..raw.len() - 5];
        let mut reader = MrtReader::new(torn);
        let mut saw_error = false;
        for item in reader.by_ref() {
            if item.is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error);
    }

    #[test]
    fn unsupported_type_reported() {
        // Craft a record with MRT type 99.
        let mut raw = Vec::new();
        raw.extend_from_slice(&0u32.to_be_bytes());
        raw.extend_from_slice(&99u16.to_be_bytes());
        raw.extend_from_slice(&0u16.to_be_bytes());
        raw.extend_from_slice(&0u32.to_be_bytes());
        let mut reader = MrtReader::new(&raw[..]);
        assert!(matches!(
            reader.next_record(),
            Err(MrtError::UnsupportedType { mrt_type: 99, .. })
        ));
    }

    /// A corrupt length field must not allocate what it claims: the
    /// body buffer grows only with the bytes that really arrive.
    #[test]
    fn corrupt_length_is_truncated_without_allocating_it() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&0u32.to_be_bytes());
        raw.extend_from_slice(&TYPE_BGP4MP_ET.to_be_bytes());
        raw.extend_from_slice(&bgp4mp::subtypes::MESSAGE_AS4.to_be_bytes());
        raw.extend_from_slice(&0xFFFF_FFF0u32.to_be_bytes());
        raw.extend_from_slice(&[0; 8]);
        assert_eq!(raw.len(), 20);
        let mut reader = MrtReader::new(&raw[..]);
        assert!(matches!(reader.next_record(), Err(MrtError::Truncated(_))));
        assert!(reader.body.capacity() <= 4096, "grew to {} bytes", reader.body.capacity());
    }

    #[test]
    fn body_buffer_is_reused_across_records() {
        let mut w = MrtWriter::new(Vec::new());
        w.write_all(&sample_records()).unwrap();
        let raw = w.into_inner();
        let mut reader = MrtReader::new(&raw[..]);
        reader.next_record().unwrap().unwrap();
        let (ptr, capacity) = (reader.body.as_ptr(), reader.body.capacity());
        while reader.next_record().unwrap().is_some() {}
        assert_eq!((reader.body.as_ptr(), reader.body.capacity()), (ptr, capacity));
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        let mut reader = MrtReader::new(&[][..]);
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn table_dump_v2_roundtrip() {
        use crate::tabledump::{PeerEntry, RibEntry};
        let table = MrtRecord::PeerIndexTable(PeerIndexTable {
            timestamp: MrtTimestamp::seconds(100),
            collector_id: "198.51.100.1".parse().unwrap(),
            view_name: String::new(),
            peers: vec![PeerEntry {
                bgp_id: "10.0.0.1".parse().unwrap(),
                addr: "192.0.2.1".parse().unwrap(),
                asn: Asn(20_205),
            }],
        });
        let attrs = PathAttributes {
            as_path: "20205 12654".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        let rib = MrtRecord::RibSnapshot(RibSnapshot {
            timestamp: MrtTimestamp::seconds(100),
            sequence: 0,
            prefix: "84.205.64.0/24".parse().unwrap(),
            entries: vec![RibEntry { peer_index: 0, originated_time: 50, attrs }],
        });
        let mut w = MrtWriter::new(Vec::new());
        w.write_record(&table).unwrap();
        w.write_record(&rib).unwrap();
        let raw = w.into_inner();
        let got: Vec<_> = MrtReader::new(&raw[..]).map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![table, rib]);
    }
}
