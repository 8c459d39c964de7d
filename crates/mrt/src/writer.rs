//! Streaming MRT writer.

use std::io::Write;

use kcc_bgp_wire::cursor::Put;

use crate::error::MrtError;
use crate::record::MrtRecord;
use crate::tabledump;
use crate::{TYPE_BGP4MP, TYPE_BGP4MP_ET, TYPE_TABLE_DUMP_V2};

/// Writes MRT records to any `io::Write`.
///
/// Records with microsecond timestamps are written as `_ET` types;
/// second-granularity records use the plain types — mirroring the mix of
/// collector configurations the paper's cleaning step has to cope with.
#[derive(Debug)]
pub struct MrtWriter<W: Write> {
    inner: W,
    records_written: u64,
}

impl<W: Write> MrtWriter<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> Self {
        MrtWriter { inner, records_written: 0 }
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// Writes one record.
    pub fn write_record(&mut self, record: &MrtRecord) -> Result<(), MrtError> {
        let ts = record.timestamp();
        let mut body = Vec::new();
        let (mrt_type, subtype) = match record {
            MrtRecord::Message(m) => {
                m.encode_body(&mut body)?;
                let t = if ts.microseconds.is_some() { TYPE_BGP4MP_ET } else { TYPE_BGP4MP };
                (t, m.subtype())
            }
            MrtRecord::StateChange(s) => {
                s.encode_body(&mut body)?;
                let t = if ts.microseconds.is_some() { TYPE_BGP4MP_ET } else { TYPE_BGP4MP };
                (t, s.subtype())
            }
            MrtRecord::PeerIndexTable(p) => {
                p.encode_body(&mut body)?;
                (TYPE_TABLE_DUMP_V2, tabledump::subtypes::PEER_INDEX_TABLE)
            }
            MrtRecord::RibSnapshot(r) => {
                r.encode_body(&mut body)?;
                (TYPE_TABLE_DUMP_V2, r.subtype())
            }
        };

        let mut header = Vec::with_capacity(16);
        header.put_u32(ts.seconds);
        header.put_u16(mrt_type);
        header.put_u16(subtype);
        match (mrt_type, ts.microseconds) {
            (TYPE_BGP4MP_ET, Some(us)) => {
                // The microsecond field counts toward the record length.
                header.put_u32(body.len() as u32 + 4);
                header.put_u32(us);
            }
            _ => header.put_u32(body.len() as u32),
        }
        self.inner.write_all(&header)?;
        self.inner.write_all(&body)?;
        self.records_written += 1;
        Ok(())
    }

    /// Writes all records from an iterator.
    pub fn write_all<'a, I: IntoIterator<Item = &'a MrtRecord>>(
        &mut self,
        records: I,
    ) -> Result<(), MrtError> {
        for r in records {
            self.write_record(r)?;
        }
        Ok(())
    }

    /// Flushes the inner writer.
    pub fn flush(&mut self) -> Result<(), MrtError> {
        self.inner.flush()?;
        Ok(())
    }
}
