//! Write-ahead log: one checksummed frame per committed statement.
//!
//! ## Frame format
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! payload = [u64 generation][u32 record_count][record ...]
//! ```
//!
//! All integers little-endian. A statement that touches the catalog or
//! heap emits exactly one frame holding every [`WalRecord`] it produced
//! (e.g. `CREATE TABLE` with a primary key emits a `CreateTable` record
//! plus the `CreateIndex` for its key in the same frame), so recovery is
//! all-or-nothing per statement: either the whole frame checks out and is
//! replayed, or replay stops at the frame boundary.
//!
//! The generation ties a frame to the snapshot that was current when it
//! was written. Recovery replays only frames whose generation matches the
//! snapshot it loaded; a mismatched generation means the process died
//! between publishing a new snapshot and truncating the log, and replaying
//! those frames would double-apply their effects.

use crate::codec::{
    crc32, len_u32, put_row, put_schema, put_str, put_u32, put_u64, put_u8, Reader,
};
use crate::error::{DbError, Result};
use crate::schema::Schema;
use crate::value::Row;

/// Name of the write-ahead log file inside a database directory.
pub const WAL_FILE: &str = "wal";

/// One logical change recorded in the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table was created.
    CreateTable {
        /// Table name (lowercase).
        name: String,
        /// Its schema.
        schema: Schema,
    },
    /// An index was created (including the implicit primary-key index).
    CreateIndex {
        /// Owning table.
        table: String,
        /// Index name.
        name: String,
        /// Indexed column offsets.
        columns: Vec<usize>,
        /// Whether duplicates are rejected.
        unique: bool,
    },
    /// Rows were inserted (in order; row ids are assigned deterministically
    /// on replay because failed statements never consume heap slots).
    Insert {
        /// Target table.
        table: String,
        /// The rows, pre-coercion; replay re-validates through the schema.
        rows: Vec<Row>,
    },
    /// Rows were deleted by id.
    Delete {
        /// Target table.
        table: String,
        /// Victim row ids.
        rids: Vec<usize>,
    },
    /// A row was replaced in place.
    Update {
        /// Target table.
        table: String,
        /// Row id.
        rid: usize,
        /// The full new row.
        row: Row,
    },
}

fn put_record(out: &mut Vec<u8>, rec: &WalRecord) -> Result<()> {
    match rec {
        WalRecord::CreateTable { name, schema } => {
            put_u8(out, 1);
            put_str(out, name)?;
            put_schema(out, schema)?;
        }
        WalRecord::CreateIndex {
            table,
            name,
            columns,
            unique,
        } => {
            put_u8(out, 2);
            put_str(out, table)?;
            put_str(out, name)?;
            put_u32(out, len_u32(columns.len(), "index columns")?);
            for &c in columns {
                put_u32(out, len_u32(c, "index column offset")?);
            }
            put_u8(out, *unique as u8);
        }
        WalRecord::Insert { table, rows } => {
            put_u8(out, 4);
            put_str(out, table)?;
            put_u32(out, len_u32(rows.len(), "insert rows")?);
            for r in rows {
                put_row(out, r)?;
            }
        }
        WalRecord::Delete { table, rids } => {
            put_u8(out, 5);
            put_str(out, table)?;
            put_u32(out, len_u32(rids.len(), "delete rids")?);
            for &rid in rids {
                put_u64(out, rid as u64);
            }
        }
        WalRecord::Update { table, rid, row } => {
            put_u8(out, 6);
            put_str(out, table)?;
            put_u64(out, *rid as u64);
            put_row(out, row)?;
        }
    }
    Ok(())
}

fn read_record(r: &mut Reader<'_>) -> Result<WalRecord> {
    Ok(match r.u8()? {
        1 => WalRecord::CreateTable {
            name: r.str()?,
            schema: r.schema()?,
        },
        2 => {
            let table = r.str()?;
            let name = r.str()?;
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return Err(DbError::Corrupt("absurd index column count".into()));
            }
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                columns.push(r.u32()? as usize);
            }
            let unique = r.u8()? != 0;
            WalRecord::CreateIndex {
                table,
                name,
                columns,
                unique,
            }
        }
        // Tag 3 was DROP TABLE, which left the SQL subset. It is never
        // reused, so a log that carries it is not one this engine wrote.
        3 => {
            return Err(DbError::Corrupt(
                "retired WAL record tag 3 (DROP TABLE)".into(),
            ))
        }
        4 => {
            let table = r.str()?;
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return Err(DbError::Corrupt("absurd row count".into()));
            }
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(r.row()?);
            }
            WalRecord::Insert { table, rows }
        }
        5 => {
            let table = r.str()?;
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return Err(DbError::Corrupt("absurd rid count".into()));
            }
            let mut rids = Vec::with_capacity(n);
            for _ in 0..n {
                rids.push(r.u64()? as usize);
            }
            WalRecord::Delete { table, rids }
        }
        6 => WalRecord::Update {
            table: r.str()?,
            rid: r.u64()? as usize,
            row: r.row()?,
        },
        t => return Err(DbError::Corrupt(format!("unknown WAL record tag {t}"))),
    })
}

/// Encode one commit (all records of one statement) as a WAL frame.
///
/// Fails with [`DbError::ResourceExhausted`] when any length in the frame
/// exceeds the u32 wire format instead of silently truncating it.
pub fn encode_frame(gen: u64, records: &[WalRecord]) -> Result<Vec<u8>> {
    let mut payload = Vec::new();
    put_u64(&mut payload, gen);
    put_u32(&mut payload, len_u32(records.len(), "frame records")?);
    for rec in records {
        put_record(&mut payload, rec)?;
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    put_u32(&mut frame, len_u32(payload.len(), "frame payload")?);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// One decoded commit.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Snapshot generation the frame belongs to.
    pub gen: u64,
    /// The statement's records.
    pub records: Vec<WalRecord>,
    /// Byte offset just past this frame in the log (recovery truncates
    /// here when a later frame must be discarded).
    pub end: usize,
}

/// Parse the longest valid prefix of a WAL buffer.
///
/// Returns the decoded frames and the byte length of the valid prefix.
/// Parsing stops — without error — at the first incomplete, torn, or
/// checksum-failing frame; recovery truncates the log there.
pub fn read_frames(buf: &[u8]) -> (Vec<Frame>, usize) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= 8 {
        let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
        let start = pos + 8;
        if len > buf.len() - start {
            break; // torn tail
        }
        let payload = &buf[start..start + len];
        if crc32(payload) != crc {
            break; // bit rot or torn rewrite
        }
        let mut r = Reader::new(payload);
        let frame = (|| -> Result<Frame> {
            let gen = r.u64()?;
            let count = r.u32()? as usize;
            if count > r.remaining() {
                return Err(DbError::Corrupt("absurd record count".into()));
            }
            let mut records = Vec::with_capacity(count);
            for _ in 0..count {
                records.push(read_record(&mut r)?);
            }
            Ok(Frame {
                gen,
                records,
                end: start + len,
            })
        })();
        match frame {
            Ok(f) if r.is_empty() => frames.push(f),
            // A CRC-valid frame that still fails to decode (or has slack
            // bytes) means a format bug or deliberate tamper; stop here too.
            _ => break,
        }
        pos = start + len;
    }
    (frames, pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn sample_records() -> Vec<WalRecord> {
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Text),
        ])
        .unwrap();
        vec![
            WalRecord::CreateTable {
                name: "t".into(),
                schema,
            },
            WalRecord::CreateIndex {
                table: "t".into(),
                name: "t_pk".into(),
                columns: vec![0],
                unique: true,
            },
            WalRecord::Insert {
                table: "t".into(),
                rows: vec![
                    vec![Value::Int(1), Value::text("a")],
                    vec![Value::Int(2), Value::Null],
                ],
            },
            WalRecord::Delete {
                table: "t".into(),
                rids: vec![0, 1],
            },
            WalRecord::Update {
                table: "t".into(),
                rid: 1,
                row: vec![Value::Int(2), Value::text("b")],
            },
        ]
    }

    #[test]
    fn frame_round_trip() {
        let records = sample_records();
        let mut buf = encode_frame(7, &records[..3]).unwrap();
        buf.extend_from_slice(&encode_frame(7, &records[3..]).unwrap());
        let (frames, consumed) = read_frames(&buf);
        assert_eq!(consumed, buf.len());
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].gen, 7);
        assert_eq!(frames[0].records, records[..3].to_vec());
        assert_eq!(frames[1].records, records[3..].to_vec());
    }

    #[test]
    fn torn_tail_truncates_to_frame_boundary() {
        let records = sample_records();
        let f1 = encode_frame(1, &records[..2]).unwrap();
        let f2 = encode_frame(1, &records[2..]).unwrap();
        let mut buf = f1.clone();
        buf.extend_from_slice(&f2);
        for cut in f1.len()..buf.len() {
            let (frames, consumed) = read_frames(&buf[..cut]);
            if cut < f1.len() + f2.len() {
                assert_eq!(frames.len(), 1, "cut at {cut}");
                assert_eq!(consumed, f1.len(), "cut at {cut}");
            }
        }
        // Every cut inside the first frame yields nothing.
        for cut in 0..f1.len() {
            let (frames, consumed) = read_frames(&buf[..cut]);
            assert!(frames.is_empty(), "cut at {cut}");
            assert_eq!(consumed, 0);
        }
    }

    #[test]
    fn crc_flip_stops_replay_at_bad_frame() {
        let records = sample_records();
        let f1 = encode_frame(1, &records[..2]).unwrap();
        let f2 = encode_frame(1, &records[2..4]).unwrap();
        let f3 = encode_frame(1, &records[4..]).unwrap();
        let mut buf = [f1.clone(), f2.clone(), f3].concat();
        // Flip one payload bit in the middle frame.
        buf[f1.len() + 8] ^= 0x01;
        let (frames, consumed) = read_frames(&buf);
        assert_eq!(frames.len(), 1);
        assert_eq!(consumed, f1.len());
    }

    #[test]
    fn retired_drop_table_tag_is_corrupt() {
        let mut rec = vec![3u8];
        put_str(&mut rec, "t").unwrap();
        assert!(matches!(
            read_record(&mut Reader::new(&rec)),
            Err(DbError::Corrupt(m)) if m.contains("tag 3")
        ));
        // A checksum-valid frame carrying the tag ends replay before it.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u32(&mut payload, 1);
        payload.extend_from_slice(&rec);
        let good = encode_frame(1, &sample_records()[..1]).unwrap();
        let mut buf = good.clone();
        put_u32(&mut buf, payload.len() as u32);
        put_u32(&mut buf, crc32(&payload));
        buf.extend_from_slice(&payload);
        let (frames, consumed) = read_frames(&buf);
        assert_eq!(frames.len(), 1);
        assert_eq!(consumed, good.len());
    }

    #[test]
    fn empty_and_garbage_logs() {
        assert_eq!(read_frames(&[]).1, 0);
        let (frames, consumed) = read_frames(&[0xFF; 7]);
        assert!(frames.is_empty());
        assert_eq!(consumed, 0);
        // Absurd length prefix.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        put_u32(&mut buf, 0);
        let (frames, consumed) = read_frames(&buf);
        assert!(frames.is_empty());
        assert_eq!(consumed, 0);
    }
}
