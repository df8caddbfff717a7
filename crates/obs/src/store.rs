//! Binary trace files.
//!
//! A recorded [`TraceLog`] can be written to disk and read back by the
//! `marp-trace` CLI. The format is the workspace wire encoding: a magic
//! header, then the records as a `Vec<TraceRecord>` — a record count,
//! then each record as `(at, node, event)` with a one-byte event tag.
//! The codecs are declared beside [`TraceEvent`] in `marp-sim`.

use bytes::{Buf, Bytes, BytesMut};
use marp_sim::{TraceLevel, TraceLog, TraceRecord};
use marp_wire::{Wire, WireError};

/// File magic: "MARPTRC" + format version.
pub const MAGIC: &[u8; 8] = b"MARPTRC1";

/// Encode a full trace into the binary file format.
pub fn encode_trace(trace: &TraceLog) -> Vec<u8> {
    let records = trace.records();
    let mut buf = BytesMut::new();
    buf.extend_from_slice(MAGIC);
    records.len().encode(&mut buf);
    for rec in records {
        rec.encode(&mut buf);
    }
    buf.to_vec()
}

/// Decode a binary trace file back into a [`TraceLog`] (at
/// [`TraceLevel::Full`], so every stored record is retained).
pub fn decode_trace(data: &[u8]) -> Result<TraceLog, WireError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return Err(WireError::InvalidTag {
            type_name: "TraceFileMagic",
            tag: 0,
        });
    }
    buf.advance(MAGIC.len());
    let mut log = TraceLog::new(TraceLevel::Full);
    for rec in Vec::<TraceRecord>::decode(&mut buf)? {
        log.push(rec.at, rec.node, rec.event);
    }
    Ok(log)
}

/// Write a trace to `path` in the binary format.
pub fn save_trace(path: &std::path::Path, trace: &TraceLog) -> std::io::Result<()> {
    std::fs::write(path, encode_trace(trace))
}

/// Read a binary trace file from `path`.
pub fn load_trace(path: &std::path::Path) -> std::io::Result<TraceLog> {
    let data = std::fs::read(path)?;
    decode_trace(&data).map_err(|err| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: not a marp trace file ({err:?})", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{agent_key, span_id, SimTime, SpanKind, TraceEvent};

    /// One record of every [`TraceEvent`] variant, in tag order.
    fn every_variant_trace() -> TraceLog {
        let t = SimTime::from_micros;
        let events = [
            TraceEvent::MsgSent {
                from: 0,
                to: 1,
                bytes: 33,
            },
            TraceEvent::MsgDelivered {
                from: 0,
                to: 1,
                bytes: 300,
            },
            TraceEvent::MsgDropped {
                from: 1,
                to: 0,
                reason: "partition",
            },
            TraceEvent::NodeDown(2),
            TraceEvent::NodeUp(2),
            TraceEvent::RequestArrived {
                node: 3,
                request: 7,
                write: true,
            },
            TraceEvent::ReadServed {
                node: 3,
                request: 8,
                version: 129,
            },
            TraceEvent::AgentDispatched {
                agent: agent_key(3, 1),
                home: 3,
                batch: 2,
            },
            TraceEvent::AgentMigrated {
                agent: agent_key(3, 1),
                from: 3,
                to: 4,
                hops: 1,
            },
            TraceEvent::AgentMigrateFailed {
                agent: agent_key(3, 1),
                from: 4,
                to: 0,
            },
            TraceEvent::ReplicaDeclaredUnavailable {
                agent: agent_key(3, 1),
                node: 0,
            },
            TraceEvent::LockRequested {
                agent: agent_key(3, 1),
                node: 4,
            },
            TraceEvent::LockGranted {
                agent: agent_key(3, 1),
                node: 4,
                visits: 3,
                via_tie: false,
            },
            TraceEvent::UpdateSent {
                agent: agent_key(3, 1),
                version: 5,
            },
            TraceEvent::UpdateAcked {
                agent: agent_key(3, 1),
                node: 1,
                positive: true,
            },
            TraceEvent::WinAborted {
                agent: agent_key(3, 2),
            },
            TraceEvent::CommitApplied {
                node: 1,
                version: 5,
                agent: agent_key(3, 1),
                key: 9,
                request: 7,
            },
            TraceEvent::AgentDisposed {
                agent: agent_key(3, 1),
                born: t(10),
            },
            TraceEvent::UpdateCompleted {
                request: 7,
                home: 3,
                arrived: t(1),
                dispatched: t(2),
                locked: t(4),
                visits: 3,
            },
            TraceEvent::SpanStart {
                id: span_id(SpanKind::Dispatch, 9, 0),
                parent: 0,
                kind: SpanKind::Dispatch,
                a: 9,
                b: 0,
            },
            TraceEvent::SpanEnd {
                id: span_id(SpanKind::Dispatch, 9, 0),
                kind: SpanKind::Dispatch,
            },
            TraceEvent::SpanLink { from: 1, to: 2 },
            TraceEvent::Custom {
                kind: "adaptive-batch-size",
                a: 4,
                b: 2,
            },
            TraceEvent::AgentStateShipped {
                agent: agent_key(3, 1),
                bytes: 1000,
            },
        ];
        let mut log = TraceLog::new(TraceLevel::Full);
        for (i, event) in events.into_iter().enumerate() {
            log.push(t(100 * i as u64), i as u16 % 5, event);
        }
        log
    }

    /// `every_variant_trace` as written by the hand-written per-variant
    /// codec this file used to carry. The declared codecs must keep the
    /// `MARPTRC1` format byte for byte.
    const PINNED_HEX: &str = concat!(
        "4d4152505452433118000000000121a08d0601010001ac02c09a0c0202010009",
        "706172746974696f6ee0a71203030280b518040402a0c21e0005030701c0cf24",
        "010603088101e0dc2a02078180808030030280ea3003088180808030030401a0",
        "f736040981808080300400c0843d000a818080803000e09143010b8180808030",
        "04809f49020c8180808030040300a0ac4f030d818080803005c0b955040e8180",
        "8080300101e0c65b000f828080803080d4610110010581808080300907a0e167",
        "02118180808030904ec0ee6d03120703e807d00fa01f03e0fb730413e3aaa8ef",
        "e9d2fee3120001090080897a0014e3aaa8efe9d2fee31201a096800101150102",
        "c0a3860102161361646170746976652d62617463682d73697a650402e0b08c01",
        "03178180808030e807",
    );

    #[test]
    fn trace_file_format_is_pinned() {
        let log = every_variant_trace();
        let pinned: Vec<u8> = (0..PINNED_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PINNED_HEX[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(encode_trace(&log), pinned);
        assert_eq!(decode_trace(&pinned).unwrap().records(), log.records());
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(decode_trace(b"NOTATRACE").is_err());
        assert!(decode_trace(b"").is_err());
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = encode_trace(&every_variant_trace());
        assert!(decode_trace(&bytes[..bytes.len() - 3]).is_err());
    }
}
