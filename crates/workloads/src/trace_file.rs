//! Trace record / replay.
//!
//! A compact binary format for memory-access traces, so experiments can be
//! captured once and replayed bit-exactly (or traces produced by external
//! tools can be fed into the simulator).
//!
//! ## Format
//!
//! ```text
//! magic "AMNTTRC1" (8 bytes)
//! event count (u64 LE)
//! events: tag u8
//!   0x01 Access: vaddr u64 LE | think u32 LE | flags u8 (bit0 = write)
//!   0x02 Unmap:  vpn u64 LE
//! ```

use crate::gen::{Event, TraceOp};
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"AMNTTRC1";
const TAG_ACCESS: u8 = 0x01;
const TAG_UNMAP: u8 = 0x02;

/// Errors reading a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// The stream does not start with the trace magic.
    BadMagic,
    /// An event record carried an unknown tag byte.
    BadTag(u8),
    /// The stream ended before the declared event count.
    Truncated,
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::BadMagic => write!(f, "not an AMNT trace (bad magic)"),
            TraceFileError::BadTag(t) => write!(f, "unknown event tag {t:#x}"),
            TraceFileError::Truncated => write!(f, "trace ends before its declared length"),
            TraceFileError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// Writes `events` as a trace to `w`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_trace<W: Write>(mut w: W, events: &[Event]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(events.len() as u64).to_le_bytes())?;
    for ev in events {
        match ev {
            Event::Access(op) => {
                w.write_all(&[TAG_ACCESS])?;
                w.write_all(&op.vaddr.to_le_bytes())?;
                w.write_all(&op.think_cycles.to_le_bytes())?;
                w.write_all(&[op.is_write as u8])?;
            }
            Event::Unmap { vpn } => {
                w.write_all(&[TAG_UNMAP])?;
                w.write_all(&vpn.to_le_bytes())?;
            }
        }
    }
    Ok(())
}

/// Fills `buf` from `r`. A stream that ends first is the format error
/// `short`; any other read failure is [`TraceFileError::Io`].
fn fill<R: Read>(r: &mut R, buf: &mut [u8], short: TraceFileError) -> Result<(), TraceFileError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => short,
        _ => TraceFileError::Io(e),
    })
}

/// Reads a trace previously written by [`write_trace`].
///
/// # Errors
///
/// [`TraceFileError`] on malformed input or I/O failure.
pub fn read_trace<R: Read>(mut r: R) -> Result<Vec<Event>, TraceFileError> {
    let mut magic = [0u8; 8];
    fill(&mut r, &mut magic, TraceFileError::BadMagic)?;
    if &magic != MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    let mut count = [0u8; 8];
    fill(&mut r, &mut count, TraceFileError::Truncated)?;
    let count = u64::from_le_bytes(count);
    let mut events = Vec::with_capacity(count.min(1 << 24) as usize);
    for _ in 0..count {
        let mut tag = [0u8];
        fill(&mut r, &mut tag, TraceFileError::Truncated)?;
        match tag[0] {
            TAG_ACCESS => {
                let mut buf = [0u8; 13];
                fill(&mut r, &mut buf, TraceFileError::Truncated)?;
                events.push(Event::Access(TraceOp {
                    vaddr: u64::from_le_bytes(buf[..8].try_into().expect("8 bytes")),
                    think_cycles: u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")),
                    is_write: buf[12] & 1 != 0,
                }));
            }
            TAG_UNMAP => {
                let mut buf = [0u8; 8];
                fill(&mut r, &mut buf, TraceFileError::Truncated)?;
                events.push(Event::Unmap {
                    vpn: u64::from_le_bytes(buf),
                });
            }
            t => return Err(TraceFileError::BadTag(t)),
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGen;
    use crate::model::WorkloadModel;

    #[test]
    fn roundtrip_synthetic_trace() {
        let model = WorkloadModel::by_name("dedup").unwrap();
        let events: Vec<Event> = TraceGen::new(&model, 9, 3000).collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn roundtrip_preserves_unmaps() {
        let mut model = WorkloadModel::by_name("gcc").unwrap();
        model.drift_pages_per_10k = 200;
        let events: Vec<Event> = TraceGen::new(&model, 2, 2000).collect();
        assert!(events.iter().any(|e| matches!(e, Event::Unmap { .. })));
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).unwrap();
        assert_eq!(read_trace(buf.as_slice()).unwrap(), events);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_trace(&b"NOTATRACE"[..]),
            Err(TraceFileError::BadMagic)
        ));
        let mut buf = Vec::new();
        write_trace(&mut buf, &[Event::Unmap { vpn: 3 }]).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(TraceFileError::Truncated)
        ));
        // Corrupt the tag.
        let mut buf2 = Vec::new();
        write_trace(&mut buf2, &[Event::Unmap { vpn: 3 }]).unwrap();
        buf2[16] = 0x7F;
        assert!(matches!(
            read_trace(buf2.as_slice()),
            Err(TraceFileError::BadTag(0x7F))
        ));
    }

    /// Serves its bytes, then fails every read with `ErrorKind::Other`.
    struct FailsAfter<'a>(&'a [u8]);

    impl Read for FailsAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(io::Error::other("device gone"));
            }
            self.0.read(buf)
        }
    }

    #[test]
    fn read_failures_that_are_not_a_short_stream_are_io_errors() {
        let err = read_trace(FailsAfter(MAGIC)).expect_err("failing reader");
        assert!(
            matches!(err, TraceFileError::Io(ref e) if e.kind() == io::ErrorKind::Other),
            "{err:?}"
        );
        assert!(matches!(
            read_trace(FailsAfter(&[])),
            Err(TraceFileError::Io(_))
        ));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert!(read_trace(buf.as_slice()).unwrap().is_empty());
    }
}
