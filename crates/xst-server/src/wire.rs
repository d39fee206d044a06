//! Frame layer: length-prefixed, CRC-guarded byte frames over any
//! `Read`/`Write` pair.
//!
//! A frame is the unit the TCP stream is cut into before any message
//! decoding happens:
//!
//! ```text
//! ┌──────────┬──────────┬──────────┬─────────────┐
//! │ "XSTP"   │ len: u32 │ crc: u32 │ payload     │
//! │ 4 bytes  │ LE       │ LE       │ len bytes   │
//! └──────────┴──────────┴──────────┴─────────────┘
//! ```
//!
//! The CRC ([`xst_core::crc`], the one the WAL and snapshot images use)
//! covers the payload only, so header corruption and payload corruption are
//! distinguishable. Every way a frame can be malformed — wrong magic,
//! oversize length, truncation mid-header or mid-payload, checksum
//! mismatch — maps to a distinct [`FrameError`] variant; nothing in this
//! module panics and the oversize check runs *before* any allocation, so
//! a hostile length header cannot balloon memory.

use std::fmt;
use std::io::{Read, Write};
use xst_core::crc::crc32;

/// Leading magic of every frame.
pub const MAGIC: [u8; 4] = *b"XSTP";

/// Hard cap on payload length (16 MiB). A header claiming more is
/// rejected as [`FrameError::Oversize`] without allocating.
pub const MAX_FRAME: u32 = 1 << 24;

/// Bytes of header before the payload: magic + len + crc.
pub const HEADER_LEN: usize = 12;

/// Everything that can go wrong reading or writing one frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The stream ended mid-header or mid-payload.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The length header exceeded [`MAX_FRAME`].
    Oversize(u32),
    /// The payload did not match its checksum.
    BadCrc {
        /// CRC claimed by the header.
        claimed: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// An underlying I/O error.
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::Oversize(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::BadCrc { claimed, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: header {claimed:#010x}, payload {actual:#010x}"
                )
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Fill `buf` from `r`. `Ok(false)` means the stream ended before the
/// first byte (a clean close if nothing was expected); ending after at
/// least one byte is [`FrameError::Truncated`].
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one frame, returning its payload.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header)? {
        return Err(FrameError::Closed);
    }
    let magic: [u8; 4] = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let claimed = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_FRAME {
        return Err(FrameError::Oversize(len));
    }
    let mut payload = vec![0u8; len as usize];
    if !read_full(r, &mut payload)? && len > 0 {
        return Err(FrameError::Truncated);
    }
    let actual = crc32(&payload);
    if actual != claimed {
        return Err(FrameError::BadCrc { claimed, actual });
    }
    Ok(payload)
}

/// Encode one frame into a fresh buffer (header + payload).
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    if payload.len() > MAX_FRAME as usize {
        return Err(FrameError::Oversize(payload.len() as u32));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Write one frame. A single `write_all` per frame keeps header and
/// payload in one TCP push.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    let frame = encode_frame(payload)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_payloads() {
        for payload in [&b""[..], b"x", b"hello frames", &[0u8; 4096]] {
            let frame = encode_frame(payload).ok().unwrap_or_default();
            let got = read_frame(&mut Cursor::new(frame)).ok().unwrap_or_default();
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn clean_eof_is_closed_and_partial_is_truncated() {
        assert!(matches!(
            read_frame(&mut Cursor::new(Vec::new())),
            Err(FrameError::Closed)
        ));
        let frame = encode_frame(b"abcdef").ok().unwrap_or_default();
        for cut in 1..frame.len() {
            assert!(
                matches!(
                    read_frame(&mut Cursor::new(frame[..cut].to_vec())),
                    Err(FrameError::Truncated)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_oversize_and_crc_are_distinct() {
        let mut frame = encode_frame(b"payload").ok().unwrap_or_default();
        frame[0] ^= 0xff;
        assert!(matches!(
            read_frame(&mut Cursor::new(frame)),
            Err(FrameError::BadMagic(_))
        ));

        let mut frame = encode_frame(b"payload").ok().unwrap_or_default();
        frame[4..8].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(frame)),
            Err(FrameError::Oversize(_))
        ));

        let mut frame = encode_frame(b"payload").ok().unwrap_or_default();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut Cursor::new(frame)),
            Err(FrameError::BadCrc { .. })
        ));
    }
}
