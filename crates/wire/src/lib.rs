//! Binary wire format for the verified-analytics protocol.
//!
//! In the paper's system model three messages cross the network:
//!
//! 1. the **query** `q` from the data user to the server,
//! 2. the **query result** `R(q)` (a list of records) from the server back
//!    to the user, and
//! 3. the **verification object** `VO(q)` accompanying the result.
//!
//! Fig. 8 of the paper studies the size of (3); this crate pins those sizes
//! down exactly by giving every message a deterministic, versioned binary
//! encoding. It also lets the examples and the CLI demo write responses to
//! disk and verify them in a separate process, the way a real deployment
//! would.
//!
//! The format is deliberately simple: little-endian fixed-width integers,
//! IEEE-754 doubles, length-prefixed byte strings, and a one-byte tag per
//! enum variant, all wrapped in a frame that starts with a 4-byte magic and
//! a format version. There is no external schema language and no reflection
//! — every type implements [`WireEncode`] / [`WireDecode`] by hand, which
//! keeps the dependency set empty and makes the byte layout auditable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authquery_impls;
pub mod crypto_impls;
pub mod envelope;
pub mod epoch;
pub mod error;
pub mod funcdb_impls;
pub mod io;
pub mod sigmesh_impls;

pub use envelope::{
    ErrorCode, ErrorCount, ErrorReply, KindLatency, KindStages, LatencyHistogram, ReactorStats,
    Request, Response, ShardEntry, ShardInfo, ShardMap, SignedShardMap, StageLatency, StageMicros,
    StatsDeep, StatsSnapshot, LATENCY_BUCKET_BOUNDS_MICROS,
};
pub use error::WireError;
pub use io::{Reader, Writer};

/// Magic bytes at the start of every framed message.
pub const MAGIC: [u8; 4] = *b"VAQ1";
/// Current format version.
pub const VERSION: u16 = 1;
/// Length of the frame header: 4-byte magic, 2-byte version, 4-byte
/// payload length.
pub const FRAME_HEADER_LEN: usize = 10;

/// Builds one `VAQ1` frame in a single growing buffer: the header goes in
/// with a payload-length placeholder, `encode_payload` writes the payload
/// straight behind it, and the length is patched in place.
pub(crate) fn frame_with(encode_payload: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_raw(&MAGIC);
    w.put_u16(VERSION);
    w.put_u32(0);
    encode_payload(&mut w);
    let payload_len = w.len() - FRAME_HEADER_LEN;
    w.patch_u32(MAGIC.len() + 2, payload_len as u32);
    w.into_bytes()
}

/// Types that can serialize themselves into the wire format.
pub trait WireEncode {
    /// Appends this value's encoding to the writer.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes into a fresh byte vector (unframed).
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Encodes with the `VAQ1` frame header (magic + version + payload
    /// length), suitable for writing to disk or a socket.
    fn to_framed_bytes(&self) -> Vec<u8> {
        frame_with(|w| self.encode(w))
    }
}

/// Types that can deserialize themselves from the wire format.
pub trait WireDecode: Sized {
    /// Reads one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Convenience: decodes from an unframed byte slice, requiring that all
    /// bytes are consumed.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(value)
    }

    /// Decodes a `VAQ1`-framed message.
    fn from_framed_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
        let payload = bytes.get(FRAME_HEADER_LEN..).ok_or(WireError::Truncated)?;
        if payload.len() != len {
            return Err(WireError::LengthMismatch {
                declared: len,
                actual: payload.len(),
            });
        }
        Self::from_wire_bytes(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pair(u32, f64);

    impl WireEncode for Pair {
        fn encode(&self, w: &mut Writer) {
            w.put_u32(self.0);
            w.put_f64(self.1);
        }
    }
    impl WireDecode for Pair {
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Pair(r.get_u32()?, r.get_f64()?))
        }
    }

    #[test]
    fn framed_roundtrip() {
        let p = Pair(7, 2.5);
        let bytes = p.to_framed_bytes();
        assert_eq!(&bytes[..4], b"VAQ1");
        assert_eq!(Pair::from_framed_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn frame_header_carries_the_patched_payload_length() {
        let p = Pair(7, 2.5);
        let frame = p.to_framed_bytes();
        let payload = p.to_wire_bytes();
        assert_eq!(frame.len(), FRAME_HEADER_LEN + payload.len());
        assert_eq!(&frame[..4], &MAGIC);
        assert_eq!(frame[4..6], VERSION.to_le_bytes());
        assert_eq!(frame[6..10], (payload.len() as u32).to_le_bytes());
        assert_eq!(&frame[FRAME_HEADER_LEN..], payload.as_slice());
    }

    #[test]
    fn frame_rejects_bad_magic_and_version() {
        let p = Pair(7, 2.5);
        let mut bytes = p.to_framed_bytes();
        bytes[0] = b'X';
        assert_eq!(Pair::from_framed_bytes(&bytes), Err(WireError::BadMagic));

        let mut bytes = p.to_framed_bytes();
        bytes[4] = 9;
        assert!(matches!(
            Pair::from_framed_bytes(&bytes),
            Err(WireError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn frame_rejects_length_mismatch_and_truncation() {
        let p = Pair(7, 2.5);
        let mut bytes = p.to_framed_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            Pair::from_framed_bytes(&bytes),
            Err(WireError::LengthMismatch { .. })
        ));
        assert_eq!(
            Pair::from_framed_bytes(&bytes[..5]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn unframed_requires_full_consumption() {
        let p = Pair(1, 1.0);
        let mut bytes = p.to_wire_bytes();
        bytes.push(0xAA);
        assert!(matches!(
            Pair::from_wire_bytes(&bytes),
            Err(WireError::TrailingBytes(_))
        ));
    }
}
