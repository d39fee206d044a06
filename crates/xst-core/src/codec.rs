//! The one binary codec for [`Value`]s: the bytes a page slot, a WAL
//! frame, the shard-routing hash and a wire message all hold.
//!
//! The central claim of the VLDB-1977 program is that *stored* data has a
//! mathematical identity. This codec is the bridge: any [`Value`] (atom or
//! arbitrarily nested extended set) serializes to a compact tagged byte
//! string and back, bit-exactly, so a page of bytes — or a frame on a
//! socket — *is* a set of values. Canonical member order makes the
//! encoding canonical too: equal sets encode to equal bytes.
//!
//! # Layout (little-endian)
//!
//! ```text
//! value  := tag:u8 payload
//! tag 0  bool      payload = u8 (0/1)
//! tag 1  int       payload = i64
//! tag 2  float     payload = f64 bits
//! tag 3  sym       payload = len:u32, utf-8 bytes
//! tag 4  str       payload = len:u32, utf-8 bytes
//! tag 5  bytes     payload = len:u32, raw bytes
//! tag 6  set       payload = count:u32, count × (value value)   -- (elem, scope)
//! ```
//!
//! # Hostile input
//!
//! The decoder reads bytes from disk and from the network, so every
//! failure is a [`CodecError`], never a panic, and nothing is allocated
//! on a length the input merely claims:
//!
//! * every read is bounds-checked ([`CodecError::Truncated`]);
//! * sets nest at most [`MAX_DEPTH`] deep ([`CodecError::TooDeep`]), so
//!   recursion depth is fixed no matter what arrives;
//! * a member is at least four bytes, so a set's `count` must be at most
//!   a quarter of the bytes that remain
//!   ([`CodecError::CountExceedsInput`]) *before* its vector is reserved;
//! * symbols and strings are validated as UTF-8 ([`CodecError::BadUtf8`]);
//! * members must arrive strictly ascending
//!   ([`CodecError::NotCanonical`]) — the encoder writes canonical order,
//!   so the decoder checks it in one pass and builds with
//!   [`ExtendedSet::from_sorted_unique`] instead of re-sorting; swapped or
//!   duplicated members are corruption, not input to repair.
//!
//! [`Reader`] is also the bounds-checked cursor the message layer
//! (`xst-server`'s `proto`) reads its own integers and strings through.

use crate::set::{ExtendedSet, Member};
use crate::value::Value;
use std::fmt;

/// Deepest set nesting the decoder follows (and the text parser, which
/// shares the cap). A value nested deeper is not representable in bytes.
pub const MAX_DEPTH: usize = 64;

const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_SYM: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_SET: u8 = 6;

/// Smallest encoding of one member: two one-byte-payload atoms.
const MIN_MEMBER_BYTES: usize = 4;

/// Everything that can be wrong with bytes offered as an encoded value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a field was complete.
    Truncated,
    /// A tag byte outside the layout table.
    BadTag(u8),
    /// A symbol or string payload was not valid UTF-8.
    BadUtf8,
    /// Sets nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// A set claimed more members than the remaining bytes could hold.
    CountExceedsInput,
    /// A set's members were not in strictly ascending canonical order.
    NotCanonical,
    /// Bytes remained after the value was fully decoded.
    Trailing(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels"),
            CodecError::CountExceedsInput => {
                write!(f, "set count exceeds what the remaining bytes can hold")
            }
            CodecError::NotCanonical => {
                write!(f, "set members are not in strictly ascending order")
            }
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `b` behind its `u32` length.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append the encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Bool(b) => out.extend_from_slice(&[TAG_BOOL, u8::from(*b)]),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            put_u64(out, f.0.to_bits());
        }
        Value::Sym(s) => {
            out.push(TAG_SYM);
            put_bytes(out, s.as_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_bytes(out, s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            put_bytes(out, b);
        }
        Value::Set(s) => encode_set(s, out),
    }
}

/// Append the encoding of `Value::Set(s)` to `out` without wrapping `s`.
pub fn encode_set(s: &ExtendedSet, out: &mut Vec<u8>) {
    out.push(TAG_SET);
    put_u32(out, s.card() as u32);
    for m in s.members() {
        encode_value(&m.element, out);
        encode_value(&m.scope, out);
    }
}

/// Encode a value into a fresh buffer.
pub fn encode_to_vec(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(v, &mut out);
    out
}

/// Decode a value that must consume the whole buffer.
pub fn decode_exact(buf: &[u8]) -> Result<Value, CodecError> {
    let mut rd = Reader::new(buf);
    let v = rd.value()?;
    rd.finish()?;
    Ok(v)
}

/// A bounds-checked cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    /// One encoded value.
    pub fn value(&mut self) -> Result<Value, CodecError> {
        self.value_at(0)
    }

    /// One encoded value that must be a set.
    pub fn set(&mut self) -> Result<ExtendedSet, CodecError> {
        match self.u8()? {
            TAG_SET => self.members(0),
            other => Err(CodecError::BadTag(other)),
        }
    }

    /// Fail if any input is left.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, CodecError> {
        Ok(match self.u8()? {
            TAG_BOOL => Value::Bool(self.u8()? != 0),
            TAG_INT => Value::Int(self.u64()? as i64),
            TAG_FLOAT => Value::float(f64::from_bits(self.u64()?)),
            TAG_SYM => Value::sym(self.str()?),
            TAG_STR => Value::str(self.str()?),
            TAG_BYTES => Value::bytes(self.bytes()?),
            TAG_SET => Value::Set(self.members(depth)?),
            other => return Err(CodecError::BadTag(other)),
        })
    }

    /// The body of a set (after its tag) sitting `depth` sets deep.
    fn members(&mut self, depth: usize) -> Result<ExtendedSet, CodecError> {
        if depth >= MAX_DEPTH {
            return Err(CodecError::TooDeep);
        }
        let count = self.u32()? as usize;
        if count > self.remaining() / MIN_MEMBER_BYTES {
            return Err(CodecError::CountExceedsInput);
        }
        let mut members: Vec<Member> = Vec::with_capacity(count);
        for _ in 0..count {
            let element = self.value_at(depth + 1)?;
            let scope = self.value_at(depth + 1)?;
            let m = Member { element, scope };
            if members.last().is_some_and(|prev| *prev >= m) {
                return Err(CodecError::NotCanonical);
            }
            members.push(m);
        }
        Ok(ExtendedSet::from_sorted_unique(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{xset, xtuple};

    fn roundtrip(v: &Value) {
        let bytes = encode_to_vec(v);
        let back = decode_exact(&bytes).unwrap();
        assert_eq!(&back, v, "roundtrip of {v}");
    }

    fn nested() -> Value {
        xset![
            xtuple!["a", "x"].into_value() => xtuple!["A", "Z"].into_value(),
            xset![xset!["deep" => 9].into_value()].into_value()
        ]
        .into_value()
    }

    #[test]
    fn atoms_roundtrip() {
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::Int(0));
        roundtrip(&Value::Int(i64::MIN));
        roundtrip(&Value::Int(i64::MAX));
        roundtrip(&Value::float(2.5));
        roundtrip(&Value::float(-0.0));
        roundtrip(&Value::sym("hello"));
        roundtrip(&Value::str("data ✓ unicode"));
        roundtrip(&Value::bytes([0u8, 255, 7]));
    }

    #[test]
    fn nan_roundtrips_bit_exactly() {
        let v = Value::float(f64::NAN);
        let back = decode_exact(&encode_to_vec(&v)).unwrap();
        assert_eq!(back, v, "total_cmp equality treats same-bits NaN as equal");
    }

    #[test]
    fn sets_roundtrip() {
        roundtrip(&Value::empty_set());
        roundtrip(&xset!["a" => 1, "b"].into_value());
        roundtrip(&xtuple!["a", "b", "c"].into_value());
        roundtrip(&nested());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode_exact(&[]), Err(CodecError::Truncated));
        assert_eq!(decode_exact(&[99]), Err(CodecError::BadTag(99)));
        assert_eq!(decode_exact(&[TAG_INT, 1, 2]), Err(CodecError::Truncated));
        assert_eq!(
            decode_exact(&[TAG_SYM, 10, 0, 0, 0, b'a']),
            Err(CodecError::Truncated),
            "short body"
        );
        let mut bytes = encode_to_vec(&Value::Int(1));
        bytes.push(0);
        assert_eq!(decode_exact(&bytes), Err(CodecError::Trailing(1)));
        assert_eq!(
            decode_exact(&[TAG_SYM, 1, 0, 0, 0, 0xFF]),
            Err(CodecError::BadUtf8)
        );
        assert_eq!(
            Reader::new(&encode_to_vec(&Value::Int(1))).set(),
            Err(CodecError::BadTag(TAG_INT)),
            "an atom where a set is required"
        );
    }

    #[test]
    fn encoding_is_deterministic_for_equal_sets() {
        // Canonical member order makes the encoding canonical too.
        let a = xset!["b" => 2, "a" => 1].into_value();
        let b = xset!["a" => 1, "b" => 2].into_value();
        assert_eq!(encode_to_vec(&a), encode_to_vec(&b));
    }

    #[test]
    fn every_truncation_of_a_nested_value_is_an_error() {
        let bytes = encode_to_vec(&nested());
        for cut in 0..bytes.len() {
            assert!(
                decode_exact(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes"
            );
        }
        assert_eq!(decode_exact(&bytes), Ok(nested()));
    }

    #[test]
    fn hostile_count_is_rejected_before_allocation() {
        assert_eq!(
            decode_exact(&[TAG_SET, 0xFF, 0xFF, 0xFF, 0xFF]),
            Err(CodecError::CountExceedsInput)
        );
        // One byte short of holding the two smallest members it claims.
        let mut bytes = vec![TAG_SET, 2, 0, 0, 0];
        bytes.extend_from_slice(&[TAG_BOOL, 0, TAG_BOOL, 0, TAG_BOOL, 1, TAG_BOOL]);
        assert_eq!(decode_exact(&bytes), Err(CodecError::CountExceedsInput));
    }

    #[test]
    fn swapped_and_duplicated_members_are_not_canonical() {
        let member = |i: i64| {
            let mut m = encode_to_vec(&Value::Int(i));
            m.extend(encode_to_vec(&Value::empty_set()));
            m
        };
        let set_of = |members: &[Vec<u8>]| {
            let mut bytes = vec![TAG_SET];
            put_u32(&mut bytes, members.len() as u32);
            bytes.extend(members.concat());
            bytes
        };
        assert_eq!(
            decode_exact(&set_of(&[member(1), member(2)])),
            Ok(xset![1, 2].into_value())
        );
        assert_eq!(
            decode_exact(&set_of(&[member(2), member(1)])),
            Err(CodecError::NotCanonical)
        );
        assert_eq!(
            decode_exact(&set_of(&[member(1), member(1)])),
            Err(CodecError::NotCanonical)
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        // `depth` nested singleton sets around ∅, built by hand: the
        // innermost ∅ is itself one level.
        let tower = |depth: usize| {
            let mut bytes = Vec::new();
            for _ in 1..depth {
                bytes.extend_from_slice(&[TAG_SET, 1, 0, 0, 0]);
            }
            bytes.extend_from_slice(&[TAG_SET, 0, 0, 0, 0]);
            for _ in 1..depth {
                bytes.extend_from_slice(&[TAG_SET, 0, 0, 0, 0]); // each scope: ∅
            }
            bytes
        };
        let v = decode_exact(&tower(MAX_DEPTH)).unwrap();
        assert_eq!(v.depth(), MAX_DEPTH);
        assert_eq!(
            decode_exact(&tower(MAX_DEPTH + 1)),
            Err(CodecError::TooDeep)
        );
        // No leaves at all: the cap, not the truncation, ends the descent.
        let bottomless = [TAG_SET, 1, 0, 0, 0].repeat(100_000);
        assert_eq!(decode_exact(&bottomless), Err(CodecError::TooDeep));
    }

    #[test]
    fn golden_bytes_pin_the_layout() {
        // Pages, WAL frames and the `shard_of` FNV hash all hold these
        // bytes: a change here is a durable-format change.
        let v = xset![
            Value::Bool(true) => Value::Int(-2),
            Value::float(1.5) => Value::sym("s"),
            Value::str("é") => Value::bytes([0u8, 255]),
            xtuple!["a"].into_value()
        ]
        .into_value();
        let hex: String = encode_to_vec(&v)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "0604000000\
             0001\
             01feffffffffffffff\
             02000000000000f83f\
             030100000073\
             0402000000c3a9\
             050200000000ff\
             0601000000\
             030100000061\
             010100000000000000\
             0600000000"
        );
        assert_eq!(decode_exact(&encode_to_vec(&v)), Ok(v));
    }
}
