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
//! tag 6  set       payload = count:u32, count × (value value)   -- (elem, scope),
//!                  strictly ascending in the legacy order (below):
//!                  element first, then scope, at every depth
//! tag 7  set       payload = as tag 6, strictly ascending scope first,
//!                  then element
//! ```
//!
//! A set's canonical order is scope first ([`crate::set`]). Before v4 it
//! was element first at every depth — members compared element, then
//! scope, and a set inside compared by its members listed that way — the
//! *legacy order*. The encoder writes tag 6 when the canonical sequence
//! also ascends in the legacy order and deciding so never compares two
//! non-empty sets (adjacent elements, or adjacent scopes of one element,
//! that are both non-empty sets): then the bytes (and the `shard_of`
//! routing hashed from them) are the ones v3 wrote — a classical set of
//! atoms, a tuple of atoms rising with its positions, a row `⟨k, ∅⟩` for
//! an atom `k`. Everything else is written under tag 7, so its bytes
//! moved: `{a^∅, b^1}` (a position sorts before `∅`, an atom before a
//! set), `⟨z, a⟩`, and a set with two non-empty sets side by side, such
//! as a classical set of rows. (The legacy order would keep some of the
//! last kind, but deciding it costs a sort per pair of inner sets
//! on every encode.) The decoder reads tag 6 at any depth in the legacy
//! order — so `{⟨z, a⟩, ⟨b, y⟩}`, which v3 listed `⟨z, a⟩` first because
//! element first `⟨z, a⟩` begins with `a^2`, reads back — and sorts a set
//! once where the canonical order differs, so pages, WAL frames and a
//! peer's bytes from an older writer read back.
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
//! * members must arrive strictly ascending in their tag's order
//!   ([`CodecError::NotCanonical`]) — the encoder writes canonical order,
//!   so the decoder checks it in one pass and builds with
//!   [`ExtendedSet::from_sorted_unique`] instead of re-sorting (a tag-6
//!   set the canonical order lists otherwise is sorted once); swapped or
//!   duplicated members are corruption, not input to repair. The legacy
//!   order compares two non-empty sets as sorted trees built once per
//!   comparison, so nesting costs a sort per set reached, never a re-sort
//!   per pair compared.
//!
//! [`Reader`] is also the bounds-checked cursor the message layer
//! (`xst-server`'s `proto`) reads its own integers and strings through.

use crate::set::{ExtendedSet, Member};
use crate::value::Value;
use std::cmp::Ordering;
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
/// A set whose members ascend in the legacy order (see the module docs).
const TAG_SET: u8 = 6;
/// A set whose members ascend scope first, the canonical order.
const TAG_SET_BY_SCOPE: u8 = 7;

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
    let members = s.members();
    out.push(if keeps_v3_bytes(members) {
        TAG_SET
    } else {
        TAG_SET_BY_SCOPE
    });
    put_u32(out, members.len() as u32);
    for m in members {
        encode_value(&m.element, out);
        encode_value(&m.scope, out);
    }
}

/// Does the encoder write a canonical member sequence under tag 6? When
/// it also ascends in the legacy order and no step of deciding that
/// compares two non-empty sets: there the legacy order is `Value`'s,
/// element first. O(1) for one scope run, whose elements ascend with the
/// non-empty sets last.
fn keeps_v3_bytes(members: &[Member]) -> bool {
    match members {
        [.., before_last, last] if members[0].scope == last.scope => {
            !inhabited(&before_last.element)
        }
        _ => members.windows(2).all(|w| plainly_before(&w[0], &w[1])),
    }
}

/// `a` precedes `b` in the legacy order, decided without comparing two
/// non-empty sets.
fn plainly_before(a: &Member, b: &Member) -> bool {
    let plain = |x: &Value, y: &Value| (!inhabited(x) || !inhabited(y)).then(|| x.cmp(y));
    match plain(&a.element, &b.element) {
        Some(Ordering::Equal) => plain(&a.scope, &b.scope) == Some(Ordering::Less),
        order => order == Some(Ordering::Less),
    }
}

fn inhabited(v: &Value) -> bool {
    matches!(v, Value::Set(s) if !s.is_empty())
}

/// The order tag 6 lists a set's members in, and the canonical order
/// before v4: element first, then scope, where a set inside is compared by
/// *its* members listed the same way — at every depth. It parts from
/// `Member`'s order below the top level too: element first `⟨z, a⟩`
/// lists `a^2` first, so an older writer listed `{⟨z, a⟩, ⟨b, y⟩}` as
/// `[⟨z, a⟩, ⟨b, y⟩]`, which scope first is `[⟨b, y⟩, ⟨z, a⟩]`.
fn legacy_cmp_members(a: &Member, b: &Member) -> Ordering {
    legacy_cmp(&a.element, &b.element).then_with(|| legacy_cmp(&a.scope, &b.scope))
}

/// [`legacy_cmp_members`]' order on values. It differs from `Value::cmp`
/// only between two non-empty sets, and the encoder writes no tag 6 whose
/// order such a comparison decides: only an older writer's bytes reach
/// the tree.
fn legacy_cmp(a: &Value, b: &Value) -> Ordering {
    if inhabited(a) && inhabited(b) {
        Legacy::of(a).cmp(&Legacy::of(b))
    } else {
        a.cmp(b)
    }
}

/// A value as the legacy order sees it: a set is its members listed
/// element first, each set inside listed so too. Built bottom up, once per
/// comparison, so a comparison costs a sort of each set it reaches rather
/// than a re-sort per pair compared (which would grow exponentially with
/// the nesting hostile bytes can claim).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Legacy<'a> {
    // Variant order is `Value`'s kind order: every atom before every set.
    Atom(&'a Value),
    Set(Vec<(Legacy<'a>, Legacy<'a>)>),
}

impl<'a> Legacy<'a> {
    fn of(v: &'a Value) -> Legacy<'a> {
        match v {
            Value::Set(s) => {
                let mut members: Vec<_> = s
                    .members()
                    .iter()
                    .map(|m| (Legacy::of(&m.element), Legacy::of(&m.scope)))
                    .collect();
                members.sort_unstable();
                Legacy::Set(members)
            }
            atom => Legacy::Atom(atom),
        }
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
            tag @ (TAG_SET | TAG_SET_BY_SCOPE) => self.members(tag, 0),
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
            tag @ (TAG_SET | TAG_SET_BY_SCOPE) => Value::Set(self.members(tag, depth)?),
            other => return Err(CodecError::BadTag(other)),
        })
    }

    /// The body of a set (after its `tag`) sitting `depth` sets deep.
    fn members(&mut self, tag: u8, depth: usize) -> Result<ExtendedSet, CodecError> {
        if depth >= MAX_DEPTH {
            return Err(CodecError::TooDeep);
        }
        let count = self.u32()? as usize;
        if count > self.remaining() / MIN_MEMBER_BYTES {
            return Err(CodecError::CountExceedsInput);
        }
        let mut members: Vec<Member> = Vec::with_capacity(count);
        // Tag 7 is checked in the canonical order itself, tag 6 in the
        // legacy order; a tag-6 set that does not also ascend in the
        // canonical order is sorted once at the end.
        let mut by_scope = true;
        for _ in 0..count {
            let element = self.value_at(depth + 1)?;
            let scope = self.value_at(depth + 1)?;
            let m = Member { element, scope };
            if let Some(prev) = members.last() {
                let ascends = if tag == TAG_SET {
                    by_scope = by_scope && *prev < m;
                    legacy_cmp_members(prev, &m) == Ordering::Less
                } else {
                    *prev < m
                };
                if !ascends {
                    return Err(CodecError::NotCanonical);
                }
            }
            members.push(m);
        }
        if !by_scope {
            members.sort_unstable();
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

    /// `members` written under `tag` as given, order and all.
    fn raw_set(tag: u8, members: &[(Value, Value)]) -> Vec<u8> {
        let mut bytes = vec![tag];
        put_u32(&mut bytes, members.len() as u32);
        for (element, scope) in members {
            encode_value(element, &mut bytes);
            encode_value(scope, &mut bytes);
        }
        bytes
    }

    fn at(element: &str, scope: i64) -> (Value, Value) {
        (Value::sym(element), Value::Int(scope))
    }

    #[test]
    fn a_legacy_element_first_set_decodes_into_the_canonical_order() {
        // ⟨z, a⟩ = {z^1, a^2}: element first it was `a^2, z^1`.
        let pair = ExtendedSet::pair("z", "a");
        let legacy = raw_set(TAG_SET, &[at("a", 2), at("z", 1)]);
        let decoded = decode_exact(&legacy).unwrap();
        assert_eq!(decoded, pair.clone().into_value());
        // Re-encoding writes the canonical bytes, under tag 7.
        let fresh = encode_to_vec(&decoded);
        assert_eq!(fresh, raw_set(TAG_SET_BY_SCOPE, &[at("z", 1), at("a", 2)]));
        assert_eq!(fresh, encode_to_vec(&pair.into_value()));
        // Nested inside a classical set, the outer bytes keep tag 6: one
        // member compares with nothing.
        let outer = raw_set(
            TAG_SET,
            &[(decode_exact(&legacy).unwrap(), Value::empty_set())],
        );
        let mut canonical = vec![TAG_SET, 1, 0, 0, 0];
        canonical.extend(&fresh);
        canonical.extend(encode_to_vec(&Value::empty_set()));
        assert_eq!(encode_to_vec(&decode_exact(&outer).unwrap()), canonical);
    }

    #[test]
    fn sets_whose_two_orders_agree_keep_tag_6() {
        for set in [
            xset!["b", "a"],
            ExtendedSet::pair("a", "z"),
            xtuple![1, 2, 3],
            ExtendedSet::empty(),
        ] {
            let bytes = encode_to_vec(&set.clone().into_value());
            assert_eq!(bytes[0], TAG_SET, "{set}");
            // The same members under tag 7 are canonical too and decode
            // alike; the encoder just never writes them so.
            let members: Vec<_> = set.iter().map(|(e, s)| (e.clone(), s.clone())).collect();
            assert_eq!(
                decode_exact(&raw_set(TAG_SET_BY_SCOPE, &members)),
                Ok(set.into_value())
            );
        }
        assert_eq!(
            encode_to_vec(&ExtendedSet::pair("z", "a").into_value())[0],
            TAG_SET_BY_SCOPE
        );
        // Two non-empty sets side by side: tag 7 without asking the legacy
        // order, although here it agrees.
        let rows = ExtendedSet::classical([xtuple![1].into_value(), xtuple![2].into_value()]);
        assert_eq!(encode_to_vec(&rows.into_value())[0], TAG_SET_BY_SCOPE);
    }

    #[test]
    fn each_tag_checks_its_own_order() {
        // The two orders disagree on ⟨z, a⟩: each listing is canonical
        // under one tag only.
        let element_first = [at("a", 2), at("z", 1)];
        let scope_first = [at("z", 1), at("a", 2)];
        assert_eq!(
            decode_exact(&raw_set(TAG_SET, &scope_first)),
            Err(CodecError::NotCanonical)
        );
        assert_eq!(
            decode_exact(&raw_set(TAG_SET_BY_SCOPE, &element_first)),
            Err(CodecError::NotCanonical)
        );
        // In neither order: no tag reads it.
        let neither = [at("b", 2), at("a", 1)];
        for tag in [TAG_SET, TAG_SET_BY_SCOPE] {
            assert_eq!(
                decode_exact(&raw_set(tag, &neither)),
                Err(CodecError::NotCanonical),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn swapped_and_duplicated_members_are_rejected_under_either_tag() {
        let three = [at("a", 1), at("b", 1), at("a", 2)]; // scope first
        let legacy = [at("a", 1), at("a", 2), at("b", 1)]; // element first
        for (tag, members) in [(TAG_SET_BY_SCOPE, three), (TAG_SET, legacy)] {
            assert_eq!(
                decode_exact(&raw_set(tag, &members)),
                Ok(xset!["a" => 1, "b" => 1, "a" => 2].into_value()),
                "tag {tag}"
            );
            for i in 0..2 {
                let mut swapped = members.clone();
                swapped.swap(i, i + 1);
                assert_eq!(
                    decode_exact(&raw_set(tag, &swapped)),
                    Err(CodecError::NotCanonical),
                    "tag {tag}, swap {i}"
                );
                let mut doubled = members.to_vec();
                doubled.insert(i, members[i].clone());
                assert_eq!(
                    decode_exact(&raw_set(tag, &doubled)),
                    Err(CodecError::NotCanonical),
                    "tag {tag}, member {i} twice"
                );
            }
        }
    }

    #[test]
    fn equal_mixed_scope_sets_encode_to_equal_bytes() {
        let a = ExtendedSet::from_pairs([("z", 1), ("a", 2), ("m", 1)]).into_value();
        let b = ExtendedSet::from_pairs([("m", 1), ("z", 1), ("a", 2)]).into_value();
        assert_eq!(encode_to_vec(&a), encode_to_vec(&b));
        assert_eq!(decode_exact(&encode_to_vec(&a)), Ok(b));
    }

    /// Bytes as a v3 writer laid a set out: tag 6, members as given.
    fn old_set(members: &[[Vec<u8>; 2]]) -> Vec<u8> {
        let mut bytes = vec![TAG_SET];
        put_u32(&mut bytes, members.len() as u32);
        for [element, scope] in members {
            bytes.extend(element);
            bytes.extend(scope);
        }
        bytes
    }

    #[test]
    fn sets_inside_an_older_writers_set_were_compared_element_first_too() {
        let sym = |s: &str| encode_to_vec(&Value::sym(s));
        let int = |i: i64| encode_to_vec(&Value::Int(i));
        let empty = encode_to_vec(&Value::empty_set());
        // Element first, ⟨z, a⟩ lists `a^2, z^1` and ⟨b, y⟩ `b^1, y^2`, so
        // ⟨z, a⟩ came first (a < b); scope first, ⟨b, y⟩ does (b < z).
        let za = old_set(&[[sym("a"), int(2)], [sym("z"), int(1)]]);
        let by = old_set(&[[sym("b"), int(1)], [sym("y"), int(2)]]);
        let (za_v, by_v) = (
            ExtendedSet::pair("z", "a").into_value(),
            ExtendedSet::pair("b", "y").into_value(),
        );
        let classical = xset![za_v.clone(), by_v.clone()];
        let record = xset![by_v.clone() => 1, za_v.clone() => 2];
        // `⟨b, y⟩` keeps its old bytes; `⟨z, a⟩` is now tag 7, `z^1` first.
        let za_now = encode_to_vec(&za_v);
        assert_eq!(za_now[0], TAG_SET_BY_SCOPE);
        for (old, set, scopes) in [
            (
                old_set(&[[za.clone(), empty.clone()], [by.clone(), empty.clone()]]),
                &classical,
                [empty.clone(), empty.clone()],
            ),
            (
                old_set(&[[za.clone(), int(2)], [by.clone(), int(1)]]),
                &record,
                [int(1), int(2)],
            ),
        ] {
            let decoded = decode_exact(&old).unwrap();
            assert_eq!(decoded, set.clone().into_value(), "{set}");
            // The orders disagree at the top too, so the canonical bytes
            // are tag 7, `⟨b, y⟩` first.
            let mut canonical = vec![TAG_SET_BY_SCOPE, 2, 0, 0, 0];
            for part in [&by, &scopes[0], &za_now, &scopes[1]] {
                canonical.extend(part);
            }
            let fresh = encode_to_vec(&decoded);
            assert_eq!(fresh, canonical, "{set}");
            assert_eq!(decode_exact(&fresh), Ok(decoded));
        }
        // Listed scope first, the same bytes are not what tag 6 means.
        assert_eq!(
            decode_exact(&old_set(&[
                [by.clone(), empty.clone()],
                [za.clone(), empty]
            ])),
            Err(CodecError::NotCanonical)
        );
        assert_eq!(
            decode_exact(&old_set(&[[by, int(1)], [za, int(2)]])),
            Err(CodecError::NotCanonical)
        );
    }

    #[test]
    fn the_legacy_order_is_the_old_member_order_at_every_depth() {
        // The old order, written out: members element first, a set as its
        // sorted member list, at every depth.
        fn old_cmp(a: &Value, b: &Value) -> Ordering {
            match (a, b) {
                (Value::Set(x), Value::Set(y)) => {
                    let list = |s: &ExtendedSet| {
                        let mut v: Vec<Member> = s.members().to_vec();
                        v.sort_by(|p, q| {
                            old_cmp(&p.element, &q.element)
                                .then_with(|| old_cmp(&p.scope, &q.scope))
                        });
                        v
                    };
                    let (xs, ys) = (list(x), list(y));
                    for (p, q) in xs.iter().zip(&ys) {
                        let o = old_cmp(&p.element, &q.element)
                            .then_with(|| old_cmp(&p.scope, &q.scope));
                        if o != Ordering::Equal {
                            return o;
                        }
                    }
                    xs.len().cmp(&ys.len())
                }
                _ => a.cmp(b),
            }
        }
        let atoms = [
            Value::sym("a"),
            Value::sym("b"),
            Value::Int(1),
            Value::Int(2),
        ];
        let mut values: Vec<Value> = atoms.to_vec();
        values.push(Value::empty_set());
        for e in &atoms {
            for s in &atoms {
                values.push(xset![e.clone() => s.clone()].into_value());
                values.push(xset![e.clone() => 1, s.clone() => 2].into_value());
            }
        }
        // Sets of those, and two larger ones.
        let inner = values.clone();
        for (i, x) in inner.iter().enumerate() {
            values.push(
                xset![x.clone() => 1, inner[(i * 7 + 3) % inner.len()].clone() => 2].into_value(),
            );
        }
        values.push(ExtendedSet::classical(inner[..9].iter().cloned()).into_value());
        values.push(ExtendedSet::classical(inner[1..10].iter().cloned()).into_value());
        for a in &values {
            for b in &values {
                assert_eq!(legacy_cmp(a, b), old_cmp(a, b), "{a} vs {b}");
            }
        }
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
