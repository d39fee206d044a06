//! The protocol codec battery: round-trip properties over adversarial
//! payload shapes, plus a decoder-hostility suite.
//!
//! The round-trip properties drive the codec with `arb_tricky_set` —
//! escape-laden strings, ∅, nested scopes, the payloads that break
//! naive serializers — and random expression trees over them. The
//! adversarial suite then attacks the *decoder*: truncations at every
//! byte, bit flips in header and payload, oversize length claims, and
//! raw garbage. The required outcome everywhere is a structured error —
//! never a panic, never a hang, never a silent misparse.

use proptest::prelude::*;
use std::io::Cursor;
use xst_core::{codec, ExtendedSet, Member, Value};
use xst_obs::TraceContext;
use xst_query::Expr;
use xst_server::proto::{ProtoError, Request, Response, WireError};
use xst_server::wire::{encode_frame, read_frame, FrameError, HEADER_LEN, MAX_FRAME};
use xst_server::{ErrorCode, PROTO_VERSION};
use xst_storage::{FaultKind, FaultSchedule};
use xst_testkit::{arb_tricky_atom, arb_tricky_set};

// ---------------------------------------------------------------------------
// Generators (built from the offline proptest subset: no regex strings,
// so text is composed from a hostile character palette).
// ---------------------------------------------------------------------------

fn arb_text() -> BoxedStrategy<String> {
    let ch = prop::sample::select(vec![
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '{', '}', '⟨', '⟩', '∅', ',', '^',
    ]);
    prop::collection::vec(ch, 0..12)
        .prop_map(|cs| cs.into_iter().collect())
        .boxed()
}

fn arb_scope() -> BoxedStrategy<xst_core::Scope> {
    (arb_tricky_set(1), arb_tricky_set(1))
        .prop_map(|(s1, s2)| xst_core::Scope::new(s1, s2))
        .boxed()
}

fn arb_expr_depth(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        arb_tricky_set(1).prop_map(Expr::lit).boxed(),
        prop::sample::select(vec!["t", "u", "r", "weird name", "∅"])
            .prop_map(Expr::table)
            .boxed(),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = arb_expr_depth(depth - 1);
    prop_oneof![
        1 => leaf,
        1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)).boxed(),
        1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)).boxed(),
        1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.difference(b)).boxed(),
        1 => (inner.clone(), arb_tricky_set(1), inner.clone())
            .prop_map(|(r, sigma, a)| r.restrict(sigma, a))
            .boxed(),
        1 => (inner.clone(), arb_tricky_set(1)).prop_map(|(r, sigma)| r.domain(sigma)).boxed(),
        1 => (inner.clone(), inner.clone(), arb_scope())
            .prop_map(|(r, a, scope)| r.image(a, scope))
            .boxed(),
        1 => (inner.clone(), arb_scope(), inner.clone(), arb_scope())
            .prop_map(|(f, s, g, o)| f.rel_product(s, g, o))
            .boxed(),
        1 => (inner.clone(), inner).prop_map(|(a, b)| a.cross(b)).boxed(),
    ]
    .boxed()
}

fn arb_expr() -> BoxedStrategy<Expr> {
    arb_expr_depth(3)
}

fn arb_request() -> BoxedStrategy<Request> {
    prop_oneof![
        (any::<u32>(), arb_text())
            .prop_map(|(version, client)| Request::Hello { version, client })
            .boxed(),
        Just(Request::Ping).boxed(),
        arb_expr().prop_map(|expr| Request::Eval { expr }).boxed(),
        arb_expr().prop_map(|expr| Request::Check { expr }).boxed(),
        arb_expr()
            .prop_map(|expr| Request::Explain { expr })
            .boxed(),
        Just(Request::Begin).boxed(),
        Just(Request::Commit).boxed(),
        Just(Request::Abort).boxed(),
        (arb_text(), arb_tricky_set(2))
            .prop_map(|(table, set)| Request::Put { table, set })
            .boxed(),
        (arb_text(), arb_tricky_set(2))
            .prop_map(|(table, set)| Request::Delete { table, set })
            .boxed(),
        arb_text().prop_map(|table| Request::Get { table }).boxed(),
        any::<bool>()
            .prop_map(|json| Request::Metrics { json })
            .boxed(),
        (any::<u64>(), 0u8..5, 1usize..5000)
            .prop_map(|(k, kind, n)| Request::ArmFaults {
                schedule: if k % 2 == 0 {
                    FaultSchedule::AtSite(k)
                } else {
                    FaultSchedule::EveryNth(k.max(1))
                },
                kind: match kind {
                    0 => FaultKind::WriteFail,
                    1 => FaultKind::TornWrite(n),
                    2 => FaultKind::ShortRead(n),
                    3 => FaultKind::SyncFail,
                    _ => FaultKind::Transient,
                },
            })
            .boxed(),
        Just(Request::ClearFaults).boxed(),
        Just(Request::TraceDump).boxed(),
        (any::<bool>(), any::<u32>())
            .prop_map(|(slow, limit)| Request::RequestLog { slow, limit })
            .boxed(),
        // The coordinator kinds: fragment reads and the 2PC round.
        arb_text()
            .prop_map(|table| Request::FragRead { table })
            .boxed(),
        any::<u64>()
            .prop_map(|gtxn| Request::Prepare { gtxn })
            .boxed(),
        (any::<u64>(), any::<bool>())
            .prop_map(|(gtxn, commit)| Request::Decide { gtxn, commit })
            .boxed(),
        prop::collection::vec(any::<u64>(), 0..20)
            .prop_map(|committed| Request::Resolve { committed })
            .boxed(),
    ]
    .boxed()
}

/// A trace context, hostile values included: zero ids (the "absent"
/// sentinels) must ride the wire as faithfully as real ones.
fn arb_trace_id() -> BoxedStrategy<u64> {
    prop_oneof![
        Just(0u64).boxed(),
        Just(u64::MAX).boxed(),
        any::<u64>().boxed(),
    ]
    .boxed()
}

fn arb_trace_ctx() -> BoxedStrategy<TraceContext> {
    (arb_trace_id(), arb_trace_id())
        .prop_map(|(trace_id, parent_span)| TraceContext {
            trace_id,
            parent_span,
        })
        .boxed()
}

/// Everything that may head a frame: plain requests and
/// `Traced`-wrapped ones. `Traced` never
/// nests — the decoder rejects that — so the wrapper draws its inner
/// request from the plain pool.
fn arb_wire_request() -> BoxedStrategy<Request> {
    prop_oneof![
        3 => arb_request(),
        1 => (arb_trace_ctx(), arb_request())
            .prop_map(|(ctx, req)| Request::Traced { ctx, req: Box::new(req) })
            .boxed(),
    ]
    .boxed()
}

fn arb_option_u64() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None).boxed(), any::<u64>().prop_map(Some).boxed(),].boxed()
}

fn arb_response() -> BoxedStrategy<Response> {
    let code = prop::sample::select(vec![
        ErrorCode::Protocol,
        ErrorCode::Version,
        ErrorCode::Admission,
        ErrorCode::Parse,
        ErrorCode::Analysis,
        ErrorCode::Eval,
        ErrorCode::TxnState,
        ErrorCode::TxnConflict,
        ErrorCode::Storage,
        ErrorCode::Internal,
    ]);
    let table = prop_oneof![Just(None).boxed(), arb_text().prop_map(Some).boxed(),];
    prop_oneof![
        (any::<u32>(), arb_text())
            .prop_map(|(version, banner)| Response::Welcome { version, banner })
            .boxed(),
        Just(Response::Pong).boxed(),
        arb_tricky_set(2)
            .prop_map(|set| Response::Value { set })
            .boxed(),
        arb_text()
            .prop_map(|text| Response::Report { text })
            .boxed(),
        (any::<u64>(), any::<u64>())
            .prop_map(|(id, snapshot_ts)| Response::TxnBegun { id, snapshot_ts })
            .boxed(),
        (any::<u64>(), arb_option_u64())
            .prop_map(|(rows, autocommit_ts)| Response::Applied {
                rows,
                autocommit_ts
            })
            .boxed(),
        any::<u64>()
            .prop_map(|ts| Response::Committed { ts })
            .boxed(),
        Just(Response::Aborted).boxed(),
        any::<bool>()
            .prop_map(|armed| Response::FaultsArmed { armed })
            .boxed(),
        (code, table, arb_text())
            .prop_map(|(code, table, message)| {
                Response::Error(WireError {
                    code,
                    table,
                    message,
                })
            })
            .boxed(),
        // The coordinator answers.
        (any::<u64>(), any::<u64>())
            .prop_map(|(gtxn, participants)| Response::Prepared { gtxn, participants })
            .boxed(),
        (any::<bool>(), any::<u64>())
            .prop_map(|(committed, ts)| Response::Decided { committed, ts })
            .boxed(),
        (any::<u64>(), any::<u64>())
            .prop_map(|(committed, aborted)| Response::Resolved { committed, aborted })
            .boxed(),
    ]
    .boxed()
}

// ---------------------------------------------------------------------------
// Round-trip properties: encode ∘ decode = id, through the frame layer.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_through_frames(req in arb_wire_request()) {
        let frame = encode_frame(&req.encode()).unwrap();
        let payload = read_frame(&mut Cursor::new(frame)).unwrap();
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    #[test]
    fn responses_round_trip_through_frames(resp in arb_response()) {
        let frame = encode_frame(&resp.encode()).unwrap();
        let payload = read_frame(&mut Cursor::new(frame)).unwrap();
        prop_assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn tricky_sets_survive_the_wire_value_codec(set in arb_tricky_set(3)) {
        // The set payload rides in the binary value codec: the round trip
        // must reproduce the identity exactly, escapes and ∅ included.
        let req = Request::Put { table: "t".into(), set: set.clone() };
        let decoded = Request::decode(&req.encode()).unwrap();
        prop_assert_eq!(decoded, req);
    }

    #[test]
    fn tricky_atoms_embed_in_expressions(v in arb_tricky_atom()) {
        let set = ExtendedSet::classical([v]);
        let expr = Expr::lit(set.clone()).union(Expr::table("t")).restrict(set, Expr::table("t"));
        let req = Request::Eval { expr };
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }
}

// ---------------------------------------------------------------------------
// Adversarial decoding: structured errors, never panics or hangs.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncated_frames_error_structurally(req in arb_wire_request(), cut_seed in any::<u64>()) {
        let frame = encode_frame(&req.encode()).unwrap();
        let cut = (cut_seed % frame.len() as u64) as usize;
        let err = read_frame(&mut Cursor::new(frame[..cut].to_vec())).unwrap_err();
        prop_assert!(matches!(
            err,
            FrameError::Closed | FrameError::Truncated | FrameError::BadCrc { .. }
        ));
    }

    #[test]
    fn bit_flips_are_rejected_or_decode_structurally(
        req in arb_wire_request(),
        at_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        // Flip one bit anywhere in the frame. The frame layer must
        // reject it (magic, length, or CRC catches every flip in header
        // and payload); whatever hypothetically got through must still
        // decode without panicking. Reaching the end of this block IS
        // the property.
        let frame = encode_frame(&req.encode()).unwrap();
        let mut bent = frame.clone();
        let at = (at_seed % bent.len() as u64) as usize;
        bent[at] ^= 1 << bit;
        if let Ok(payload) = read_frame(&mut Cursor::new(bent)) {
            let _ = Request::decode(&payload);
        }
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoders(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        // Raw fuzz at both layers: every outcome must be a value or a
        // structured error — reaching this line at all is the assertion.
        let _ = read_frame(&mut Cursor::new(bytes.clone()));
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn valid_frames_with_garbage_payloads_error_structurally(
        bytes in prop::collection::vec(any::<u8>(), 0..200)
    ) {
        // A well-framed but meaningless payload must fail message
        // decoding with a structured ProtoError (unless the bytes happen
        // to be a valid message, which decode proves by succeeding).
        let frame = encode_frame(&bytes).unwrap();
        let payload = read_frame(&mut Cursor::new(frame)).unwrap();
        prop_assert_eq!(&payload, &bytes);
        match Request::decode(&payload) {
            Ok(_) => {}
            Err(
                ProtoError::Truncated
                | ProtoError::Trailing(_)
                | ProtoError::BadTag { .. }
                | ProtoError::BadUtf8
                | ProtoError::TooDeep
                | ProtoError::CountExceedsInput
                | ProtoError::NotCanonical,
            ) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Targeted decoder attacks.
// ---------------------------------------------------------------------------

#[test]
fn oversize_length_header_rejected_before_allocation() {
    // Claim a u32::MAX-byte payload: the reader must reject from the
    // header alone, not try to allocate 4 GiB.
    let mut frame = Vec::new();
    frame.extend_from_slice(b"XSTP");
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        read_frame(&mut Cursor::new(frame)),
        Err(FrameError::Oversize(_))
    ));
    // Just over the cap: same.
    let mut frame = Vec::new();
    frame.extend_from_slice(b"XSTP");
    frame.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        read_frame(&mut Cursor::new(frame)),
        Err(FrameError::Oversize(_))
    ));
}

#[test]
fn header_bit_flips_all_caught() {
    let frame = encode_frame(&Request::Ping.encode()).unwrap();
    for at in 0..HEADER_LEN {
        for bit in 0..8 {
            let mut bent = frame.clone();
            bent[at] ^= 1 << bit;
            let got = read_frame(&mut Cursor::new(bent));
            assert!(
                got.is_err(),
                "flip at header byte {at} bit {bit} slipped through: {got:?}"
            );
        }
    }
}

#[test]
fn payload_bit_flips_all_fail_crc() {
    let frame = encode_frame(&Request::Get { table: "t".into() }.encode()).unwrap();
    for at in HEADER_LEN..frame.len() {
        for bit in 0..8 {
            let mut bent = frame.clone();
            bent[at] ^= 1 << bit;
            assert!(
                matches!(
                    read_frame(&mut Cursor::new(bent)),
                    Err(FrameError::BadCrc { .. })
                ),
                "flip at payload byte {at} bit {bit} not caught by crc"
            );
        }
    }
}

#[test]
fn hostile_recursion_depth_is_bounded() {
    // Hand-build a payload of nested Union tags with no leaves: the
    // decoder must stop at its depth cap, not recurse until stack
    // overflow or chase the truncation forever.
    let mut payload = vec![2u8]; // Request::Eval
    payload.extend(std::iter::repeat_n(2u8, 100_000)); // Expr::Union tags
    assert_eq!(Request::decode(&payload), Err(ProtoError::TooDeep));
}

#[test]
fn nested_traced_wrappers_are_rejected() {
    // Encoding can express Traced(Traced(..)) — the decoder must refuse
    // it, or a hostile peer could nest contexts arbitrarily deep.
    let inner = Request::Traced {
        ctx: TraceContext {
            trace_id: 7,
            parent_span: 8,
        },
        req: Box::new(Request::Ping),
    };
    let outer = Request::Traced {
        ctx: TraceContext {
            trace_id: 1,
            parent_span: 2,
        },
        req: Box::new(inner),
    };
    assert!(matches!(
        Request::decode(&outer.encode()),
        Err(ProtoError::BadTag { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn traced_wrappers_round_trip_any_context(ctx in arb_trace_ctx(), req in arb_request()) {
        let wrapped = Request::Traced { ctx, req: Box::new(req) };
        let frame = encode_frame(&wrapped.encode()).unwrap();
        let payload = read_frame(&mut Cursor::new(frame)).unwrap();
        prop_assert_eq!(Request::decode(&payload).unwrap(), wrapped);
    }

    #[test]
    fn absent_trace_context_adds_no_bytes(req in arb_request()) {
        // The Traced wrapper is strictly additive: a request sent
        // without a context is exactly its own encoding.
        let bytes = req.encode();
        // No phantom Traced tag may lead the plain encoding.
        prop_assert_ne!(bytes.first(), Some(&14u8));
        prop_assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    #[test]
    fn truncated_traced_payloads_error_structurally(
        ctx in arb_trace_ctx(),
        req in arb_request(),
        cut_seed in any::<u64>(),
    ) {
        // Cut inside the context fields or the inner request: the
        // decoder must answer Truncated-shaped errors, never panic.
        let wrapped = Request::Traced { ctx, req: Box::new(req) };
        let bytes = wrapped.encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let _ = Request::decode(&bytes[..cut]);
    }
}

#[test]
fn version_constant_is_stable() {
    // The handshake contract: bumping this silently would strand every
    // deployed client. Force the change to be visible in review.
    // v3 = sets in the binary value codec; v4 = members ordered scope
    // first (codec tag 7). It is the only version seated.
    assert_eq!(PROTO_VERSION, 4);
}

// ---------------------------------------------------------------------------
// Coordinator kinds: truncation hostility.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cut a coordinator message anywhere: structured error or valid
    /// decode, never a panic. Resolve is the interesting one — its
    /// count prefix must not drive allocation past the actual bytes.
    #[test]
    fn truncated_coordinator_requests_error_structurally(
        committed in prop::collection::vec(any::<u64>(), 0..50),
        gtxn in any::<u64>(),
        pick in 0u8..4,
        cut_seed in any::<u64>(),
    ) {
        let req = match pick {
            0 => Request::FragRead { table: "t".into() },
            1 => Request::Prepare { gtxn },
            2 => Request::Decide { gtxn, commit: gtxn.is_multiple_of(2) },
            _ => Request::Resolve { committed },
        };
        let bytes = req.encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let _ = Request::decode(&bytes[..cut]);
    }
}

/// A Resolve frame claiming u32::MAX gtxns with no bytes behind the
/// claim must fail structurally without allocating for the claim.
#[test]
fn resolve_with_hostile_count_prefix_is_rejected() {
    let mut payload = vec![20u8]; // Request::Resolve tag
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(Request::decode(&payload), Err(ProtoError::Truncated));
}

// ---------------------------------------------------------------------------
// Hostile sets: the value codec's checks, reached through a message.
// ---------------------------------------------------------------------------

/// `Put{table: "t", set: <bytes>}` with the set field written by hand —
/// the encoder cannot produce any of the payloads below.
fn put_with_raw_set(set_bytes: &[u8]) -> Vec<u8> {
    let mut payload = vec![8u8]; // Request::Put
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.push(b't');
    payload.extend_from_slice(set_bytes);
    payload
}

/// The open half of a set nested `depth` deep: `{{{{…` in the codec's
/// bytes (tag 6, count 1), with nothing closing it.
fn bottomless_set(depth: usize) -> Vec<u8> {
    [6u8, 1, 0, 0, 0].repeat(depth)
}

/// One member `i^∅` in codec bytes.
fn int_member(i: i64) -> Vec<u8> {
    let mut m = vec![1u8];
    m.extend_from_slice(&i.to_le_bytes());
    m.extend_from_slice(&[6, 0, 0, 0, 0]);
    m
}

#[test]
fn a_put_nested_100_000_deep_is_too_deep_not_a_stack_overflow() {
    // Decoded on a thread with the server's connection-thread stack (the
    // 2 MiB default), where the text parser this replaced overflowed.
    let decoded = std::thread::spawn(|| {
        let payload = put_with_raw_set(&bottomless_set(100_000));
        Request::decode(&payload)
    })
    .join()
    .expect("decoder must not overflow the stack");
    assert_eq!(decoded, Err(ProtoError::TooDeep));
}

#[test]
fn a_four_giga_member_count_is_rejected_before_allocation() {
    let payload = put_with_raw_set(&[6, 0xFF, 0xFF, 0xFF, 0xFF]);
    assert_eq!(
        Request::decode(&payload),
        Err(ProtoError::CountExceedsInput)
    );
}

#[test]
fn swapped_and_duplicated_members_are_not_canonical() {
    for (a, b) in [(2, 1), (1, 1)] {
        let mut set = vec![6u8, 2, 0, 0, 0];
        set.extend(int_member(a));
        set.extend(int_member(b));
        assert_eq!(
            Request::decode(&put_with_raw_set(&set)),
            Err(ProtoError::NotCanonical),
            "members {a}, {b}"
        );
    }
    let mut set = vec![6u8, 2, 0, 0, 0];
    set.extend(int_member(1));
    set.extend(int_member(2));
    assert_eq!(
        Request::decode(&put_with_raw_set(&set)),
        Ok(Request::Put {
            table: "t".into(),
            set: ExtendedSet::classical([1, 2]),
        })
    );
}

/// One member's codec bytes.
fn member_bytes(m: &Member) -> Vec<u8> {
    let mut out = codec::encode_to_vec(&m.element);
    codec::encode_value(&m.scope, &mut out);
    out
}

/// `members`' bytes written in the order given, under `tag`.
fn set_bytes(tag: u8, members: &[Vec<u8>]) -> Vec<u8> {
    let mut out = vec![tag];
    codec::put_u32(&mut out, members.len() as u32);
    out.extend(members.concat());
    out
}

/// A value as a writer that ordered members element first saw it: a set
/// is its members sorted element first, and a set inside is compared the
/// same way, at every depth. The derived order is the old one: `Value`
/// put every atom before every set, and `Member` compared element, then
/// scope.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Old {
    Atom(Value),
    Set(Vec<(Old, Old)>),
}

impl Old {
    fn of(v: &Value) -> Old {
        match v {
            Value::Set(s) => {
                let mut members: Vec<_> = s
                    .members()
                    .iter()
                    .map(|m| (Old::of(&m.element), Old::of(&m.scope)))
                    .collect();
                members.sort();
                Old::Set(members)
            }
            atom => Old::Atom(atom.clone()),
        }
    }

    /// The bytes that writer left: tag 6 at every depth.
    fn bytes(&self) -> Vec<u8> {
        match self {
            Old::Atom(atom) => codec::encode_to_vec(atom),
            Old::Set(members) => set_bytes(
                6,
                &members
                    .iter()
                    .map(|(e, s)| [e.bytes(), s.bytes()].concat())
                    .collect::<Vec<_>>(),
            ),
        }
    }
}

/// The top-level members of `set` in the order that writer listed them.
fn element_first(set: &ExtendedSet) -> Vec<Member> {
    let mut members = set.members().to_vec();
    members.sort_by_cached_key(|m| (Old::of(&m.element), Old::of(&m.scope)));
    members
}

/// `v` as that writer encoded it.
fn legacy_value(v: &Value) -> Vec<u8> {
    Old::of(v).bytes()
}

/// Sets where the two orders part below the top level: pairs of atoms
/// (element first, `⟨z, a⟩` lists `a^2` first), held classically or at
/// positions.
fn arb_set_of_pairs() -> BoxedStrategy<ExtendedSet> {
    let pair = (arb_tricky_atom(), arb_tricky_atom())
        .prop_map(|(k, v)| Value::Set(ExtendedSet::pair(k, v)));
    let scope = prop_oneof![
        Just(Value::classical_scope()),
        (1i64..3).prop_map(Value::Int),
    ];
    prop::collection::vec((pair, scope), 0..6)
        .prop_map(|ms| {
            ExtendedSet::from_members(ms.into_iter().map(|(e, s)| Member::new(e, s)).collect())
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bytes an element-first writer left behind — pages, WAL frames, an
    /// older peer's `Put` — decode into the canonical (scope-first) set,
    /// and re-encode as the canonical bytes.
    #[test]
    fn legacy_element_first_sets_decode_into_the_canonical_order(
        set in prop_oneof![arb_tricky_set(3), arb_set_of_pairs()],
    ) {
        let payload = put_with_raw_set(&legacy_value(&Value::Set(set.clone())));
        let put = Request::Put { table: "t".into(), set };
        let decoded = Request::decode(&payload).unwrap();
        prop_assert_eq!(&decoded, &put);
        prop_assert_eq!(decoded.encode(), put.encode());
    }

    /// A set's top-level members with two adjacent ones swapped, or one
    /// written twice, are rejected under the tag whose order they were
    /// listed in; and where the two orders disagree, each listing is
    /// rejected under the other tag.
    #[test]
    fn swapped_duplicated_or_mistagged_members_are_not_canonical(
        set in prop_oneof![arb_tricky_set(3), arb_set_of_pairs()],
        pick in any::<usize>(),
    ) {
        let by_scope = set.members().to_vec();
        let by_element = element_first(&set);
        for (tag, members) in [(7u8, &by_scope), (6u8, &by_element)] {
            let bytes: Vec<Vec<u8>> = members.iter().map(member_bytes).collect();
            prop_assert!(Request::decode(&put_with_raw_set(&set_bytes(tag, &bytes))).is_ok());
            if bytes.len() < 2 {
                continue;
            }
            let i = pick % (bytes.len() - 1);
            let mut swapped = bytes.clone();
            swapped.swap(i, i + 1);
            prop_assert_eq!(
                Request::decode(&put_with_raw_set(&set_bytes(tag, &swapped))),
                Err(ProtoError::NotCanonical)
            );
            let mut doubled = bytes.clone();
            doubled.insert(i, bytes[i].clone());
            prop_assert_eq!(
                Request::decode(&put_with_raw_set(&set_bytes(tag, &doubled))),
                Err(ProtoError::NotCanonical)
            );
        }
        if by_scope != by_element {
            for (tag, members) in [(6u8, &by_scope), (7u8, &by_element)] {
                let bytes: Vec<Vec<u8>> = members.iter().map(member_bytes).collect();
                prop_assert_eq!(
                    Request::decode(&put_with_raw_set(&set_bytes(tag, &bytes))),
                    Err(ProtoError::NotCanonical)
                );
            }
        }
    }

    /// Equal sets encode to equal bytes, however their members arrived.
    #[test]
    fn equal_sets_encode_to_equal_bytes(set in arb_tricky_set(3)) {
        let mut reversed = set.members().to_vec();
        reversed.reverse();
        let rebuilt = ExtendedSet::from_members(reversed);
        prop_assert_eq!(
            codec::encode_to_vec(&Value::Set(rebuilt)),
            codec::encode_to_vec(&Value::Set(set.clone()))
        );
        prop_assert!(set.members().windows(2).all(|w| w[0] < w[1]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every proper prefix of a set-carrying message is an error — the
    /// codec never reads past the cut and never settles for less.
    #[test]
    fn every_truncation_of_a_put_is_an_error(set in arb_tricky_set(3)) {
        let bytes = Request::Put { table: "t".into(), set }.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Request::decode(&bytes[..cut]).is_err(), "prefix of {} bytes", cut);
        }
    }
}
