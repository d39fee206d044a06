//! Allocation counts on the paths `∅` sits on: creating, cloning and
//! dropping the empty set — the scope of every classical member — must not
//! touch the heap, and decoding a table's row tuples pays for the rows'
//! member vectors only; a restriction pays the same whatever its witness
//! count.
//!
//! A counting global allocator forwards to [`System`] and counts each
//! allocation in a thread-local, so tests running in parallel on other
//! threads do not disturb one another's counts. This allocator shim is the
//! only `unsafe` in the workspace: `GlobalAlloc` cannot be implemented
//! without it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use xst_core::codec::{decode_exact, encode_to_vec};
use xst_core::ops::sigma_restrict;
use xst_core::{ExtendedSet, Member, SetBuilder, Value};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; counting touches only a thread-local
// `Cell` with no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn the_empty_set_allocates_nothing() {
    let ((), n) = allocations(|| drop(black_box(ExtendedSet::empty())));
    assert_eq!(n, 0, "ExtendedSet::empty()");
    let ((), n) = allocations(|| drop(black_box(Value::classical_scope())));
    assert_eq!(n, 0, "Value::classical_scope()");
    let ((), n) = allocations(|| drop(black_box(SetBuilder::new().build())));
    assert_eq!(n, 0, "SetBuilder::new().build()");
}

#[test]
fn a_classical_member_allocates_nothing() {
    let ((), n) = allocations(|| {
        let m = black_box(Member::classical(Value::Int(7)));
        let copy = black_box(m.clone());
        drop(m);
        drop(copy);
    });
    assert_eq!(n, 0, "create, clone and drop Member::classical(Int)");
}

/// The reply a full-table `eval` decodes: one `⟨k, ∅⟩` row tuple per
/// member, classically scoped.
fn row_tuples(rows: i64) -> ExtendedSet {
    ExtendedSet::classical((0..rows).map(|k| {
        Value::Set(ExtendedSet::tuple([
            Value::Int(k),
            Value::classical_scope(),
        ]))
    }))
}

#[test]
fn decoding_row_tuples_allocates_for_the_tuples_only() {
    const ROWS: usize = 2_000;
    let bytes = encode_to_vec(&Value::Set(row_tuples(ROWS as i64)));
    let (decoded, n) = allocations(|| decode_exact(&bytes).expect("decodes"));
    // Per row: the tuple's member vector and the `Arc` sharing it. The two
    // `∅`s a row holds — the tuple's second component and the row's scope —
    // cost nothing. The constant is the outer set's vector and `Arc`.
    assert!(
        n <= 2 * ROWS + 4,
        "decoding {ROWS} rows made {n} allocations, want at most {}",
        2 * ROWS + 4
    );
    assert_eq!(decoded.as_set().map(ExtendedSet::card), Some(ROWS));
}

/// `{⟨k⟩}` for `count` keys no pair of [`sixteen_pairs`] holds.
fn absent_one_tuples(count: i64) -> ExtendedSet {
    ExtendedSet::classical(
        (0..count).map(|k| Value::Set(ExtendedSet::tuple([Value::Int(1_000 + k)]))),
    )
}

/// `{⟨k, k⟩}` for `k` in `0..16`.
fn sixteen_pairs() -> ExtendedSet {
    ExtendedSet::classical((0..16).map(|k| Value::Set(ExtendedSet::pair(k, k))))
}

#[test]
fn restriction_allocates_the_same_for_any_witness_count() {
    let r = sixteen_pairs();
    let sigma = ExtendedSet::tuple([1i64]);
    let few = absent_one_tuples(16);
    let many = absent_one_tuples(2_500);
    let (out, n_few) = allocations(|| sigma_restrict(&r, &sigma, &few));
    assert!(out.is_empty());
    let (out, n_many) = allocations(|| sigma_restrict(&r, &sigma, &many));
    assert!(out.is_empty());
    // A one-tuple witness is read in place into its scope's key slice,
    // which is sized once; the cursor matches without hashing.
    assert_eq!(
        n_few, n_many,
        "16 witnesses made {n_few} allocations, 2 500 made {n_many}"
    );
}
