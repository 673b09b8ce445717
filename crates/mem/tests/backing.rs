//! A memory backed only over the bytes written is indistinguishable from
//! one backed in full: random functional access sequences against both,
//! through `SharedMemory`, give the same results, the same panics and the
//! same final contents over the whole logical size, and out-of-range
//! accesses still panic, read `None` or flip nothing.

use hht_mem::store::GROW_STEP;
use hht_mem::{ByteStore, SharedMemory};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One functional access: `(kind, anchor, offset, len, value)`, where the
/// anchor picks an address region near a boundary (see [`address`]).
type Op = (u8, u8, u32, u32, u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Out {
    Done,
    Value(u32),
    Checked(Option<u32>),
    Flipped(bool),
    Panicked,
}

/// Resolve an op's address: uniform over the logical size (plus a little
/// past it), or straddling the initial backing end, a backing growth step,
/// the logical end, or the top of the 32-bit address space.
fn address(anchor: u8, offset: u32, size: u32, init: u32) -> u32 {
    let near = |edge: u32| edge.wrapping_add(offset % 8).wrapping_sub(4);
    match anchor {
        0 => offset,
        1 => near(init),
        2 => near((offset % 4) * GROW_STEP as u32),
        3 => near(size),
        _ => u32::MAX - offset % 8,
    }
}

/// Apply `op` and report what it returned (or that it panicked), plus the
/// access width in bytes for the range check.
fn apply(m: &mut ByteStore, op: Op, addr: u32) -> (Out, u64) {
    let (kind, _, _, len, value) = op;
    let words: Vec<u32> = (0..len).map(|i| value.wrapping_add(i)).collect();
    let width = match kind {
        0 | 3 => 1,
        1 | 4 => 2,
        6 => 4 * len.max(1) as u64,
        _ => 4,
    };
    let out = catch_unwind(AssertUnwindSafe(|| match kind {
        0 => Out::Value(m.read_u8(addr) as u32),
        1 => Out::Value(m.read_u16(addr) as u32),
        2 => Out::Value(m.read_u32(addr)),
        3 => {
            m.write_u8(addr, value as u8);
            Out::Done
        }
        4 => {
            m.write_u16(addr, value as u16);
            Out::Done
        }
        5 => {
            m.write_u32(addr, value);
            Out::Done
        }
        6 => {
            m.load_words(addr, &words);
            Out::Done
        }
        7 => Out::Checked(m.read_u32_checked(addr)),
        _ => Out::Flipped(m.corrupt_word(addr, value as u8)),
    }));
    (out.unwrap_or(Out::Panicked), width)
}

/// The out-of-range result of a fully backed array, independent of any
/// backing: plain accessors panic, the checked read is `None`, a flip is
/// refused.
fn out_of_range(kind: u8) -> Out {
    match kind {
        7 => Out::Checked(None),
        8 => Out::Flipped(false),
        _ => Out::Panicked,
    }
}

fn case() -> impl Strategy<Value = (u32, u32, Vec<Op>)> {
    (1u32..3 * GROW_STEP as u32 + 64).prop_flat_map(|size| {
        let op = (0u8..9, 0u8..5, 0u32..size + 8, 0u32..6, any::<u32>());
        (Just(size), 0u32..=size, proptest::collection::vec(op, 1..48))
    })
}

/// Run `ops` against a footprint-backed and a fully backed view of the
/// same logical memory and compare every result and the final contents.
fn differential(
    size: u32,
    init: u32,
    ops: &[Op],
    lazy: &mut ByteStore,
    full: &mut ByteStore,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(lazy.size(), size);
    prop_assert_eq!(full.size(), size);
    for (i, &op) in ops.iter().enumerate() {
        let addr = address(op.1, op.2, size, init);
        let (a, width) = apply(lazy, op, addr);
        let (b, _) = apply(full, op, addr);
        let at = format!("op {i} {op:?} at {addr:#x}");
        prop_assert_eq!(a, b, "{}: footprint {:?}, full {:?}", at, a, b);
        if op.0 == 6 && op.3 == 0 {
            prop_assert_eq!(a, Out::Done, "{}: an empty load touches nothing", at);
        } else if addr as u64 + width <= size as u64 {
            prop_assert!(a != Out::Panicked, "{}: in range, but panicked", at);
        } else {
            let want = out_of_range(op.0);
            prop_assert_eq!(a, want, "{}: out of range gave {:?}, not {:?}", at, a, want);
        }
        // Backing only ever grows to a page boundary or the logical end.
        let backed = lazy.backed_len();
        prop_assert!(
            backed == init as usize || backed.is_multiple_of(GROW_STEP) || backed == size as usize,
            "{}: backing of {} bytes",
            at,
            backed
        );
        prop_assert!(backed <= size as usize, "{}: backing past the logical size", at);
    }
    for addr in 0..size {
        prop_assert_eq!(lazy.read_u8(addr), full.read_u8(addr), "byte {:#x}", addr);
    }
    Ok(())
}

fn backings(size: u32, init: u32) -> (ByteStore, ByteStore) {
    let lazy = ByteStore::from_vec(vec![0; init as usize], size);
    let full = ByteStore::from_vec(vec![0; size as usize], size);
    (lazy, full)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn footprint_backed_shared_memory_matches_full_backing((size, init, ops) in case()) {
        let (lazy, full) = backings(size, init);
        let mut lazy = SharedMemory::new(lazy, 1, 2, 2);
        let mut full = SharedMemory::new(full, 1, 2, 2);
        differential(size, init, &ops, &mut lazy, &mut full)?;
    }
}
