//! Allocation budget of the instruction codec: building an instruction
//! datum makes at most two allocations (the record and its values; the
//! field names are the shared layout's), and decoding or cloning one makes
//! none. Counted per thread, so tests running beside this one do not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use lss_netlist::{instr_layout, Instr, OpClass};
use lss_types::Datum;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn sample() -> Instr {
    Instr {
        pc: 0x1000,
        op: OpClass::Store as i64,
        dst: -1,
        src1: 2,
        src2: 5,
        lat: 1,
        tgt: 0x40,
        taken: 0,
    }
}

#[test]
fn instruction_codec_allocation_budget() {
    // The shared layout is built once, on first use.
    black_box(instr_layout());
    let instr = sample();

    let (n, datum) = allocs(|| black_box(instr.to_datum()));
    assert!(n <= 2, "to_datum made {n} allocations");

    let (n, decoded) = allocs(|| Instr::from_datum(black_box(&datum)));
    assert_eq!(n, 0, "from_datum made {n} allocations");
    assert_eq!(decoded, Some(instr));

    let (n, copy) = allocs(|| black_box(datum.clone()));
    assert_eq!(n, 0, "clone made {n} allocations");
    assert_eq!(copy, datum);

    // A struct with its own layout (as decoded from JSON or binary) is
    // read by name, still without allocating.
    let named = Datum::record(
        lss_netlist::INSTR_FIELDS
            .iter()
            .map(|f| (*f, datum.field(f).cloned().unwrap_or(Datum::Int(0)))),
    );
    let (n, decoded) = allocs(|| Instr::from_datum(black_box(&named)));
    assert_eq!(n, 0, "from_datum by name made {n} allocations");
    assert_eq!(decoded, Some(instr));

    let (n, equal) = allocs(|| black_box(&named) == black_box(&datum));
    assert_eq!(n, 0, "comparing made {n} allocations");
    assert!(equal);
}
