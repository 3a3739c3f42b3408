//! Allocation guard for the per-gate paths: streaming a circuit through
//! the compiler allocates per window, never per gate.
//!
//! A counting `#[global_allocator]` tallies the allocations of the
//! calling thread only, so the test harness's own threads cannot leak
//! into a count. The input is the 8×8 RCS of 2 000 cycles (184,064
//! gates) on a 64-ion tape with a 16-ion head, streamed in the default
//! window, once through `Engine::run_streaming_qasm` and once through a
//! bare `StreamingCompiler`. A `Vec` made per gate (e.g. by
//! `Gate::qubits`) shows up as several allocations per input gate; the
//! guard allows less than one per hundred.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tilt::benchmarks::stream::rcs_stream;
use tilt::circuit::qasm::write_qasm_stream;
use tilt::compiler::{StreamingCompiler, TiltOp};
use tilt::engine::DEFAULT_STREAM_WINDOW;
use tilt::prelude::*;

const ROWS: usize = 8;
const COLS: usize = 8;
const CYCLES: usize = 2_000;
const SEED: u64 = 7;
const IONS: usize = ROWS * COLS;
const HEAD: usize = 16;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts an allocation if the calling thread is being measured.
fn note_allocation() {
    // `try_with`: thread-locals may already be gone while a thread exits.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of allocations
/// (including reallocations) it made on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

fn assert_not_per_gate(what: &str, allocations: u64, gates: usize) {
    assert!(
        allocations * 100 < gates as u64,
        "{what}: {allocations} allocations for {gates} input gates \
         (the guard allows fewer than one per 100 gates)"
    );
}

fn gates() -> Vec<Gate> {
    rcs_stream(ROWS, COLS, CYCLES, SEED).collect()
}

#[test]
fn engine_streaming_qasm_does_not_allocate_per_gate() {
    let gates = gates();
    let mut qasm = Vec::new();
    write_qasm_stream(IONS, gates.iter().copied(), &mut qasm).expect("write QASM");
    let engine = Engine::tilt(DeviceSpec::new(IONS, HEAD).expect("valid tape"));

    let mut ops = 0usize;
    let mut sink = |_shard: usize, batch: &[TiltOp]| ops += batch.len();
    let (outcome, allocations) = allocations_of(|| {
        engine
            .run_streaming_qasm(&qasm[..], DEFAULT_STREAM_WINDOW, &mut sink)
            .expect("the stream compiles")
    });
    assert_eq!(outcome.input_gate_count, gates.len());
    assert!(outcome.increments >= 2, "the input spans several windows");
    assert!(ops > gates.len());
    assert_not_per_gate("Engine::run_streaming_qasm", allocations, gates.len());
}

#[test]
fn streaming_compiler_does_not_allocate_per_gate() {
    let gates = gates();
    let compiler = Compiler::new(DeviceSpec::new(IONS, HEAD).expect("valid tape"));

    let mut ops = 0usize;
    let mut sink = |batch: &[TiltOp]| ops += batch.len();
    let (summary, allocations) = allocations_of(|| {
        let mut session = StreamingCompiler::new(&compiler, IONS, DEFAULT_STREAM_WINDOW)
            .expect("the tape fits the register");
        for &g in &gates {
            session.push(g, &mut sink).expect("valid gate");
        }
        session.finish(&mut sink)
    });
    assert_eq!(summary.input_gate_count, gates.len());
    assert!(ops > gates.len());
    assert_not_per_gate("StreamingCompiler", allocations, gates.len());
}
