//! Pins the zero-copy contract of the CMDN forward pass: once the
//! ping-pong scratch buffers have grown (one warmup call per batch size),
//! an inference forward performs **zero** heap allocations — no
//! inter-layer `to_vec`, no per-call output vectors, no im2col regrowth.
//!
//! The counting allocator wraps the system one for this whole test
//! binary and counts per thread: the forward pass runs on the calling
//! thread, while the test harness allocates on its own main thread at
//! moments that can fall inside the measured window.

use everest_nn::cmdn::{Cmdn, CmdnConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator with a per-thread allocation counter.
struct CountingAlloc;

thread_local! {
    /// Allocations (and reallocations) made by this thread. A `const`
    /// initialiser and no destructor keep it usable inside the allocator.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

// SAFETY: a counting wrapper around `System` — every method forwards to
// the system allocator verbatim, so `System`'s GlobalAlloc guarantees
// (layout validity, non-aliasing) carry over; the counter is per thread.
unsafe impl GlobalAlloc for CountingAlloc {
    /// # Safety
    ///
    /// Same contract as [`System::alloc`]: `layout` must have non-zero
    /// size (forwarded unchanged).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
        System.alloc(layout)
    }

    /// # Safety
    ///
    /// Same contract as [`System::dealloc`]: `ptr` must come from this
    /// allocator with the same `layout` (forwarded unchanged).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
        System.dealloc(ptr, layout)
    }

    /// # Safety
    ///
    /// Same contract as [`System::realloc`] (forwarded unchanged).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn forward_pass_allocates_nothing_after_warmup() {
    let mut model = Cmdn::new(CmdnConfig::default());
    let batch = 4usize;
    let inputs: Vec<f32> = (0..batch * model.input_len())
        .map(|i| (i as f32 * 0.01).sin().abs())
        .collect();

    // Warmup: grows the ping-pong scratch, the im2col buffers, and the
    // GEMM pack scratch for this shape (twice, in case a buffer is grown
    // lazily on second use).
    for _ in 0..2 {
        let _ = model.predict_raw_batch(&inputs, batch);
    }

    let before = allocs();
    let mut checksum = 0.0f32;
    for _ in 0..16 {
        let raw = model.predict_raw_batch(&inputs, batch);
        checksum += raw[0];
    }
    let after = allocs();
    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state forward passes must not allocate"
    );

    // Changing the batch size regrows once, then is allocation-free again.
    let one = &inputs[..model.input_len()];
    let _ = model.predict_raw_batch(one, 1);
    let _ = model.predict_raw_batch(one, 1);
    let before = allocs();
    for _ in 0..16 {
        let _ = model.predict_raw_batch(one, 1);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "single-frame steady state must not allocate"
    );
}
