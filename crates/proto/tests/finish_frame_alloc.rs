//! Heap bounds of the finish frame at both ends of the socket, and of
//! framing.
//!
//! A finish frame carries a tenant's whole history, so its encoder's
//! heap is the daemon's peak whenever a long-lived tenant finishes, and
//! its decoder's heap the client's. This binary installs a counting
//! global allocator and checks, with counts rather than timings, that
//! [`fast::write_outcomes_response_traced`] allocates no more than its
//! own output buffer, that [`write_response_frame`] streams the frame
//! through one bounded chunk, and that [`decode_response`] reads it
//! within a small multiple of the frame, while the generic `Value`
//! codec takes several times the frame either way. It counts only the
//! measuring thread's allocations, so the counts repeat exactly.

use dbp_core::session::Session;
use dbp_core::{FirstFit, ItemId};
use dbp_numeric::rat;
use dbp_proto::{
    decode_response, fast, write_frame_bytes, write_response_frame, Response, TickGrid,
    FRAME_CHUNK_BYTES,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], tracking the current thread's live bytes,
/// their peak, and its allocation calls.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.get() + bytes;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
    CALLS.set(CALLS.get() + 1);
}

fn shrink(bytes: usize) {
    // Memory allocated on this thread may be freed on another, so the
    // count saturates rather than underflows.
    LIVE.set(LIVE.get().saturating_sub(bytes));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are the caller's; the counters
// are const-initialised thread-locals without destructors, which
// neither allocate nor fail when touched.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (so
        // `System`) returned, with the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap use of one call on this thread: the peak of live bytes above
/// the level at the start, and the number of allocation calls.
#[derive(Debug)]
struct Heap {
    peak: usize,
    calls: usize,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    let base = LIVE.get();
    PEAK.set(base);
    CALLS.set(0);
    let out = f();
    let heap = Heap {
        peak: PEAK.get() - base,
        calls: CALLS.get(),
    };
    (out, heap)
}

/// One tenant's finish outcome over 24,000 items: waves of 400 arrive
/// each step on a 1/64 size grid and leave three steps later, as the
/// load generator's wave tenants do.
fn wave_outcome() -> dbp_proto::PackingOutcome {
    const WAVE: u32 = 400;
    const STEPS: u32 = 60;
    let mut session = Session::builder(FirstFit::new())
        .grid(TickGrid::new(1, 64))
        .without_checkpoints()
        .build()
        .unwrap();
    for step in 0..STEPS + 3 {
        if step >= 3 {
            for k in 0..WAVE {
                let id = ItemId((step - 3) * WAVE + k);
                session.depart(id, rat(i128::from(step), 1)).unwrap();
            }
        }
        if step < STEPS {
            for k in 0..WAVE {
                let size = rat(1 + i128::from((k + step) % 32), 64);
                let id = ItemId(step * WAVE + k);
                session.arrive(id, size, rat(i128::from(step), 1)).unwrap();
            }
        }
    }
    session.finish().unwrap()
}

#[test]
fn finish_frame_writer_allocates_only_its_buffer() {
    let outcomes = vec![wave_outcome()];
    let items: usize = outcomes[0].bins().iter().map(|b| b.items.len()).sum();
    assert!(items >= 20_000, "only {items} items");
    let trace = Some(7);

    // Into an empty buffer: the buffer's growth is the whole heap, and
    // doubling keeps its capacity under twice the frame.
    let (frame, heap) = measure(|| {
        let mut buf = Vec::new();
        fast::write_outcomes_response_traced(&mut buf, &outcomes, trace);
        buf
    });
    assert!(
        heap.peak <= 2 * frame.len(),
        "fast writer into an empty buffer: {heap:?} for a {}-byte frame",
        frame.len()
    );

    // Into a buffer that already has the capacity: nothing at all.
    let mut buf = Vec::with_capacity(frame.len());
    let ((), heap) = measure(|| fast::write_outcomes_response_traced(&mut buf, &outcomes, trace));
    assert_eq!(heap.calls, 0, "fast writer into a sized buffer: {heap:?}");
    assert_eq!(buf, frame);

    // The generic codec, as the daemon's cold frames still take it:
    // the `Value` tree plus the text.
    let response = Response::Outcomes(outcomes);
    let (text, heap) = measure(|| serde_json::value_to_string(&response.to_traced_value(trace)));
    assert_eq!(text.as_bytes(), frame.as_slice());
    assert!(
        heap.peak >= 5 * frame.len(),
        "generic codec: {heap:?} for a {}-byte frame",
        frame.len()
    );

    // Streamed, as the daemon answers `finish`: both passes run through
    // one chunk, however long the frame, and send the framed bytes.
    assert!(
        frame.len() >= 8 * FRAME_CHUNK_BYTES,
        "a {}-byte frame is too short to stream in chunks",
        frame.len()
    );
    let mut framed = Vec::new();
    write_frame_bytes(&mut framed, &frame).unwrap();
    let mut streamed = Vec::new();
    write_response_frame(&mut streamed, &mut Vec::new(), &response, trace).unwrap();
    assert!(streamed == framed, "the streamed frame differs");
    let (sent, heap) = measure(|| {
        let mut sink = std::io::sink();
        write_response_frame(&mut sink, &mut Vec::new(), &response, trace)
    });
    sent.unwrap();
    assert!(
        heap.peak <= 2 * FRAME_CHUNK_BYTES,
        "streamed frame: {heap:?} for a {}-byte frame",
        frame.len()
    );

    // Decoded, as `Client::finish` reads it: the strict parser builds
    // the outcomes alone, the generic codec a `Value` tree first.
    let (decoded, heap) = measure(|| decode_response(&frame));
    assert_eq!(decoded, Ok((response.clone(), trace)));
    assert!(
        heap.peak <= 3 * frame.len(),
        "strict parser: {heap:?} for a {}-byte frame",
        frame.len()
    );
    let (decoded, heap) = measure(|| {
        let value = serde_json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
        Response::from_traced_value(&value)
    });
    assert_eq!(decoded, Ok((response, trace)));
    assert!(
        heap.peak >= 10 * frame.len(),
        "generic decode: {heap:?} for a {}-byte frame",
        frame.len()
    );
}

/// Framing writes the length line from the stack: a payload framed
/// into a buffer with room for it allocates nothing.
#[test]
fn framing_into_a_sized_buffer_allocates_nothing() {
    for payload in [&b""[..], b"{}", &[b'7'; 100_000]] {
        let mut buf = Vec::with_capacity(payload.len() + 32);
        let (written, heap) = measure(|| write_frame_bytes(&mut buf, payload));
        written.unwrap();
        assert_eq!(heap.calls, 0, "{}-byte payload: {heap:?}", payload.len());
        assert_eq!(
            buf,
            [format!("{}\n", payload.len()).as_bytes(), payload, b"\n"].concat()
        );
    }
}
