//! `History::summarize` certifies a serializable history in memory linear
//! in its operations: its peak live heap stays below the byte size of the
//! serialization graph's edge list, which it never builds. A counting
//! global allocator measures the peak; this file holds one test, so no
//! other test's allocations land in the count.

use sg_graph::{gen, Graph, VertexId};
use sg_serial::{History, TxnRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so `System` upholds the `GlobalAlloc` contract; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Four rounds in which every vertex executes once, one at a time: a
/// serial, fresh — hence one-copy serializable — history.
fn serial_history(g: &Graph) -> History {
    let mut clock = 0;
    let mut txns = Vec::new();
    for _ in 0..4 {
        for v in 0..g.num_vertices() {
            txns.push(TxnRecord {
                vertex: VertexId::new(v),
                start: clock,
                end: clock + 1,
                stale_reads: vec![],
            });
            clock += 2;
        }
    }
    History::new(txns)
}

#[test]
fn summarize_peak_heap_stays_below_the_edge_list() {
    let g = gen::rmat(10, 8 * 1024, gen::datasets::SKEW, 42).to_undirected();
    let history = serial_history(&g);

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let summary = history.summarize(&g);
    let peak = PEAK.load(Ordering::SeqCst) - before;
    assert!(summary.one_copy_serializable, "{summary}");

    // The deduplicated edges: a lower bound on the list the checker used
    // to build, repeats included.
    let edges: usize = history.serialization_graph(&g).iter().map(Vec::len).sum();
    let edge_list = edges * std::mem::size_of::<(u32, u32)>();
    assert!(
        peak < edge_list,
        "summarize peaked at {peak} live heap bytes; the {edges}-edge list alone is {edge_list}"
    );
}
