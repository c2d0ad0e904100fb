//! A live [`StreamingAuditor`] certifies a serializable history without
//! holding its serialization graph: the heap it retains after draining a
//! serial run stays below the byte size of the graph's deduplicated edge
//! list. A counting global allocator measures the heap; this file holds
//! one test, so no other test's allocations land in the count.

use sg_graph::{gen, Graph};
use sg_serial::{Recorder, StreamingAuditor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so `System` upholds the `GlobalAlloc` contract; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
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

/// Four rounds in which every vertex executes once, one at a time, its
/// messages visible before the next begins — a serial, fresh, hence
/// one-copy serializable run — with a drain after each round.
fn audit_serial_run(g: &Arc<Graph>, r: &Arc<Recorder>) -> StreamingAuditor {
    let mut a = StreamingAuditor::new(Arc::clone(r));
    for round in 0..4 {
        for u in g.vertices() {
            let guard = r.begin(u);
            for &t in g.out_neighbors(u) {
                r.on_send(u, t);
                r.on_visible(u, t);
            }
            r.end(guard);
        }
        assert!(a.drain().clean(), "round {round} dirtied a serial run");
    }
    a
}

#[test]
fn drained_auditor_retains_less_than_the_edge_list() {
    let g = Arc::new(gen::rmat(10, 8 * 1024, gen::datasets::SKEW, 42).to_undirected());
    let r = Arc::new(Recorder::new(Arc::clone(&g)));
    let auditor = audit_serial_run(&g, &r);
    assert_eq!(auditor.transactions(), 4 * g.num_vertices() as usize);

    // What dropping the auditor frees is what it retained; the recorder,
    // shared, stays alive.
    let with = LIVE.load(Ordering::SeqCst);
    drop(auditor);
    let retained = with - LIVE.load(Ordering::SeqCst);

    let history = r.history();
    assert!(history.summarize(&g).one_copy_serializable);
    let edges: usize = history.serialization_graph(&g).iter().map(Vec::len).sum();
    let edge_list = edges * std::mem::size_of::<(u32, u32)>();
    assert!(
        retained < edge_list,
        "the drained auditor retains {retained} heap bytes; the {edges}-edge list alone is \
         {edge_list}"
    );
}
