//! A combiner-free inbox allocates nothing in steady state, and keeps no
//! more block storage than its fullest moment needs. Each round inserts
//! every edge of a scale-10 R-MAT as one message to the edge's target, as
//! greedy colouring sends, then drains every slot. A counting global
//! allocator measures the rounds; this file holds one test, so no other
//! test's allocations land in the count.

use sg_engine::store::{Envelope, PartitionStore};
use sg_graph::partition::HashPartitioner;
use sg_graph::{gen, ClusterLayout, PartitionMap};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and bytes ever allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so `System` upholds the `GlobalAlloc` contract; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
            ALLOCATED.fetch_add(layout.size(), Ordering::SeqCst);
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

/// The store's block geometry: eight envelopes and a `u32` link per block,
/// 128 blocks per chunk, and the chunk list's one pointer-triple per chunk.
const BLOCK_LEN: usize = 8;
const CHUNK_BLOCKS: usize = 128;
const BLOCK_BYTES: usize = BLOCK_LEN * std::mem::size_of::<Envelope<u32>>() + 4;
const CHUNK_BYTES: usize = CHUNK_BLOCKS * BLOCK_BYTES;
const CHUNK_LIST_BYTES: usize = std::mem::size_of::<Vec<u8>>();

#[test]
fn combiner_free_rounds_reuse_their_blocks() {
    let g = gen::rmat(10, 16 * 1024, gen::datasets::SKEW, 42).to_undirected();
    let pm = PartitionMap::build(&g, ClusterLayout::new(2, 2), &HashPartitioner::new(42));
    let sends: Vec<_> = g
        .vertices()
        .flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v)))
        .map(|(u, v)| (u, pm.slot_of(v)))
        .collect();
    let sizes: Vec<usize> = pm
        .layout()
        .partitions()
        .map(|p| pm.vertices_in(p).len())
        .collect();
    // What the fullest moment — every send queued — needs, per partition:
    // each slot holds its first envelope inline and chains the rest.
    let mut queued: Vec<Vec<usize>> = sizes.iter().map(|&n| vec![0; n]).collect();
    for &(_, (p, local)) in &sends {
        queued[p.index()][local as usize] += 1;
    }
    let need: Vec<usize> = queued
        .iter()
        .map(|q| {
            q.iter()
                .map(|&n| n.saturating_sub(1).div_ceil(BLOCK_LEN))
                .sum()
        })
        .collect();
    let longest = queued.iter().flatten().copied().max().unwrap_or(0);

    let stores: Vec<PartitionStore<u32>> = sizes.iter().map(|&n| PartitionStore::new(n)).collect();
    let mut out: Vec<Envelope<u32>> = Vec::with_capacity(longest);
    let round = |out: &mut Vec<Envelope<u32>>, colour: u32| {
        for &(sender, (p, local)) in &sends {
            stores[p.index()].insert(local as usize, sender, colour, None);
        }
        let mut drained = 0;
        for (store, &n) in stores.iter().zip(&sizes) {
            let mut store = store.lock();
            for local in 0..n {
                drained += store.drain_into(local, out);
                out.clear();
            }
        }
        assert_eq!(drained, sends.len());
    };

    let before = LIVE.load(Ordering::SeqCst);
    round(&mut out, 0);
    let retained = LIVE.load(Ordering::SeqCst) - before;

    let allocated = ALLOCATED.load(Ordering::SeqCst);
    for colour in 1..4 {
        round(&mut out, colour);
    }
    let steady = ALLOCATED.load(Ordering::SeqCst) - allocated;
    assert_eq!(
        steady, 0,
        "rounds after the warm-up allocated {steady} bytes"
    );

    // Retained: each partition's blocks in whole chunks, the last one part
    // empty, plus its chunk list — within one chunk of what the fullest
    // moment needs. The need counts blocks per slot, and is above
    // ⌈queued ÷ 8⌉: a slot's last block is part full.
    let blocks_needed: usize = need.iter().sum();
    let bound: usize = need
        .iter()
        .map(|&n| {
            let chunks = n.div_ceil(CHUNK_BLOCKS);
            chunks * CHUNK_BYTES + (2 * chunks).max(4) * CHUNK_LIST_BYTES
        })
        .sum();
    assert!(
        (blocks_needed * BLOCK_BYTES..=bound).contains(&retained),
        "{retained} bytes retained for {blocks_needed} blocks of {BLOCK_BYTES} bytes; bound {bound}"
    );
}
