//! Causal critical-path analysis over recorded traces.
//!
//! The trace layer records every cross-worker transfer with its destination
//! worker ([`TraceEvent::peer`]), so a run's events form a happens-before
//! DAG over virtual time: a `BatchFlush`/`ForkTransfer`/`RingPass` event is
//! an edge from the recording worker to its peer, arriving at
//! [`TraceEvent::end_ns`]. This module reconstructs that DAG per run,
//! extracts the critical path through each superstep (the chain of work and
//! waits that actually determined when the barrier released), and
//! attributes every nanosecond of makespan to one of the paper's overhead
//! categories:
//!
//! * **compute** — vertex programs executing on the critical path;
//! * **comm** — message batch latency the path waited on;
//! * **token wait** — token-ring serialization (a ring pass in flight, or
//!   compute that ran with *zero* concurrent compute anywhere else because
//!   the technique serializes execution behind a token);
//! * **fork wait** — Chandy–Misra fork/philosopher waiting (lock waits and
//!   fork transfers in flight);
//! * **barrier** — the barrier advance itself plus start-of-superstep skew;
//! * **idle** — path time no recorded event explains (ring overflow, or a
//!   genuinely unattributed stall).
//!
//! The six categories partition the makespan exactly — `sum == makespan`
//! always (verified by tests). The **critical path length** is
//! `makespan − idle`: everything the analysis could causally explain.
//!
//! ## Path extraction
//!
//! Supersteps are segmented by `BarrierWait` events: the *frontier* of
//! superstep `s` is the latest barrier arrival (`max(ts + dur)`), and the
//! *straggler* is the worker that arrived last (maximum `ts` — its `dur` is
//! the smallest, usually zero, because the barrier releases when *it*
//! arrives). The span `[frontier(s−1), frontier(s)]` is then walked along
//! the straggler's own timeline: its `VertexExecute`, `LockWait`,
//! `RingPass`, and `BatchFlush` intervals cover parts of the span directly
//! (highest-priority covering interval wins); uncovered gaps with an
//! incoming ring pass still ahead are token wait outright (the worker
//! cannot run until the token reaches it); other gaps are attributed to
//! the latest incoming cross-worker arrival landing inside them
//! (batch → comm, fork transfer / request token → fork wait); the leading
//! gap before the straggler's first event is the barrier advance + skew;
//! anything left is idle. Runs without barriers (the
//! asynchronous GAS engine) are treated as one span whose straggler is the
//! worker whose events end last.
//!
//! ## Token-serialization refinement
//!
//! Under token passing the critical path runs *through the holder*: the
//! makespan is dominated not by ring-pass latency but by the fact that
//! only the holder executes and flushes. When a trace contains `RingPass`
//! events, on-path compute and comm that overlapped zero compute on every
//! other worker are reclassified → token wait: that time was serialized by
//! the token, not by the algorithm or the network (the same batch latency
//! under partition-based locking overlaps other partitions' compute and
//! stays comm). This is what makes single-layer token passing's
//! attribution show the paper's serial-chain story.

use crate::json::Json;
use crate::trace::{TraceBuffer, TraceEvent, TraceEventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a nanosecond of critical-path (or makespan) time went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// Vertex programs executing on the path.
    Compute = 0,
    /// Message/batch communication latency the path waited on.
    Comm = 1,
    /// Token-ring serialization: passes in flight, or compute serialized
    /// behind the token.
    TokenWait = 2,
    /// Chandy–Misra fork/philosopher waiting (lock waits, fork transfers).
    ForkWait = 3,
    /// Barrier advance and start-of-superstep skew.
    Barrier = 4,
    /// Unattributed path time (ring overflow or unexplained stall).
    Idle = 5,
}

impl Category {
    /// Number of categories.
    pub const COUNT: usize = 6;

    /// Every category, in display order.
    pub const ALL: [Category; Category::COUNT] = [
        Category::Compute,
        Category::Comm,
        Category::TokenWait,
        Category::ForkWait,
        Category::Barrier,
        Category::Idle,
    ];

    /// Stable snake_case name (JSON keys are `<name>_ns`).
    pub fn name(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Comm => "comm",
            Category::TokenWait => "token_wait",
            Category::ForkWait => "fork_wait",
            Category::Barrier => "barrier",
            Category::Idle => "idle",
        }
    }

    /// Inverse of [`Category::name`] — used when parsing exported reports.
    pub fn from_name(name: &str) -> Option<Category> {
        Category::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// Nanoseconds per [`Category`]; always partitions the analyzed makespan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    ns: [u64; Category::COUNT],
}

impl Attribution {
    /// Nanoseconds attributed to `c`.
    #[inline]
    pub fn get(&self, c: Category) -> u64 {
        self.ns[c as usize]
    }

    /// Add `ns` to `c`.
    #[inline]
    pub fn add(&mut self, c: Category, ns: u64) {
        self.ns[c as usize] += ns;
    }

    /// Move `ns` from `from` to `to` (saturating at `from`'s balance).
    fn transfer(&mut self, from: Category, to: Category, ns: u64) {
        let moved = ns.min(self.ns[from as usize]);
        self.ns[from as usize] -= moved;
        self.ns[to as usize] += moved;
    }

    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Accumulate another attribution into this one.
    pub fn merge(&mut self, other: &Attribution) {
        for c in Category::ALL {
            self.add(c, other.get(c));
        }
    }

    /// Share of `c` in the total, in percent (0 when empty).
    pub fn percent(&self, c: Category) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            100.0 * self.get(c) as f64 / total as f64
        }
    }

    /// The category with the largest share.
    pub fn dominant(&self) -> Category {
        Category::ALL
            .into_iter()
            .max_by_key(|&c| self.get(c))
            .unwrap_or(Category::Idle)
    }

    /// Flat JSON object, one `<name>_ns` key per category.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            (Category::ALL.into_iter())
                .map(|c| (format!("{}_ns", c.name()), self.get(c).into()))
                .collect(),
        )
    }
}

/// The critical path through one superstep span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuperstepPath {
    /// Superstep number (0 for barrierless runs' single span).
    pub superstep: u64,
    /// Span start (previous barrier frontier), virtual ns.
    pub start_ns: u64,
    /// Span end (this superstep's barrier frontier), virtual ns.
    pub end_ns: u64,
    /// The worker whose late arrival defined this superstep's frontier —
    /// the critical path runs along its timeline.
    pub straggler: u32,
    /// Where the span's time went.
    pub attribution: Attribution,
}

/// One aggregated happens-before edge class: all transfers `from → to` of
/// one kind, with how often they happened and how much virtual time they
/// carried. Sorted by `total_ns` descending in the report — the top entries
/// are the run's dominant blocking edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockingEdge {
    /// Sending worker.
    pub from: u32,
    /// Receiving worker.
    pub to: u32,
    /// Transfer kind (`BatchFlush`, `ForkTransfer`, `RequestToken`,
    /// `RingPass`).
    pub kind: TraceEventKind,
    /// Number of transfers aggregated.
    pub count: u64,
    /// Total virtual time in flight.
    pub total_ns: u64,
}

/// Everything the critical-path analysis derives from one run's trace.
#[derive(Clone, Debug, Default)]
pub struct CriticalPathReport {
    /// The analyzed makespan (attribution partitions exactly this).
    pub makespan_ns: u64,
    /// Whole-run attribution; `total() == makespan_ns`.
    pub attribution: Attribution,
    /// Per-superstep critical paths, in superstep order.
    pub per_superstep: Vec<SuperstepPath>,
    /// Aggregated cross-worker edges, largest `total_ns` first.
    pub blocking_edges: Vec<BlockingEdge>,
    /// Largest per-worker compute coverage (union of `VertexExecute`
    /// intervals — a lower bound on any schedule's makespan).
    pub max_worker_busy_ns: u64,
}

impl CriticalPathReport {
    /// Length of the causally-explained path: `makespan − idle`.
    pub fn critical_path_ns(&self) -> u64 {
        self.makespan_ns - self.attribution.get(Category::Idle)
    }

    /// Human-readable report: attribution table, per-superstep paths, and
    /// the `top_k` heaviest blocking edges.
    pub fn render_text(&self, top_k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {} of {} makespan ({:.1}%), max worker busy {}",
            crate::simtime::fmt_sim_ns(self.critical_path_ns()),
            crate::simtime::fmt_sim_ns(self.makespan_ns),
            if self.makespan_ns == 0 {
                0.0
            } else {
                100.0 * self.critical_path_ns() as f64 / self.makespan_ns as f64
            },
            crate::simtime::fmt_sim_ns(self.max_worker_busy_ns),
        );
        let _ = writeln!(out, "\nmakespan attribution:");
        let _ = writeln!(out, "{:>12} {:>14} {:>7}", "category", "time", "share");
        for c in Category::ALL {
            let _ = writeln!(
                out,
                "{:>12} {:>14} {:>6.1}%",
                c.name(),
                crate::simtime::fmt_sim_ns(self.attribution.get(c)),
                self.attribution.percent(c)
            );
        }
        if !self.per_superstep.is_empty() {
            let _ = writeln!(out, "\nper-superstep critical path:");
            let _ = writeln!(
                out,
                "{:>9} {:>14} {:>9} {:>12}",
                "superstep", "span", "straggler", "dominant"
            );
            for p in &self.per_superstep {
                let dom = p.attribution.dominant();
                let _ = writeln!(
                    out,
                    "{:>9} {:>14} {:>9} {:>9} {:>4.0}%",
                    p.superstep,
                    crate::simtime::fmt_sim_ns(p.end_ns - p.start_ns),
                    format!("w{}", p.straggler),
                    dom.name(),
                    p.attribution.percent(dom)
                );
            }
        }
        if !self.blocking_edges.is_empty() {
            let _ = writeln!(out, "\ntop blocking edges:");
            let _ = writeln!(
                out,
                "{:>14} {:>15} {:>8} {:>14}",
                "edge", "kind", "count", "total"
            );
            for e in self.blocking_edges.iter().take(top_k) {
                let _ = writeln!(
                    out,
                    "{:>14} {:>15} {:>8} {:>14}",
                    format!("w{} -> w{}", e.from, e.to),
                    e.kind.name(),
                    e.count,
                    crate::simtime::fmt_sim_ns(e.total_ns)
                );
            }
        }
        out
    }

    /// Machine-readable JSON.
    pub fn to_json(&self) -> Json {
        let supersteps = self.per_superstep.iter().map(|p| {
            Json::obj([
                ("superstep", p.superstep.into()),
                ("start_ns", p.start_ns.into()),
                ("end_ns", p.end_ns.into()),
                ("straggler", p.straggler.into()),
                ("attribution", p.attribution.to_json()),
            ])
        });
        let edges = self.blocking_edges.iter().map(|e| {
            Json::obj([
                ("from", e.from.into()),
                ("to", e.to.into()),
                ("kind", e.kind.name().into()),
                ("count", e.count.into()),
                ("total_ns", e.total_ns.into()),
            ])
        });
        Json::obj([
            ("makespan_ns", self.makespan_ns.into()),
            ("critical_path_ns", self.critical_path_ns().into()),
            ("max_worker_busy_ns", self.max_worker_busy_ns.into()),
            ("attribution", self.attribution.to_json()),
            ("supersteps", supersteps.collect()),
            ("blocking_edges", edges.collect()),
        ])
    }
}

/// Analyze a live trace buffer (convenience over [`analyze`]).
pub fn analyze_buffer(buf: &TraceBuffer, makespan_ns: u64) -> CriticalPathReport {
    analyze(&buf.all_events(), makespan_ns)
}

/// Reconstruct the happens-before DAG from `events` and attribute all of
/// `makespan_ns` to overhead categories. `events` need not be sorted.
pub fn analyze(events: &[TraceEvent], makespan_ns: u64) -> CriticalPathReport {
    let spans = segment_supersteps(events, makespan_ns);
    let has_ring = events.iter().any(|e| e.kind == TraceEventKind::RingPass);

    // Walking a span scans one worker's own events plus its incoming
    // arrivals; index both once so the whole analysis stays linear in the
    // event count rather than supersteps × events (512-worker simulator
    // traces reach millions of events).
    let workers = events
        .iter()
        .map(|e| (e.worker + 1).max(e.peer.map_or(0, |p| p + 1)))
        .max()
        .unwrap_or(0) as usize;
    let mut own_idx: Vec<Vec<&TraceEvent>> = vec![Vec::new(); workers];
    let mut arrival_idx: Vec<Vec<&TraceEvent>> = vec![Vec::new(); workers];
    for e in events {
        own_idx[e.worker as usize].push(e);
        if let Some(p) = e.peer {
            if p != e.worker {
                arrival_idx[p as usize].push(e);
            }
        }
    }

    let mut attribution = Attribution::default();
    let mut per_superstep = Vec::with_capacity(spans.len());
    // On-path compute/comm sub-intervals, tagged with their span index, for
    // the token-serialization refinement pass.
    let mut path_intervals: Vec<(usize, u32, u64, u64, Category)> = Vec::new();
    let mut cursor = 0u64;
    for (idx, &(superstep, start, end, straggler)) in spans.iter().enumerate() {
        let w = straggler as usize;
        let (attr, intervals) = walk_span(
            own_idx.get(w).map_or(&[][..], Vec::as_slice),
            arrival_idx.get(w).map_or(&[][..], Vec::as_slice),
            start,
            end,
        );
        attribution.merge(&attr);
        for (s, e, cat) in intervals {
            path_intervals.push((idx, straggler, s, e, cat));
        }
        per_superstep.push(SuperstepPath {
            superstep,
            start_ns: start,
            end_ns: end,
            straggler,
            attribution: attr,
        });
        cursor = end;
    }
    // The region after the last barrier frontier is the terminal barrier
    // advance (clocks level then advance by barrier_ns after the last
    // recorded BarrierWait) — causally a barrier cost.
    if makespan_ns > cursor {
        attribution.add(Category::Barrier, makespan_ns - cursor);
    }

    // Per-worker compute coverage (union, not sum: engine threads sharing a
    // worker overlap).
    let busy = busy_coverage(events);
    let max_worker_busy_ns = busy.values().map(|iv| coverage_len(iv)).max().unwrap_or(0);

    if has_ring {
        refine_token_serialization(&busy, &path_intervals, &mut attribution, &mut per_superstep);
    }

    CriticalPathReport {
        makespan_ns,
        attribution,
        per_superstep,
        blocking_edges: blocking_edges(events),
        max_worker_busy_ns,
    }
}

/// `(superstep, start, end, straggler)` spans tiling `[0, last_frontier]`.
fn segment_supersteps(events: &[TraceEvent], makespan_ns: u64) -> Vec<(u64, u64, u64, u32)> {
    let mut barriers: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if e.kind == TraceEventKind::BarrierWait {
            barriers.entry(e.superstep).or_default().push(e);
        }
    }
    let mut spans = Vec::new();
    let mut cursor = 0u64;
    for (ss, evs) in &barriers {
        let frontier = evs
            .iter()
            .map(|e| e.end_ns())
            .max()
            .unwrap_or(0)
            .min(makespan_ns);
        // The straggler arrived last: maximum ts (its barrier wait is the
        // shortest — the barrier released on its arrival).
        let straggler = evs
            .iter()
            .max_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)))
            .map_or(0, |e| e.worker);
        if frontier > cursor {
            spans.push((*ss, cursor, frontier, straggler));
            cursor = frontier;
        }
    }
    if spans.is_empty() && makespan_ns > 0 {
        // Barrierless (asynchronous GAS): one span; the path follows the
        // worker whose recorded activity ends last.
        let straggler = events
            .iter()
            .max_by_key(|e| e.end_ns())
            .map_or(0, |e| e.worker);
        spans.push((0, 0, makespan_ns, straggler));
    }
    spans
}

/// Priority of a worker-local interval kind on the path: lower wins when
/// intervals overlap (compute explains time better than the waits that
/// merely contained it).
fn own_interval(kind: TraceEventKind) -> Option<(Category, u8)> {
    match kind {
        TraceEventKind::VertexExecute => Some((Category::Compute, 0)),
        TraceEventKind::LockWait => Some((Category::ForkWait, 1)),
        TraceEventKind::RingPass => Some((Category::TokenWait, 2)),
        TraceEventKind::BatchFlush => Some((Category::Comm, 3)),
        _ => None,
    }
}

/// What an incoming cross-worker arrival explains a gap as. `RequestToken`
/// is Chandy–Misra fork-protocol traffic (a philosopher asking for a
/// fork), so it explains fork waiting, not token-ring serialization.
fn arrival_category(kind: TraceEventKind) -> Option<Category> {
    match kind {
        TraceEventKind::BatchFlush => Some(Category::Comm),
        TraceEventKind::RingPass => Some(Category::TokenWait),
        TraceEventKind::ForkTransfer | TraceEventKind::RequestToken => Some(Category::ForkWait),
        _ => None,
    }
}

/// Walk `[start, end]` along one worker's timeline; `own_events` are the
/// worker's own records and `incoming` the cross-worker records targeting
/// it (both pre-indexed by the caller). Returns the span's attribution
/// plus the on-path compute/comm sub-intervals (tagged with their
/// category, for the token-serialization refinement).
fn walk_span(
    own_events: &[&TraceEvent],
    incoming: &[&TraceEvent],
    start: u64,
    end: u64,
) -> (Attribution, Vec<(u64, u64, Category)>) {
    struct Own {
        s: u64,
        e: u64,
        cat: Category,
        prio: u8,
    }
    let own: Vec<Own> = own_events
        .iter()
        .filter(|e| e.dur_ns > 0)
        .filter_map(|e| {
            let (cat, prio) = own_interval(e.kind)?;
            let s = e.ts_ns.max(start);
            let en = e.end_ns().min(end);
            (s < en).then_some(Own {
                s,
                e: en,
                cat,
                prio,
            })
        })
        .collect();
    let mut arrivals: Vec<(u64, Category)> = incoming
        .iter()
        .filter_map(|e| {
            let cat = arrival_category(e.kind)?;
            let t = e.end_ns();
            (t > start && t <= end).then_some((t, cat))
        })
        .collect();
    arrivals.sort_unstable_by_key(|a| a.0);
    // Incoming ring passes: while one is still ahead, the worker cannot
    // execute no matter what else lands — the token serializes it.
    let ring_arrivals: Vec<u64> = incoming
        .iter()
        .filter(|e| e.kind == TraceEventKind::RingPass)
        .map(|e| e.end_ns())
        .filter(|&t| t > start && t <= end)
        .collect();

    let mut pts: Vec<u64> = Vec::with_capacity(own.len() * 2 + arrivals.len() + 2);
    pts.push(start);
    pts.push(end);
    for o in &own {
        pts.push(o.s);
        pts.push(o.e);
    }
    // Arrivals split gaps: time up to an arrival was waiting for it; time
    // after it was not.
    for &(t, _) in &arrivals {
        pts.push(t);
    }
    pts.sort_unstable();
    pts.dedup();

    let first_own = own.iter().map(|o| o.s).min();
    let mut attr = Attribution::default();
    let mut path_tagged = Vec::new();
    for win in pts.windows(2) {
        let (a, b) = (win[0], win[1]);
        if a >= b {
            continue;
        }
        // Elementary segment: every own interval either covers it fully or
        // not at all, so containment is a simple bounds check.
        match own
            .iter()
            .filter(|o| o.s <= a && o.e >= b)
            .min_by_key(|o| o.prio)
        {
            Some(o) => {
                attr.add(o.cat, b - a);
                if matches!(o.cat, Category::Compute | Category::Comm) {
                    path_tagged.push((a, b, o.cat));
                }
            }
            None => {
                // A gap with an incoming ring pass still ahead is token
                // wait outright: the worker cannot execute until the token
                // reaches it, whatever else (message batches) lands first.
                // Otherwise the gap ended when its latest incoming arrival
                // landed — the wait was *for* that transfer. With no
                // arrival, the leading gap (before this worker's first
                // event) is the barrier advance that started the superstep
                // plus start skew; any later unexplained gap is idle.
                let token_pending = ring_arrivals.iter().any(|&t| t >= b);
                let by_arrival = arrivals
                    .iter()
                    .rev()
                    .find(|(t, _)| *t > a && *t <= b)
                    .map(|&(_, c)| c);
                let cat = if token_pending {
                    Category::TokenWait
                } else {
                    match by_arrival {
                        Some(c) => c,
                        None if first_own.is_none_or(|f| b <= f) => Category::Barrier,
                        None => Category::Idle,
                    }
                };
                attr.add(cat, b - a);
                if cat == Category::Comm {
                    path_tagged.push((a, b, cat));
                }
            }
        }
    }
    (attr, path_tagged)
}

/// Per-worker merged `VertexExecute` interval lists (sorted, disjoint).
fn busy_coverage(events: &[TraceEvent]) -> BTreeMap<u32, Vec<(u64, u64)>> {
    let mut raw: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        if e.kind == TraceEventKind::VertexExecute && e.dur_ns > 0 {
            raw.entry(e.worker).or_default().push((e.ts_ns, e.end_ns()));
        }
    }
    raw.into_iter().map(|(w, iv)| (w, merge(iv))).collect()
}

/// Merge possibly-overlapping intervals into a sorted disjoint list.
fn merge(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of a merged interval list.
fn coverage_len(iv: &[(u64, u64)]) -> u64 {
    iv.iter().map(|&(s, e)| e - s).sum()
}

/// Length of `[s, e)` covered by the merged list `iv`.
fn overlap_len(iv: &[(u64, u64)], s: u64, e: u64) -> u64 {
    iv.iter()
        .map(|&(a, b)| b.min(e).saturating_sub(a.max(s)))
        .sum()
}

/// Token-serialization refinement: on-path compute (and the path worker's
/// own batch flushes) with zero concurrent compute on any *other* worker
/// was serialized behind the token — reattribute it → token wait
/// (whole-run and per-superstep). Under a token ring only the holder runs,
/// so its solo compute *and* the flush latency it pays alone are both
/// costs of the serialization, not of the algorithm.
fn refine_token_serialization(
    busy: &BTreeMap<u32, Vec<(u64, u64)>>,
    path_intervals: &[(usize, u32, u64, u64, Category)],
    attribution: &mut Attribution,
    per_superstep: &mut [SuperstepPath],
) {
    // Union of every worker's compute coverage except `w`, built lazily per
    // distinct straggler (few workers, so the quadratic union is cheap).
    let mut others_cache: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for &(span_idx, w, s, e, from) in path_intervals {
        let others = others_cache.entry(w).or_insert_with(|| {
            merge(
                busy.iter()
                    .filter(|&(&ow, _)| ow != w)
                    .flat_map(|(_, iv)| iv.iter().copied())
                    .collect(),
            )
        });
        let solo = (e - s) - overlap_len(others, s, e);
        if solo > 0 {
            attribution.transfer(from, Category::TokenWait, solo);
            per_superstep[span_idx]
                .attribution
                .transfer(from, Category::TokenWait, solo);
        }
    }
}

/// Aggregate cross-worker transfers by `(from, to, kind)`, heaviest first.
fn blocking_edges(events: &[TraceEvent]) -> Vec<BlockingEdge> {
    let mut agg: BTreeMap<(u32, u32, u8), (u64, u64)> = BTreeMap::new();
    for e in events {
        if let Some(to) = e.peer {
            let slot = agg.entry((e.worker, to, e.kind as u8)).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += e.dur_ns;
        }
    }
    let mut edges: Vec<BlockingEdge> = agg
        .into_iter()
        .map(|((from, to, kind), (count, total_ns))| BlockingEdge {
            from,
            to,
            kind: TraceEventKind::try_from(kind).expect("aggregated from a decoded kind"),
            count,
            total_ns,
        })
        .collect();
    edges.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.from.cmp(&b.from)));
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        worker: u32,
        superstep: u64,
        kind: TraceEventKind,
        ts: u64,
        dur: u64,
        peer: Option<u32>,
    ) -> TraceEvent {
        TraceEvent {
            worker,
            superstep,
            kind,
            ts_ns: ts,
            dur_ns: dur,
            arg: 0,
            peer,
        }
    }

    #[test]
    fn empty_trace_is_all_barrier_or_nothing() {
        let r = analyze(&[], 0);
        assert_eq!(r.makespan_ns, 0);
        assert_eq!(r.attribution.total(), 0);
        let r = analyze(&[], 1_000);
        // No events at all: the single barrierless span walks a straggler
        // with no own events — a leading gap, i.e. barrier/skew.
        assert_eq!(r.attribution.total(), 1_000);
        assert_eq!(r.attribution.get(Category::Barrier), 1_000);
    }

    #[test]
    fn attribution_partitions_makespan_exactly() {
        // Two workers, one superstep, barrier at 1000, makespan 1200.
        let events = vec![
            ev(0, 0, TraceEventKind::VertexExecute, 0, 400, None),
            ev(0, 0, TraceEventKind::BatchFlush, 400, 100, Some(1)),
            ev(1, 0, TraceEventKind::VertexExecute, 0, 300, None),
            ev(0, 0, TraceEventKind::BarrierWait, 500, 500, None),
            ev(1, 0, TraceEventKind::BarrierWait, 1_000, 0, None),
        ];
        let r = analyze(&events, 1_200);
        assert_eq!(r.attribution.total(), 1_200);
        // Straggler is worker 1 (latest barrier ts).
        assert_eq!(r.per_superstep.len(), 1);
        assert_eq!(r.per_superstep[0].straggler, 1);
        // Worker 1: compute [0,300), gap [300,500) explained by the batch
        // arriving at 500, gap [500,1000) unexplained -> idle; terminal
        // region [1000,1200) -> barrier.
        assert_eq!(r.attribution.get(Category::Compute), 300);
        assert_eq!(r.attribution.get(Category::Comm), 200);
        assert_eq!(r.attribution.get(Category::Idle), 500);
        assert_eq!(r.attribution.get(Category::Barrier), 200);
        assert_eq!(r.critical_path_ns(), 700);
        assert_eq!(r.max_worker_busy_ns, 400);
    }

    #[test]
    fn compute_beats_containing_lock_wait() {
        // A LockWait spanning the whole superstep must not shadow the
        // compute inside it.
        let events = vec![
            ev(0, 0, TraceEventKind::LockWait, 0, 1_000, None),
            ev(0, 0, TraceEventKind::VertexExecute, 200, 300, None),
            ev(0, 0, TraceEventKind::BarrierWait, 1_000, 0, None),
        ];
        let r = analyze(&events, 1_000);
        assert_eq!(r.attribution.get(Category::Compute), 300);
        assert_eq!(r.attribution.get(Category::ForkWait), 700);
        assert_eq!(r.attribution.total(), 1_000);
    }

    #[test]
    fn token_serialized_compute_reclassifies_as_token_wait() {
        // Two workers alternating behind a token: neither's compute
        // overlaps the other's, and ring passes exist, so on-path compute
        // becomes token wait.
        let events = vec![
            ev(0, 0, TraceEventKind::VertexExecute, 0, 400, None),
            ev(0, 0, TraceEventKind::RingPass, 400, 100, Some(1)),
            ev(1, 0, TraceEventKind::VertexExecute, 500, 400, None),
            ev(0, 0, TraceEventKind::BarrierWait, 400, 500, None),
            ev(1, 0, TraceEventKind::BarrierWait, 900, 0, None),
        ];
        let r = analyze(&events, 900);
        assert_eq!(r.attribution.total(), 900);
        assert_eq!(r.attribution.get(Category::Compute), 0);
        // Straggler w1: the gap [0,500) ends with the ring pass arriving
        // at 500 (token wait), and its compute [500,900) overlaps no other
        // worker's compute (solo behind the token) -> token wait too.
        assert_eq!(r.attribution.get(Category::TokenWait), 900);
        assert_eq!(r.attribution.get(Category::Barrier), 0);
    }

    #[test]
    fn token_serialized_comm_reclassifies_as_token_wait() {
        // The holder (w0) computes, then pays its batch latency to the
        // straggler (w1) with nobody else computing; the straggler's
        // comm-classified wait for that batch was serialized behind the
        // token, so the ring's presence turns it into token wait. The
        // compute overlapping w0's execution stays untouched on w1's side.
        let events = vec![
            ev(0, 0, TraceEventKind::VertexExecute, 0, 200, None),
            ev(0, 0, TraceEventKind::RingPass, 200, 100, Some(1)),
            ev(0, 0, TraceEventKind::BatchFlush, 300, 500, Some(1)),
            ev(0, 0, TraceEventKind::BarrierWait, 300, 500, None),
            ev(1, 0, TraceEventKind::BarrierWait, 800, 0, None),
        ];
        let r = analyze(&events, 800);
        assert_eq!(r.attribution.total(), 800);
        // Straggler w1 never executes: [0,300) waits for the incoming ring
        // pass (token wait), [300,800) waits for the batch arriving at 800
        // — comm by arrival, but with zero concurrent compute anywhere
        // under a ring technique it is reclassified to token wait.
        assert_eq!(r.attribution.get(Category::Comm), 0);
        assert_eq!(r.attribution.get(Category::TokenWait), 800);
    }

    #[test]
    fn without_ring_passes_comm_stays_comm() {
        // Same shape minus the ring pass: the straggler's whole wait ends
        // at the batch arrival, so it all stays comm.
        let events = vec![
            ev(0, 0, TraceEventKind::VertexExecute, 0, 300, None),
            ev(0, 0, TraceEventKind::BatchFlush, 300, 500, Some(1)),
            ev(0, 0, TraceEventKind::BarrierWait, 300, 500, None),
            ev(1, 0, TraceEventKind::BarrierWait, 800, 0, None),
        ];
        let r = analyze(&events, 800);
        assert_eq!(r.attribution.get(Category::TokenWait), 0);
        assert_eq!(r.attribution.get(Category::Comm), 800);
    }

    #[test]
    fn without_ring_passes_solo_compute_stays_compute() {
        let events = vec![
            ev(0, 0, TraceEventKind::VertexExecute, 0, 400, None),
            ev(0, 0, TraceEventKind::BarrierWait, 400, 0, None),
        ];
        let r = analyze(&events, 400);
        assert_eq!(r.attribution.get(Category::Compute), 400);
        assert_eq!(r.attribution.get(Category::TokenWait), 0);
    }

    #[test]
    fn barrierless_run_uses_single_span() {
        let events = vec![
            ev(0, 0, TraceEventKind::VertexExecute, 0, 300, None),
            ev(1, 0, TraceEventKind::VertexExecute, 0, 900, None),
        ];
        let r = analyze(&events, 1_000);
        assert_eq!(r.per_superstep.len(), 1);
        assert_eq!(r.per_superstep[0].straggler, 1);
        assert_eq!(r.attribution.get(Category::Compute), 900);
        assert_eq!(r.attribution.total(), 1_000);
        assert!(r.critical_path_ns() >= r.max_worker_busy_ns);
    }

    #[test]
    fn blocking_edges_aggregate_and_sort() {
        let events = vec![
            ev(0, 0, TraceEventKind::BatchFlush, 0, 100, Some(1)),
            ev(0, 0, TraceEventKind::BatchFlush, 200, 300, Some(1)),
            ev(1, 0, TraceEventKind::ForkTransfer, 0, 50, Some(0)),
        ];
        let r = analyze(&events, 1_000);
        assert_eq!(r.blocking_edges.len(), 2);
        assert_eq!(r.blocking_edges[0].from, 0);
        assert_eq!(r.blocking_edges[0].count, 2);
        assert_eq!(r.blocking_edges[0].total_ns, 400);
        assert_eq!(r.blocking_edges[1].kind, TraceEventKind::ForkTransfer);
    }

    #[test]
    fn report_renders_and_serializes() {
        let events = vec![
            ev(0, 0, TraceEventKind::VertexExecute, 0, 500, None),
            ev(0, 0, TraceEventKind::BatchFlush, 500, 100, Some(1)),
            ev(1, 0, TraceEventKind::VertexExecute, 100, 450, None),
            ev(0, 0, TraceEventKind::BarrierWait, 600, 0, None),
            ev(1, 0, TraceEventKind::BarrierWait, 550, 50, None),
        ];
        let r = analyze(&events, 800);
        let text = r.render_text(5);
        assert!(text.contains("makespan attribution:"));
        assert!(text.contains("per-superstep critical path:"));
        assert!(text.contains("top blocking edges:"));
        let doc = Json::parse(&r.to_json().to_string()).unwrap();
        let attribution = doc.get("attribution").unwrap();
        for c in Category::ALL {
            let ns = attribution.get(&format!("{}_ns", c.name()));
            assert_eq!(ns.and_then(Json::as_u64), Some(r.attribution.get(c)));
        }
        let cp = doc.get("critical_path_ns").and_then(Json::as_u64);
        assert_eq!(cp, Some(r.critical_path_ns()));
        let edges = doc.get("blocking_edges").and_then(Json::as_arr).unwrap();
        assert_eq!(edges.len(), r.blocking_edges.len());
        let kind = edges[0].get("kind").and_then(Json::as_str);
        assert_eq!(kind, Some(r.blocking_edges[0].kind.name()));
    }

    #[test]
    fn category_names_roundtrip() {
        for c in Category::ALL {
            assert_eq!(Category::from_name(c.name()), Some(c));
        }
        assert_eq!(Category::from_name("bogus"), None);
    }
}
