//! What the harness asks of the operating system around the product's
//! work: one vCPU for the whole process, the heap's size from glibc's own
//! accounting, and the peak resident set of one cycle. Linux with glibc.

/// `struct mallinfo2` of glibc 2.33 and later.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    /// Bytes in blocks `malloc` took straight from `mmap`.
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    /// Bytes in use in the main arena.
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it spawns from now on, to the
/// last vCPU it may run on; returns that vCPU. Two threads that wake each
/// other pay 4 us per wake-up within one vCPU of the reference host and 40 us
/// across two, and the guest scheduler decides at spawn which it will be for
/// the life of a run, so unpinned runs of one binary fall into a fast and a
/// slow regime up to a factor of two apart (`perf/README.md`, "Noise"). The
/// last vCPU, because interrupts are served on the first.
pub fn pin_to_last_cpu() -> Option<u32> {
    let mut set = [0u64; 16];
    let bytes = std::mem::size_of_val(&set);
    // SAFETY: `set` is `bytes` long and lives across the call.
    if unsafe { sched_getaffinity(0, bytes, set.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = set.iter().rposition(|w| *w != 0)?;
    let bit = 63 - set[word].leading_zeros();
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: as above; the kernel only reads `one`.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word as u32 * 64 + bit)
}

fn heap_in_use() -> usize {
    // SAFETY: `mallinfo2` takes no arguments and returns its struct by
    // value; the declaration above matches glibc's.
    let m = unsafe { mallinfo2() };
    m.uordblks + m.hblkhd
}

/// MiB still allocated of what `f` allocated, measured while its result is
/// alive. For single-threaded probes on the main thread only: glibc
/// accounts here for the main arena and for `mmap`ed blocks, not for the
/// arenas of other threads.
pub fn live_mib_of<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = heap_in_use();
    let out = f();
    let grown = heap_in_use().saturating_sub(before);
    (out, grown as f64 / (1024.0 * 1024.0))
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Hand the heap's free pages back to the kernel, so that a cycle starts
/// from what a fresh process would hold and not from whatever heap the
/// cycles before it left behind.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only releases memory `free` already returned.
    unsafe { malloc_trim(0) };
}
