//! Host-side instrumentation: the counting global allocator, the
//! allocation-heavy reference probe, and the environment record.

use std::alloc::{GlobalAlloc, Layout};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use sdp_metrics::alloc::CountingAllocator;

/// The program's own byte-counting allocator (live and peak bytes,
/// read through `sdp_metrics::alloc`), plus an allocation-call count
/// for the per-layer `allocs_per_plan` ratios. The call count is kept
/// only in traced runs, so untraced timings do not pay for it.
pub struct BenchAllocator;

static COUNT_CALLS: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

fn count_call() {
    if COUNT_CALLS.load(Ordering::Relaxed) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `CountingAllocator`,
// which delegates to the system allocator; the only additions are
// relaxed counters that publish no other data.
unsafe impl GlobalAlloc for BenchAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { CountingAllocator.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { CountingAllocator.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        unsafe { CountingAllocator.realloc(ptr, layout, new_size) }
    }
}

/// Start counting allocation calls (traced runs).
pub fn count_alloc_calls() {
    COUNT_CALLS.store(true, Ordering::Relaxed);
}

/// Allocation and reallocation calls since counting started.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Time (ms) of a fixed allocation-heavy kernel, best of three. It
/// exercises only the allocator and memory system, never program code,
/// so a run whose probe reads slow ran in a slow phase of the host. The
/// probe is reported on its own and never used to scale a metric.
pub fn alloc_probe_ms() -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut boxes: Vec<Vec<u64>> = Vec::with_capacity(100_000);
            for i in 0..100_000u64 {
                boxes.push(vec![i; 4 + (i % 13) as usize]);
            }
            let sum: u64 = boxes.iter().map(|b| b[b.len() - 1]).sum();
            black_box(sum);
            drop(boxes);
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// CPU count, source revision and compiler, printed with every result.
pub fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={nproc} rev={} rustc=\"{}\"",
        git_rev(),
        env!("PERFBENCH_RUSTC")
    )
}

/// The checked-out commit, read from `.git` without spawning `git`;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
