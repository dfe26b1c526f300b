//! `SlackCache::approx_bytes` prices the heap a cache really holds.
//!
//! The fleet's memory budget charges each session its cache's
//! `approx_bytes()`, so the price must follow the heap. A counting
//! global allocator measures the bytes freed when an analyzed
//! pipeline's cache is dropped. This binary holds one test, so no other
//! thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hb_cells::sc89;
use hb_workloads::{generate, GenKind, GenParams};
use hummingbird::{Analyzer, SlackCache};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn approx_bytes_is_within_a_tenth_of_the_heap_a_cache_frees() {
    let lib = sc89();
    let w = generate(&lib, &GenParams::new(GenKind::Pipeline, 5_000, 1));
    let analyzer = Analyzer::new(&w.design, w.module, &lib, &w.clocks, w.spec.clone())
        .expect("generated designs conform");
    let mut cache = SlackCache::new();
    drop(analyzer.analyze_with_cache(&mut cache));
    drop(analyzer);

    let priced = cache.approx_bytes();
    let before = LIVE.load(Ordering::Relaxed);
    drop(cache);
    let freed = before - LIVE.load(Ordering::Relaxed);
    let off = priced.abs_diff(freed) as f64 / freed as f64;
    assert!(
        off <= 0.10,
        "approx_bytes() = {priced} B against {freed} B freed ({:+.1}%)",
        100.0 * (priced as f64 - freed as f64) / freed as f64
    );
}
