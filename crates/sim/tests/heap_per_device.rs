//! Memory gate: the peak live heap an episode holds per device, for the
//! centralized firehose and dknn-set on the benchmark's world (k = 10,
//! Q = 100, a 64 × 64 paging grid) at N = 20 000 over 30 ticks.
//!
//! A counting global allocator tracks live bytes, so the figure is set by
//! allocation sizes alone: the same on any host, thread count and build
//! profile. Each bound sits within 5 % above its measured peak, so a new
//! Θ(N) buffer or a fatter per-device entry fails here before it shows in
//! the benchmark's resident set. The allocator counts the whole process,
//! hence one test in this binary.

use mknn_mobility::WorkloadSpec;
use mknn_sim::{Method, SimConfig, Simulation, VerifyMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    PEAK.fetch_max(LIVE.fetch_add(bytes, Relaxed) + bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counters only read
// `layout.size()` and the returned pointer's nullness.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const N: usize = 20_000;
const TICKS: u64 = 30;

/// Peak live heap bytes per device over building `method`'s episode and
/// stepping it `TICKS` ticks, above what was live before.
fn peak_bytes_per_device(method: fn(&SimConfig) -> Method) -> f64 {
    let config = SimConfig {
        workload: WorkloadSpec {
            n_objects: N,
            seed: 42,
            ..WorkloadSpec::default()
        },
        n_queries: 100,
        k: 10,
        ticks: TICKS,
        geo_cells: 64,
        verify: VerifyMode::Off,
        shards: 1,
        client_threads: Some(1),
        ..SimConfig::default()
    };
    let proto = method(&config).build();
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let mut sim = Simulation::new(&config, proto);
    for _ in 0..TICKS {
        sim.step();
    }
    drop(sim);
    (PEAK.load(Relaxed) - base) as f64 / N as f64
}

/// Measured: centralized 289.7 B, dknn-set 322.0 B per device.
#[test]
fn peak_heap_per_device_stays_within_its_bounds() {
    let central = peak_bytes_per_device(|_| Method::Centralized { res: 64 });
    let dknn = peak_bytes_per_device(|c| Method::DknnSet(c.dknn_params()));
    eprintln!("peak live heap per device: centralized {central:.1} B, dknn-set {dknn:.1} B");
    assert!(
        central <= 300.0,
        "centralized: {central:.1} B per device, bound 300"
    );
    assert!(dknn <= 335.0, "dknn-set: {dknn:.1} B per device, bound 335");
}
