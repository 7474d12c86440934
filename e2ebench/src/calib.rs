//! Host-speed calibration.
//!
//! On a shared host the speed of one thread changes by up to 2x, for
//! stretches from under a second to minutes, as other tenants load the
//! machine; the process's CPU time grows with its wall time, so the
//! slowdown is contention for the core, not descheduling. A fixed kernel
//! of the same kind of work as the engine (string keys, hashing, sorting)
//! is timed between measurement windows, and each window's times are
//! scaled to a host on which the kernel takes `REFERENCE_MS`. A change to
//! the program does not change the kernel, so a faster program still
//! reads faster; a busier host no longer does.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference host (a quiet 2-vCPU VM).
pub const REFERENCE_MS: f64 = 2.5;

fn kernel() -> u64 {
    let mut m: HashMap<String, u64> = HashMap::new();
    let mut x = 12345u64;
    for i in 0..8000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        m.insert(format!("k{}", x >> 20), i);
    }
    let mut v: Vec<u64> = m.values().copied().collect();
    v.sort_unstable();
    let s = m.keys().fold(0u64, |s, k| s.wrapping_add(m[k]));
    s.wrapping_add(v[v.len() / 2])
}

/// Time the kernel, in milliseconds: the faster of two runs, so a single
/// interruption does not count.
pub fn measure() -> f64 {
    (0..2)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::MAX, f64::min)
}

/// Factor that scales a time measured while the kernel took `kernel_ms`
/// to the reference host.
pub fn scale(kernel_ms: f64) -> f64 {
    REFERENCE_MS / kernel_ms
}
