//! Host-speed probe: a fixed kernel, owned by the benchmark, timed
//! after each of the program's timed calls.
//!
//! The benchmark runs on a shared host whose speed moves by up to half
//! over seconds to minutes, most likely with the load on the sibling
//! hardware thread: a 64×64 f64 GEMM in L1 alternates between about
//! 0.10 and 0.20 ms, and `paper_train`'s audit between about 28 and
//! 47 ms, in step. Such a state can cover a whole run, so the raw
//! medians of two runs differ by a third however long the runs are. The
//! probe's time moves with the host and not with the program, so each
//! call's wall time is scaled by `NOMINAL_S` over the probe time around
//! it: the call's time on a host where the probe takes `NOMINAL_S`.
//!
//! The kernel is a cache-resident GEMM (FP throughput), a walk round a
//! 128 KiB ring (dependent L2 loads) and a dependent integer mixing
//! chain, about 6:2:2 in time. No single part tracks every call: the
//! GEMM alone over-corrects the set-up (memory allocation and DH
//! keygen), the ring and the mixing chain alone under-correct the audit.
//! Over a 90-second `paper_train` and a 60-second `cohort_scale` run on
//! a 2-vCPU shared VM, this mix cut the interquartile spread of per-call
//! times from 0.31 to 0.18 (audit), 0.33 to 0.15 (`fast_sync`) and 0.22
//! to 0.16 (run) on the first, and from 0.21 to 0.12 (run) and 0.28 to
//! 0.09 (set-up) on the second; only `paper_train`'s set-up, 0.15 raw,
//! got worse (0.19). The buffers are touched before the timed pass, so
//! the probe does not depend on what the program left in the caches.

use std::hint::black_box;
use std::time::Instant;

/// Probe time of the nominal host the scaled times refer to: about the
/// probe's median on the 2-vCPU host the benchmark was tuned on, so
/// that scaled times read close to wall times there.
pub const NOMINAL_S: f64 = 1.5e-3;
/// Side of the square f64 matrices multiplied per pass.
const GEMM_N: usize = 64;
/// Matrix products per pass.
const GEMM_REPS: usize = 10;
/// Slots of the ring walked per pass (128 KiB of `u32`).
const RING_LEN: usize = 1 << 15;
/// Dependent loads per pass.
const RING_STEPS: usize = 1 << 16;
/// Dependent integer mixing steps per pass.
const MIX_STEPS: usize = 1 << 17;

/// The probe kernel and its buffers.
pub struct Probe {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    ring: Vec<u32>,
}

impl Probe {
    pub fn new() -> Self {
        let n2 = GEMM_N * GEMM_N;
        Self {
            a: (0..n2).map(|i| (i % 13) as f64 * 0.01).collect(),
            b: (0..n2).map(|i| (i % 7) as f64 * 0.02).collect(),
            c: vec![0.0; n2],
            ring: ring(RING_LEN),
        }
    }

    /// Loads the buffers into cache, then times one pass of the kernel.
    pub fn sample(&mut self) -> f64 {
        let warm = self.a.iter().chain(&self.b).chain(&self.c).sum::<f64>()
            + self.ring.iter().map(|&x| x as f64).sum::<f64>();
        black_box(warm);

        let start = Instant::now();
        let n = GEMM_N;
        let mut acc = 0.0;
        for _ in 0..GEMM_REPS {
            self.c.fill(0.0);
            for i in 0..n {
                for k in 0..n {
                    let aik = self.a[i * n + k];
                    let row = &mut self.c[i * n..(i + 1) * n];
                    for (c, b) in row.iter_mut().zip(&self.b[k * n..(k + 1) * n]) {
                        *c += aik * b;
                    }
                }
            }
            acc += self.c[n + 1];
        }
        let mut slot = 0u32;
        for _ in 0..RING_STEPS {
            slot = self.ring[slot as usize];
        }
        let mut z = u64::from(slot);
        for _ in 0..MIX_STEPS {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
        }
        black_box((acc, z));
        start.elapsed().as_secs_f64()
    }
}

/// One cycle through all `len` slots in a fixed pseudo-random order
/// (Sattolo's shuffle), so every load depends on the one before.
fn ring(len: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..len as u32).collect();
    let mut z = 0x2545_f491_4f6c_dd1du64;
    for i in (1..len).rev() {
        z = z
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        next.swap(i, (z >> 33) as usize % i);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_one_cycle() {
        let next = ring(1 << 10);
        let (mut slot, mut steps) = (0u32, 0);
        loop {
            slot = next[slot as usize];
            steps += 1;
            if slot == 0 {
                break;
            }
        }
        assert_eq!(steps, 1 << 10);
    }
}
