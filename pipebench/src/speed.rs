//! Host-speed normalisation of the end-to-end times.
//!
//! On a shared host the speed of a vCPU swings by a third over tens of
//! seconds as neighbours load the caches and memory, while steal time
//! stays near zero, so neither wall nor CPU time repeats from run to
//! run. A fixed probe — hashing, sorting, string allocation and plain
//! integer arithmetic, the mix of memory-bound and core-bound work the
//! pipeline does, but none of the pipeline's code — therefore runs
//! between every two timed pieces of work. Each piece's
//! wall time is scaled by [`REFERENCE_PROBE_S`] over the mean of the
//! probes just before and just after it, so it reads as seconds on a
//! host running the probe at the reference speed. A change to the
//! program moves the scaled time as it moves the wall time; a change of
//! host speed moves the probe with it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the reference box (2-vCPU KVM guest, Intel
/// Xeon, 300 MiB L3) at its calm speed. Only scales the reported
/// times; it must stay fixed so that runs compare.
pub(crate) const REFERENCE_PROBE_S: f64 = 0.075;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Counts into a hash map of 64 Ki keys, six times over.
fn hash_counts() -> u64 {
    let mut x = 5u64;
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    let mut acc = 0u64;
    for _ in 0..6 {
        map.clear();
        for i in 0..60_000u64 {
            x = xorshift(x);
            *map.entry(x & 0xFFFF).or_default() += i;
        }
        for k in 0..1u64 << 16 {
            acc = acc.wrapping_add(map.get(&k).copied().unwrap_or(1));
        }
    }
    acc
}

/// Sorts 256 Ki random integers, four times over.
fn sort_ints() -> u64 {
    let mut x = 11u64;
    let base: Vec<u64> = (0..1 << 18)
        .map(|_| {
            x = xorshift(x);
            x
        })
        .collect();
    let mut acc = 0u64;
    for _ in 0..4 {
        let mut v = base.clone();
        v.sort_unstable();
        acc = acc.wrapping_add(v[v.len() / 2]);
    }
    acc
}

/// Formats, sorts, dedups and indexes 60 Ki short strings.
fn index_strings() -> u64 {
    let mut x = 13u64;
    let mut v: Vec<String> = (0..60_000)
        .map(|_| {
            x = xorshift(x);
            format!("k{}", x % 40_000)
        })
        .collect();
    v.sort();
    v.dedup();
    let index: HashMap<&str, usize> = v.iter().enumerate().map(|(i, s)| (s.as_str(), i)).collect();
    index.len() as u64
}

/// Runs a dependent chain of multiplies and shifts, ten million steps:
/// core-bound work, which a neighbour's cache and memory load slows less
/// than the three kernels above. Without it the probe overstates the
/// slowdown of the two-worker guided search.
fn mix_ints() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..10_000_000u32 {
        x = xorshift(x);
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 7);
    }
    acc
}

/// Seconds the fixed probe work takes. It runs on one thread, also
/// between pieces of two-worker work: run on two threads at once it
/// contends with itself and overstates a slowdown.
pub(crate) fn probe() -> f64 {
    let start = Instant::now();
    black_box(hash_counts() ^ sort_ints() ^ index_strings() ^ mix_ints());
    start.elapsed().as_secs_f64()
}

/// `wall` seconds measured between probes of `before` and `after`
/// seconds, as seconds at the reference speed.
pub(crate) fn scaled(wall: f64, before: f64, after: f64) -> f64 {
    wall * REFERENCE_PROBE_S * 2.0 / (before + after)
}

/// A running sequence of probes, one between every two timed pieces of
/// work.
pub(crate) struct Speed {
    probes: Vec<f64>,
}

impl Speed {
    /// Warms the probe up, then takes the first probe.
    pub(crate) fn new() -> Speed {
        probe();
        Speed {
            probes: vec![probe()],
        }
    }

    /// Takes the next probe and returns `wall`, the time of the work
    /// done since the previous one, at the reference speed.
    pub(crate) fn normalise(&mut self, wall: f64) -> f64 {
        let before = *self.probes.last().expect("Speed::new takes a probe");
        let after = probe();
        self.probes.push(after);
        scaled(wall, before, after)
    }

    /// Every probe time so far, in order.
    pub(crate) fn probes(&self) -> &[f64] {
        &self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_follows_the_probe() {
        let r = REFERENCE_PROBE_S;
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(scaled(2.0, r, r), 2.0), "reference speed");
        assert!(close(scaled(2.0, 2.0 * r, 2.0 * r), 1.0), "slow host");
        assert!(close(scaled(2.0, r / 2.0, r / 2.0), 4.0), "fast host");
        assert!(close(scaled(3.0, r, 2.0 * r), 2.0), "mean of both sides");
    }

    #[test]
    fn every_piece_of_work_sits_between_two_probes() {
        let mut speed = Speed::new();
        let s = speed.normalise(1.0);
        assert!(s.is_finite() && s > 0.0);
        speed.normalise(1.0);
        assert_eq!(speed.probes().len(), 3);
        assert!(speed.probes().iter().all(|p| *p > 0.0));
    }
}
