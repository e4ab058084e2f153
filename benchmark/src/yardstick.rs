//! The yardstick: what makes `setup_s` repeat on a box whose speed drifts.
//!
//! On the box this benchmark was defined on, the floor of one set-up's
//! host time moved by up to 60 % between processes started a minute apart
//! (in CPU time too: the neighbours of a virtual machine, not its own
//! scheduler), so no statistic of set-up times alone could hold a 0.25
//! bound. A fixed piece of the harness's own work, timed in a burst before
//! and after every fresh set-up, sees the same drift. Each set-up's seconds
//! are therefore scaled by `REFERENCE_S / (the yardstick's floor around
//! it)` — seconds at the reference box's speed — and `setup_s` is the 10th
//! percentile of the scaled samples. Over 30 processes per workload the
//! plain minimum spread 18–60 % and this 14–22 %.
//!
//! One yardstick sample is two parts, one for each kind of work a set-up
//! does: streaming through memory (buffer fills, warm-up copies) and
//! allocating and chasing pointers (datatypes, plans, maps). The streamed
//! buffer belongs to the burst, not the sample, so the allocator's state —
//! whether four fresh mebibytes are mapped or carved from a free chunk —
//! stays out of the reading. It calls nothing of the library, so a change
//! to the library cannot move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::gen::Rng;
use crate::stats;

/// The yardstick's floor on the box the benchmark was defined on, in
/// seconds: what a set-up's host seconds are scaled to.
pub const REFERENCE_S: f64 = 0.8e-3;

/// Words of the buffer a sample fills once and then streams through twice
/// (4 MiB: twice the reference box's L2).
const WALK_WORDS: usize = 512 << 10;
/// Keys a sample inserts into a fresh `BTreeMap`.
const TREE_KEYS: usize = 4096;

/// Samples per burst: the first ones after a set-up run on cold caches.
const MIN_BURST: usize = 6;
const MAX_BURST: usize = 32;

/// The quantile of the scaled set-up samples that is reported: a floor
/// that one lucky sample among dozens does not set.
const FLOOR_QUANTILE: f64 = 0.10;

/// One sample, in seconds. `walk` is the burst's streaming buffer.
fn sample(walk: &mut [u64], rng: &mut Rng) -> f64 {
    let t = Instant::now();
    walk.fill(rng.next_u64());
    let mut sum = 0u64;
    for pass in 0..2 {
        for w in walk.iter_mut() {
            *w = w.wrapping_add(pass);
            sum = sum.wrapping_add(*w);
        }
    }
    black_box(sum);
    let mut tree = BTreeMap::new();
    for _ in 0..TREE_KEYS {
        let k = rng.next_u64();
        tree.insert(k, k);
    }
    black_box(&tree);
    drop(tree);
    t.elapsed().as_secs_f64()
}

/// The floor of a burst of samples: at least [`MIN_BURST`], then more until
/// `budget_s` seconds are spent, at most [`MAX_BURST`]. Everything the burst
/// allocates is freed before it returns, so it adds nothing to a peak.
pub fn burst(budget_s: f64) -> f64 {
    let mut walk = vec![1u64; WALK_WORDS];
    let mut rng = Rng::new(0x79_6172_6473_7469);
    let t0 = Instant::now();
    let mut floor = f64::INFINITY;
    for k in 0..MAX_BURST {
        if k >= MIN_BURST && t0.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        floor = floor.min(sample(&mut walk, &mut rng));
    }
    floor
}

/// One fresh set-up as the harness saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupSample {
    /// Host seconds from the start of the set-up to the end of warm-up.
    pub seconds: f64,
    /// The yardstick's floor over the bursts before and after it.
    pub yard_s: f64,
    /// Allocator calls on all threads across it.
    pub heap_allocs: u64,
}

impl SetupSample {
    /// The set-up's seconds at the reference box's speed.
    pub fn scaled_s(&self) -> f64 {
        self.seconds * REFERENCE_S / self.yard_s
    }
}

/// `setup_s`: the 10th percentile of the scaled samples.
pub fn setup_s(samples: &[SetupSample]) -> f64 {
    let mut scaled: Vec<f64> = samples.iter().map(SetupSample::scaled_s).collect();
    scaled.sort_by(f64::total_cmp);
    stats::quantile_sorted(&scaled, FLOOR_QUANTILE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(seconds: f64, yard_s: f64) -> SetupSample {
        SetupSample {
            seconds,
            yard_s,
            heap_allocs: 0,
        }
    }

    #[test]
    fn a_box_at_reference_speed_reads_plain_seconds() {
        assert_eq!(s(0.5, REFERENCE_S).scaled_s(), 0.5);
        // eleven samples 1.0, 1.1, … 2.0: the 10th percentile is the second
        let v: Vec<_> = (0..=10)
            .map(|i| s(1.0 + i as f64 / 10.0, REFERENCE_S))
            .collect();
        assert!((setup_s(&v) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn a_slow_phase_is_scaled_out() {
        // the same set-up on a box running at 1x and at 1.5x the reference time
        let fast = [s(0.20, REFERENCE_S), s(0.21, REFERENCE_S)];
        let slow = [s(0.30, 1.5 * REFERENCE_S), s(0.315, 1.5 * REFERENCE_S)];
        assert!((setup_s(&fast) - setup_s(&slow)).abs() < 1e-12);
        // and a set-up that really takes longer still reads longer
        let worse = [s(0.40, 1.5 * REFERENCE_S), s(0.42, 1.5 * REFERENCE_S)];
        assert!(setup_s(&worse) > 1.3 * setup_s(&fast));
    }

    #[test]
    fn a_burst_takes_at_least_the_minimum_and_reads_a_time() {
        let floor = burst(0.0);
        assert!(floor > 0.0 && floor.is_finite());
    }
}
