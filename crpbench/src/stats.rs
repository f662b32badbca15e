//! Latency samples, percentiles and medians.
//!
//! Samples are grouped in blocks of equal work, one per round of a timed
//! phase. On a shared 2-vCPU VM (2 GHz Xeon) a fixed sort kernel runs at
//! its normal speed, then 1.4-2x slower for spells of seconds to minutes,
//! so a median over a run moves with how much of the run was slow.
//! Timings are therefore taken from the fastest tenth of a run's blocks
//! (ranked by total time), widened until they hold ten samples beyond the
//! quantile taken. That holds as long as a tenth of the run ran at normal
//! speed.
//! `host.ref_ms` shows which state a run met.

use std::time::Instant;

/// Nanoseconds elapsed since `t0`.
pub fn since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Operations the rounds behind a rate hold at least.
const MIN_SELECTED: u64 = 1000;

/// Samples a `p`-quantile needs so that ten lie beyond it.
fn ten_beyond(p: f64) -> u64 {
    if p >= 1.0 {
        u64::MAX
    } else {
        (10.0 / (1.0 - p)).ceil() as u64
    }
}

/// The fastest tenth (at least one) of `items` by `cost`, widened with
/// the next fastest until their `size` adds up to `min_size`.
pub fn fastest<T>(
    items: &[T],
    cost: impl Fn(&T) -> f64,
    size: impl Fn(&T) -> u64,
    min_size: u64,
) -> Vec<&T> {
    let mut ranked: Vec<&T> = items.iter().collect();
    ranked.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
    let tenth = items.len().div_ceil(10).max(1);
    let (mut keep, mut total) = (0, 0);
    while keep < ranked.len() && (keep < tenth || total < min_size) {
        total += size(ranked[keep]);
        keep += 1;
    }
    ranked.truncate(keep);
    ranked
}

/// Operations per second of one `(operations, wall ns)` round.
pub fn per_s(round: &(u64, u64)) -> f64 {
    round.0 as f64 / (round.1.max(1) as f64 / 1e9)
}

/// Throughput of a timed phase from its rounds: the median rate over the
/// fastest rounds (see [`fastest`]).
pub fn rate(rounds: &[(u64, u64)]) -> f64 {
    let fast: Vec<f64> = fastest(rounds, |r| -per_s(r), |r| r.0, MIN_SELECTED)
        .into_iter()
        .map(per_s)
        .collect();
    median(&fast)
}

/// Latency samples in nanoseconds, one block per round.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    blocks: Vec<Vec<u64>>,
}

impl Latencies {
    /// Starts a new block (one round); later samples land in it.
    pub fn new_block(&mut self) {
        self.blocks.push(Vec::new());
    }

    /// Adds one sample to the open block.
    pub fn push(&mut self, ns: u64) {
        self.blocks
            .last_mut()
            .expect("new_block opens a block before the first sample")
            .push(ns);
    }

    /// Total number of samples.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Every block's samples summed in consecutive groups of `k`: the
    /// latency of an operation made of `k` timed calls in a row.
    pub fn grouped(&self, k: usize) -> Latencies {
        let blocks = self
            .blocks
            .iter()
            .map(|b| b.chunks(k).map(|c| c.iter().sum()).collect())
            .collect();
        Latencies { blocks }
    }

    /// The fastest blocks by total time (see [`fastest`]), enough for the
    /// `p`-quantile.
    fn fastest(&self, p: f64) -> Vec<&Vec<u64>> {
        fastest(
            &self.blocks,
            |b| b.iter().sum::<u64>() as f64,
            |b| b.len() as u64,
            ten_beyond(p),
        )
    }

    /// Number of samples behind the `p`-quantile.
    pub fn selected(&self, p: f64) -> usize {
        self.fastest(p).iter().map(|b| b.len()).sum()
    }

    /// The `p`-quantile (`0 < p <= 1`) in ns over the fastest blocks, or
    /// `None` without samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let pooled: Vec<u64> = self.fastest(p).into_iter().flatten().copied().collect();
        nearest_rank(pooled, p)
    }
}

/// Nearest-rank quantile, or `None` for no samples.
fn nearest_rank(mut v: Vec<u64>, p: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1] as f64)
}

/// Median of a non-empty slice (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no values");
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(v.clone(), 0.5), Some(50.0));
        assert_eq!(nearest_rank(v.clone(), 0.99), Some(99.0));
        assert_eq!(nearest_rank(v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(vec![7], 0.99), Some(7.0));
        assert_eq!(nearest_rank(vec![], 0.5), None);
    }

    #[test]
    fn the_fastest_tenth_is_widened_to_enough_samples() {
        let costs: Vec<u64> = (1..=30).rev().collect();
        let pick = |min| fastest(&costs, |c| *c as f64, |_| 100, min);
        assert_eq!(pick(1), vec![&1, &2, &3]);
        assert_eq!(pick(1000).len(), 10);
        assert_eq!(pick(1_000_000).len(), 30);
        assert!(fastest(&[] as &[u64], |c| *c as f64, |_| 1, 1).is_empty());
    }

    #[test]
    fn slow_blocks_are_left_out() {
        let mut lat = Latencies::default();
        for slow in (0..40).map(|i| i % 4 != 0) {
            lat.new_block();
            for i in 1..=100u64 {
                lat.push(if slow { i * 3 / 2 } else { i });
            }
        }
        assert_eq!(lat.count(), 4000);
        assert_eq!(lat.selected(0.99), 1000);
        assert_eq!(lat.percentile(0.99), Some(99.0));
        assert_eq!(lat.selected(0.5), 400);
        assert_eq!(lat.percentile(0.5), Some(50.0));
        assert_eq!(lat.percentile(1.0), Some(150.0));
    }

    #[test]
    fn a_quantile_has_ten_samples_beyond_it() {
        assert_eq!(ten_beyond(0.5), 20);
        assert_eq!(ten_beyond(0.99), 1000);
        assert_eq!(ten_beyond(1.0), u64::MAX);
    }

    #[test]
    fn grouped_sums_consecutive_samples_per_block() {
        let mut lat = Latencies::default();
        lat.new_block();
        (1..=4).for_each(|ns| lat.push(ns));
        lat.new_block();
        (5..=8).for_each(|ns| lat.push(ns));
        assert_eq!(lat.grouped(2).blocks, vec![vec![3, 7], vec![11, 15]]);
    }

    #[test]
    fn rate_takes_the_fast_rounds() {
        let mut rounds = vec![(100, 2_000_000_000); 9];
        rounds.push((100, 900_000_000));
        assert!((rate(&rounds) - 100.0 / 2.0).abs() < 1e-9);
        rounds[0] = (2000, 900_000_000);
        assert!((rate(&rounds) - 2000.0 / 0.9).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
