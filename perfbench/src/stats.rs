//! Batch statistics and seed derivation.
//!
//! A window is measured as many short batches of distinct work. On a
//! small shared host the speed of the same code drifts by up to 2× for
//! seconds at a time as neighbours load the machine, so a window's
//! throughput is taken from its fast batches: the host time per unit of
//! work at the [`FAST_QUANTILE`] of the batches, applied to the whole
//! window's work. That is what the window would have cost had every batch
//! run the way its fastest twentieth did. A slow phase covering most of the
//! window, or a few stalled batches, leaves it unchanged; a slowdown of
//! the code itself moves every batch and so moves it in full.

/// Quantile of the per-batch cost (host seconds per unit of work) that
/// stands for the window.
pub const FAST_QUANTILE: f64 = 0.05;

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Units of work per host second of a window of batches: `work[i]` units
/// took `seconds[i]`. The per-batch cost `seconds / work` is read at
/// [`FAST_QUANTILE`].
pub fn window_rate(work: &[f64], seconds: &[f64]) -> f64 {
    let costs: Vec<f64> = work
        .iter()
        .zip(seconds)
        .filter(|(w, _)| **w > 0.0)
        .map(|(w, s)| s / w)
        .collect();
    1.0 / quantile(&costs, FAST_QUANTILE)
}

/// SplitMix64 finalizer: derives well-separated child seeds from a
/// parent seed and an index.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (0..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.05), 1.0);
        assert_eq!(quantile(&v, 0.125), 2.5);
        assert_eq!(quantile(&[5.0], 0.1), 5.0);
    }

    #[test]
    fn stalled_batches_and_slow_phases_do_not_move_the_rate() {
        // 100 batches of 50 units at 0.5 s: 100 units/s.
        let work = vec![50.0; 100];
        let steady = vec![0.5; 100];
        assert_eq!(window_rate(&work, &steady), 100.0);
        // Three stalled batches, then a neighbour halving the speed for
        // the first 90 % of the window: the rate holds.
        let mut noisy = steady.clone();
        noisy[10] = 5.0;
        noisy[50] = 3.0;
        noisy[99] = 9.0;
        for s in noisy.iter_mut().take(90) {
            *s *= 2.0;
        }
        assert_eq!(window_rate(&work, &noisy), 100.0);
        // The whole-window rate of the same batches drops by half.
        let whole: f64 = work.iter().sum::<f64>() / noisy.iter().sum::<f64>();
        assert!(whole < 50.0);
    }

    #[test]
    fn a_uniform_slowdown_moves_the_rate_in_full() {
        let work = vec![50.0; 40];
        let fast: Vec<f64> = (0..40).map(|i| 0.5 + 0.001 * f64::from(i)).collect();
        let slow: Vec<f64> = fast.iter().map(|s| s * 1.25).collect();
        let ratio = window_rate(&work, &fast) / window_rate(&work, &slow);
        assert!((ratio - 1.25).abs() < 1e-12);
    }

    #[test]
    fn cost_is_per_unit_of_work() {
        // Batches of unequal work at one speed give that speed exactly.
        let work = [10.0, 20.0, 40.0, 80.0];
        let seconds = [0.1, 0.2, 0.4, 0.8];
        assert!((window_rate(&work, &seconds) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_seeds_are_distinct_and_repeatable() {
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| mix(7, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(8, 3));
    }
}
