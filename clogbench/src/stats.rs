//! Order statistics for host timings.

/// Percentiles a tail may be reported at, highest first. All lie above
/// 50, so a tail can never read below the median.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie strictly beyond a reported tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail: the highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 95.0.
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
}

/// The tail of `xs`, or `None` when there are too few samples for even
/// the lowest percentile of the ladder to have enough beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        let rank = nearest_rank(pct, n)?;
        (n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: s[rank - 1],
        })
    })
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn nearest_rank(pct: f64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond_it() {
        for n in 1..3000 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            match tail(&xs) {
                None => assert!(n < 40, "{n} samples are enough for p75"),
                Some(t) => {
                    let beyond = xs.iter().filter(|&&x| x > t.value).count();
                    assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
                    // No higher ladder rung would also have qualified.
                    if let Some(higher) = TAIL_LADDER.iter().rev().find(|&&p| p > t.pct) {
                        let rank = nearest_rank(*higher, n).unwrap();
                        assert!(n - rank < TAIL_MIN_BEYOND, "n={n}: p{higher} qualifies too");
                    }
                }
            }
        }
    }

    #[test]
    fn tail_is_never_below_the_median() {
        // Skewed, bimodal and tied samples, in scrambled order.
        let mut state = 12345u64;
        for n in 40..400 {
            let xs: Vec<f64> = (0..n)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let r = (state >> 33) as f64 / (1u64 << 31) as f64;
                    match i % 3 {
                        0 => 100.0 + r,
                        1 => 1.0,
                        _ => r * r * 1000.0,
                    }
                })
                .collect();
            let t = tail(&xs).expect("40+ samples always have a tail");
            assert!(t.value >= median(&xs), "n={n}: tail {t:?} below median");
        }
    }

    #[test]
    fn tail_picks_p95_for_a_few_hundred_samples() {
        let xs: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 285.0);
    }
}
