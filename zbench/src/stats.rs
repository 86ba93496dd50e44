//! Order statistics for per-job times.

/// Jobs that must lie beyond the tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
pub fn nearest_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The highest whole percentile (at most 99) whose nearest rank leaves at
/// least `min_beyond` samples strictly above it, or `None` when even the
/// median leaves fewer.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= min_beyond)
}

/// Harrell–Davis estimate of percentile `p` of `sorted` (ascending,
/// non-empty): a weighted mean of all order statistics, the i-th weighted
/// by the Beta(p(n+1), (1-p)(n+1)) mass on `((i-1)/n, i/n]`. It estimates
/// the same quantile as a single nearest-rank order statistic, but does
/// not jump with whichever one sample lands on the rank.
pub fn harrell_davis(sorted: &[f64], p: u32) -> f64 {
    let n = sorted.len();
    let q = f64::from(p) / 100.0;
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = beta_cdf((i + 1) as f64 / n as f64, a, b);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

/// The regularized incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz), on the side where it converges fast.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - beta_cdf(1.0 - x, b, a);
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp() / a;
    let tiny = 1e-300;
    let clamp = |v: f64| if v.abs() < tiny { tiny } else { v };
    let (mut c, mut d) = (1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0)));
    let mut f = d;
    for m in 1..500 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        f *= c * d;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        f *= c * d;
        if (c * d - 1.0).abs() < 1e-14 {
            break;
        }
    }
    front * f
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7, nine terms).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series: f64 = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_leaves_ten_jobs_beyond() {
        // Job runs per pass: paper 573 x 1 seed, sweep 72 x 5, wide 48 x 3.
        assert_eq!(tail_percentile(573, 10), Some(98));
        assert_eq!(573 - nearest_rank(98, 573), 11);
        assert_eq!(573 - nearest_rank(99, 573), 5);
        assert_eq!(tail_percentile(360, 10), Some(97));
        assert_eq!(360 - nearest_rank(97, 360), 10);
        assert_eq!(360 - nearest_rank(98, 360), 7);
        assert_eq!(tail_percentile(144, 10), Some(93));
        assert_eq!(144 - nearest_rank(93, 144), 10);
        assert_eq!(144 - nearest_rank(94, 144), 8);
        assert_eq!(tail_percentile(72, 10), Some(86));
        assert_eq!(72 - nearest_rank(86, 72), 10);
        assert_eq!(72 - nearest_rank(87, 72), 9);
        // Large samples stop at p99; tiny ones have no tail.
        assert_eq!(tail_percentile(100_000, 10), Some(99));
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(20, 10), Some(50));
    }

    #[test]
    fn tail_rank_is_maximal() {
        for n in 20..2000 {
            let p = tail_percentile(n, TAIL_MIN_BEYOND).unwrap();
            assert!(n - nearest_rank(p, n) >= TAIL_MIN_BEYOND);
            if p < 99 {
                assert!(n - nearest_rank(p + 1, n) < TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        for x in [0.1, 0.37, 0.5, 0.9] {
            assert!((beta_cdf(x, 1.0, 1.0) - x).abs() < 1e-12);
            assert!((beta_cdf(x, 2.0, 1.0) - x * x).abs() < 1e-12);
            assert!((beta_cdf(x, 1.0, 3.0) - (1.0 - (1.0 - x).powi(3))).abs() < 1e-12);
        }
        for a in [0.7, 5.5, 290.0] {
            assert!((beta_cdf(0.5, a, a) - 0.5).abs() < 1e-10);
        }
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_weights_sum_to_one_and_track_the_quantile() {
        assert!((harrell_davis(&[7.0; 573], 98) - 7.0).abs() < 1e-9);
        // Symmetric samples have their middle as the median estimate.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!((harrell_davis(&xs, 50) - 6.0).abs() < 1e-9);
        let ys: Vec<f64> = (0..1000).map(|i| f64::from(i) / 999.0).collect();
        for p in [50, 79, 86, 98] {
            assert!(
                (harrell_davis(&ys, p) - f64::from(p) / 100.0).abs() < 0.01,
                "p{p}"
            );
        }
        // Monotone in p.
        assert!(harrell_davis(&xs, 79) > harrell_davis(&xs, 50));
    }
}
