//! Order statistics over measured samples.

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The lower quartile (nearest rank): the minimum of up to four samples.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    percentile(samples, 0.25)
}

/// For units of work repeated in a run (`runs[r][u]` is unit `u`'s time
/// in repetition `r`), each unit's fastest time. The measuring host's noise
/// only ever slows work down, and it comes and goes within a second, so
/// the fastest of a unit's repetitions estimates its undisturbed time more
/// steadily than any central value.
pub fn per_unit_fastest(runs: &[Vec<f64>]) -> Vec<f64> {
    let units = runs.iter().map(Vec::len).min().unwrap_or(0);
    (0..units)
        .map(|u| runs.iter().map(|r| r[u]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(lower_quartile(&[5.0, 1.0, 3.0]), 1.0);
        assert_eq!(
            lower_quartile(&[8.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 7.0]),
            2.0
        );
        let runs = vec![vec![3.0, 10.0], vec![1.0, 30.0], vec![2.0, 20.0]];
        assert_eq!(per_unit_fastest(&runs), vec![1.0, 10.0]);
    }
}
