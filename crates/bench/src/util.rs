//! Small statistics helpers for the harness binaries.

use des::SimDuration;

/// Mean and (population) standard deviation of durations, in seconds.
pub fn mean_std_secs(xs: &[SimDuration]) -> (f64, f64) {
    mean_std(&xs.iter().map(|d| d.as_secs_f64()).collect::<Vec<_>>())
}

/// Mean and (population) standard deviation of durations, in microseconds.
pub fn mean_std_micros(xs: &[SimDuration]) -> (f64, f64) {
    mean_std(&xs.iter().map(|d| d.as_micros_f64()).collect::<Vec<_>>())
}

/// The `p`-th percentile (nearest-rank) of a set of durations.
pub fn percentile_duration(xs: &[SimDuration], p: f64) -> SimDuration {
    if xs.is_empty() {
        return SimDuration::ZERO;
    }
    let mut sorted: Vec<SimDuration> = xs.to_vec();
    sorted.sort();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean and (population) standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<SimDuration> = (1..=100).map(SimDuration::from_micros).collect();
        assert_eq!(percentile_duration(&xs, 50.0), SimDuration::from_micros(50));
        assert_eq!(percentile_duration(&xs, 99.0), SimDuration::from_micros(99));
        assert_eq!(
            percentile_duration(&xs, 100.0),
            SimDuration::from_micros(100)
        );
        let one = [SimDuration::from_micros(7)];
        assert_eq!(percentile_duration(&one, 50.0), SimDuration::from_micros(7));
        assert_eq!(percentile_duration(&[], 50.0), SimDuration::ZERO);
    }
}
