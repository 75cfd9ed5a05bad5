//! Small helpers shared by the experiments: statistics over durations,
//! and the digest that witnesses an epoch's stored bytes.

use cluster::{OpReport, World};
use cruz::digest;
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

/// The slowest node's local save (or restore) of one operation.
pub fn local_save(rep: &OpReport) -> SimDuration {
    let saves = rep.local_ops.iter().map(|(_, s, e)| e.duration_since(*s));
    saves.max().unwrap_or(SimDuration::ZERO)
}

/// FNV digest over every pod image of one committed epoch, in pod order,
/// as a restart would reassemble them.
pub fn epoch_digest(w: &World, job: &str, epoch: u64) -> u64 {
    let store = w.store(job);
    let mut h = digest::OFFSET;
    for pod in store.pods_in_epoch(epoch) {
        let image = store
            .get_image(&pod, epoch)
            .expect("committed image reconstructs");
        h = digest::fold(h, pod.as_bytes());
        h = digest::fold(h, &image);
    }
    h
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
