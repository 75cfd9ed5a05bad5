//! Disk timing model.
//!
//! Fig. 5(a) of the paper shows checkpoint latency dominated by the time to
//! write the application's virtual-memory contents to disk. The simulation
//! reproduces that by charging every checkpoint write against a
//! bandwidth/seek model of the node's disk.

use des::{SimDuration, SimTime};

/// Static parameters of a disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskParams {
    /// Sustained sequential bandwidth in bytes per second.
    pub bandwidth_bps: u64,
    /// Fixed per-operation overhead (seek + controller).
    pub op_overhead: SimDuration,
}

impl DiskParams {
    /// A 2005-era SCSI disk: ~100 MB/s sequential, 5 ms overhead.
    pub fn era_2005() -> Self {
        DiskParams {
            bandwidth_bps: 100_000_000,
            op_overhead: SimDuration::from_millis(5),
        }
    }

    /// Time to transfer `bytes` in one sequential operation.
    pub fn io_time(&self, bytes: u64) -> SimDuration {
        self.op_overhead + self.transfer_time(bytes)
    }

    /// Pure transfer time of `bytes` at sequential bandwidth, without the
    /// per-operation overhead (what each item of an already-seeked batch
    /// costs).
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes.saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }
}

impl Default for DiskParams {
    fn default() -> Self {
        Self::era_2005()
    }
}

/// A disk with a serialized request queue.
#[derive(Debug, Clone)]
pub struct Disk {
    params: DiskParams,
    busy_until: SimTime,
    bytes_written: u64,
    bytes_read: u64,
}

impl Disk {
    /// Creates an idle disk.
    pub fn new(params: DiskParams) -> Self {
        Disk {
            params,
            busy_until: SimTime::ZERO,
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// The disk parameters.
    pub fn params(&self) -> DiskParams {
        self.params
    }

    /// Submits a write of `bytes` at `now`; returns its completion time.
    pub fn submit_write(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.bytes_written += bytes;
        self.submit(now, bytes)
    }

    /// Submits a read of `bytes` at `now`; returns its completion time.
    pub fn submit_read(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.bytes_read += bytes;
        self.submit(now, bytes)
    }

    /// Submits a pipelined batch of writes: `(ready, bytes)` items, each
    /// becoming available for write-out at its `ready` time (ascending).
    /// The batch pays the per-operation overhead **once** — chunked
    /// checkpoint write-out is one logical operation streaming chunks as
    /// capture produces them — and each item then costs pure transfer
    /// time, starting no earlier than its `ready` time (the pipeline
    /// stalls when capture is the bottleneck). Returns the completion time
    /// of the last item; an empty batch completes at `now`.
    ///
    /// `now` may lie in the past relative to the caller's clock: a
    /// copy-on-write checkpoint drain submits its batch retroactively at
    /// snapshot-arm time so the write-out overlaps the background encode.
    /// That is safe because the batch never completes before its last
    /// `ready` time or the disk's prior `busy_until`, whichever is later.
    pub fn submit_write_batch(&mut self, now: SimTime, items: &[(SimTime, u64)]) -> SimTime {
        let Some(&(first_ready, _)) = items.first() else {
            return now;
        };
        let start = [now, first_ready, self.busy_until]
            .into_iter()
            .max()
            .unwrap_or(now);
        let mut t = start + self.params.op_overhead;
        for &(ready, bytes) in items {
            if ready > t {
                t = ready;
            }
            t += self.params.transfer_time(bytes);
            self.bytes_written += bytes;
        }
        self.busy_until = t;
        t
    }

    fn submit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let done = start + self.params.io_time(bytes);
        self.busy_until = done;
        done
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

impl Default for Disk {
    fn default() -> Self {
        Disk::new(DiskParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_time_scales_with_size() {
        let p = DiskParams::era_2005();
        // 100 MB at 100 MB/s = 1 s + 5 ms overhead.
        let t = p.io_time(100_000_000);
        assert_eq!(t, SimDuration::from_millis(1005));
    }

    #[test]
    fn requests_serialize() {
        let mut d = Disk::new(DiskParams {
            bandwidth_bps: 1_000_000,
            op_overhead: SimDuration::from_millis(1),
        });
        let t0 = SimTime::ZERO;
        let d1 = d.submit_write(t0, 1_000_000); // 1s + 1ms
        let d2 = d.submit_write(t0, 1_000_000);
        assert_eq!(d1, t0 + SimDuration::from_millis(1001));
        assert_eq!(d2, t0 + SimDuration::from_millis(2002));
        assert_eq!(d.bytes_written(), 2_000_000);
        // After it idles, a new request starts fresh.
        let later = t0 + SimDuration::from_secs(10);
        let d3 = d.submit_read(later, 0);
        assert_eq!(d3, later + SimDuration::from_millis(1));
    }

    #[test]
    fn batch_pays_overhead_once() {
        let p = DiskParams {
            bandwidth_bps: 1_000_000, // 1 B/µs
            op_overhead: SimDuration::from_millis(5),
        };
        let t0 = SimTime::ZERO;
        // Four 1000-byte chunks, all ready immediately: 5 ms seek + 4 ms.
        let mut batched = Disk::new(p);
        let items: Vec<(SimTime, u64)> = (0..4).map(|_| (t0, 1000)).collect();
        assert_eq!(
            batched.submit_write_batch(t0, &items),
            t0 + SimDuration::from_millis(9)
        );
        assert_eq!(batched.bytes_written(), 4000);
        // The same chunks as separate ops pay the seek four times.
        let mut split = Disk::new(p);
        let mut done = t0;
        for _ in 0..4 {
            done = split.submit_write(t0, 1000);
        }
        assert_eq!(done, t0 + SimDuration::from_millis(24));
    }

    #[test]
    fn batch_pipeline_stalls_on_late_items() {
        let p = DiskParams {
            bandwidth_bps: 1_000_000,
            op_overhead: SimDuration::from_millis(5),
        };
        let mut d = Disk::new(p);
        let t0 = SimTime::ZERO;
        // Second chunk only materializes at t=20 ms: the disk waits for it,
        // then streams without a second seek.
        let items = [(t0, 1000u64), (t0 + SimDuration::from_millis(20), 1000u64)];
        assert_eq!(
            d.submit_write_batch(t0, &items),
            t0 + SimDuration::from_millis(21)
        );
        // An empty batch is free and leaves the disk untouched.
        let mut idle = Disk::new(p);
        assert_eq!(idle.submit_write_batch(t0, &[]), t0);
        assert_eq!(idle.bytes_written(), 0);
    }

    #[test]
    fn retroactive_batch_backfills_but_never_completes_early() {
        let p = DiskParams {
            bandwidth_bps: 1_000_000,
            op_overhead: SimDuration::from_millis(5),
        };
        let t0 = SimTime::ZERO;
        // A COW drain at t=50 ms submits its batch as of arm time t=0: the
        // disk retroactively overlapped the encode, so the result is the
        // same as if the batch had been submitted at arm time...
        let mut d = Disk::new(p);
        let items = [
            (t0 + SimDuration::from_millis(10), 1000u64),
            (t0 + SimDuration::from_millis(40), 1000u64),
        ];
        let done = d.submit_write_batch(t0, &items);
        assert_eq!(done, t0 + SimDuration::from_millis(41));
        // ...and never earlier than the last ready time: monotonicity holds
        // for any drain event scheduled at or after that instant.
        assert!(done >= items.last().unwrap().0);
        // Prior traffic still serializes: with the disk busy until after the
        // retroactive start, the batch queues behind it as usual.
        let mut busy = Disk::new(p);
        busy.submit_write(t0, 30_000); // busy until 35 ms
        let done = busy.submit_write_batch(t0, &items);
        assert_eq!(done, t0 + SimDuration::from_millis(42));
    }

    #[test]
    fn batch_queues_behind_prior_io() {
        let p = DiskParams {
            bandwidth_bps: 1_000_000,
            op_overhead: SimDuration::from_millis(5),
        };
        let mut d = Disk::new(p);
        let t0 = SimTime::ZERO;
        let first = d.submit_write(t0, 1000); // done at 6 ms
        let done = d.submit_write_batch(t0, &[(t0, 1000)]);
        assert_eq!(done, first + SimDuration::from_millis(6));
    }
}
