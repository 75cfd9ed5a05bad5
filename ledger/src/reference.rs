//! The host-speed reference: a fixed piece of work timed on either side of
//! every timed phase.
//!
//! On a shared host the same code runs at different speeds from one moment
//! to the next: when other tenants load the physical core, branchy,
//! cache-hungry code such as the simulator slows by up to half again, for
//! stretches of a second to a minute. Medians over a run cannot remove a
//! slowdown that lasts the whole run. So each phase's wall time is also
//! divided by the wall time of this kernel, measured right before and right
//! after the phase, and the end-to-end timings are reported in those units
//! (`ref`). The kernel is the benchmark's own code and takes no input, so no
//! change to the program under test moves it; it slows with the host the
//! way the simulator does (ordered-map inserts and lookups, then a sort),
//! unlike a streaming hash, which a busy neighbour hardly slows.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::spans::Recorder;

/// Map operations per pass: about a millisecond on a 2 GHz Xeon core.
const OPS: u64 = 5_000;

/// Runs one pass of the reference kernel; returns its wall nanoseconds.
pub fn pass(rec: &Recorder) -> u64 {
    let t0 = rec.now_ns();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..OPS {
        // xorshift64: a fixed pseudo-random key sequence.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(black_box(x) % 2048, i);
        if let Some(v) = map.get(&(x.rotate_left(7) % 2048)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut keys: Vec<u64> = map.keys().map(|k| k.wrapping_mul(0x9e37_79b9)).collect();
    keys.sort_unstable();
    black_box((acc, keys));
    rec.now_ns() - t0
}

/// Times `phase` between two reference passes. Returns its result, its
/// wall nanoseconds and the mean of the two passes.
pub fn around<T>(
    rec: &mut Recorder,
    phase: impl FnOnce(&mut Recorder) -> (T, u64),
) -> (T, u64, u64) {
    let before = pass(rec);
    let (out, ns) = phase(rec);
    let after = pass(rec);
    (out, ns, (before + after) / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_takes_measurable_time_and_around_returns_the_phase() {
        let mut rec = Recorder::new(false);
        assert!(pass(&rec) > 0);
        let (out, ns, ref_ns) = around(&mut rec, |_| ("done", 42));
        assert_eq!((out, ns), ("done", 42));
        assert!(ref_ns > 0);
    }
}
