//! Property tests on the event queue: total order by (time, insertion).

use des::{EventQueue, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Popping yields times in non-decreasing order, same-time entries in
    /// insertion order, and exactly the pushed multiset.
    #[test]
    fn queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        prop_assert_eq!(q.len(), times.len());
        let mut popped = Vec::new();
        while let Some((at, idx)) = q.pop() {
            popped.push((at.as_nanos(), idx));
        }
        prop_assert_eq!(popped.len(), times.len());
        // Non-decreasing times; FIFO within equal times.
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
        // Each index appears exactly once at its pushed time.
        let mut seen = vec![false; times.len()];
        for (t, idx) in popped {
            prop_assert_eq!(t, times[idx]);
            prop_assert!(!seen[idx]);
            seen[idx] = true;
        }
    }

    /// Interleaved push/pop maintains the invariant: any pop returns the
    /// minimum currently queued (ties by insertion order).
    #[test]
    fn interleaved_ops_return_current_minimum(
        ops in proptest::collection::vec((any::<bool>(), 0u64..100), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut shadow: Vec<(u64, usize)> = Vec::new();
        let mut seq = 0usize;
        for (push, t) in ops {
            if push || shadow.is_empty() {
                q.push(SimTime::from_nanos(t), seq);
                shadow.push((t, seq));
                seq += 1;
            } else {
                let (at, idx) = q.pop().expect("shadow says non-empty");
                // The shadow minimum by (time, insertion seq):
                let (mi, _) = shadow
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(t, s))| (t, s))
                    .expect("non-empty");
                let expect = shadow.remove(mi);
                prop_assert_eq!((at.as_nanos(), idx), expect);
            }
        }
    }
    /// Payload slots are reused many times over: pushes, pops and clears
    /// interleave on a small working set, and every pop must hand back
    /// exactly the payload the sorted `(time, arm order)` reference names.
    /// A slot reused while its payload is still queued would surface
    /// another event's payload here.
    #[test]
    fn slab_slots_are_reused_without_aliasing(
        ops in proptest::collection::vec((0u8..10, 0u64..16), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut arm = 0u64;
        for (op, t) in ops {
            match op {
                // Pushes and pops balance, so the queue stays small and
                // its slots turn over; a clear now and then empties it.
                0..=4 => {
                    q.push(SimTime::from_nanos(t), arm);
                    reference.push((t, arm));
                    arm += 1;
                }
                5..=8 => {
                    let want = reference
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &key)| key)
                        .map(|(i, _)| i)
                        .map(|i| reference.remove(i));
                    let got = q.pop().map(|(at, id)| (at.as_nanos(), id));
                    prop_assert_eq!(got, want);
                }
                _ => {
                    q.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            let earliest = reference.iter().map(|&(t, _)| t).min();
            prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), earliest);
        }
    }
}
