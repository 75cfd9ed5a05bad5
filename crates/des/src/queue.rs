//! Deterministic pending-event queue.
//!
//! Events scheduled for the same instant are delivered in insertion order,
//! which makes simulation runs reproducible regardless of payload type.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered queue of simulation events.
///
/// Ties on the timestamp are broken by insertion order (FIFO), so a run is a
/// pure function of the sequence of `push` calls.
///
/// The binary heap holds only `(key, slot)` pairs; payloads sit in a slab
/// whose popped slots a free list hands to the next push. A cluster event
/// carries an inline Ethernet frame of ~100 bytes, so the heap sifts
/// 32-byte entries instead, and the slab grows only to the peak number of
/// pending events.
///
/// # Examples
///
/// ```
/// use des::queue::EventQueue;
/// use des::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// The pending keys, each naming the slab slot of its payload.
    heap: BinaryHeap<Pending>,
    /// Payload slab: `Some` while its key is in the heap.
    slots: Vec<Option<T>>,
    /// Slots whose payload was popped, ready for the next push.
    free: Vec<u32>,
    seq: u64,
}

/// One heap entry: an event's ordering key and the slab slot holding its
/// payload. Only the key orders entries; keys are unique.
#[derive(Debug, Clone, Copy)]
struct Pending {
    key: u128,
    slot: u32,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then first-pushed)
        // entry surfaces first.
        other.key.cmp(&self.key)
    }
}

/// The ordering key packed into one `u128`: `(timestamp_nanos << 64) |
/// seq`. Comparing the packed key is a single wide compare instead of a
/// two-field lexicographic chain, and it orders identically — timestamps
/// occupy the high bits, the per-push sequence number the low bits, and
/// `seq` is a monotone `u64` that never wraps within a run.
fn pack_key(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` for delivery at `at`.
    pub fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none(), "slot still live");
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.slots.push(Some(payload));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Pending {
            key: pack_key(at, seq),
            slot,
        });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let Pending { key, slot } = self.heap.pop()?;
        let payload = self.slots[slot as usize]
            .take()
            .expect("a queued key names a live slot");
        self.free.push(slot);
        Some((key_time(key), payload))
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|p| key_time(p.key))
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
    }

    #[test]
    fn ties_resolve_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn peek_and_len_track_state() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(7), ());
        q.push(t(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(5), "b");
        assert_eq!(q.pop(), Some((t(5), "b")));
        q.push(t(1), "c");
        q.push(t(10), "d");
        assert_eq!(q.pop(), Some((t(1), "c")));
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(10), "d")));
    }
}
