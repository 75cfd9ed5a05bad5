//! Replica fault plane: declaratively armed store faults, their hit
//! counters, and the crashed-replica set, held in memory.
//!
//! The replicated store (see [`crate::replog`]) consults this plane on
//! every logged mutation: [`ReplicaFaults::take`] counts one occurrence of
//! a protocol point at a replica against every armed [`ReplicaFault`] and
//! reports the first whose trigger count was just reached. A
//! [`ReplicaFaults`] handle is shared, not copied: every clone sees the
//! same faults, counters and dead set, so the fresh store views the
//! cluster layer builds per operation all act on one plane (a `World`
//! creates one and hands it to every job's store). Nothing of it is
//! written to the checkpoint filesystem.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The store-protocol points a replica fault can trigger at: each logical
/// mutation class the operation log distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StoreOpPoint {
    /// A pod-image put (plain or chunked).
    Put,
    /// A commit-record write.
    Commit,
    /// An epoch discard (including prune compaction).
    Discard,
    /// An orphan-chunk garbage collection.
    Gc,
}

impl StoreOpPoint {
    /// Every point, in log order.
    pub const ALL: [StoreOpPoint; 4] = [
        StoreOpPoint::Put,
        StoreOpPoint::Commit,
        StoreOpPoint::Discard,
        StoreOpPoint::Gc,
    ];
}

/// What happens to a replica when an armed fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaFaultKind {
    /// The replica stops cold *before* the op reaches its log: nothing is
    /// appended or applied, now or ever again (until scrub revives it).
    /// Its on-disk state stays frozen at the previous op — stale, and
    /// excluded from reads.
    Crash,
    /// The log append tears partway through the record (`frac`/256 of the
    /// record's bytes land) and the replica dies. The valid-prefix reader
    /// drops the torn tail, so the replica's log is one op short.
    TornLog(u8),
    /// The log append completes but the op's data files (chunk bodies or
    /// the plain image) are torn to `frac`/256 of their bytes. The replica
    /// stays up — alive but corrupt — which is exactly what quorum reads
    /// must survive and scrub must detect (its log matches the reference
    /// byte-for-byte; only the tree digest betrays it).
    TornChunk(u8),
}

/// One armed replica-store fault: at the `nth` occurrence (0-based) of
/// `point` on `replica`, inject `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaFault {
    /// Replica index in `0..k`.
    pub replica: usize,
    /// The store-protocol point to trigger at.
    pub point: StoreOpPoint,
    /// Which occurrence of `point` at this replica fires the fault
    /// (0 = the first).
    pub nth: u32,
    /// The injected failure.
    pub kind: ReplicaFaultKind,
}

/// A shared handle on one fault plane: the armed faults with their hit
/// counters, and the replicas they have crashed. The default plane is
/// unarmed, with every replica alive.
#[derive(Debug, Clone, Default)]
pub struct ReplicaFaults(Arc<Mutex<Plane>>);

#[derive(Debug, Default)]
struct Plane {
    armed: Vec<(ReplicaFault, u32)>,
    dead: BTreeSet<usize>,
}

impl ReplicaFaults {
    fn plane(&self) -> MutexGuard<'_, Plane> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `faults` (hit counters at zero) in place of whatever was armed,
    /// and revives every crashed replica.
    pub fn arm(&self, faults: &[ReplicaFault]) {
        let mut plane = self.plane();
        plane.armed = faults.iter().map(|&f| (f, 0)).collect();
        plane.dead.clear();
    }

    /// Counts one occurrence of `point` at `replica` against every armed
    /// fault, returning the kind of the first fault whose trigger count was
    /// just reached.
    pub(crate) fn take(&self, replica: usize, point: StoreOpPoint) -> Option<ReplicaFaultKind> {
        let mut fired = None;
        for (f, hits) in &mut self.plane().armed {
            if f.replica == replica && f.point == point {
                if *hits == f.nth && fired.is_none() {
                    fired = Some(f.kind);
                }
                *hits += 1;
            }
        }
        fired
    }

    /// The crashed replicas, ascending.
    pub(crate) fn dead(&self) -> BTreeSet<usize> {
        self.plane().dead.clone()
    }

    /// Marks `replica` crashed: it leaves the read/write set until a scrub
    /// revives it.
    pub(crate) fn kill(&self, replica: usize) {
        self.plane().dead.insert(replica);
    }

    /// Revives every crashed replica, returning the ones that were dead.
    pub(crate) fn revive_all(&self) -> BTreeSet<usize> {
        std::mem::take(&mut self.plane().dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(replica: usize, nth: u32, kind: ReplicaFaultKind) -> ReplicaFault {
        ReplicaFault {
            replica,
            point: StoreOpPoint::Put,
            nth,
            kind,
        }
    }

    #[test]
    fn clones_share_one_plane_and_arming_resets_it() {
        let plane = ReplicaFaults::default();
        let view = plane.clone();
        plane.arm(&[
            fault(1, 1, ReplicaFaultKind::Crash),
            fault(1, 1, ReplicaFaultKind::TornLog(9)),
        ]);
        assert_eq!(view.take(1, StoreOpPoint::Put), None);
        assert_eq!(view.take(0, StoreOpPoint::Put), None);
        assert_eq!(view.take(1, StoreOpPoint::Commit), None);
        // The second put at replica 1 reaches both triggers; the first
        // armed fault wins, and neither fires again.
        assert_eq!(
            plane.take(1, StoreOpPoint::Put),
            Some(ReplicaFaultKind::Crash)
        );
        assert_eq!(plane.take(1, StoreOpPoint::Put), None);
        view.kill(1);
        assert_eq!(plane.dead(), BTreeSet::from([1]));
        plane.arm(&[fault(1, 0, ReplicaFaultKind::Crash)]);
        assert!(view.dead().is_empty(), "arming revives every replica");
        assert_eq!(
            view.take(1, StoreOpPoint::Put),
            Some(ReplicaFaultKind::Crash)
        );
        view.kill(2);
        assert_eq!(plane.revive_all(), BTreeSet::from([2]));
        assert!(view.dead().is_empty());
    }
}
