//! Replica fault plane: declaratively armed store faults and the crashed-
//! replica set, persisted in small control files on the shared filesystem.
//!
//! The replicated store (see [`crate::replog`]) consults this plane on
//! every logged mutation: [`take_fault_effect`] counts one occurrence of a
//! protocol point at a replica against every armed [`ReplicaFault`] and
//! reports the first whose trigger count was just reached. Keeping the
//! armed faults and their hit counters *on the filesystem* — rather than
//! in the store handle — means fault state survives handle
//! reconstruction (the cluster layer builds a fresh store view per
//! operation) and replays deterministically under a pinned seed.
//!
//! Control files live under `/replctl/` and never exist with replication
//! off; a `k = 1` store neither reads nor writes them.

use std::collections::BTreeSet;

use simos::fs::NetFs;

/// Control file holding armed replica faults and their hit counters.
const FAULTS_PATH: &str = "/replctl/FAULTS";
/// Control file holding the set of crashed replica indices.
const DEAD_PATH: &str = "/replctl/DEAD";

/// The store-protocol points a replica fault can trigger at: each logical
/// mutation class the operation log distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StoreOpPoint {
    /// A pod-image put (plain or chunked).
    Put = 0,
    /// A commit-record write.
    Commit = 1,
    /// An epoch discard (including prune compaction).
    Discard = 2,
    /// An orphan-chunk garbage collection.
    Gc = 3,
}

impl StoreOpPoint {
    /// Every point, in tag order.
    pub const ALL: [StoreOpPoint; 4] = [
        StoreOpPoint::Put,
        StoreOpPoint::Commit,
        StoreOpPoint::Discard,
        StoreOpPoint::Gc,
    ];

    /// The wire tag of this point.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Parses a wire tag.
    pub fn from_tag(t: u8) -> Option<StoreOpPoint> {
        StoreOpPoint::ALL.into_iter().find(|p| p.tag() == t)
    }
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

impl ReplicaFaultKind {
    pub(crate) fn encode(self) -> (u8, u8) {
        match self {
            ReplicaFaultKind::Crash => (0, 0),
            ReplicaFaultKind::TornLog(f) => (1, f),
            ReplicaFaultKind::TornChunk(f) => (2, f),
        }
    }

    pub(crate) fn decode(tag: u8, arg: u8) -> Option<ReplicaFaultKind> {
        match tag {
            0 => Some(ReplicaFaultKind::Crash),
            1 => Some(ReplicaFaultKind::TornLog(arg)),
            2 => Some(ReplicaFaultKind::TornChunk(arg)),
            _ => None,
        }
    }
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

/// Arms `faults` for the replicated stores sharing `fs` (hit counters
/// reset to zero) and clears any crashed-replica state from earlier runs.
pub fn install_replica_faults(fs: &NetFs, faults: &[ReplicaFault]) {
    let mut w = Vec::with_capacity(4 + faults.len() * 15);
    w.extend_from_slice(&(faults.len() as u32).to_le_bytes());
    for f in faults {
        let (ktag, arg) = f.kind.encode();
        w.extend_from_slice(&(f.replica as u32).to_le_bytes());
        w.push(f.point.tag());
        w.extend_from_slice(&f.nth.to_le_bytes());
        w.push(ktag);
        w.push(arg);
        w.extend_from_slice(&0u32.to_le_bytes()); // hit counter
    }
    fs.write_file(FAULTS_PATH, w);
    fs.remove(DEAD_PATH);
}

/// Removes all armed replica faults and crashed-replica state from `fs`,
/// leaving the filesystem byte-identical to a never-faulted run.
pub fn clear_replica_faults(fs: &NetFs) {
    fs.remove(FAULTS_PATH);
    fs.remove(DEAD_PATH);
}

fn load_faults(fs: &NetFs) -> Vec<(ReplicaFault, u32)> {
    let Some(bytes) = fs.read_file(FAULTS_PATH) else {
        return Vec::new();
    };
    let mut c = Cur::new(&bytes);
    let Some(n) = c.u32() else { return Vec::new() };
    let mut out = c.vec_for(n);
    for _ in 0..n {
        let f = (|| {
            let replica = c.u32()? as usize;
            let point = StoreOpPoint::from_tag(c.u8()?)?;
            let nth = c.u32()?;
            let kind = ReplicaFaultKind::decode(c.u8()?, c.u8()?)?;
            let hits = c.u32()?;
            Some((
                ReplicaFault {
                    replica,
                    point,
                    nth,
                    kind,
                },
                hits,
            ))
        })();
        match f {
            Some(rec) => out.push(rec),
            None => return Vec::new(),
        }
    }
    out
}

fn store_fault_counters(fs: &NetFs, list: &[(ReplicaFault, u32)]) {
    let mut w = Vec::with_capacity(4 + list.len() * 19);
    w.extend_from_slice(&(list.len() as u32).to_le_bytes());
    for (f, hits) in list {
        let (ktag, arg) = f.kind.encode();
        w.extend_from_slice(&(f.replica as u32).to_le_bytes());
        w.push(f.point.tag());
        w.extend_from_slice(&f.nth.to_le_bytes());
        w.push(ktag);
        w.push(arg);
        w.extend_from_slice(&hits.to_le_bytes());
    }
    fs.write_file(FAULTS_PATH, w);
}

/// Counts one occurrence of `point` at `replica` against every armed
/// fault, returning the kind of the first fault whose trigger count was
/// just reached.
pub(crate) fn take_fault_effect(
    fs: &NetFs,
    replica: usize,
    point: StoreOpPoint,
) -> Option<ReplicaFaultKind> {
    let mut list = load_faults(fs);
    if list.is_empty() {
        return None;
    }
    let mut fired = None;
    for (f, hits) in &mut list {
        if f.replica == replica && f.point == point {
            if *hits == f.nth && fired.is_none() {
                fired = Some(f.kind);
            }
            *hits += 1;
        }
    }
    store_fault_counters(fs, &list);
    fired
}

pub(crate) fn read_dead(fs: &NetFs) -> BTreeSet<usize> {
    let Some(bytes) = fs.read_file(DEAD_PATH) else {
        return BTreeSet::new();
    };
    let mut c = Cur::new(&bytes);
    let Some(n) = c.u32() else {
        return BTreeSet::new();
    };
    let mut out = BTreeSet::new();
    for _ in 0..n {
        match c.u32() {
            Some(r) => out.insert(r as usize),
            None => return BTreeSet::new(),
        };
    }
    out
}

pub(crate) fn write_dead(fs: &NetFs, dead: &BTreeSet<usize>) {
    if dead.is_empty() {
        fs.remove(DEAD_PATH);
        return;
    }
    let mut w = Vec::with_capacity(4 + dead.len() * 4);
    w.extend_from_slice(&(dead.len() as u32).to_le_bytes());
    for r in dead {
        w.extend_from_slice(&(*r as u32).to_le_bytes());
    }
    fs.write_file(DEAD_PATH, w);
}

/// Little-endian byte cursor shared by the fault control files and the
/// `CRZL` record decoder in [`crate::replog`]: every `Option`-returning
/// accessor fails cleanly at a truncation instead of panicking.
pub(crate) struct Cur<'a> {
    b: &'a [u8],
    pub(crate) i: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Cur { b, i: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.i.checked_add(n)?;
        if end > self.b.len() {
            return None;
        }
        let s = &self.b[self.i..end];
        self.i = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// An empty vector with room for `n` decoded elements, capped at the
    /// unread input: every element occupies at least one byte, so a
    /// corrupt count can never reserve more than the input could fill.
    pub(crate) fn vec_for<T>(&self, n: u32) -> Vec<T> {
        Vec::with_capacity((n as usize).min(self.b.len() - self.i))
    }

    pub(crate) fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()? as usize;
        Some(self.take(n)?.to_vec())
    }

    pub(crate) fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
    }

    pub(crate) fn done(&self) -> bool {
        self.i == self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_fault_count_never_preallocates_past_the_input() {
        let fs = NetFs::new();
        fs.write_file(FAULTS_PATH, u32::MAX.to_le_bytes().to_vec());
        assert!(load_faults(&fs).is_empty());
    }
}
