//! Quorum reads: every live replica's digest sidecar votes, the majority
//! digest is elected, and the first replica whose bytes verify against it
//! serves the image, with a fallback to any replica that self-verifies.

use zap::image::Sealed;

use super::ReplicatedStore;
use crate::chunk::ChunkId;
use crate::store::{CheckpointStore, ReadError};

impl ReplicatedStore {
    /// Quorum read of a pod image: the bytes [`ReplicatedStore::read_sealed`]
    /// serves.
    pub fn get_image(&self, pod_name: &str, epoch: u64) -> Option<Vec<u8>> {
        self.read_sealed(pod_name, epoch)
            .ok()
            .map(Sealed::into_bytes)
    }

    /// Quorum read of a pod image: collect digest-sidecar votes from every
    /// live replica, elect the majority digest (ties to the lowest
    /// replica), and serve the first replica whose bytes verify against
    /// it. Falls back to any live replica that self-verifies when no
    /// majority copy is readable. Each replica's read is
    /// [`CheckpointStore::read_sealed`], so the served image's checksum is
    /// settled by the same pass that verified it.
    ///
    /// # Errors
    ///
    /// [`ReadError::Absent`] when no live replica holds anything for the
    /// pod in `epoch`; [`ReadError::Corrupt`] when none of what they hold
    /// verifies.
    pub fn read_sealed(&self, pod_name: &str, epoch: u64) -> Result<Sealed, ReadError> {
        self.quorum_read(pod_name, epoch, |rep| rep.read_sealed(pod_name, epoch))
    }

    /// The restore read: [`ReplicatedStore::read_sealed`], assembled into a
    /// buffer the filesystem lends, together with the physical bytes the
    /// serving replica read ([`CheckpointStore::read_stored`]).
    ///
    /// # Errors
    ///
    /// As [`ReplicatedStore::read_sealed`].
    pub fn read_stored(&self, pod_name: &str, epoch: u64) -> Result<(Sealed, u64), ReadError> {
        self.quorum_read(pod_name, epoch, |rep| rep.read_stored(pod_name, epoch))
    }

    /// The quorum read both public reads run, with `read` as each
    /// replica's verified read.
    fn quorum_read<T>(
        &self,
        pod_name: &str,
        epoch: u64,
        read: impl Fn(&CheckpointStore) -> Result<T, ReadError>,
    ) -> Result<T, ReadError> {
        let alive = self.alive_replicas();
        let mut votes: Vec<(ChunkId, usize)> = Vec::new();
        for &r in &alive {
            if let Some(d) = self.replica(r).read_digest(pod_name, epoch) {
                match votes.iter_mut().find(|(x, _)| *x == d) {
                    Some((_, n)) => *n += 1,
                    None => votes.push((d, 1)),
                }
            }
        }
        let mut winner = None;
        for &(d, n) in &votes {
            if winner.is_none_or(|(_, wn)| n > wn) {
                winner = Some((d, n));
            }
        }
        if let Some((want, _)) = winner {
            for &r in &alive {
                let rep = self.replica(r);
                if rep.read_digest(pod_name, epoch) == Some(want) {
                    // The store's own read path re-verifies chunk addresses
                    // and the whole-image digest, so a corrupt copy under a
                    // matching sidecar still falls through.
                    if let Ok(image) = read(&rep) {
                        return Ok(image);
                    }
                }
            }
        }
        // Without any sidecar vote no replica can verify; the pass below
        // then only tells an absent image from an unverifiable one.
        let mut err = ReadError::Absent;
        for &r in &alive {
            match read(&self.replica(r)) {
                Ok(image) => return Ok(image),
                Err(ReadError::Corrupt) => err = ReadError::Corrupt,
                Err(ReadError::Absent) => {}
            }
        }
        Err(err)
    }
}
