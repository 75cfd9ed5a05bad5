//! Typed errors for the checkpoint-restart control plane.
//!
//! The coordinator and agent state machines are total functions — they
//! ignore stale or malformed inputs rather than fail. Errors arise where
//! the protocol meets the world: binding control sockets, decoding stored
//! images, driving the Zap layer. Hosting runtimes (the `cluster` crate)
//! surface those as [`CruzError`] values instead of panicking, so a corrupt
//! image or an exhausted port aborts one operation, not the whole cluster.

use std::fmt;

use simnet::stack::NetError;
use zap::image::ImageError;
use zap::manager::ZapError;

use crate::chunk::ChunkId;

/// An error in the checkpoint-restart control plane.
#[derive(Debug)]
pub enum CruzError {
    /// A coordinator or agent control socket could not be created/bound.
    ControlSocket(NetError),
    /// A stored checkpoint image failed to decode. Restarting from it must
    /// abort, not panic.
    BadImage(ImageError),
    /// A pod's stored checkpoint image is present but fails the store's
    /// verification (digest sidecar, manifest or chunk checks). Restarting
    /// without that pod would resume a partial job, so the operation
    /// aborts.
    CorruptImage {
        /// The pod whose image failed.
        pod: String,
    },
    /// A pod's prepared checkpoint write named a stored chunk that was
    /// deleted before the write applied. The store wrote no manifest for
    /// the pod, so the epoch cannot commit and the operation aborts.
    MissingChunk {
        /// The pod whose write failed.
        pod: String,
        /// The chunk that vanished.
        chunk: ChunkId,
    },
    /// The Zap layer refused a checkpoint/restore action.
    Zap(ZapError),
    /// A control-plane invariant was violated (e.g. a message referenced an
    /// operation that does not exist).
    Protocol(&'static str),
}

impl fmt::Display for CruzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CruzError::ControlSocket(e) => write!(f, "control socket: {e}"),
            CruzError::BadImage(e) => write!(f, "checkpoint image: {e}"),
            CruzError::CorruptImage { pod } => {
                write!(f, "checkpoint image of {pod} fails verification")
            }
            CruzError::MissingChunk { pod, chunk } => {
                write!(f, "checkpoint write of {pod} names deleted chunk {chunk}")
            }
            CruzError::Zap(e) => write!(f, "zap layer: {e}"),
            CruzError::Protocol(what) => write!(f, "protocol invariant violated: {what}"),
        }
    }
}

impl std::error::Error for CruzError {}

impl From<ImageError> for CruzError {
    fn from(e: ImageError) -> Self {
        CruzError::BadImage(e)
    }
}

impl From<ZapError> for CruzError {
    fn from(e: ZapError) -> Self {
        CruzError::Zap(e)
    }
}

impl From<NetError> for CruzError {
    fn from(e: NetError) -> Self {
        CruzError::ControlSocket(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CruzError::Protocol("continue before done");
        assert!(e.to_string().contains("continue before done"));
    }
}
