//! Kernel pipe objects.

use std::collections::{BTreeMap, VecDeque};

use crate::fd::PipeId;

/// Default pipe capacity in bytes (as in Linux 2.4: one page... times four
/// for comfort).
pub const PIPE_CAPACITY: usize = 16 * 1024;

/// A unidirectional byte pipe.
#[derive(Debug, Clone)]
pub struct Pipe {
    buf: VecDeque<u8>,
    capacity: usize,
    readers: u32,
    writers: u32,
}

impl Pipe {
    fn new() -> Self {
        Pipe {
            buf: VecDeque::new(),
            capacity: PIPE_CAPACITY,
            readers: 1,
            writers: 1,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns true if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Free space.
    pub fn free(&self) -> usize {
        self.capacity - self.buf.len()
    }

    /// True once every writer descriptor is closed.
    pub fn write_end_closed(&self) -> bool {
        self.writers == 0
    }

    /// True once every reader descriptor is closed.
    pub fn read_end_closed(&self) -> bool {
        self.readers == 0
    }

    /// The buffered bytes, for checkpointing.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.buf.iter().copied().collect()
    }
}

/// The kernel's table of pipe objects.
#[derive(Debug, Clone, Default)]
pub struct PipeTable {
    pipes: BTreeMap<PipeId, Pipe>,
    next: u64,
}

impl PipeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a pipe with one reader and one writer reference.
    pub fn create(&mut self) -> PipeId {
        let id = PipeId(self.next);
        self.next += 1;
        self.pipes.insert(id, Pipe::new());
        id
    }

    /// Recreates a pipe with specific buffered contents (restore path).
    pub fn restore(&mut self, contents: Vec<u8>, readers: u32, writers: u32) -> PipeId {
        let id = self.create();
        let p = self.pipes.get_mut(&id).expect("just created");
        p.buf = VecDeque::from(contents);
        p.readers = readers;
        p.writers = writers;
        id
    }

    /// Looks up a pipe.
    pub fn get(&self, id: PipeId) -> Option<&Pipe> {
        self.pipes.get(&id)
    }

    /// Writes up to `free()` bytes; returns bytes accepted, or `None` if the
    /// read end is closed (EPIPE).
    pub fn write(&mut self, id: PipeId, data: &[u8]) -> Option<usize> {
        let p = self.pipes.get_mut(&id)?;
        if p.read_end_closed() {
            return None;
        }
        let n = data.len().min(p.free());
        p.buf.extend(&data[..n]);
        Some(n)
    }

    /// Reads up to `max` bytes. Returns the data; an empty result with
    /// `write_end_closed` means EOF.
    pub fn read(&mut self, id: PipeId, max: usize) -> Vec<u8> {
        let Some(p) = self.pipes.get_mut(&id) else {
            return Vec::new();
        };
        simnet::take_front(&mut p.buf, max)
    }

    /// Notes an additional reference to one end (e.g. thread spawn sharing
    /// the table does not call this: it shares the same descriptors).
    pub fn add_ref(&mut self, id: PipeId, write_end: bool) {
        if let Some(p) = self.pipes.get_mut(&id) {
            if write_end {
                p.writers += 1;
            } else {
                p.readers += 1;
            }
        }
    }

    /// Drops a reference to one end; removes the pipe when both ends reach
    /// zero references.
    pub fn drop_ref(&mut self, id: PipeId, write_end: bool) {
        let remove = {
            let Some(p) = self.pipes.get_mut(&id) else {
                return;
            };
            if write_end {
                p.writers = p.writers.saturating_sub(1);
            } else {
                p.readers = p.readers.saturating_sub(1);
            }
            p.readers == 0 && p.writers == 0
        };
        if remove {
            self.pipes.remove(&id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut t = PipeTable::new();
        let id = t.create();
        assert_eq!(t.write(id, b"hello"), Some(5));
        assert_eq!(t.read(id, 3), b"hel");
        assert_eq!(t.read(id, 10), b"lo");
        assert_eq!(t.read(id, 10), b"");
    }

    #[test]
    fn capacity_limits_writes() {
        let mut t = PipeTable::new();
        let id = t.create();
        let big = vec![0u8; PIPE_CAPACITY + 100];
        assert_eq!(t.write(id, &big), Some(PIPE_CAPACITY));
        assert_eq!(t.write(id, b"x"), Some(0));
    }

    #[test]
    fn closed_read_end_breaks_pipe() {
        let mut t = PipeTable::new();
        let id = t.create();
        t.drop_ref(id, false);
        assert_eq!(t.write(id, b"x"), None, "EPIPE");
    }

    #[test]
    fn closed_write_end_gives_eof_after_drain() {
        let mut t = PipeTable::new();
        let id = t.create();
        t.write(id, b"last").unwrap();
        t.drop_ref(id, true);
        assert!(t.get(id).unwrap().write_end_closed());
        assert_eq!(t.read(id, 10), b"last");
        assert_eq!(t.read(id, 10), b"");
    }

    #[test]
    fn pipe_removed_when_both_ends_close() {
        let mut t = PipeTable::new();
        let id = t.create();
        t.drop_ref(id, true);
        assert!(t.get(id).is_some());
        t.drop_ref(id, false);
        assert!(t.get(id).is_none());
    }

    #[test]
    fn restore_reinstates_contents() {
        let mut t = PipeTable::new();
        let id = t.restore(b"buffered".to_vec(), 1, 1);
        assert_eq!(t.get(id).unwrap().snapshot_bytes(), b"buffered");
        assert_eq!(t.read(id, 100), b"buffered");
    }
}
