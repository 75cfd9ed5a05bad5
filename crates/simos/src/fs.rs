//! The network-accessible filesystem.
//!
//! Like the paper's setup, checkpoint images and application files live on a
//! file system reachable from every node, so an application checkpointed on
//! one machine can be restarted on any other. The store is a single shared
//! object; each node accesses it through its own handle.
//!
//! Like a filesystem's free-block list, it keeps the buffers of the large
//! files it removes and lends them out for new contents
//! ([`NetFs::lend`]), so a steady stream of checkpoint images reuses one
//! working set of memory instead of freeing it and faulting it back in.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

/// A shared in-memory filesystem.
///
/// Cloning the handle shares the same underlying store (this is the
/// "network" part — every node mounts the same server).
///
/// # Examples
///
/// ```
/// use simos::fs::NetFs;
///
/// let fs = NetFs::new();
/// let node_a = fs.clone();
/// let node_b = fs.clone();
/// node_a.write_file("/ckpt/pod1.manifest", b"manifest".to_vec());
/// assert_eq!(node_b.read_file("/ckpt/pod1.manifest").unwrap(), b"manifest");
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetFs {
    files: Rc<RefCell<BTreeMap<String, Vec<u8>>>>,
    /// Files removed so far; see [`NetFs::removals`].
    removals: Rc<Cell<u64>>,
    /// Buffers of removed files and returned loans, kept for
    /// [`NetFs::lend`]: at most [`SPARE_BUFFERS`], each of at least
    /// [`SPARE_MIN_CAPACITY`] bytes.
    spares: Rc<RefCell<Vec<Vec<u8>>>>,
    /// Loans no spare could serve; see [`NetFs::lend_misses`].
    lend_misses: Rc<Cell<u64>>,
}

/// How many spare buffers a [`NetFs`] keeps for [`NetFs::lend`]: enough
/// for a checkpoint's images and a restore's assembly buffer of a job of a
/// few pods.
const SPARE_BUFFERS: usize = 8;

/// The smallest buffer a [`NetFs`] keeps (1 MiB). Smaller ones are cheap
/// for the allocator to serve again, and keeping them would only crowd
/// image-sized buffers off the list.
pub const SPARE_MIN_CAPACITY: usize = 1 << 20;

/// A read-only view of a [`NetFs`]'s files, lent by [`NetFs::with_view`].
#[derive(Debug, Clone, Copy)]
pub struct FsView<'a> {
    files: &'a BTreeMap<String, Vec<u8>>,
}

impl<'a> FsView<'a> {
    /// A file's bytes, borrowed for as long as the view.
    pub fn file(&self, path: &str) -> Option<&'a [u8]> {
        self.files.get(path).map(Vec::as_slice)
    }
}

impl NetFs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates or truncates a file with `data`.
    pub fn write_file(&self, path: &str, data: Vec<u8>) {
        self.files.borrow_mut().insert(path.to_owned(), data);
    }

    /// Appends to a file, creating it if needed. Returns the new length.
    pub fn append_file(&self, path: &str, data: &[u8]) -> usize {
        let mut files = self.files.borrow_mut();
        let f = files.entry(path.to_owned()).or_default();
        f.extend_from_slice(data);
        f.len()
    }

    /// Reads a whole file.
    pub fn read_file(&self, path: &str) -> Option<Vec<u8>> {
        self.files.borrow().get(path).cloned()
    }

    /// Runs `f` over a read-only [`FsView`] of every file, which hands out
    /// file bytes in place, without the copy [`NetFs::read_file`] makes.
    /// The view is `Send` and `Sync`, so `f` may share it with scoped
    /// worker threads. `f` must not touch this filesystem through a handle.
    pub fn with_view<R>(&self, f: impl FnOnce(FsView<'_>) -> R) -> R {
        f(FsView {
            files: &self.files.borrow(),
        })
    }

    /// Reads up to `len` bytes at `offset`.
    pub fn read_at(&self, path: &str, offset: u64, len: usize) -> Option<Vec<u8>> {
        let files = self.files.borrow();
        let f = files.get(path)?;
        let start = (offset as usize).min(f.len());
        let end = (start + len).min(f.len());
        Some(f[start..end].to_vec())
    }

    /// Writes `data` at `offset`, extending the file with zeros if needed.
    pub fn write_at(&self, path: &str, offset: u64, data: &[u8]) {
        let mut files = self.files.borrow_mut();
        let f = files.entry(path.to_owned()).or_default();
        let end = offset as usize + data.len();
        if f.len() < end {
            f.resize(end, 0);
        }
        f[offset as usize..end].copy_from_slice(data);
    }

    /// File size, if it exists.
    pub fn len_of(&self, path: &str) -> Option<u64> {
        self.files.borrow().get(path).map(|f| f.len() as u64)
    }

    /// True if the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.borrow().contains_key(path)
    }

    /// Removes a file; returns true if it existed. Its buffer becomes a
    /// spare ([`NetFs::give_back`]).
    pub fn remove(&self, path: &str) -> bool {
        let Some(buf) = self.files.borrow_mut().remove(path) else {
            return false;
        };
        self.removals.set(self.removals.get() + 1);
        self.give_back(buf);
        true
    }

    /// Lends an empty buffer with room for at least `len` bytes, for
    /// contents that will become a file or be given back: the smallest
    /// spare that fits — of equals, the one given back last, whose memory
    /// is the likeliest to still be cached — or, when none fits (a miss,
    /// counted by [`NetFs::lend_misses`]), an empty buffer that allocates
    /// as it grows. Never allocates itself, so `len` may be an untrusted
    /// hint.
    pub fn lend(&self, len: usize) -> Vec<u8> {
        let mut spares = self.spares.borrow_mut();
        // The list is in the order buffers came back, so the reversed
        // scan's first minimum is the last one given back.
        let fit = spares
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        match fit {
            Some(i) => {
                let mut buf = spares.remove(i);
                buf.clear();
                buf
            }
            None => {
                self.lend_misses.set(self.lend_misses.get() + 1);
                Vec::new()
            }
        }
    }

    /// Takes back a buffer whose contents are no longer needed — a lent
    /// one that did not become a file, or any other. It becomes a spare if
    /// it is large enough and the list has room; otherwise it is freed.
    pub fn give_back(&self, buf: Vec<u8>) {
        let mut spares = self.spares.borrow_mut();
        if buf.capacity() >= SPARE_MIN_CAPACITY && spares.len() < SPARE_BUFFERS {
            spares.push(buf);
        }
    }

    /// How many [`NetFs::lend`] calls, through any handle, found no spare
    /// large enough. Once a steady workload's working set is on the list,
    /// it stops growing.
    pub fn lend_misses(&self) -> u64 {
        self.lend_misses.get()
    }

    /// How many files [`NetFs::remove`] has removed from this filesystem,
    /// through any handle. It only grows, so a caller that saw a file and
    /// later reads the same count knows the file is still there.
    pub fn removals(&self) -> u64 {
        self.removals.get()
    }

    /// Lists paths under a prefix, in order, walking only the keys that
    /// start with it.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .borrow()
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(k, _)| k)
            .take_while(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_across_clones() {
        let fs = NetFs::new();
        let other = fs.clone();
        fs.write_file("/a", vec![1, 2, 3]);
        assert_eq!(other.read_file("/a"), Some(vec![1, 2, 3]));
        assert!(other.exists("/a"));
    }

    #[test]
    fn a_view_lends_file_bytes_across_threads() {
        let fs = NetFs::new();
        fs.write_file("/a", vec![1, 2, 3]);
        let sum = fs.with_view(|view| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    view.file("/a")
                        .map(|b| b.iter().map(|&x| u32::from(x)).sum::<u32>())
                })
                .join()
                .unwrap()
            })
        });
        assert_eq!(sum, Some(6));
        assert!(fs.with_view(|view| view.file("/missing").is_none()));
    }

    #[test]
    fn positional_io() {
        let fs = NetFs::new();
        fs.write_at("/f", 4, b"xy");
        assert_eq!(fs.read_file("/f").unwrap(), vec![0, 0, 0, 0, b'x', b'y']);
        assert_eq!(fs.read_at("/f", 4, 10).unwrap(), b"xy");
        assert_eq!(fs.read_at("/f", 100, 10).unwrap(), b"");
        assert_eq!(fs.read_at("/missing", 0, 1), None);
    }

    #[test]
    fn append_and_len() {
        let fs = NetFs::new();
        assert_eq!(fs.append_file("/log", b"ab"), 2);
        assert_eq!(fs.append_file("/log", b"cd"), 4);
        assert_eq!(fs.len_of("/log"), Some(4));
    }

    #[test]
    fn list_and_remove() {
        let fs = NetFs::new();
        fs.write_file("/ckpt/1", vec![]);
        fs.write_file("/ckpt/2", vec![]);
        fs.write_file("/data/x", vec![]);
        assert_eq!(fs.list("/ckpt/").len(), 2);
        assert!(fs.remove("/ckpt/1"));
        assert!(!fs.remove("/ckpt/1"));
        assert_eq!(fs.list("/ckpt/").len(), 1);
    }

    #[test]
    fn removals_count_only_files_that_existed_across_handles() {
        let fs = NetFs::new();
        let other = fs.clone();
        fs.write_file("/a", vec![]);
        fs.write_file("/b", vec![]);
        assert_eq!(fs.removals(), 0);
        assert!(!other.remove("/missing"));
        fs.write_file("/a", vec![1]);
        assert_eq!(fs.removals(), 0, "neither a miss nor an overwrite counts");
        assert!(other.remove("/a"));
        assert!(fs.remove("/b"));
        assert_eq!(fs.removals(), 2);
        assert_eq!(other.removals(), 2);
    }

    #[test]
    fn removed_files_lend_their_buffers_smallest_fit_first() {
        let fs = NetFs::new();
        let other = fs.clone();
        fs.write_file("/big", vec![7; 3 << 20]);
        fs.write_file("/mid", vec![7; 2 << 20]);
        fs.write_file("/tiny", vec![7; 16]);
        assert!(fs.remove("/big") && fs.remove("/mid") && fs.remove("/tiny"));
        let mid = other.lend(1 << 20);
        assert!(mid.is_empty());
        assert_eq!(mid.capacity(), 2 << 20);
        assert_eq!(fs.lend((2 << 20) + 1).capacity(), 3 << 20);
        assert_eq!(fs.lend_misses(), 0);
        assert_eq!(fs.lend(1).capacity(), 0, "a small buffer is not kept");
        assert_eq!(other.lend_misses(), 1);
        other.give_back(mid);
        assert_eq!(
            fs.lend(5).capacity(),
            2 << 20,
            "a loan given back is lent again"
        );
    }

    #[test]
    fn of_equal_spares_the_last_given_back_is_lent_first() {
        let fs = NetFs::new();
        let bufs: Vec<Vec<u8>> = (0..3)
            .map(|_| Vec::with_capacity(SPARE_MIN_CAPACITY))
            .collect();
        let at: Vec<*const u8> = bufs.iter().map(|b| b.as_ptr()).collect();
        for buf in bufs {
            fs.give_back(buf);
        }
        let last = fs.lend(1);
        assert_eq!(last.as_ptr(), at[2]);
        fs.give_back(last);
        let again = fs.lend(1);
        assert_eq!(again.as_ptr(), at[2]);
        let next = fs.lend(1);
        assert_eq!(next.as_ptr(), at[1]);
    }

    #[test]
    fn the_spare_list_is_bounded() {
        let fs = NetFs::new();
        for _ in 0..SPARE_BUFFERS + 2 {
            fs.give_back(Vec::with_capacity(SPARE_MIN_CAPACITY));
        }
        for _ in 0..SPARE_BUFFERS {
            assert!(fs.lend(SPARE_MIN_CAPACITY).capacity() >= SPARE_MIN_CAPACITY);
        }
        assert_eq!(fs.lend_misses(), 0);
        assert_eq!(fs.lend(0).capacity(), 0);
        assert_eq!(fs.lend_misses(), 1);
    }

    /// A path over a five-letter alphabet, so random paths share prefixes.
    fn path(letters: &[u8]) -> String {
        letters
            .iter()
            .map(|&i| b"/abc."[usize::from(i)] as char)
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn list_equals_the_filter_over_every_key(
            paths in proptest::collection::vec(proptest::collection::vec(0u8..5, 0..6), 0..24),
            prefix in proptest::collection::vec(0u8..5, 0..4),
        ) {
            let fs = NetFs::new();
            for p in &paths {
                fs.write_file(&path(p), vec![]);
            }
            let prefix = path(&prefix);
            let want: Vec<String> = fs
                .files
                .borrow()
                .keys()
                .filter(|k| k.starts_with(&prefix))
                .cloned()
                .collect();
            proptest::prop_assert_eq!(fs.list(&prefix), want);
        }
    }
}
