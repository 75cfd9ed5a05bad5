//! Deterministic worker pool for the checkpoint hot paths.
//!
//! The checkpoint pipeline's expensive kernels — chunk hashing, per-chunk
//! compression and decompression — are pure functions of their input
//! bytes. This module runs such kernels on scoped `std::thread` workers in
//! two shapes, each of which hands results back **in input order**, so the
//! output is indistinguishable from what a serial loop would produce:
//!
//! * [`Pool::map_ordered`] shards one kernel across the pool. Tasks are
//!   distributed as *indexed blocks*: workers race for blocks, but every
//!   result carries its block index home, and the merge slots each block's
//!   results by index and flattens, so the final sequence is the input
//!   sequence regardless of which worker ran which block or in what order
//!   blocks finished.
//! * [`Pool::pipeline`] overlaps two stages: a producer on one worker and
//!   a consumer on the calling thread, joined by a bounded FIFO channel.
//!   One producer and one FIFO keep the input order by construction, and
//!   the bound keeps only a few batches in flight. Restore decodes chunks
//!   on the worker while the calling thread folds and appends them; the
//!   capture prepare folds on the worker while the calling thread looks
//!   chunks up and encodes the novel ones.
//!
//! The kernels are pure (no shared mutable state, no I/O beyond read-only
//! views), so per-item results cannot depend on scheduling either.
//! Together: byte-identical output at every thread count, which is what
//! lets the golden-trace digests stay pinned while wall-clock checkpoint
//! cost drops with available cores. `threads == 1` runs both shapes as a
//! plain serial loop on the calling thread — the reference oracle the
//! twin-path property tests compare the threaded paths against. This is
//! the only module that spawns threads (`cruz-lint`'s `stray-thread`
//! rule), so this ordering argument is the whole of it.
//!
//! Thread count resolution (see [`resolve`]): an explicit non-zero request
//! wins; `0` means "auto", the host's available parallelism. Simulated time
//! is unaffected in every case: the pool only parallelizes wall-clock work
//! *inside* a single DES event, never event scheduling.

use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;

/// Results a [`Pool::pipeline`] producer hands over per channel message:
/// enough to amortize one wake-up of the other stage, few enough that the
/// pipeline fills and drains in a few items' time.
const PIPE_BATCH: usize = 32;

/// Batches a [`Pool::pipeline`] channel holds before the producer waits:
/// with one batch being built and one being consumed, at most
/// `(PIPE_DEPTH + 2) * PIPE_BATCH` results are in flight.
const PIPE_DEPTH: usize = 2;

/// Resolves a configured thread count to an effective one: a non-zero
/// request is honored as-is; `0` (auto) takes the host's available
/// parallelism. Always at least 1.
pub fn resolve(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fixed-width worker pool. Creating one is free — threads are scoped to
/// each [`Pool::map_ordered`] call, so a `Pool` is just the resolved width.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of [`resolve`]`(threads)` workers.
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: resolve(threads),
        }
    }

    /// The effective worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, preserving input order in the output.
    ///
    /// `init` builds one per-worker state `S` (e.g. a `CodecScratch`) that
    /// `f` may mutate freely: state never crosses workers, and `f` must be
    /// pure with respect to everything else, so the per-item results are
    /// independent of which worker computes them. With one worker (or a
    /// trivially small input) this is exactly a serial fold over one state
    /// — the reference oracle.
    pub fn map_ordered<T, R, S>(
        &self,
        items: Vec<T>,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        let n = items.len();
        if self.threads <= 1 || n <= 1 {
            let mut state = init();
            return items.into_iter().map(|it| f(&mut state, it)).collect();
        }
        // Indexed blocks, a few per worker so a slow block (incompressible
        // pages) can't serialize the tail behind one thread.
        let block = n.div_ceil(self.threads * 4).max(1);
        let mut blocks: Vec<Vec<T>> = Vec::with_capacity(n.div_ceil(block));
        let mut it = items.into_iter();
        loop {
            let b: Vec<T> = it.by_ref().take(block).collect();
            if b.is_empty() {
                break;
            }
            blocks.push(b);
        }
        let nblocks = blocks.len();
        let workers = self.threads.min(nblocks);
        // Every block is queued up front, so workers never block on recv:
        // the channel acts as a Mutex-guarded deque they drain to empty.
        let (task_tx, task_rx) = mpsc::channel::<(usize, Vec<T>)>();
        for task in blocks.into_iter().enumerate() {
            if task_tx.send(task).is_err() {
                break; // receiver alive until scope end; unreachable
            }
        }
        drop(task_tx);
        let tasks = Mutex::new(task_rx);
        let (res_tx, res_rx) = mpsc::channel::<(usize, Vec<R>)>();
        let mut out: Vec<Option<Vec<R>>> = (0..nblocks).map(|_| None).collect();
        thread::scope(|scope| {
            for _ in 0..workers {
                let res_tx = res_tx.clone();
                let tasks = &tasks;
                let init = &init;
                let f = &f;
                scope.spawn(move || {
                    let mut state = init();
                    loop {
                        // Lock → recv → unlock; recv never waits because the
                        // queue was filled before any worker started.
                        let task = {
                            let rx = match tasks.lock() {
                                Ok(rx) => rx,
                                Err(poisoned) => poisoned.into_inner(),
                            };
                            rx.try_recv()
                        };
                        let Ok((idx, block)) = task else {
                            return; // queue drained
                        };
                        let results: Vec<R> =
                            block.into_iter().map(|item| f(&mut state, item)).collect();
                        if res_tx.send((idx, results)).is_err() {
                            return; // collector gone; nothing left to do
                        }
                    }
                });
            }
            drop(res_tx);
            // Slot results by block index: this is the ordered merge.
            while let Ok((idx, results)) = res_rx.recv() {
                out[idx] = Some(results);
            }
        });
        // Scope joins every worker before returning (propagating any worker
        // panic), so each slot is filled exactly once by construction.
        out.into_iter().flatten().flatten().collect()
    }

    /// Runs `produce` over `items` and `consume` over its results, in
    /// input order, as a two-stage pipeline: the producer on one scoped
    /// worker, the consumer on the calling thread, so the two stages'
    /// wall-clock costs overlap instead of adding up.
    ///
    /// The producer hands its results over in batches through a bounded
    /// channel, so at most a few batches are in flight whatever the input
    /// length. `consume` returns `false` to stop early; the producer then
    /// ends at its next hand-over. Returns `true` iff every item was
    /// consumed and accepted. A panic in either stage propagates to the
    /// caller once both have stopped.
    ///
    /// With one thread both stages run inline on the calling thread:
    /// `items.map(produce).all(consume)`, the reference oracle.
    pub fn pipeline<I, P>(
        &self,
        items: I,
        mut produce: impl FnMut(I::Item) -> P + Send,
        mut consume: impl FnMut(P) -> bool,
    ) -> bool
    where
        I: IntoIterator,
        I::IntoIter: Send,
        P: Send,
    {
        let items = items.into_iter();
        if self.threads <= 1 {
            return items.map(produce).all(consume);
        }
        let (tx, rx) = mpsc::sync_channel::<Vec<P>>(PIPE_DEPTH);
        thread::scope(|scope| {
            scope.spawn(move || {
                let mut items = items;
                loop {
                    let batch: Vec<P> = items.by_ref().take(PIPE_BATCH).map(&mut produce).collect();
                    if batch.is_empty() || tx.send(batch).is_err() {
                        return; // input exhausted, or the consumer stopped
                    }
                }
            });
            // One producer and one FIFO channel: batches arrive in input
            // order, and so do the results within each.
            let accepted = rx.iter().flatten().all(&mut consume);
            // Hanging up ends a producer that is still running; a consumer
            // that panics hangs up the same way, by unwinding past `rx`.
            drop(rx);
            accepted
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_merge_matches_serial_at_every_width() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        for threads in [1usize, 2, 3, 4, 8, 16] {
            let pool = Pool::new(threads);
            let got = pool.map_ordered(items.clone(), || (), |_, x: u64| x.wrapping_mul(x) ^ 7);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn per_worker_state_is_used_and_isolated() {
        // The state counts items seen by one worker; results must not
        // depend on it beyond what a serial run would produce when the
        // kernel ignores the count (purity is the caller's contract —
        // here we only check the state plumbing compiles and runs).
        let pool = Pool::new(4);
        let got = pool.map_ordered(
            (0..100u32).collect::<Vec<_>>(),
            || 0usize,
            |count, x| {
                *count += 1;
                x * 2
            },
        );
        assert_eq!(got, (0..100u32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(8);
        let empty: Vec<u8> = pool.map_ordered(Vec::<u8>::new(), || (), |_, x| x);
        assert!(empty.is_empty());
        let one = pool.map_ordered(vec![42u8], || (), |_, x| x + 1);
        assert_eq!(one, vec![43]);
    }

    #[test]
    fn resolve_precedence() {
        assert_eq!(resolve(3), 3, "explicit request wins");
        assert_eq!(resolve(1), 1);
        assert!(resolve(0) >= 1, "auto is the host's parallelism");
    }

    /// Items enough for many batches.
    const PIPED: u64 = 1000;

    #[test]
    fn pipeline_keeps_input_order_at_every_width() {
        let want: Vec<u64> = (0..PIPED).map(|x| x.wrapping_mul(x) ^ 7).collect();
        for threads in [1usize, 2, 4] {
            let mut got = Vec::new();
            let done = Pool::new(threads).pipeline(
                0..PIPED,
                |x| x.wrapping_mul(x) ^ 7,
                |y| {
                    got.push(y);
                    true
                },
            );
            assert!(done, "threads={threads}");
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn pipeline_stage_state_carries_across_items() {
        // A stateful producer (a running sum, like the seal's chains) sees
        // the items in input order on its one worker.
        for threads in [1usize, 2, 4] {
            let mut sum = 0u64;
            let mut got = Vec::new();
            Pool::new(threads).pipeline(
                0..PIPED,
                |x| {
                    sum += x;
                    sum
                },
                |s| {
                    got.push(s);
                    true
                },
            );
            let want: Vec<u64> = (0..PIPED).map(|x| x * (x + 1) / 2).collect();
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(sum, PIPED * (PIPED - 1) / 2);
        }
    }

    #[test]
    fn pipeline_early_stop_ends_the_producer() {
        use std::sync::atomic::{AtomicU64, Ordering};
        for threads in [1usize, 2, 4] {
            let produced = AtomicU64::new(0);
            let mut seen = 0u64;
            let done = Pool::new(threads).pipeline(
                0..u64::MAX,
                |x| {
                    produced.fetch_add(1, Ordering::Relaxed);
                    x
                },
                |x| {
                    seen += 1;
                    x < 100
                },
            );
            assert!(!done, "threads={threads}");
            assert_eq!(seen, 101, "the consumer stops at the first refusal");
            // The producer ran at most the channel's bound past the stop.
            let bound = 101 + ((PIPE_DEPTH + 2) * PIPE_BATCH) as u64;
            assert!(
                produced.load(Ordering::Relaxed) <= bound,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn pipeline_empty_and_short_inputs() {
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let mut calls = 0;
            assert!(pool.pipeline(
                Vec::<u8>::new(),
                |x| x,
                |_| {
                    calls += 1;
                    true
                }
            ));
            assert_eq!(calls, 0);
            let mut got = Vec::new();
            assert!(pool.pipeline(
                vec![1u8, 2, 3],
                |x| x + 1,
                |y| {
                    got.push(y);
                    true
                }
            ));
            assert_eq!(got, [2, 3, 4]);
        }
    }

    #[test]
    fn pipeline_producer_panic_propagates() {
        for threads in [1usize, 2, 4] {
            let run = std::panic::catch_unwind(|| {
                Pool::new(threads).pipeline(
                    0..PIPED,
                    |x| {
                        assert!(x != 500, "producer fault");
                        x
                    },
                    |_| true,
                )
            });
            assert!(run.is_err(), "threads={threads}");
        }
    }

    #[test]
    fn pipeline_consumer_panic_propagates() {
        for threads in [1usize, 2, 4] {
            let run = std::panic::catch_unwind(|| {
                Pool::new(threads).pipeline(
                    0..PIPED,
                    |x| x,
                    |x| {
                        assert!(x != 500, "consumer fault");
                        true
                    },
                )
            });
            assert!(run.is_err(), "threads={threads}");
        }
    }
}
