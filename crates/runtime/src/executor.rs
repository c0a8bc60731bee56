//! The scoped-thread work-sharded executor.

use std::sync::atomic::{AtomicUsize, Ordering};

/// One worker's output: `(input index, result)` pairs, or the panic
/// payload if the worker's closure panicked.
type Shard<R> = Result<Vec<(usize, R)>, Box<dyn std::any::Any + Send>>;

/// A deterministic parallel mapper.
///
/// [`Executor::map`] applies a function to every element of a slice,
/// using up to `workers` OS threads. Scheduling is dynamic (workers pull
/// the next unclaimed index from a shared atomic counter, so uneven cell
/// costs balance out), but results are returned **in input order** — the
/// output is identical to a serial `iter().map()` run as long as the
/// function itself is a pure function of `(index, item)`.
///
/// With `workers <= 1` (or a single-element input) no threads are
/// spawned at all; the map runs inline on the caller's thread.
#[derive(Clone, Debug)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// Creates an executor with the given worker count (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Executor {
            workers: workers.max(1),
        }
    }

    /// The single-threaded executor: `map` runs inline, no threads.
    pub fn serial() -> Self {
        Executor { workers: 1 }
    }

    /// The number of hardware threads the OS reports (≥ 1).
    pub fn available() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// # Panics
    ///
    /// If `f` panics on any item, the panic is resumed on the calling
    /// thread once all workers have stopped (same observable behavior as
    /// a serial map, modulo which item's panic wins).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.workers <= 1 || n <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let workers = self.workers.min(n);
        let next = AtomicUsize::new(0);
        let shards: Vec<Shard<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, f(i, &items[i])));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for shard in shards {
            match shard {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        slots
            .into_iter()
            .map(|o| o.expect("every index is claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u32> = (0..100).collect();
        for workers in [1, 2, 3, 8] {
            let out = Executor::new(workers).map(&items, |i, &x| (i as u32, x * 2));
            assert_eq!(out.len(), 100);
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx, i as u32);
                assert_eq!(*doubled, 2 * i as u32);
            }
        }
    }

    #[test]
    fn parallel_equals_serial_under_uneven_load() {
        let items: Vec<u64> = (0..64).collect();
        let f = |_i: usize, &x: &u64| {
            // Uneven busy-work so workers finish out of order.
            let mut acc = x;
            for _ in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let serial = Executor::serial().map(&items, f);
        let par = Executor::new(4).map(&items, f);
        assert_eq!(serial, par);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let items: Vec<u8> = vec![0; 257];
        Executor::new(5).map(&items, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn zero_workers_runs_inline() {
        let items: Vec<u32> = (0..10).collect();
        let caller = std::thread::current().id();
        let out = Executor::new(0).map(&items, |_, &x| (x, std::thread::current().id()));
        assert!(out.iter().all(|&(_, id)| id == caller));
        assert_eq!(out.iter().map(|&(x, _)| x).collect::<Vec<_>>(), items);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let exec = Executor::new(4);
        let empty: Vec<u8> = vec![];
        assert!(exec.map(&empty, |_, &x| x).is_empty());
        assert_eq!(exec.map(&[9u8], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn available_reports_at_least_one() {
        assert!(Executor::available() >= 1);
    }

    #[test]
    #[should_panic(expected = "cell 13")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..32).collect();
        Executor::new(4).map(&items, |i, _| {
            if i == 13 {
                panic!("cell 13");
            }
            i
        });
    }
}
