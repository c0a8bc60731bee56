//! Long-lived bounded job queues and worker pools.
//!
//! [`Executor`](crate::Executor) covers the *batch* shape — map a pure
//! function over a slice and return. A request-serving workload needs the
//! complementary *streaming* shape: jobs arrive continuously, capacity is
//! bounded, and producers must learn about overload instead of buffering
//! without limit. That is [`JobQueue`] (a bounded MPMC queue whose
//! `try_push` is the admission-control decision point) plus
//! [`WorkerPool`] (OS threads that drain the queue until it is closed
//! *and* empty, giving graceful drain-then-exit shutdown for free).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Why a [`JobQueue::try_push`] was refused. The job is handed back so the
/// caller can respond to its originator.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — the admission-control signal.
    Full(T),
    /// The queue has been closed; no new jobs are accepted.
    Closed(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer job queue.
///
/// * [`try_push`](JobQueue::try_push) never blocks: a full queue is an
///   immediate [`PushError::Full`], which callers surface as an explicit
///   overload response.
/// * [`pop`](JobQueue::pop) blocks until a job is available, and returns
///   `None` only once the queue is closed **and** drained — so workers
///   looping on `pop` finish every accepted job before exiting.
/// * Capacity `0` is legal and refuses every push (useful for testing
///   overload paths deterministically).
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// Creates a queue holding at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(JobQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        })
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of pending jobs.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether no jobs are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](JobQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }

    /// Admits `job` if there is room, without blocking. Returns the queue
    /// depth *including the job just pushed* — the caller's deterministic
    /// high-water observation (reading `len()` afterwards races with
    /// consumers, which made queue-peak metrics nondeterministic).
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](JobQueue::close); both return the job to the caller.
    pub fn try_push(&self, job: T) -> Result<usize, PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed(job));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(job));
        }
        state.items.push_back(job);
        let depth = state.items.len();
        drop(state);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Takes the next job, blocking while the queue is open but empty.
    ///
    /// Returns `None` once the queue is closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = state.items.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock");
        }
    }

    /// Closes the queue: pending jobs still drain through `pop`, new
    /// pushes are refused, and blocked consumers wake up. Idempotent.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
    }
}

/// A fixed set of OS threads draining one or more [`JobQueue`]s.
///
/// Each worker loops `queue.pop()` on its shard's queue and hands every
/// job to the shared handler. Workers exit when `pop` returns `None` —
/// i.e. after [`JobQueue::close`] once the queue is drained — so
/// [`join`](WorkerPool::join) *is* graceful shutdown.
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns workers partitioned across `queues`, one shard per queue.
    ///
    /// `workers` is the *total* thread budget; every shard is guaranteed
    /// at least one dedicated worker (so no shard's queue can starve),
    /// and any surplus is dealt round-robin from shard 0 — the effective
    /// thread count is `max(workers, queues.len())`. The handler is
    /// called as `handler(shard_index, worker_index, job)` with
    /// `worker_index` global across shards.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is empty.
    pub fn spawn_sharded<T, F>(workers: usize, queues: &[Arc<JobQueue<T>>], handler: F) -> Self
    where
        T: Send + 'static,
        F: Fn(usize, usize, T) + Send + Sync + 'static,
    {
        assert!(!queues.is_empty(), "spawn_sharded needs at least one queue");
        let shards = queues.len();
        let total = workers.max(shards);
        let handler = Arc::new(handler);
        let mut handles = Vec::with_capacity(total);
        for index in 0..total {
            let shard = index % shards;
            let queue = Arc::clone(&queues[shard]);
            let handler = Arc::clone(&handler);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("asm-worker-{shard}.{index}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            handler(shard, index, job);
                        }
                    })
                    .expect("spawn worker thread"),
            );
        }
        WorkerPool { handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Waits for every worker to exit (close the queue first, or this
    /// blocks forever).
    ///
    /// # Panics
    ///
    /// Re-raises a worker thread's panic.
    pub fn join(self) {
        for h in self.handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn jobs_flow_through_in_fifo_order_serially() {
        let q = JobQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_queue_refuses_without_blocking() {
        let q = JobQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(job)) => assert_eq!(job, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn zero_capacity_refuses_everything() {
        let q = JobQueue::new(0);
        assert!(matches!(q.try_push(9), Err(PushError::Full(9))));
    }

    #[test]
    fn closed_queue_refuses_and_drains() {
        let q = JobQueue::new(4);
        q.try_push("a").unwrap();
        q.close();
        assert!(matches!(q.try_push("b"), Err(PushError::Closed("b"))));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
        assert!(q.is_closed());
    }

    #[test]
    fn workers_drain_every_accepted_job() {
        let q = JobQueue::new(128);
        let done = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let pool = {
            let (done, sum) = (Arc::clone(&done), Arc::clone(&sum));
            WorkerPool::spawn_sharded(4, &[Arc::clone(&q)], move |_, _, job: u64| {
                sum.fetch_add(job, Ordering::Relaxed);
                done.fetch_add(1, Ordering::Relaxed);
            })
        };
        assert_eq!(pool.workers(), 4);
        for i in 0..100u64 {
            q.try_push(i).unwrap();
        }
        q.close();
        pool.join();
        assert_eq!(done.load(Ordering::Relaxed), 100);
        assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum::<u64>());
    }

    #[test]
    fn try_push_reports_the_depth_including_itself() {
        let q = JobQueue::new(4);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        q.pop().unwrap();
        assert_eq!(q.try_push(3).unwrap(), 2);
    }

    #[test]
    fn sharded_pool_gives_every_shard_a_worker_and_drains_all() {
        let queues: Vec<_> = (0..3).map(|_| JobQueue::new(64)).collect();
        let per_shard: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
        let pool = {
            let per_shard = Arc::clone(&per_shard);
            // Thread budget below the shard count: still one per shard.
            WorkerPool::spawn_sharded(1, &queues, move |shard, _worker, job: u64| {
                per_shard[shard].fetch_add(job, Ordering::Relaxed);
            })
        };
        assert_eq!(pool.workers(), 3);
        for (s, q) in queues.iter().enumerate() {
            for j in 0..10u64 {
                q.try_push(100 * s as u64 + j).unwrap();
            }
        }
        for q in &queues {
            q.close();
        }
        pool.join();
        for (s, total) in per_shard.iter().enumerate() {
            let expect: u64 = (0..10u64).map(|j| 100 * s as u64 + j).sum();
            assert_eq!(total.load(Ordering::Relaxed), expect, "shard {s}");
        }
    }

    #[test]
    fn sharded_pool_distributes_surplus_workers() {
        let queues: Vec<_> = (0..2).map(|_| JobQueue::<u8>::new(1)).collect();
        let pool = WorkerPool::spawn_sharded(5, &queues, |_, _, _| {});
        assert_eq!(pool.workers(), 5);
        for q in &queues {
            q.close();
        }
        pool.join();
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q: Arc<JobQueue<u8>> = JobQueue::new(4);
        let pool = WorkerPool::spawn_sharded(2, &[Arc::clone(&q)], |_, _, _| {});
        q.close();
        pool.join(); // must return, not hang
    }

    #[test]
    fn worker_count_clamps_to_one() {
        let q: Arc<JobQueue<u8>> = JobQueue::new(1);
        let pool = WorkerPool::spawn_sharded(0, &[Arc::clone(&q)], |_, _, _| {});
        assert_eq!(pool.workers(), 1);
        q.close();
        pool.join();
    }
}
