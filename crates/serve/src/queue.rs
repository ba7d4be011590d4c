//! The bounded MPMC request queue with dynamic batching.
//!
//! [`ShardedQueue`] is the engine's one queue: a single FIFO every worker
//! drains, bounded depth, close-then-drain shutdown. Producers block when
//! it is full (natural backpressure for closed-loop clients; open-loop
//! generators use [`ShardedQueue::try_push`] and count drops). Consumers
//! block until at least one item is available, then drain up to a batch
//! limit in one critical section — the "dynamic batching" a serving engine
//! wants: batches grow exactly as large as the backlog, with no added
//! latency when traffic is light.
//!
//! One mutex guards the deque, the closed flag and the counts of parked
//! consumers and producers; each of the two condvars is signalled only
//! when someone is parked on it. A push wakes one consumer, not all of
//! them, so concurrent arrivals coalesce into one batch instead of being
//! split one per woken worker.
//!
//! The name and the `shards` / `worker` arguments are kept for the
//! repository benchmark, which compiles against `new(1, _)` and
//! `pop_batch(0, _)`; ROADMAP item 1(a) lets them go.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Error returned by pushes into a closed queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Closed;

/// Error returned by [`ShardedQueue::try_push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryPushError {
    /// The queue was at capacity.
    Full,
    /// The queue has been closed.
    Closed,
}

/// One batch popped from a [`ShardedQueue`].
#[derive(Debug)]
pub struct ShardedBatch<T> {
    /// The drained items, in FIFO order.
    pub items: Vec<T>,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers parked on `nonempty`.
    parked_consumers: usize,
    /// Producers parked on `nonfull`.
    parked_producers: usize,
    /// Parked-consumer wake-ups that found the queue empty and open.
    wasted_wakes: u64,
}

/// A bounded MPMC FIFO with batch drains: one mutex, two condvars.
pub struct ShardedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    /// Signalled (once per push) when a consumer is parked.
    nonempty: Condvar,
    /// Signalled (once per drain) when a producer is parked.
    nonfull: Condvar,
}

impl<T> ShardedQueue<T> {
    /// Creates a queue holding at most `capacity` items. `shards` must be
    /// 1: the queue has one FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `shards != 1` or `capacity == 0`.
    #[must_use]
    pub fn new(shards: usize, capacity: usize) -> Self {
        assert_eq!(shards, 1, "the queue has one shard");
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                parked_consumers: 0,
                parked_producers: 0,
                wasted_wakes: 0,
            }),
            capacity,
            nonempty: Condvar::new(),
            nonfull: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("queue poisoned")
    }

    /// Queued items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue holds no item.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `item` under the held lock and wakes one parked consumer.
    fn enqueue(&self, mut state: MutexGuard<'_, State<T>>, item: T) {
        state.items.push_back(item);
        let wake = state.parked_consumers > 0;
        drop(state);
        if wake {
            self.nonempty.notify_one();
        }
    }

    /// Enqueues an item without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`TryPushError::Full`] at capacity or
    /// [`TryPushError::Closed`] after shutdown.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError> {
        let state = self.lock();
        if state.closed {
            return Err(TryPushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(TryPushError::Full);
        }
        self.enqueue(state, item);
        Ok(())
    }

    /// Enqueues an item, blocking while the queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`Closed`] if the queue is (or becomes) closed.
    pub fn push(&self, item: T) -> Result<(), Closed> {
        let mut state = self.lock();
        while !state.closed && state.items.len() >= self.capacity {
            state.parked_producers += 1;
            state = self.nonfull.wait(state).expect("queue poisoned");
            state.parked_producers -= 1;
        }
        if state.closed {
            return Err(Closed);
        }
        self.enqueue(state, item);
        Ok(())
    }

    /// Dequeues up to `max_batch` items in FIFO order, parking while the
    /// queue is empty. Returns `None` once the queue is closed **and**
    /// drained. `worker` must be 0.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0` or `worker != 0`.
    #[must_use]
    pub fn pop_batch(&self, worker: usize, max_batch: usize) -> Option<ShardedBatch<T>> {
        assert!(max_batch > 0, "batch size must be positive");
        assert_eq!(worker, 0, "worker index out of range");
        let mut state = self.lock();
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state.parked_consumers += 1;
            state = self.nonempty.wait(state).expect("queue poisoned");
            state.parked_consumers -= 1;
            if state.items.is_empty() && !state.closed {
                state.wasted_wakes += 1;
            }
        }
        let n = state.items.len().min(max_batch);
        let items: Vec<T> = state.items.drain(..n).collect();
        // `n` slots freed: wake up to as many parked producers.
        let producers = state.parked_producers.min(n);
        drop(state);
        for _ in 0..producers {
            self.nonfull.notify_one();
        }
        Some(ShardedBatch { items })
    }

    /// Closes the queue: pushes fail from now on, consumers drain what is
    /// left and then receive `None`, parked producers wake with [`Closed`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
        self.nonfull.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::thread::{self, JoinHandle};
    use std::time::Duration;

    /// Runs `test` on its own thread and fails it after 10 s: a lost
    /// wake-up fails the test instead of hanging the run.
    fn watchdog(test: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let handle = thread::spawn(move || {
            test();
            done.send(()).unwrap();
        });
        match finished.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => handle.join().unwrap(),
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("no progress in 10 s: a lost wake-up"),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(handle.join().unwrap_err())
            }
        }
    }

    /// Spawns `n` threads, thread `i` running `f(queue, i)`.
    fn spawn<T: Send + 'static, R: Send + 'static>(
        q: &Arc<ShardedQueue<T>>,
        n: u64,
        f: impl Fn(&ShardedQueue<T>, u64) -> R + Copy + Send + 'static,
    ) -> Vec<JoinHandle<R>> {
        (0..n)
            .map(|i| {
                let q = Arc::clone(q);
                thread::spawn(move || f(&q, i))
            })
            .collect()
    }

    /// Joins `threads` and returns every item they returned, sorted.
    fn joined<T: Ord>(threads: Vec<JoinHandle<Vec<T>>>) -> Vec<T> {
        let mut all: Vec<T> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        all.sort_unstable();
        all
    }

    /// Pops until the queue is closed and drained.
    fn drain_all<T>(q: &ShardedQueue<T>, max_batch: usize) -> Vec<T> {
        let mut got = Vec::new();
        while let Some(batch) = q.pop_batch(0, max_batch) {
            got.extend(batch.items);
        }
        got
    }

    #[test]
    fn fifo_order_and_batching() {
        let q = ShardedQueue::new(1, 16);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_batch(0, 3).unwrap().items, vec![0, 1, 2]);
        assert_eq!(q.pop_batch(0, 10).unwrap().items, vec![3, 4]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn try_push_reports_full_then_drains() {
        let q = ShardedQueue::new(1, 2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(TryPushError::Full));
        assert_eq!(q.pop_batch(0, 8).unwrap().items, vec![1, 2]);
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_unblocks_waiting_producers_with_error() {
        // Shutdown while producers are parked in push(): all of them must
        // wake with Err(Closed) instead of deadlocking, and the items
        // already queued must still drain.
        watchdog(|| {
            let q = Arc::new(ShardedQueue::new(1, 1));
            q.push(7u32).unwrap();
            let producers = spawn(&q, 4, |q, _| q.push(8));
            thread::sleep(Duration::from_millis(30));
            q.close();
            for p in producers {
                assert_eq!(p.join().unwrap(), Err(Closed), "producer not rejected");
            }
            // The pre-close item survives; afterwards the queue reports closed.
            assert_eq!(q.pop_batch(0, 4).unwrap().items, vec![7]);
            assert!(q.pop_batch(0, 4).is_none());
        });
    }

    #[test]
    fn close_races_with_producers_and_consumers() {
        // Producers, consumers, and a closer all racing: no deadlock, no
        // duplicated items, and everything that push() accepted is popped.
        watchdog(|| {
            let q = Arc::new(ShardedQueue::new(1, 4));
            let producers = spawn(&q, 3, |q, p| {
                // Stops at the first refusal: closed mid-stream.
                let items = (0..50).map(|i| p * 1000 + i);
                items.take_while(|&item| q.push(item).is_ok()).collect()
            });
            let consumers = spawn(&q, 2, |q, _| drain_all(q, 3));
            thread::sleep(Duration::from_millis(10));
            q.close();
            let accepted: Vec<u64> = joined(producers);
            assert_eq!(
                accepted,
                joined(consumers),
                "accepted and drained sets must match"
            );
        });
    }

    #[test]
    fn sharded_close_drains_then_stops() {
        let q: ShardedQueue<u32> = ShardedQueue::new(1, 8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(Closed));
        assert_eq!(q.try_push(3), Err(TryPushError::Closed));
        assert_eq!(drain_all(&q, 8), vec![1, 2], "close must drain queued work");
        assert!(q.pop_batch(0, 8).is_none());
    }

    #[test]
    fn sharded_parked_consumer_wakes_on_push() {
        watchdog(|| {
            let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(1, 8));
            let consumer = spawn(&q, 1, |q, _| q.pop_batch(0, 4).unwrap().items);
            thread::sleep(Duration::from_millis(20));
            q.push(99).unwrap();
            assert_eq!(joined(consumer), [99]);
        });
    }

    #[test]
    fn sharded_parked_consumer_wakes_on_close() {
        watchdog(|| {
            let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(1, 8));
            let consumer = spawn(&q, 1, |q, _| vec![q.pop_batch(0, 4).is_none()]);
            thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(joined(consumer), [true]);
        });
    }

    #[test]
    fn sharded_blocking_push_backpressures_at_total_capacity() {
        // Two pushes fill a queue of 2; a third must block until a drain
        // frees a slot.
        watchdog(|| {
            let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(1, 2));
            q.push(1).unwrap();
            q.push(2).unwrap();
            assert_eq!(q.try_push(3), Err(TryPushError::Full));
            let producer = spawn(&q, 1, |q, _| vec![q.push(3).is_ok()]);
            thread::sleep(Duration::from_millis(30));
            assert_eq!(q.len(), 2, "blocked producer must not grow the queue");
            assert_eq!(q.pop_batch(0, 1).unwrap().items.len(), 1);
            assert_eq!(joined(producer), [true]);
            assert_eq!(q.len(), 2);
        });
    }

    #[test]
    fn sharded_trickle_does_not_busy_rewake_parked_peers() {
        // The no-busy-re-wake contract: with two workers and a trickle of
        // single items, each push wakes one parked worker and a drain wakes
        // no idle peer.
        watchdog(|| {
            let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(1, 16));
            let consumers = spawn(&q, 2, |q, _| drain_all(q, 4));
            for i in 0..40u32 {
                q.push(i).unwrap();
                thread::sleep(Duration::from_millis(1));
            }
            q.close();
            assert_eq!(joined(consumers).len(), 40);
            let wasted = q.lock().wasted_wakes;
            assert!(wasted <= 5, "parked workers busy re-woken {wasted} times");
        });
    }

    #[test]
    fn sharded_many_producers_consumers_lose_nothing() {
        watchdog(|| {
            let q: Arc<ShardedQueue<u64>> = Arc::new(ShardedQueue::new(1, 12));
            let producers = spawn(&q, 4, |q, p| {
                (0..100).for_each(|i| q.push(p * 1000 + i).unwrap());
            });
            let consumers = spawn(&q, 2, |q, _| drain_all(q, 5));
            producers.into_iter().for_each(|p| p.join().unwrap());
            q.close();
            let mut all = joined(consumers);
            assert_eq!(all.len(), 400);
            all.dedup();
            assert_eq!(all.len(), 400, "duplicated or lost items");
        });
    }

    #[test]
    fn one_slot_handoffs_lose_no_wake_up() {
        // At capacity 1 and batch 1 every item is a producer → consumer →
        // producer handoff, most of them through a parked thread: a lost
        // wake-up stalls the run and trips the watchdog.
        const PRODUCERS: u64 = 4;
        const ITEMS: u64 = 10_000;
        watchdog(|| {
            let q: Arc<ShardedQueue<u64>> = Arc::new(ShardedQueue::new(1, 1));
            let producers = spawn(&q, PRODUCERS, |q, p| {
                // Each producer alternates blocking and spinning pushes.
                for item in (p..ITEMS).step_by(PRODUCERS as usize) {
                    if (item / PRODUCERS).is_multiple_of(2) {
                        q.push(item).unwrap();
                        continue;
                    }
                    while let Err(e) = q.try_push(item) {
                        assert_eq!(e, TryPushError::Full);
                        thread::yield_now();
                    }
                }
            });
            let consumers = spawn(&q, 3, |q, _| drain_all(q, 1));
            producers.into_iter().for_each(|p| p.join().unwrap());
            q.close();
            assert!(
                joined(consumers).into_iter().eq(0..ITEMS),
                "every item exactly once"
            );
        });
    }
}
