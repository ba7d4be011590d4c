//! The bounded MPMC request queue with dynamic batching.
//!
//! [`ShardedQueue`] is the engine's one queue shape: FIFO per shard,
//! bounded depth, close-then-drain shutdown. Producers block when every
//! shard is full (natural backpressure for closed-loop clients; open-loop
//! generators use [`ShardedQueue::try_push`] and count drops). Consumers
//! block until at least one item is available, then drain up to a batch
//! limit in one critical section — the "dynamic batching" a serving engine
//! wants: batches grow exactly as large as the backlog, with no added
//! latency when traffic is light.
//!
//! With one shard per worker, submits pick a shard by two-choice load
//! probing and a consumer that finds its own shard short **steals whole
//! batches**: it drains a contiguous FIFO run from the deepest other shard,
//! so stolen work keeps its model-grouping locality. `ShardedQueue::new(1,
//! capacity)` is the single central queue — one mutex-guarded deque every
//! worker drains, nothing to steal. Idle consumers park on one shared
//! condvar behind a generation counter; producers touch that condvar only
//! when a consumer is actually parked, so the steady-state push path never
//! takes a cross-shard lock and drained shards never chain-notify peers
//! into a busy re-wake.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

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

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// One batch popped from a [`ShardedQueue`]: the items plus whether they
/// were stolen from another worker's shard.
#[derive(Debug)]
pub struct ShardedBatch<T> {
    /// The drained items, FIFO within their source shard.
    pub items: Vec<T>,
    /// `true` when the batch came from another worker's shard (a steal).
    pub stolen: bool,
}

struct Shard<T> {
    state: Mutex<State<T>>,
    /// Lock-free depth mirror, maintained under the shard mutex. Used for
    /// push-time two-choice probing and steal-victim selection without
    /// touching other shards' locks.
    len: AtomicUsize,
}

impl<T> Shard<T> {
    fn new() -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            len: AtomicUsize::new(0),
        }
    }
}

/// A sharded bounded MPMC queue: one FIFO shard per worker, submit-time
/// shard selection, and whole-batch work stealing.
///
/// **Producers** probe two shards (round-robin cursor plus its neighbor)
/// and push to the shallower one; when both are full they scan all shards,
/// and only block (in [`ShardedQueue::push`]) when every shard is at
/// capacity — closed-loop backpressure at total capacity.
///
/// **Consumers** drain their own shard first. An empty own-shard falls
/// through to a steal: the deepest other shard is drained up to the batch
/// limit in one critical section, so a stolen batch is a contiguous FIFO
/// run (model grouping downstream sees the same locality as an owned
/// batch). With nothing anywhere, the consumer parks on one shared condvar
/// behind a generation counter; a producer bumps the generation only when
/// `idle > 0`, so the loaded-path push never takes the shared lock and
/// parked consumers never busy-poll.
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    capacity_per_shard: usize,
    /// Round-robin push cursor.
    cursor: AtomicUsize,
    /// Total queued items across shards ([`ShardedQueue::len`] reads this
    /// without taking any lock).
    depth: AtomicUsize,
    closed: AtomicBool,
    /// Consumers currently parked (or about to park) on `steal_cv`.
    idle: AtomicUsize,
    /// Generation counter guarded by its own mutex: bumped by producers
    /// (and `close`) to publish "new work exists" to parked consumers.
    steal_gen: Mutex<u64>,
    steal_cv: Condvar,
    /// Producers currently parked (or about to park) on `space_cv` because
    /// every shard was full.
    blocked: AtomicUsize,
    /// Generation counter for freed space: bumped by drains (and `close`)
    /// only when a producer is parked, so a drain anywhere — owner or
    /// thief — unblocks backpressured producers.
    space_gen: Mutex<u64>,
    space_cv: Condvar,
    /// Parked-consumer wake-ups that found nothing to drain or steal.
    wasted_wakes: AtomicU64,
}

impl<T> ShardedQueue<T> {
    /// Creates a queue of `shards` shards holding `total_capacity` items
    /// in aggregate (split evenly, rounded up per shard).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `total_capacity == 0`.
    #[must_use]
    pub fn new(shards: usize, total_capacity: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(total_capacity > 0, "queue capacity must be positive");
        let capacity_per_shard = total_capacity.div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            capacity_per_shard,
            cursor: AtomicUsize::new(0),
            depth: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            idle: AtomicUsize::new(0),
            steal_gen: Mutex::new(0),
            steal_cv: Condvar::new(),
            blocked: AtomicUsize::new(0),
            space_gen: Mutex::new(0),
            space_cv: Condvar::new(),
            wasted_wakes: AtomicU64::new(0),
        }
    }

    /// Number of shards (== workers).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate capacity across all shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity_per_shard * self.shards.len()
    }

    /// Total queued items across all shards (lock-free).
    #[must_use]
    pub fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Whether no shard holds an item.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parked-consumer wake-ups that found nothing to drain or steal.
    #[must_use]
    pub fn wasted_wakes(&self) -> u64 {
        self.wasted_wakes.load(Ordering::Relaxed)
    }

    /// Two-choice shard pick: round-robin cursor and its neighbor, the
    /// shallower wins — cheap load balance without a global structure.
    fn pick_shard(&self) -> usize {
        let n = self.shards.len();
        let a = self.cursor.fetch_add(1, Ordering::Relaxed) % n;
        if n == 1 {
            return 0;
        }
        let b = (a + 1) % n;
        if self.shards[b].len.load(Ordering::Relaxed) < self.shards[a].len.load(Ordering::Relaxed) {
            b
        } else {
            a
        }
    }

    /// Push into shard `idx` if open and below capacity. The shard mutex is
    /// released before the idle-consumer check, so producers never hold a
    /// shard lock and the steal lock together.
    fn try_push_shard(&self, idx: usize, item: T) -> Result<(), (T, TryPushError)> {
        let shard = &self.shards[idx];
        let mut state = shard.state.lock().expect("queue poisoned");
        if state.closed {
            return Err((item, TryPushError::Closed));
        }
        if state.items.len() >= self.capacity_per_shard {
            return Err((item, TryPushError::Full));
        }
        state.items.push_back(item);
        shard.len.store(state.items.len(), Ordering::Relaxed);
        drop(state);
        // SeqCst pairs with the consumer's idle registration: if a parking
        // consumer's `idle` increment is not visible here, our depth
        // increment is visible to its pre-sleep recheck, and vice versa —
        // either we notify or it never sleeps.
        self.depth.fetch_add(1, Ordering::SeqCst);
        if self.idle.load(Ordering::SeqCst) > 0 {
            // Wake ONE parked consumer, not the whole pool: a thundering
            // herd would split concurrent arrivals one-per-worker and
            // execute every forward at batch 1. The woken worker tops its
            // batch up across shards and chain-notifies a peer if depth
            // remains (see `pop_batch`), so the pool still ramps to full
            // parallelism under sustained load.
            let mut gen = self.steal_gen.lock().expect("queue poisoned");
            *gen = gen.wrapping_add(1);
            drop(gen);
            self.steal_cv.notify_one();
        }
        Ok(())
    }

    /// Enqueues an item without blocking: probes the two-choice pick, then
    /// every other shard. [`TryPushError::Full`] means **all** shards were
    /// at capacity.
    ///
    /// # Errors
    ///
    /// Returns [`TryPushError::Full`] when every shard is at capacity or
    /// [`TryPushError::Closed`] after shutdown.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError> {
        let n = self.shards.len();
        let start = self.pick_shard();
        let mut item = item;
        for i in 0..n {
            match self.try_push_shard((start + i) % n, item) {
                Ok(()) => return Ok(()),
                Err((it, TryPushError::Full)) => item = it,
                Err((_, TryPushError::Closed)) => return Err(TryPushError::Closed),
            }
        }
        Err(TryPushError::Full)
    }

    /// Enqueues an item, blocking while **every** shard is full (total
    /// backpressure). Parked producers are woken by a drain on *any* shard
    /// — owner or thief — and retry the full shard scan, so a slot freed
    /// anywhere unblocks the producer.
    ///
    /// # Errors
    ///
    /// Returns [`Closed`] if the queue is (or becomes) closed.
    pub fn push(&self, item: T) -> Result<(), Closed> {
        let mut item = item;
        loop {
            let n = self.shards.len();
            let start = self.pick_shard();
            for i in 0..n {
                match self.try_push_shard((start + i) % n, item) {
                    Ok(()) => return Ok(()),
                    Err((it, TryPushError::Full)) => item = it,
                    Err((_, TryPushError::Closed)) => return Err(Closed),
                }
            }
            // Every shard at capacity: park until a drain frees space.
            // Register as blocked BEFORE the depth recheck (SeqCst pairs
            // with the drain's post-subtract blocked check), so a racing
            // drain either sees us and notifies or its freed slot is
            // visible below and we skip the sleep.
            let mut gen = self.space_gen.lock().expect("queue poisoned");
            self.blocked.fetch_add(1, Ordering::SeqCst);
            if self.depth.load(Ordering::SeqCst) < self.capacity()
                || self.closed.load(Ordering::SeqCst)
            {
                self.blocked.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let seen = *gen;
            while *gen == seen
                && self.depth.load(Ordering::Relaxed) >= self.capacity()
                && !self.closed.load(Ordering::Relaxed)
            {
                gen = self.space_cv.wait(gen).expect("queue poisoned");
            }
            self.blocked.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Drains up to `max_batch` items from shard `idx` (non-blocking).
    fn drain_shard(&self, idx: usize, max_batch: usize) -> Option<Vec<T>> {
        let shard = &self.shards[idx];
        let mut state = shard.state.lock().expect("queue poisoned");
        if state.items.is_empty() {
            return None;
        }
        let n = state.items.len().min(max_batch);
        let batch: Vec<T> = state.items.drain(..n).collect();
        shard.len.store(state.items.len(), Ordering::Relaxed);
        drop(state);
        self.depth.fetch_sub(n, Ordering::SeqCst);
        // Freed slots: wake backpressured producers, but only when one is
        // actually parked — the loaded path never takes the shared lock.
        // No consumer chain-notify — peers were woken at push time if they
        // were parked, and an owner drains its shard to empty before
        // parking.
        if self.blocked.load(Ordering::SeqCst) > 0 {
            let mut gen = self.space_gen.lock().expect("queue poisoned");
            *gen = gen.wrapping_add(1);
            drop(gen);
            self.space_cv.notify_all();
        }
        Some(batch)
    }

    /// Deepest shard other than `own` with work, if any.
    fn steal_victim(&self, own: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            if i == own {
                continue;
            }
            let len = shard.len.load(Ordering::Relaxed);
            if len > 0 && best.is_none_or(|(_, l)| len > l) {
                best = Some((i, len));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Dequeues a batch for worker `worker`: drains the worker's own shard
    /// first, then **tops the batch up** by stealing whole contiguous FIFO
    /// runs from the deepest other shards until `max_batch` is reached (or
    /// no peer has work), else parks until work arrives. Returns `None`
    /// once the queue is closed **and** every shard is drained.
    ///
    /// The top-up matters beyond rescuing a dead worker's shard: when
    /// arrivals spread one request per shard (many shards, low depth),
    /// draining only the own shard would execute every forward at batch 1
    /// and forfeit the batch-major amortization a central queue gets for
    /// free. Coalescing at drain time restores it while keeping the
    /// submit path shard-local.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0` or `worker` is out of range.
    #[must_use]
    pub fn pop_batch(&self, worker: usize, max_batch: usize) -> Option<ShardedBatch<T>> {
        assert!(max_batch > 0, "batch size must be positive");
        assert!(worker < self.shards.len(), "worker index out of range");
        loop {
            let mut items = self.drain_shard(worker, max_batch).unwrap_or_default();
            let mut stolen = false;
            while items.len() < max_batch {
                let Some(victim) = self.steal_victim(worker) else {
                    break;
                };
                match self.drain_shard(victim, max_batch - items.len()) {
                    Some(more) => {
                        items.extend(more);
                        stolen = true;
                    }
                    // Lost the race for the victim's items; whoever won
                    // them is serving them, so don't spin on the rescan.
                    None => break,
                }
            }
            if !items.is_empty() {
                // Work remains after this batch filled: chain-notify one
                // parked peer so the pool ramps worker by worker under
                // load instead of relying on future pushes. (Never fires
                // when the drain emptied the queue — an empty-queue
                // chain-kick would wake a parked peer once per batch for
                // nothing under light load.)
                if self.depth.load(Ordering::SeqCst) > 0 && self.idle.load(Ordering::SeqCst) > 0 {
                    let mut gen = self.steal_gen.lock().expect("queue poisoned");
                    *gen = gen.wrapping_add(1);
                    drop(gen);
                    self.steal_cv.notify_one();
                }
                return Some(ShardedBatch { items, stolen });
            }
            // Nothing to drain or steal. Park on the shared condvar —
            // register as idle BEFORE the final depth recheck (SeqCst pairs
            // with the producer's post-push idle check) so a concurrent
            // push either sees us idle and notifies, or its item is visible
            // to the recheck below and we skip the sleep.
            let mut gen = self.steal_gen.lock().expect("queue poisoned");
            self.idle.fetch_add(1, Ordering::SeqCst);
            if self.depth.load(Ordering::SeqCst) > 0 {
                self.idle.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if self.closed.load(Ordering::SeqCst) {
                self.idle.fetch_sub(1, Ordering::SeqCst);
                return None;
            }
            let seen = *gen;
            while *gen == seen
                && self.depth.load(Ordering::Relaxed) == 0
                && !self.closed.load(Ordering::Relaxed)
            {
                gen = self.steal_cv.wait(gen).expect("queue poisoned");
                if *gen == seen
                    && self.depth.load(Ordering::Relaxed) == 0
                    && !self.closed.load(Ordering::Relaxed)
                {
                    self.wasted_wakes.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.idle.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Closes every shard: subsequent pushes fail, consumers drain what is
    /// left (own shards and steals) and then receive `None`.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            let mut state = shard.state.lock().expect("queue poisoned");
            state.closed = true;
            drop(state);
        }
        let mut gen = self.steal_gen.lock().expect("queue poisoned");
        *gen = gen.wrapping_add(1);
        drop(gen);
        self.steal_cv.notify_all();
        let mut gen = self.space_gen.lock().expect("queue poisoned");
        *gen = gen.wrapping_add(1);
        drop(gen);
        self.space_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    // ---- one shard: the single central queue ----

    #[test]
    fn fifo_order_and_batching() {
        let q = ShardedQueue::new(1, 16);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let first = q.pop_batch(0, 3).unwrap();
        assert!(!first.stolen, "one shard has nobody to steal from");
        assert_eq!(first.items, vec![0, 1, 2]);
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
        let q = Arc::new(ShardedQueue::new(1, 1));
        q.push(7u32).unwrap();
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push(8))
            })
            .collect();
        thread::sleep(Duration::from_millis(30));
        q.close();
        for p in producers {
            assert_eq!(p.join().unwrap(), Err(Closed), "producer not rejected");
        }
        // The pre-close item survives; afterwards the queue reports closed.
        assert_eq!(q.pop_batch(0, 4).unwrap().items, vec![7]);
        assert!(q.pop_batch(0, 4).is_none());
    }

    #[test]
    fn close_races_with_producers_and_consumers() {
        // Producers, consumers, and a closer all racing: no deadlock, no
        // duplicated items, and everything that push() accepted is popped.
        let q = Arc::new(ShardedQueue::new(1, 4));
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut accepted = Vec::new();
                    for i in 0..50u64 {
                        let item = p * 1000 + i;
                        if q.push(item).is_ok() {
                            accepted.push(item);
                        } else {
                            break; // closed mid-stream
                        }
                    }
                    accepted
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(batch) = q.pop_batch(0, 3) {
                        got.extend(batch.items);
                    }
                    got
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(10));
        q.close();
        let mut accepted: Vec<u64> = producers
            .into_iter()
            .flat_map(|p| p.join().unwrap())
            .collect();
        let mut popped: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        accepted.sort_unstable();
        popped.sort_unstable();
        assert_eq!(accepted, popped, "accepted and drained sets must match");
    }

    // ---- several shards: two-choice pushes and whole-batch steals ----

    #[test]
    fn sharded_fifo_within_shard_and_capacity_split() {
        let q: ShardedQueue<u32> = ShardedQueue::new(4, 10);
        assert_eq!(q.shards(), 4);
        // 10 across 4 shards rounds up to 3 per shard.
        assert_eq!(q.capacity(), 12);
        assert!(q.is_empty());
    }

    #[test]
    fn sharded_own_shard_drains_before_stealing() {
        let q: ShardedQueue<u32> = ShardedQueue::new(2, 8);
        // Fill shard 0 and shard 1 directly.
        q.try_push_shard(0, 10).map_err(|_| ()).unwrap();
        q.try_push_shard(0, 11).map_err(|_| ()).unwrap();
        q.try_push_shard(1, 20).map_err(|_| ()).unwrap();
        // A batch the own shard fills exactly never touches a peer.
        let own = q.pop_batch(0, 2).unwrap();
        assert!(!own.stolen);
        assert_eq!(own.items, vec![10, 11]);
        // Own shard empty: worker 0 must steal shard 1's item.
        let stolen = q.pop_batch(0, 8).unwrap();
        assert!(stolen.stolen, "empty own shard must fall through to steal");
        assert_eq!(stolen.items, vec![20]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn sharded_undersized_drain_tops_up_from_peers() {
        // One item per shard: draining only the own shard would run every
        // batch at size 1. The top-up coalesces the spread arrivals into
        // one batch, own shard's items first.
        let q: ShardedQueue<u32> = ShardedQueue::new(4, 32);
        for shard in 0..4 {
            q.try_push_shard(shard, 100 + shard as u32)
                .map_err(|_| ())
                .unwrap();
        }
        let batch = q.pop_batch(0, 8).unwrap();
        assert!(batch.stolen, "top-up must be marked stolen");
        assert_eq!(batch.items.len(), 4, "all four shards coalesced");
        assert_eq!(batch.items[0], 100, "own shard leads the batch");
        assert_eq!(q.len(), 0);
        // A full own shard needs no top-up even with peers loaded.
        q.try_push_shard(0, 1).map_err(|_| ()).unwrap();
        q.try_push_shard(0, 2).map_err(|_| ()).unwrap();
        q.try_push_shard(1, 3).map_err(|_| ()).unwrap();
        let own = q.pop_batch(0, 2).unwrap();
        assert!(!own.stolen);
        assert_eq!(own.items, vec![1, 2]);
    }

    #[test]
    fn sharded_steal_takes_whole_contiguous_batches() {
        // A dead worker's shard (never drained by its owner) must be
        // drained by a peer in whole FIFO runs, preserving order.
        let q: ShardedQueue<u32> = ShardedQueue::new(2, 32);
        for i in 0..10 {
            q.try_push_shard(1, i).map_err(|_| ()).unwrap();
        }
        let first = q.pop_batch(0, 4).unwrap();
        assert!(first.stolen);
        assert_eq!(first.items, vec![0, 1, 2, 3], "stolen run must be FIFO");
        let second = q.pop_batch(0, 4).unwrap();
        assert_eq!(second.items, vec![4, 5, 6, 7]);
    }

    #[test]
    fn sharded_steals_deepest_victim() {
        let q: ShardedQueue<u32> = ShardedQueue::new(3, 30);
        q.try_push_shard(1, 1).map_err(|_| ()).unwrap();
        for i in 0..4 {
            q.try_push_shard(2, 20 + i).map_err(|_| ()).unwrap();
        }
        let batch = q.pop_batch(0, 4).unwrap();
        assert!(batch.stolen);
        assert_eq!(batch.items, vec![20, 21, 22, 23], "deepest shard first");
        let rest = q.pop_batch(0, 4).unwrap();
        assert_eq!(rest.items, vec![1], "shallower shard drained after");
    }

    #[test]
    fn sharded_close_drains_then_stops() {
        let q: ShardedQueue<u32> = ShardedQueue::new(2, 8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(Closed));
        assert_eq!(q.try_push(3), Err(TryPushError::Closed));
        let mut got = Vec::new();
        while let Some(batch) = q.pop_batch(0, 8) {
            got.extend(batch.items);
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "close must drain queued work");
        assert!(q.pop_batch(1, 8).is_none());
    }

    #[test]
    fn sharded_parked_consumer_wakes_on_push() {
        let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(2, 8));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop_batch(0, 4).map(|b| b.items));
        thread::sleep(Duration::from_millis(20));
        q.push(99).unwrap();
        assert_eq!(consumer.join().unwrap().unwrap(), vec![99]);
    }

    #[test]
    fn sharded_parked_consumer_wakes_on_close() {
        let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(2, 8));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop_batch(1, 4));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(consumer.join().unwrap().is_none());
    }

    #[test]
    fn sharded_blocking_push_backpressures_at_total_capacity() {
        // 2 shards × 1 slot: two pushes fill the queue; a third must block
        // until a drain anywhere frees a slot.
        let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(2, 2));
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.try_push(3), Err(TryPushError::Full));
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(3).is_ok());
        thread::sleep(Duration::from_millis(30));
        assert_eq!(q.len(), 2, "blocked producer must not grow the queue");
        let drained = q.pop_batch(0, 1).unwrap();
        assert_eq!(drained.items.len(), 1);
        assert!(producer.join().unwrap());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn sharded_trickle_does_not_busy_rewake_parked_peers() {
        // The no-busy-re-wake contract: with two workers and a trickle of single items, each push wakes
        // parked workers once and drains never chain-kick the idle peer.
        let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(2, 16));
        let consumers: Vec<_> = (0..2)
            .map(|w| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = 0u32;
                    while let Some(batch) = q.pop_batch(w, 4) {
                        got += batch.items.len() as u32;
                    }
                    got
                })
            })
            .collect();
        for i in 0..40u32 {
            q.push(i).unwrap();
            thread::sleep(Duration::from_millis(1));
        }
        q.close();
        let total: u32 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 40);
        // Each push may wake both parked workers (notify_all) and only one
        // wins the item — the loser's wake carries a generation bump, so it
        // does not count as wasted. Only stray wakes with no new work do.
        assert!(
            q.wasted_wakes() <= 5,
            "parked workers busy re-woken {} times",
            q.wasted_wakes()
        );
    }

    #[test]
    fn sharded_many_producers_consumers_lose_nothing_under_stealing() {
        let q: Arc<ShardedQueue<u64>> = Arc::new(ShardedQueue::new(3, 12));
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let q = Arc::clone(&q);
            producers.push(thread::spawn(move || {
                for i in 0..100u64 {
                    q.push(p * 1000 + i).unwrap();
                }
            }));
        }
        // Only 2 consumers for 3 shards: shard 2 is drained by steals.
        let mut consumers = Vec::new();
        for w in 0..2 {
            let q = Arc::clone(&q);
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                let mut steals = 0u64;
                while let Some(batch) = q.pop_batch(w, 5) {
                    if batch.stolen {
                        steals += 1;
                    }
                    got.extend(batch.items);
                }
                (got, steals)
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all = Vec::new();
        let mut steals = 0u64;
        for c in consumers {
            let (got, s) = c.join().unwrap();
            all.extend(got);
            steals += s;
        }
        all.sort_unstable();
        assert_eq!(all.len(), 400);
        all.dedup();
        assert_eq!(all.len(), 400, "duplicated or lost items");
        assert!(steals > 0, "an ownerless shard must be drained by steals");
    }
}
