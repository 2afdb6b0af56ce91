//! Per-worker work queues with ascending-index work stealing.
//!
//! The seed runtime funneled every incoming call through one shared
//! MPMC channel — one lock and one condvar contended by the demux
//! thread and every server worker. This module replaces it for the
//! server dispatch path: each worker owns a receive queue (`shards[w]`,
//! one lock each), the demultiplexer enqueues to the queue picked by
//! [`crate::calltable::shard_for`] of the call's activity id, and an
//! idle worker whose own queue is empty **steals the entire backlog**
//! of another queue, scanning victims in ascending index order.
//!
//! Why whole-queue stealing: taking the victim's whole deque with
//! `mem::take` holds exactly one queue lock, preserves FIFO order
//! within the stolen batch (so replies within one activity can never
//! reorder — see tests/sharding.rs), and moves a burst of work in one
//! lock acquisition. The ascending scan order matches the
//! workspace-wide parametric `shard` lock discipline (docs/SHARDING.md)
//! even though no two queue locks are ever held at once here.
//!
//! Parking uses an epoch counter under a separate lock: a worker
//! records the epoch, scans every queue, and parks only if the epoch is
//! unchanged when it takes the park lock — any enqueue between scan and
//! park bumps the epoch and is therefore never lost. Enqueues skip the
//! condvar notification entirely when no worker is parked (the common
//! saturated case), keeping the hot path to one queue lock plus one
//! park-lock tap.

use firefly_sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Parking state shared by all workers: `epoch` counts enqueues (and
/// shutdown), `idle` counts workers currently parked or committing to
/// park.
#[derive(Debug, Default)]
struct ParkState {
    epoch: u64,
    idle: usize,
}

/// Per-worker receive queues with work stealing; the server's
/// replacement for the single shared work channel.
#[derive(Debug)]
pub struct WorkQueues<T> {
    /// One receive queue per worker. The field is named `shards` so the
    /// lint lock-order rule classifies `shards[w].lock()` under the
    /// parametric `shard` class.
    shards: Vec<Mutex<VecDeque<T>>>,
    park: Mutex<ParkState>,
    ready: Condvar,
    down: AtomicBool,
}

impl<T> WorkQueues<T> {
    /// Creates queues for `workers` workers (at least one).
    pub fn new(workers: usize) -> WorkQueues<T> {
        WorkQueues {
            shards: (0..workers.max(1)).map(|_| Mutex::new(VecDeque::new())).collect(),
            park: Mutex::new(ParkState::default()),
            ready: Condvar::new(),
            down: AtomicBool::new(false),
        }
    }

    /// Number of per-worker queues.
    pub fn worker_count(&self) -> usize {
        self.shards.len()
    }

    /// Enqueues an item on worker `target`'s queue (wrapped), waking a
    /// parked worker if any. Returns `true` when a worker was idle —
    /// the direct-handoff case the paper's fast path counts on.
    pub fn push(&self, target: usize, item: T) -> bool {
        let w = target % self.shards.len();
        self.shards[w].lock().push_back(item);
        let idle = {
            let mut park = self.park.lock();
            park.epoch = park.epoch.wrapping_add(1);
            park.idle
        };
        if idle > 0 {
            self.ready.notify_one();
            true
        } else {
            false
        }
    }

    /// Takes the entire backlog of queue `victim` into `local`,
    /// preserving FIFO order. Returns `true` if anything was taken.
    fn drain_into(&self, victim: usize, local: &mut VecDeque<T>) -> bool {
        let mut q = self.shards[victim].lock();
        if q.is_empty() {
            return false;
        }
        if local.is_empty() {
            std::mem::swap(&mut *q, local);
        } else {
            local.extend(q.drain(..));
        }
        true
    }

    /// Empty rescans (each yielding the processor) a worker performs
    /// before parking on the condvar. A parked worker costs its waker a
    /// futex syscall and a scheduling round trip; during a steady call
    /// stream the next item arrives within a few yields, so this brief
    /// cooperative poll keeps the hand-off futex-free without holding
    /// the processor hostage (`yield_now` runs anyone else runnable).
    const POLLS_BEFORE_PARK: u32 = 32;

    /// Dequeues the next item for worker `worker`, blocking until one
    /// arrives. `local` is the worker's private batch (stack-owned by
    /// the worker loop): items drained from a queue are processed from
    /// it without further locking. Returns `None` once [`shutdown`] was
    /// called and every queue (and the local batch) is empty.
    ///
    /// [`shutdown`]: WorkQueues::shutdown
    pub fn pop(&self, worker: usize, local: &mut VecDeque<T>) -> Option<T> {
        let n = self.shards.len();
        let me = worker % n;
        let mut polls = 0u32;
        loop {
            if let Some(item) = local.pop_front() {
                return Some(item);
            }
            // Record the epoch before scanning: any push after this
            // point either lands in a queue we have not scanned yet or
            // changes the epoch and aborts the park below.
            let epoch = self.park.lock().epoch;
            if self.drain_into(me, local) {
                polls = 0;
                continue;
            }
            // Steal scan, ascending victim index (skipping our own,
            // already-drained queue). One queue lock at a time.
            let mut stole = false;
            for victim in 0..n {
                if victim != me && self.drain_into(victim, local) {
                    stole = true;
                    break;
                }
            }
            if stole {
                polls = 0;
                continue;
            }
            if self.down.load(Ordering::Acquire) {
                return None;
            }
            if polls < Self::POLLS_BEFORE_PARK {
                polls += 1;
                std::thread::yield_now();
                continue;
            }
            let mut park = self.park.lock();
            if park.epoch != epoch {
                continue;
            }
            park.idle += 1;
            // Coarse deadline only: a changed epoch plus notify is the
            // real wake condition; spurious timeouts just rescan.
            self.ready
                .wait_until(&mut park, Instant::now() + Duration::from_secs(3600));
            park.idle -= 1;
            polls = 0;
        }
    }

    /// Marks the queues shut down and wakes every parked worker. Queued
    /// work is still drained: workers exit only once every queue is
    /// empty, matching the old channel's complete-pending-work
    /// semantics.
    pub fn shutdown(&self) {
        self.down.store(true, Ordering::Release);
        {
            let mut park = self.park.lock();
            park.epoch = park.epoch.wrapping_add(1);
        }
        self.ready.notify_all();
    }

    /// Total queued items across all queues (racy, for introspection).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|q| q.lock().len()).sum()
    }

    /// True when no items are queued (racy, for tests).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of currently parked workers (racy, for stats).
    pub fn idle_workers(&self) -> usize {
        self.park.lock().idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_round_trip_on_own_queue() {
        let q = WorkQueues::new(2);
        let mut local = VecDeque::new();
        assert!(!q.push(0, 1)); // no worker parked yet
        q.push(0, 2);
        assert_eq!(q.pop(0, &mut local), Some(1));
        assert_eq!(q.pop(0, &mut local), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn idle_worker_steals_from_busy_queue_in_order() {
        let q = WorkQueues::new(4);
        for i in 0..5 {
            q.push(2, i);
        }
        // Worker 0's own queue is empty: it must steal queue 2's whole
        // backlog, preserving FIFO order.
        let mut local = VecDeque::new();
        for i in 0..5 {
            assert_eq!(q.pop(0, &mut local), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn parked_worker_wakes_on_push() {
        let q = Arc::new(WorkQueues::new(2));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let mut local = VecDeque::new();
            q2.pop(1, &mut local)
        });
        firefly_sync::test_sleep();
        // Pushed to worker 0's queue; parked worker 1 must still wake
        // (global notify) and steal it.
        q.push(0, 42u32);
        assert_eq!(t.join().unwrap(), Some(42));
    }

    #[test]
    fn shutdown_drains_pending_work_then_stops() {
        let q = WorkQueues::new(2);
        q.push(0, "a");
        q.push(1, "b");
        q.shutdown();
        let mut local = VecDeque::new();
        let mut got = vec![
            q.pop(0, &mut local).unwrap(),
            q.pop(0, &mut local).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, ["a", "b"]);
        assert_eq!(q.pop(0, &mut local), None);
    }

    #[test]
    fn shutdown_unblocks_parked_workers() {
        let q = Arc::new(WorkQueues::<u8>::new(3));
        let workers: Vec<_> = (0..3)
            .map(|w| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut local = VecDeque::new();
                    q.pop(w, &mut local)
                })
            })
            .collect();
        firefly_sync::test_sleep();
        q.shutdown();
        for t in workers {
            assert_eq!(t.join().unwrap(), None);
        }
    }

    #[test]
    fn many_producers_many_workers_nothing_lost() {
        let q = Arc::new(WorkQueues::new(4));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut local = VecDeque::new();
                    let mut got = Vec::new();
                    while let Some(v) = q.pop(w, &mut local) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..400 {
            q.push(i % 4, i);
        }
        q.shutdown();
        let mut all: Vec<usize> = workers
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<usize>>());
    }

    #[test]
    fn push_reports_idle_worker_presence() {
        let q = Arc::new(WorkQueues::new(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let mut local = VecDeque::new();
            q2.pop(0, &mut local)
        });
        // Wait until the worker has actually parked.
        let deadline = Instant::now() + Duration::from_secs(5);
        while q.idle_workers() == 0 {
            assert!(Instant::now() < deadline, "worker never parked");
            std::thread::yield_now();
        }
        assert!(q.push(0, 7));
        assert_eq!(t.join().unwrap(), Some(7));
    }
}
