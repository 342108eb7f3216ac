//! A small std-only synchronization primitive for the serving layer.
//!
//! The standard library has no bounded MPMC queue; rather than pull in a
//! dependency for one well-understood structure, it lives here on
//! `Mutex` + `Condvar`. It is deliberately boring: correctness and
//! drainability (for graceful shutdown) over raw speed.
//!
//! The queue **recovers from lock poisoning** rather than propagating
//! it: its invariants are re-established before every unlock (a push or
//! pop completes or doesn't happen), so a panic elsewhere on a thread
//! that once held the lock cannot leave the state half-mutated.
//! Propagating the poison would instead let one contained panic anywhere
//! in the process wedge shutdown paths — the serving layer's drain
//! guarantee depends on `close`/`pop` never panicking.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Why a [`BoundedQueue`] operation did not deliver an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// The queue is at capacity (the caller should shed load).
    Full,
    /// The queue was closed and fully drained.
    Closed,
}

/// A bounded multi-producer/multi-consumer queue with explicit rejection
/// (never blocking the producer) and drain-on-close semantics.
///
/// This is `altx-serve`'s admission-control run queue: `push` fails fast
/// with [`QueueError::Full`] so an overloaded server can reply
/// `Overloaded` instead of building an unbounded backlog, and `close`
/// lets consumers finish everything already admitted before exiting —
/// graceful shutdown drains in-flight work.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    items_available: Condvar,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                capacity,
                closed: false,
            }),
            items_available: Condvar::new(),
        }
    }

    /// Attempts to enqueue without blocking.
    ///
    /// # Errors
    ///
    /// [`QueueError::Full`] at capacity (the item is handed back),
    /// [`QueueError::Closed`] after [`close`](Self::close).
    pub fn push(&self, item: T) -> Result<(), (T, QueueError)> {
        let mut state = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return Err((item, QueueError::Closed));
        }
        if state.items.len() >= state.capacity {
            return Err((item, QueueError::Full));
        }
        state.items.push_back(item);
        drop(state);
        self.items_available.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `Err(Closed)` once the queue is closed
    /// *and* empty (admitted items are always delivered).
    ///
    /// # Errors
    ///
    /// [`QueueError::Closed`] after close-and-drain; never `Full`.
    pub fn pop(&self) -> Result<T, QueueError> {
        let mut state = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Ok(item);
            }
            if state.closed {
                return Err(QueueError::Closed);
            }
            state = self
                .items_available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Like [`pop`](Self::pop) but gives up after `timeout`, returning
    /// `Ok(None)` so pollers can check other conditions.
    ///
    /// # Errors
    ///
    /// [`QueueError::Closed`] after close-and-drain.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<Option<T>, QueueError> {
        let mut state = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Ok(Some(item));
            }
            if state.closed {
                return Err(QueueError::Closed);
            }
            let (next, waited) = self
                .items_available
                .wait_timeout(state, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if waited.timed_out() {
                return Ok(state.items.pop_front());
            }
        }
    }

    /// Current backlog length.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .len()
    }

    /// True iff no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: future `push`es fail, consumers drain what was
    /// already admitted and then see `Closed`.
    pub fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.items_available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn queue_rejects_when_full() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        let (item, e) = q.push(3).expect_err("full");
        assert_eq!((item, e), (3, QueueError::Full));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn queue_is_fifo() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).expect("capacity");
        }
        let drained: Vec<i32> = (0..5).map(|_| q.pop().expect("item")).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = BoundedQueue::new(8);
        q.push("a").expect("capacity");
        q.push("b").expect("capacity");
        q.close();
        assert_eq!(q.push("c").expect_err("closed").1, QueueError::Closed);
        assert_eq!(q.pop(), Ok("a"));
        assert_eq!(q.pop(), Ok("b"));
        assert_eq!(q.pop(), Err(QueueError::Closed));
    }

    #[test]
    fn pop_blocks_until_item_arrives() {
        let q = Arc::new(BoundedQueue::new(1));
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(10));
        q.push(42).expect("capacity");
        assert_eq!(consumer.join().expect("joins"), Ok(42));
    }

    #[test]
    fn pop_timeout_returns_none_when_idle() {
        let q: BoundedQueue<()> = BoundedQueue::new(1);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Ok(None));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: Arc<BoundedQueue<()>> = Arc::new(BoundedQueue::new(1));
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().expect("joins"), Err(QueueError::Closed));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<()>::new(0);
    }
}
