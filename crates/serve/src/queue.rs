//! A bounded FIFO work queue with explicit backpressure.
//!
//! The admission contract behind `POST /v1/jobs`: [`BoundedQueue::try_push`]
//! never blocks — a full queue is surfaced to the submitter as an error
//! (HTTP 429 + `Retry-After`) instead of an unbounded in-memory backlog.
//! Workers block in [`BoundedQueue::pop`] until work or shutdown. Pops
//! hand out items in strict admission order under one lock, so admission
//! order *is* execution order regardless of how many workers drain the
//! queue.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// `try_push` on a full queue.
#[derive(Debug, PartialEq, Eq)]
pub struct QueueFull;

struct Inner<T> {
    items: VecDeque<T>,
    shutdown: bool,
}

/// A bounded multi-producer multi-consumer FIFO queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    cv: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items at a time (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (admitted, not yet popped).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `item` if there is room.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the queue is at capacity (or shut down) —
    /// the caller owes the submitter a backpressure signal.
    pub fn try_push(&self, item: T) -> Result<(), QueueFull> {
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown || inner.items.len() >= self.capacity {
            return Err(QueueFull);
        }
        inner.items.push_back(item);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Admits `item` even past the capacity bound. Recovery only: jobs
    /// found non-terminal on disk at startup must all re-enter the queue,
    /// however many there are — dropping one would lose it forever.
    pub fn push_unbounded(&self, item: T) {
        self.inner.lock().unwrap().items.push_back(item);
        self.cv.notify_one();
    }

    /// Blocks until an item is available (returning the oldest) or the
    /// queue is shut down and drained (`None`).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.shutdown {
                return None;
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// Removes and returns the first queued item matching `pred` (cancel
    /// of a still-queued job). The freed slot is immediately reusable.
    pub fn remove<F: FnMut(&T) -> bool>(&self, mut pred: F) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        let idx = inner.items.iter().position(&mut pred)?;
        inner.items.remove(idx)
    }

    /// Marks the queue shut down: pushes fail, pops drain the backlog and
    /// then return `None`.
    pub fn shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(3);
        q.try_push('a').unwrap();
        q.try_push('b').unwrap();
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
    }

    #[test]
    fn full_queue_rejects_then_recovers() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(QueueFull));
        assert_eq!(q.len(), 2);
        q.pop().unwrap();
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn remove_frees_a_slot() {
        let q = BoundedQueue::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        assert_eq!(q.remove(|item| *item == "a"), Some("a"));
        q.try_push("c").unwrap();
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c"));
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.shutdown();
        assert_eq!(q.try_push(2), Err(QueueFull));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_unbounded_ignores_capacity() {
        let q = BoundedQueue::new(1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(QueueFull));
        q.push_unbounded(2);
        assert_eq!(q.len(), 2);
    }
}
