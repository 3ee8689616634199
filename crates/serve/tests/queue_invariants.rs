//! Deterministic multi-thread invariants of the bounded job queue, pinned
//! at 1, 2, 3, and 7 consumer/producer threads (the same thread-count
//! matrix the pool crate uses): FIFO admission order, the depth bound
//! under concurrent pushes, exactly-once delivery, and cancel never
//! leaking a queue slot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use rex_serve::queue::{BoundedQueue, QueueFull};

/// Consumers drain a queue pre-filled with 0..200 in order; each
/// consumer's items must strictly increase (pops hand out strict FIFO
/// order under one lock), and the union of all sequences must be exactly
/// the pushed set — nothing lost, nothing duplicated.
fn fifo_and_exactly_once(threads: usize) {
    const ITEMS: usize = 200;
    let queue = Arc::new(BoundedQueue::new(ITEMS));
    for i in 0..ITEMS {
        queue.try_push(i).unwrap();
    }
    queue.shutdown(); // consumers drain the backlog, then stop

    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(item) = queue.pop() {
                    seen.push(item);
                }
                seen
            })
        })
        .collect();

    let mut all = Vec::new();
    for handle in handles {
        let seen = handle.join().unwrap();
        // per-consumer FIFO: items were pushed in increasing order
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "consumer saw out-of-order items at {threads} threads"
        );
        all.extend(seen);
    }
    all.sort_unstable();
    // exactly once: every item, no gaps, no dupes
    assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
}

/// Producers hammer `try_push` (retrying on `QueueFull`) while consumers
/// drain. The observable depth must never exceed capacity, and every
/// admitted item must come out exactly once.
fn bounded_depth_under_contention(threads: usize) {
    const PER_PRODUCER: usize = 50;
    const CAPACITY: usize = 4;
    let queue = Arc::new(BoundedQueue::new(CAPACITY));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let max_seen = Arc::new(AtomicUsize::new(0));

    let producers: Vec<_> = (0..threads)
        .map(|p| {
            let queue = Arc::clone(&queue);
            let barrier = Arc::clone(&barrier);
            let max_seen = Arc::clone(&max_seen);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_PRODUCER {
                    let item = p * PER_PRODUCER + i;
                    loop {
                        let depth = queue.len();
                        max_seen.fetch_max(depth, Ordering::Relaxed);
                        match queue.try_push(item) {
                            Ok(_) => break,
                            Err(QueueFull) => std::thread::yield_now(),
                        }
                    }
                }
            })
        })
        .collect();

    let consumer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(item) = queue.pop() {
                got.push(item);
            }
            got
        })
    };

    barrier.wait();
    for producer in producers {
        producer.join().unwrap();
    }
    queue.shutdown();
    let mut got = consumer.join().unwrap();
    got.sort_unstable();
    assert_eq!(got, (0..threads * PER_PRODUCER).collect::<Vec<_>>());
    assert!(
        max_seen.load(Ordering::Relaxed) <= CAPACITY,
        "depth bound violated at {threads} producers: saw {}",
        max_seen.load(Ordering::Relaxed)
    );
}

/// Cancellers race consumers for queued items. A removed (canceled) item
/// frees its slot immediately — after every removal a push must succeed —
/// and each item is observed exactly once, by either a consumer or a
/// canceller.
fn cancel_never_leaks_a_slot(threads: usize) {
    const ROUNDS: usize = 30;
    const CAPACITY: usize = 2;
    let queue = Arc::new(BoundedQueue::new(CAPACITY));
    let taken: Arc<Mutex<Vec<usize>>> = Arc::default();

    let cancellers: Vec<_> = (0..threads)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let taken = Arc::clone(&taken);
            std::thread::spawn(move || {
                // remove any even item it can find, a bounded number of times
                for _ in 0..ROUNDS {
                    if let Some(item) = queue.remove(|item| item % 2 == 0) {
                        taken.lock().unwrap().push(item);
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // the producer fills strictly within capacity, relying on removals
    // and pops to make room
    let consumer = {
        let queue = Arc::clone(&queue);
        let taken = Arc::clone(&taken);
        std::thread::spawn(move || {
            while let Some(item) = queue.pop() {
                taken.lock().unwrap().push(item);
            }
        })
    };

    let total = threads * ROUNDS;
    for item in 0..total {
        loop {
            match queue.try_push(item) {
                Ok(_) => break,
                Err(QueueFull) => std::thread::yield_now(),
            }
        }
        assert!(queue.len() <= CAPACITY);
    }
    for canceller in cancellers {
        canceller.join().unwrap();
    }
    queue.shutdown();
    consumer.join().unwrap();

    let mut seen = Arc::try_unwrap(taken).unwrap().into_inner().unwrap();
    seen.sort_unstable();
    assert_eq!(seen, (0..total).collect::<Vec<_>>());
}

macro_rules! at_threads {
    ($name:ident, $f:ident, $n:expr) => {
        #[test]
        fn $name() {
            $f($n);
        }
    };
}

at_threads!(fifo_exactly_once_1_thread, fifo_and_exactly_once, 1);
at_threads!(fifo_exactly_once_2_threads, fifo_and_exactly_once, 2);
at_threads!(fifo_exactly_once_3_threads, fifo_and_exactly_once, 3);
at_threads!(fifo_exactly_once_7_threads, fifo_and_exactly_once, 7);

at_threads!(bounded_depth_1_producer, bounded_depth_under_contention, 1);
at_threads!(bounded_depth_2_producers, bounded_depth_under_contention, 2);
at_threads!(bounded_depth_3_producers, bounded_depth_under_contention, 3);
at_threads!(bounded_depth_7_producers, bounded_depth_under_contention, 7);

at_threads!(cancel_no_leak_1_thread, cancel_never_leaks_a_slot, 1);
at_threads!(cancel_no_leak_2_threads, cancel_never_leaks_a_slot, 2);
at_threads!(cancel_no_leak_3_threads, cancel_never_leaks_a_slot, 3);
at_threads!(cancel_no_leak_7_threads, cancel_never_leaks_a_slot, 7);
