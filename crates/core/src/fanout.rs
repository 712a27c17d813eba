//! Deterministic indexed fan-out: the one place the library spreads
//! independent work items over scoped worker threads.
//!
//! Workers claim indices `0..len` from a shared counter, so the claimed
//! set is always a prefix of the index range. Results are merged in index
//! order, which makes the output independent of thread count and
//! scheduling; callers reduce the returned `Vec` sequentially.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Resolves a configured worker count for `items` work items: `0` means
/// every available core ([`std::thread::available_parallelism`]); the
/// result is clamped to `1..=max(items, 1)`.
pub fn resolve_threads(configured: usize, items: usize) -> usize {
    let configured = if configured == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        configured
    };
    configured.clamp(1, items.max(1))
}

/// Maps `f` over the indices `0..len` on `threads` workers (clamped to
/// `1..=len`) and returns the results in index order.
///
/// After the first error no worker claims a new index; the error of the
/// smallest failing claimed index is returned. `threads == 1` runs inline
/// on the calling thread and stops at the first error. A worker's panic
/// is re-raised on the calling thread with its original payload.
///
/// # Errors
///
/// The error of the smallest failing claimed index.
pub fn try_map<T, E, F>(len: usize, threads: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let threads = threads.clamp(1, len.max(1));
    if threads == 1 {
        return (0..len).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let worker = || {
        let mut out = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            let result = f(i);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            out.push((i, result));
        }
        out
    };
    let mut tagged = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        let mut tagged = Vec::with_capacity(len);
        for handle in handles {
            match handle.join() {
                Ok(part) => tagged.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        tagged
    });
    // Claimed indices form a prefix, so the sorted results are gap-free
    // and `collect` stops at the smallest failing index.
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;

    /// Runs `try_map` where item `waiter` blocks until item `signaller`
    /// has run, so on more than one thread `signaller` finishes first.
    fn run_with_ordering<T: Send, E: Send>(
        len: usize,
        threads: usize,
        waiter: usize,
        signaller: usize,
        f: impl Fn(usize) -> Result<T, E> + Sync,
    ) -> Result<Vec<T>, E> {
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        try_map(len, threads, |i| {
            if i == waiter && threads > 1 {
                rx.lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(30))
                    .expect("signalling item never ran");
            }
            let result = f(i);
            if i == signaller {
                tx.send(()).unwrap();
            }
            result
        })
    }

    #[test]
    fn results_come_back_in_index_order_when_items_finish_out_of_order() {
        let len = 24;
        for threads in [1, 2, 3, 8] {
            // Item 0 finishes last on every multi-threaded run.
            let out = run_with_ordering(len, threads, 0, len - 1, |i| Ok::<_, Infallible>(i * i))
                .unwrap();
            let expected: Vec<usize> = (0..len).map(|i| i * i).collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn the_smaller_failing_index_wins() {
        for threads in [1, 2, 3, 8] {
            // Item 9 fails before item 4 does on every multi-threaded run.
            let err = run_with_ordering(16, threads, 4, 9, |i| {
                if i == 4 || i == 9 {
                    Err(i)
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, 4, "threads = {threads}");
        }
    }

    #[test]
    fn inline_run_stops_at_the_first_failure() {
        let called = Mutex::new(Vec::new());
        let err = try_map(10, 1, |i| {
            called.lock().unwrap().push(i);
            if i == 3 {
                Err("boom")
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(*called.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_thread_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = try_map(4, 1, |_| Ok::<_, Infallible>(std::thread::current().id())).unwrap();
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn empty_range_is_ok() {
        let out = try_map(0, 8, |_| Err::<(), _>("never called")).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panics_keep_their_payload() {
        for threads in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                try_map(6, threads, |i| {
                    if i == 2 {
                        panic!("layer {i} exploded");
                    }
                    Ok::<_, Infallible>(i)
                })
            })
            .unwrap_err();
            assert_eq!(
                caught.downcast_ref::<String>().map(String::as_str),
                Some("layer 2 exploded"),
                "threads = {threads}"
            );
            let caught = std::panic::catch_unwind(|| {
                try_map(6, threads, |i| {
                    if i == 4 {
                        panic!("static message");
                    }
                    Ok::<_, Infallible>(i)
                })
            })
            .unwrap_err();
            assert_eq!(
                caught.downcast_ref::<&str>(),
                Some(&"static message"),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn resolve_threads_edge_cases() {
        for n in [0, 1, 2, 7, 1000] {
            let all = resolve_threads(0, n);
            assert!((1..=n.max(1)).contains(&all), "(0, {n}) -> {all}");
        }
        for k in [0, 1, 4, 64] {
            assert_eq!(resolve_threads(k, 0), 1, "({k}, 0)");
        }
        assert_eq!(resolve_threads(4, 10), 4);
        assert_eq!(resolve_threads(16, 3), 3);
    }
}
