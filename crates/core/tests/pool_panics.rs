//! Panic isolation in the work-stealing pool: one panicking task among
//! many real ones must not abort, deadlock, or take neighbouring tasks
//! down — at any thread count — and the casualty must be visible both in
//! the returned [`TaskPanic`] list and the `pool.task_panics` counter.
//!
//! Runs in its own process (integration test) because the `phasefold-obs`
//! counters are process-global.

use phasefold::pool::{run, Job};
use phasefold_obs::metrics::counter_value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Serialises the tests in this file: each toggles the global obs switch.
static OBS_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn one_panicking_task_among_hundred_is_isolated_at_every_thread_count() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for threads in [1usize, 2, 8] {
        phasefold_obs::reset();
        phasefold_obs::set_enabled(true);
        let done = AtomicUsize::new(0);
        let jobs: Vec<Job<'_>> = (0..101)
            .map(|i| -> Job<'_> {
                if i == 37 {
                    Box::new(move |_| panic!("chaos task {i}"))
                } else {
                    Box::new(|_| {
                        // A little real work so parallel workers overlap
                        // with the panicking task instead of outrunning it.
                        let mut acc = 1u64;
                        for _ in 0..2_000 {
                            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        }
                        std::hint::black_box(acc);
                        done.fetch_add(1, Ordering::SeqCst);
                    })
                }
            })
            .collect();
        let panics = run(threads, jobs);
        phasefold_obs::set_enabled(false);

        assert_eq!(
            done.load(Ordering::SeqCst),
            100,
            "threads={threads}: every healthy task must still run"
        );
        assert_eq!(panics.len(), 1, "threads={threads}: exactly one casualty");
        assert_eq!(panics[0].message, "chaos task 37");
        assert!(panics[0].worker < threads.max(1));
        assert_eq!(
            counter_value("pool.task_panics"),
            1,
            "threads={threads}: the casualty must be counted"
        );
        assert_eq!(
            counter_value("pool.tasks_completed"),
            101,
            "threads={threads}: a panicking task still completes (as a fault)"
        );
    }
}

#[test]
fn panics_in_spawned_children_are_isolated_too() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for threads in [1usize, 4] {
        phasefold_obs::reset();
        phasefold_obs::set_enabled(true);
        let done = AtomicUsize::new(0);
        let done = &done;
        let jobs: Vec<Job<'_>> = (0..8)
            .map(|i| -> Job<'_> {
                Box::new(move |sp| {
                    done.fetch_add(1, Ordering::SeqCst);
                    sp.spawn(move |_| {
                        if i == 3 {
                            panic!("child {i} down");
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                })
            })
            .collect();
        let panics = run(threads, jobs);
        phasefold_obs::set_enabled(false);

        assert_eq!(done.load(Ordering::SeqCst), 8 + 7, "threads={threads}");
        assert_eq!(panics.len(), 1, "threads={threads}");
        assert_eq!(panics[0].message, "child 3 down");
        assert_eq!(counter_value("pool.task_panics"), 1, "threads={threads}");
    }
}
