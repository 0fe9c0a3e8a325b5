//! Stress test of the work-stealing pool's observability counters.
//!
//! Runs in its own process (integration test), so the process-global
//! `phasefold-obs` state is not shared with unit tests. The scenarios run
//! sequentially inside single `#[test]` functions guarded by one lock,
//! because counters are global: two pools running concurrently would fold
//! their deltas together.

use phasefold::pool::{run, Job};
use phasefold_obs::metrics::counter_value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Serialises the tests in this file: each toggles the global obs switch.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Counter snapshot around one pool run.
#[derive(Debug, PartialEq, Eq)]
struct PoolCounters {
    scheduled: u64,
    completed: u64,
    steals: u64,
    queue_depth_max: u64,
    task_ns: u64,
}

fn pool_counters() -> PoolCounters {
    PoolCounters {
        scheduled: counter_value("pool.tasks_scheduled"),
        completed: counter_value("pool.tasks_completed"),
        steals: counter_value("pool.steals"),
        queue_depth_max: counter_value("pool.queue_depth_max"),
        task_ns: counter_value("pool.task_ns"),
    }
}

/// An irregular three-level spawn tree: `seeds` roots, the i-th root spawns
/// `i % 5` children, the j-th child spawns `(i + j) % 3` grandchildren.
/// Every job burns a little deterministic arithmetic so parallel workers
/// overlap long enough to steal. Returns the total number of jobs.
fn spawn_tree(threads: usize, seeds: usize, hits: &AtomicUsize) -> usize {
    let mut total = seeds;
    for i in 0..seeds {
        let children = i % 5;
        total += children;
        for j in 0..children {
            total += (i + j) % 3;
        }
    }
    let jobs: Vec<Job<'_>> = (0..seeds)
        .map(|i| -> Job<'_> {
            Box::new(move |sp| {
                busy_work(i);
                hits.fetch_add(1, Ordering::SeqCst);
                for j in 0..(i % 5) {
                    sp.spawn(move |sp| {
                        busy_work(j);
                        hits.fetch_add(1, Ordering::SeqCst);
                        for g in 0..((i + j) % 3) {
                            sp.spawn(move |_| {
                                busy_work(g);
                                hits.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                }
            })
        })
        .collect();
    let panics = run(threads, jobs);
    assert!(panics.is_empty(), "healthy tree must not panic: {panics:?}");
    total
}

fn busy_work(seed: usize) {
    let mut acc = seed as u64 + 1;
    for _ in 0..2_000 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    std::hint::black_box(acc);
}

#[test]
fn counters_balance_at_every_thread_count() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for threads in [1usize, 2, 8] {
        phasefold_obs::reset();
        phasefold_obs::set_enabled(true);
        let hits = AtomicUsize::new(0);
        let expected = spawn_tree(threads, 40, &hits);
        phasefold_obs::set_enabled(false);
        let c = pool_counters();

        assert_eq!(hits.load(Ordering::SeqCst), expected, "threads={threads}");
        assert_eq!(c.scheduled, expected as u64, "threads={threads}: scheduled");
        assert_eq!(
            c.scheduled, c.completed,
            "threads={threads}: every scheduled task must complete"
        );
        assert!(
            c.steals <= c.completed,
            "threads={threads}: steals ({}) cannot exceed completed tasks ({})",
            c.steals,
            c.completed
        );
        if threads == 1 {
            assert_eq!(c.steals, 0, "sequential drain must never steal");
        }
        // The 40 seeds are enqueued before any worker drains, so the
        // watermark sees at least the seed burst.
        assert!(
            c.queue_depth_max >= 40,
            "threads={threads}: queue depth watermark {} < seed count",
            c.queue_depth_max
        );
        assert!(c.task_ns > 0, "threads={threads}: task timing recorded");
    }
}

#[test]
fn disabled_obs_records_nothing() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    phasefold_obs::reset();
    phasefold_obs::set_enabled(false);
    let hits = AtomicUsize::new(0);
    let expected = spawn_tree(4, 24, &hits);
    assert_eq!(hits.load(Ordering::SeqCst), expected);
    let c = pool_counters();
    assert_eq!(
        c,
        PoolCounters { scheduled: 0, completed: 0, steals: 0, queue_depth_max: 0, task_ns: 0 },
        "disabled instrumentation must not move any counter"
    );
}

/// Sub-threshold workloads must take the fully sequential path: a trace
/// that folds to fewer samples than `parallel_threshold` never touches the
/// pool (no worker spawned, no task scheduled), even when the caller asks
/// for many threads — and the resulting models are identical to a run that
/// forces the pool on.
#[test]
fn sub_threshold_workload_takes_sequential_path() {
    use phasefold::{analyze_trace, AnalysisConfig};
    use phasefold_simapp::workloads::synthetic::{build, SyntheticParams};
    use phasefold_simapp::{simulate, SimConfig};
    use phasefold_tracer::{trace_run, OverheadConfig, TracerConfig};

    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let params = SyntheticParams { iterations: 120, ..SyntheticParams::default() };
    let program = build(&params);
    let sim = simulate(&program, &SimConfig { ranks: 2, ..SimConfig::default() });
    let tracer = TracerConfig { overhead: OverheadConfig::FREE, ..TracerConfig::default() };
    let trace = trace_run(&program.registry, &sim.timelines, &tracer);

    // The default threshold (2048 samples) dwarfs this trace's fold.
    let config = AnalysisConfig { threads: Some(4), ..AnalysisConfig::default() };
    phasefold_obs::reset();
    phasefold_obs::set_enabled(true);
    let sequential = analyze_trace(&trace, &config);
    phasefold_obs::set_enabled(false);
    let c = pool_counters();
    assert_eq!(c.scheduled, 0, "sub-threshold workload must bypass the pool");
    assert_eq!(c.completed, 0);
    assert!(!sequential.models.is_empty(), "the workload itself must still analyse");

    // Disabling the threshold with the same thread request must schedule
    // pool tasks — proving the previous run's zero came from the fallback,
    // not from a broken counter.
    let forced =
        AnalysisConfig { threads: Some(4), parallel_threshold: 0, ..AnalysisConfig::default() };
    phasefold_obs::reset();
    phasefold_obs::set_enabled(true);
    let parallel = analyze_trace(&trace, &forced);
    phasefold_obs::set_enabled(false);
    let c = pool_counters();
    assert!(c.scheduled > 0, "threshold 0 must honour the thread request");

    // Same analysis either way: the threshold changes the schedule only.
    assert_eq!(sequential.models.len(), parallel.models.len());
    for (a, b) in sequential.models.iter().zip(&parallel.models) {
        assert_eq!(a.breakpoints(), b.breakpoints());
    }
    phasefold_obs::reset();
}

#[test]
fn repeated_runs_accumulate_monotonically() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    phasefold_obs::reset();
    phasefold_obs::set_enabled(true);
    let hits = AtomicUsize::new(0);
    let first = spawn_tree(2, 16, &hits) as u64;
    let after_first = pool_counters();
    let second = spawn_tree(2, 16, &hits) as u64;
    phasefold_obs::set_enabled(false);
    let after_second = pool_counters();
    assert_eq!(after_first.scheduled, first);
    assert_eq!(after_second.scheduled, first + second);
    assert_eq!(after_second.completed, first + second);
    phasefold_obs::reset();
}
