//! Bounded job queue with panic isolation.
//!
//! Connection threads `try_submit` analysis jobs; a fixed pool of worker
//! threads executes them. The queue depth is a hard bound — a full queue
//! rejects immediately (the server turns that into `503` +
//! `Retry-After`), so a burst of submissions degrades into backpressure
//! instead of unbounded memory growth. Each job runs under
//! `catch_unwind`, as each analysis stage does inside the pipeline: one
//! poisoned trace cannot take a worker (or the daemon) down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its configured depth; try again shortly.
    Full,
    /// The queue has been drained; the daemon is shutting down.
    ShuttingDown,
}

/// Locks a mutex, recovering from poisoning (a panicking holder must not
/// wedge the daemon; the guarded state stays internally consistent because
/// every critical section is a single field update).
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Fixed worker pool draining a bounded queue of boxed jobs.
pub struct JobQueue {
    tx: Mutex<Option<SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Jobs queued or executing right now.
    in_flight: Arc<AtomicUsize>,
    /// Jobs whose closure panicked (isolated, worker survived).
    panicked: Arc<AtomicUsize>,
    /// Jobs that ran to completion.
    completed: Arc<AtomicUsize>,
}

impl JobQueue {
    /// Spawns `workers` threads behind a queue holding at most `depth`
    /// not-yet-started jobs.
    pub fn new(workers: usize, depth: usize) -> JobQueue {
        let (tx, rx) = mpsc::sync_channel::<Job>(depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let panicked = Arc::new(AtomicUsize::new(0));
        let completed = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let in_flight = Arc::clone(&in_flight);
                let panicked = Arc::clone(&panicked);
                let completed = Arc::clone(&completed);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        // Name the obs lane so request span trees show which
                        // worker executed the job.
                        phasefold_obs::span::set_lane_name(&format!("serve-worker-{i}"));
                        worker_loop(&rx, &in_flight, &panicked, &completed)
                    })
            })
            .filter_map(|h| h.ok())
            .collect();
        JobQueue {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(handles),
            in_flight,
            panicked,
            completed,
        }
    }

    /// Submits a job without blocking. `Err(Full)` is the backpressure
    /// signal; the job is returned to the caller's stack unrun.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        let guard = lock_recover(&self.tx);
        let Some(tx) = guard.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        // Count before sending so a worker that grabs the job instantly
        // still sees a non-zero in-flight figure.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        match tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                phasefold_obs::counter!("serve.queue_rejections", 1);
                Err(SubmitError::Full)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Jobs queued or executing right now.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Jobs that ran to completion.
    pub fn completed(&self) -> usize {
        self.completed.load(Ordering::SeqCst)
    }

    /// Jobs whose closure panicked.
    pub fn panicked(&self) -> usize {
        self.panicked.load(Ordering::SeqCst)
    }

    /// Drains the queue: stops accepting new jobs, lets queued and
    /// executing jobs finish, and joins every worker. Idempotent.
    pub fn drain(&self) {
        // Dropping the sender lets workers drain the channel then observe
        // the disconnect and exit.
        lock_recover(&self.tx).take();
        let handles: Vec<JoinHandle<()>> = lock_recover(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Deadline-aware [`JobQueue::drain`]: stops accepting new jobs, then
    /// waits for queued and executing jobs only until `deadline`. Workers
    /// still running a job at the deadline are detached — they finish (or
    /// the process exits) on their own; the daemon's shutdown must not
    /// block behind a slow or hung analysis. Returns the number of jobs
    /// still in flight when the drain gave up (0 = clean). Idempotent.
    pub fn drain_until(&self, deadline: std::time::Instant) -> usize {
        lock_recover(&self.tx).take();
        while self.in_flight() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let handles: Vec<JoinHandle<()>> = lock_recover(&self.workers).drain(..).collect();
        let timed_out = self.in_flight() > 0;
        for h in handles {
            // With no jobs left every worker observes the disconnect
            // immediately, so an unconditional join is prompt. After a
            // timeout only the already-idle workers are joined.
            if !timed_out || h.is_finished() {
                let _ = h.join();
            }
        }
        self.in_flight()
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<Job>>>,
    in_flight: &AtomicUsize,
    panicked: &AtomicUsize,
    completed: &AtomicUsize,
) {
    loop {
        // Hold the receiver lock only while waiting, never while running a
        // job, so workers execute in parallel.
        let job = match lock_recover(rx).recv() {
            Ok(job) => job,
            Err(_) => return, // sender dropped and queue empty: drained
        };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            panicked.fetch_add(1, Ordering::SeqCst);
        } else {
            completed.fetch_add(1, Ordering::SeqCst);
        }
        in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let q = JobQueue::new(2, 8);
        let (tx, rx) = channel();
        for i in 0..8 {
            let tx = tx.clone();
            q.try_submit(Box::new(move || tx.send(i).unwrap())).unwrap();
        }
        let mut got: Vec<i32> = (0..8)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        q.drain();
        assert_eq!(q.completed(), 8);
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = JobQueue::new(1, 1);
        let (block_tx, block_rx) = channel::<()>();
        // Occupy the single worker…
        q.try_submit(Box::new(move || {
            let _ = block_rx.recv_timeout(Duration::from_secs(5));
        }))
        .unwrap();
        // …fill the single queue slot (may need a moment for the worker to
        // pick up the first job)…
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match q.try_submit(Box::new(|| {})) {
                Ok(()) => break,
                Err(SubmitError::Full) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        // …now a further submission must bounce.
        let mut saw_full = false;
        for _ in 0..50 {
            if q.try_submit(Box::new(|| {})) == Err(SubmitError::Full) {
                saw_full = true;
                break;
            }
        }
        assert!(saw_full, "bounded queue never reported Full");
        block_tx.send(()).unwrap();
        q.drain();
    }

    #[test]
    fn panicking_job_is_isolated() {
        let q = JobQueue::new(1, 4);
        q.try_submit(Box::new(|| panic!("poisoned job"))).unwrap();
        let (tx, rx) = channel();
        q.try_submit(Box::new(move || tx.send(42u8).unwrap())).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
        q.drain();
        assert_eq!(q.panicked(), 1);
        assert_eq!(q.completed(), 1);
    }

    #[test]
    fn drain_until_gives_up_on_overrunning_jobs() {
        use std::time::Instant;
        let q = JobQueue::new(1, 4);
        let (release_tx, release_rx) = channel::<()>();
        q.try_submit(Box::new(move || {
            let _ = release_rx.recv_timeout(Duration::from_secs(30));
        }))
        .unwrap();
        // Wait for the worker to pick the job up so in_flight is honest.
        let pickup = Instant::now() + Duration::from_secs(5);
        while q.in_flight() == 0 && Instant::now() < pickup {
            std::thread::sleep(Duration::from_millis(1));
        }
        let start = Instant::now();
        let left = q.drain_until(Instant::now() + Duration::from_millis(100));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drain_until blocked past its deadline"
        );
        assert_eq!(left, 1, "the hung job must be reported, not waited out");
        assert_eq!(q.try_submit(Box::new(|| {})), Err(SubmitError::ShuttingDown));
        // Release the detached worker so the test process exits cleanly.
        release_tx.send(()).unwrap();
    }

    #[test]
    fn drain_until_is_prompt_when_idle() {
        let q = JobQueue::new(2, 4);
        let (tx, rx) = channel();
        q.try_submit(Box::new(move || tx.send(1u8).unwrap())).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 1);
        let left = q.drain_until(std::time::Instant::now() + Duration::from_secs(30));
        assert_eq!(left, 0);
        assert_eq!(q.completed(), 1);
    }

    #[test]
    fn drain_rejects_new_work_and_is_idempotent() {
        let q = JobQueue::new(1, 4);
        q.drain();
        assert_eq!(q.try_submit(Box::new(|| {})), Err(SubmitError::ShuttingDown));
        q.drain();
    }
}
