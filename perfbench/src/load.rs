//! The open-loop load generator.
//!
//! Requests are sent on a fixed schedule whatever the daemon does, from at
//! most `conns` keep-alive connections (one thread each). Latency is timed
//! from when a request was *due*, not when it was sent: a stall that keeps
//! a connection busy delays every request due behind it, and that wait is
//! counted instead of silently omitted.
//!
//! Generator lag is kept apart from that backlog: it is how late a request
//! was sent after it was both due and had a free connection, i.e. time the
//! generator itself lost (sleep overshoot, being descheduled).

use crate::http::{Conn, Reply};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One scheduled request.
pub struct Job<'a> {
    /// Offset from the start of the schedule at which it is due.
    pub due: Duration,
    /// HTTP method.
    pub method: &'static str,
    /// Request target.
    pub path: String,
    /// Request body.
    pub body: &'a [u8],
    /// Caller-defined request class (e.g. analyze, compare, phases).
    pub class: usize,
    /// Caller-defined index of the expected answer.
    pub expect: usize,
}

/// What happened to one job.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Sent and answered (or failed) — false when the schedule was
    /// abandoned before its turn.
    pub sent: bool,
    /// Due time → answer, milliseconds.
    pub latency_ms: f64,
    /// Send → answer, milliseconds.
    pub service_ms: f64,
    /// Generator lag, milliseconds (see the module docs).
    pub lag_ms: f64,
    /// Status code, 0 on an I/O error or timeout.
    pub status: u16,
    /// 2xx and the answer passed the caller's output check.
    pub ok: bool,
}

/// How a schedule ran.
pub struct Run {
    /// One outcome per job, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// The schedule was abandoned because a request fell further behind
    /// its due time than the caller's limit.
    pub abandoned: bool,
    /// Wall time from the first due time to the last answer.
    pub elapsed: Duration,
}

/// Plays `jobs` (sorted by due time) against `addr` over `conns`
/// connections. `check` decides whether a 2xx answer is correct. When
/// `abandon_after` is set, a request picked up later than that past its
/// due time stops the schedule: the remaining jobs are not sent.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    jobs: &[Job<'_>],
    abandon_after: Option<Duration>,
    timeout: Duration,
    check: &(dyn Fn(&Job<'_>, &Reply) -> bool + Sync),
) -> Run {
    let next = AtomicUsize::new(0);
    let abandoned = AtomicBool::new(false);
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(vec![Outcome::default(); jobs.len()]);
    let last_done = Mutex::new(Instant::now());
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for _ in 0..conns.max(1) {
            s.spawn(|| {
                let mut conn = Conn::new(addr, timeout);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    if abandoned.load(Ordering::Relaxed) {
                        continue;
                    }
                    let due = start + job.due;
                    let ready = Instant::now();
                    if let Some(limit) = abandon_after {
                        if ready > due + limit {
                            abandoned.store(true, Ordering::Relaxed);
                            continue;
                        }
                    }
                    if due > ready {
                        std::thread::sleep(due - ready);
                    }
                    let sent = Instant::now();
                    let reply = conn.request(job.method, &job.path, job.body);
                    let done = Instant::now();
                    let (status, ok) = match &reply {
                        Ok(r) => (r.status, r.ok() && check(job, r)),
                        Err(_) => (0, false),
                    };
                    let o = Outcome {
                        sent: true,
                        latency_ms: ms(done.saturating_duration_since(due)),
                        service_ms: ms(done - sent),
                        lag_ms: ms(sent.saturating_duration_since(due.max(ready))),
                        status,
                        ok,
                    };
                    outcomes.lock().unwrap()[i] = o;
                    let mut last = last_done.lock().unwrap();
                    *last = (*last).max(done);
                }
            });
        }
    });
    let elapsed = last_done.into_inner().unwrap().saturating_duration_since(start);
    Run { outcomes: outcomes.into_inner().unwrap(), abandoned: abandoned.into_inner(), elapsed }
}

/// Duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Evenly spaced due times: `n` requests at `rate` per second from `offset`.
pub fn even(n: usize, rate: f64, offset: Duration) -> impl Iterator<Item = Duration> {
    (0..n).map(move |i| offset + Duration::from_secs_f64(i as f64 / rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A server that answers `n` requests on one connection, stalling
    /// `stall` before the first answer.
    fn stalled_server(n: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            for i in 0..n {
                // Requests carry no body in this test: a head ends the request.
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    let k = s.read(&mut chunk).unwrap();
                    buf.extend_from_slice(&chunk[..k]);
                }
                let end = buf.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
                buf.drain(..end);
                if i == 0 {
                    std::thread::sleep(stall);
                }
                s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok").unwrap();
            }
        });
        addr
    }

    #[test]
    fn latency_from_due_time_counts_a_stall() {
        let stall = Duration::from_millis(300);
        let addr = stalled_server(20, stall);
        // 20 requests every 10 ms: all due during the 300 ms stall.
        let jobs: Vec<Job> = even(20, 100.0, Duration::ZERO)
            .map(|due| Job { due, method: "GET", path: "/".into(), body: b"", class: 0, expect: 0 })
            .collect();
        let run = open_loop(addr, 1, &jobs, None, Duration::from_secs(5), &|_, r| r.body == b"ok");
        assert!(!run.abandoned);
        assert!(run.outcomes.iter().all(|o| o.sent && o.ok && o.status == 200));
        let lat = stats::sorted(&run.outcomes.iter().map(|o| o.latency_ms).collect::<Vec<_>>());
        let svc = stats::sorted(&run.outcomes.iter().map(|o| o.service_ms).collect::<Vec<_>>());
        let lag = stats::sorted(&run.outcomes.iter().map(|o| o.lag_ms).collect::<Vec<_>>());
        // Request i waited for the stall: ~300 - 10 i ms from its due time,
        // so the median is ~200 ms although each answer, once sent, took
        // under a millisecond (only the first absorbed the stall).
        assert!(stats::percentile(&lat, 50.0) > 150.0, "{lat:?}");
        assert!(stats::percentile(&lat, 100.0) >= 290.0, "{lat:?}");
        assert!(stats::percentile(&svc, 50.0) < 50.0, "{svc:?}");
        // The connection was busy, not the generator late: no lag.
        assert!(stats::percentile(&lag, 90.0) < 50.0, "{lag:?}");
    }

    #[test]
    fn abandons_a_schedule_that_falls_behind() {
        let addr = stalled_server(1, Duration::from_millis(200));
        let jobs: Vec<Job> = even(20, 100.0, Duration::ZERO)
            .map(|due| Job { due, method: "GET", path: "/".into(), body: b"", class: 0, expect: 0 })
            .collect();
        let run = open_loop(addr, 1, &jobs, Some(Duration::from_millis(50)), Duration::from_secs(5), &|_, _| true);
        assert!(run.abandoned);
        assert!(run.outcomes[0].sent && run.outcomes[0].ok);
        assert!(run.outcomes[1..].iter().all(|o| !o.sent));
    }
}
