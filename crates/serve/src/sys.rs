//! Raw readiness syscalls for the event loop — no `libc` crate.
//!
//! Extends the `shutdown` module's precedent of binding C symbols
//! directly: Linux `epoll` and a self-pipe [`WakePipe`] so worker threads
//! can interrupt a parked shard. Everything is wrapped behind [`Poller`],
//! which is the only surface the event loop sees; the unsafe blocks live
//! here and nowhere else in the crate besides `shutdown`.
//!
//! The poller is O(ready) per wakeup and level-triggered, which is what
//! the connection state machine assumes: unread bytes or unflushed
//! buffers re-signal on the next wait.

#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("phasefold-serve's event loop is built on Linux epoll and supports Linux only");

use std::io;
use std::os::raw::{c_int, c_void};
use std::time::Duration;

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or a peer hangup, which reads as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup condition; the owner should read to collect the
    /// error (a closed peer surfaces as EOF or ECONNRESET).
    pub error: bool,
}

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn pipe(fds: *mut c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int)
        -> c_int;
}

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// `struct epoll_event`; packed on x86-64, natural alignment on other
/// architectures — this matches the kernel ABI exactly.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

fn set_nonblocking_fd(fd: c_int) -> io::Result<()> {
    // SAFETY: fcntl on an fd we own; F_GETFL/F_SETFL take/return flag
    // words, no pointers involved.
    unsafe {
        let flags = fcntl(fd, F_GETFL, 0);
        if flags < 0 {
            return Err(last_os_error());
        }
        if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
            return Err(last_os_error());
        }
    }
    Ok(())
}

/// Readiness selector: register fds under tokens, wait for events.
pub(crate) struct Poller {
    epfd: c_int,
    buf: Vec<EpollEvent>,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flag word and returns an fd.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error());
        }
        Ok(Poller { epfd, buf: vec![EpollEvent { events: 0, data: 0 }; 256] })
    }

    fn ctl(&self, op: c_int, fd: c_int, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: epfd and fd are fds we own; `ev` outlives the call
        // (the kernel copies it).
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Starts watching `fd` under `token` for the given interests.
    pub(crate) fn register(
        &mut self,
        fd: c_int,
        token: u64,
        read: bool,
        write: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest_bits(read, write), token)
    }

    /// Changes the interest set of a registered fd.
    pub(crate) fn modify(
        &mut self,
        fd: c_int,
        token: u64,
        read: bool,
        write: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest_bits(read, write), token)
    }

    /// Stops watching `fd` (close the fd after, not before).
    pub(crate) fn deregister(&mut self, fd: c_int) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits up to `timeout` and appends ready events to `out` (cleared
    /// first). A timeout or EINTR returns with `out` empty.
    pub(crate) fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        out.clear();
        let timeout_ms = timeout.as_millis().min(60_000) as c_int;
        // SAFETY: `buf` is a valid writable slice; the kernel writes at
        // most `buf.len()` events.
        let n = unsafe {
            epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as c_int, timeout_ms)
        };
        if n < 0 {
            let e = last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in self.buf.iter().take(n as usize) {
            let (events, data) = { (ev.events, ev.data) };
            out.push(PollEvent {
                token: data,
                readable: events & (EPOLLIN | EPOLLHUP) != 0,
                writable: events & EPOLLOUT != 0,
                error: events & EPOLLERR != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing the epoll fd we created and own.
        unsafe {
            close(self.epfd);
        }
    }
}

fn interest_bits(read: bool, write: bool) -> u32 {
    let mut bits = 0;
    if read {
        bits |= EPOLLIN;
    }
    if write {
        bits |= EPOLLOUT;
    }
    bits
}

/// Self-pipe: the read end lives in a shard's poller, the write end is
/// poked by any thread that needs the shard to wake up now (job
/// completions, new connections, shutdown). Both ends are non-blocking —
/// a full pipe drops the byte, which is fine because one pending byte
/// already guarantees a wakeup.
pub(crate) struct WakePipe {
    read_fd: c_int,
    write_fd: c_int,
}

impl WakePipe {
    pub(crate) fn new() -> io::Result<WakePipe> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: pipe(2) writes two fds into the array.
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(last_os_error());
        }
        let wp = WakePipe { read_fd: fds[0], write_fd: fds[1] };
        set_nonblocking_fd(wp.read_fd)?;
        set_nonblocking_fd(wp.write_fd)?;
        Ok(wp)
    }

    /// The fd to register for readability.
    pub(crate) fn read_fd(&self) -> c_int {
        self.read_fd
    }

    /// Interrupts the owning shard's wait. Cheap, signal-safe-shaped,
    /// callable from any thread.
    pub(crate) fn wake(&self) {
        let byte = [1u8];
        // SAFETY: writing one byte from a valid buffer to an fd we own;
        // EAGAIN (pipe already full) is exactly as good as success.
        unsafe {
            let _ = write(self.write_fd, byte.as_ptr().cast(), 1);
        }
    }

    /// Consumes queued wakeups so the level-triggered poller re-arms.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reading into a valid buffer from an fd we own.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: closing fds created by pipe(2) above.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn default_backend_reports_readiness() {
        let mut poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        // Nothing to read yet: a short wait times out empty.
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));
        a.write_all(b"x").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(&mut events, Duration::from_millis(100)).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "readable event never arrived");
        }
        // Write interest reports immediately on an idle socket.
        poller.modify(b.as_raw_fd(), 7, true, true).unwrap();
        poller.wait(&mut events, Duration::from_millis(1000)).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));
        let mut one = [0u8; 1];
        let mut bb = &b;
        assert_eq!(bb.read(&mut one).unwrap(), 1);
        poller.deregister(b.as_raw_fd());
    }

    #[test]
    fn wake_pipe_interrupts_a_wait() {
        let mut poller = Poller::new().unwrap();
        let wp = WakePipe::new().unwrap();
        poller.register(wp.read_fd(), u64::MAX, true, false).unwrap();
        wp.wake();
        wp.wake(); // coalesces, never blocks
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_secs(5)).unwrap();
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));
        wp.drain();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "drained pipe still signalled: {events:?}");
    }
}
