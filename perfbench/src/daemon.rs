//! The `phasefold serve` daemon as a child process.

use crate::http;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon; killed and reaped on drop if not stopped first.
pub struct Daemon {
    child: Child,
    /// Bound loopback address.
    pub addr: SocketAddr,
    /// Flags it was started with.
    pub flags: Vec<String>,
}

impl Daemon {
    /// Spawns `bin serve <flags>` on an ephemeral loopback port and waits
    /// for its first `200 /healthz`. Returns the daemon and the time from
    /// spawning to that answer.
    pub fn start(bin: &Path, work: &Path, flags: &[String]) -> Result<(Daemon, Duration), String> {
        let port_file: PathBuf = work.join("port");
        let _ = std::fs::remove_file(&port_file);
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut d = Daemon { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)), flags: flags.to_vec() };
        let deadline = t0 + Duration::from_secs(30);
        loop {
            if Instant::now() > deadline {
                return Err("daemon did not answer /healthz within 30 s".into());
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if d.addr.port() == 0 {
                if let Some(a) = std::fs::read_to_string(&port_file)
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                {
                    d.addr = a;
                }
            }
            if d.addr.port() != 0 {
                if let Ok(r) = http::once(d.addr, "GET", "/healthz", b"") {
                    if r.status == 200 {
                        return Ok((d, t0.elapsed()));
                    }
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Process id, as `/proc` names it.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks for a graceful drain and reaps the process; kills it if the
    /// drain takes longer than 20 s.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = http::once(self.addr, "POST", "/admin/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                _ => return Err("daemon did not drain within 20 s".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
