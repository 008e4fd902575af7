//! The daemon child process.
//!
//! Served workloads run the allocation daemon in a separate process —
//! this binary re-executed as `benchmark daemon` — so the load
//! generator and the server never share an allocator, a heap high-water
//! mark or a scheduler queue inside one process, and so the daemon can
//! be SIGKILLed and restarted on its journal directory the way a crash
//! would do it.

use dbp_server::{DbpServer, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Body of `benchmark daemon`: starts a server the way `mindbp serve`
/// does, prints its bound address on one stdout line, and serves until
/// killed or until its standard input closes — which happens when the
/// benchmark that started it exits for any reason, so no daemon
/// outlives its benchmark.
pub fn serve(listen: String, journal_dir: Option<PathBuf>) -> Result<(), String> {
    let server = DbpServer::start(ServerConfig {
        listen,
        journal_dir,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("daemon failed to start: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    drop(out);
    let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
    server.stop();
    Ok(())
}

/// A running daemon child. Dropping it SIGKILLs the process and waits
/// for it; if the benchmark dies first, the daemon sees its standard
/// input close and exits.
pub struct Daemon {
    child: Child,
    /// The daemon's wire address.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `exe daemon` on a free loopback port (recovering every
    /// journaled tenant under `journal_dir` first) and returns once it
    /// has printed its address — that is, once it accepts connections.
    pub fn spawn(exe: &Path, journal_dir: Option<&Path>) -> Result<Daemon, String> {
        let mut command = Command::new(exe);
        command.args(["daemon", "--listen", "127.0.0.1:0"]);
        if let Some(dir) = journal_dir {
            command.arg("--journal-dir").arg(dir);
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon `{}`: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let addr = BufReader::new(stdout)
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().parse().ok());
        match addr {
            Some(addr) => Ok(Daemon { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("the daemon printed no address (got {line:?})"))
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Runs `f` with the daemon stopped (`SIGSTOP` … `SIGCONT`), so that
    /// nothing the daemon does in the background can run meanwhile.
    pub fn paused<T>(&self, f: impl FnOnce() -> T) -> Result<T, String> {
        self.signal(SIGSTOP)?;
        let value = f();
        self.signal(SIGCONT)?;
        Ok(value)
    }

    fn signal(&self, sig: i32) -> Result<(), String> {
        // SAFETY: kill(2) takes two integers and touches no memory of
        // ours; the pid is our child's, which cannot have been reused
        // because `self.child` has not been waited for yet.
        let rc = unsafe { kill(self.child.id() as i32, sig) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!(
                "cannot signal the daemon: {}",
                std::io::Error::last_os_error()
            ))
        }
    }
}

extern "C" {
    // glibc's wrapper for kill(2); std already links libc.
    fn kill(pid: i32, sig: i32) -> i32;
}

// Linux signal numbers on x86 and Arm.
const SIGCONT: i32 = 18;
const SIGSTOP: i32 = 19;

impl Drop for Daemon {
    fn drop(&mut self) {
        // SIGKILL: from the tenants' point of view this is a crash,
        // which is exactly what the recovery phase needs.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mib(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path)
        .map_err(|e| format!("cannot read {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {status_path}"))
}
