//! Host-speed probes that timed values are expressed against.
//!
//! How fast a small shared VM runs changes by a quarter or more within a
//! minute, with the load its neighbours put on the machine's caches,
//! memory and kernel; no run length averages that out (see the README).
//! So the benchmark times a fixed piece of work, which none of the
//! repository's code runs, before and after every piece of timed work,
//! and divides the timing by how much slower than nominal the probe ran
//! around it (the mean of the two samples):
//!
//! - **echo**: 64-byte messages bounced over loopback TCP between two
//!   threads — the kernel and scheduler work of a socket round trip,
//!   for the socket-bound single-event workloads and daemon start-up;
//! - **sort**: sorting a fixed array of pseudo-random keys, three times
//!   — cache- and memory-bound computation, for batch serving, replay,
//!   compile, recovery and the in-process layer pass.
//!
//! A scaled timing reads as measured whenever the probe takes exactly
//! its nominal time. No change to the repository can move a probe, so a
//! change shows in the scaled value in full.

use crate::daemon::Daemon;
use crate::stats::{median, quantile};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Echo round trips per sample; the sample is their median.
const ECHO_TRIPS: usize = 300;

/// Nominal echo round trip, nanoseconds.
const ECHO_NOMINAL_NS: f64 = 10_000.0;

/// Keys the sort probe sorts.
const SORT_KEYS: usize = 200_000;

/// Sorts per sample; the sample is their median.
const SORTS: usize = 3;

/// Nominal sort time, nanoseconds.
const SORT_NOMINAL_NS: f64 = 5_000_000.0;

const MESSAGE: usize = 64;

/// Which probe a timing is scaled by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Loopback socket round trips.
    Echo,
    /// Sorting a fixed array.
    Sort,
}

/// Both probes, with every sample taken.
pub struct Gauge {
    stream: TcpStream,
    echoer: Option<JoinHandle<()>>,
    trips: Vec<u64>,
    keys: Vec<u64>,
    scratch: Vec<u64>,
    echo: Vec<f64>,
    sort: Vec<f64>,
}

impl Gauge {
    /// Connects a fresh echo thread over loopback and lays out the keys
    /// (the same keys in every run).
    pub fn start() -> Result<Gauge, String> {
        let io = |e: std::io::Error| format!("echo probe: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let addr = listener.local_addr().map_err(io)?;
        let echoer = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut message = [0u8; MESSAGE];
            while peer.read_exact(&mut message).is_ok() && peer.write_all(&message).is_ok() {}
        });
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let keys = (0..SORT_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Ok(Gauge {
            stream,
            echoer: Some(echoer),
            trips: Vec::with_capacity(ECHO_TRIPS),
            keys,
            scratch: Vec::with_capacity(SORT_KEYS),
            echo: Vec::new(),
            sort: Vec::new(),
        })
    }

    /// How much slower than nominal `probe` runs now (measured over
    /// nominal), sampled with `daemon` (if any) stopped so that nothing
    /// it does in the background runs meanwhile.
    pub fn sample(&mut self, probe: Probe, daemon: Option<&Daemon>) -> Result<f64, String> {
        let ns = match daemon {
            Some(daemon) => daemon.paused(|| self.time(probe))??,
            None => self.time(probe)?,
        };
        let (samples, nominal) = match probe {
            Probe::Echo => (&mut self.echo, ECHO_NOMINAL_NS),
            Probe::Sort => (&mut self.sort, SORT_NOMINAL_NS),
        };
        samples.push(ns);
        Ok(ns / nominal)
    }

    fn time(&mut self, probe: Probe) -> Result<f64, String> {
        match probe {
            Probe::Echo => {
                let mut message = [7u8; MESSAGE];
                self.trips.clear();
                for _ in 0..ECHO_TRIPS {
                    let start = Instant::now();
                    self.stream
                        .write_all(&message)
                        .and_then(|()| self.stream.read_exact(&mut message))
                        .map_err(|e| format!("echo probe: {e}"))?;
                    self.trips.push(start.elapsed().as_nanos() as u64);
                }
                self.trips.sort_unstable();
                Ok(quantile(&self.trips, 500) as f64)
            }
            Probe::Sort => {
                let mut ns = [0.0; SORTS];
                for ns in &mut ns {
                    self.scratch.clear();
                    self.scratch.extend_from_slice(&self.keys);
                    let start = Instant::now();
                    self.scratch.sort_unstable();
                    *ns = start.elapsed().as_nanos() as f64;
                    std::hint::black_box(&self.scratch);
                }
                Ok(median(&ns))
            }
        }
    }

    /// The median echo round trip in microseconds, as measured.
    pub fn echo_p50_us(&self) -> Option<f64> {
        (!self.echo.is_empty()).then(|| median(&self.echo) / 1e3)
    }

    /// The probes' medians over the run, as a note.
    pub fn note(&self) -> String {
        let at = |samples: &[f64], nominal: f64, unit: f64, name: &str, unit_name: &str| {
            if samples.is_empty() {
                return String::new();
            }
            format!(
                "{name} {:.3} {unit_name} (nominal {:.0}, {} samples) ",
                median(samples) / unit,
                nominal / unit,
                samples.len()
            )
        };
        format!(
            "host speed, probe medians: {}{}",
            at(&self.echo, ECHO_NOMINAL_NS, 1e3, "echo", "us"),
            at(&self.sort, SORT_NOMINAL_NS, 1e6, "sort", "ms")
        )
        .trim_end()
        .to_string()
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        // Closing our end ends the echo thread's read loop.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(echoer) = self.echoer.take() {
            let _ = echoer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_sample_positive_slowdowns() {
        let mut gauge = Gauge::start().unwrap();
        for probe in [Probe::Echo, Probe::Sort, Probe::Echo] {
            assert!(gauge.sample(probe, None).unwrap() > 0.0);
        }
        assert_eq!((gauge.echo.len(), gauge.sort.len()), (2, 1));
        assert!(gauge.echo_p50_us().unwrap() > 0.0);
        assert!(gauge.note().contains("echo") && gauge.note().contains("sort"));
    }
}
