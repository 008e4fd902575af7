//! The allocation daemon: accept loop, connection handling, tenant
//! registry, and the merged exposition page.
//!
//! The accept loop blocks in `accept` and checks a stop flag after
//! each connection; stopping the server sets the flag and makes one
//! loopback connection to the bound address to wake it.
//! Every accepted connection gets its own thread speaking the
//! length-prefixed [`dbp_proto`] protocol. Connections are stateless
//! beyond "which tenant am I attached to": all tenant state lives in
//! the shared registry, so many connections can drive one tenant and
//! a restarted server rebuilds everything from journals.

use crate::quota::Quotas;
use crate::span::{Phase, RequestSpan, SlowRequest, SlowRing};
use crate::tenant::Tenant;
use crate::ServerError;
use dbp_obs::{MetricsRegistry, MetricsServer};
use dbp_proto::{
    fast, read_frame_raw, write_frame_bytes, ErrorKind, RawFrame, Request, Response, WireError,
};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Who may attach tenants (and stop the server).
#[derive(Debug, Clone, Default)]
pub enum TokenPolicy {
    /// No authentication: any hello is accepted. For loopback
    /// benchmarking and tests.
    #[default]
    Open,
    /// One shared secret for every tenant.
    Shared(String),
    /// A token per tenant key; tenants without an entry are refused.
    PerTenant(HashMap<String, String>),
}

impl TokenPolicy {
    fn check(&self, tenant: &str, token: Option<&str>) -> Result<(), WireError> {
        let expected = match self {
            TokenPolicy::Open => return Ok(()),
            TokenPolicy::Shared(secret) => Some(secret.as_str()),
            TokenPolicy::PerTenant(map) => map.get(tenant).map(String::as_str),
        };
        match (expected, token) {
            (Some(want), Some(got)) if want == got => Ok(()),
            (None, _) => Err(WireError::new(
                ErrorKind::Auth,
                format!("tenant `{tenant}` is not provisioned"),
            )),
            _ => Err(WireError::new(
                ErrorKind::Auth,
                format!("bad or missing token for tenant `{tenant}`"),
            )),
        }
    }

    /// Shutdown uses the same policy: open servers stop on request,
    /// shared-secret servers require the secret, per-tenant servers
    /// accept any provisioned tenant's token.
    fn check_shutdown(&self, token: Option<&str>) -> Result<(), WireError> {
        match self {
            TokenPolicy::Open => Ok(()),
            TokenPolicy::Shared(secret) => match token {
                Some(got) if got == secret => Ok(()),
                _ => Err(WireError::new(
                    ErrorKind::Auth,
                    "bad or missing shutdown token",
                )),
            },
            TokenPolicy::PerTenant(map) => match token {
                Some(got) if map.values().any(|t| t == got) => Ok(()),
                _ => Err(WireError::new(
                    ErrorKind::Auth,
                    "bad or missing shutdown token",
                )),
            },
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Wire-protocol listen address (port 0 picks a free port).
    pub listen: String,
    /// OpenMetrics scrape address; `None` disables the page.
    pub metrics: Option<String>,
    /// Authentication policy.
    pub auth: TokenPolicy,
    /// Quotas applied to every tenant.
    pub quotas: Quotas,
    /// Journal directory; `None` disables durability (journal files,
    /// engine-state checkpoints and crash recovery) server-wide.
    /// Snapshots do not depend on it: a single-session tenant whose
    /// hello asks for journaling answers `snapshot` from its journal
    /// file, or, without a directory, from its session's checkpoint
    /// log.
    pub journal_dir: Option<PathBuf>,
    /// Rebuild the exposition page every this many accepted events
    /// (hellos, finishes, and metrics requests always rebuild).
    pub publish_every: u64,
    /// Record placement requests slower than this many milliseconds in
    /// the slow-request ring (`0` records everything). `None` leaves
    /// the ring off unless `trace_out` turns it on.
    pub slow_ms: Option<u64>,
    /// Where to dump the slow-request ring on shutdown: JSONL at this
    /// path, plus a Chrome trace next to it (`.chrome.json`). Setting
    /// this enables the ring even without `slow_ms`.
    pub trace_out: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            metrics: None,
            auth: TokenPolicy::Open,
            quotas: Quotas::unlimited(),
            journal_dir: None,
            publish_every: 8192,
            slow_ms: None,
            trace_out: None,
        }
    }
}

/// Shared server state: the tenant registry plus exposition counters.
struct Shared {
    config: ServerConfig,
    /// The bound wire address, which [`wake`] connects to.
    addr: std::net::SocketAddr,
    tenants: Mutex<HashMap<String, Arc<Mutex<Option<Tenant>>>>>,
    stop: AtomicBool,
    /// Live client connections, so `stop` can unblock their reads.
    conns: Mutex<Vec<TcpStream>>,
    /// Exposition page (shared with the `MetricsServer` thread).
    page: Option<Arc<Mutex<MetricsRegistry>>>,
    /// When the server started — the zero point of the slow-request
    /// (and Chrome) timeline.
    origin: Instant,
    /// The slow-request ring, when `slow_ms` / `trace_out` enabled it.
    slow: Option<Mutex<SlowRing>>,
    // Server-wide counters for the page.
    connections_total: AtomicU64,
    frames_total: AtomicU64,
    events_total: AtomicU64,
    errors_total: AtomicU64,
    since_publish: AtomicU64,
}

impl Shared {
    /// Builds the exposition page from scratch: server counters,
    /// per-tenant prefixed registries, and the un-prefixed lawful
    /// merge of every tenant's registry.
    fn build_page(&self) -> MetricsRegistry {
        let mut fresh = MetricsRegistry::new();
        // The renderer suffixes counter samples with `_total` itself.
        fresh.inc_by(
            "server_connections",
            self.connections_total.load(Ordering::Relaxed),
        );
        fresh.inc_by("server_frames", self.frames_total.load(Ordering::Relaxed));
        fresh.inc_by("server_events", self.events_total.load(Ordering::Relaxed));
        fresh.inc_by("server_errors", self.errors_total.load(Ordering::Relaxed));
        let tenants = self.tenants.lock().unwrap();
        fresh.set_gauge("server_tenants", tenants.len() as f64);
        for (name, slot) in tenants.iter() {
            let guard = slot.lock().unwrap();
            let Some(tenant) = guard.as_ref() else {
                continue;
            };
            let registry = tenant.registry();
            fresh.merge_prefixed(&tenant_prefix(name), &registry);
            fresh.merge(&registry);
        }
        drop(tenants);
        fresh
    }

    /// Rebuilds the shared page the scrape listener serves.
    fn publish(&self) {
        let Some(page) = &self.page else { return };
        let fresh = self.build_page();
        *page.lock().unwrap() = fresh;
    }

    fn count_events(&self, n: u64) {
        self.events_total.fetch_add(n, Ordering::Relaxed);
        let since = self.since_publish.fetch_add(n, Ordering::Relaxed) + n;
        if since >= self.config.publish_every {
            self.since_publish.store(0, Ordering::Relaxed);
            self.publish();
        }
    }
}

/// `tenant_<sanitized>_` — the per-tenant namespace on the page.
fn tenant_prefix(name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("tenant_{safe}_")
}

/// A running allocation daemon.
pub struct DbpServer {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    metrics_addr: Option<std::net::SocketAddr>,
    accept_handle: Option<JoinHandle<()>>,
    metrics_server: Option<MetricsServer>,
    trace_dumped: bool,
}

impl DbpServer {
    /// Binds the wire and scrape listeners, recovers every journaled
    /// tenant from `config.journal_dir`, and starts serving.
    pub fn start(config: ServerConfig) -> Result<DbpServer, ServerError> {
        let listener = TcpListener::bind(&config.listen).map_err(ServerError::Io)?;
        let addr = listener.local_addr().map_err(ServerError::Io)?;

        let metrics_server = match &config.metrics {
            Some(addr) => Some(MetricsServer::start(addr.as_str()).map_err(ServerError::Io)?),
            None => None,
        };
        let metrics_addr = metrics_server.as_ref().map(MetricsServer::local_addr);
        let page = metrics_server.as_ref().map(|s| Arc::clone(s.registry()));

        // Crash recovery: rebuild every journaled tenant before the
        // first connection can attach.
        let mut tenants: HashMap<String, Arc<Mutex<Option<Tenant>>>> = HashMap::new();
        if let Some(dir) = &config.journal_dir {
            for tenant in Tenant::recover_all(dir, config.quotas)? {
                tenants.insert(
                    tenant.name().to_string(),
                    Arc::new(Mutex::new(Some(tenant))),
                );
            }
        }

        // The slow ring runs whenever a threshold or a dump path asks
        // for it; `--slow-ms 0` (or a bare `--trace-out`) records every
        // placement, bounded by the ring capacity.
        let slow = (config.slow_ms.is_some() || config.trace_out.is_some()).then(|| {
            Mutex::new(SlowRing::new(Duration::from_millis(
                config.slow_ms.unwrap_or(0),
            )))
        });
        let shared = Arc::new(Shared {
            config,
            addr,
            tenants: Mutex::new(tenants),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            page,
            origin: Instant::now(),
            slow,
            connections_total: AtomicU64::new(0),
            frames_total: AtomicU64::new(0),
            events_total: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            since_publish: AtomicU64::new(0),
        });
        shared.publish();

        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("dbp-server-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(ServerError::Io)?;

        Ok(DbpServer {
            shared,
            addr,
            metrics_addr,
            accept_handle: Some(accept_handle),
            metrics_server,
            trace_dumped: false,
        })
    }

    /// The bound wire address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The bound scrape address, when metrics are enabled.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_addr
    }

    /// A fresh copy of the merged exposition page, rebuilt now —
    /// available whether or not a scrape listener is running, so
    /// in-process harnesses (loadgen, tests) can read
    /// `tenant_<name>_request_latency_us` and friends without HTTP.
    pub fn registry_snapshot(&self) -> MetricsRegistry {
        self.shared.build_page()
    }

    /// Stops the daemon: closes the listener, severs every client
    /// connection, and joins the accept thread. Tenant journals stay
    /// on disk — from a client's perspective this *is* a crash, and a
    /// restarted server resumes every journaled tenant verbatim.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Blocks until the daemon stops on its own — a wire `shutdown`
    /// frame — then runs the same cleanup as [`DbpServer::stop`].
    /// This is how `mindbp serve` parks its main thread.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        self.shutdown();
    }

    fn shutdown(&mut self) {
        stop(&self.shared);
        for conn in self.shared.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(server) = self.metrics_server.take() {
            server.stop();
        }
        self.dump_slow_ring();
    }

    /// Writes the slow-request ring to `trace_out` (JSONL) and its
    /// `.chrome.json` sibling (chrome://tracing / Perfetto). Runs once,
    /// after every connection thread has joined; best-effort on I/O.
    fn dump_slow_ring(&mut self) {
        if self.trace_dumped {
            return;
        }
        self.trace_dumped = true;
        let Some(path) = &self.shared.config.trace_out else {
            return;
        };
        let Some(ring) = &self.shared.slow else {
            return;
        };
        let ring = ring.lock().unwrap();
        let chrome =
            serde_json::to_string(&ring.chrome_trace()).expect("slow-ring chrome traces serialize");
        let _ = std::fs::write(path, ring.to_jsonl());
        let _ = std::fs::write(path.with_extension("chrome.json"), chrome);
    }
}

impl Drop for DbpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sets the stop flag and wakes the accept loop, which may be blocked
/// in `accept`, with one connection to the bound address (the loopback
/// one, when the listener is bound to every interface). The loop sees
/// the flag once that connection, or any other, arrives. Idempotent.
fn stop(shared: &Shared) {
    if shared.stop.swap(true, Ordering::SeqCst) {
        return;
    }
    let mut addr = shared.addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            std::net::SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            std::net::SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                // The connection ordinal doubles as the Chrome track id
                // for this connection's slow-request spans.
                let conn = shared.connections_total.fetch_add(1, Ordering::Relaxed) + 1;
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().unwrap().push(clone);
                }
                let conn_shared = Arc::clone(&shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("dbp-server-conn".into())
                    .spawn(move || {
                        let _ = serve_connection(stream, conn_shared, conn);
                    })
                {
                    workers.push(handle);
                }
                workers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Sever live connections so workers blocked in a read unblock
    // (wire-initiated shutdowns reach here with clients still parked).
    for conn in shared.conns.lock().unwrap().drain(..) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    for handle in workers {
        let _ = handle.join();
    }
}

// Serializes `response` into `out`, echoing the request's `trace` id
// when there is one. Placement answers take the canonical fast
// writers, and so do finish outcomes, whose frame grows with the
// tenant's history and whose `Value` tree would take several times
// the frame's size in heap; the other cold frames go through the
// generic codec.
fn encode_response(out: &mut Vec<u8>, response: &Response, trace: Option<u64>) {
    out.clear();
    match response {
        Response::Bin(bin) => fast::write_bin_response_traced(out, *bin, trace),
        Response::Bins(bins) => fast::write_bins_response_traced(out, bins, trace),
        Response::Outcomes(outcomes) => fast::write_outcomes_response_traced(out, outcomes, trace),
        _ => {
            let payload = serde_json::value_to_string(&response.to_traced_value(trace));
            out.extend_from_slice(payload.as_bytes());
        }
    }
}

// Encode + frame + flush, for responses outside the timed placement
// path. `out` is reused across frames.
fn send(
    w: &mut impl Write,
    out: &mut Vec<u8>,
    response: &Response,
    trace: Option<u64>,
) -> io::Result<()> {
    encode_response(out, response, trace);
    write_frame_bytes(w, out)?;
    w.flush()
}

/// One decoded request frame, with its optional `trace` id and how
/// long the payload took to parse (the span's Decode phase — socket
/// wait excluded, which is the client's time, not ours).
struct TracedRequest {
    request: Request,
    trace: Option<u64>,
    decode_ns: u64,
}

enum ReadOutcome {
    Eof,
    Malformed(String),
    Frame(TracedRequest),
}

// One request frame: canonical placement frames parse on the fast
// path, everything else falls back to the generic codec. Both paths
// surface the frame's `trace` id — tracing is per-frame and needs no
// negotiation, so a client may start (or stop) sending ids anytime.
fn read_request(r: &mut impl io::BufRead, scratch: &mut Vec<u8>) -> io::Result<ReadOutcome> {
    match read_frame_raw(r, scratch)? {
        RawFrame::Eof => Ok(ReadOutcome::Eof),
        RawFrame::Payload => {
            let t = Instant::now();
            let parsed = match fast::parse_request_traced(scratch) {
                Some(traced) => Ok(traced),
                None => match std::str::from_utf8(scratch) {
                    Ok(text) => match serde_json::parse(text) {
                        Ok(value) => Request::from_traced_value(&value).map_err(|e| e.to_string()),
                        Err(e) => Err(format!("frame is not JSON: {e}")),
                    },
                    Err(e) => Err(format!("frame is not UTF-8: {e}")),
                },
            };
            let decode_ns = t.elapsed().as_nanos() as u64;
            Ok(match parsed {
                Ok((request, trace)) => ReadOutcome::Frame(TracedRequest {
                    request,
                    trace,
                    decode_ns,
                }),
                Err(e) => ReadOutcome::Malformed(e),
            })
        }
    }
}

// Closes a placement span: encodes the response under the Encode
// phase, folds the span into the tenant's wire stats, and offers it
// to the slow ring. Returns whether the response is an error frame.
fn finish_placement(
    shared: &Shared,
    tenant_name: &str,
    conn: u64,
    guard: &mut Option<Tenant>,
    mut span: RequestSpan,
    response: &Response,
    out: &mut Vec<u8>,
) -> bool {
    let trace = span.trace;
    span.time(Phase::Encode, || encode_response(out, response, trace));
    let total = span.finish();
    let slow = match &shared.slow {
        Some(ring) => total >= ring.lock().unwrap().threshold_ns(),
        None => false,
    };
    if let Some(tenant) = guard.as_mut() {
        tenant.record_request(&span, total, slow);
    }
    if slow {
        if let Some(ring) = &shared.slow {
            let entry = SlowRequest::from_span(&span, tenant_name, conn, shared.origin);
            ring.lock().unwrap().offer(entry);
        }
    }
    matches!(response, Response::Error(_))
}

/// One connection's lifecycle: hello, then a request/response loop
/// against the attached tenant. `conn` is the connection ordinal
/// (slow-request Chrome track id).
fn serve_connection(stream: TcpStream, shared: Arc<Shared>, conn: u64) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(1 << 16, stream);
    let mut scratch: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();

    // Hello first. Protocol violations before attach get one typed
    // error and the connection closes. A traced hello gets its id
    // echoed like any other frame.
    let (hello, hello_trace) = match read_request(&mut reader, &mut scratch)? {
        ReadOutcome::Eof => return Ok(()),
        ReadOutcome::Malformed(e) => {
            shared.errors_total.fetch_add(1, Ordering::Relaxed);
            send(
                &mut writer,
                &mut out,
                &Response::Error(WireError::new(ErrorKind::Protocol, e)),
                None,
            )?;
            return Ok(());
        }
        ReadOutcome::Frame(TracedRequest {
            request: Request::Hello(hello),
            trace,
            ..
        }) => (hello, trace),
        ReadOutcome::Frame(TracedRequest {
            request: Request::Shutdown { token },
            trace,
            ..
        }) => {
            return handle_shutdown(&mut writer, &mut out, &shared, token.as_deref(), trace);
        }
        ReadOutcome::Frame(TracedRequest { trace, .. }) => {
            shared.errors_total.fetch_add(1, Ordering::Relaxed);
            send(
                &mut writer,
                &mut out,
                &Response::Error(WireError::new(
                    ErrorKind::Protocol,
                    "first frame must be `hello`",
                )),
                trace,
            )?;
            return Ok(());
        }
    };
    shared.frames_total.fetch_add(1, Ordering::Relaxed);

    if let Err(e) = shared
        .config
        .auth
        .check(&hello.tenant, hello.token.as_deref())
    {
        shared.errors_total.fetch_add(1, Ordering::Relaxed);
        send(&mut writer, &mut out, &Response::Error(e), hello_trace)?;
        return Ok(());
    }

    // Attach: reuse the live tenant or create one. The per-tenant slot
    // is created under the registry lock; the (possibly slow) session
    // build happens under the slot lock only.
    let slot = {
        let mut tenants = shared.tenants.lock().unwrap();
        Arc::clone(
            tenants
                .entry(hello.tenant.clone())
                .or_insert_with(|| Arc::new(Mutex::new(None))),
        )
    };
    {
        let mut guard = slot.lock().unwrap();
        if guard.is_none() {
            match Tenant::create(
                &hello,
                shared.config.quotas,
                shared.config.journal_dir.as_deref(),
            ) {
                Ok(tenant) => *guard = Some(tenant),
                Err(e) => {
                    // The empty slot stays in the map: it publishes
                    // nothing and a corrected hello reuses it.
                    drop(guard);
                    shared.errors_total.fetch_add(1, Ordering::Relaxed);
                    send(
                        &mut writer,
                        &mut out,
                        &Response::Error(e.into_wire()),
                        hello_trace,
                    )?;
                    return Ok(());
                }
            }
        }
        let resumed = guard.as_ref().map(Tenant::accepted).unwrap_or(0);
        send(
            &mut writer,
            &mut out,
            &Response::Hello {
                tenant: hello.tenant.clone(),
                resumed_events: resumed,
            },
            hello_trace,
        )?;
    }
    shared.publish();

    // Steady state.
    loop {
        let TracedRequest {
            request,
            trace,
            decode_ns,
        } = match read_request(&mut reader, &mut scratch) {
            Ok(ReadOutcome::Eof) => return Ok(()),
            Ok(ReadOutcome::Frame(traced)) => traced,
            Ok(ReadOutcome::Malformed(e)) => {
                shared.errors_total.fetch_add(1, Ordering::Relaxed);
                send(
                    &mut writer,
                    &mut out,
                    &Response::Error(WireError::new(ErrorKind::Protocol, e)),
                    None,
                )?;
                continue;
            }
            Err(e) => {
                // Transport damage or severed socket: nothing more to
                // say on this connection.
                return Err(e);
            }
        };
        shared.frames_total.fetch_add(1, Ordering::Relaxed);

        let response = match request {
            Request::Hello(_) => Response::Error(WireError::new(
                ErrorKind::Protocol,
                "connection is already attached to a tenant",
            )),
            // Placement requests are timed end to end: the tenant
            // charges Quota/Apply/Journal to the span, encoding runs
            // under the guard so the span covers it, and only the
            // socket write falls outside the measured window.
            Request::Event(event) => {
                let mut span = RequestSpan::new("event", 1, trace, decode_ns);
                let mut guard = slot.lock().unwrap();
                let response = match guard.as_mut() {
                    Some(tenant) => match tenant.apply(&event, &mut span) {
                        Ok(bin) => Response::Bin(bin),
                        Err(e) => Response::Error(e.into_wire()),
                    },
                    None => Response::Error(gone(&hello.tenant)),
                };
                let failed = finish_placement(
                    &shared,
                    &hello.tenant,
                    conn,
                    &mut guard,
                    span,
                    &response,
                    &mut out,
                );
                drop(guard);
                if failed {
                    shared.errors_total.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.count_events(1);
                }
                write_frame_bytes(&mut writer, &out)?;
                writer.flush()?;
                continue;
            }
            Request::Batch(events) => {
                let mut span = RequestSpan::new("batch", events.len() as u64, trace, decode_ns);
                let mut guard = slot.lock().unwrap();
                let response = match guard.as_mut() {
                    Some(tenant) => match tenant.batch(&events, &mut span) {
                        Ok(bins) => Response::Bins(bins),
                        Err(e) => Response::Error(e.into_wire()),
                    },
                    None => Response::Error(gone(&hello.tenant)),
                };
                let failed = finish_placement(
                    &shared,
                    &hello.tenant,
                    conn,
                    &mut guard,
                    span,
                    &response,
                    &mut out,
                );
                drop(guard);
                if failed {
                    shared.errors_total.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.count_events(events.len() as u64);
                }
                write_frame_bytes(&mut writer, &out)?;
                writer.flush()?;
                continue;
            }
            Request::Snapshot => {
                let guard = slot.lock().unwrap();
                match guard.as_ref() {
                    Some(tenant) => match tenant.snapshot() {
                        Ok(snapshot) => Response::Snapshot(snapshot),
                        Err(e) => Response::Error(e),
                    },
                    None => Response::Error(gone(&hello.tenant)),
                }
            }
            Request::Metrics => {
                let guard = slot.lock().unwrap();
                let response = match guard.as_ref() {
                    Some(tenant) => Response::Metrics(Box::new(tenant.metrics())),
                    None => Response::Error(gone(&hello.tenant)),
                };
                drop(guard);
                shared.publish();
                response
            }
            Request::Finish => {
                let mut guard = slot.lock().unwrap();
                match guard.take() {
                    Some(tenant) => match tenant.finish() {
                        Ok(outcomes) => {
                            drop(guard);
                            shared.tenants.lock().unwrap().remove(&hello.tenant);
                            shared.publish();
                            Response::Outcomes(outcomes)
                        }
                        Err((tenant, e)) => {
                            *guard = Some(*tenant);
                            Response::Error(e)
                        }
                    },
                    None => Response::Error(gone(&hello.tenant)),
                }
            }
            Request::Shutdown { token } => {
                return handle_shutdown(&mut writer, &mut out, &shared, token.as_deref(), trace);
            }
        };
        if matches!(response, Response::Error(_)) {
            shared.errors_total.fetch_add(1, Ordering::Relaxed);
        }
        send(&mut writer, &mut out, &response, trace)?;
    }
}

fn gone(tenant: &str) -> WireError {
    WireError::new(
        ErrorKind::Unavailable,
        format!("tenant `{tenant}` has finished; say hello again to restart it"),
    )
}

fn handle_shutdown(
    writer: &mut impl Write,
    out: &mut Vec<u8>,
    shared: &Arc<Shared>,
    token: Option<&str>,
    trace: Option<u64>,
) -> io::Result<()> {
    match shared.config.auth.check_shutdown(token) {
        Ok(()) => {
            send(writer, out, &Response::Shutdown, trace)?;
            stop(shared);
            Ok(())
        }
        Err(e) => {
            shared.errors_total.fetch_add(1, Ordering::Relaxed);
            send(writer, out, &Response::Error(e), trace)
        }
    }
}
