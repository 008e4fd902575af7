//! The allocation daemon: accept loop, connection handling, tenant
//! registry, and the merged exposition page.
//!
//! The accept loop blocks in `accept` and checks a stop flag after
//! each connection; stopping the server sets the flag and makes one
//! loopback connection to the bound address to wake it.
//! Every accepted connection gets its own thread speaking the
//! length-prefixed [`dbp_proto`] protocol. The accept loop owns the
//! socket; the handler ([`DbpServer::serve_connection`]) only sees a
//! `BufRead` and a `Write`, so it runs just as well over in-memory
//! bytes. Connections are stateless beyond "which tenant am I attached
//! to": all tenant state lives in the shared registry, so many
//! connections can drive one tenant and a restarted server rebuilds
//! everything from journals.

use crate::quota::Quotas;
use crate::span::{Phase, RequestSpan, SlowRequest, SlowRing};
use crate::tenant::Tenant;
use crate::ServerError;
use dbp_obs::{MetricsRegistry, MetricsServer};
use dbp_proto::{
    decode_request, encode_response, read_frame_raw, write_frame_bytes, ErrorKind, Event, RawFrame,
    Request, Response, WireError,
};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
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
    /// Snapshots do not depend on it: a tenant whose hello asks for
    /// journaling answers `snapshot` from its journal file, or, without
    /// a directory, from its session's checkpoint log.
    pub journal_dir: Option<PathBuf>,
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
            slow_ms: None,
            trace_out: None,
        }
    }
}

/// The exposition page is rebuilt every this many accepted events
/// (hellos, finishes, and metrics requests always rebuild it).
const PUBLISH_EVERY: u64 = 8192;

/// Shared server state: the tenant registry plus exposition counters.
struct Shared {
    config: ServerConfig,
    /// The bound wire address, which [`wake`] connects to.
    addr: std::net::SocketAddr,
    tenants: Mutex<HashMap<String, Arc<Mutex<Option<Tenant>>>>>,
    stop: AtomicBool,
    /// A clone of each live client socket, keyed by connection
    /// ordinal, so `stop` can unblock their reads. A handler's entry
    /// goes when it returns, which closes the socket.
    conns: Mutex<HashMap<u64, TcpStream>>,
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
        if since >= PUBLISH_EVERY {
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
            conns: Mutex::new(HashMap::new()),
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

    /// Serves one connection over `reader` and `writer` on the calling
    /// thread, exactly as each accepted socket is served, and returns
    /// once the peer's bytes end, their framing breaks, or the
    /// connection is refused or closed by the protocol. In-process
    /// harnesses can feed it any byte sequence. It counts in
    /// `server_connections_total` like an accepted socket.
    pub fn serve_connection(&self, reader: impl BufRead, writer: impl Write) -> io::Result<()> {
        let conn = self
            .shared
            .connections_total
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        serve_connection(reader, writer, &self.shared, conn)
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
        sever(&self.shared);
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
                // for this connection's slow-request spans, and keys
                // the socket's clone in `conns` until its handler ends.
                let conn = shared.connections_total.fetch_add(1, Ordering::Relaxed) + 1;
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().unwrap().insert(conn, clone);
                }
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("dbp-server-conn".into())
                    .spawn(move || {
                        if stream.set_nodelay(true).is_ok() {
                            let reader = BufReader::with_capacity(1 << 16, &stream);
                            let writer = BufWriter::with_capacity(1 << 16, &stream);
                            let _ = serve_connection(reader, writer, &conn_shared, conn);
                        }
                        conn_shared.conns.lock().unwrap().remove(&conn);
                    });
                match spawned {
                    Ok(handle) => workers.push(handle),
                    Err(_) => drop(shared.conns.lock().unwrap().remove(&conn)),
                }
                workers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Sever live connections so workers blocked in a read unblock
    // (wire-initiated shutdowns reach here with clients still parked).
    sever(&shared);
    for handle in workers {
        let _ = handle.join();
    }
}

/// Shuts down every live client socket, so handlers blocked in a read
/// return.
fn sever(shared: &Shared) {
    for (_, conn) in shared.conns.lock().unwrap().drain() {
        let _ = conn.shutdown(std::net::Shutdown::Both);
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
    out.clear();
    encode_response(out, response, trace);
    write_frame_bytes(w, out)?;
    w.flush()
}

/// One request frame read off the connection.
enum ReadOutcome {
    Eof,
    Malformed(String),
    /// A decoded frame, its optional `trace` id, and how long the
    /// payload took to decode (the span's Decode phase — socket wait
    /// excluded, which is the client's time, not ours).
    Frame {
        request: Request,
        trace: Option<u64>,
        decode_ns: u64,
    },
}

// Tracing is per-frame and needs no negotiation, so a client may start
// (or stop) sending `trace` ids anytime.
fn read_request(r: &mut impl BufRead, scratch: &mut Vec<u8>) -> io::Result<ReadOutcome> {
    Ok(match read_frame_raw(r, scratch)? {
        RawFrame::Eof => ReadOutcome::Eof,
        RawFrame::Payload => {
            let t = Instant::now();
            let decoded = decode_request(scratch);
            let decode_ns = t.elapsed().as_nanos() as u64;
            match decoded {
                Ok((request, trace)) => ReadOutcome::Frame {
                    request,
                    trace,
                    decode_ns,
                },
                Err(e) => ReadOutcome::Malformed(e),
            }
        }
    })
}

/// The events a placement frame carries: one for an event frame, the
/// batch for a batch frame, none for any other frame.
fn placement_events(request: &Request) -> &[Event] {
    match request {
        Request::Event(event) => std::slice::from_ref(event),
        Request::Batch(events) => events,
        _ => &[],
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
    out.clear();
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
fn serve_connection(
    mut reader: impl BufRead,
    mut writer: impl Write,
    shared: &Shared,
    conn: u64,
) -> io::Result<()> {
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
        ReadOutcome::Frame {
            request: Request::Hello(hello),
            trace,
            ..
        } => (hello, trace),
        ReadOutcome::Frame {
            request: Request::Shutdown { token },
            trace,
            ..
        } => {
            return handle_shutdown(&mut writer, &mut out, shared, token.as_deref(), trace);
        }
        ReadOutcome::Frame { trace, .. } => {
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
                    drop(guard);
                    drop(slot);
                    forget_empty_slot(shared, &hello.tenant);
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
        let (request, trace, decode_ns) = match read_request(&mut reader, &mut scratch)? {
            ReadOutcome::Eof => return Ok(()),
            ReadOutcome::Frame {
                request,
                trace,
                decode_ns,
            } => (request, trace, decode_ns),
            ReadOutcome::Malformed(e) => {
                shared.errors_total.fetch_add(1, Ordering::Relaxed);
                send(
                    &mut writer,
                    &mut out,
                    &Response::Error(WireError::new(ErrorKind::Protocol, e)),
                    None,
                )?;
                continue;
            }
        };
        shared.frames_total.fetch_add(1, Ordering::Relaxed);

        let response = match &request {
            Request::Hello(_) => Response::Error(WireError::new(
                ErrorKind::Protocol,
                "connection is already attached to a tenant",
            )),
            // Placement frames, one event or a batch, take one path:
            // the tenant applies them as a batch and charges
            // Quota/Apply/Journal to the span, encoding runs under the
            // guard so the span covers it, and only the socket write
            // falls outside the measured window.
            Request::Event(_) | Request::Batch(_) => {
                let single = matches!(request, Request::Event(_));
                let events = placement_events(&request);
                let kind = if single { "event" } else { "batch" };
                let mut span = RequestSpan::new(kind, events.len() as u64, trace, decode_ns);
                let mut guard = slot.lock().unwrap();
                // An event frame is answered with its one bin, and its
                // refusal names no batch index.
                let response = match guard.as_mut().map(|t| t.batch(events, &mut span)) {
                    Some(Ok(bins)) if single => Response::Bin(bins[0]),
                    Some(Ok(bins)) => Response::Bins(bins),
                    Some(Err(e)) => {
                        let e = e.into_wire();
                        Response::Error(WireError {
                            index: e.index.filter(|_| !single),
                            ..e
                        })
                    }
                    None => Response::Error(gone(&hello.tenant)),
                };
                let failed = finish_placement(
                    shared,
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
                return handle_shutdown(&mut writer, &mut out, shared, token.as_deref(), trace);
            }
        };
        if matches!(response, Response::Error(_)) {
            shared.errors_total.fetch_add(1, Ordering::Relaxed);
        }
        send(&mut writer, &mut out, &response, trace)?;
    }
}

/// Removes `name`'s registry slot if it holds no tenant and no
/// connection holds it, so a refused hello leaves nothing behind. A
/// slot some other connection still holds is left to it: that
/// connection may be about to fill it, and if it is refused too, it
/// comes here after dropping its own hold. Locks the registry, then
/// the slot, as [`Shared::build_page`] does.
fn forget_empty_slot(shared: &Shared, name: &str) {
    let mut tenants = shared.tenants.lock().unwrap();
    let unused = tenants
        .get(name)
        .is_some_and(|slot| Arc::strong_count(slot) == 1 && slot.lock().unwrap().is_none());
    if unused {
        tenants.remove(name);
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
    shared: &Shared,
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
