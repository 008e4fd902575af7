//! A typed wire client whose builder mirrors `Session::builder`.
//!
//! In-process and over-the-wire callers read identically:
//!
//! ```no_run
//! use dbp_numeric::rat;
//! use dbp_proto::ItemId;
//! use dbp_server::Client;
//!
//! let mut client = Client::builder("firstfit")
//!     .tenant("acme")
//!     .token("s3cret")
//!     .connect("127.0.0.1:9500")
//!     .unwrap();
//! let bin = client.arrive(ItemId(0), rat(1, 2), rat(0, 1)).unwrap();
//! println!("placed in {bin:?}");
//! ```
//!
//! Every call is one synchronous request/response exchange; server
//! refusals come back as [`ClientError::Remote`] carrying the typed
//! [`WireError`], so quota and auth failures are matchable, not
//! string-parsed.

use dbp_numeric::Rational;
use dbp_proto::{
    decode_response, encode_request, fast, read_frame_raw, write_frame_bytes, Backend, BinId,
    Event, Hello, ItemId, PackingOutcome, RawFrame, Request, Response, SessionMetrics,
    SessionSnapshot, TickGrid, WireError,
};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport trouble (connect, read, write, framing damage).
    Io(io::Error),
    /// The server answered with a typed error frame.
    Remote(WireError),
    /// The server broke protocol (wrong frame type, early close).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Remote(e) => write!(f, "server: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Builder mirroring `Session::builder`: configure the tenant session
/// shape, then [`connect`](ClientBuilder::connect).
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    hello: Hello,
    tracing: bool,
}

impl ClientBuilder {
    fn new(algo: &str) -> ClientBuilder {
        ClientBuilder {
            hello: Hello::new("default", algo),
            tracing: false,
        }
    }

    /// Tenant key to attach to (default `"default"`).
    pub fn tenant(mut self, tenant: impl Into<String>) -> ClientBuilder {
        self.hello.tenant = tenant.into();
        self
    }

    /// Auth token for the server's token policy.
    pub fn token(mut self, token: impl Into<String>) -> ClientBuilder {
        self.hello.token = Some(token.into());
        self
    }

    /// Engine backend (mirrors `SessionBuilder::backend`).
    pub fn backend(mut self, backend: Backend) -> ClientBuilder {
        self.hello.backend = backend;
        self
    }

    /// Declared tick grid (mirrors `SessionBuilder::grid`).
    pub fn grid(mut self, grid: TickGrid) -> ClientBuilder {
        self.hello.grid = Some(grid);
        self
    }

    /// Enable per-session telemetry (mirrors
    /// `SessionBuilder::telemetry`).
    pub fn telemetry(mut self) -> ClientBuilder {
        self.hello.telemetry = true;
        self
    }

    /// Disable server-side journaling for this tenant: memory stays
    /// flat, `snapshot` becomes unavailable, and a server crash loses
    /// the stream (mirrors `SessionBuilder::without_checkpoints`).
    pub fn without_journal(mut self) -> ClientBuilder {
        self.hello.journal = false;
        self
    }

    /// Attach a fresh `trace` request id to every frame this client
    /// sends (the hello included) and verify the server echoes it back
    /// on the matching response. Tracing is per-frame and needs no
    /// negotiation — a server accepts traced frames from any client —
    /// so this only controls whether *this* client labels its
    /// requests (and can then join its latency records against the
    /// server's slow-request log).
    pub fn traced(mut self) -> ClientBuilder {
        self.tracing = true;
        self
    }

    /// Connects, performs the hello exchange, and returns an attached
    /// client.
    pub fn connect(self, addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        let writer = BufWriter::with_capacity(1 << 16, stream);
        let mut client = Client {
            reader,
            writer,
            out: Vec::new(),
            scratch: Vec::new(),
            resumed_events: 0,
            tracing: self.tracing,
            next_trace: 1,
            last_trace: None,
        };
        match client.exchange(&Request::Hello(self.hello))? {
            Response::Hello { resumed_events, .. } => {
                client.resumed_events = resumed_events;
                Ok(client)
            }
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("hello", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected a `{wanted}` response, got {got:?}"))
}

/// An attached wire client driving one tenant.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    out: Vec<u8>,
    scratch: Vec<u8>,
    resumed_events: u64,
    tracing: bool,
    next_trace: u64,
    last_trace: Option<u64>,
}

impl Client {
    /// Starts a builder for `algo` (CLI-style names: `firstfit`,
    /// `bestfit`, ...), mirroring `Session::builder`.
    pub fn builder(algo: &str) -> ClientBuilder {
        ClientBuilder::new(algo)
    }

    /// How many journaled events the server replayed before this
    /// connection attached (0 for a fresh tenant).
    pub fn resumed_events(&self) -> u64 {
        self.resumed_events
    }

    /// The `trace` id the server echoed on the most recent exchange
    /// (`None` before any exchange, or when this client is untraced).
    pub fn echoed_trace(&self) -> Option<u64> {
        self.last_trace
    }

    /// One request/response exchange. Error frames are *not* turned
    /// into `Err` here — callers match on the expected variant.
    fn exchange(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.exchange_with(|out, trace| encode_request(out, request, trace))
    }

    /// One exchange whose request `encode` writes into the frame
    /// buffer, given the frame's trace id. A traced client stamps each
    /// request with a fresh id and checks the echo, so a response can
    /// never be attributed to the wrong request.
    fn exchange_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>, Option<u64>),
    ) -> Result<Response, ClientError> {
        let trace = self.tracing.then(|| {
            let id = self.next_trace;
            self.next_trace += 1;
            id
        });
        self.out.clear();
        encode(&mut self.out, trace);
        write_frame_bytes(&mut self.writer, &self.out)?;
        self.writer.flush()?;
        let (response, echoed) = match read_frame_raw(&mut self.reader, &mut self.scratch)? {
            RawFrame::Eof => {
                return Err(ClientError::Protocol(
                    "server closed the connection mid-exchange".to_string(),
                ))
            }
            RawFrame::Payload => decode_response(&self.scratch).map_err(ClientError::Protocol)?,
        };
        if trace.is_some() && echoed != trace {
            return Err(ClientError::Protocol(format!(
                "trace id mismatch: sent {trace:?}, server echoed {echoed:?}"
            )));
        }
        self.last_trace = echoed;
        Ok(response)
    }

    fn expect_bin(&mut self, request: &Request) -> Result<BinId, ClientError> {
        match self.exchange(request)? {
            Response::Bin(bin) => Ok(bin),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("bin", &other)),
        }
    }

    /// An item arrives: returns its assigned bin (mirrors
    /// `Session::arrive`).
    pub fn arrive(
        &mut self,
        id: ItemId,
        size: Rational,
        time: Rational,
    ) -> Result<BinId, ClientError> {
        self.expect_bin(&Request::Event(Event::Arrive { id, size, time }))
    }

    /// An item departs: returns the bin it vacated (mirrors
    /// `Session::depart`).
    pub fn depart(&mut self, id: ItemId, time: Rational) -> Result<BinId, ClientError> {
        self.expect_bin(&Request::Event(Event::Depart { id, time }))
    }

    /// Applies one event (mirrors `Session::apply`).
    pub fn apply(&mut self, event: &Event) -> Result<BinId, ClientError> {
        self.expect_bin(&Request::Event(*event))
    }

    /// Applies a batch in order, returning one placement per event
    /// (mirrors `Session::ingest`, with placements).
    pub fn ingest(&mut self, events: &[Event]) -> Result<Vec<BinId>, ClientError> {
        // Encoded straight from the caller's slice with the writer
        // `encode_request` takes for batch frames: a `Request::Batch`
        // would copy the whole frame first.
        let batch = |out: &mut Vec<u8>, trace| fast::write_batch_request_traced(out, events, trace);
        match self.exchange_with(batch)? {
            Response::Bins(bins) => Ok(bins),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("bins", &other)),
        }
    }

    /// Live tenant metrics (mirrors `Session::metrics`).
    pub fn metrics(&mut self) -> Result<SessionMetrics, ClientError> {
        match self.exchange(&Request::Metrics)? {
            Response::Metrics(metrics) => Ok(*metrics),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// A resumable checkpoint of the tenant session (mirrors
    /// `Session::snapshot`).
    pub fn snapshot(&mut self) -> Result<SessionSnapshot, ClientError> {
        match self.exchange(&Request::Snapshot)? {
            Response::Snapshot(snapshot) => Ok(snapshot),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("snapshot", &other)),
        }
    }

    /// Finishes the tenant and returns its packing outcome, the one
    /// element of the `outcomes` list (mirrors `Session::finish`).
    pub fn finish(mut self) -> Result<Vec<PackingOutcome>, ClientError> {
        match self.exchange(&Request::Finish)? {
            Response::Outcomes(outcomes) => Ok(outcomes),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("outcomes", &other)),
        }
    }

    /// Asks the server to stop (subject to its token policy).
    pub fn shutdown_server(mut self, token: Option<&str>) -> Result<(), ClientError> {
        match self.exchange(&Request::Shutdown {
            token: token.map(str::to_string),
        })? {
            Response::Shutdown => Ok(()),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(unexpected("shutdown", &other)),
        }
    }
}
