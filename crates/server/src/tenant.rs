//! One tenant = one keyed packing session.
//!
//! A [`Tenant`] wraps its [`Session`] behind the wire protocol: quota
//! admission in front, journal durability behind. Every tenant packs
//! all of its items into one pool of bins, the one First Fit packing
//! the paper's bounds speak about. Every mutation goes through here,
//! so the invariant "journal holds exactly the accepted events, in
//! acceptance order" lives in one place.
//!
//! A journaled tenant on the tick engine also checkpoints its engine
//! state beside the journal ([`crate::checkpoint`]), and a restart
//! loads that state and replays only the journal's tail through the
//! same replay loop. The checkpoint never holds events: a tenant that
//! journals to a file keeps no in-memory event log either, and answers
//! `snapshot` from the journal itself.

use crate::checkpoint::{self, Checkpoint, CHECKPOINT_MIN_BYTES};
use crate::journal::{
    journal_path, journal_paths, read_journal, Journal, JournalHeader, JournalReader,
    RecoveredJournal,
};
use crate::quota::{Quotas, RateLimiter};
use crate::span::{Phase, RequestSpan, WireStats};
use crate::ServerError;
use dbp_core::algo::by_name;
use dbp_core::session::{Session, SessionError};
use dbp_core::{PackingAlgorithm, PackingOutcome};
use dbp_obs::{telemetry_registry, MetricsRegistry};
use dbp_proto::{BinId, ErrorKind, Event, Hello, SessionMetrics, SessionSnapshot, WireError};
use std::path::Path;
use std::time::Instant;

/// Maps a wire algorithm name (CLI-style lowercase or canonical) to
/// its canonical name, restricted to algorithms that
/// [`by_name`] can reconstruct — the server only serves
/// journal-recoverable algorithms, by design.
///
/// The retired tree-indexed spellings (`firstfit-fast`/`fff`/
/// `FirstFitFast` and their Best/Worst Fit twins) map to the
/// algorithm they always matched, so old hello frames and journal
/// headers still load.
pub fn canonical_algo(name: &str) -> Option<&'static str> {
    Some(match name {
        "firstfit" | "ff" | "FirstFit" => "FirstFit",
        "bestfit" | "bf" | "BestFit" => "BestFit",
        "worstfit" | "wf" | "WorstFit" => "WorstFit",
        "lastfit" | "lf" | "LastFit" => "LastFit",
        "nextfit" | "nf" | "NextFit" => "NextFit",
        "firstfit-fast" | "fff" | "FirstFitFast" => "FirstFit",
        "bestfit-fast" | "bff" | "BestFitFast" => "BestFit",
        "worstfit-fast" | "wff" | "WorstFitFast" => "WorstFit",
        _ => return None,
    })
}

fn make_algo(canonical: &str) -> Box<dyn PackingAlgorithm> {
    by_name(canonical).expect("canonical_algo only returns by_name-constructible names")
}

/// One tenant's full server-side state.
pub struct Tenant {
    name: String,
    session: Session<'static>,
    journal: Option<Journal>,
    quotas: Quotas,
    rate: Option<RateLimiter>,
    /// Events accepted over this tenant's lifetime (journaled or not).
    accepted: u64,
    /// Wire-level SLO accumulators (request latency, phase shares,
    /// refusals, fsyncs) — folded into [`Tenant::registry`].
    wire: WireStats,
    /// The journal offset the last checkpoint covers and that
    /// checkpoint's size; `(0, 0)` before the first.
    checkpointed: (u64, u64),
}

fn session_error(e: SessionError) -> WireError {
    WireError::new(ErrorKind::Session, e.to_string())
}

impl Tenant {
    /// Builds a fresh tenant from its hello frame. When `journal_dir`
    /// is set and the hello asked for journaling, a journal file is
    /// created before any event is accepted.
    pub fn create(
        hello: &Hello,
        quotas: Quotas,
        journal_dir: Option<&Path>,
    ) -> Result<Tenant, ServerError> {
        // Only a journaling tenant without a journal file answers
        // `snapshot` from its session's log. One with a file answers
        // from the file, and journal-less tenants get a typed
        // Unavailable error instead, so neither keeps a log.
        let journaled = hello.journal && journal_dir.is_some();
        let log = hello.journal && !journaled;
        let canonical = Tenant::validate(hello)?;
        let mut tenant = Tenant::fresh(hello, canonical, quotas, log)?;
        if let (Some(dir), true) = (journal_dir, journaled) {
            let header = JournalHeader {
                tenant: hello.tenant.clone(),
                algo: canonical.to_string(),
                backend: hello.backend,
                grid: hello.grid,
                shards: 1,
                telemetry: hello.telemetry,
            };
            tenant.journal = Some(Journal::create(dir, &header).map_err(ServerError::Io)?);
        }
        Ok(tenant)
    }

    /// The canonical name of the hello's algorithm, once the hello
    /// names a servable algorithm and `shards` 1.
    fn validate(hello: &Hello) -> Result<&'static str, ServerError> {
        let canonical = canonical_algo(&hello.algo).ok_or_else(|| {
            ServerError::Wire(WireError::new(
                ErrorKind::Protocol,
                format!("unknown or non-recoverable algorithm `{}`", hello.algo),
            ))
        })?;
        if hello.shards != 1 {
            return Err(ServerError::Wire(WireError::new(
                ErrorKind::Protocol,
                format!(
                    "shards must be 1, got {}: every tenant is one session",
                    hello.shards
                ),
            )));
        }
        Ok(canonical)
    }

    /// A journal-less tenant of `hello`'s shape that has applied no
    /// event, its session keeping a checkpoint log iff `log`.
    fn fresh(
        hello: &Hello,
        canonical: &str,
        quotas: Quotas,
        log: bool,
    ) -> Result<Tenant, ServerError> {
        let mut builder = Session::builder(make_algo(canonical)).backend(hello.backend);
        if let Some(grid) = hello.grid {
            builder = builder.grid(grid);
        }
        if hello.telemetry {
            builder = builder.telemetry();
        }
        if !log {
            builder = builder.without_checkpoints();
        }
        let session = builder
            .build()
            .map_err(|e| ServerError::Wire(session_error(e)))?;
        Ok(Tenant {
            name: hello.tenant.clone(),
            session,
            journal: None,
            quotas,
            rate: quotas.max_events_per_sec.map(RateLimiter::new),
            accepted: 0,
            wire: WireStats::default(),
            checkpointed: (0, 0),
        })
    }

    /// A fresh tenant of the shape a journal header records, as a
    /// restart rebuilds it: its events come from the journal file it
    /// reopens, so its session keeps no log.
    fn of_header(header: &JournalHeader, quotas: Quotas) -> Result<Tenant, ServerError> {
        let hello = Hello {
            tenant: header.tenant.clone(),
            token: None,
            algo: header.algo.clone(),
            backend: header.backend,
            grid: header.grid,
            shards: header.shards,
            telemetry: header.telemetry,
            journal: true,
        };
        let canonical = Tenant::validate(&hello)?;
        Tenant::fresh(&hello, canonical, quotas, false)
    }

    /// Rebuilds every journaled tenant under `dir`, in path order, the
    /// way [`crate::DbpServer::start`] does on a restart. Each tenant
    /// starts from the engine state its checkpoint holds, when the
    /// checkpoint is valid and in step with the journal, and from
    /// nothing otherwise; the journal after that point streams straight
    /// into it through the replay loop, one journal at a time, so a
    /// restart holds sessions rather than journals and costs the
    /// state's size plus the tail's. The journals are reopened for
    /// appending, their torn tails cut, only once every one of them has
    /// replayed: a journal that fails recovery leaves every file as it
    /// found it.
    pub fn recover_all(dir: &Path, quotas: Quotas) -> Result<Vec<Tenant>, ServerError> {
        let mut replayed = Vec::new();
        for path in journal_paths(dir).map_err(ServerError::Io)? {
            let (header, mut reader) = JournalReader::open(&path).map_err(ServerError::Io)?;
            let mut tenant = match Tenant::restore(&header, quotas, &mut reader)? {
                Some(tenant) => tenant,
                None => Tenant::of_header(&header, quotas)?,
            };
            tenant.replay(&mut reader, |reader| Some(reader.last_line()))?;
            replayed.push((tenant, path, reader.end(), reader.lines()));
        }
        replayed
            .into_iter()
            .map(|(mut tenant, path, end, lines)| {
                let journal = Journal::reopen(&path, end, lines).map_err(ServerError::Io)?;
                tenant.journal = Some(journal);
                Ok(tenant)
            })
            .collect()
    }

    /// The tenant the checkpoint beside `reader`'s journal holds, with
    /// the reader moved to the first line after it; `None`, with the
    /// reader on the first event line, when there is no checkpoint or
    /// it is corrupt, out of step with the journal, or of another
    /// shape than `header`'s.
    fn restore(
        header: &JournalHeader,
        quotas: Quotas,
        reader: &mut JournalReader,
    ) -> Result<Option<Tenant>, ServerError> {
        let Some(checkpoint) = Checkpoint::read(reader.path()) else {
            return Ok(None);
        };
        if !reader.skip_to(&checkpoint.mark).map_err(ServerError::Io)? {
            return Ok(None);
        }
        let mut tenant = Tenant::of_header(header, quotas)?;
        if tenant.session.load_state(checkpoint.state()).is_err() {
            reader.rewind().map_err(ServerError::Io)?;
            return Ok(None);
        }
        tenant.accepted = checkpoint.mark.accepted;
        tenant.checkpointed = (checkpoint.mark.offset, checkpoint.len());
        Ok(Some(tenant))
    }

    /// Rebuilds a tenant from a journal already read into memory
    /// ([`crate::journal::read_journal`]) through the same replay loop,
    /// then reopens its journal under `journal_dir` for appending, with
    /// any torn final line cut off.
    pub fn recover(
        recovered: RecoveredJournal,
        quotas: Quotas,
        journal_dir: &Path,
    ) -> Result<Tenant, ServerError> {
        let header = &recovered.header;
        let mut tenant = Tenant::of_header(header, quotas)?;
        tenant.replay(&mut recovered.events.into_iter().map(Ok), |_| None)?;
        let path = journal_path(journal_dir, &header.tenant);
        let journal =
            Journal::reopen(&path, recovered.end, recovered.lines).map_err(ServerError::Io)?;
        tenant.journal = Some(journal);
        Ok(tenant)
    }

    /// The replay loop: every event applied through the identical
    /// session machinery, so the tenant ends bit-identical to one that
    /// never stopped. An event the sessions reject fails the replay,
    /// named by `locate` (the journal's path and the event line's
    /// number and starting byte) when the events come from a file.
    fn replay<I: Iterator<Item = std::io::Result<Event>>>(
        &mut self,
        events: &mut I,
        locate: impl Fn(&I) -> Option<(&Path, u64, u64)>,
    ) -> Result<(), ServerError> {
        // Replay without quota admission: these events were already
        // admitted once; a restart must not re-charge them.
        while let Some(event) = events.next() {
            let event = event.map_err(ServerError::Io)?;
            self.apply_unchecked(&event).map_err(|e| {
                let tenant = &self.name;
                ServerError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    match locate(events) {
                        Some((path, line, byte)) => format!(
                            "{}: journal replay for tenant `{tenant}` rejected an event it once accepted, on line {line} at byte {byte}: {e}",
                            path.display()
                        ),
                        None => format!(
                            "journal replay for tenant `{tenant}` rejected an event it once accepted: {e}"
                        ),
                    },
                ))
            })?;
        }
        Ok(())
    }

    /// Tenant key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Events accepted so far (what a resuming client sees in its
    /// hello response).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    fn admit(&mut self, events: &[Event]) -> Result<(), WireError> {
        if let Some(rate) = &mut self.rate {
            if !rate.admit(events.len() as u64) {
                return Err(WireError::new(
                    ErrorKind::Quota,
                    format!(
                        "events/sec quota exceeded (limit {}/s)",
                        self.quotas.max_events_per_sec.unwrap_or(0)
                    ),
                ));
            }
        }
        if self.quotas.max_active_items.is_none() && self.quotas.max_open_bins.is_none() {
            // No count quota: skip building the session's metrics,
            // exact `Rational`s and all, once per frame.
            return Ok(());
        }
        let arrivals = events.iter().filter(|e| e.is_arrival()).count() as u64;
        if arrivals > 0 {
            let metrics = self.metrics();
            if let Some(max) = self.quotas.max_active_items {
                // Conservative: departures in the same batch are not
                // credited, so admission never depends on intra-batch
                // ordering.
                if metrics.active_items as u64 + arrivals > max {
                    return Err(WireError::new(
                        ErrorKind::Quota,
                        format!(
                            "active-items quota exceeded ({} in flight + {arrivals} arriving > limit {max})",
                            metrics.active_items
                        ),
                    ));
                }
            }
            if let Some(max) = self.quotas.max_open_bins {
                // Conservative: each arrival may open a bin.
                if metrics.open_bins as u64 + arrivals > max {
                    return Err(WireError::new(
                        ErrorKind::Quota,
                        format!(
                            "open-bins quota exceeded ({} open + up to {arrivals} new > limit {max})",
                            metrics.open_bins
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Applies one event without quota or journal involvement
    /// (recovery replay).
    fn apply_unchecked(&mut self, event: &Event) -> Result<BinId, SessionError> {
        let bin = self.session.apply(event)?;
        self.accepted += 1;
        Ok(bin)
    }

    /// Applies one event as a one-event [`Tenant::batch`] and returns
    /// its placement. A refusal names no batch index.
    pub fn apply(&mut self, event: &Event, span: &mut RequestSpan) -> Result<BinId, ServerError> {
        match self.batch(std::slice::from_ref(event), span) {
            Ok(bins) => Ok(bins[0]),
            Err(ServerError::Wire(e)) => Err(ServerError::Wire(WireError { index: None, ..e })),
            Err(e) => Err(e),
        }
    }

    /// Applies a batch: quota admission, session placement, journal
    /// append + flush — only then are the placements, one per event,
    /// returned for the wire ack. Each stage charges its time to the
    /// request `span` (Quota / Apply / Journal), refusals and flushes
    /// included. Events apply in frame order up to the first one the
    /// session rejects: the error names that event's index, every event
    /// before it stays applied, and those are journaled, so recovery
    /// and the live session never diverge.
    pub fn batch(
        &mut self,
        events: &[Event],
        span: &mut RequestSpan,
    ) -> Result<Vec<BinId>, ServerError> {
        // Admission is all-or-nothing: a refused batch applied nothing,
        // which index 0 tells the client.
        if let Err(e) = span.time(Phase::Quota, || self.admit(events)) {
            span.quota_refused = true;
            return Err(ServerError::Wire(e.at_index(0)));
        }
        let mut bins = Vec::with_capacity(events.len());
        let t = Instant::now();
        let rejected = events
            .iter()
            .try_for_each(|event| self.session.apply(event).map(|bin| bins.push(bin)));
        span.record(Phase::Apply, t.elapsed());
        self.accepted += bins.len() as u64;
        self.journal_applied(&events[..bins.len()], span)?;
        match rejected {
            Ok(()) => Ok(bins),
            Err(e) => Err(ServerError::Wire(
                session_error(e).at_index(bins.len() as u64),
            )),
        }
    }

    fn journal_applied(
        &mut self,
        events: &[Event],
        span: &mut RequestSpan,
    ) -> Result<(), ServerError> {
        if events.is_empty() {
            return Ok(());
        }
        if let Some(journal) = &mut self.journal {
            span.time(Phase::Journal, || journal.append(events))
                .map_err(ServerError::Io)?;
            // `Journal::append` flushes once per call — the durability
            // "fsync" the span and the per-tenant counter both count.
            span.fsyncs += 1;
            let (at, size) = self.checkpointed;
            if journal.len() - at >= CHECKPOINT_MIN_BYTES.max(size) {
                span.time(Phase::Journal, || self.checkpoint());
            }
        }
        Ok(())
    }

    /// Writes the engine-state checkpoint beside the journal, covering
    /// every event journaled so far, and returns whether it did. Only a
    /// journaled tenant whose session runs on the tick engine has one
    /// to write. Best-effort: the journal alone recovers the
    /// tenant, so a failed write just leaves the older checkpoint, and
    /// either way the next attempt waits for the journal to grow again.
    #[doc(hidden)]
    pub fn checkpoint(&mut self) -> bool {
        let Some(journal) = &self.journal else {
            return false;
        };
        let at = journal.len();
        let written = self
            .session
            .tick_active()
            .then(|| {
                let mark = journal.mark(self.accepted)?;
                checkpoint::write(journal.path(), mark, |buf| self.session.write_state(buf))
            })
            .and_then(Result::ok);
        self.checkpointed = (at, written.unwrap_or(self.checkpointed.1));
        written.is_some()
    }

    /// Folds a finished request span into this tenant's wire-level
    /// accumulators (latency histogram, phase shares, refusal / fsync
    /// / slow counters).
    pub fn record_request(&mut self, span: &RequestSpan, total_ns: u64, slow: bool) {
        self.wire.record(span, total_ns, slow);
    }

    /// Live stream metrics.
    pub fn metrics(&self) -> SessionMetrics {
        self.session.metrics()
    }

    /// The tenant's telemetry registry (what the exposition page
    /// merges, per tenant and server-wide): deterministic stream
    /// telemetry plus the wire-level SLO series (`request_latency_us`
    /// histogram, per-phase nanosecond counters, refusals, fsyncs).
    pub fn registry(&self) -> MetricsRegistry {
        let mut registry = telemetry_registry(&self.session.metrics());
        self.wire.fold_into(&mut registry);
        registry
    }

    /// A resumable checkpoint: the journal file's events, for a
    /// tenant that journals to one, or its session's log. Journal-less
    /// tenants answer with a typed `unavailable` error.
    pub fn snapshot(&self) -> Result<SessionSnapshot, WireError> {
        if let Some(journal) = &self.journal {
            let read = read_journal(journal.path()).map_err(|e| {
                WireError::new(
                    ErrorKind::Unavailable,
                    format!("cannot read the tenant's journal: {e}"),
                )
            })?;
            let header = read.header;
            return Ok(SessionSnapshot {
                algorithm: header.algo,
                backend: header.backend,
                grid: header.grid,
                telemetry: header.telemetry,
                events: read.events,
            });
        }
        self.session.snapshot().map_err(|e| match e {
            SessionError::CheckpointsDisabled => WireError::new(
                ErrorKind::Unavailable,
                "tenant runs without journaling; snapshots are disabled",
            ),
            other => session_error(other),
        })
    }

    /// Finishes the tenant, returning its outcome as a one-element list
    /// (the wire's `outcomes` frame) and removing its checkpoint, then
    /// its journal. A tenant with in-flight items fails with a typed
    /// error *without* consuming the session, so the caller can keep
    /// serving it.
    pub fn finish(self) -> Result<Vec<PackingOutcome>, (Box<Tenant>, WireError)> {
        let active = self.metrics().active_items;
        if active > 0 {
            return Err((
                Box::new(self),
                WireError::new(
                    ErrorKind::Session,
                    format!("{active} items still active; depart them before finish"),
                ),
            ));
        }
        let journal = self.journal;
        let outcome = self
            .session
            .finish()
            .unwrap_or_else(|e| unreachable!("finish with no active items failed: {e}"));
        if let Some(journal) = journal {
            // Best-effort: a leftover journal file replays to an
            // empty-tail tenant, which is harmless. The checkpoint goes
            // first, so none outlives its journal.
            let _ = checkpoint::remove(journal.path());
            let _ = journal.remove();
        }
        Ok(vec![outcome])
    }
}
