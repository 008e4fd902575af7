//! One tenant = one keyed packing session (or sharded fleet).
//!
//! A [`Tenant`] wraps the session machinery behind the wire protocol:
//! quota admission in front, journal durability behind, and the
//! single/sharded distinction hidden from the connection handler.
//! Every mutation goes through here, so the invariant "journal holds
//! exactly the accepted events, in acceptance order" lives in one
//! place.

use crate::journal::{
    journal_path, journal_paths, Journal, JournalHeader, JournalReader, RecoveredJournal,
};
use crate::quota::{Quotas, RateLimiter};
use crate::span::{Phase, RequestSpan, WireStats};
use crate::ServerError;
use dbp_core::algo::by_name;
use dbp_core::session::{Session, SessionError};
use dbp_core::{PackingAlgorithm, PackingOutcome};
use dbp_obs::{telemetry_registry, MetricsRegistry};
use dbp_par::Fleet;
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

/// Single session or sharded fleet — the tenant-facing API is the
/// same either way.
// One long-lived value per tenant behind an Arc<Mutex<..>>; the size
// skew between variants never crosses a hot move path.
#[allow(clippy::large_enum_variant)]
enum TenantState {
    Single(Session<'static>),
    Sharded(Fleet<'static>),
}

/// One tenant's full server-side state.
pub struct Tenant {
    name: String,
    state: TenantState,
    shards: u32,
    journal: Option<Journal>,
    quotas: Quotas,
    rate: Option<RateLimiter>,
    /// Events accepted over this tenant's lifetime (journaled or not).
    accepted: u64,
    /// Wire-level SLO accumulators (request latency, phase shares,
    /// refusals, fsyncs) — folded into [`Tenant::registry`].
    wire: WireStats,
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
        let canonical = canonical_algo(&hello.algo).ok_or_else(|| {
            ServerError::Wire(WireError::new(
                ErrorKind::Protocol,
                format!("unknown or non-recoverable algorithm `{}`", hello.algo),
            ))
        })?;
        if hello.shards == 0 {
            return Err(ServerError::Wire(WireError::new(
                ErrorKind::Protocol,
                "shards must be >= 1",
            )));
        }
        let build_session = || -> Result<Session<'static>, SessionError> {
            let mut builder = Session::builder(make_algo(canonical)).backend(hello.backend);
            if let Some(grid) = hello.grid {
                builder = builder.grid(grid);
            }
            if hello.telemetry {
                builder = builder.telemetry();
            }
            if !hello.journal || hello.shards > 1 {
                // Only a journaling single-session tenant answers
                // `snapshot` from its session's log. Journal-less
                // tenants get a typed Unavailable error instead, and
                // sharded tenants refuse `snapshot` and recover from
                // the on-disk journal, so neither keeps a log.
                builder = builder.without_checkpoints();
            }
            builder.build()
        };
        let state = if hello.shards == 1 {
            TenantState::Single(build_session().map_err(|e| ServerError::Wire(session_error(e)))?)
        } else {
            let sessions = (0..hello.shards)
                .map(|_| build_session())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| ServerError::Wire(session_error(e)))?;
            TenantState::Sharded(Fleet::new(sessions))
        };
        let journal = match (journal_dir, hello.journal) {
            (Some(dir), true) => Some(
                Journal::create(
                    dir,
                    &JournalHeader {
                        tenant: hello.tenant.clone(),
                        algo: canonical.to_string(),
                        backend: hello.backend,
                        grid: hello.grid,
                        shards: hello.shards,
                        telemetry: hello.telemetry,
                    },
                )
                .map_err(ServerError::Io)?,
            ),
            _ => None,
        };
        Ok(Tenant {
            name: hello.tenant.clone(),
            state,
            shards: hello.shards,
            journal,
            quotas,
            rate: quotas.max_events_per_sec.map(RateLimiter::new),
            accepted: 0,
            wire: WireStats::default(),
        })
    }

    /// Rebuilds every journaled tenant under `dir`, in path order, the
    /// way [`crate::DbpServer::start`] does on a restart. Each journal
    /// streams straight into its tenant through the replay loop, one
    /// journal at a time, so a restart holds sessions rather than
    /// journals. The journals are reopened for appending, their torn
    /// tails cut, only once every one of them has replayed: a journal
    /// that fails recovery leaves every file as it found it.
    pub fn recover_all(dir: &Path, quotas: Quotas) -> Result<Vec<Tenant>, ServerError> {
        let mut replayed = Vec::new();
        for path in journal_paths(dir).map_err(ServerError::Io)? {
            let (header, mut reader) = JournalReader::open(&path).map_err(ServerError::Io)?;
            let tenant = Tenant::replay(&header, quotas, &mut reader)?;
            replayed.push((tenant, path, reader.end()));
        }
        replayed
            .into_iter()
            .map(|(mut tenant, path, end)| {
                tenant.journal = Some(Journal::reopen(&path, end).map_err(ServerError::Io)?);
                Ok(tenant)
            })
            .collect()
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
        let mut tenant = Tenant::replay(header, quotas, recovered.events.into_iter().map(Ok))?;
        let path = journal_path(journal_dir, &header.tenant);
        tenant.journal = Some(Journal::reopen(&path, recovered.end).map_err(ServerError::Io)?);
        Ok(tenant)
    }

    /// The replay loop: a fresh journal-less tenant of `header`'s shape
    /// with every event applied through the identical session
    /// machinery, bit-identical to a tenant that never stopped.
    fn replay(
        header: &JournalHeader,
        quotas: Quotas,
        events: impl IntoIterator<Item = std::io::Result<Event>>,
    ) -> Result<Tenant, ServerError> {
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
        let mut tenant = Tenant::create(&hello, quotas, None)?;
        // Replay without quota admission: these events were already
        // admitted once; a restart must not re-charge them.
        for event in events {
            let event = event.map_err(ServerError::Io)?;
            tenant.apply_unchecked(&event).map_err(|e| {
                ServerError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "journal replay for tenant `{}` rejected an event it once accepted: {e}",
                        header.tenant
                    ),
                ))
            })?;
        }
        Ok(tenant)
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

    fn shard_of(&self, event: &Event) -> usize {
        (event.id().0 % self.shards) as usize
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
            // No count quota: skip the counters, which on a telemetry
            // tenant cost an O(active items) `vol` sum per frame.
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
        let bin = match &mut self.state {
            TenantState::Single(session) => session.apply(event)?,
            TenantState::Sharded(fleet) => {
                let shard = (event.id().0 % self.shards) as usize;
                fleet.session_mut(shard).apply(event)?
            }
        };
        self.accepted += 1;
        Ok(bin)
    }

    /// Applies one event: quota admission, session placement, journal
    /// append + flush — only then is the placement returned for the
    /// wire ack. Each stage charges its time to the request `span`
    /// (Quota / Apply / Journal), refusals and flushes included.
    pub fn apply(&mut self, event: &Event, span: &mut RequestSpan) -> Result<BinId, ServerError> {
        if let Err(e) = span.time(Phase::Quota, || self.admit(std::slice::from_ref(event))) {
            span.quota_refused = true;
            return Err(ServerError::Wire(e));
        }
        let bin = span
            .time(Phase::Apply, || self.apply_unchecked(event))
            .map_err(|e| ServerError::Wire(session_error(e)))?;
        self.journal_applied(std::slice::from_ref(event), span)?;
        Ok(bin)
    }

    /// Applies a batch, returning one placement per event. On a
    /// rejection the prefix semantics match the underlying machinery
    /// ([`Session::ingest`] / [`Fleet::dispatch`]): for a single
    /// session, events before the reported index were applied; for a
    /// fleet, each shard applied its events before the first failing
    /// one. Whatever was applied is journaled, so recovery and the
    /// live session never diverge. Stage timing charges the request
    /// `span` exactly as [`Tenant::apply`] does.
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
        match &mut self.state {
            TenantState::Single(session) => {
                let mut bins = Vec::with_capacity(events.len());
                let t = Instant::now();
                for (index, event) in events.iter().enumerate() {
                    match session.apply(event) {
                        Ok(bin) => bins.push(bin),
                        Err(error) => {
                            span.record(Phase::Apply, t.elapsed());
                            self.accepted += index as u64;
                            self.journal_applied(&events[..index], span)?;
                            return Err(ServerError::Wire(
                                session_error(error).at_index(index as u64),
                            ));
                        }
                    }
                }
                span.record(Phase::Apply, t.elapsed());
                self.accepted += events.len() as u64;
                self.journal_applied(events, span)?;
                Ok(bins)
            }
            TenantState::Sharded(fleet) => {
                let shards = self.shards;
                let t = Instant::now();
                let routed: Vec<(usize, Event)> = events
                    .iter()
                    .map(|e| ((e.id().0 % shards) as usize, *e))
                    .collect();
                let dispatched = fleet.dispatch_with_bins(&routed);
                span.record(Phase::Apply, t.elapsed());
                match dispatched {
                    Ok(bins) => {
                        self.accepted += events.len() as u64;
                        self.journal_applied(events, span)?;
                        Ok(bins)
                    }
                    Err(errors) => {
                        // Reconstruct exactly which events were applied:
                        // per failing shard, the events before its
                        // reported index; for healthy shards, all.
                        let mut cutoff = vec![usize::MAX; shards as usize];
                        for e in &errors {
                            cutoff[e.shard] = cutoff[e.shard].min(e.index);
                        }
                        let applied: Vec<Event> = events
                            .iter()
                            .enumerate()
                            .filter(|(i, e)| *i < cutoff[self.shard_of(e)])
                            .map(|(_, e)| *e)
                            .collect();
                        self.accepted += applied.len() as u64;
                        self.journal_applied(&applied, span)?;
                        let first = errors
                            .iter()
                            .min_by_key(|e| e.index)
                            .expect("dispatch errors are non-empty");
                        Err(ServerError::Wire(
                            session_error(first.error.clone()).at_index(first.index as u64),
                        ))
                    }
                }
            }
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
        }
        Ok(())
    }

    /// Folds a finished request span into this tenant's wire-level
    /// accumulators (latency histogram, phase shares, refusal / fsync
    /// / slow counters).
    pub fn record_request(&mut self, span: &RequestSpan, total_ns: u64, slow: bool) {
        self.wire.record(span, total_ns, slow);
    }

    /// Live stream metrics, folded across shards.
    pub fn metrics(&self) -> SessionMetrics {
        match &self.state {
            TenantState::Single(session) => session.metrics(),
            TenantState::Sharded(fleet) => fleet.folded_metrics(),
        }
    }

    /// The tenant's telemetry registry (what the exposition page
    /// merges, per tenant and server-wide): deterministic stream
    /// telemetry plus the wire-level SLO series (`request_latency_us`
    /// histogram, per-phase nanosecond counters, refusals, fsyncs).
    pub fn registry(&self) -> MetricsRegistry {
        let mut registry = match &self.state {
            TenantState::Single(session) => telemetry_registry(&session.metrics()),
            TenantState::Sharded(fleet) => fleet.merged_metrics(),
        };
        self.wire.fold_into(&mut registry);
        registry
    }

    /// A resumable checkpoint. Sharded and journal-less tenants
    /// answer with a typed `unavailable` error.
    pub fn snapshot(&self) -> Result<SessionSnapshot, WireError> {
        match &self.state {
            TenantState::Single(session) => session.snapshot().map_err(|e| match e {
                SessionError::CheckpointsDisabled => WireError::new(
                    ErrorKind::Unavailable,
                    "tenant runs without journaling; snapshots are disabled",
                ),
                other => session_error(other),
            }),
            TenantState::Sharded(_) => Err(WireError::new(
                ErrorKind::Unavailable,
                "sharded tenants checkpoint via the server journal, not session snapshots",
            )),
        }
    }

    /// Finishes the tenant, returning one outcome per shard and
    /// removing its journal. A tenant with in-flight items fails with
    /// a typed error *without* consuming the session, so the caller
    /// can keep serving it.
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
        let outcomes = match self.state {
            TenantState::Single(session) => match session.finish() {
                Ok(outcome) => vec![outcome],
                Err(e) => unreachable!("finish with no active items failed: {e}"),
            },
            TenantState::Sharded(fleet) => fleet
                .finish()
                .unwrap_or_else(|e| unreachable!("fleet finish with no active items failed: {e}")),
        };
        if let Some(journal) = journal {
            // Best-effort: a leftover journal file replays to an
            // empty-tail tenant, which is harmless.
            let _ = journal.remove();
        }
        Ok(outcomes)
    }
}
