//! End-to-end query tracing: trace IDs, a flight recorder, and Chrome
//! trace-event export.
//!
//! Every query gets a [`TraceId`] minted at its entry point (the server's
//! session thread, or `Database::execute` when embedded). The id travels
//! with the query through admission wait, the parse→execute lifecycle,
//! down into per-morsel pool-worker events, across exchange channels as a
//! wire frame, and into spill read/write events — each layer appending
//! [`SpanEvent`]s to the shared [`ActiveTrace`].
//!
//! Two propagation mechanisms cover every layer without threading a
//! parameter through each call site:
//!
//! * an explicit handle (`Arc<ActiveTrace>`) carried by the structures
//!   that already carry the cancel token (the executor's `Cluster`), and
//! * the thread's current [`crate::context::QueryContext`], which holds
//!   the trace ([`current`]) and is installed by whoever owns a thread
//!   for the duration of a query — the statement's thread, each pool
//!   task, each executor morsel — so leaf code (spill files, the memory
//!   governor) can attribute events with no API change.
//!
//! Completed traces land in the process-wide [`FlightRecorder`]: a
//! bounded ring buffer (oldest evicted first) plus a live map of
//! in-flight traces that backs `SHOW QUERIES`. Traces export as Chrome
//! trace-event JSON (the `{"traceEvents": [...]}` format loadable in
//! Perfetto or `chrome://tracing`), with one `tid` per OS thread so the
//! viewer lays worker spans out in lanes.
//!
//! Tracing is cheap enough to leave on: a disabled or unsampled query
//! pays one atomic load and carries `None` everywhere. Per-trace event
//! storage is capped ([`MAX_EVENTS_PER_TRACE`]); overflow increments a
//! drop counter instead of growing without bound.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::{array, escape, ObjectWriter};

/// Most events one trace will retain; further events are counted as
/// dropped. Big enough for thousands of morsel spans, small enough that a
/// pathological query cannot OOM the recorder.
pub const MAX_EVENTS_PER_TRACE: usize = 8192;

/// Default completed-trace ring capacity (overridable via
/// `LARDB_TRACE_CAPACITY` or [`FlightRecorder::set_capacity`]).
pub const DEFAULT_RING_CAPACITY: usize = 256;

// ---------------------------------------------------------------- TraceId

/// A per-query trace identifier, nonzero, printed as 16 hex digits.
///
/// Ids are minted from a process-wide counter scrambled through
/// SplitMix64 so they look unique across restarts of the same test
/// binary without needing a clock or an RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    fn mint() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let seq = NEXT.fetch_add(1, Ordering::Relaxed);
        // SplitMix64 finalizer: bijective on u64, so distinct seqs give
        // distinct ids; 0 maps to 0 which seq≥1 never is... except that
        // the mix *can* produce 0 for some nonzero input, so guard it.
        let mut z = seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        TraceId(if z == 0 { 1 } else { z })
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

// ------------------------------------------------------------ thread ids

/// Small dense per-OS-thread integer used as the Chrome `tid`, plus a
/// registry of thread names so the exporter can emit `thread_name`
/// metadata events.
fn thread_names() -> &'static Mutex<BTreeMap<u64, String>> {
    static NAMES: OnceLock<Mutex<BTreeMap<u64, String>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// This thread's stable trace `tid` (assigned on first use, name
/// registered from `std::thread::current().name()`).
pub fn thread_tid() -> u64 {
    thread_local! {
        static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    TID.with(|c| {
        let cached = c.get();
        if cached != 0 {
            return cached;
        }
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        c.set(tid);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        if let Ok(mut names) = thread_names().lock() {
            names.insert(tid, name);
        }
        tid
    })
}

// -------------------------------------------------------------- events

/// One completed span or instant inside a trace. Times are microseconds
/// relative to the trace's start.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name, e.g. `parse`, `morsel`, `exchange.recv`, `spill.write`.
    pub name: &'static str,
    /// Chrome trace category (`query`, `worker`, `exchange`, `spill`, …).
    pub cat: &'static str,
    /// Recording thread's [`thread_tid`].
    pub tid: u64,
    /// Start, microseconds since the trace began.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instant events).
    pub dur_us: u64,
    /// Extra key/value detail shown in the viewer's args pane.
    pub args: Vec<(&'static str, String)>,
}

/// Query lifecycle state, surfaced by `SHOW QUERIES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceState {
    /// Minted, waiting in the admission queue.
    Queued,
    /// Admitted and executing.
    Running,
    /// Finished (only seen on completed traces).
    Done,
}

impl TraceState {
    /// Lowercase label for introspection tables.
    pub fn name(self) -> &'static str {
        match self {
            TraceState::Queued => "queued",
            TraceState::Running => "running",
            TraceState::Done => "done",
        }
    }
}

const STATE_QUEUED: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_DONE: u8 = 2;

/// A query's in-flight trace: an append-only event log plus live
/// counters. Shared (`Arc`) between the session thread, pool workers,
/// exchange threads, and the flight recorder's active map.
#[derive(Debug)]
pub struct ActiveTrace {
    id: TraceId,
    sql: String,
    tenant: Mutex<String>,
    query_id: AtomicU64,
    state: AtomicU8,
    started: Instant,
    events: Mutex<Vec<SpanEvent>>,
    dropped: AtomicU64,
    rows: AtomicU64,
    queue_wait_us: AtomicU64,
    spill_bytes_written: AtomicU64,
    spill_bytes_read: AtomicU64,
    reserved_bytes: AtomicI64,
}

impl ActiveTrace {
    fn new(id: TraceId, sql: &str, tenant: &str) -> ActiveTrace {
        ActiveTrace {
            id,
            sql: sql.to_string(),
            tenant: Mutex::new(tenant.to_string()),
            query_id: AtomicU64::new(0),
            state: AtomicU8::new(STATE_QUEUED),
            started: Instant::now(),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            queue_wait_us: AtomicU64::new(0),
            spill_bytes_written: AtomicU64::new(0),
            spill_bytes_read: AtomicU64::new(0),
            reserved_bytes: AtomicI64::new(0),
        }
    }

    /// The trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The SQL text this trace covers.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The tenant label (e.g. the server tenant, or `embedded`).
    pub fn tenant(&self) -> String {
        self.tenant.lock().map(|t| t.clone()).unwrap_or_default()
    }

    /// Re-labels the tenant (the embedded path mints before it knows).
    pub fn set_tenant(&self, tenant: &str) {
        if let Ok(mut t) = self.tenant.lock() {
            *t = tenant.to_string();
        }
    }

    /// The session-registry query id, 0 until assigned.
    pub fn query_id(&self) -> u64 {
        self.query_id.load(Ordering::Relaxed)
    }

    /// Associates the session registry's query id with this trace.
    pub fn set_query_id(&self, id: u64) {
        self.query_id.store(id, Ordering::Relaxed);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TraceState {
        match self.state.load(Ordering::Relaxed) {
            STATE_QUEUED => TraceState::Queued,
            STATE_RUNNING => TraceState::Running,
            _ => TraceState::Done,
        }
    }

    /// Marks the query admitted and running.
    pub fn set_running(&self) {
        self.state.store(STATE_RUNNING, Ordering::Relaxed);
    }

    /// Milliseconds since the trace was minted.
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Records time spent waiting in the admission queue.
    pub fn set_queue_wait_us(&self, us: u64) {
        self.queue_wait_us.store(us, Ordering::Relaxed);
    }

    /// Admission queue wait in milliseconds.
    pub fn queue_wait_ms(&self) -> f64 {
        self.queue_wait_us.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Adds produced rows to the live row counter.
    pub fn add_rows(&self, n: u64) {
        self.rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Rows produced so far.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Credits spilled bytes (write side).
    pub fn add_spill_written(&self, bytes: u64) {
        self.spill_bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Credits spilled bytes (read side).
    pub fn add_spill_read(&self, bytes: u64) {
        self.spill_bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total spill traffic (written + read) so far.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes_written.load(Ordering::Relaxed)
            + self.spill_bytes_read.load(Ordering::Relaxed)
    }

    /// Adjusts the live reserved-memory attribution (signed: reservations
    /// add, releases subtract — possibly from a different thread).
    pub fn add_reserved(&self, delta: i64) {
        self.reserved_bytes.fetch_add(delta, Ordering::Relaxed);
    }

    /// Bytes of governor memory currently attributed to this query.
    pub fn reserved_bytes(&self) -> i64 {
        self.reserved_bytes.load(Ordering::Relaxed)
    }

    /// Appends one completed event. `start` must come from the same clock
    /// (an `Instant` captured after the trace was minted).
    pub fn record(
        &self,
        name: &'static str,
        cat: &'static str,
        start: Instant,
        dur: std::time::Duration,
        args: Vec<(&'static str, String)>,
    ) {
        let ts_us = start
            .checked_duration_since(self.started)
            .unwrap_or_default()
            .as_micros() as u64;
        let ev = SpanEvent {
            name,
            cat,
            tid: thread_tid(),
            ts_us,
            dur_us: dur.as_micros() as u64,
            args,
        };
        if let Ok(mut events) = self.events.lock() {
            if events.len() < MAX_EVENTS_PER_TRACE {
                events.push(ev);
                return;
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Opens an RAII span recorded when the guard drops.
    pub fn span(self: &Arc<Self>, name: &'static str, cat: &'static str) -> TraceSpan {
        TraceSpan {
            trace: Arc::clone(self),
            name,
            cat,
            start: Instant::now(),
            args: Vec::new(),
        }
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }
}

/// RAII span: records a [`SpanEvent`] on the owning trace when dropped.
#[derive(Debug)]
pub struct TraceSpan {
    trace: Arc<ActiveTrace>,
    name: &'static str,
    cat: &'static str,
    start: Instant,
    args: Vec<(&'static str, String)>,
}

impl TraceSpan {
    /// Attaches a key/value argument shown in the trace viewer.
    pub fn arg(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.args.push((key, value.into()));
        self
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.trace.record(
            self.name,
            self.cat,
            self.start,
            self.start.elapsed(),
            std::mem::take(&mut self.args),
        );
    }
}

// ------------------------------------------------------------- current

/// The trace of the query this thread is running for, if it is sampled
/// (see [`crate::context`]).
pub fn current() -> Option<Arc<ActiveTrace>> {
    crate::context::with_current(|c| c.and_then(|c| c.trace().cloned()))
}

// ------------------------------------------------------- completed traces

/// An immutable, finished trace held by the flight recorder's ring.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTrace {
    /// The trace id.
    pub id: TraceId,
    /// The SQL text.
    pub sql: String,
    /// Tenant label.
    pub tenant: String,
    /// Session-registry query id (0 if never assigned).
    pub query_id: u64,
    /// End-to-end wall time, microseconds.
    pub dur_us: u64,
    /// Admission queue wait, microseconds.
    pub queue_wait_us: u64,
    /// Rows produced.
    pub rows: u64,
    /// Spill bytes written.
    pub spill_bytes_written: u64,
    /// Spill bytes read.
    pub spill_bytes_read: u64,
    /// Events dropped past [`MAX_EVENTS_PER_TRACE`].
    pub dropped_events: u64,
    /// Error message if the query failed.
    pub error: Option<String>,
    /// The recorded spans.
    pub events: Vec<SpanEvent>,
}

impl CompletedTrace {
    /// Serializes the trace as Chrome trace-event JSON — a single object
    /// with a `traceEvents` array of `ph:"X"` complete events plus
    /// `ph:"M"` thread-name metadata, loadable in Perfetto or
    /// `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let pid = u64::from(std::process::id());
        let mut items: Vec<String> = Vec::with_capacity(self.events.len() + 8);

        // One umbrella event spanning the whole query on pseudo-tid 0.
        let mut top = ObjectWriter::new();
        top.string("name", "query")
            .string("cat", "query")
            .string("ph", "X")
            .integer("ts", 0)
            .integer("dur", self.dur_us)
            .integer("pid", pid)
            .integer("tid", 0);
        let mut top_args = ObjectWriter::new();
        top_args
            .string("sql", &self.sql)
            .string("trace_id", &self.id.to_string())
            .string("tenant", &self.tenant)
            .integer("query_id", self.query_id)
            .integer("rows", self.rows)
            .integer("queue_wait_us", self.queue_wait_us)
            .integer("spill_bytes_written", self.spill_bytes_written)
            .integer("spill_bytes_read", self.spill_bytes_read)
            .integer("dropped_events", self.dropped_events);
        if let Some(err) = &self.error {
            top_args.string("error", err);
        }
        let top_args = top_args.finish();
        items.push({
            let mut o = top;
            o.raw("args", &top_args);
            o.finish()
        });

        let mut tids_seen = std::collections::BTreeSet::new();
        tids_seen.insert(0u64);
        for ev in &self.events {
            let mut o = ObjectWriter::new();
            o.string("name", ev.name)
                .string("cat", ev.cat)
                .string("ph", "X")
                .integer("ts", ev.ts_us)
                .integer("dur", ev.dur_us)
                .integer("pid", pid)
                .integer("tid", ev.tid);
            if !ev.args.is_empty() {
                let mut a = ObjectWriter::new();
                for (k, v) in &ev.args {
                    a.string(k, v);
                }
                let a = a.finish();
                o.raw("args", &a);
            }
            items.push(o.finish());
            tids_seen.insert(ev.tid);
        }

        // Thread-name metadata so the viewer labels each lane.
        let names = thread_names().lock().map(|n| n.clone()).unwrap_or_default();
        for tid in tids_seen {
            let name = if tid == 0 {
                "query".to_string()
            } else {
                names.get(&tid).cloned().unwrap_or_else(|| format!("thread-{tid}"))
            };
            items.push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \
                 \"tid\": {tid}, \"args\": {{\"name\": \"{}\"}}}}",
                escape(&name)
            ));
        }

        let mut doc = ObjectWriter::new();
        let events = array(items);
        doc.raw("traceEvents", &events)
            .string("displayTimeUnit", "ms");
        doc.finish()
    }

    /// Wall times of the named spans, for quick assertions.
    pub fn span_names(&self) -> Vec<&'static str> {
        self.events.iter().map(|e| e.name).collect()
    }

    /// Whether any recorded event has the given name.
    pub fn has_span(&self, name: &str) -> bool {
        self.events.iter().any(|e| e.name == name)
    }
}

// ---------------------------------------------------------- the recorder

/// The process-wide trace registry: in-flight traces (backing
/// `SHOW QUERIES`) plus a bounded ring of completed ones (backing
/// `EXPLAIN TRACE`, `\trace`, and `--trace-dir`).
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: AtomicBool,
    sample_every: AtomicU64,
    seq: AtomicU64,
    capacity: AtomicUsize,
    active: Mutex<BTreeMap<u64, Arc<ActiveTrace>>>,
    completed: Mutex<VecDeque<Arc<CompletedTrace>>>,
}

impl FlightRecorder {
    fn new() -> FlightRecorder {
        let capacity = std::env::var("LARDB_TRACE_CAPACITY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_RING_CAPACITY);
        FlightRecorder {
            enabled: AtomicBool::new(true),
            sample_every: AtomicU64::new(1),
            seq: AtomicU64::new(0),
            capacity: AtomicUsize::new(capacity),
            active: Mutex::new(BTreeMap::new()),
            completed: Mutex::new(VecDeque::new()),
        }
    }

    /// Turns tracing on/off process-wide.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether tracing is currently enabled.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Trace 1 of every `n` queries (`1` = every query, the default).
    /// `0` is treated as `1`.
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    /// Current sampling divisor.
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Resizes the completed-trace ring, evicting oldest entries if the
    /// new capacity is smaller.
    pub fn set_capacity(&self, n: usize) {
        let n = n.max(1);
        self.capacity.store(n, Ordering::Relaxed);
        if let Ok(mut ring) = self.completed.lock() {
            while ring.len() > n {
                ring.pop_front();
            }
        }
    }

    /// Current ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Mints a trace for `sql` if tracing is enabled and this query is
    /// sampled; `None` otherwise (the query runs untraced).
    pub fn start(&self, sql: &str, tenant: &str) -> Option<Arc<ActiveTrace>> {
        if !self.enabled() {
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if !seq.is_multiple_of(self.sample_every()) {
            return None;
        }
        Some(self.start_forced(sql, tenant))
    }

    /// Mints a trace unconditionally (EXPLAIN TRACE, tests).
    pub fn start_forced(&self, sql: &str, tenant: &str) -> Arc<ActiveTrace> {
        let trace = Arc::new(ActiveTrace::new(TraceId::mint(), sql, tenant));
        if let Ok(mut active) = self.active.lock() {
            active.insert(trace.id().0, Arc::clone(&trace));
        }
        trace
    }

    /// Looks up an in-flight trace by raw id (exchange receivers resolve
    /// the wire-propagated id through this).
    pub fn lookup(&self, raw_id: u64) -> Option<Arc<ActiveTrace>> {
        self.active.lock().ok()?.get(&raw_id).cloned()
    }

    /// Snapshot of all in-flight traces, ordered by id.
    pub fn active_snapshot(&self) -> Vec<Arc<ActiveTrace>> {
        self.active
            .lock()
            .map(|a| a.values().cloned().collect())
            .unwrap_or_default()
    }

    /// Completes a trace: removes it from the active map, freezes its
    /// events, pushes it into the ring (evicting the oldest past
    /// capacity), and returns the frozen record.
    pub fn finish(&self, trace: &Arc<ActiveTrace>, error: Option<&str>) -> Arc<CompletedTrace> {
        trace.state.store(STATE_DONE, Ordering::Relaxed);
        if let Ok(mut active) = self.active.lock() {
            active.remove(&trace.id().0);
        }
        let done = Arc::new(CompletedTrace {
            id: trace.id(),
            sql: trace.sql.clone(),
            tenant: trace.tenant(),
            query_id: trace.query_id(),
            dur_us: trace.started.elapsed().as_micros() as u64,
            queue_wait_us: trace.queue_wait_us.load(Ordering::Relaxed),
            rows: trace.rows(),
            spill_bytes_written: trace.spill_bytes_written.load(Ordering::Relaxed),
            spill_bytes_read: trace.spill_bytes_read.load(Ordering::Relaxed),
            dropped_events: trace.dropped.load(Ordering::Relaxed),
            error: error.map(str::to_string),
            events: trace.events(),
        });
        if let Ok(mut ring) = self.completed.lock() {
            ring.push_back(Arc::clone(&done));
            let cap = self.capacity();
            while ring.len() > cap {
                ring.pop_front();
            }
        }
        done
    }

    /// Snapshot of the completed-trace ring, oldest first.
    pub fn completed_snapshot(&self) -> Vec<Arc<CompletedTrace>> {
        self.completed
            .lock()
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The most recently completed trace.
    pub fn last(&self) -> Option<Arc<CompletedTrace>> {
        self.completed.lock().ok()?.back().cloned()
    }

    /// Finds a completed trace by id.
    pub fn find(&self, id: TraceId) -> Option<Arc<CompletedTrace>> {
        self.completed
            .lock()
            .ok()?
            .iter()
            .rev()
            .find(|t| t.id == id)
            .cloned()
    }

    /// Number of completed traces currently retained.
    pub fn completed_len(&self) -> usize {
        self.completed.lock().map(|r| r.len()).unwrap_or(0)
    }
}

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(FlightRecorder::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_nonzero_hex() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_ne!(a.0, 0);
        let s = a.to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn span_guard_records_event_with_args() {
        let t = recorder().start_forced("SELECT 1", "test");
        {
            let _s = t.span("parse", "query").arg("detail", "1 stmt");
        }
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "parse");
        assert_eq!(events[0].cat, "query");
        assert_eq!(events[0].args, vec![("detail", "1 stmt".to_string())]);
        recorder().finish(&t, None);
    }

    #[test]
    fn current_trace_nests_and_restores() {
        use crate::context::{enter, DispatchMode, QueryContext};
        assert!(current().is_none());
        let t = recorder().start_forced("SELECT 1", "test");
        {
            let _g = enter(Some(QueryContext::new(Some(Arc::clone(&t)), DispatchMode::Dense)));
            assert_eq!(current().unwrap().id(), t.id());
            {
                let _inner = enter(Some(QueryContext::new(None, DispatchMode::Dense)));
                assert!(current().is_none());
            }
            assert_eq!(current().unwrap().id(), t.id());
        }
        assert!(current().is_none());
        recorder().finish(&t, None);
    }

    #[test]
    fn ring_buffer_bound_holds_under_churn() {
        let r = FlightRecorder::new();
        r.set_capacity(4);
        let mut ids = Vec::new();
        for i in 0..20 {
            let t = r.start_forced(&format!("SELECT {i}"), "churn");
            ids.push(t.id());
            r.finish(&t, None);
            assert!(r.completed_len() <= 4, "ring exceeded capacity");
        }
        // Newest 4 retained, oldest evicted.
        let kept: Vec<TraceId> = r.completed_snapshot().iter().map(|t| t.id).collect();
        assert_eq!(kept, ids[16..].to_vec());
        assert!(r.find(ids[0]).is_none());
        assert!(r.find(ids[19]).is_some());
    }

    #[test]
    fn sampling_disables_and_divides() {
        let r = FlightRecorder::new();
        r.set_enabled(false);
        assert!(r.start("SELECT 1", "t").is_none());
        r.set_enabled(true);
        r.set_sample_every(4);
        let traced = (0..16).filter(|_| r.start("SELECT 1", "t").is_some()).count();
        assert_eq!(traced, 4);
        r.set_sample_every(1);
        // Forced start ignores sampling entirely.
        r.set_enabled(false);
        let t = r.start_forced("SELECT 1", "t");
        r.finish(&t, None);
        assert!(r.find(t.id()).is_some());
    }

    #[test]
    fn lookup_resolves_only_in_flight_traces() {
        let r = FlightRecorder::new();
        let t = r.start_forced("SELECT 1", "t");
        assert!(r.lookup(t.id().0).is_some());
        r.finish(&t, None);
        assert!(r.lookup(t.id().0).is_none(), "finished trace left active map");
    }

    #[test]
    fn event_cap_counts_drops() {
        let t = Arc::new(ActiveTrace::new(TraceId::mint(), "q", "t"));
        let now = Instant::now();
        for _ in 0..(MAX_EVENTS_PER_TRACE + 10) {
            t.record("e", "c", now, std::time::Duration::ZERO, Vec::new());
        }
        assert_eq!(t.events().len(), MAX_EVENTS_PER_TRACE);
        assert_eq!(t.dropped.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn chrome_json_shape() {
        let t = recorder().start_forced("SELECT \"x\"", "acme");
        t.set_query_id(7);
        t.add_rows(3);
        {
            let _s = t.span("execute", "query");
        }
        let done = recorder().finish(&t, None);
        let json = done.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"M\""));
        assert!(json.contains("\"name\": \"execute\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains(&format!("\"trace_id\": \"{}\"", done.id)));
        assert!(json.contains("\"sql\": \"SELECT \\\"x\\\"\""));
        assert!(json.contains("\"rows\": 3"));
    }

    #[test]
    fn failed_queries_keep_their_error() {
        let r = FlightRecorder::new();
        let t = r.start_forced("SELECT nope", "t");
        let done = r.finish(&t, Some("unknown column nope"));
        assert_eq!(done.error.as_deref(), Some("unknown column nope"));
        assert!(done.to_chrome_json().contains("unknown column nope"));
    }
}
