//! One client's connection to the engine, embedded or over the wire, with
//! the bookkeeping every workload shares: statement counts and failures,
//! read and write latencies, the statement stream (for replays), and — in
//! the traced run — per-layer timings taken around each crate's public
//! calls.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use lardb::{Database, ExecStats, QueryProfile, Response, Row, Schema};
use lardb_planner::physical::PhysicalPlanner;
use lardb_planner::{Optimizer, OptimizerConfig};
use lardb_server::{Client, QueryOutput};
use lardb_sql::{parse_statement, Binder, Statement};

use crate::report::ms;
use crate::trace::Tracer;

/// How a statement counts towards the latency metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Read,
    Write,
    /// Counted as a statement, but in neither latency sample.
    Other,
}

/// A statement as issued, for replays.
#[derive(Clone)]
pub struct Issued {
    pub sql: String,
    pub kind: Kind,
    /// The job this statement belongs to, if any.
    pub job: Option<u64>,
    /// Its latency, ms (0 if it failed).
    pub ms: f64,
}

// One per client thread, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Conn {
    Embedded(Database),
    Served(Client),
}

/// Execution counters summed over statements.
#[derive(Default, Clone, Copy)]
pub struct ExecTotals {
    pub execute_ms: f64,
    pub join_ms: f64,
    pub agg_ms: f64,
    pub exchange_ms: f64,
    pub scan_filter_ms: f64,
    pub shuffle_bytes: f64,
    pub frames: f64,
    pub enqueue_block_ms: f64,
    pub spill_bytes: f64,
    pub spill_files: f64,
    pub batch_rows: f64,
    pub scanned_rows: f64,
    pub kernels: f64,
    pub fallbacks: f64,
    pub dispatch_sparse: f64,
    pub dispatch_all: f64,
}

/// Operator kinds by label, as the executor names them.
fn op_kind(label: &str) -> Option<&'static str> {
    if label.starts_with("Exchange")
        || label.starts_with("Gather")
        || label.starts_with("Broadcast")
    {
        Some("exchange")
    } else if label.contains("Join") || label.contains("Cross") {
        Some("join")
    } else if label.contains("Agg") {
        Some("agg")
    } else if ["TableScan", "Filter", "Project"]
        .iter()
        .any(|p| label.starts_with(p))
    {
        Some("scan_filter")
    } else {
        None
    }
}

impl ExecTotals {
    fn add_op(&mut self, label: &str, wall_ms: f64) {
        self.execute_ms += wall_ms;
        match op_kind(label) {
            Some("exchange") => self.exchange_ms += wall_ms,
            Some("join") => self.join_ms += wall_ms,
            Some("agg") => self.agg_ms += wall_ms,
            Some("scan_filter") => self.scan_filter_ms += wall_ms,
            _ => {}
        }
    }

    pub fn add_stats(&mut self, s: &ExecStats) {
        for op in s.operators() {
            self.add_op(&op.label, ms(op.wall));
            if op.label.starts_with("TableScan") {
                self.scanned_rows += op.rows_out as f64;
            }
        }
        self.shuffle_bytes += s.total_bytes_shuffled() as f64;
        self.frames += s.total_frames() as f64;
        self.enqueue_block_ms += ms(s.total_enqueue_block());
        self.spill_bytes += s.total_spill_bytes() as f64;
        self.spill_files += s.total_spill_files() as f64;
        self.batch_rows += s.total_batch_rows() as f64;
        self.kernels += s.total_kernels() as f64;
        self.fallbacks += s.total_fallbacks() as f64;
        let d = s.dispatch;
        self.dispatch_sparse += d.sparse_total() as f64;
        self.dispatch_all += (d.dense + d.skipzero + d.sparse_total()) as f64;
    }

    /// A statement that returns no rows (CREATE TABLE AS) hands back no
    /// `ExecStats`; its profile carries operator times and exchange bytes.
    pub fn add_profile(&mut self, p: &QueryProfile) {
        for op in &p.operators {
            self.add_op(&op.label, op.wall_ms);
            if op.label.starts_with("Exchange") {
                self.shuffle_bytes += op.actual_bytes;
            }
            if op.label.starts_with("TableScan") {
                self.scanned_rows += op.actual_rows;
            }
        }
    }

    pub fn add(&mut self, o: &ExecTotals) {
        self.execute_ms += o.execute_ms;
        self.join_ms += o.join_ms;
        self.agg_ms += o.agg_ms;
        self.exchange_ms += o.exchange_ms;
        self.scan_filter_ms += o.scan_filter_ms;
        self.shuffle_bytes += o.shuffle_bytes;
        self.frames += o.frames;
        self.enqueue_block_ms += o.enqueue_block_ms;
        self.spill_bytes += o.spill_bytes;
        self.spill_files += o.spill_files;
        self.batch_rows += o.batch_rows;
        self.scanned_rows += o.scanned_rows;
        self.kernels += o.kernels;
        self.fallbacks += o.fallbacks;
        self.dispatch_sparse += o.dispatch_sparse;
        self.dispatch_all += o.dispatch_all;
    }
}

/// Per-layer sums over the traced phase.
#[derive(Default)]
pub struct Layers {
    pub statements: u64,
    pub parse_ms: f64,
    pub bind_ms: f64,
    pub optimize_ms: f64,
    pub physical_ms: f64,
    pub core_self_ms: f64,
    pub mv_maintain_ms: f64,
    pub exec: ExecTotals,
    pub join_qerror_max: f64,
    pub shuffle_est_bytes: f64,
    pub shuffle_act_bytes: f64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

impl Layers {
    pub fn merge(&mut self, o: &Layers) {
        self.statements += o.statements;
        self.parse_ms += o.parse_ms;
        self.bind_ms += o.bind_ms;
        self.optimize_ms += o.optimize_ms;
        self.physical_ms += o.physical_ms;
        self.core_self_ms += o.core_self_ms;
        self.mv_maintain_ms += o.mv_maintain_ms;
        self.exec.add(&o.exec);
        self.join_qerror_max = self.join_qerror_max.max(o.join_qerror_max);
        self.shuffle_est_bytes += o.shuffle_est_bytes;
        self.shuffle_act_bytes += o.shuffle_act_bytes;
        self.cache_hits += o.cache_hits;
        self.cache_lookups += o.cache_lookups;
    }
}

/// `max(a/b, b/a)` with both floored at 1, the usual q-error.
pub fn q_error(est: f64, actual: f64) -> f64 {
    let (e, a) = (est.max(1.0), actual.max(1.0));
    (e / a).max(a / e)
}

/// Tracing state shared by every traced session of a run.
pub struct Traced<'t> {
    pub tracer: &'t Tracer,
    pub layers: &'t Mutex<Layers>,
    /// `(table, twin)`: an INSERT into `table` (which has a maintained
    /// materialized view) is repeated into `twin` (which has none), and
    /// the difference is the view-maintenance time.
    pub twins: &'t [(&'t str, &'t str)],
}

pub struct Session<'t> {
    pub conn: Conn,
    pub thread: u32,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub reads: Vec<f64>,
    pub writes: Vec<f64>,
    /// Statements issued, recorded for replays when `record` is set.
    pub stream: Vec<Issued>,
    pub record: bool,
    /// The job the next statements belong to.
    pub job: Option<u64>,
    /// Statement time of the current job, ms.
    pub job_ms: f64,
    /// Execution counters of the current job (embedded statements that
    /// return rows; the served client sees no executor statistics).
    pub job_exec: ExecTotals,
    pub traced: Option<Traced<'t>>,
}

impl<'t> Session<'t> {
    pub fn new(conn: Conn, thread: u32) -> Self {
        Session {
            conn,
            thread,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            stream: Vec::new(),
            record: false,
            job: None,
            job_ms: 0.0,
            job_exec: ExecTotals::default(),
            traced: None,
        }
    }

    fn note_failure(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Counts a failed output check against the statement just run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.note_failure(format!("check failed: {}", what()));
        }
    }

    pub fn begin_job(&mut self, job: u64) {
        self.job = Some(job);
        self.job_ms = 0.0;
        self.job_exec = ExecTotals::default();
    }

    pub fn end_job(&mut self) -> (f64, ExecTotals) {
        self.job = None;
        (self.job_ms, self.job_exec)
    }

    /// Runs one statement and returns its rows. Errors are counted and
    /// return `None`.
    pub fn exec(&mut self, sql: &str, kind: Kind) -> Option<Vec<Row>> {
        self.attempted += 1;
        if self.record {
            self.stream.push(Issued {
                sql: sql.to_string(),
                kind,
                job: self.job,
                ms: 0.0,
            });
        }
        let t0 = Instant::now();
        let res = match &mut self.conn {
            Conn::Embedded(db) => {
                let run = match &self.traced {
                    Some(t) => exec_traced(db, t, self.thread, sql),
                    None => db
                        .execute(sql)
                        .map_err(|e| e.to_string())
                        .map(|r| (r, t0.elapsed())),
                };
                run.map(|(resp, dur)| {
                    let rows = match resp {
                        Response::Rows(q) => {
                            self.job_exec.add_stats(&q.stats);
                            q.rows
                        }
                        // CREATE TABLE AS returns no ExecStats; its profile
                        // has the exchange bytes the job moved.
                        _ => {
                            if self.job.is_some() {
                                if let Some(p) = db.last_profile().filter(|p| p.query == sql) {
                                    let mut e = ExecTotals::default();
                                    e.add_profile(&p);
                                    self.job_exec.shuffle_bytes += e.shuffle_bytes;
                                }
                            }
                            Vec::new()
                        }
                    };
                    (rows, dur)
                })
            }
            Conn::Served(c) => c.query(sql).map_err(|e| e.to_string()).map(|out| {
                let dur = t0.elapsed();
                match out {
                    QueryOutput::Rows { rows, .. } => (rows, dur),
                    _ => (Vec::new(), dur),
                }
            }),
        };
        match res {
            Ok((rows, dur)) => {
                let latency = ms(dur);
                match kind {
                    Kind::Read => self.reads.push(latency),
                    Kind::Write => self.writes.push(latency),
                    Kind::Other => {}
                }
                if self.job.is_some() {
                    self.job_ms += latency;
                }
                if let (true, Some(last)) = (self.record, self.stream.last_mut()) {
                    last.ms = latency;
                }
                Some(rows)
            }
            Err(e) => {
                let short: String = sql.chars().take(60).collect();
                self.note_failure(format!("{short}…: {e}"));
                None
            }
        }
    }
}

/// Runs `sql` through `Database::execute` under a `core.execute` span,
/// then repeats the front-end calls the engine makes (parse, bind,
/// optimize, physical planning) under their own spans so each layer is
/// timed from outside through its public functions. Front-end time is
/// charged to the statement only when the plan cache did not serve it.
fn exec_traced(
    db: &Database,
    t: &Traced<'_>,
    thread: u32,
    sql: &str,
) -> Result<(Response, Duration), String> {
    let tracer = t.tracer;
    let stmt = tracer.open(0, thread, "stmt");
    let root = stmt.id();
    let before = db.plan_cache_stats();
    let (res, core) = tracer.time(root, thread, "core.execute", || db.execute(sql));
    let after = db.plan_cache_stats();
    let res = res.map_err(|e| e.to_string());
    // A statement that rows come back from carries its ExecStats; one
    // that returns none (CREATE TABLE AS) is read from its profile, when
    // no concurrent statement has replaced it yet.
    let profile = match &res {
        Ok(Response::Rows(_)) | Err(_) => None,
        Ok(_) => db
            .last_profile()
            .filter(|p| p.query == sql && !p.operators.is_empty()),
    };

    let catalog = db.catalog();
    let mut l = Layers {
        statements: 1,
        ..Layers::default()
    };
    let hits = after.hits.saturating_sub(before.hits);
    let misses = after.misses.saturating_sub(before.misses);
    l.cache_hits = hits;
    l.cache_lookups = hits + misses;
    let front_end_ran = hits == 0;

    let (parsed, parse) = tracer.time(root, thread, "sql.parse", || parse_statement(sql));
    let mut front = parse;
    let mut physical_d = Duration::ZERO;
    let mut estimates = None;
    match parsed {
        Ok(Statement::Select(q)) | Ok(Statement::CreateTableAs { query: q, .. }) => {
            let gather = sql.trim_start().to_ascii_uppercase().starts_with("SELECT");
            let (bound, bind) = tracer.time(root, thread, "sql.bind", || {
                Binder::new(catalog).bind_select(&q)
            });
            l.bind_ms = ms(bind);
            front += bind;
            if let Ok(plan) = bound {
                let (opt, optimize) = tracer.time(root, thread, "planner.optimize", || {
                    Optimizer::new(catalog, OptimizerConfig::default()).optimize(plan)
                });
                l.optimize_ms = ms(optimize);
                front += optimize;
                if let Ok(opt) = opt {
                    let (est, d) = tracer.time(root, thread, "planner.physical", || {
                        let mut pp = PhysicalPlanner::new(catalog, catalog);
                        let phys = if gather {
                            pp.plan_gathered(&opt)
                        } else {
                            pp.plan(&opt)
                        };
                        phys.map(|p| pp.estimates(&p))
                    });
                    physical_d = d;
                    estimates = est.ok();
                }
            }
        }
        Ok(Statement::Insert { rows, .. }) => {
            let (_, bind) = tracer.time(root, thread, "sql.bind", || {
                let binder = Binder::new(catalog);
                let empty = Schema::default();
                rows.iter()
                    .flatten()
                    .all(|e| binder.bind_expr(e, &empty).is_ok())
            });
            l.bind_ms = ms(bind);
            front += bind;
        }
        _ => {}
    }
    l.parse_ms = ms(parse);
    l.physical_ms = ms(physical_d);
    if !front_end_ran {
        l.parse_ms = 0.0;
        l.bind_ms = 0.0;
        l.optimize_ms = 0.0;
    }

    let mut exec = ExecTotals::default();
    match (&res, &profile) {
        (Ok(Response::Rows(q)), _) => {
            exec.add_stats(&q.stats);
            if let Some(est) = &estimates {
                let mut est_shuffle = 0.0;
                for op in q.stats.operators() {
                    let Some(e) = est.get(&op.id) else { continue };
                    if op.label.contains("Join") {
                        l.join_qerror_max =
                            l.join_qerror_max.max(q_error(e.rows, op.rows_out as f64));
                    }
                    if op.label.starts_with("Exchange") {
                        est_shuffle += e.total_bytes();
                    }
                }
                l.shuffle_est_bytes = est_shuffle;
                l.shuffle_act_bytes = q.stats.total_bytes_shuffled() as f64;
            }
        }
        (_, Some(p)) => exec.add_profile(p),
        _ => {}
    }
    l.exec = exec;

    let charged_front = if front_end_ran { front } else { Duration::ZERO };
    l.core_self_ms = ms(core) - ms(charged_front) - l.physical_ms - exec.execute_ms;

    if let Some((table, twin)) = t.twins.iter().find(|(table, _)| {
        sql.strip_prefix("INSERT INTO ")
            .is_some_and(|rest| rest.starts_with(&format!("{table} ")))
    }) {
        let twin_sql = sql.replacen(
            &format!("INSERT INTO {table} "),
            &format!("INSERT INTO {twin} "),
            1,
        );
        let (twin_res, twin_d) =
            tracer.time(root, thread, "core.twin_insert", || db.execute(&twin_sql));
        if twin_res.is_ok() {
            l.mv_maintain_ms = ms(core) - ms(twin_d);
        }
    }
    // The statement's latency in the traced run is the whole traced
    // span, so the traced run's job time carries the tracing overhead.
    let total = tracer.close(stmt);
    t.layers
        .lock()
        .expect("layer totals poisoned by a panicking client")
        .merge(&l);
    res.map(|r| (r, total))
}
