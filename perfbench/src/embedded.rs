//! The run shared by the two workloads that drive one embedded `Database`
//! from one session (`la_dense`, `relational`): repeated set-up, a warm-up
//! job, the measured window, and — for the traced run — a second window
//! with tracing on plus a served replay that prices the server layer.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lardb::{Database, DatabaseConfig, Row, TransportMode};
use lardb_server::{Client, Server, ServerConfig};

use crate::layers::{self, LayerRun};
use crate::probes::LaShapes;
use crate::report::{median, ms, Report};
use crate::session::{Conn, Issued, Kind, Layers, Session, Traced};
use crate::trace::Tracer;
use crate::{out_dir, Args};

/// Simulated shared-nothing workers per database.
pub const WORKERS: usize = 4;
/// Threads in the engine's worker pool. The thread that runs a statement
/// helps drain the pool while it waits, so one pool thread plus the
/// caller keep the two cores this benchmark is sized for busy without
/// oversubscribing them.
pub const POOL_WORKERS: usize = 1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

pub fn config(transport: TransportMode, spill_dir: &Path) -> DatabaseConfig {
    DatabaseConfig {
        workers: WORKERS,
        pool_workers: Some(POOL_WORKERS),
        transport,
        spill_dir: Some(spill_dir.to_path_buf()),
        ..DatabaseConfig::default()
    }
}

/// Bytes and time of the bulk loads of one set-up.
#[derive(Default)]
pub struct Load {
    bytes: f64,
    secs: f64,
}

impl Load {
    /// Loads `rows` into `table` through `Database::insert_rows`, timed.
    pub fn insert(&mut self, db: &Database, table: &str, rows: Vec<Row>) -> Result<(), String> {
        self.bytes += rows
            .iter()
            .flat_map(|r| r.values().iter().map(lardb_net::codec::encoded_value_size))
            .sum::<usize>() as f64;
        let t0 = Instant::now();
        db.insert_rows(table, rows)
            .map_err(|e| format!("load {table}: {e}"))?;
        self.secs += t0.elapsed().as_secs_f64();
        Ok(())
    }

    pub fn mbps(&self) -> f64 {
        self.bytes / self.secs.max(1e-9) / 1e6
    }
}

pub fn ddl(db: &Database, sql: &str) -> Result<(), String> {
    db.execute(sql)
        .map(|_| ())
        .map_err(|e| format!("set-up statement failed: {e}: {sql}"))
}

/// One workload that runs as repeated jobs on one embedded database.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// A fresh database with the workload's tables, views and the job log
    /// loaded.
    fn setup(&self, spill_dir: &Path) -> Result<(Database, Load), String>;
    /// One job: its statements, their output checks, and its job-log
    /// writes.
    fn job(&self, s: &mut Session<'_>, log: &mut JobLog, job: u64);
    /// A sample of the rows and tiles the workload moves, for the codec
    /// and spill probes.
    fn probe_rows(&self) -> Vec<Row>;
    fn shapes(&self) -> LaShapes;
    /// Sizes and tolerances, printed with the result.
    fn notes(&self) -> Vec<String>;
}

/// The job log every embedded job writes to: one row per statement it
/// ran, and a maintained `SUM`/`COUNT` view over them that the job reads
/// back at its end, checked against a Rust fold. These are the reads and
/// writes of the embedded workloads (the read follows writes, so it finds
/// its plan invalidated, as on the served dashboard); `job_log_twin` has
/// the same rows and no view, so the traced run can price view
/// maintenance.
#[derive(Default)]
pub struct JobLog {
    /// stmt → (runs, rows, oks), folded in Rust from the inserted rows.
    fold: BTreeMap<i64, (i64, i64, i64)>,
}

impl JobLog {
    pub const DDL: [&'static str; 3] = [
        "CREATE TABLE job_log (job INTEGER, stmt INTEGER, nrows INTEGER, ok INTEGER)",
        "CREATE TABLE job_log_twin (job INTEGER, stmt INTEGER, nrows INTEGER, ok INTEGER)",
        "CREATE MATERIALIZED VIEW job_summary AS \
         SELECT stmt, COUNT(*) AS runs, SUM(nrows) AS total_rows, SUM(ok) AS oks \
         FROM job_log GROUP BY stmt",
    ];
    pub const TWINS: [(&'static str, &'static str); 1] = [("job_log", "job_log_twin")];

    pub fn write(&mut self, s: &mut Session<'_>, job: u64, stmt: i64, nrows: usize, ok: bool) {
        let sql = format!(
            "INSERT INTO job_log VALUES ({job}, {stmt}, {nrows}, {})",
            ok as i64
        );
        if s.exec(&sql, Kind::Write).is_some() {
            let e = self.fold.entry(stmt).or_default();
            e.0 += 1;
            e.1 += nrows as i64;
            e.2 += ok as i64;
        }
    }

    /// Reads the view back and checks it against the fold.
    pub fn read_check(&mut self, s: &mut Session<'_>) {
        let Some(out) = s.exec(
            "SELECT stmt, runs, total_rows, oks FROM job_summary",
            Kind::Read,
        ) else {
            return;
        };
        let got: BTreeMap<i64, (i64, i64, i64)> = out
            .iter()
            .filter_map(|r| {
                let v = |i: usize| r.value(i).as_integer();
                Some((v(0)?, (v(1)?, v(2)?, v(3)?)))
            })
            .collect();
        let ok = got == self.fold && out.len() == self.fold.len();
        s.check(ok, || {
            format!("job_summary {got:?} != fold {:?}", self.fold)
        });
    }
}

/// One measured window of jobs.
#[derive(Default)]
pub struct Phase {
    /// Statement time of each job, ms.
    pub job_ms: Vec<f64>,
    /// Bytes shuffled by each job, MB.
    pub shuffle_mb: Vec<f64>,
    pub statements: u64,
    /// Total statement time, ms.
    pub busy_ms: f64,
}

/// Runs jobs until `seconds` have passed (at least one job).
pub fn run_jobs(
    s: &mut Session<'_>,
    seconds: f64,
    next_job: &mut u64,
    mut job: impl FnMut(&mut Session<'_>, u64),
) -> Phase {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let before = s.attempted;
    let mut p = Phase::default();
    loop {
        s.begin_job(*next_job);
        job(s, *next_job);
        *next_job += 1;
        let (job_ms, exec) = s.end_job();
        p.job_ms.push(job_ms);
        p.shuffle_mb.push(exec.shuffle_bytes / 1e6);
        p.busy_ms += job_ms;
        if Instant::now() >= deadline {
            break;
        }
    }
    p.statements = s.attempted - before;
    p
}

pub fn run<W: Workload>(w: &W, args: &Args) -> Result<Report, String> {
    let spill_dir = out_dir().join(format!("spill-{}", std::process::id()));
    let result = run_in(w, args, &spill_dir);
    let _ = std::fs::remove_dir_all(&spill_dir);
    result
}

fn run_in<W: Workload>(w: &W, args: &Args, spill_dir: &Path) -> Result<Report, String> {
    let tracer = Tracer::default();
    let layers = Mutex::new(Layers::default());
    let mut r = Report::default();
    for n in w.notes() {
        r.note(n);
    }

    let mut setup_s = Vec::new();
    let mut load_mbps = Vec::new();
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take());
        let t0 = Instant::now();
        let (fresh, load) = w.setup(spill_dir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        load_mbps.push(load.mbps());
        db = Some(fresh);
    }
    let db = db.expect("at least one set-up");

    let mut log = JobLog::default();
    let mut s = Session::new(Conn::Embedded(db.clone()), 0);
    let mut next_job = 0;
    // Warm-up: the first job fills the plan cache and touches every table.
    s.begin_job(next_job);
    w.job(&mut s, &mut log, next_job);
    s.end_job();
    next_job += 1;
    s.reads.clear();
    s.writes.clear();
    s.record = true;

    // The traced run splits its time between an untraced and a traced
    // window, so tracing overhead compares like with like.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let u = run_jobs(&mut s, window, &mut next_job, |s, k| w.job(s, &mut log, k));
    r.note(statement_medians(&s.stream));
    if !args.trace {
        crate::report::end_to_end(
            &mut r,
            crate::report::EndToEnd {
                setup_s: &setup_s,
                job_ms: &u.job_ms,
                stmt_per_s: u.statements as f64 / (u.busy_ms / 1e3),
                shuffle_mb: median(&u.shuffle_mb),
                reads: &s.reads,
                writes: &s.writes,
            },
        );
    } else {
        let stream = std::mem::take(&mut s.stream);
        s.record = false;
        s.traced = Some(Traced {
            tracer: &tracer,
            layers: &layers,
            twins: &JobLog::TWINS,
        });
        let t = run_jobs(&mut s, window, &mut next_job, |s, k| w.job(s, &mut log, k));
        s.traced = None;
        let path = out_dir().join(format!("spans-{}-{}.json", w.name(), args.seed));
        tracer
            .write_chrome_json(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        r.note(format!("spans written to {}", path.display()));
        r.note(tracer.self_time_summary());
        let (read_over, write_over) = server_overhead(&db, &stream, &mut r)?;
        let probe_rows = w.probe_rows();
        let totals = layers
            .lock()
            .expect("layer totals poisoned by a panicking client");
        layers::report(
            &mut r,
            LayerRun {
                layers: &totals,
                jobs: t.job_ms.len(),
                shapes: w.shapes(),
                probe_rows: &probe_rows,
                pool_workers: POOL_WORKERS,
                seed: args.seed,
                read_overhead_ms: read_over,
                write_overhead_ms: write_over,
                load_mbps: median(&load_mbps),
                tracing_overhead_pct: 100.0 * (median(&t.job_ms) / median(&u.job_ms) - 1.0),
            },
            spill_dir,
        )?;
    }
    r.attempted += s.attempted;
    r.failed += s.failed;
    for e in &s.errors {
        r.note(format!("failure: {e}"));
    }
    Ok(r)
}

/// Median latency of each job statement, keyed by its first words.
fn statement_medians(stream: &[Issued]) -> String {
    let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for st in stream.iter().filter(|st| st.kind == Kind::Other) {
        let words: Vec<&str> = st.sql.split_whitespace().take(5).collect();
        by.entry(words.join(" ")).or_default().push(st.ms);
    }
    let parts: Vec<String> = by
        .iter()
        .map(|(k, v)| format!("[{k}] {:.2}", median(v)))
        .collect();
    format!("job statement medians, ms: {}", parts.join("; "))
}

/// Replays the reads and writes of the first five recorded jobs through an
/// in-process server on the same database and returns the served latency
/// minus the embedded latency of the same statements, `(read, write)` in
/// ms. Reads compare statement by statement; writes (each a distinct
/// job-log row) compare medians.
fn server_overhead(db: &Database, stream: &[Issued], r: &mut Report) -> Result<(f64, f64), String> {
    let mut embedded_reads: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut embedded_writes = Vec::new();
    for st in stream {
        match st.kind {
            Kind::Read => embedded_reads.entry(&st.sql).or_default().push(st.ms),
            Kind::Write => embedded_writes.push(st.ms),
            Kind::Other => {}
        }
    }
    let first = stream.first().and_then(|st| st.job).unwrap_or(0);
    let server = Server::start(db.clone(), ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    let mut client = Client::connect(&server.local_addr().to_string(), "bench", "")
        .map_err(|e| format!("connect: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut read_over = Vec::new();
    let mut served_writes = Vec::new();
    for st in stream.iter().filter(|st| st.kind != Kind::Other) {
        if st.job.is_some_and(|j| j > first + 4) || Instant::now() > deadline {
            break;
        }
        r.attempted += 1;
        let t0 = Instant::now();
        if let Err(e) = client.query(&st.sql) {
            r.failed += 1;
            r.note(format!("failure: served replay: {e}"));
            continue;
        }
        let served = ms(t0.elapsed());
        match st.kind {
            Kind::Read => read_over.push(served - median(&embedded_reads[st.sql.as_str()])),
            _ => served_writes.push(served),
        }
    }
    let _ = client.close();
    server.shutdown();
    Ok((
        median(&read_over),
        median(&served_writes) - median(&embedded_writes),
    ))
}
