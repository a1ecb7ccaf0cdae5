//! `served_mix`: an in-process `lardb_server::Server` on loopback with two
//! client connections in a closed loop. One client iterates PageRank over
//! a `MATRIX_FROM_ENTRIES` graph (create the next rank table, read the
//! delta, drop the old table); the other inserts batches into a table
//! with a maintained `SUM`/`COUNT` view and reads the view back. Many
//! small statements make the front end, plan cache, view maintenance, DDL
//! invalidation and the server most of the work; writes run beside reads.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use lardb::{DataType, Database, Partitioning, Row, Schema, TransportMode, Value};
use lardb_server::{Client, Server, ServerConfig};

use crate::embedded::{config, ddl, Load, POOL_WORKERS, SETUPS};
use crate::gen::Rng;
use crate::layers::{self, LayerRun};
use crate::oracle::{self, DAMPING};
use crate::probes::LaShapes;
use crate::report::{end_to_end, median, EndToEnd, Report};
use crate::session::{Conn, Issued, Kind, Layers, Session, Traced};
use crate::trace::Tracer;
use crate::{out_dir, Args};

/// Graph nodes, and extra random out-edges per node (besides one fixed
/// edge that keeps every node reachable).
const NODES: usize = 20_000;
const EXTRA_EDGES: u64 = 6;
/// PageRank restarts from the uniform vector every ROUND iterations, so
/// deltas stay well above rounding noise.
const ROUND: usize = 20;
/// Initial dashboard rows, rows per INSERT, and groups.
const EVENTS0: usize = 2_000;
const BATCH: usize = 20;
const GROUPS: u64 = 16;
const TOL: f64 = 1e-9;

const TWINS: [(&str, &str); 1] = [("events", "events_twin")];
const READ_GROUPS: &str = "SELECT grp, n, total FROM ev_summary";
const READ_TOTALS: &str =
    "SELECT COUNT(*) AS groups, SUM(n) AS rows, SUM(total) AS total FROM ev_summary";

struct Inputs {
    /// `(dst, src, weight)`, sorted, column-stochastic.
    edges: Vec<(usize, usize, f64)>,
    events0: Vec<(i64, i64)>,
    /// Reference ranks of one round, `ROUND + 1` vectors.
    ranks: Vec<Vec<f64>>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut edges = Vec::new();
        for src in 0..NODES {
            let mut targets = vec![(src * 7 + 1) % NODES];
            for _ in 0..rng.below(EXTRA_EDGES + 1) {
                targets.push(rng.below(NODES as u64) as usize);
            }
            targets.sort_unstable();
            targets.dedup();
            let w = 1.0 / targets.len() as f64;
            edges.extend(targets.into_iter().map(|dst| (dst, src, w)));
        }
        edges.sort_by_key(|&(dst, src, _)| (dst, src));
        let events0 = (0..EVENTS0)
            .map(|_| (rng.below(GROUPS) as i64, rng.below(1000) as i64))
            .collect();
        let mut ranks = vec![vec![1.0 / NODES as f64; NODES]];
        for i in 0..ROUND {
            let next = oracle::pagerank_step(NODES, &edges, &ranks[i]);
            ranks.push(next);
        }
        Inputs {
            edges,
            events0,
            ranks,
        }
    }

    fn setup(&self, spill_dir: &Path) -> Result<(Database, Load), String> {
        let db = Database::with_config(config(TransportMode::Pointer, spill_dir));
        let mut load = Load::default();
        use DataType::{Double, Integer};
        let create = |name: &str, cols: &[(&str, DataType)]| {
            db.create_table(name, Schema::from_pairs(cols), Partitioning::RoundRobin)
                .map_err(|e| format!("create {name}: {e}"))
        };
        create(
            "edges",
            &[("dst", Integer), ("src", Integer), ("w", Double)],
        )?;
        let edge_rows = self
            .edges
            .iter()
            .map(|&(d, s, w)| {
                Row::new(vec![
                    Value::Integer(d as i64),
                    Value::Integer(s as i64),
                    Value::Double(w),
                ])
            })
            .collect();
        load.insert(&db, "edges", edge_rows)?;
        create("nodes", &[("id", Integer), ("p", Double)])?;
        let p0 = 1.0 / NODES as f64;
        let node_rows = (0..NODES)
            .map(|i| Row::new(vec![Value::Integer(i as i64), Value::Double(p0)]))
            .collect();
        load.insert(&db, "nodes", node_rows)?;
        ddl(
            &db,
            "CREATE TABLE graph AS SELECT MATRIX_FROM_ENTRIES(dst, src, w) AS m FROM edges",
        )?;
        ddl(&db, &format!("CREATE TABLE rank_0 AS {RANK_START}"))?;
        for t in ["events", "events_twin"] {
            create(t, &[("grp", Integer), ("v", Integer)])?;
        }
        let event_rows: Vec<Row> = self
            .events0
            .iter()
            .map(|&(g, v)| Row::new(vec![Value::Integer(g), Value::Integer(v)]))
            .collect();
        load.insert(&db, "events", event_rows)?;
        ddl(
            &db,
            "CREATE MATERIALIZED VIEW ev_summary AS \
             SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM events GROUP BY grp",
        )?;
        Ok((db, load))
    }
}

const RANK_START: &str = "SELECT VECTORIZE(label_scalar(p, id)) AS x FROM nodes";

/// The PageRank client's position: `rank_{k}` is the live table, `i`
/// iterations into the current round.
struct PageRank<'a> {
    inputs: &'a Inputs,
    k: u64,
    i: usize,
}

impl PageRank<'_> {
    /// One iteration: the job of this workload.
    fn job(&mut self, s: &mut Session<'_>) {
        let (k, i) = (self.k, self.i);
        let teleport = (1.0 - DAMPING) / NODES as f64;
        s.exec(
            &format!(
                "CREATE TABLE rank_{} AS SELECT matrix_vector_multiply(g.m, r.x) * {DAMPING:?} + {teleport:?} AS x \
                 FROM graph AS g, rank_{k} AS r",
                k + 1
            ),
            Kind::Other,
        );
        let delta = s.exec(
            &format!(
                "SELECT inner_product(a.x - b.x, a.x - b.x) AS d FROM rank_{} AS a, rank_{k} AS b",
                k + 1
            ),
            Kind::Other,
        );
        if let Some(out) = delta {
            let want: f64 = self.inputs.ranks[i + 1]
                .iter()
                .zip(&self.inputs.ranks[i])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            let got = out.first().and_then(|r| r.value(0).as_double());
            let ok = out.len() == 1
                && got.is_some_and(|g| (g.sqrt() - want.sqrt()).abs() <= TOL * want.sqrt() + 1e-15);
            s.check(ok, || {
                format!("PageRank delta {got:?} vs power iteration {want:e}")
            });
        }
        s.exec(&format!("DROP TABLE rank_{k}"), Kind::Other);
        self.k += 1;
        self.i += 1;
    }

    /// After a round: check the ranks against the power iteration and
    /// restart from the uniform vector.
    fn end_round(&mut self, s: &mut Session<'_>) {
        let k = self.k;
        if let Some(out) = s.exec(&format!("SELECT x FROM rank_{k}"), Kind::Other) {
            let want = &self.inputs.ranks[ROUND];
            let got = out.first().and_then(|r| r.value(0).as_vector().cloned());
            let ok = out.len() == 1
                && got.as_ref().is_some_and(|v| {
                    v.len() == want.len()
                        && v.as_slice()
                            .iter()
                            .zip(want)
                            .all(|(a, b)| (a - b).abs() <= TOL * b.abs() + 1e-18)
                });
            s.check(ok, || {
                "PageRank ranks differ from the power iteration".into()
            });
        }
        s.exec(&format!("DROP TABLE rank_{k}"), Kind::Other);
        s.exec(
            &format!("CREATE TABLE rank_{} AS {RANK_START}", k + 1),
            Kind::Other,
        );
        self.k += 1;
        self.i = 0;
    }

    fn step(&mut self, s: &mut Session<'_>, job: u64) -> f64 {
        s.begin_job(job);
        self.job(s);
        let (ms, _) = s.end_job();
        if self.i == ROUND {
            self.end_round(s);
        }
        ms
    }
}

/// The dashboard client: INSERT batches, read the view back.
struct Dashboard {
    rng: Rng,
    /// grp → (count, sum), folded from every inserted row.
    fold: BTreeMap<i64, (i64, i64)>,
}

impl Dashboard {
    fn new(seed: u64, inputs: &Inputs) -> Self {
        let mut fold = BTreeMap::new();
        for &(g, v) in &inputs.events0 {
            let e: &mut (i64, i64) = fold.entry(g).or_default();
            e.0 += 1;
            e.1 += v;
        }
        Dashboard {
            rng: Rng::new(seed, 4),
            fold,
        }
    }

    fn cycle(&mut self, s: &mut Session<'_>) {
        let batch: Vec<(i64, i64)> = (0..BATCH)
            .map(|_| (self.rng.below(GROUPS) as i64, self.rng.below(1000) as i64))
            .collect();
        let values: Vec<String> = batch.iter().map(|(g, v)| format!("({g}, {v})")).collect();
        if s.exec(
            &format!("INSERT INTO events VALUES {}", values.join(", ")),
            Kind::Write,
        )
        .is_some()
        {
            for (g, v) in batch {
                let e = self.fold.entry(g).or_default();
                e.0 += 1;
                e.1 += v;
            }
        }
        if let Some(out) = s.exec(READ_GROUPS, Kind::Read) {
            let got: BTreeMap<i64, (i64, i64)> = out
                .iter()
                .filter_map(|r| {
                    let v = |i: usize| r.value(i).as_integer();
                    Some((v(0)?, (v(1)?, v(2)?)))
                })
                .collect();
            let ok = out.len() == self.fold.len() && got == self.fold;
            s.check(ok, || format!("ev_summary {got:?} != fold {:?}", self.fold));
        }
        if let Some(out) = s.exec(READ_TOTALS, Kind::Read) {
            let rows: i64 = self.fold.values().map(|e| e.0).sum();
            let total: i64 = self.fold.values().map(|e| e.1).sum();
            let got = out.first().map(|r| {
                (
                    r.value(0).as_integer(),
                    r.value(1).as_integer(),
                    r.value(2).as_integer(),
                )
            });
            let want = (Some(self.fold.len() as i64), Some(rows), Some(total));
            s.check(got == Some(want), || {
                format!("ev_summary totals {got:?} != {want:?}")
            });
        }
    }
}

/// What the two clients did in one window.
struct Window {
    job_ms: Vec<f64>,
    reads: Vec<f64>,
    writes: Vec<f64>,
    /// Statements attempted, warm-up included.
    statements: u64,
    /// Statements completed inside the window, both clients.
    window_statements: u64,
    failed: u64,
    errors: Vec<String>,
    secs: f64,
    streams: [Vec<Issued>; 2],
}

fn connect(addr: &str, tenant: &str) -> Result<Client, String> {
    Client::connect(addr, tenant, "").map_err(|e| format!("connect {tenant}: {e}"))
}

/// Both clients in a closed loop for `seconds`, after one warm-up unit
/// each.
fn served_window(
    addr: &str,
    pr: &mut PageRank<'_>,
    dash: &mut Dashboard,
    seconds: f64,
    record: bool,
) -> Result<Window, String> {
    let mut ps = Session::new(Conn::Served(connect(addr, "pagerank")?), 1);
    let mut ds = Session::new(Conn::Served(connect(addr, "dashboard")?), 2);
    // Both clients warm up, then start the window together.
    let barrier = Barrier::new(2);
    let (job_ms, window_statements, secs) = std::thread::scope(|sc| {
        let pr_thread = sc.spawn(|| {
            ps.record = record;
            pr.step(&mut ps, u64::MAX);
            barrier.wait();
            let start = Instant::now();
            let before = ps.attempted;
            let deadline = start + Duration::from_secs_f64(seconds);
            let mut job_ms = Vec::new();
            let mut job = 0;
            while Instant::now() < deadline {
                job_ms.push(pr.step(&mut ps, job));
                job += 1;
            }
            (job_ms, ps.attempted - before, start)
        });
        let ds_thread = sc.spawn(|| {
            ds.record = record;
            dash.cycle(&mut ds);
            ds.reads.clear();
            ds.writes.clear();
            barrier.wait();
            let before = ds.attempted;
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            while Instant::now() < deadline {
                dash.cycle(&mut ds);
            }
            ds.attempted - before
        });
        let (job_ms, pr_statements, start) = pr_thread.join().expect("PageRank client panicked");
        let ds_statements = ds_thread.join().expect("dashboard client panicked");
        (
            job_ms,
            pr_statements + ds_statements,
            start.elapsed().as_secs_f64(),
        )
    });
    let w = Window {
        job_ms,
        reads: std::mem::take(&mut ds.reads),
        writes: std::mem::take(&mut ds.writes),
        statements: ps.attempted + ds.attempted,
        window_statements,
        failed: ps.failed + ds.failed,
        errors: ps.errors.iter().chain(&ds.errors).cloned().collect(),
        secs,
        streams: [
            std::mem::take(&mut ps.stream),
            std::mem::take(&mut ds.stream),
        ],
    };
    for s in [ps, ds] {
        if let Conn::Served(c) = s.conn {
            let _ = c.close();
        }
    }
    Ok(w)
}

/// Replays both recorded streams on clones of `db`, one thread each.
fn replay(
    db: &Database,
    streams: &[Vec<Issued>; 2],
    traced: Option<(&Tracer, &Mutex<Layers>)>,
) -> Window {
    let run = |stream: &Vec<Issued>, thread: u32| {
        let mut s = Session::new(Conn::Embedded(db.clone()), thread);
        s.traced = traced.map(|(tracer, layers)| Traced {
            tracer,
            layers,
            twins: &TWINS,
        });
        let mut job_ms = Vec::new();
        let mut current = None;
        for st in stream {
            if st.job != current {
                if current.is_some() {
                    job_ms.push(s.end_job().0);
                }
                if let Some(j) = st.job {
                    s.begin_job(j);
                }
                current = st.job;
            }
            s.exec(&st.sql, st.kind);
        }
        if current.is_some() {
            job_ms.push(s.end_job().0);
        }
        (job_ms, s)
    };
    let t0 = Instant::now();
    let ((job_ms, ps), (_, ds)) = std::thread::scope(|sc| {
        let a = sc.spawn(|| run(&streams[0], 1));
        let b = sc.spawn(|| run(&streams[1], 2));
        (
            a.join().expect("replay client panicked"),
            b.join().expect("replay client panicked"),
        )
    });
    Window {
        job_ms,
        reads: ds.reads.clone(),
        writes: ds.writes.clone(),
        statements: ps.attempted + ds.attempted,
        window_statements: ps.attempted + ds.attempted,
        failed: ps.failed + ds.failed,
        errors: ps.errors.iter().chain(&ds.errors).cloned().collect(),
        secs: t0.elapsed().as_secs_f64(),
        streams: [Vec::new(), Vec::new()],
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let spill_dir = out_dir().join(format!("spill-{}", std::process::id()));
    let result = run_in(args, &spill_dir);
    let _ = std::fs::remove_dir_all(&spill_dir);
    result
}

fn run_in(args: &Args, spill_dir: &Path) -> Result<Report, String> {
    let inputs = Inputs::new(args.seed);
    let mut r = Report::default();
    r.note(format!(
        "served_mix: PageRank over {NODES} nodes / {} edges, rounds of {ROUND}; dashboard INSERTs of {BATCH} rows \
         into {EVENTS0}+ rows in {GROUPS} groups, then 2 view reads; 2 clients, closed loop, loopback TCP; \
         deltas and ranks within {TOL:e} relative of a power iteration, view rows equal to a fold",
        inputs.edges.len()
    ));

    let mut setup_s = Vec::new();
    let mut load_mbps = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some((server, db)) = live.take() {
            Server::shutdown(server);
            drop(db);
        }
        let t0 = Instant::now();
        let (db, load) = inputs.setup(spill_dir)?;
        let server = Server::start(db.clone(), ServerConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        load_mbps.push(load.mbps());
        live = Some((server, db));
    }
    let (server, db) = live.expect("at least one set-up");
    let addr = server.local_addr().to_string();

    let mut pr = PageRank {
        inputs: &inputs,
        k: 0,
        i: 0,
    };
    let mut dash = Dashboard::new(args.seed, &inputs);
    // The traced run spends the other half of its time on the replays.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let w = served_window(&addr, &mut pr, &mut dash, window, args.trace)?;
    server.shutdown();
    r.attempted += w.statements;
    r.failed += w.failed;
    for e in &w.errors {
        r.note(format!("failure: {e}"));
    }

    if !args.trace {
        // Bytes one iteration moves: the next iteration, run embedded on
        // the same database, where the executor's counters are visible.
        let mut s = Session::new(Conn::Embedded(db.clone()), 3);
        s.begin_job(0);
        pr.job(&mut s);
        let (_, exec) = s.end_job();
        r.attempted += s.attempted;
        r.failed += s.failed;
        end_to_end(
            &mut r,
            EndToEnd {
                setup_s: &setup_s,
                job_ms: &w.job_ms,
                stmt_per_s: w.window_statements as f64 / w.secs,
                shuffle_mb: exec.shuffle_bytes / 1e6,
                reads: &w.reads,
                writes: &w.writes,
            },
        );
        return Ok(r);
    }

    drop(db);
    // Embedded replays of the same statement streams on fresh databases:
    // untraced (to price the server) and traced (for the layers).
    let (db0, _) = inputs.setup(spill_dir)?;
    let r0 = replay(&db0, &w.streams, None);
    drop(db0);
    let tracer = Tracer::default();
    let layers = Mutex::new(Layers::default());
    let (db1, _) = inputs.setup(spill_dir)?;
    let r1 = replay(&db1, &w.streams, Some((&tracer, &layers)));
    drop(db1);
    for rep in [&r0, &r1] {
        r.attempted += rep.statements;
        r.failed += rep.failed;
        for e in &rep.errors {
            r.note(format!("failure: replay: {e}"));
        }
    }
    let path = out_dir().join(format!("spans-served_mix-{}.json", args.seed));
    tracer
        .write_chrome_json(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    r.note(format!("spans written to {}", path.display()));
    r.note(tracer.self_time_summary());
    let probe_rows = probe_rows(&inputs);
    let layers = layers
        .into_inner()
        .expect("layer totals poisoned by a panicking client");
    layers::report(
        &mut r,
        LayerRun {
            layers: &layers,
            jobs: r1.job_ms.len(),
            // Its only kernel is SpMV over its graph; the dense kernels
            // are rated on the la_dense tiles.
            shapes: LaShapes {
                spmv: (NODES, inputs.edges.len() / NODES),
                ..crate::la_dense::SHAPES
            },
            probe_rows: &probe_rows,
            pool_workers: POOL_WORKERS,
            seed: args.seed,
            read_overhead_ms: median(&w.reads) - median(&r0.reads),
            write_overhead_ms: median(&w.writes) - median(&r0.writes),
            load_mbps: median(&load_mbps),
            tracing_overhead_pct: 100.0 * (median(&r1.job_ms) / median(&r0.job_ms) - 1.0),
        },
        spill_dir,
    )?;
    r.note(
        "served_mix layers come from an embedded replay of the served statement streams; \
            server overheads are served minus untraced-replay medians",
    );
    Ok(r)
}

/// The rows this workload moves: event batches and one rank vector.
fn probe_rows(inputs: &Inputs) -> Vec<Row> {
    let mut rows: Vec<Row> = inputs
        .events0
        .iter()
        .map(|&(g, v)| Row::new(vec![Value::Integer(g), Value::Integer(v)]))
        .collect();
    let rank = lardb::Vector::from_slice(&inputs.ranks[1]);
    rows.push(Row::new(vec![Value::vector(rank)]));
    rows
}
