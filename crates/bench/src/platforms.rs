//! Uniform runners for the six §5 platforms × three workloads.

use std::time::{Duration, Instant};

use lardb::{
    DataType, Database, DatabaseConfig, ExecStats, Matrix, Partitioning, QueryProfile, Row,
    Schema, Value,
};
use lardb_baselines::{scidb_like, spark_like, systemml_like, WorkloadData};
use lardb_storage::gen;

/// One of the paper's three computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `G = XᵀX` (Figure 1).
    Gram,
    /// `β̂ = (XᵀX)⁻¹Xᵀy` (Figure 2).
    Regression,
    /// min-distance / argmax (Figure 3).
    Distance,
}

/// One of the six platforms of Figures 1–3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// lardb, pure-tuple SQL (the unmodified-RDBMS strawman).
    TupleSimSql,
    /// lardb, one VECTOR per data point.
    VectorSimSql,
    /// lardb, 1000-row blocks built with ROWMATRIX (blocking time counted).
    BlockSimSql,
    /// Miniature SystemML (block map/reduce).
    SystemMlLike,
    /// Miniature Spark mllib (RDD + BlockMatrix, allocating combines).
    SparkLike,
    /// Miniature SciDB (chunked arrays + gemm).
    SciDbLike,
}

/// All six, in the paper's row order.
pub const ALL_PLATFORMS: [Platform; 6] = [
    Platform::TupleSimSql,
    Platform::VectorSimSql,
    Platform::BlockSimSql,
    Platform::SystemMlLike,
    Platform::SparkLike,
    Platform::SciDbLike,
];

impl Platform {
    /// Row label, matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Platform::TupleSimSql => "Tuple SimSQL (lardb)",
            Platform::VectorSimSql => "Vector SimSQL (lardb)",
            Platform::BlockSimSql => "Block SimSQL (lardb)",
            Platform::SystemMlLike => "SystemML-like",
            Platform::SparkLike => "Spark mllib-like",
            Platform::SciDbLike => "SciDB-like",
        }
    }
}

/// Result of one benchmark cell.
#[derive(Debug)]
pub struct RunOutcome {
    /// Wall time; `None` means the run was skipped as infeasible (the
    /// paper's "Fail").
    pub duration: Option<Duration>,
    /// Annotation, e.g. a reduced row count.
    pub note: Option<String>,
    /// Operator statistics (lardb platforms only; used by Figure 4).
    pub stats: Option<ExecStats>,
    /// Merged query-lifecycle profile (lardb platforms only): stage
    /// timings plus per-operator estimate-vs-actual records, exported as
    /// JSON by `--profile-json`.
    pub profile: Option<QueryProfile>,
}

impl RunOutcome {
    fn timed(d: Duration) -> Self {
        RunOutcome { duration: Some(d), note: None, stats: None, profile: None }
    }

    fn fail(reason: &str) -> Self {
        RunOutcome { duration: None, note: Some(reason.into()), stats: None, profile: None }
    }
}

/// Budget for materialization-heavy tuple-based runs: the cap on
/// (estimated) joined tuples pushed through the plan. Runs needing more
/// re-run at a reduced `n`, noted in the output. 4×10⁷ keeps the resident
/// set of the exchanged tuple streams well inside a 16 GB machine.
const TUPLE_ROW_BUDGET: usize = 40_000_000;

/// Runs one cell of Figures 1–3. The lardb platforms run under `config`;
/// the baselines have neither exchanges nor SQL expressions and read only
/// its `workers`.
pub fn run(
    platform: Platform,
    workload: Workload,
    n: usize,
    dims: usize,
    block: usize,
    seed: u64,
    config: &DatabaseConfig,
) -> RunOutcome {
    match platform {
        Platform::TupleSimSql | Platform::VectorSimSql | Platform::BlockSimSql => {
            run_lardb(platform, workload, n, dims, block, seed, config)
        }
        _ => run_baseline(platform, workload, n, dims, block, config.workers, seed),
    }
}

// ------------------------------------------------------------- baselines

fn baseline_data(workload: Workload, n: usize, dims: usize, seed: u64) -> WorkloadData {
    let rows = gen::vector_rows(seed, n, dims);
    let mut x = Matrix::zeros(n, dims);
    for (i, r) in rows.iter().enumerate() {
        x.row_mut(i).copy_from_slice(r.value(1).as_vector().expect("vector").as_slice());
    }
    let y = match workload {
        Workload::Regression => gen::regression_targets(seed, n, dims, 0.01)
            .iter()
            .map(|r| r.value(1).as_double().expect("double"))
            .collect(),
        _ => Vec::new(),
    };
    let a = match workload {
        Workload::Distance => gen::spd_matrix(seed ^ 7, dims),
        _ => Matrix::identity(dims),
    };
    WorkloadData { x, y, a }
}

fn run_baseline(
    platform: Platform,
    workload: Workload,
    n: usize,
    dims: usize,
    block: usize,
    workers: usize,
    seed: u64,
) -> RunOutcome {
    let data = baseline_data(workload, n, dims, seed);
    let t0 = Instant::now();
    match (platform, workload) {
        (Platform::SystemMlLike, Workload::Gram) => {
            std::hint::black_box(systemml_like::Engine::new(workers).gram(&data));
        }
        (Platform::SystemMlLike, Workload::Regression) => {
            std::hint::black_box(systemml_like::Engine::new(workers).linear_regression(&data));
        }
        (Platform::SystemMlLike, Workload::Distance) => {
            std::hint::black_box(systemml_like::Engine::new(workers).distance_argmax(&data));
        }
        (Platform::SciDbLike, Workload::Gram) => {
            std::hint::black_box(scidb_like::Engine::new(workers).gram(&data));
        }
        (Platform::SciDbLike, Workload::Regression) => {
            std::hint::black_box(scidb_like::Engine::new(workers).linear_regression(&data));
        }
        (Platform::SciDbLike, Workload::Distance) => {
            std::hint::black_box(scidb_like::Engine::new(workers).distance_argmax(&data));
        }
        (Platform::SparkLike, Workload::Gram) => {
            std::hint::black_box(spark_like::Engine::new(workers).gram(&data));
        }
        (Platform::SparkLike, Workload::Regression) => {
            std::hint::black_box(spark_like::Engine::new(workers).linear_regression(&data));
        }
        (Platform::SparkLike, Workload::Distance) => {
            std::hint::black_box(
                spark_like::Engine::with_block(workers, block).distance_argmax(&data),
            );
        }
        _ => unreachable!("lardb platforms handled elsewhere"),
    }
    RunOutcome::timed(t0.elapsed())
}

// ----------------------------------------------------------------- lardb

fn run_lardb(
    platform: Platform,
    workload: Workload,
    n: usize,
    dims: usize,
    block: usize,
    seed: u64,
    config: &DatabaseConfig,
) -> RunOutcome {
    // Budget check for tuple-based plans; rerun at reduced n when needed.
    let (n_used, note) = if platform == Platform::TupleSimSql {
        tuple_cap(workload, n, dims)
    } else {
        (n, None)
    };

    let db = Database::with_config(config.clone());
    load_lardb_data(&db, platform, workload, n_used, dims, block, seed);

    let result = match (platform, workload) {
        (Platform::TupleSimSql, Workload::Gram) => gram_tuple(&db),
        (Platform::VectorSimSql, Workload::Gram) => gram_vector(&db),
        (Platform::BlockSimSql, Workload::Gram) => gram_block(&db),
        (Platform::TupleSimSql, Workload::Regression) => regression_tuple(&db),
        (Platform::VectorSimSql, Workload::Regression) => regression_vector(&db),
        (Platform::BlockSimSql, Workload::Regression) => regression_block(&db),
        (Platform::TupleSimSql, Workload::Distance) => distance_tuple(&db),
        (Platform::VectorSimSql, Workload::Distance) => distance_vector(&db),
        (Platform::BlockSimSql, Workload::Distance) => distance_block(&db, block),
        _ => unreachable!(),
    };
    match result {
        Ok((duration, stats, profile)) => RunOutcome {
            duration: Some(duration),
            note,
            stats: Some(stats),
            profile: Some(profile),
        },
        Err(e) => RunOutcome::fail(&e),
    }
}

fn load_lardb_data(
    db: &Database,
    platform: Platform,
    workload: Workload,
    n: usize,
    dims: usize,
    block: usize,
    seed: u64,
) {
    match platform {
        Platform::TupleSimSql => {
            db.create_table(
                "x",
                Schema::from_pairs(&[
                    ("row_index", DataType::Integer),
                    ("col_index", DataType::Integer),
                    ("value", DataType::Double),
                ]),
                Partitioning::RoundRobin,
            )
            .expect("fresh db");
            db.insert_rows("x", gen::tuple_rows(seed, n, dims)).expect("load");
        }
        _ => {
            db.create_table(
                "x_vm",
                Schema::from_pairs(&[
                    ("id", DataType::Integer),
                    ("value", DataType::Vector(Some(dims))),
                ]),
                Partitioning::RoundRobin,
            )
            .expect("fresh db");
            db.insert_rows("x_vm", gen::vector_rows(seed, n, dims)).expect("load");
        }
    }
    if workload == Workload::Regression {
        db.create_table(
            "y",
            Schema::from_pairs(&[("i", DataType::Integer), ("y_i", DataType::Double)]),
            Partitioning::RoundRobin,
        )
        .expect("fresh db");
        db.insert_rows("y", gen::regression_targets(seed, n, dims, 0.01)).expect("load");
    }
    if workload == Workload::Distance {
        db.create_table(
            "matrixA",
            Schema::from_pairs(&[("val", DataType::Matrix(Some(dims), Some(dims)))]),
            Partitioning::Replicated,
        )
        .expect("fresh db");
        db.insert_rows(
            "matrixA",
            [Row::new(vec![Value::matrix(gen::spd_matrix(seed ^ 7, dims))])],
        )
        .expect("load");
        if platform == Platform::TupleSimSql {
            load_label_table(db, dims);
        }
    }
    if platform == Platform::BlockSimSql {
        // block_index + the §5 blocking views (blocking work itself runs
        // inside the timed queries, as the paper counts it).
        let nblocks = n.div_ceil(block);
        db.execute("CREATE TABLE block_index (mi INTEGER)").expect("ddl");
        db.insert_rows(
            "block_index",
            (0..nblocks as i64).map(|b| Row::new(vec![Value::Integer(b)])),
        )
        .expect("load");
        db.execute(&format!(
            "CREATE VIEW MLX AS
             SELECT ROWMATRIX(label_vector(x.value, x.id - ind.mi*{block})) AS m
             FROM x_vm AS x, block_index AS ind
             WHERE x.id/{block} = ind.mi
             GROUP BY ind.mi"
        ))
        .expect("ddl");
        db.execute(&format!(
            "CREATE VIEW MLXI AS
             SELECT ROWMATRIX(label_vector(x.value, x.id - ind.mi*{block})) AS m,
                    ind.mi AS mi
             FROM x_vm AS x, block_index AS ind
             WHERE x.id/{block} = ind.mi
             GROUP BY ind.mi"
        ))
        .expect("ddl");
        if workload == Workload::Regression {
            db.execute(&format!(
                "CREATE VIEW YB AS
                 SELECT VECTORIZE(label_scalar(y.y_i, y.i - ind.mi*{block})) AS yv,
                        ind.mi AS mi
                 FROM y, block_index AS ind
                 WHERE y.i/{block} = ind.mi
                 GROUP BY ind.mi"
            ))
            .expect("ddl");
        }
    }
}

/// Reduced row count (plus annotation) keeping a tuple-based run inside
/// the materialization budget.
fn tuple_cap(workload: Workload, n: usize, dims: usize) -> (usize, Option<String>) {
    let per_point = match workload {
        Workload::Gram | Workload::Regression => dims * dims,
        // all-pairs join: ≈ n·dims joined tuples per data point
        Workload::Distance => n.saturating_mul(dims),
    };
    let est = n.saturating_mul(per_point.max(1));
    if est > TUPLE_ROW_BUDGET {
        let cap = (TUPLE_ROW_BUDGET / per_point.max(1)).max(8);
        (cap, Some(format!("n={cap} (reduced from {n})")))
    } else {
        (n, None)
    }
}

type Timed = Result<(Duration, ExecStats, QueryProfile), String>;

fn timed_queries(db: &Database, sqls: &[&str]) -> Timed {
    let t0 = Instant::now();
    let mut stats = ExecStats::new();
    let mut profile = QueryProfile::new("workload");
    for sql in sqls {
        match db.execute(sql) {
            Ok(lardb::database::Response::Rows(q)) => stats.merge(&q.stats),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        if let Some(p) = db.last_profile() {
            profile.merge(&p);
        }
    }
    Ok((t0.elapsed(), stats, profile))
}

fn gram_tuple(db: &Database) -> Timed {
    timed_queries(
        db,
        &["SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value) AS v
           FROM x AS x1, x AS x2
           WHERE x1.row_index = x2.row_index
           GROUP BY x1.col_index, x2.col_index"],
    )
}

fn gram_vector(db: &Database) -> Timed {
    timed_queries(db, &["SELECT SUM(outer_product(x.value, x.value)) AS g FROM x_vm AS x"])
}

fn gram_block(db: &Database) -> Timed {
    timed_queries(
        db,
        &["SELECT SUM(matrix_multiply(trans_matrix(mlx.m), mlx.m)) AS g FROM mlx"],
    )
}

fn regression_vector(db: &Database) -> Timed {
    timed_queries(
        db,
        &["SELECT matrix_vector_multiply(
               matrix_inverse(SUM(outer_product(x.value, x.value))),
               SUM(x.value * y.y_i)) AS beta
           FROM x_vm AS x, y
           WHERE x.id = y.i"],
    )
}

fn regression_block(db: &Database) -> Timed {
    timed_queries(
        db,
        &["SELECT matrix_vector_multiply(
               matrix_inverse(SUM(matrix_multiply(trans_matrix(b.m), b.m))),
               SUM(matrix_vector_multiply(trans_matrix(b.m), t.yv))) AS beta
           FROM mlxi AS b, yb AS t
           WHERE b.mi = t.mi"],
    )
}

fn regression_tuple(db: &Database) -> Timed {
    timed_queries(
        db,
        &[
            "CREATE TABLE xtx AS
             SELECT x1.col_index AS r, x2.col_index AS c, SUM(x1.value * x2.value) AS v
             FROM x AS x1, x AS x2
             WHERE x1.row_index = x2.row_index
             GROUP BY x1.col_index, x2.col_index",
            "CREATE TABLE xty AS
             SELECT x.col_index AS c, SUM(x.value * y.y_i) AS v
             FROM x, y
             WHERE x.row_index = y.i
             GROUP BY x.col_index",
            "SELECT solve(a.m, b.vec) AS beta
             FROM (SELECT ROWMATRIX(label_vector(q.vec, q.r)) AS m
                   FROM (SELECT VECTORIZE(label_scalar(v, c)) AS vec, r
                         FROM xtx GROUP BY r) AS q) AS a,
                  (SELECT VECTORIZE(label_scalar(v, c)) AS vec FROM xty) AS b",
        ],
    )
}

fn distance_vector(db: &Database) -> Timed {
    timed_queries(
        db,
        &[
            "CREATE TABLE mx AS
             SELECT x.id AS id, matrix_vector_multiply(a.val, x.value) AS mx_data
             FROM x_vm AS x, matrixA AS a",
            "CREATE TABLE distancesm AS
             SELECT a.id AS id, MIN(inner_product(mxx.mx_data, a.value)) AS dist
             FROM x_vm AS a, mx AS mxx
             WHERE a.id <> mxx.id
             GROUP BY a.id",
            "SELECT d.id FROM distancesm AS d,
                    (SELECT MAX(dist) AS mx FROM distancesm) AS m
             WHERE d.dist = m.mx",
        ],
    )
}

fn distance_block(db: &Database, block: usize) -> Timed {
    let _ = block;
    let sql1 = "CREATE TABLE crossmins AS
         SELECT q.id1 AS bid, MIN(q.v) AS mv
         FROM (SELECT mxx.mi AS id1,
                      row_min(matrix_multiply(mxx.m,
                          matrix_multiply(mp.val, trans_matrix(mx.m)))) AS v
               FROM mlxi AS mx, mlxi AS mxx, matrixA AS mp
               WHERE mxx.mi <> mx.mi) AS q
         GROUP BY q.id1";
    // Self-pair distances; the +infinity diagonal mask is sized from the
    // block itself (the last block may be ragged).
    let sql2a = "CREATE TABLE selfdm AS
         SELECT mxx.mi AS bid,
                matrix_multiply(mxx.m,
                    matrix_multiply(mp.val, trans_matrix(mxx.m))) AS dm
         FROM mlxi AS mxx, matrixA AS mp";
    let sql2b = "CREATE TABLE selfmins AS
         SELECT bid, row_min(dm + diag_matrix(diag(dm) * 0.0 + 1e300)) AS mv
         FROM selfdm";
    let sql3 = "SELECT a.bid AS bid, a.mv AS self_mv, b.mv AS cross_mv
         FROM selfmins AS a, crossmins AS b
         WHERE a.bid = b.bid";
    let t0 = Instant::now();
    let mut stats = ExecStats::new();
    let mut profile = QueryProfile::new("workload");
    for sql in [sql1, sql2a, sql2b] {
        match db.execute(sql) {
            Ok(lardb::database::Response::Rows(q)) => stats.merge(&q.stats),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        if let Some(p) = db.last_profile() {
            profile.merge(&p);
        }
    }
    let combined = db.query(sql3).map_err(|e| e.to_string())?;
    stats.merge(&combined.stats);
    if let Some(p) = db.last_profile() {
        profile.merge(&p);
    }
    // Driver epilogue: per-point min(self, cross), then global argmax —
    // "a series of operations on matrices" (§5).
    let mut best = f64::NEG_INFINITY;
    for row in &combined.rows {
        let s = row.value(1).as_vector().ok_or("self_mv not a vector")?;
        let c = row.value(2).as_vector().ok_or("cross_mv not a vector")?;
        for k in 0..s.len() {
            let v = s.get(k).map_err(|e| e.to_string())?.min(
                c.get(k).map_err(|e| e.to_string())?,
            );
            if v > best {
                best = v;
            }
        }
    }
    std::hint::black_box(best);
    Ok((t0.elapsed(), stats, profile))
}

fn distance_tuple(db: &Database) -> Timed {
    timed_queries(
        db,
        &[
            "CREATE TABLE amat AS
             SELECT label.id AS r, label2.id AS c,
                    get_entry(a.val, label.id, label2.id) AS v
             FROM matrixA AS a, lbl AS label, lbl AS label2",
            "CREATE TABLE ax AS
             SELECT x.row_index AS pid, amat.r AS dim, SUM(amat.v * x.value) AS v
             FROM amat, x
             WHERE amat.c = x.col_index
             GROUP BY x.row_index, amat.r",
            "CREATE TABLE d AS
             SELECT xi.row_index AS i, axj.pid AS j, SUM(xi.value * axj.v) AS d
             FROM x AS xi, ax AS axj
             WHERE xi.col_index = axj.dim AND xi.row_index <> axj.pid
             GROUP BY xi.row_index, axj.pid",
            "CREATE TABLE mins AS SELECT i, MIN(d) AS md FROM d GROUP BY i",
            "SELECT mins.i FROM mins, (SELECT MAX(md) AS mx FROM mins) AS q
             WHERE mins.md = q.mx",
        ],
    )
}

/// Loads the `lbl` helper table (0..dims) the tuple distance run needs to
/// normalize the replicated metric matrix.
pub fn load_label_table(db: &Database, dims: usize) {
    db.execute("CREATE TABLE lbl (id INTEGER)").expect("ddl");
    db.insert_rows("lbl", (0..dims as i64).map(|i| Row::new(vec![Value::Integer(i)])))
        .expect("load");
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb::TransportMode;

    #[test]
    fn all_cells_run_at_toy_scale() {
        for platform in ALL_PLATFORMS {
            for workload in [Workload::Gram, Workload::Regression, Workload::Distance] {
                let n = if workload == Workload::Distance { 24 } else { 40 };
                let config = DatabaseConfig { workers: 2, ..DatabaseConfig::default() };
                let out = run(platform, workload, n, 4, 8, 99, &config);
                assert!(
                    out.duration.is_some(),
                    "{platform:?}/{workload:?} failed: {:?}",
                    out.note
                );
            }
        }
    }

    #[test]
    fn lardb_cells_run_under_every_transport() {
        for transport in TransportMode::ALL {
            let config = DatabaseConfig { workers: 2, transport, ..DatabaseConfig::default() };
            let out = run(Platform::VectorSimSql, Workload::Gram, 40, 4, 8, 99, &config);
            assert!(out.duration.is_some(), "{transport:?} failed: {:?}", out.note);
            let stats = out.stats.expect("lardb platforms report stats");
            if transport.is_serialized() {
                assert!(
                    stats.total_frames() > 0,
                    "{transport:?} should ship encoded frames"
                );
            } else {
                assert_eq!(stats.total_frames(), 0);
            }
        }
    }

    #[test]
    fn lardb_cells_run_under_the_memory_budget() {
        let dir = std::env::temp_dir().join(format!("lardb-bench-spill-{}", std::process::id()));
        let config = DatabaseConfig {
            workers: 2,
            mem: Some(1),
            spill_dir: Some(dir.clone()),
            ..DatabaseConfig::default()
        };
        let out = run(Platform::TupleSimSql, Workload::Gram, 3000, 10, 8, 99, &config);
        let stats = out.stats.expect("lardb platforms report stats");
        assert!(stats.total_spill_bytes() > 0, "a 1 MiB budget must spill");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn tuple_budget_reduces_n() {
        // dims² × n far over budget → capped with a note.
        let (n, note) = tuple_cap(Workload::Gram, 100_000, 1_000);
        assert_eq!(n, TUPLE_ROW_BUDGET / 1_000_000);
        assert!(note.unwrap().contains("reduced"));
        // within budget → untouched
        let (n, note) = tuple_cap(Workload::Gram, 20_000, 10);
        assert_eq!(n, 20_000);
        assert!(note.is_none());
        // distance scales with n·dims per point
        let (n, note) = tuple_cap(Workload::Distance, 10_000, 100);
        assert!(n < 10_000);
        assert!(note.is_some());
    }
}
