//! Sparse/dense differential suite: a sparse tile is a storage format,
//! never a semantic one.
//!
//! Every query here runs twice — once against a database whose matrix
//! tiles are stored as CSR sparse values under adaptive dispatch, once
//! against a twin whose tiles are the densified equivalents under
//! forced-dense dispatch — and the results must be **bit-identical**
//! (sparse kernels accumulate each output element over ascending k, the
//! same order as the dense loops, so `==` on float bits is the contract,
//! not a tolerance). The matrix sweeps density {0.1%, 1%, 10%, 50%},
//! W ∈ {1, 4}, both schedulers, both transports, and a 1 MiB spill
//! budget; the iterative PageRank and logistic-regression drivers must
//! follow identical trajectories; and serialized exchanges must ship
//! sparse tiles proportionally to nnz, not rows × cols.
//!
//! Each database's dispatch mode comes only from its `DatabaseConfig`
//! and travels with each of its queries, so tests run in parallel and
//! databases with different modes share the process and its pool.

use lardb::{
    CooBuilder, Database, DatabaseConfig, DataType, DispatchCounters, DispatchMode,
    Partitioning, QueryResult, Row, SchedulerMode, Schema, SparseMatrix,
    TransportMode, Value, Vector,
};

/// Tiny deterministic xorshift so tile contents are identical run-to-run
/// and across the sparse/dense twins.
fn rngish(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// A `rows × cols` CSR tile at roughly the given density. Values are
/// positive 64ths (exactly representable; no cancellation, so stored nnz
/// equals the dense nonzero count and `NNZ()` agrees across twins).
fn sparse_tile(seed: u64, rows: usize, cols: usize, density: f64) -> SparseMatrix {
    let mut rng = rngish(seed);
    let mut b = CooBuilder::new();
    let target = ((rows * cols) as f64 * density).ceil() as usize;
    for _ in 0..target {
        let r = (rng() as usize % rows) as i64;
        let c = (rng() as usize % cols) as i64;
        let v = (rng() % 2000 + 1) as f64 / 64.0;
        b.push(r, c, v).unwrap();
    }
    b.build(rows, cols).unwrap()
}

fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lardb-sparse-eq-{}-{tag}", std::process::id()))
}

fn assert_spill_dir_empty(dir: &std::path::Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        let left: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        assert!(left.is_empty(), "spill files leaked in {}: {left:?}", dir.display());
    }
    let _ = std::fs::remove_dir(dir);
}

fn config(
    workers: usize,
    transport: TransportMode,
    scheduler: SchedulerMode,
    mem: Option<u64>,
    mode: DispatchMode,
    tag: &str,
) -> DatabaseConfig {
    DatabaseConfig {
        workers,
        transport,
        scheduler,
        morsel_rows: 64,
        pool_workers: Some(4),
        mem: Some(mem.unwrap_or(0)),
        spill_dir: Some(spill_dir(tag)),
        sparse_dispatch: Some(mode),
        ..DatabaseConfig::default()
    }
}

const TILES: usize = 4;
const TILE: usize = 64;

/// Two tile tables `ta`/`tb` plus a single-row vector table `vt`. The
/// sparse build stores CSR tiles; the dense build stores the densified
/// twins of the *same* tiles.
fn tile_db(cfg: DatabaseConfig, sparse: bool, density: f64) -> Database {
    let db = Database::with_config(cfg);
    let schema = Schema::from_pairs(&[
        ("tr", DataType::Integer),
        ("tc", DataType::Integer),
        ("mat", DataType::Matrix(Some(TILE), Some(TILE))),
    ]);
    for (name, base) in [("ta", 0x5eed_0001u64), ("tb", 0x5eed_0002)] {
        db.create_table(name, schema.clone(), Partitioning::Hash(0)).unwrap();
        let mut rows = Vec::new();
        for tr in 0..TILES as i64 {
            for tc in 0..TILES as i64 {
                let m = sparse_tile(
                    base ^ (tr as u64 * 31 + tc as u64) ^ density.to_bits(),
                    TILE,
                    TILE,
                    density,
                );
                let cell = if sparse {
                    Value::sparse_matrix(m)
                } else {
                    Value::matrix(m.to_dense())
                };
                rows.push(Row::new(vec![
                    Value::Integer(tr),
                    Value::Integer(tc),
                    cell,
                ]));
            }
        }
        db.insert_rows(name, rows).unwrap();
    }
    db.create_table(
        "vt",
        Schema::from_pairs(&[("x", DataType::Vector(Some(TILE)))]),
        Partitioning::Hash(0),
    )
    .unwrap();
    let x = Vector::from_vec((0..TILE).map(|i| (i as f64 + 1.0) / 8.0).collect());
    db.insert_rows("vt", std::iter::once(Row::new(vec![Value::vector(x)])))
        .unwrap();
    db
}

/// The differential query set: tiled SpGEMM + SUM mixing, SpMV, sparse
/// transpose/Gram, elementwise Hadamard, and nnz bookkeeping.
const QUERIES: &[&str] = &[
    "SELECT a.tr, b.tc, SUM(matrix_multiply(a.mat, b.mat)) AS m
     FROM ta AS a, tb AS b WHERE a.tc = b.tr GROUP BY a.tr, b.tc",
    "SELECT a.tr, a.tc, matrix_vector_multiply(a.mat, v.x) AS y
     FROM ta AS a, vt AS v",
    "SELECT a.tr, a.tc, sum_elements(matrix_multiply(trans_matrix(a.mat), a.mat)) AS g
     FROM ta AS a",
    "SELECT a.tr, a.tc, frobenius_norm(a.mat * b.mat) AS f
     FROM ta AS a, tb AS b WHERE a.tr = b.tr AND a.tc = b.tc",
    "SELECT SUM(nnz(a.mat)) AS z, SUM(sum_elements(a.mat)) AS s FROM ta AS a",
];

/// Exact row values. `Value`'s mixed sparse/dense equality makes this
/// representation-agnostic but float-bit-sensitive.
fn exact_rows(r: &QueryResult) -> Vec<Vec<Value>> {
    r.rows.iter().map(|row| row.values().to_vec()).collect()
}

fn run(db: &Database, q: &str) -> QueryResult {
    db.query(q).unwrap_or_else(|e| panic!("query={q}: {e}"))
}

/// The sparse arm's dispatch modes. The differential contract is
/// mode-independent, so the sparse-stored arm must match the
/// forced-dense twin under *any* dispatch policy. Tests whose
/// assertions are representation-specific (wire bytes, EXPLAIN output,
/// `as_sparse_matrix` downcasts) pin their modes instead.
const ARMS: [DispatchMode; 3] =
    [DispatchMode::Adaptive, DispatchMode::Dense, DispatchMode::Sparse];

#[test]
fn sparse_matches_dense_across_density_workers_schedulers() {
    for density in [0.001, 0.01, 0.1, 0.5] {
        for workers in [1usize, 4] {
            for scheduler in [SchedulerMode::Pool, SchedulerMode::Spawn] {
                let tag = format!("d{density}-w{workers}-{scheduler:?}");
                let dense_db = tile_db(
                    config(
                        workers,
                        TransportMode::Pointer,
                        scheduler,
                        None,
                        DispatchMode::Dense,
                        &format!("{tag}-dense"),
                    ),
                    false,
                    density,
                );
                let want: Vec<_> = QUERIES.iter().map(|q| run(&dense_db, q)).collect();
                for arm in ARMS {
                    let sparse_db = tile_db(
                        config(workers, TransportMode::Pointer, scheduler, None, arm, &tag),
                        true,
                        density,
                    );
                    for (q, want) in QUERIES.iter().zip(&want) {
                        let got = run(&sparse_db, q);
                        assert_eq!(
                            exact_rows(&got),
                            exact_rows(want),
                            "arm={} density={density} W={workers} scheduler={scheduler:?} \
                             query={q}",
                            arm.name()
                        );
                    }
                }
            }
        }
    }
}

/// Forced-sparse mode must agree too — skip-zero loops and sparse
/// kernels are exact no-op-skipping rewrites of the dense loops.
#[test]
fn forced_sparse_mode_matches_forced_dense() {
    let sparse_db = tile_db(
        config(
            4,
            TransportMode::Pointer,
            SchedulerMode::Pool,
            None,
            DispatchMode::Sparse,
            "forced-sparse",
        ),
        true,
        0.1,
    );
    let dense_db = tile_db(
        config(
            4,
            TransportMode::Pointer,
            SchedulerMode::Pool,
            None,
            DispatchMode::Dense,
            "forced-sparse-dense",
        ),
        false,
        0.1,
    );
    for q in QUERIES {
        let got = run(&sparse_db, q);
        let want = run(&dense_db, q);
        assert_eq!(exact_rows(&got), exact_rows(&want), "query={q}");
    }
}

/// Serialized transport (tag-8 sparse wire frames) + a 1 MiB spill
/// budget compose with sparse tiles: same bits as the unbounded
/// pointer-mode dense twin.
#[test]
fn serialized_budgeted_sparse_matches_unbounded_dense() {
    for density in [0.01, 0.5] {
        let tag = format!("ser-d{density}");
        let unbounded = tile_db(
            config(
                4,
                TransportMode::Pointer,
                SchedulerMode::Pool,
                None,
                DispatchMode::Dense,
                &format!("{tag}-dense"),
            ),
            false,
            density,
        );
        let want: Vec<_> = QUERIES.iter().map(|q| run(&unbounded, q)).collect();
        for arm in ARMS {
            let budgeted = tile_db(
                config(
                    4,
                    TransportMode::Serialized,
                    SchedulerMode::Pool,
                    Some(1),
                    arm,
                    &tag,
                ),
                true,
                density,
            );
            for (q, want) in QUERIES.iter().zip(&want) {
                let got = run(&budgeted, q);
                assert_eq!(
                    exact_rows(&got),
                    exact_rows(want),
                    "arm={} density={density} query={q}",
                    arm.name()
                );
            }
            assert_spill_dir_empty(&spill_dir(&tag));
        }
    }
}

/// Serialized exchanges ship sparse tiles proportionally to nnz: the
/// same tile-join at 1% density must move at least 10× fewer wire bytes
/// from the sparse store than from the dense store (a dense 64×64 tile
/// is 32 KiB; its 1% CSR twin is under a kilobyte).
#[test]
fn exchange_bytes_scale_with_nnz_not_shape() {
    let q = QUERIES[0]; // the tile join repartitions both tables' cells
    let sparse_db = tile_db(
        config(
            4,
            TransportMode::Serialized,
            SchedulerMode::Pool,
            None,
            DispatchMode::Adaptive,
            "nnz-sparse",
        ),
        true,
        0.01,
    );
    let dense_db = tile_db(
        config(
            4,
            TransportMode::Serialized,
            SchedulerMode::Pool,
            None,
            DispatchMode::Dense,
            "nnz-dense",
        ),
        false,
        0.01,
    );
    let got = run(&sparse_db, q);
    let want = run(&dense_db, q);
    assert_eq!(exact_rows(&got), exact_rows(&want));
    let (sparse_bytes, dense_bytes) =
        (got.stats.total_bytes_shuffled(), want.stats.total_bytes_shuffled());
    assert!(
        sparse_bytes > 0 && dense_bytes > 0,
        "expected measured wire bytes, got sparse={sparse_bytes} dense={dense_bytes}"
    );
    assert!(
        sparse_bytes * 10 < dense_bytes,
        "sparse exchange not nnz-proportional: {sparse_bytes} vs dense {dense_bytes}"
    );
}

/// `MATRIX_FROM_ENTRIES` over a W=4 edge table: duplicates sum, the
/// result matches a hand-built COO assembly bit-for-bit, forced-dense
/// mode yields the dense representation of the same matrix, and bad
/// coordinates surface as typed errors (never a truncated matrix).
#[test]
fn matrix_from_entries_sql_end_to_end() {
    let mut rng = rngish(0xed9e);
    let mut rows = Vec::new();
    let mut expected = CooBuilder::new();
    for _ in 0..500 {
        let (i, j) = ((rng() % 40) as i64, (rng() % 30) as i64);
        let w = (rng() % 1000 + 1) as f64 / 32.0;
        expected.push(i, j, w).unwrap();
        rows.push(Row::new(vec![
            Value::Integer(i % 2),
            Value::Integer(i),
            Value::Integer(j),
            Value::Double(w),
        ]));
    }
    // Pin the corners so the inferred shape is deterministic.
    for (i, j) in [(39i64, 29i64), (0, 0)] {
        expected.push(i, j, 1.0).unwrap();
        rows.push(Row::new(vec![
            Value::Integer(i % 2),
            Value::Integer(i),
            Value::Integer(j),
            Value::Double(1.0),
        ]));
    }
    let expected = expected.build_inferred();
    assert_eq!(expected.shape(), (40, 30));
    let edges_db = |mode, tag: &str| {
        let db = Database::with_config(config(
            4,
            TransportMode::Pointer,
            SchedulerMode::Pool,
            None,
            mode,
            tag,
        ));
        db.create_table(
            "edges",
            Schema::from_pairs(&[
                ("g", DataType::Integer),
                ("i", DataType::Integer),
                ("j", DataType::Integer),
                ("w", DataType::Double),
            ]),
            Partitioning::Hash(1),
        )
        .unwrap();
        db.insert_rows("edges", rows.clone()).unwrap();
        db
    };

    let db = edges_db(DispatchMode::Adaptive, "mfe");
    let r = db.query("SELECT MATRIX_FROM_ENTRIES(i, j, w) AS m FROM edges").unwrap();
    assert_eq!(r.rows.len(), 1);
    let got = r.rows[0].value(0).as_sparse_matrix().expect("adaptive result is sparse");
    assert_eq!(got.shape(), (40, 30));
    assert_eq!(got.csr_parts(), expected.csr_parts(), "duplicate summation diverged");

    // Forced dense: same matrix, dense representation.
    let dense_db = edges_db(DispatchMode::Dense, "mfe-dense");
    let r = dense_db.query("SELECT MATRIX_FROM_ENTRIES(i, j, w) AS m FROM edges").unwrap();
    let dense = r.rows[0].value(0).as_matrix().expect("forced-dense result is dense");
    assert_eq!(dense.as_ref(), &expected.to_dense());

    // Grouped construction splits the same edges into per-group matrices
    // whose sum of entries matches the whole.
    let r = db
        .query("SELECT g, MATRIX_FROM_ENTRIES(i, j, w) AS m FROM edges GROUP BY g")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let part_sum: f64 = r
        .rows
        .iter()
        .map(|row| match row.value(1) {
            Value::SparseMatrix(m) => m.sum_elements(),
            Value::Matrix(m) => m.sum_elements(),
            other => panic!("expected a matrix cell, got {other:?}"),
        })
        .sum();
    assert_eq!(part_sum, expected.sum_elements());

    // Out-of-range coordinates are typed errors, not truncations.
    db.execute("INSERT INTO edges VALUES (0, -3, 1, 1.0)").unwrap();
    let err = db
        .query("SELECT MATRIX_FROM_ENTRIES(i, j, w) AS m FROM edges")
        .expect_err("negative coordinate must fail");
    assert!(
        err.to_string().contains("MATRIX_FROM_ENTRIES"),
        "untyped error: {err}"
    );
}

/// Builds a column-stochastic adjacency matrix for a deterministic
/// `n`-node graph where every node has at least one out-edge. Returns
/// the CSR matrix (stored sparse or densified by the caller).
fn stochastic_graph(n: usize) -> SparseMatrix {
    let mut rng = rngish(0x9a9a);
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (src, targets) in out.iter_mut().enumerate() {
        targets.push((src * 7 + 1) % n);
        for _ in 0..(rng() % 4) {
            targets.push(rng() as usize % n);
        }
        targets.sort_unstable();
        targets.dedup();
    }
    let mut b = CooBuilder::new();
    for (src, targets) in out.iter().enumerate() {
        let w = 1.0 / targets.len() as f64;
        for &dst in targets {
            b.push(dst as i64, src as i64, w).unwrap();
        }
    }
    b.build(n, n).unwrap()
}

/// One database holding a single-row `graph(m)` table.
fn graph_db(mode: DispatchMode, sparse: bool, m: &SparseMatrix, tag: &str) -> Database {
    let (n, _) = m.shape();
    let db = Database::with_config(config(
        2,
        TransportMode::Pointer,
        SchedulerMode::Pool,
        None,
        mode,
        tag,
    ));
    db.create_table(
        "graph",
        Schema::from_pairs(&[("m", DataType::Matrix(Some(n), Some(n)))]),
        Partitioning::Hash(0),
    )
    .unwrap();
    let cell =
        if sparse { Value::sparse_matrix(m.clone()) } else { Value::matrix(m.to_dense()) };
    db.insert_rows("graph", std::iter::once(Row::new(vec![cell]))).unwrap();
    db
}

/// One damped PageRank step driven through SQL SpMV: inserts the rank
/// vector as `rank_k(x)`, queries `M · x`, applies damping in the
/// driver, and returns the next vector.
fn pagerank_step(db: &Database, k: usize, rank: &[f64]) -> Vec<f64> {
    let n = rank.len();
    let table = format!("rank_{k}");
    db.create_table(
        &table,
        Schema::from_pairs(&[("x", DataType::Vector(Some(n)))]),
        Partitioning::Hash(0),
    )
    .unwrap();
    db.insert_rows(
        &table,
        std::iter::once(Row::new(vec![Value::vector(Vector::from_vec(rank.to_vec()))])),
    )
    .unwrap();
    let r = run(
        db,
        &format!("SELECT matrix_vector_multiply(g.m, r.x) AS y FROM graph AS g, {table} AS r"),
    );
    assert_eq!(r.rows.len(), 1);
    let y = r.rows[0].value(0).as_vector().expect("SpMV returns a vector");
    y.as_slice().iter().map(|&mv| 0.85 * mv + 0.15 / n as f64).collect()
}

/// PageRank over the sparse store follows the dense trajectory
/// bit-for-bit and converges.
#[test]
fn pagerank_sparse_trajectory_matches_dense() {
    const N: usize = 200;
    let m = stochastic_graph(N);
    assert!(m.density() < 0.05, "graph should be sparse, got {}", m.density());
    for arm in ARMS {
        let sparse_db = graph_db(arm, true, &m, &format!("pr-sparse-{}", arm.name()));
        let dense_db = graph_db(DispatchMode::Dense, false, &m, "pr-dense");

        let mut rank_s = vec![1.0 / N as f64; N];
        let mut rank_d = rank_s.clone();
        let mut last_delta = f64::INFINITY;
        for k in 0..60 {
            let next_s = pagerank_step(&sparse_db, k, &rank_s);
            let next_d = pagerank_step(&dense_db, k, &rank_d);
            assert_eq!(next_s, next_d, "PageRank diverged at iteration {k}, arm {}", arm.name());
            last_delta =
                next_s.iter().zip(&rank_s).map(|(a, b)| (a - b).abs()).sum::<f64>();
            rank_s = next_s;
            rank_d = next_d;
        }
        assert!(last_delta < 1e-8, "PageRank did not converge: L1 delta {last_delta}");
        let total: f64 = rank_s.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "ranks must stay a distribution: {total}");
    }
}

/// Logistic-regression batch gradient descent: `z = X·w` and the
/// gradient `Xᵀ·r` both run through SQL (SpMV over the sparse feature
/// matrix and its transpose); sigmoid/update steps run in the driver.
/// Sparse and dense stores must produce identical weight trajectories
/// with decreasing loss.
#[test]
fn logreg_sparse_trajectory_matches_dense() {
    const ROWS: usize = 120;
    const FEATS: usize = 16;
    let x = sparse_tile(0x10919, ROWS, FEATS, 0.1);
    let mut rng = rngish(0x1abe1);
    let y: Vec<f64> = (0..ROWS).map(|_| (rng() % 2) as f64).collect();

    let make = |mode, sparse: bool, tag: &str| {
        let db = Database::with_config(config(
            2,
            TransportMode::Pointer,
            SchedulerMode::Pool,
            None,
            mode,
            tag,
        ));
        db.create_table(
            "feats",
            Schema::from_pairs(&[("m", DataType::Matrix(Some(ROWS), Some(FEATS)))]),
            Partitioning::Hash(0),
        )
        .unwrap();
        let cell = if sparse {
            Value::sparse_matrix(x.clone())
        } else {
            Value::matrix(x.to_dense())
        };
        db.insert_rows("feats", std::iter::once(Row::new(vec![cell]))).unwrap();
        db
    };
    let spmv = |db: &Database, k: usize, tag: &str, v: &[f64], transpose: bool| {
        let table = format!("v_{tag}_{k}");
        db.create_table(
            &table,
            Schema::from_pairs(&[("x", DataType::Vector(Some(v.len())))]),
            Partitioning::Hash(0),
        )
        .unwrap();
        db.insert_rows(
            &table,
            std::iter::once(Row::new(vec![Value::vector(Vector::from_vec(v.to_vec()))])),
        )
        .unwrap();
        let expr = if transpose {
            "matrix_vector_multiply(trans_matrix(f.m), r.x)"
        } else {
            "matrix_vector_multiply(f.m, r.x)"
        };
        let r = run(db, &format!("SELECT {expr} AS y FROM feats AS f, {table} AS r"));
        r.rows[0].value(0).as_vector().unwrap().as_slice().to_vec()
    };

    let sigmoid = |z: f64| 1.0 / (1.0 + (-z).exp());
    let loss = |p: &[f64]| -> f64 {
        p.iter()
            .zip(&y)
            .map(|(&p, &yi)| {
                let p = p.clamp(1e-12, 1.0 - 1e-12);
                -(yi * p.ln() + (1.0 - yi) * (1.0 - p).ln())
            })
            .sum::<f64>()
            / ROWS as f64
    };

    for arm in ARMS {
        let sparse_db = make(arm, true, &format!("lr-sparse-{}", arm.name()));
        let dense_db = make(DispatchMode::Dense, false, "lr-dense");

        let mut w_s = vec![0.0f64; FEATS];
        let mut w_d = w_s.clone();
        let mut losses = Vec::new();
        for k in 0..25 {
            let z_s = spmv(&sparse_db, k, "z", &w_s, false);
            let z_d = spmv(&dense_db, k, "z", &w_d, false);
            assert_eq!(z_s, z_d, "X·w diverged at iteration {k}, arm {}", arm.name());
            let p: Vec<f64> = z_s.iter().map(|&z| sigmoid(z)).collect();
            losses.push(loss(&p));
            let resid: Vec<f64> = p.iter().zip(&y).map(|(&p, &yi)| p - yi).collect();
            let g_s = spmv(&sparse_db, k, "g", &resid, true);
            let g_d = spmv(&dense_db, k, "g", &resid, true);
            assert_eq!(g_s, g_d, "Xᵀ·r diverged at iteration {k}, arm {}", arm.name());
            for i in 0..FEATS {
                w_s[i] -= 0.05 / ROWS as f64 * g_s[i];
                w_d[i] -= 0.05 / ROWS as f64 * g_d[i];
            }
        }
        assert_eq!(w_s, w_d, "weight trajectories diverged, arm {}", arm.name());
        assert!(
            losses.last().unwrap() < &losses[0],
            "loss did not decrease: {losses:?}"
        );
    }
}

/// Per-query dispatch attribution surfaces in EXPLAIN ANALYZE and the
/// `la.dispatch.*` SHOW METRICS counters.
#[test]
fn dispatch_choices_surface_in_explain_and_metrics() {
    let db = tile_db(
        config(
            2,
            TransportMode::Pointer,
            SchedulerMode::Pool,
            None,
            DispatchMode::Adaptive,
            "explain",
        ),
        true,
        0.01,
    );
    let out = db.execute(&format!("EXPLAIN ANALYZE {}", QUERIES[0])).unwrap();
    let lardb::database::Response::Explained(text) = out else {
        panic!("EXPLAIN ANALYZE should return Explained");
    };
    let line = text
        .lines()
        .find(|l| l.contains("la dispatch (adaptive):"))
        .unwrap_or_else(|| panic!("no dispatch line in EXPLAIN ANALYZE:\n{text}"));
    assert!(line.contains("spgemm"), "dispatch line lacks kernel counts: {line}");

    let metrics = db.query("SHOW METRICS").unwrap();
    let value_of = |name: &str| -> Option<f64> {
        metrics
            .rows
            .iter()
            .find(|row| row.value(0).to_string() == name)
            .and_then(|row| row.value(2).as_double())
    };
    let spgemm = value_of("la.dispatch.spgemm")
        .unwrap_or_else(|| panic!("la.dispatch.spgemm missing from SHOW METRICS"));
    assert!(spgemm >= 1.0, "la.dispatch.spgemm = {spgemm}");
}

/// Two databases with opposite forced modes run `QUERIES` from two
/// threads at once, on the shared pool. Every query must see only its
/// own database's mode: the rows and kernel counts of a solo run, and an
/// EXPLAIN ANALYZE line naming its own mode.
#[test]
fn interleaved_databases_keep_their_own_dispatch() {
    const ROUNDS: usize = 3;
    let shared_pool = |mode, tag: &str| DatabaseConfig {
        pool_workers: None,
        ..config(4, TransportMode::Pointer, SchedulerMode::Pool, None, mode, tag)
    };
    let dense_db = tile_db(shared_pool(DispatchMode::Dense, "iso-dense"), false, 0.1);
    let sparse_db = tile_db(shared_pool(DispatchMode::Sparse, "iso-sparse"), true, 0.1);

    type Seen = (Vec<Vec<Value>>, DispatchCounters);
    let seen = |r: QueryResult| -> Seen { (exact_rows(&r), r.stats.dispatch) };
    let solo_dense: Vec<Seen> = QUERIES.iter().map(|q| seen(run(&dense_db, q))).collect();
    let solo_sparse: Vec<Seen> = QUERIES.iter().map(|q| seen(run(&sparse_db, q))).collect();
    for (q, ((_, d), (_, s))) in QUERIES.iter().zip(solo_dense.iter().zip(&solo_sparse)) {
        assert_eq!((d.skipzero, d.sparse_total()), (0, 0), "forced-dense counts {d:?}: {q}");
        assert_eq!(s.dense, 0, "forced-sparse counts {s:?}: {q}");
    }
    assert!(solo_dense.iter().any(|(_, d)| d.dense > 0), "dense kernels never counted");
    assert!(solo_sparse.iter().any(|(_, s)| s.sparse_total() > 0), "sparse kernels never counted");

    // Lock-step rounds so each pair of queries overlaps. Workers return
    // results instead of panicking, so neither can strand the other at
    // the barrier.
    let barrier = std::sync::Barrier::new(2);
    let drive = |db: &Database| {
        let mut runs = Vec::new();
        for _ in 0..ROUNDS {
            for q in QUERIES {
                barrier.wait();
                runs.push(db.query(q).map(seen));
            }
        }
        barrier.wait();
        (runs, db.execute(&format!("EXPLAIN ANALYZE {}", QUERIES[0])))
    };
    let ((dense_runs, dense_explain), (sparse_runs, sparse_explain)) =
        std::thread::scope(|s| {
            let d = s.spawn(|| drive(&dense_db));
            let sp = s.spawn(|| drive(&sparse_db));
            (d.join().unwrap(), sp.join().unwrap())
        });
    for (name, runs, solo) in
        [("dense", dense_runs, &solo_dense), ("sparse", sparse_runs, &solo_sparse)]
    {
        for (i, got) in runs.into_iter().enumerate() {
            let q = QUERIES[i % QUERIES.len()];
            let got = got.unwrap_or_else(|e| panic!("{name} query={q}: {e}"));
            let want = &solo[i % QUERIES.len()];
            assert!(
                got == *want,
                "{name} run {i} differs from solo (counts {:?} vs {:?}): {q}",
                got.1,
                want.1
            );
        }
    }
    for (mode, out) in [("dense", dense_explain), ("sparse", sparse_explain)] {
        let Ok(lardb::database::Response::Explained(text)) = out else {
            panic!("EXPLAIN ANALYZE on the {mode} database failed: {out:?}");
        };
        assert!(
            text.contains(&format!("la dispatch ({mode}):")),
            "the {mode} database's EXPLAIN ANALYZE names another mode:\n{text}"
        );
    }
}
