//! Sparse-kernel density sweep: SpMV and GEMM wall time as density
//! shrinks, dense baseline vs density-adaptive dispatch, plus the two
//! end-to-end iterative workloads (PageRank over an edge-built graph,
//! logistic-regression batch gradient descent) driven through SQL.
//!
//! The interesting curve is the crossover: at 50% density the adaptive
//! path stays near the dense loops, while at ≤1% the sparse kernels
//! must win by at least 5× (the CI artifact check). Both arms compute
//! the same float bits — `sparse_equivalence.rs` owns correctness; this
//! harness owns the speedup and the nnz-proportional byte evidence.
//!
//! With `--profile-json PATH` the harness re-times every arm once and
//! writes `{op, n, density, dense_ms, adaptive_ms, speedup}` records as
//! JSON (the CI artifact), plus shuffled-byte counts for the SQL arms.

use criterion::{criterion_group, Criterion};
use lardb::{
    dispatch, CooBuilder, DataType, Database, DatabaseConfig, DispatchMode, Matrix,
    Partitioning, Row, Schema, SchedulerMode, SparseMatrix, TransportMode, Value,
    Vector,
};
use lardb_obs::context::enter;
use lardb_obs::QueryContext;

const DENSITIES: &[f64] = &[0.001, 0.01, 0.1, 0.5];
/// SpMV operand side (dense baseline: ~2.4M multiply-adds per run).
const SPMV_N: usize = 1536;
/// GEMM operand side (dense baseline: ~56M multiply-adds per run).
const GEMM_N: usize = 384;

fn rngish(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// A `rows × cols` CSR matrix at roughly the given density, positive
/// 64ths so there is no cancellation.
fn sparse_matrix(seed: u64, rows: usize, cols: usize, density: f64) -> SparseMatrix {
    let mut rng = rngish(seed);
    let mut b = CooBuilder::new();
    let target = ((rows * cols) as f64 * density).ceil() as usize;
    for _ in 0..target {
        b.push(
            (rng() as usize % rows) as i64,
            (rng() as usize % cols) as i64,
            (rng() % 2000 + 1) as f64 / 64.0,
        )
        .unwrap();
    }
    b.build(rows, cols).unwrap()
}

fn dense_vector(n: usize) -> Vector {
    Vector::from_vec((0..n).map(|i| (i as f64 + 1.0) / 8.0).collect())
}

/// One SpMV the way the engine dispatches it inside a query of the given
/// mode: sparse kernel when the dispatch layer keeps the tile sparse,
/// densify-then-dense otherwise.
fn spmv_arm(m: &SparseMatrix, dense: &Matrix, x: &Vector, mode: DispatchMode) -> f64 {
    let _ctx = enter(Some(QueryContext::new(None, mode)));
    let y = if dispatch::keep_sparse(m.density()) {
        m.spmv(x).unwrap()
    } else {
        dense.matrix_vector_multiply(x).unwrap()
    };
    y.as_slice()[0]
}

fn gemm_arm(
    a: &SparseMatrix,
    b: &SparseMatrix,
    ad: &Matrix,
    bd: &Matrix,
    mode: DispatchMode,
) -> f64 {
    let _ctx = enter(Some(QueryContext::new(None, mode)));
    if dispatch::keep_sparse(a.density()) {
        a.multiply_sparse(b).unwrap().sum_elements()
    } else {
        ad.multiply(bd).unwrap().sum_elements()
    }
}

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|x, y| x.total_cmp(y));
    samples[samples.len() / 2]
}

fn bench_density_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse_density_sweep");
    g.sample_size(10);
    let x = dense_vector(SPMV_N);
    for &density in DENSITIES {
        let m = sparse_matrix(0x5eed ^ density.to_bits(), SPMV_N, SPMV_N, density);
        let md = m.to_dense();
        g.bench_function(format!("spmv/dense/d{density}"), |b| {
            b.iter(|| spmv_arm(&m, &md, &x, DispatchMode::Dense))
        });
        g.bench_function(format!("spmv/adaptive/d{density}"), |b| {
            b.iter(|| spmv_arm(&m, &md, &x, DispatchMode::Adaptive))
        });

        let a = sparse_matrix(0xa ^ density.to_bits(), GEMM_N, GEMM_N, density);
        let b2 = sparse_matrix(0xb ^ density.to_bits(), GEMM_N, GEMM_N, density);
        let (ad, bd) = (a.to_dense(), b2.to_dense());
        g.bench_function(format!("gemm/dense/d{density}"), |b| {
            b.iter(|| gemm_arm(&a, &b2, &ad, &bd, DispatchMode::Dense))
        });
        g.bench_function(format!("gemm/adaptive/d{density}"), |b| {
            b.iter(|| gemm_arm(&a, &b2, &ad, &bd, DispatchMode::Adaptive))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_density_sweep);

// ---------------------------------------------------------------------
// End-to-end iterative workloads, driven through SQL.
// ---------------------------------------------------------------------

fn workload_db(mode: DispatchMode, tag: &str) -> Database {
    Database::with_config(DatabaseConfig {
        workers: 2,
        scheduler: SchedulerMode::Pool,
        transport: TransportMode::Serialized,
        pool_workers: Some(4),
        mem: Some(0),
        spill_dir: Some(std::env::temp_dir().join(format!(
            "lardb-bench-sparse-{tag}-{}",
            std::process::id()
        ))),
        sparse_dispatch: Some(mode),
        ..DatabaseConfig::default()
    })
}

/// Column-stochastic adjacency for a deterministic graph with average
/// out-degree ~4 (density ≈ 4/n).
fn stochastic_graph(n: usize) -> SparseMatrix {
    let mut rng = rngish(0x9a9a);
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (src, targets) in out.iter_mut().enumerate() {
        targets.push((src * 7 + 1) % n);
        for _ in 0..(rng() % 6) {
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

/// Runs `iters` damped PageRank steps through SQL SpMV. Returns
/// (wall ms, shuffled bytes, final L1 delta).
fn pagerank_run(
    m: &SparseMatrix,
    sparse: bool,
    mode: DispatchMode,
    iters: usize,
) -> (f64, usize, f64) {
    let n = m.rows();
    let db = workload_db(mode, if sparse { "pr-s" } else { "pr-d" });
    db.create_table(
        "graph",
        Schema::from_pairs(&[("m", DataType::Matrix(Some(n), Some(n)))]),
        Partitioning::Hash(0),
    )
    .unwrap();
    let cell =
        if sparse { Value::sparse_matrix(m.clone()) } else { Value::matrix(m.to_dense()) };
    db.insert_rows("graph", std::iter::once(Row::new(vec![cell]))).unwrap();

    let mut rank = vec![1.0 / n as f64; n];
    let mut delta = f64::INFINITY;
    let mut shuffled = 0usize;
    let t0 = std::time::Instant::now();
    for k in 0..iters {
        let table = format!("rank_{k}");
        db.create_table(
            &table,
            Schema::from_pairs(&[("x", DataType::Vector(Some(n)))]),
            Partitioning::Hash(0),
        )
        .unwrap();
        db.insert_rows(
            &table,
            std::iter::once(Row::new(vec![Value::vector(Vector::from_vec(rank.clone()))])),
        )
        .unwrap();
        let r = db
            .query(&format!(
                "SELECT matrix_vector_multiply(g.m, r.x) AS y FROM graph AS g, {table} AS r"
            ))
            .unwrap();
        shuffled += r.stats.total_bytes_shuffled();
        let y = r.rows[0].value(0).as_vector().unwrap();
        let next: Vec<f64> =
            y.as_slice().iter().map(|&mv| 0.85 * mv + 0.15 / n as f64).collect();
        delta = next.iter().zip(&rank).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
    }
    (t0.elapsed().as_secs_f64() * 1e3, shuffled, delta)
}

/// Runs `iters` logistic-regression gradient steps (`z = X·w`,
/// `g = Xᵀ·(σ(z) − y)`) through SQL. Returns (wall ms, final loss).
fn logreg_run(
    x: &SparseMatrix,
    y: &[f64],
    sparse: bool,
    mode: DispatchMode,
    iters: usize,
) -> (f64, f64) {
    let (rows, feats) = x.shape();
    let db = workload_db(mode, if sparse { "lr-s" } else { "lr-d" });
    db.create_table(
        "feats",
        Schema::from_pairs(&[("m", DataType::Matrix(Some(rows), Some(feats)))]),
        Partitioning::Hash(0),
    )
    .unwrap();
    let cell =
        if sparse { Value::sparse_matrix(x.clone()) } else { Value::matrix(x.to_dense()) };
    db.insert_rows("feats", std::iter::once(Row::new(vec![cell]))).unwrap();

    let spmv = |k: usize, tag: &str, v: &[f64], transpose: bool| -> Vec<f64> {
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
        let r = db
            .query(&format!("SELECT {expr} AS y FROM feats AS f, {table} AS r"))
            .unwrap();
        r.rows[0].value(0).as_vector().unwrap().as_slice().to_vec()
    };

    let sigmoid = |z: f64| 1.0 / (1.0 + (-z).exp());
    let mut w = vec![0.0f64; feats];
    let mut last_loss = f64::INFINITY;
    let t0 = std::time::Instant::now();
    for k in 0..iters {
        let z = spmv(k, "z", &w, false);
        let p: Vec<f64> = z.iter().map(|&z| sigmoid(z)).collect();
        last_loss = p
            .iter()
            .zip(y)
            .map(|(&p, &yi)| {
                let p = p.clamp(1e-12, 1.0 - 1e-12);
                -(yi * p.ln() + (1.0 - yi) * (1.0 - p).ln())
            })
            .sum::<f64>()
            / rows as f64;
        let resid: Vec<f64> = p.iter().zip(y).map(|(&p, &yi)| p - yi).collect();
        let g = spmv(k, "g", &resid, true);
        for i in 0..feats {
            w[i] -= 0.05 / rows as f64 * g[i];
        }
    }
    (t0.elapsed().as_secs_f64() * 1e3, last_loss)
}

fn profile_json_path() -> Option<String> {
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--profile-json" {
            return argv.next();
        }
    }
    None
}

fn main() {
    benches();
    let Some(path) = profile_json_path() else { return };
    let mut records = Vec::new();

    // Kernel arms: dense baseline vs adaptive dispatch per density.
    let x = dense_vector(SPMV_N);
    for &density in DENSITIES {
        let m = sparse_matrix(0x5eed ^ density.to_bits(), SPMV_N, SPMV_N, density);
        let md = m.to_dense();
        let dense_ms = median_ms(7, || {
            std::hint::black_box(spmv_arm(&m, &md, &x, DispatchMode::Dense));
        });
        let adaptive_ms = median_ms(7, || {
            std::hint::black_box(spmv_arm(&m, &md, &x, DispatchMode::Adaptive));
        });
        records.push(format!(
            "{{\"op\":\"spmv\",\"n\":{SPMV_N},\"density\":{density},\"nnz\":{},\
             \"dense_ms\":{dense_ms:.4},\"adaptive_ms\":{adaptive_ms:.4},\
             \"speedup\":{:.2}}}",
            m.nnz(),
            dense_ms / adaptive_ms.max(1e-9),
        ));

        let a = sparse_matrix(0xa ^ density.to_bits(), GEMM_N, GEMM_N, density);
        let b = sparse_matrix(0xb ^ density.to_bits(), GEMM_N, GEMM_N, density);
        let (ad, bd) = (a.to_dense(), b.to_dense());
        let dense_ms = median_ms(5, || {
            std::hint::black_box(gemm_arm(&a, &b, &ad, &bd, DispatchMode::Dense));
        });
        let adaptive_ms = median_ms(5, || {
            std::hint::black_box(gemm_arm(&a, &b, &ad, &bd, DispatchMode::Adaptive));
        });
        records.push(format!(
            "{{\"op\":\"gemm\",\"n\":{GEMM_N},\"density\":{density},\"nnz\":{},\
             \"dense_ms\":{dense_ms:.4},\"adaptive_ms\":{adaptive_ms:.4},\
             \"speedup\":{:.2}}}",
            a.nnz(),
            dense_ms / adaptive_ms.max(1e-9),
        ));
    }

    // Exchange-byte arm: the tiled matmul repartitions both tables' tile
    // cells over a serialized transport, so the shuffled-byte counters
    // are the nnz-proportionality evidence — at 1% density the sparse
    // store must ship far fewer wire bytes than the dense twin.
    let (sparse_bytes, dense_bytes) = {
        let tile_join = |sparse: bool, mode: DispatchMode| -> usize {
            let db = workload_db(mode, if sparse { "tj-s" } else { "tj-d" });
            let schema = Schema::from_pairs(&[
                ("tr", DataType::Integer),
                ("tc", DataType::Integer),
                ("mat", DataType::Matrix(Some(64), Some(64))),
            ]);
            for (name, base) in [("ta", 0x71a0u64), ("tb", 0x71b0)] {
                db.create_table(name, schema.clone(), Partitioning::Hash(0)).unwrap();
                let mut rows = Vec::new();
                for tr in 0..4i64 {
                    for tc in 0..4i64 {
                        let t = sparse_matrix(
                            base ^ (tr as u64 * 31 + tc as u64),
                            64,
                            64,
                            0.01,
                        );
                        let cell = if sparse {
                            Value::sparse_matrix(t)
                        } else {
                            Value::matrix(t.to_dense())
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
            let r = db
                .query(
                    "SELECT a.tr, b.tc, SUM(matrix_multiply(a.mat, b.mat)) AS m
                     FROM ta AS a, tb AS b WHERE a.tc = b.tr GROUP BY a.tr, b.tc",
                )
                .unwrap();
            r.stats.total_bytes_shuffled()
        };
        (tile_join(true, DispatchMode::Adaptive), tile_join(false, DispatchMode::Dense))
    };
    records.push(format!(
        "{{\"op\":\"tile_join_shuffle\",\"tiles\":\"4x4x64\",\"density\":0.01,\
         \"sparse_shuffle_bytes\":{sparse_bytes},\
         \"dense_shuffle_bytes\":{dense_bytes},\
         \"bytes_ratio\":{:.1}}}",
        dense_bytes as f64 / (sparse_bytes as f64).max(1.0),
    ));

    // End-to-end arms: same trajectories, different representations.
    let m = stochastic_graph(1200);
    let iters = 12;
    let (dense_ms, dense_bytes, delta_d) =
        pagerank_run(&m, false, DispatchMode::Dense, iters);
    let (adaptive_ms, sparse_bytes, delta_s) =
        pagerank_run(&m, true, DispatchMode::Adaptive, iters);
    assert_eq!(delta_d, delta_s, "PageRank arms diverged");
    records.push(format!(
        "{{\"op\":\"pagerank\",\"n\":{},\"density\":{:.6},\"iters\":{iters},\
         \"dense_ms\":{dense_ms:.3},\"adaptive_ms\":{adaptive_ms:.3},\
         \"speedup\":{:.2},\"dense_shuffle_bytes\":{dense_bytes},\
         \"sparse_shuffle_bytes\":{sparse_bytes},\"l1_delta\":{delta_s:.3e}}}",
        m.rows(),
        m.density(),
        dense_ms / adaptive_ms.max(1e-9),
    ));

    let xm = sparse_matrix(0x10919, 2000, 64, 0.01);
    let mut rng = rngish(0x1abe1);
    let y: Vec<f64> = (0..2000).map(|_| (rng() % 2) as f64).collect();
    let lr_iters = 8;
    let (dense_ms, loss_d) = logreg_run(&xm, &y, false, DispatchMode::Dense, lr_iters);
    let (adaptive_ms, loss_s) =
        logreg_run(&xm, &y, true, DispatchMode::Adaptive, lr_iters);
    assert_eq!(loss_d, loss_s, "logreg arms diverged");
    records.push(format!(
        "{{\"op\":\"logreg\",\"rows\":2000,\"feats\":64,\"density\":0.01,\
         \"iters\":{lr_iters},\"dense_ms\":{dense_ms:.3},\
         \"adaptive_ms\":{adaptive_ms:.3},\"speedup\":{:.2},\
         \"loss\":{loss_s:.6}}}",
        dense_ms / adaptive_ms.max(1e-9),
    ));

    let doc = format!(
        "{{\"bench\":\"sparse_density_sweep\",\"densities\":[0.001,0.01,0.1,0.5],\
         \"runs\":[{}]}}",
        records.join(",")
    );
    match std::fs::write(&path, &doc) {
        Ok(()) => println!("wrote sparse density sweep profile to {path}: {doc}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}
