//! The fused `SUM(outer_product(x, y))` aggregate must be a pure speed
//! change: every query here runs once as written (fused: the aggregate
//! folds `x` and `y` into its running matrix through the rank-k kernel)
//! and once as `SUM(outer_product(x, y) * 1.0)`, which multiplies every
//! element by one (exact) and so keeps the unfused materialize-then-add
//! path. The two results must match float bit for float bit — across
//! NULL rows, signed zeros, infinities, `GROUP BY`, a join, a spilling
//! memory budget, both expression engines and W ∈ {1, 4} — and a
//! shape mismatch must fail with the same error text.

use lardb::{DataType, Database, DatabaseConfig, Partitioning, Row, Schema, Value, Vector};
use lardb_exec::ExprEngine;

/// Vector widths off the 4×8 tile, so edge loops run too.
const D: usize = 7;
const W2: usize = 5;
const ROWS: i64 = 900;
/// Groups of the spill query: enough `D × D` states to overflow 1 MiB.
const SPILL_D: usize = 24;
const SPILL_GROUPS: i64 = 1600;

fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lardb-fused-outer-{}-{tag}", std::process::id()))
}

fn config(workers: usize, engine: ExprEngine, mem_mb: u64, tag: &str) -> DatabaseConfig {
    DatabaseConfig {
        workers,
        morsel_rows: 64,
        pool_workers: Some(4),
        expr_engine: engine,
        // `Some(0)`: a dedicated unbounded governor.
        mem: Some(mem_mb),
        spill_dir: Some(spill_dir(tag)),
        ..DatabaseConfig::default()
    }
}

/// Deterministic entries with signed zeros and infinities mixed in.
fn entry(i: i64, j: usize) -> f64 {
    match (i as usize * 31 + j * 7) % 41 {
        0 => -0.0,
        1 => 0.0,
        2 if i % 5 == 0 => f64::INFINITY,
        _ => ((i * 13 + j as i64 * 29) % 97) as f64 / 8.0 - 6.0,
    }
}

fn vector(i: i64, len: usize) -> Value {
    Value::vector(Vector::from_vec((0..len).map(|j| entry(i, j)).collect()))
}

fn load(db: &Database) {
    db.create_table(
        "x",
        Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("g", DataType::Integer),
            ("value", DataType::Vector(Some(D))),
            ("w", DataType::Vector(Some(W2))),
        ]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    let rows = (0..ROWS).map(|i| {
        // Every 11th value is NULL; group 9 holds only rows whose products
        // are all -0.0 or positive, so its sum must keep the first lane's
        // signed zeros rather than start from +0.0.
        let value = if i % 11 == 3 {
            Value::Null
        } else if i % 10 == 9 {
            Value::vector(Vector::from_vec(
                (0..D)
                    .map(|j| if j == 0 { -0.0 } else { 1.0 + j as f64 })
                    .collect(),
            ))
        } else {
            vector(i, D)
        };
        Row::new(vec![
            Value::Integer(i),
            Value::Integer(i % 10),
            value,
            vector(i + 1, W2),
        ])
    });
    db.insert_rows("x", rows).unwrap();
    db.create_table(
        "wide",
        Schema::from_pairs(&[
            ("g", DataType::Integer),
            ("v", DataType::Vector(Some(SPILL_D))),
        ]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    let rows = (0..SPILL_GROUPS * 2)
        .map(|i| Row::new(vec![Value::Integer(i % SPILL_GROUPS), vector(i, SPILL_D)]));
    db.insert_rows("wide", rows).unwrap();
    db.create_table(
        "bad",
        Schema::from_pairs(&[("v", DataType::Vector(None))]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    let rows = [3, 3, 2].map(|n| Row::new(vec![vector(n as i64, n)]));
    db.insert_rows("bad", rows).unwrap();
}

/// Every float's bits, with any NaN mapped to one canonical NaN: Rust
/// leaves the sign and payload of a NaN produced by arithmetic
/// unspecified, so those are the only bits the contract does not cover.
fn bits(rows: &[Row]) -> Vec<Vec<String>> {
    let f = |x: &f64| {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    };
    rows.iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v {
                    Value::Matrix(m) => format!(
                        "{:?} {:?}",
                        m.shape(),
                        m.as_slice().iter().map(f).collect::<Vec<_>>()
                    ),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// `(fused, unfused)` pairs: the unfused twin multiplies by 1.0.
const PAIRS: &[(&str, &str)] = &[
    (
        "SELECT SUM(outer_product(x.value, x.value)) AS s FROM x",
        "SELECT SUM(outer_product(x.value, x.value) * 1.0) AS s FROM x",
    ),
    (
        "SELECT x.g, SUM(outer_product(x.value, x.w)) AS s, COUNT(*) AS n FROM x GROUP BY x.g",
        "SELECT x.g, SUM(outer_product(x.value, x.w) * 1.0) AS s, COUNT(*) AS n FROM x GROUP BY x.g",
    ),
    (
        "SELECT x.g, SUM(outer_product(x.value, x.value)) AS s FROM x WHERE x.id >= 130 AND x.g <> 4 GROUP BY x.g",
        "SELECT x.g, SUM(outer_product(x.value, x.value) * 1.0) AS s FROM x WHERE x.id >= 130 AND x.g <> 4 GROUP BY x.g",
    ),
    (
        "SELECT SUM(outer_product(a.value, b.w)) AS s FROM x AS a, x AS b WHERE a.id = b.id",
        "SELECT SUM(outer_product(a.value, b.w) * 1.0) AS s FROM x AS a, x AS b WHERE a.id = b.id",
    ),
];

#[test]
fn fused_outer_sum_is_bit_identical_to_unfused() {
    for workers in [1, 4] {
        for engine in [ExprEngine::Compiled, ExprEngine::Interpret] {
            let db = Database::with_config(config(workers, engine, 0, "eq"));
            load(&db);
            for (fused, unfused) in PAIRS {
                let got = db.query(fused).unwrap();
                let want = db.query(unfused).unwrap();
                assert!(!got.rows.is_empty());
                assert_eq!(
                    bits(&got.rows),
                    bits(&want.rows),
                    "W={workers} {engine}: {fused}"
                );
            }
        }
    }
}

#[test]
fn fused_outer_sum_matches_unfused_under_spilling_budget() {
    let fused = "SELECT w.g, SUM(outer_product(w.v, w.v)) AS s FROM wide AS w GROUP BY w.g";
    let unfused = "SELECT w.g, SUM(outer_product(w.v, w.v) * 1.0) AS s FROM wide AS w GROUP BY w.g";
    for workers in [1, 4] {
        let free = Database::with_config(config(workers, ExprEngine::Compiled, 0, "free"));
        load(&free);
        let want = free.query(unfused).unwrap();
        let tight = Database::with_config(config(workers, ExprEngine::Compiled, 1, "tight"));
        load(&tight);
        let got = tight.query(fused).unwrap();
        assert!(
            got.stats.total_spill_bytes() > 0,
            "W={workers}: the budget must force a spill"
        );
        assert_eq!(bits(&got.rows), bits(&want.rows), "W={workers}");
        let spilled_unfused = tight.query(unfused).unwrap();
        assert_eq!(bits(&spilled_unfused.rows), bits(&want.rows), "W={workers}");
    }
}

#[test]
fn fused_outer_sum_reports_the_unfused_shape_error() {
    for workers in [1, 4] {
        for engine in [ExprEngine::Compiled, ExprEngine::Interpret] {
            let db = Database::with_config(config(workers, engine, 0, "err"));
            load(&db);
            let fused = db.query("SELECT SUM(outer_product(b.v, b.v)) AS s FROM bad AS b");
            let unfused = db.query("SELECT SUM(outer_product(b.v, b.v) * 1.0) AS s FROM bad AS b");
            let (fused, unfused) = (fused.unwrap_err(), unfused.unwrap_err());
            assert!(fused.to_string().contains("dimension mismatch"), "{fused}");
            assert_eq!(
                fused.to_string(),
                unfused.to_string(),
                "W={workers} {engine}"
            );
        }
    }
}
