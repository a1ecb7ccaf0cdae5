//! End-to-end SQL tests: parse → bind → optimize → physical plan →
//! parallel execution, checked against directly-computed answers.

use lardb::{
    DataType, Database, DatabaseConfig, Partitioning, Row, Schema, TransportMode, Value, Vector,
};

fn db() -> Database {
    Database::new(4)
}

/// Like [`db`], with every exchange wire-encoded.
fn serialized_db() -> Database {
    Database::with_config(DatabaseConfig {
        workers: 4,
        transport: TransportMode::Serialized,
        ..DatabaseConfig::default()
    })
}

#[test]
fn scalar_aggregates_over_generated_data() {
    let db = db();
    db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
    let rows: Vec<Row> = (0..100)
        .map(|i| Row::new(vec![Value::Integer(i), Value::Double((i as f64) * 0.5)]))
        .collect();
    db.insert_rows("t", rows).unwrap();

    let r = db
        .query("SELECT SUM(v) AS s, COUNT(*) AS n, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS m FROM t")
        .unwrap();
    let row = &r.rows[0];
    assert_eq!(row.value(0).as_double(), Some(0.5 * (99.0 * 100.0 / 2.0)));
    assert_eq!(row.value(1).as_integer(), Some(100));
    assert_eq!(row.value(2).as_double(), Some(0.0));
    assert_eq!(row.value(3).as_double(), Some(49.5));
    assert_eq!(row.value(4).as_double(), Some(24.75));
}

#[test]
fn where_and_group_by_with_expressions() {
    let db = db();
    db.execute("CREATE TABLE t (id INTEGER)").unwrap();
    db.insert_rows("t", (0..50).map(|i| Row::new(vec![Value::Integer(i)])))
        .unwrap();
    // Integer division groups ids into buckets of 10.
    let r = db
        .query("SELECT id / 10 AS bucket, COUNT(*) AS n FROM t WHERE id < 30 GROUP BY id / 10")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    for row in &r.rows {
        assert_eq!(row.value(1).as_integer(), Some(10));
    }
}

#[test]
fn multi_way_join_matches_manual_computation() {
    let db = db();
    db.execute("CREATE TABLE a (k INTEGER, x DOUBLE)").unwrap();
    db.execute("CREATE TABLE b (k INTEGER, y DOUBLE)").unwrap();
    db.execute("CREATE TABLE c (k INTEGER, z DOUBLE)").unwrap();
    for i in 0..20i64 {
        db.execute(&format!("INSERT INTO a VALUES ({i}, {})", i as f64)).unwrap();
        db.execute(&format!("INSERT INTO b VALUES ({i}, {})", (i * 2) as f64)).unwrap();
        db.execute(&format!("INSERT INTO c VALUES ({i}, {})", (i * 3) as f64)).unwrap();
    }
    let r = db
        .query(
            "SELECT SUM(a.x * b.y * c.z) AS s
             FROM a, b, c
             WHERE a.k = b.k AND b.k = c.k",
        )
        .unwrap();
    let expected: f64 = (0..20).map(|i| (i * i * 2 * i * 3) as f64).sum();
    assert_eq!(r.scalar().unwrap().as_double(), Some(expected));
}

#[test]
fn vectors_through_views_and_subqueries() {
    let db = db();
    db.create_table(
        "x",
        Schema::from_pairs(&[("id", DataType::Integer), ("v", DataType::Vector(Some(3)))]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    for i in 0..10i64 {
        db.insert_rows(
            "x",
            [Row::new(vec![
                Value::Integer(i),
                Value::vector(Vector::from_fn(3, |j| (i as f64) + j as f64)),
            ])],
        )
        .unwrap();
    }
    db.execute("CREATE VIEW norms AS SELECT id, inner_product(v, v) AS nn FROM x")
        .unwrap();
    let r = db
        .query(
            "SELECT MAX(q.nn) AS m FROM (SELECT nn FROM norms WHERE norms.id < 5) AS q",
        )
        .unwrap();
    // id = 4 → vector [4,5,6] → 16+25+36 = 77
    assert_eq!(r.scalar().unwrap().as_double(), Some(77.0));
}

#[test]
fn vectorize_builds_vector_from_normalized_rows() {
    // §3.3: SELECT VECTORIZE(label_scalar(y_i, i)) FROM y
    let db = db();
    db.execute("CREATE TABLE y (i INTEGER, y_i DOUBLE)").unwrap();
    for i in 0..6i64 {
        db.execute(&format!("INSERT INTO y VALUES ({i}, {})", (i * i) as f64)).unwrap();
    }
    let r = db.query("SELECT VECTORIZE(label_scalar(y_i, i)) AS v FROM y").unwrap();
    let v = r.scalar().unwrap().as_vector().unwrap().clone();
    assert_eq!(v.as_slice(), &[0.0, 1.0, 4.0, 9.0, 16.0, 25.0]);
}

#[test]
fn rowmatrix_assembles_matrix_from_vectors() {
    // §3.3's two-step construction: VECTORIZE per row, then ROWMATRIX.
    let db = db();
    db.execute("CREATE TABLE mat (row INTEGER, col INTEGER, value DOUBLE)").unwrap();
    for r in 0..3i64 {
        for c in 0..4i64 {
            db.execute(&format!("INSERT INTO mat VALUES ({r}, {c}, {})", (r * 10 + c) as f64))
                .unwrap();
        }
    }
    db.execute(
        "CREATE VIEW vecs AS
         SELECT VECTORIZE(label_scalar(value, col)) AS vec, row
         FROM mat GROUP BY row",
    )
    .unwrap();
    let r = db
        .query("SELECT ROWMATRIX(label_vector(vec, row)) AS m FROM vecs")
        .unwrap();
    let m = r.scalar().unwrap().as_matrix().unwrap().clone();
    assert_eq!(m.shape(), (3, 4));
    assert_eq!(m.get(2, 3).unwrap(), 23.0);
    assert_eq!(m.get(0, 1).unwrap(), 1.0);
}

#[test]
fn colmatrix_transposed_assembly() {
    let db = db();
    db.execute("CREATE TABLE mat (row INTEGER, col INTEGER, value DOUBLE)").unwrap();
    for r in 0..2i64 {
        for c in 0..3i64 {
            db.execute(&format!("INSERT INTO mat VALUES ({r}, {c}, {})", (r * 10 + c) as f64))
                .unwrap();
        }
    }
    // Group by column, collect as columns.
    db.execute(
        "CREATE VIEW cvecs AS
         SELECT VECTORIZE(label_scalar(value, row)) AS vec, col
         FROM mat GROUP BY col",
    )
    .unwrap();
    let r = db
        .query("SELECT COLMATRIX(label_vector(vec, col)) AS m FROM cvecs")
        .unwrap();
    let m = r.scalar().unwrap().as_matrix().unwrap().clone();
    assert_eq!(m.shape(), (2, 3));
    assert_eq!(m.get(1, 2).unwrap(), 12.0);
}

#[test]
fn normalization_via_get_scalar_and_label_table() {
    // §3.3's reverse direction: vector → relational, via a label table.
    let db = db();
    db.create_table(
        "vecs",
        Schema::from_pairs(&[("vec", DataType::Vector(Some(4)))]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db.insert_rows(
        "vecs",
        [Row::new(vec![Value::vector(Vector::from_slice(&[5.0, 6.0, 7.0, 8.0]))])],
    )
    .unwrap();
    db.execute("CREATE TABLE label (id INTEGER)").unwrap();
    for i in 0..4i64 {
        db.execute(&format!("INSERT INTO label VALUES ({i})")).unwrap();
    }
    let r = db
        .query(
            "SELECT label.id, get_scalar(vecs.vec, label.id) AS x FROM vecs, label",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 4);
    let mut got: Vec<(i64, f64)> = r
        .rows
        .iter()
        .map(|row| {
            (row.value(0).as_integer().unwrap(), row.value(1).as_double().unwrap())
        })
        .collect();
    got.sort_by_key(|(i, _)| *i);
    assert_eq!(got, vec![(0, 5.0), (1, 6.0), (2, 7.0), (3, 8.0)]);
}

#[test]
fn hadamard_product_per_row() {
    // §3.2: SELECT mat * mat FROM m returns the Hadamard product per tuple.
    let db = db();
    db.create_table(
        "m",
        Schema::from_pairs(&[("mat", DataType::Matrix(Some(2), Some(2)))]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db.insert_rows(
        "m",
        [Row::new(vec![Value::matrix(
            lardb::Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap(),
        )])],
    )
    .unwrap();
    let r = db.query("SELECT mat * mat AS h FROM m").unwrap();
    let h = r.scalar().unwrap().as_matrix().unwrap().clone();
    assert_eq!(h.get(1, 1).unwrap(), 16.0);
}

#[test]
fn dimension_mismatch_is_a_compile_error() {
    // §3.1: sized declarations are checked before execution.
    let db = db();
    db.execute("CREATE TABLE m (mat MATRIX[10][10], vec VECTOR[100])").unwrap();
    let err = db.query("SELECT matrix_vector_multiply(m.mat, m.vec) AS r FROM m");
    assert!(err.is_err());
    // With matching sizes it compiles.
    db.execute("CREATE TABLE m2 (mat MATRIX[10][10], vec VECTOR[10])").unwrap();
    assert!(db.query("SELECT matrix_vector_multiply(m2.mat, m2.vec) AS r FROM m2").is_ok());
}

#[test]
fn unsized_vector_defers_to_runtime_error() {
    // §3.1: VECTOR[] compiles but may fail at runtime.
    let db = db();
    db.create_table(
        "m",
        Schema::from_pairs(&[
            ("mat", DataType::Matrix(Some(2), Some(2))),
            ("vec", DataType::Vector(None)),
        ]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db.insert_rows(
        "m",
        [Row::new(vec![
            Value::matrix(lardb::Matrix::identity(2)),
            Value::vector(Vector::zeros(3)), // wrong length, accepted by VECTOR[]
        ])],
    )
    .unwrap();
    let err = db.query("SELECT matrix_vector_multiply(mat, vec) AS r FROM m");
    assert!(err.is_err(), "runtime dimension error expected");
}

#[test]
fn scalar_vector_arithmetic_in_sql() {
    let db = db();
    db.create_table(
        "x",
        Schema::from_pairs(&[("v", DataType::Vector(Some(2))), ("s", DataType::Double)]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db.insert_rows(
        "x",
        [Row::new(vec![
            Value::vector(Vector::from_slice(&[1.0, 2.0])),
            Value::Double(10.0),
        ])],
    )
    .unwrap();
    let r = db.query("SELECT v * s + v AS out FROM x").unwrap();
    let v = r.scalar().unwrap().as_vector().unwrap().clone();
    assert_eq!(v.as_slice(), &[11.0, 22.0]);
}

#[test]
fn order_by_limit() {
    let db = db();
    db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
    for i in 0..10i64 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", (10 - i) as f64)).unwrap();
    }
    let r = db
        .query("SELECT id, v FROM t ORDER BY v ASC, id DESC LIMIT 3")
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|x| x.value(0).as_integer().unwrap()).collect();
    assert_eq!(ids, vec![9, 8, 7]);
}

#[test]
fn worker_counts_do_not_change_answers() {
    // The same query on 1, 2, 3 and 8 workers must agree — distribution is
    // an implementation detail.
    let mut answers = Vec::new();
    for workers in [1, 2, 3, 8] {
        let db = Database::new(workers);
        db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
        db.insert_rows(
            "t",
            (0..97).map(|i| {
                Row::new(vec![Value::Integer(i % 7), Value::Double(i as f64)])
            }),
        )
        .unwrap();
        let r = db
            .query("SELECT id, SUM(v) AS s FROM t GROUP BY id ORDER BY id")
            .unwrap();
        let table: Vec<(i64, f64)> = r
            .rows
            .iter()
            .map(|row| {
                (row.value(0).as_integer().unwrap(), row.value(1).as_double().unwrap())
            })
            .collect();
        answers.push(table);
    }
    for w in &answers[1..] {
        assert_eq!(w, &answers[0]);
    }
}

#[test]
fn explain_output_reflects_table() {
    let db = db();
    db.execute("CREATE TABLE t (id INTEGER)").unwrap();
    let plan = db.explain("SELECT id FROM t WHERE id = 3").unwrap();
    assert!(plan.contains("TableScan(t)"));
    assert!(plan.contains("Filter"));
}

#[test]
fn explain_analyze_reports_actual_encoded_bytes() {
    let db = serialized_db();
    db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
    let rows: Vec<Row> = (0..60)
        .map(|i| Row::new(vec![Value::Integer(i), Value::Double(i as f64)]))
        .collect();
    db.insert_rows("t", rows).unwrap();

    let out = db
        .execute(
            "EXPLAIN ANALYZE SELECT t1.id, SUM(t1.v * t2.v) AS s \
             FROM t AS t1, t AS t2 WHERE t1.id = t2.id GROUP BY t1.id",
        )
        .unwrap();
    let lardb::database::Response::Explained(text) = out else {
        panic!("EXPLAIN ANALYZE should return Explained");
    };
    assert!(text.contains("== Physical Plan =="), "{text}");
    assert!(text.contains("== Execution Statistics =="), "{text}");
    // Per-channel detail lines prove the bytes are actual wire frames,
    // not pointer-mode estimates.
    assert!(text.contains(" frames"), "{text}");
    assert!(text.contains("ch 0->"), "{text}");

    // Plain EXPLAIN stays plan-only.
    let plain = db
        .execute("EXPLAIN SELECT t1.id FROM t AS t1")
        .unwrap();
    let lardb::database::Response::Explained(plain) = plain else {
        panic!("EXPLAIN should return Explained");
    };
    assert!(!plain.contains("== Execution Statistics =="), "{plain}");
}

#[test]
fn having_filters_groups() {
    let db = db();
    db.execute("CREATE TABLE t (g INTEGER, v DOUBLE)").unwrap();
    for i in 0..30i64 {
        db.execute(&format!("INSERT INTO t VALUES ({}, {})", i % 5, i as f64)).unwrap();
    }
    // groups 0..5, each 6 rows; HAVING keeps groups whose sum > 80
    let r = db
        .query("SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING SUM(v) > 80 ORDER BY g")
        .unwrap();
    // sums: g: g + g+5 + ... (6 terms) = 6g + (0+5+10+15+20+25) = 6g + 75
    // > 80 → g ≥ 1
    let gs: Vec<i64> = r.rows.iter().map(|x| x.value(0).as_integer().unwrap()).collect();
    assert_eq!(gs, vec![1, 2, 3, 4]);
}

#[test]
fn having_with_new_aggregate_not_in_select() {
    let db = db();
    db.execute("CREATE TABLE t (g INTEGER, v DOUBLE)").unwrap();
    for i in 0..20i64 {
        db.execute(&format!("INSERT INTO t VALUES ({}, {})", i % 4, i as f64)).unwrap();
    }
    let r = db
        .query("SELECT g FROM t GROUP BY g HAVING COUNT(*) > 4 ORDER BY g")
        .unwrap();
    assert_eq!(r.rows.len(), 4); // all groups have 5 rows
}

#[test]
fn distinct_deduplicates() {
    let db = db();
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
    for i in 0..24i64 {
        db.execute(&format!("INSERT INTO t VALUES ({}, {})", i % 3, i % 2)).unwrap();
    }
    let r = db.query("SELECT DISTINCT a, b FROM t ORDER BY a, b").unwrap();
    assert_eq!(r.rows.len(), 6);
    let first = &r.rows[0];
    assert_eq!(first.value(0).as_integer(), Some(0));
    assert_eq!(first.value(1).as_integer(), Some(0));
    // DISTINCT over a single column too
    let r = db.query("SELECT DISTINCT a FROM t").unwrap();
    assert_eq!(r.rows.len(), 3);
}

/// Loads a vector table and returns the EXPLAIN ANALYZE text for the
/// distributed Gram-matrix query on it.
fn explain_analyze_gram(db: &Database) -> String {
    db.create_table(
        "xg",
        Schema::from_pairs(&[("id", DataType::Integer), ("v", DataType::Vector(Some(4)))]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    for i in 0..40i64 {
        db.insert_rows(
            "xg",
            [Row::new(vec![
                Value::Integer(i),
                Value::vector(Vector::from_vec(vec![i as f64, 1.0, 2.0, 3.0])),
            ])],
        )
        .unwrap();
    }
    let out = db
        .execute("EXPLAIN ANALYZE SELECT SUM(outer_product(x.v, x.v)) AS g FROM xg AS x")
        .unwrap();
    let lardb::database::Response::Explained(text) = out else {
        panic!("EXPLAIN ANALYZE should return Explained");
    };
    text
}

#[test]
fn explain_analyze_gram_prints_estimate_vs_actual() {
    let text = explain_analyze_gram(&serialized_db());
    // Operator rows for the distributed matmul pipeline are present.
    assert!(text.contains("== Execution Statistics =="), "{text}");
    assert!(text.contains("TableScan"), "{text}");
    assert!(text.contains("HashAggregate"), "{text}");
    assert!(text.contains("Exchange"), "{text}");
    // Under the serialized transport, shuffled bytes are measured wire
    // frames and nonzero: at least one non-`0.000` MB figure appears in
    // an exchange row.
    assert!(text.contains(" frames"), "{text}");
    let stats_block = text.split("== Execution Statistics ==").nth(1).unwrap();
    let exchanged: f64 = stats_block
        .lines()
        .filter(|l| l.contains("Exchange"))
        .filter_map(|l| l.split_whitespace().rev().nth(2).and_then(|m| m.parse::<f64>().ok()))
        .sum();
    assert!(exchanged > 0.0, "serialized exchanges should report nonzero MB:\n{text}");
    // The estimate-vs-actual table is appended, with populated columns.
    assert!(text.contains("== Estimate vs Actual =="), "{text}");
    for col in ["est_rows", "act_rows", "q_rows", "est_MB", "act_MB", "q_MB"] {
        assert!(text.contains(col), "missing column {col}:\n{text}");
    }
    let est_block = text.split("== Estimate vs Actual ==").nth(1).unwrap();
    let scan_line = est_block
        .lines()
        .find(|l| l.contains("TableScan"))
        .expect("scan row in estimate table");
    let fields: Vec<&str> = scan_line.split_whitespace().collect();
    // id, label..., then six numeric columns; actual rows (4th from end
    // is act_MB... count from the right: q_MB, act_MB, est_MB, q_rows,
    // act_rows, est_rows).
    let act_rows: f64 = fields[fields.len() - 5].parse().unwrap();
    assert_eq!(act_rows, 40.0, "scan actual rows:\n{text}");
    let q_rows: f64 = fields[fields.len() - 4].parse().unwrap();
    assert!(q_rows >= 1.0, "q-error is ≥ 1 by definition:\n{text}");
}

#[test]
fn explain_analyze_marks_pointer_bytes_as_estimates() {
    // Default transport is pointer mode: shuffled bytes are modeled, not
    // measured, and the stats table marks them with `~`.
    let text = explain_analyze_gram(&db());
    let stats_block = text.split("== Execution Statistics ==").nth(1).unwrap();
    assert!(
        stats_block.lines().any(|l| l.contains("Exchange") && l.contains('~')),
        "pointer-mode exchange rows should carry a ~ estimate marker:\n{text}"
    );
    // The serialized run above asserts measured bytes have no marker.
    let measured = explain_analyze_gram(&serialized_db());
    let stats_block = measured.split("== Execution Statistics ==").nth(1).unwrap();
    assert!(
        !stats_block.lines().any(|l| l.contains("Exchange") && l.contains('~')),
        "serialized exchange bytes are measured, not estimated:\n{measured}"
    );
}

#[test]
fn show_metrics_matches_exec_stats_totals() {
    let db = serialized_db();
    db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
    db.insert_rows(
        "t",
        (0..80).map(|i| Row::new(vec![Value::Integer(i), Value::Double(i as f64)])),
    )
    .unwrap();
    let r = db
        .query(
            "SELECT t1.id, SUM(t1.v * t2.v) AS s \
             FROM t AS t1, t AS t2 WHERE t1.id = t2.id GROUP BY t1.id",
        )
        .unwrap();
    let shuffled = r.stats.total_bytes_shuffled() as f64;
    assert!(shuffled > 0.0, "join under serialized transport shuffles bytes");

    // SHOW METRICS returns a queryable relation whose counters cover at
    // least this query's totals (the registry is process-wide, so ≥).
    let lardb::database::Response::Rows(m) = db.execute("SHOW METRICS").unwrap() else {
        panic!("SHOW METRICS should return rows");
    };
    let metric = |name: &str| -> f64 {
        m.rows
            .iter()
            .find(|row| row.value(0).as_str() == Some(name))
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .value(2)
            .as_double()
            .unwrap()
    };
    assert!(metric("exec.bytes_shuffled") >= shuffled, "bytes counter covers the query");
    assert!(metric("exec.rows_shuffled") >= r.stats.total_rows_shuffled() as f64);
    assert!(metric("exec.plans_run") >= 1.0);
    assert!(metric("db.queries") >= 1.0);

    // The same data is visible as a SQL-queryable virtual table.
    let n = db.query("SELECT COUNT(*) AS n FROM metrics").unwrap();
    assert!(n.scalar().unwrap().as_integer().unwrap() >= m.rows.len() as i64 - 1);
}
