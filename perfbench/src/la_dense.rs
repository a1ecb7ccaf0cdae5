//! `la_dense`: the paper's Figs 1–3 (Gram, regression, distance) in the
//! vector and block SQL styles, repeated as a job on one embedded database
//! under pointer transport. After the warm-up job every statement is a
//! plan-cache hit, so LA kernels and LA-value aggregation do nearly all
//! the work.

use std::path::Path;

use lardb::{DataType, Database, Matrix, Partitioning, Row, Schema, TransportMode, Value, Vector};

use crate::embedded::{config, ddl, JobLog, Load, Workload};
use crate::gen::{Dense, Rng};
use crate::oracle;
use crate::probes::LaShapes;
use crate::session::{Kind, Session};

/// Points and dimensions of the Gram and regression statements.
const N: usize = 5_000;
const D: usize = 100;
/// Rows per block in the block style (the paper's 1000).
const BLOCK: usize = 1_000;
/// Points of the distance statements (all pairs, so fewer).
const N_DIST: usize = 1_250;
const DIST_BLOCK: usize = 250;
/// Noise amplitude of the regression targets, and the tolerance on β.
const NOISE: f64 = 0.01;
const BETA_TOL: f64 = 2e-3;
/// Relative tolerance of Gram entries and distances against the loops.
const TOL: f64 = 1e-9;

/// The tiles the statements multiply: `XᵀX` of 1000×100 blocks, the
/// 100-wide outer products of the vector style, `A·x` with the 100×100
/// metric. SpMV has no dense counterpart here and uses a 20000-node graph
/// with four non-zeros per row.
pub const SHAPES: LaShapes = LaShapes {
    gemm: (D, BLOCK, D),
    syrk: (BLOCK, D),
    outer: D,
    matvec: (D, D),
    spmv: (20_000, 4),
};

const GRAM_VECTOR: &str = "SELECT SUM(outer_product(x.value, x.value)) AS g FROM x_vm AS x";
const GRAM_BLOCK: &str = "SELECT SUM(matrix_multiply(trans_matrix(b.m), b.m)) AS g FROM mlx AS b";
const REGRESS_VECTOR: &str = "SELECT matrix_vector_multiply(
        matrix_inverse(SUM(outer_product(x.value, x.value))),
        SUM(x.value * y.y_i)) AS beta
    FROM x_vm AS x, y WHERE x.id = y.i";
const REGRESS_BLOCK: &str = "SELECT matrix_vector_multiply(
        matrix_inverse(SUM(matrix_multiply(trans_matrix(b.m), b.m))),
        SUM(matrix_vector_multiply(trans_matrix(b.m), t.yv))) AS beta
    FROM mlxi AS b, yb AS t WHERE b.mi = t.mi";
/// Per point, the nearest point of every other block.
const DIST_CROSS: &str = "SELECT q.id1 AS bid, MIN(q.v) AS mv
    FROM (SELECT xx.mi AS id1,
                 row_min(matrix_multiply(xx.m, matrix_multiply(a.val, trans_matrix(xo.m)))) AS v
          FROM mlxd AS xo, mlxd AS xx, matrix_a AS a
          WHERE xx.mi <> xo.mi) AS q
    GROUP BY q.id1";
/// Per point, the nearest other point of its own block (the diagonal is
/// masked with +1e300).
const DIST_SELF: &str =
    "SELECT s.bid AS bid, row_min(s.dm + diag_matrix(diag(s.dm) * 0.0 + 1e300)) AS mv
    FROM (SELECT xx.mi AS bid,
                 matrix_multiply(xx.m, matrix_multiply(a.val, trans_matrix(xx.m))) AS dm
          FROM mlxd AS xx, matrix_a AS a) AS s";

pub struct LaDense {
    x: Dense,
    y: Vec<f64>,
    beta: Vec<f64>,
    xd: Dense,
    a: Dense,
    gram: Vec<f64>,
    min_dist: Vec<f64>,
}

impl LaDense {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let x = Dense::random(&mut rng, N, D);
        let beta: Vec<f64> = (0..D).map(|_| rng.uniform()).collect();
        let y: Vec<f64> = (0..N)
            .map(|i| {
                x.row(i).iter().zip(&beta).map(|(p, q)| p * q).sum::<f64>() + NOISE * rng.uniform()
            })
            .collect();
        let xd = Dense::random(&mut rng, N_DIST, D);
        // A symmetric positive-definite metric: B Bᵀ / D + I.
        let b = Dense::random(&mut rng, D, D);
        let mut a = Dense {
            rows: D,
            cols: D,
            data: vec![0.0; D * D],
        };
        for i in 0..D {
            for j in 0..D {
                let s: f64 = b.row(i).iter().zip(b.row(j)).map(|(p, q)| p * q).sum();
                a.data[i * D + j] = s / D as f64 + if i == j { 1.0 } else { 0.0 };
            }
        }
        let gram = oracle::gram(&x);
        let min_dist = oracle::min_distances(&xd, &a);
        LaDense {
            x,
            y,
            beta,
            xd,
            a,
            gram,
            min_dist,
        }
    }

    fn vector_rows(x: &Dense) -> Vec<Row> {
        (0..x.rows)
            .map(|i| {
                Row::new(vec![
                    Value::Integer(i as i64),
                    Value::vector(Vector::from_slice(x.row(i))),
                ])
            })
            .collect()
    }

    fn check_gram(&self, s: &mut Session<'_>, rows: &[Row]) -> bool {
        let got = rows.first().and_then(|r| r.value(0).to_dense_matrix());
        let ok = got.as_ref().is_some_and(|m| {
            m.shape() == (D, D)
                && m.as_slice()
                    .iter()
                    .zip(&self.gram)
                    .all(|(p, q)| (p - q).abs() <= TOL * N as f64)
        });
        s.check(ok && rows.len() == 1, || {
            "Gram differs from the triple loop".into()
        });
        ok
    }

    fn check_beta(&self, s: &mut Session<'_>, rows: &[Row]) -> bool {
        let got = rows.first().and_then(|r| r.value(0).as_vector().cloned());
        let err = got.as_ref().map_or(f64::INFINITY, |v| {
            if v.len() != D {
                return f64::INFINITY;
            }
            v.as_slice()
                .iter()
                .zip(&self.beta)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0, f64::max)
        });
        let ok = err <= BETA_TOL && rows.len() == 1;
        s.check(ok, || {
            format!("β off the generator's by {err:e} (> {BETA_TOL:e})")
        });
        ok
    }

    /// Combines the per-block cross and self minima into per-point minima
    /// and compares them with the reference.
    fn check_distances(&self, s: &mut Session<'_>, cross: &[Row], own: &[Row]) -> bool {
        let mut mins = vec![f64::INFINITY; N_DIST];
        let mut fold = |rows: &[Row]| {
            for r in rows {
                let (Some(b), Some(v)) = (r.value(0).as_integer(), r.value(1).as_vector()) else {
                    return false;
                };
                for (k, m) in v.as_slice().iter().enumerate() {
                    match mins.get_mut(b as usize * DIST_BLOCK + k) {
                        Some(slot) => *slot = slot.min(*m),
                        None => return false,
                    }
                }
            }
            true
        };
        let shaped = fold(cross) && fold(own);
        let ok = shaped && oracle::all_close(&mins, &self.min_dist, TOL);
        s.check(ok, || {
            "per-point minimum distances differ from the loops".into()
        });
        ok
    }
}

impl Workload for LaDense {
    fn name(&self) -> &'static str {
        "la_dense"
    }

    fn setup(&self, spill_dir: &Path) -> Result<(Database, Load), String> {
        let db = Database::with_config(config(TransportMode::Pointer, spill_dir));
        let mut load = Load::default();
        let vec_schema = |d| {
            Schema::from_pairs(&[
                ("id", DataType::Integer),
                ("value", DataType::Vector(Some(d))),
            ])
        };
        db.create_table("x_vm", vec_schema(D), Partitioning::RoundRobin)
            .map_err(|e| e.to_string())?;
        load.insert(&db, "x_vm", Self::vector_rows(&self.x))?;
        db.create_table(
            "y",
            Schema::from_pairs(&[("i", DataType::Integer), ("y_i", DataType::Double)]),
            Partitioning::RoundRobin,
        )
        .map_err(|e| e.to_string())?;
        let y_rows = self
            .y
            .iter()
            .enumerate()
            .map(|(i, v)| Row::new(vec![Value::Integer(i as i64), Value::Double(*v)]))
            .collect();
        load.insert(&db, "y", y_rows)?;
        db.create_table("xd_vm", vec_schema(D), Partitioning::RoundRobin)
            .map_err(|e| e.to_string())?;
        load.insert(&db, "xd_vm", Self::vector_rows(&self.xd))?;
        db.create_table(
            "matrix_a",
            Schema::from_pairs(&[("val", DataType::Matrix(Some(D), Some(D)))]),
            Partitioning::Replicated,
        )
        .map_err(|e| e.to_string())?;
        let a = Matrix::from_vec(D, D, self.a.data.clone()).map_err(|e| e.to_string())?;
        load.insert(&db, "matrix_a", vec![Row::new(vec![Value::matrix(a)])])?;
        ddl(&db, "CREATE TABLE block_index (mi INTEGER)")?;
        let blocks = N.div_ceil(BLOCK) as i64;
        load.insert(
            &db,
            "block_index",
            (0..blocks)
                .map(|b| Row::new(vec![Value::Integer(b)]))
                .collect(),
        )?;
        for sql in [
            format!(
                "CREATE VIEW mlx AS SELECT ROWMATRIX(label_vector(x.value, x.id - ind.mi*{BLOCK})) AS m
                 FROM x_vm AS x, block_index AS ind WHERE x.id/{BLOCK} = ind.mi GROUP BY ind.mi"
            ),
            format!(
                "CREATE VIEW mlxi AS SELECT ROWMATRIX(label_vector(x.value, x.id - ind.mi*{BLOCK})) AS m,
                        ind.mi AS mi
                 FROM x_vm AS x, block_index AS ind WHERE x.id/{BLOCK} = ind.mi GROUP BY ind.mi"
            ),
            format!(
                "CREATE VIEW yb AS SELECT VECTORIZE(label_scalar(y.y_i, y.i - ind.mi*{BLOCK})) AS yv,
                        ind.mi AS mi
                 FROM y, block_index AS ind WHERE y.i/{BLOCK} = ind.mi GROUP BY ind.mi"
            ),
            format!(
                "CREATE VIEW mlxd AS SELECT ROWMATRIX(label_vector(x.value, x.id - ind.mi*{DIST_BLOCK})) AS m,
                        ind.mi AS mi
                 FROM xd_vm AS x, block_index AS ind WHERE x.id/{DIST_BLOCK} = ind.mi GROUP BY ind.mi"
            ),
        ] {
            ddl(&db, &sql)?;
        }
        for sql in JobLog::DDL {
            ddl(&db, sql)?;
        }
        Ok((db, load))
    }

    fn job(&self, s: &mut Session<'_>, log: &mut JobLog, job: u64) {
        for (stmt, sql) in [GRAM_VECTOR, GRAM_BLOCK, REGRESS_VECTOR, REGRESS_BLOCK]
            .iter()
            .enumerate()
        {
            let Some(out) = s.exec(sql, Kind::Other) else {
                log.write(s, job, stmt as i64, 0, false);
                continue;
            };
            let ok = if stmt < 2 {
                self.check_gram(s, &out)
            } else {
                self.check_beta(s, &out)
            };
            log.write(s, job, stmt as i64, out.len(), ok);
        }
        let cross = s.exec(DIST_CROSS, Kind::Other);
        if let Some(c) = &cross {
            log.write(s, job, 4, c.len(), true);
        }
        let own = s.exec(DIST_SELF, Kind::Other);
        if let (Some(c), Some(o)) = (&cross, &own) {
            let ok = self.check_distances(s, c, o);
            log.write(s, job, 5, o.len(), ok);
        }
        log.read_check(s);
    }

    fn probe_rows(&self) -> Vec<Row> {
        let mut rows = Self::vector_rows(&Dense {
            rows: 2_000,
            cols: D,
            data: self.x.data[..2_000 * D].to_vec(),
        });
        let tile =
            Matrix::from_vec(BLOCK, D, self.x.data[..BLOCK * D].to_vec()).expect("block shape");
        rows.push(Row::new(vec![Value::Integer(0), Value::matrix(tile)]));
        rows
    }

    fn shapes(&self) -> LaShapes {
        SHAPES
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "la_dense: n={N} d={D} block={BLOCK}; distance n={N_DIST} block={DIST_BLOCK}; \
             Gram and distances within {TOL:e} relative of plain loops, β within {BETA_TOL:e} of the generator's"
        )]
    }
}
