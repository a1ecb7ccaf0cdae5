//! `relational`: the Fig 4 tuple-style Gram and XᵀY, and the §4.1 R/S/T
//! query, as one job under serialized transport with a memory budget below
//! the hash-join build side, so the Grace join spills. Joins, aggregation,
//! exchange, the wire codec, spilling and plan choice do the work; LA
//! kernels do little. This is the one workload whose working set exceeds
//! the engine's memory budget.

use std::collections::HashMap;
use std::path::Path;

use lardb::{
    DataType, Database, Matrix, MemoryConfig, Partitioning, Row, Schema, TransportMode, Value,
};

use crate::embedded::{config, ddl, JobLog, Load, Workload};
use crate::gen::{Dense, Rng};
use crate::oracle;
use crate::probes::LaShapes;
use crate::session::{Kind, Session};

/// Points and dimensions of the tuple-style statements.
const N: usize = 2_000;
const D: usize = 15;
/// The engine's memory budget, KiB: half of one partition's hash-join
/// build side in the tuple Gram, so every partition spills and every
/// spilled bucket fits, whatever the two pool threads hold at once.
const MEM_KIB: u64 = 256;
/// §4.1: |R| = |S| rows of 4×K and K×4 matrices, joined through |T| pairs.
const RS_ROWS: usize = 100;
const K: usize = 500;
const T_ROWS: usize = 4_000;
const TOL: f64 = 1e-9;

const GRAM_TUPLE: &str =
    "SELECT x1.col_index AS i, x2.col_index AS j, SUM(x1.value * x2.value) AS v
    FROM x AS x1, x AS x2
    WHERE x1.row_index = x2.row_index
    GROUP BY x1.col_index, x2.col_index";
const XTY_TUPLE: &str = "SELECT x.col_index AS c, SUM(x.value * y.y_i) AS v
    FROM x, y WHERE x.row_index = y.i GROUP BY x.col_index";
const RST: &str = "SELECT r_rid, s_sid, matrix_multiply(r_matrix, s_matrix) AS prod
    FROM R, S, T WHERE r_rid = t_rid AND s_sid = t_sid";

pub struct Relational {
    x: Dense,
    y: Vec<f64>,
    r: Vec<Dense>,
    s: Vec<Dense>,
    t: Vec<(usize, usize)>,
    gram: Vec<f64>,
    xty: Vec<f64>,
    /// Reference product of every (rid, sid) pair T names.
    products: HashMap<(usize, usize), Dense>,
}

impl Relational {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 2);
        let x = Dense::random(&mut rng, N, D);
        let y: Vec<f64> = (0..N).map(|_| rng.uniform()).collect();
        let r: Vec<Dense> = (0..RS_ROWS)
            .map(|_| Dense::random(&mut rng, 4, K))
            .collect();
        let s: Vec<Dense> = (0..RS_ROWS)
            .map(|_| Dense::random(&mut rng, K, 4))
            .collect();
        let t: Vec<(usize, usize)> = (0..T_ROWS)
            .map(|_| {
                (
                    rng.below(RS_ROWS as u64) as usize,
                    rng.below(RS_ROWS as u64) as usize,
                )
            })
            .collect();
        let mut products = HashMap::new();
        for &(a, b) in &t {
            products
                .entry((a, b))
                .or_insert_with(|| oracle::matmul(&r[a], &s[b]));
        }
        let gram = oracle::gram(&x);
        let xty = oracle::xty(&x, &y);
        Relational {
            x,
            y,
            r,
            s,
            t,
            gram,
            xty,
            products,
        }
    }

    fn tuple_rows(&self) -> Vec<Row> {
        (0..N)
            .flat_map(|i| {
                (0..D).map(move |j| {
                    Row::new(vec![
                        Value::Integer(i as i64),
                        Value::Integer(j as i64),
                        Value::Double(self.x.at(i, j)),
                    ])
                })
            })
            .collect()
    }

    fn matrix(m: &Dense) -> Value {
        Value::matrix(Matrix::from_vec(m.rows, m.cols, m.data.clone()).expect("generated shape"))
    }

    fn check_gram(&self, s: &mut Session<'_>, rows: &[Row]) -> bool {
        let mut seen = vec![false; D * D];
        let ok = rows.len() == D * D
            && rows.iter().all(|r| {
                let (Some(i), Some(j), Some(v)) = (
                    r.value(0).as_integer(),
                    r.value(1).as_integer(),
                    r.value(2).as_double(),
                ) else {
                    return false;
                };
                let k = i as usize * D + j as usize;
                k < D * D
                    && !std::mem::replace(&mut seen[k], true)
                    && oracle::close(v, self.gram[k], TOL)
            });
        s.check(ok, || "tuple Gram differs from the triple loop".into());
        ok
    }

    fn check_xty(&self, s: &mut Session<'_>, rows: &[Row]) -> bool {
        let mut got = vec![f64::NAN; D];
        for r in rows {
            if let (Some(c), Some(v)) = (r.value(0).as_integer(), r.value(1).as_double()) {
                if let Some(slot) = got.get_mut(c as usize) {
                    *slot = v;
                }
            }
        }
        let ok = rows.len() == D && oracle::all_close(&got, &self.xty, TOL);
        s.check(ok, || "tuple XᵀY differs from the loop".into());
        ok
    }

    fn check_rst(&self, s: &mut Session<'_>, rows: &[Row]) -> bool {
        let ok = rows.len() == T_ROWS
            && rows.iter().all(|r| {
                let (Some(a), Some(b), Some(m)) = (
                    r.value(0).as_integer(),
                    r.value(1).as_integer(),
                    r.value(2).to_dense_matrix(),
                ) else {
                    return false;
                };
                self.products
                    .get(&(a as usize, b as usize))
                    .is_some_and(|want| {
                        m.shape() == (4, 4) && oracle::all_close(m.as_slice(), &want.data, TOL)
                    })
            });
        s.check(ok, || "R/S/T products differ from the triple loop".into());
        ok
    }
}

impl Workload for Relational {
    fn name(&self) -> &'static str {
        "relational"
    }

    fn setup(&self, spill_dir: &Path) -> Result<(Database, Load), String> {
        let db =
            Database::with_config(config(TransportMode::Serialized, spill_dir)).with_memory_config(
                MemoryConfig::with_budget(Some(MEM_KIB * 1024), Some(spill_dir.to_path_buf())),
            );
        let mut load = Load::default();
        let create = |name: &str, cols: &[(&str, DataType)]| {
            db.create_table(name, Schema::from_pairs(cols), Partitioning::RoundRobin)
                .map_err(|e| format!("create {name}: {e}"))
        };
        use DataType::{Double, Integer};
        create(
            "x",
            &[
                ("row_index", Integer),
                ("col_index", Integer),
                ("value", Double),
            ],
        )?;
        load.insert(&db, "x", self.tuple_rows())?;
        create("y", &[("i", Integer), ("y_i", Double)])?;
        let y_rows = (0..N)
            .map(|i| Row::new(vec![Value::Integer(i as i64), Value::Double(self.y[i])]))
            .collect();
        load.insert(&db, "y", y_rows)?;
        create(
            "R",
            &[
                ("r_rid", Integer),
                ("r_matrix", DataType::Matrix(Some(4), Some(K))),
            ],
        )?;
        let r_rows = self
            .r
            .iter()
            .enumerate()
            .map(|(i, m)| Row::new(vec![Value::Integer(i as i64), Self::matrix(m)]))
            .collect();
        load.insert(&db, "R", r_rows)?;
        create(
            "S",
            &[
                ("s_sid", Integer),
                ("s_matrix", DataType::Matrix(Some(K), Some(4))),
            ],
        )?;
        let s_rows = self
            .s
            .iter()
            .enumerate()
            .map(|(i, m)| Row::new(vec![Value::Integer(i as i64), Self::matrix(m)]))
            .collect();
        load.insert(&db, "S", s_rows)?;
        create("T", &[("t_rid", Integer), ("t_sid", Integer)])?;
        let t_rows = self
            .t
            .iter()
            .map(|&(a, b)| Row::new(vec![Value::Integer(a as i64), Value::Integer(b as i64)]))
            .collect();
        load.insert(&db, "T", t_rows)?;
        for sql in JobLog::DDL {
            ddl(&db, sql)?;
        }
        Ok((db, load))
    }

    fn job(&self, s: &mut Session<'_>, log: &mut JobLog, job: u64) {
        for (stmt, sql) in [GRAM_TUPLE, XTY_TUPLE, RST].iter().enumerate() {
            let Some(out) = s.exec(sql, Kind::Other) else {
                log.write(s, job, stmt as i64, 0, false);
                continue;
            };
            let ok = match stmt {
                0 => self.check_gram(s, &out),
                1 => self.check_xty(s, &out),
                _ => self.check_rst(s, &out),
            };
            log.write(s, job, stmt as i64, out.len(), ok);
        }
        log.read_check(s);
    }

    fn probe_rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = self.tuple_rows().into_iter().take(20_000).collect();
        rows.extend(
            self.r
                .iter()
                .take(8)
                .enumerate()
                .map(|(i, m)| Row::new(vec![Value::Integer(i as i64), Self::matrix(m)])),
        );
        rows
    }

    fn shapes(&self) -> LaShapes {
        LaShapes {
            gemm: (4, K, 4),
            syrk: (N, D),
            outer: D,
            matvec: (4, K),
            spmv: (20_000, 4),
        }
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "relational: tuple x n={N} d={D} ({} rows); R/S {RS_ROWS} rows of 4x{K} / {K}x4, T {T_ROWS} rows; \
             serialized transport, {MEM_KIB} KiB memory budget; results within {TOL:e} relative of plain loops",
            N * D
        )]
    }
}
