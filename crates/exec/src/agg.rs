//! Aggregate accumulators, including the element-wise LA aggregates of
//! §3.2 and the construction aggregates of §3.3.
//!
//! Every accumulator supports **two-phase aggregation**: a partial phase
//! per worker encodes its state as ordinary [`Value`]s (so it can travel
//! through an exchange like any row), and a final phase decodes and merges
//! those states. This is the combiner structure the paper's Hadoop
//! substrate relies on; without it, the distributed `SUM` of Gram-matrix
//! outer products would serialize on one worker.

use lardb_la::dispatch::{self, Kernel};
use lardb_la::{gemm, CooBuilder, LabeledScalar, Matrix, RowMatrixBuilder, Vector, VectorizeBuilder};
use lardb_planner::{AggExpr, AggFunc, Builtin, Expr};
use lardb_storage::ops::{self, ArithOp};
use lardb_storage::Value;
use std::sync::Arc;

use crate::{ExecError, Result};

/// Number of state values a partial aggregate emits (fixed per function).
pub fn state_arity(func: AggFunc) -> usize {
    match func {
        AggFunc::Sum | AggFunc::Count | AggFunc::Min | AggFunc::Max => 1,
        AggFunc::Avg => 2,
        AggFunc::Vectorize => 2,
        AggFunc::RowMatrix | AggFunc::ColMatrix => 2,
        AggFunc::MatrixFromEntries => 3,
    }
}

/// A running aggregate.
#[derive(Debug)]
pub enum Accumulator {
    /// `SUM` — element-wise over LA values.
    Sum(Option<Value>),
    /// `COUNT`.
    Count(i64),
    /// `AVG`.
    Avg(Option<Value>, i64),
    /// `MIN` — element-wise over LA values.
    Min(Option<Value>),
    /// `MAX` — element-wise over LA values.
    Max(Option<Value>),
    /// `VECTORIZE`.
    Vectorize(VectorizeBuilder),
    /// `ROWMATRIX`.
    RowMatrix(RowMatrixBuilder),
    /// `COLMATRIX`.
    ColMatrix(RowMatrixBuilder),
    /// `MATRIX_FROM_ENTRIES` — COO assembly of a sparse matrix.
    MatrixFromEntries(CooBuilder),
}

impl Accumulator {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => Accumulator::Sum(None),
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Avg => Accumulator::Avg(None, 0),
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Vectorize => Accumulator::Vectorize(VectorizeBuilder::new()),
            AggFunc::RowMatrix => Accumulator::RowMatrix(RowMatrixBuilder::new()),
            AggFunc::ColMatrix => Accumulator::ColMatrix(RowMatrixBuilder::new()),
            AggFunc::MatrixFromEntries => Accumulator::MatrixFromEntries(CooBuilder::new()),
        }
    }

    /// Folds one input value. SQL semantics: NULL inputs are skipped
    /// (`COUNT(*)` callers pass a non-null marker per row).
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            Accumulator::Count(n) => {
                *n += 1;
            }
            Accumulator::Sum(acc) => add_into(acc, v)?,
            Accumulator::Avg(acc, n) => {
                add_into(acc, v)?;
                *n += 1;
            }
            Accumulator::Min(acc) => minmax_into(acc, v, true)?,
            Accumulator::Max(acc) => minmax_into(acc, v, false)?,
            Accumulator::Vectorize(b) => {
                let ls = v.as_labeled_scalar().ok_or_else(|| {
                    ExecError::Runtime(format!(
                        "VECTORIZE expects LABELED_SCALAR, got {}",
                        v.data_type()
                    ))
                })?;
                b.push(ls)?;
            }
            Accumulator::RowMatrix(b) | Accumulator::ColMatrix(b) => {
                let vec = v.as_vector().ok_or_else(|| {
                    ExecError::Runtime(format!(
                        "ROWMATRIX/COLMATRIX expects VECTOR, got {}",
                        v.data_type()
                    ))
                })?;
                b.push((**vec).clone())?;
            }
            Accumulator::MatrixFromEntries(b) => {
                let (r, c, x) = unpack_entry(v)?;
                b.push(r, c, x)?;
            }
        }
        Ok(())
    }

    /// Encodes the partial state as values (see [`state_arity`]).
    pub fn state(&self) -> Vec<Value> {
        match self {
            Accumulator::Sum(acc) | Accumulator::Min(acc) | Accumulator::Max(acc) => {
                vec![acc.clone().unwrap_or(Value::Null)]
            }
            Accumulator::Count(n) => vec![Value::Integer(*n)],
            Accumulator::Avg(acc, n) => {
                vec![acc.clone().unwrap_or(Value::Null), Value::Integer(*n)]
            }
            Accumulator::Vectorize(b) => encode_vectorize(b),
            Accumulator::RowMatrix(b) | Accumulator::ColMatrix(b) => encode_labeled_rows(b),
            // (rows, cols, vals) parallel vectors — the partial state ships
            // proportionally to the entries actually seen.
            Accumulator::MatrixFromEntries(b) => {
                let (rows, cols, vals) = b.parts();
                vec![
                    Value::vector(Vector::from_vec(rows)),
                    Value::vector(Vector::from_vec(cols)),
                    Value::vector(Vector::from_vec(vals)),
                ]
            }
        }
    }

    /// Merges a partial state produced by [`Accumulator::state`].
    pub fn merge_state(&mut self, state: &[Value]) -> Result<()> {
        let need = match self {
            Accumulator::Avg(..) => 2,
            Accumulator::Vectorize(_) | Accumulator::RowMatrix(_) | Accumulator::ColMatrix(_) => 2,
            Accumulator::MatrixFromEntries(_) => 3,
            _ => 1,
        };
        if state.len() != need {
            return Err(ExecError::Runtime(format!(
                "aggregate state arity {} does not match expected {need}",
                state.len()
            )));
        }
        match self {
            Accumulator::Sum(acc) => add_into(acc, &state[0])?,
            Accumulator::Count(n) => {
                if let Some(m) = state[0].as_integer() {
                    *n += m;
                }
            }
            Accumulator::Avg(acc, n) => {
                add_into(acc, &state[0])?;
                *n += state[1].as_integer().unwrap_or(0);
            }
            Accumulator::Min(acc) => minmax_into(acc, &state[0], true)?,
            Accumulator::Max(acc) => minmax_into(acc, &state[0], false)?,
            Accumulator::Vectorize(b) => decode_vectorize(b, state)?,
            Accumulator::RowMatrix(b) | Accumulator::ColMatrix(b) => {
                decode_labeled_rows(b, state)?
            }
            Accumulator::MatrixFromEntries(b) => {
                let get = |i: usize| {
                    state[i].as_vector().ok_or_else(|| bad_state("MATRIX_FROM_ENTRIES"))
                };
                let (rows, cols, vals) = (get(0)?, get(1)?, get(2)?);
                if rows.len() != cols.len() || rows.len() != vals.len() {
                    return Err(bad_state("MATRIX_FROM_ENTRIES"));
                }
                for i in 0..rows.len() {
                    // Re-validate through the typed push path: a corrupted
                    // partial must not assemble a bogus matrix.
                    let (r, c) = (coord(rows.get(i)?)?, coord(cols.get(i)?)?);
                    b.push(r, c, vals.get(i)?)?;
                }
            }
        }
        Ok(())
    }

    /// Approximate heap bytes held by this accumulator's state — what the
    /// spilling aggregation charges against its memory reservation. Cheap
    /// per variant (the builder aggregates are O(entries), but entry counts
    /// are exactly what the estimate must track).
    pub fn state_bytes(&self) -> usize {
        fn opt(v: &Option<Value>) -> usize {
            v.as_ref().map_or(1, Value::byte_size)
        }
        match self {
            Accumulator::Sum(acc) | Accumulator::Min(acc) | Accumulator::Max(acc) => opt(acc),
            Accumulator::Count(_) => 8,
            Accumulator::Avg(acc, _) => opt(acc) + 8,
            Accumulator::Vectorize(b) => b.entries().len() * 16,
            Accumulator::RowMatrix(b) | Accumulator::ColMatrix(b) => {
                b.entries().iter().map(|(_, v)| 8 + v.len() * 8).sum()
            }
            Accumulator::MatrixFromEntries(b) => b.len() * 16,
        }
    }

    /// Produces the final aggregate value.
    pub fn finish(self) -> Value {
        match self {
            Accumulator::Sum(acc) | Accumulator::Min(acc) | Accumulator::Max(acc) => {
                acc.unwrap_or(Value::Null)
            }
            Accumulator::Count(n) => Value::Integer(n),
            Accumulator::Avg(acc, n) => match (acc, n) {
                (Some(v), n) if n > 0 => {
                    ops::arith(ArithOp::Div, &v, &Value::Double(n as f64))
                        .unwrap_or(Value::Null)
                }
                _ => Value::Null,
            },
            Accumulator::Vectorize(b) => Value::vector(b.finish()),
            Accumulator::RowMatrix(b) => Value::matrix(b.finish_rows()),
            Accumulator::ColMatrix(b) => Value::matrix(b.finish_cols()),
            Accumulator::MatrixFromEntries(b) => {
                let m = b.build_inferred();
                // The dispatch layer decides the output representation:
                // forced-dense runs get an ordinary MATRIX, adaptive runs
                // keep the CSR form while it is worth it.
                if dispatch::keep_sparse(m.density()) {
                    Value::sparse_matrix(m)
                } else {
                    dispatch::note_kernel(Kernel::Densified);
                    Value::matrix(m.to_dense())
                }
            }
        }
    }
}

impl Accumulator {
    /// Whether this is a `SUM` already holding an `m × n` dense matrix —
    /// the only state in which adding an `m × n` outer product is the
    /// in-place `acc + x·y` per element.
    fn sums_matrix(&self, shape: (usize, usize)) -> bool {
        matches!(self, Accumulator::Sum(Some(Value::Matrix(m))) if m.shape() == shape)
    }

    /// Adds the outer products of the `k` rows packed in `x` and `y` in
    /// ascending row order: bit-identical to `k` calls of
    /// `update(&outer_product(x_l, y_l))` on a [`Self::sums_matrix`] state.
    fn add_rank_k(&mut self, x: &[f64], y: &[f64], k: usize) -> Result<()> {
        match self {
            Accumulator::Sum(Some(Value::Matrix(m))) => {
                Ok(gemm::rank_k_update(x, y, k, Arc::make_mut(m))?)
            }
            _ => Err(ExecError::Runtime(
                "rank-k update into a SUM that holds no matrix".into(),
            )),
        }
    }
}

/// Operand values per fused batch before it is folded (512 KiB).
const OUTER_BATCH_F64S: usize = 1 << 16;

/// A fused `SUM(outer_product(x, y))`: the aggregate evaluates `x` and
/// `y` instead of their product and folds consecutive same-group lanes
/// into the group's running matrix as one rank-k update, instead of
/// materializing an `m × n` matrix per row and adding it.
///
/// The result is bit-identical to the unfused `SUM`: the first lane of a
/// group still goes through `outer_product` and [`Accumulator::update`]
/// (so the sum starts from that product, signed zeros included), and
/// every later lane adds `x_r·y_c` to each element in ascending lane
/// order, which is exactly what `add_in_place` of the product did. NULL
/// and non-vector operands, and shapes the running sum rejects, take the
/// unfused path too, after the pending batch is folded, so values and
/// error text are unchanged. The partial state stays a plain `MATRIX`.
#[derive(Debug)]
pub struct OuterSum<'a> {
    func: &'a Builtin,
    /// The `x` operand.
    pub x: &'a Expr,
    /// The `y` operand.
    pub y: &'a Expr,
    /// Group whose accumulator the pending lanes belong to.
    group: usize,
    /// `(len x, len y)` of the pending lanes.
    shape: (usize, usize),
    /// Pending lanes, packed row-major in `x_rows` and `y_rows`.
    rows: usize,
    x_rows: Vec<f64>,
    y_rows: Vec<f64>,
}

impl<'a> OuterSum<'a> {
    /// The operands of `SUM(outer_product(x, y))`, or `None` for any
    /// other aggregate.
    pub fn operands(agg: &'a AggExpr) -> Option<(&'a Expr, &'a Expr)> {
        Self::new(agg).map(|o| (o.x, o.y))
    }

    /// The fused form of `agg`, when it is `SUM(outer_product(x, y))`.
    pub fn new(agg: &'a AggExpr) -> Option<Self> {
        let (AggFunc::Sum, Some(Expr::Call { func: func @ Builtin::OuterProduct, args })) =
            (agg.func, &agg.arg)
        else {
            return None;
        };
        let [x, y] = args.as_slice() else {
            return None;
        };
        Some(OuterSum {
            func,
            x,
            y,
            group: 0,
            shape: (0, 0),
            rows: 0,
            x_rows: Vec::new(),
            y_rows: Vec::new(),
        })
    }

    /// Folds `outer_product(x, y)` into `accs[group][slot]`, with the
    /// same result and error as `update(&outer_product(x, y))`; the fold
    /// may stay pending until [`Self::flush`].
    pub fn fold(
        &mut self,
        accs: &mut [Vec<Accumulator>],
        slot: usize,
        group: usize,
        x: Value,
        y: Value,
    ) -> Result<()> {
        if let (Value::Vector(xv), Value::Vector(yv)) = (&x, &y) {
            let shape = (xv.len(), yv.len());
            if self.rows > 0 && (self.group != group || self.shape != shape) {
                self.flush(accs, slot)?;
            }
            if self.rows > 0 || accs[group][slot].sums_matrix(shape) {
                self.group = group;
                self.shape = shape;
                self.x_rows.extend_from_slice(xv.as_slice());
                self.y_rows.extend_from_slice(yv.as_slice());
                self.rows += 1;
                if self.x_rows.len() + self.y_rows.len() >= OUTER_BATCH_F64S {
                    self.flush(accs, slot)?;
                }
                return Ok(());
            }
        }
        self.flush(accs, slot)?;
        accs[group][slot].update(&self.func.evaluate(&[x, y])?)
    }

    /// Folds the pending lanes into their group's accumulator.
    pub fn flush(&mut self, accs: &mut [Vec<Accumulator>], slot: usize) -> Result<()> {
        if self.rows == 0 {
            return Ok(());
        }
        let k = std::mem::take(&mut self.rows);
        let done = accs[self.group][slot].add_rank_k(&self.x_rows, &self.y_rows, k);
        self.x_rows.clear();
        self.y_rows.clear();
        done
    }

    /// Heap bytes of the pack buffers.
    pub fn buffer_bytes(&self) -> usize {
        (self.x_rows.capacity() + self.y_rows.capacity()) * 8
    }
}

/// Unpacks one `sparse_entry(row, col, val)` carrier vector.
fn unpack_entry(v: &Value) -> Result<(i64, i64, f64)> {
    let vec = v.as_vector().filter(|e| e.len() == 3).ok_or_else(|| {
        ExecError::Runtime(format!(
            "MATRIX_FROM_ENTRIES expects (row, col, val), got {}",
            v.data_type()
        ))
    })?;
    let s = vec.as_slice();
    Ok((coord(s[0])?, coord(s[1])?, s[2]))
}

/// A coordinate must be an exact non-negative integer; anything else —
/// fractional values, NaN, negatives — is a typed error rather than a
/// silent truncation.
fn coord(x: f64) -> Result<i64> {
    if x.fract() == 0.0 && (0.0..9e15).contains(&x) {
        Ok(x as i64)
    } else {
        Err(ExecError::Runtime(format!(
            "MATRIX_FROM_ENTRIES: coordinate {x} is not a non-negative integer"
        )))
    }
}

/// `*acc += v` with in-place element-wise addition when the accumulator
/// uniquely owns its payload (the common case), avoiding an allocation per
/// input row — the hot path of the Gram-matrix `SUM`.
fn add_into(acc: &mut Option<Value>, v: &Value) -> Result<()> {
    if v.is_null() {
        return Ok(());
    }
    match acc {
        None => {
            // Deep-copy LA payloads: the accumulator will mutate them.
            // (Sparse tiles are never mutated in place, so sharing the Arc
            // is safe there.)
            *acc = Some(match v {
                Value::Matrix(m) => Value::Matrix(Arc::new((**m).clone())),
                Value::Vector(x) => Value::Vector(Arc::new((**x).clone())),
                other => other.clone(),
            });
        }
        Some(Value::Matrix(m)) => {
            // Sparse input into a dense accumulator: scatter-add in O(nnz).
            if let Value::SparseMatrix(rhs) = v {
                let lhs = Arc::make_mut(m);
                rhs.add_to_dense(lhs)?;
                return Ok(());
            }
            let rhs = v.as_matrix().ok_or_else(|| mix_err("SUM", v))?;
            let lhs = Arc::make_mut(m);
            lhs.add_in_place(rhs)?;
        }
        Some(Value::Vector(x)) => {
            let rhs = v.as_vector().ok_or_else(|| mix_err("SUM", v))?;
            let lhs = Arc::make_mut(x);
            lhs.add_in_place(rhs)?;
        }
        Some(other) => {
            *other = ops::arith(ArithOp::Add, other, v)?;
        }
    }
    Ok(())
}

fn minmax_into(acc: &mut Option<Value>, v: &Value, is_min: bool) -> Result<()> {
    if v.is_null() {
        return Ok(());
    }
    // Element-wise MIN/MAX over matrices compares every coordinate, so
    // implicit zeros participate: densify sparse inputs up front.
    let dense_v;
    let v = match v {
        Value::SparseMatrix(m) => {
            dispatch::note_kernel(Kernel::Densified);
            dense_v = Value::matrix(m.to_dense());
            &dense_v
        }
        other => other,
    };
    match acc {
        None => {
            *acc = Some(match v {
                Value::Matrix(m) => Value::Matrix(Arc::new((**m).clone())),
                Value::Vector(x) => Value::Vector(Arc::new((**x).clone())),
                other => other.clone(),
            });
        }
        Some(Value::Matrix(m)) => {
            let rhs = v.as_matrix().ok_or_else(|| mix_err("MIN/MAX", v))?;
            let lhs = Arc::make_mut(m);
            if is_min {
                lhs.min_in_place(rhs)?;
            } else {
                lhs.max_in_place(rhs)?;
            }
        }
        Some(Value::Vector(x)) => {
            let rhs = v.as_vector().ok_or_else(|| mix_err("MIN/MAX", v))?;
            let lhs = Arc::make_mut(x);
            if is_min {
                lhs.min_in_place(rhs)?;
            } else {
                lhs.max_in_place(rhs)?;
            }
        }
        Some(other) => {
            let ord = ops::compare(other, v);
            let replace = match ord {
                Some(std::cmp::Ordering::Greater) => is_min,
                Some(std::cmp::Ordering::Less) => !is_min,
                _ => false,
            };
            if replace {
                *other = v.clone();
            }
        }
    }
    Ok(())
}

fn mix_err(agg: &str, v: &Value) -> ExecError {
    ExecError::Runtime(format!("{agg}: mixed aggregate input types (saw {})", v.data_type()))
}

/// Encodes a `VECTORIZE` partial as `[values VECTOR, labels VECTOR]`,
/// shipping only the *sparse* entries actually seen — positions other
/// workers filled must not be clobbered with zeros at merge time.
fn encode_vectorize(b: &VectorizeBuilder) -> Vec<Value> {
    let entries = b.entries();
    let values = Vector::from_fn(entries.len(), |i| entries[i].1);
    let labels = Vector::from_fn(entries.len(), |i| entries[i].0 as f64);
    vec![Value::vector(values), Value::vector(labels)]
}

fn decode_vectorize(b: &mut VectorizeBuilder, state: &[Value]) -> Result<()> {
    if state[0].is_null() {
        return Ok(());
    }
    let values = state[0].as_vector().ok_or_else(|| bad_state("VECTORIZE"))?;
    let labels = state[1].as_vector().ok_or_else(|| bad_state("VECTORIZE"))?;
    for (&x, &l) in values.as_slice().iter().zip(labels.as_slice()) {
        b.push(LabeledScalar::new(x, l as i64))?;
    }
    Ok(())
}

/// Encodes a `ROWMATRIX`/`COLMATRIX` partial as
/// `[stacked rows MATRIX, labels VECTOR]` — one stacked row per vector
/// actually folded (sparse), labels alongside.
fn encode_labeled_rows(b: &RowMatrixBuilder) -> Vec<Value> {
    let entries = b.entries();
    if entries.is_empty() {
        return vec![Value::Null, Value::Null];
    }
    let parts: Vec<Matrix> = entries.iter().map(|(_, v)| v.to_row_matrix()).collect();
    let refs: Vec<&Matrix> = parts.iter().collect();
    let stacked = Matrix::vstack(&refs).expect("uniform widths enforced on push");
    let labels = Vector::from_fn(entries.len(), |i| entries[i].0 as f64);
    vec![Value::matrix(stacked), Value::vector(labels)]
}

fn decode_labeled_rows(b: &mut RowMatrixBuilder, state: &[Value]) -> Result<()> {
    if state[0].is_null() {
        return Ok(());
    }
    let m: &Matrix = state[0].as_matrix().ok_or_else(|| bad_state("ROWMATRIX"))?;
    let labels = state[1].as_vector().ok_or_else(|| bad_state("ROWMATRIX"))?;
    for i in 0..m.rows() {
        let label = labels.get(i)? as i64;
        b.push(m.row_vector(i)?.with_label(label))?;
    }
    Ok(())
}

fn bad_state(agg: &str) -> ExecError {
    ExecError::Runtime(format!("{agg}: malformed partial aggregate state"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_la::Vector;

    #[test]
    fn sum_scalars_and_vectors() {
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::Integer(2)).unwrap();
        a.update(&Value::Integer(3)).unwrap();
        a.update(&Value::Null).unwrap();
        assert_eq!(a.finish(), Value::Integer(5));

        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::vector(Vector::from_slice(&[1.0, 2.0]))).unwrap();
        a.update(&Value::vector(Vector::from_slice(&[10.0, 20.0]))).unwrap();
        assert_eq!(a.finish().as_vector().unwrap().as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn sum_does_not_mutate_shared_input() {
        // The first input is Arc-shared with the "table"; the accumulator
        // must deep-copy before mutating.
        let original = Value::vector(Vector::from_slice(&[1.0, 1.0]));
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&original).unwrap();
        a.update(&Value::vector(Vector::from_slice(&[1.0, 1.0]))).unwrap();
        assert_eq!(original.as_vector().unwrap().as_slice(), &[1.0, 1.0]);
        assert_eq!(a.finish().as_vector().unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn count_and_avg() {
        let mut c = Accumulator::new(AggFunc::Count);
        c.update(&Value::Integer(1)).unwrap();
        c.update(&Value::Integer(1)).unwrap();
        c.update(&Value::Null).unwrap(); // skipped
        assert_eq!(c.finish(), Value::Integer(2));

        let mut a = Accumulator::new(AggFunc::Avg);
        a.update(&Value::Double(1.0)).unwrap();
        a.update(&Value::Double(3.0)).unwrap();
        assert_eq!(a.finish(), Value::Double(2.0));
        assert!(Accumulator::new(AggFunc::Avg).finish().is_null());
    }

    #[test]
    fn avg_of_vectors() {
        let mut a = Accumulator::new(AggFunc::Avg);
        a.update(&Value::vector(Vector::from_slice(&[2.0]))).unwrap();
        a.update(&Value::vector(Vector::from_slice(&[4.0]))).unwrap();
        assert_eq!(a.finish().as_vector().unwrap().as_slice(), &[3.0]);
    }

    #[test]
    fn min_max_scalars_and_elementwise() {
        let mut mn = Accumulator::new(AggFunc::Min);
        mn.update(&Value::Double(5.0)).unwrap();
        mn.update(&Value::Double(2.0)).unwrap();
        mn.update(&Value::Double(7.0)).unwrap();
        assert_eq!(mn.finish(), Value::Double(2.0));

        let mut mx = Accumulator::new(AggFunc::Max);
        mx.update(&Value::vector(Vector::from_slice(&[1.0, 9.0]))).unwrap();
        mx.update(&Value::vector(Vector::from_slice(&[5.0, 2.0]))).unwrap();
        assert_eq!(mx.finish().as_vector().unwrap().as_slice(), &[5.0, 9.0]);
    }

    #[test]
    fn vectorize_roundtrip_through_state() {
        let mut p1 = Accumulator::new(AggFunc::Vectorize);
        p1.update(&Value::LabeledScalar(LabeledScalar::new(1.0, 0))).unwrap();
        let mut p2 = Accumulator::new(AggFunc::Vectorize);
        p2.update(&Value::LabeledScalar(LabeledScalar::new(9.0, 3))).unwrap();

        let mut f = Accumulator::new(AggFunc::Vectorize);
        f.merge_state(&p1.state()).unwrap();
        f.merge_state(&p2.state()).unwrap();
        let v = f.finish();
        assert_eq!(v.as_vector().unwrap().as_slice(), &[1.0, 0.0, 0.0, 9.0]);
    }

    #[test]
    fn rowmatrix_roundtrip_through_state() {
        let mut p1 = Accumulator::new(AggFunc::RowMatrix);
        p1.update(&Value::vector(Vector::from_slice(&[1.0, 2.0]).with_label(0)))
            .unwrap();
        let mut p2 = Accumulator::new(AggFunc::RowMatrix);
        p2.update(&Value::vector(Vector::from_slice(&[3.0, 4.0]).with_label(1)))
            .unwrap();
        let mut f = Accumulator::new(AggFunc::RowMatrix);
        f.merge_state(&p1.state()).unwrap();
        f.merge_state(&p2.state()).unwrap();
        let m = f.finish();
        let m = m.as_matrix().unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn colmatrix_finish() {
        let mut a = Accumulator::new(AggFunc::ColMatrix);
        a.update(&Value::vector(Vector::from_slice(&[1.0, 2.0]).with_label(1)))
            .unwrap();
        let m = a.finish();
        let m = m.as_matrix().unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 1).unwrap(), 2.0);
    }

    #[test]
    fn sum_state_roundtrip() {
        let mut p = Accumulator::new(AggFunc::Sum);
        p.update(&Value::Double(2.0)).unwrap();
        let mut f = Accumulator::new(AggFunc::Sum);
        f.merge_state(&p.state()).unwrap();
        f.merge_state(&Accumulator::new(AggFunc::Sum).state()).unwrap(); // empty partial
        assert_eq!(f.finish(), Value::Double(2.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut a = Accumulator::new(AggFunc::Vectorize);
        assert!(a.update(&Value::Double(1.0)).is_err());
        let mut b = Accumulator::new(AggFunc::RowMatrix);
        assert!(b.update(&Value::Double(1.0)).is_err());
        let mut s = Accumulator::new(AggFunc::Sum);
        s.update(&Value::vector(Vector::zeros(2))).unwrap();
        assert!(s.update(&Value::Double(1.0)).is_err());
    }

    #[test]
    fn state_bytes_tracks_growth() {
        let mut s = Accumulator::new(AggFunc::Sum);
        let empty = s.state_bytes();
        s.update(&Value::matrix(Matrix::from_fn(8, 8, |_, _| 1.0))).unwrap();
        assert!(s.state_bytes() >= 8 * 8 * 8, "matrix sum charged its payload");
        assert!(s.state_bytes() > empty);

        let mut v = Accumulator::new(AggFunc::Vectorize);
        let before = v.state_bytes();
        v.update(&Value::LabeledScalar(LabeledScalar::new(1.0, 3))).unwrap();
        assert!(v.state_bytes() > before);
    }

    #[test]
    fn state_arity_consistency() {
        for f in [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Vectorize,
            AggFunc::RowMatrix,
            AggFunc::ColMatrix,
            AggFunc::MatrixFromEntries,
        ] {
            assert_eq!(Accumulator::new(f).state().len(), state_arity(f));
        }
    }

    fn entry(r: f64, c: f64, v: f64) -> Value {
        Value::vector(Vector::from_slice(&[r, c, v]))
    }

    #[test]
    fn matrix_from_entries_sums_duplicates_and_roundtrips_state() {
        // Outside a query dispatch is adaptive.
        let mut p1 = Accumulator::new(AggFunc::MatrixFromEntries);
        p1.update(&entry(0.0, 1.0, 2.0)).unwrap();
        p1.update(&entry(2.0, 0.0, 5.0)).unwrap();
        let mut p2 = Accumulator::new(AggFunc::MatrixFromEntries);
        p2.update(&entry(0.0, 1.0, 3.0)).unwrap(); // duplicate of p1's first

        let mut f = Accumulator::new(AggFunc::MatrixFromEntries);
        f.merge_state(&p1.state()).unwrap();
        f.merge_state(&p2.state()).unwrap();
        let out = f.finish();
        let m = out.as_sparse_matrix().expect("low density stays sparse");
        assert_eq!(m.shape(), (3, 2)); // inferred from max coordinates
        assert_eq!(m.get(0, 1).unwrap(), 5.0); // 2.0 + 3.0
        assert_eq!(m.get(2, 0).unwrap(), 5.0);
        assert_eq!(m.nnz(), 2);

        // A forced-dense query yields an ordinary MATRIX from the same input.
        let ctx = lardb_obs::QueryContext::new(None, lardb_la::DispatchMode::Dense);
        let mut a = Accumulator::new(AggFunc::MatrixFromEntries);
        a.update(&entry(0.0, 0.0, 1.0)).unwrap();
        a.update(&entry(3.0, 3.0, 2.0)).unwrap();
        let out = {
            let _ctx = lardb_obs::context::enter(Some(ctx.clone()));
            a.finish()
        };
        assert_eq!(ctx.counts().densified, 1);
        let m = out.as_matrix().expect("forced dense yields MATRIX");
        assert_eq!(m.shape(), (4, 4));
        assert_eq!(m.get(3, 3).unwrap(), 2.0);
    }

    #[test]
    fn matrix_from_entries_rejects_bad_coordinates() {
        let mut a = Accumulator::new(AggFunc::MatrixFromEntries);
        assert!(a.update(&entry(-1.0, 0.0, 1.0)).is_err());
        assert!(a.update(&entry(0.5, 0.0, 1.0)).is_err());
        assert!(a.update(&entry(f64::NAN, 0.0, 1.0)).is_err());
        assert!(a.update(&Value::Double(1.0)).is_err());
        assert!(a.update(&Value::vector(Vector::zeros(2))).is_err());
    }

    #[test]
    fn sum_mixes_sparse_and_dense_tiles() {
        use lardb_la::CooBuilder;
        let mut b = CooBuilder::new();
        b.push(0, 1, 2.0).unwrap();
        let sp = b.build(2, 2).unwrap();
        let dense = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 3.0]]).unwrap();

        // dense first, then sparse (O(nnz) scatter-add path)
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::matrix(dense.clone())).unwrap();
        a.update(&Value::sparse_matrix(sp.clone())).unwrap();
        let m1 = a.finish();

        // sparse first, then dense (generic arith path)
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::sparse_matrix(sp.clone())).unwrap();
        a.update(&Value::matrix(dense.clone())).unwrap();
        let m2 = a.finish();

        let expected = Value::matrix(
            Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 3.0]]).unwrap(),
        );
        assert_eq!(m1, expected);
        assert_eq!(m2, expected);

        // sparse-only SUM stays sparse
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::sparse_matrix(sp.clone())).unwrap();
        a.update(&Value::sparse_matrix(sp)).unwrap();
        assert_eq!(
            a.finish(),
            Value::matrix(Matrix::from_rows(&[&[0.0, 4.0], &[0.0, 0.0]]).unwrap())
        );
    }

    #[test]
    fn minmax_densifies_sparse_input() {
        use lardb_la::CooBuilder;
        let mut b = CooBuilder::new();
        b.push(0, 0, -5.0).unwrap();
        let sp = b.build(1, 2).unwrap();
        let mut mn = Accumulator::new(AggFunc::Min);
        mn.update(&Value::matrix(Matrix::from_rows(&[&[1.0, -2.0]]).unwrap())).unwrap();
        mn.update(&Value::sparse_matrix(sp)).unwrap();
        let m = mn.finish();
        let m = m.as_matrix().unwrap();
        // min(1, -5) = -5; min(-2, implicit 0) = -2
        assert_eq!(m.row(0), &[-5.0, -2.0]);
    }
}
