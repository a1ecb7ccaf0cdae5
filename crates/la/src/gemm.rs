//! Cache-blocked dense matrix-multiplication kernels.
//!
//! The engine's `matrix_multiply` built-in bottoms out here. The scalar
//! kernel is a straightforward i-k-j loop order (streaming through rows of
//! both operands so the inner loop is a unit-stride multiply and add over
//! contiguous memory) with an outer cache-blocking over `k` and `j`. This
//! is not a hand-tuned BLAS, but its cost *scales* exactly like the
//! paper's GEMM calls, so relative results are preserved.
//!
//! ## Summation-order contract
//!
//! Every dense kernel here computes each output element as
//! `out = out + a·b` — a separate multiply and add, never a fused
//! multiply-add — over `k` in ascending order. Any loop nest that keeps
//! that per-element order produces the same bits, which is what lets the
//! parallel, register-tiled and sparse kernels ([`crate::sparse`]) all
//! compare `==` with the scalar loops.
//!
//! Three dispatches sit in front of the inner loop:
//!
//! * **Density.** The historical kernel skipped `a[i][k] == 0.0` terms,
//!   which wins big on sparse tiles but costs a branch per multiply-add on
//!   dense ones. `gemm_acc` samples the left operand and picks the
//!   branch-free dense loop ([`gemm_acc_dense`]) unless the tile looks
//!   sparse ([`gemm_acc_skipzero`]). Both are public for the kernel bench.
//! * **Instruction set.** On x86-64 machines with AVX (detected at run
//!   time; std caches the CPUID probe) the dense GEMM, SYRK and
//!   [`rank_k_update`] loops run a register-tiled 4×8 microkernel: four
//!   output rows by two 256-bit registers, with `k` still ascending per
//!   element and `vmulpd` then `vaddpd` in the scalar loop's operand
//!   order, so every output bit matches the scalar loops. Those loops
//!   remain the oracle ([`gemm_acc_scalar`], [`syrk_t_scalar`]) and the
//!   path everywhere else.
//! * **Parallelism.** Above a flop-count cutoff
//!   (2 M multiply-adds) the output is tiled into
//!   `(i-block, j-block)` cache blocks scheduled as morsels on the
//!   process-wide [`lardb_pool`] worker pool. Each morsel owns a disjoint
//!   block of `out` and runs the *full* `k` loop in the same block order
//!   as the sequential kernel, so per-element accumulation order — and
//!   therefore every output bit — is identical to a sequential run.

use crate::error::{LaError, Result};
use crate::matrix::Matrix;

/// Cache-block edge (in elements). 64×64 f64 tiles = 32 KiB per operand
/// block, comfortably inside L1+L2 on every machine we target.
const BLOCK: usize = 64;

/// Edge of one parallel morsel: a `PAR_BLOCK × PAR_BLOCK` block of `out`
/// (two cache blocks on a side, so each morsel amortizes scheduling over
/// several inner-kernel block iterations).
const PAR_BLOCK: usize = 2 * BLOCK;

/// Minimum multiply-add count (`m·n·k`) before [`gemm_acc`] fans the
/// output blocks out onto the worker pool.
const PARALLEL_FLOPS: usize = 2_000_000;

/// Estimates the zero fraction of `data` from ≤ 1024 strided samples.
pub fn zero_fraction(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let step = (data.len() / 1024).max(1);
    let mut seen = 0usize;
    let mut zeros = 0usize;
    let mut i = 0;
    while i < data.len() {
        seen += 1;
        if data[i] == 0.0 {
            zeros += 1;
        }
        i += step;
    }
    zeros as f64 / seen as f64
}

/// A raw pointer into `out` that can cross thread boundaries. Safety is
/// by construction: every parallel morsel writes a disjoint
/// `(i-block, j-block)` element set.
#[derive(Clone, Copy)]
struct OutPtr(*mut f64);
unsafe impl Send for OutPtr {}
unsafe impl Sync for OutPtr {}

/// One dense product for the tiled kernel:
/// `out[i][j] += Σ_kk a[i·a_rs + kk·a_cs] · b[kk·n + j]`, `kk` ascending.
/// A row-major `m × k` left operand has `a_rs = k, a_cs = 1`; the
/// transpose of a row-major `k × m` panel (SYRK, rank-k updates) has
/// `a_rs = 1, a_cs = m`. `b` and `out` share the row stride `n`.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Dense<'a> {
    a: &'a [f64],
    a_rs: usize,
    a_cs: usize,
    b: &'a [f64],
    out: OutPtr,
    n: usize,
    k: usize,
}

/// Runs the register-tiled kernel over rows `[i0,i1)` × columns
/// `[j0,j1)` of `job.out` when this machine has it, and returns `false`
/// (having done nothing) when the caller must run its scalar loop.
/// `upper` marks a SYRK job: tiles lying strictly below the diagonal may
/// be skipped, and other below-diagonal elements hold unspecified values
/// (the caller mirrors the upper triangle over them).
///
/// # Safety
/// `job` must describe in-bounds operands and an output buffer of at
/// least `i1` rows of stride `n`; no other thread may touch the block
/// while this runs.
#[allow(unused_variables)]
unsafe fn tiled(job: Dense<'_>, rows: (usize, usize), cols: (usize, usize), upper: bool) -> bool {
    // std probes CPUID once and caches the answer, so after the first
    // call this is a load and a bit test.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        avx::block(job, rows, cols, upper);
        return true;
    }
    false
}

#[cfg(target_arch = "x86_64")]
mod avx {
    //! The 4×8 AVX microkernel. Each tile keeps four output rows by two
    //! 256-bit registers in registers across the whole `k` panel and adds
    //! `broadcast(a) · b_row` with `vmulpd` then `vaddpd` — never an FMA —
    //! so each element sees exactly the scalar loop's `out + a·b`
    //! sequence over ascending `k`.

    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd,
    };

    use super::{Dense, BLOCK};

    /// Output rows per tile.
    const MR: usize = 4;

    /// The blocked loop nest of [`super::gemm_block`] with the inner
    /// `i`/`j` loops replaced by register tiles.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn block(
        job: Dense<'_>,
        (i0, i1): (usize, usize),
        (j0, j1): (usize, usize),
        upper: bool,
    ) {
        for kb in (0..job.k).step_by(BLOCK) {
            let ks = (kb, (kb + BLOCK).min(job.k));
            for jb in (j0..j1).step_by(BLOCK) {
                let js = (jb, (jb + BLOCK).min(j1));
                let mut i = i0;
                while i + MR <= i1 {
                    strip::<MR>(job, i, ks, js, upper);
                    i += MR;
                }
                for r in i..i1 {
                    strip::<1>(job, r, ks, js, upper);
                }
            }
        }
    }

    /// Rows `[i, i+R)` of one block: 8-wide tiles, one 4-wide tile, then
    /// the last `< 4` columns in scalar code (same `out + a·b` order).
    #[target_feature(enable = "avx")]
    unsafe fn strip<const R: usize>(
        job: Dense<'_>,
        i: usize,
        ks: (usize, usize),
        (j0, j1): (usize, usize),
        upper: bool,
    ) {
        // A tile whose last column lies left of its first row's diagonal
        // holds no element SYRK keeps.
        let skip = |j: usize, w: usize| upper && j + w <= i;
        let mut j = j0;
        while j + 8 <= j1 {
            if !skip(j, 8) {
                tile::<R, 2>(job, i, j, ks);
            }
            j += 8;
        }
        if j + 4 <= j1 {
            if !skip(j, 4) {
                tile::<R, 1>(job, i, j, ks);
            }
            j += 4;
        }
        for r in i..i + R {
            for c in j..j1 {
                let o = job.out.0.add(r * job.n + c);
                let mut s = *o;
                for kk in ks.0..ks.1 {
                    s += *job.a.get_unchecked(r * job.a_rs + kk * job.a_cs)
                        * *job.b.get_unchecked(kk * job.n + c);
                }
                *o = s;
            }
        }
    }

    /// One `R × 4V` tile of `out` at `(i, j)` over the panel `ks`.
    #[target_feature(enable = "avx")]
    #[allow(clippy::needless_range_loop)]
    unsafe fn tile<const R: usize, const V: usize>(
        job: Dense<'_>,
        i: usize,
        j: usize,
        (k0, k1): (usize, usize),
    ) {
        let out = job.out.0;
        let mut acc: [[__m256d; V]; R] = [[_mm256_setzero_pd(); V]; R];
        for r in 0..R {
            for v in 0..V {
                acc[r][v] = _mm256_loadu_pd(out.add((i + r) * job.n + j + 4 * v));
            }
        }
        let a = job.a.as_ptr();
        let b = job.b.as_ptr();
        for kk in k0..k1 {
            let b_row = b.add(kk * job.n + j);
            let mut bv: [__m256d; V] = [_mm256_setzero_pd(); V];
            for v in 0..V {
                bv[v] = _mm256_loadu_pd(b_row.add(4 * v));
            }
            for r in 0..R {
                let av = _mm256_set1_pd(*a.add((i + r) * job.a_rs + kk * job.a_cs));
                for v in 0..V {
                    acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(av, bv[v]));
                }
            }
        }
        for r in 0..R {
            for v in 0..V {
                _mm256_storeu_pd(out.add((i + r) * job.n + j + 4 * v), acc[r][v]);
            }
        }
    }
}

/// The scalar blocked kernel over one `[i0,i1) × [j0,j1)` block of `out`,
/// running the full `k` extent in the canonical `kb`-block order.
///
/// `skip_zero` selects the branchy sparse loop; monomorphized via const
/// generic so the dense path carries no per-element branch.
///
/// # Safety
/// `out` must point at an `m × n` row-major buffer; no other thread may
/// touch elements in `[i0,i1) × [j0,j1)` while this runs.
unsafe fn gemm_block<const SKIP_ZERO: bool>(
    a_data: &[f64],
    b_data: &[f64],
    out: OutPtr,
    k: usize,
    n: usize,
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
) {
    for kb in (0..k).step_by(BLOCK) {
        let kmax = (kb + BLOCK).min(k);
        for jb in (j0..j1).step_by(BLOCK) {
            let jmax = (jb + BLOCK).min(j1);
            for i in i0..i1 {
                let a_row = &a_data[i * k..(i + 1) * k];
                let out_row = std::slice::from_raw_parts_mut(
                    out.0.add(i * n + jb),
                    jmax - jb,
                );
                for kk in kb..kmax {
                    let aik = a_row[kk];
                    if SKIP_ZERO && aik == 0.0 {
                        continue;
                    }
                    let b_row = &b_data[kk * n + jb..kk * n + jmax];
                    for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += aik * bv;
                    }
                }
            }
        }
    }
}

impl<'a> Dense<'a> {
    /// `out += a × b` for a row-major `a`.
    fn gemm(a: &'a Matrix, b: &'a Matrix, out: &mut Matrix) -> Self {
        let (n, k) = (b.cols(), a.cols());
        let out = OutPtr(out.as_mut_slice().as_mut_ptr());
        Dense { a: a.as_slice(), a_rs: k, a_cs: 1, b: b.as_slice(), out, n, k }
    }
}

/// One block of `out += a × b` (`job` from [`Dense::gemm`]): the
/// skip-zero loop, else the tiled kernel when available, else the scalar
/// dense loop.
///
/// # Safety
/// As [`gemm_block`].
unsafe fn gemm_part(skip_zero: bool, job: Dense<'_>, rows: (usize, usize), cols: (usize, usize)) {
    let Dense { a, b, out, n, k, .. } = job;
    if skip_zero {
        gemm_block::<true>(a, b, out, k, n, rows, cols);
    } else if !tiled(job, rows, cols, false) {
        gemm_block::<false>(a, b, out, k, n, rows, cols);
    }
}

/// Splits `0..len` into `PAR_BLOCK`-sized ranges.
fn par_ranges(len: usize) -> Vec<(usize, usize)> {
    (0..len).step_by(PAR_BLOCK).map(|lo| (lo, (lo + PAR_BLOCK).min(len))).collect()
}

/// `out += a × b`. Shapes must already be validated by the caller.
///
/// Dispatches on density (dense vs skip-zero inner loop) and size
/// (inline vs pool-parallel over output cache blocks); every path
/// produces bit-identical output.
pub(crate) fn gemm_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    gemm_acc_pooled(lardb_pool::global(), a, b, out)
}

/// `gemm_acc` scheduled on a caller-supplied pool (tests use a
/// dedicated multi-worker pool so the parallel path is exercised even on
/// single-core machines).
pub fn gemm_acc_pooled(
    pool: &lardb_pool::WorkerPool,
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
) {
    let (m, k) = a.shape();
    let n = b.cols();
    debug_assert_eq!(b.rows(), k);
    debug_assert_eq!(out.shape(), (m, n));

    let skip_zero = crate::dispatch::choose_skip_zero(zero_fraction(a.as_slice()));
    let flops = m.saturating_mul(n).saturating_mul(k);
    let job = Dense::gemm(a, b, out);
    if flops >= PARALLEL_FLOPS && pool.workers() > 1 && m * n > PAR_BLOCK {
        pool.scope(|s| {
            for ib in par_ranges(m) {
                for jb in par_ranges(n) {
                    // Disjoint (ib, jb) block of `out` per morsel.
                    s.spawn(move || unsafe { gemm_part(skip_zero, job, ib, jb) });
                }
            }
        })
        .expect("gemm morsel panicked");
    } else {
        unsafe { gemm_part(skip_zero, job, (0, m), (0, n)) }
    }
}

/// Checks `out += a × b` operand shapes for the public sequential entry
/// points.
fn check_gemm_shapes(a: &Matrix, b: &Matrix, out: &Matrix) {
    assert_eq!(b.rows(), a.cols(), "gemm shape mismatch");
    assert_eq!(out.shape(), (a.rows(), b.cols()), "gemm output shape mismatch");
}

/// `out += a × b` through the branch-free dense inner loop (the tiled
/// kernel where available), sequentially. Public for differential tests
/// and the kernel bench.
pub fn gemm_acc_dense(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    check_gemm_shapes(a, b, out);
    let (m, n) = out.shape();
    unsafe { gemm_part(false, Dense::gemm(a, b, out), (0, m), (0, n)) }
}

/// `out += a × b` through the scalar dense loop, sequentially — the
/// oracle the tiled kernel must match bit for bit.
pub fn gemm_acc_scalar(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    check_gemm_shapes(a, b, out);
    let (m, k) = a.shape();
    let n = b.cols();
    let ptr = OutPtr(out.as_mut_slice().as_mut_ptr());
    unsafe { gemm_block::<false>(a.as_slice(), b.as_slice(), ptr, k, n, (0, m), (0, n)) }
}

/// `out += a × b` through the zero-skipping (branchy) inner loop,
/// sequentially. Wins when `a` is sparse; public for the kernel bench.
pub fn gemm_acc_skipzero(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    check_gemm_shapes(a, b, out);
    let (m, k) = a.shape();
    let n = b.cols();
    let ptr = OutPtr(out.as_mut_slice().as_mut_ptr());
    unsafe { gemm_block::<true>(a.as_slice(), b.as_slice(), ptr, k, n, (0, m), (0, n)) }
}

/// `out += xᵀ·y` for `k` rows packed row-major in `x` (`k × m`) and `y`
/// (`k × n`), where `out` is `m × n`: the outer products `x_l·y_lᵀ` added
/// into `out` in ascending `l`, element by element as `out + x·y`, so the
/// result is bit-identical to `k` successive
/// [`crate::Vector::outer_product_into`] calls. This is the kernel behind
/// the fused `SUM(outer_product(x, y))` aggregate; it runs on the
/// caller's thread.
pub fn rank_k_update(x: &[f64], y: &[f64], k: usize, out: &mut Matrix) -> Result<()> {
    let (m, n) = out.shape();
    if x.len() != k * m || y.len() != k * n {
        return Err(LaError::DimMismatch {
            op: "rank_k_update",
            lhs: (x.len(), y.len()),
            rhs: (k * m, k * n),
        });
    }
    let o = out.as_mut_slice();
    let job = Dense { a: x, a_rs: 1, a_cs: m, b: y, out: OutPtr(o.as_mut_ptr()), n, k };
    if unsafe { tiled(job, (0, m), (0, n), false) } {
        return Ok(());
    }
    for (xr, yr) in x.chunks_exact(m.max(1)).zip(y.chunks_exact(n.max(1))).take(k) {
        for (&a, out_row) in xr.iter().zip(o.chunks_exact_mut(n.max(1))) {
            for (slot, &b) in out_row.iter_mut().zip(yr) {
                *slot += a * b;
            }
        }
    }
    Ok(())
}

/// The scalar SYRK kernel: accumulates `aᵀa` rows `[p0,p1)` of the upper
/// triangle into `out`, iterating input rows outermost (the canonical
/// order, so parallel row-blocks accumulate bit-identically).
///
/// # Safety
/// `out` must point at an `n × n` row-major buffer; no other thread may
/// touch rows `[p0,p1)` while this runs.
unsafe fn syrk_rows<const SKIP_ZERO: bool>(
    data: &[f64],
    out: OutPtr,
    m: usize,
    n: usize,
    (p0, p1): (usize, usize),
) {
    for i in 0..m {
        let row = &data[i * n..(i + 1) * n];
        for p in p0..p1 {
            let v = row[p];
            if SKIP_ZERO && v == 0.0 {
                continue;
            }
            let out_row =
                std::slice::from_raw_parts_mut(out.0.add(p * n + p), n - p);
            for (o, &w) in out_row.iter_mut().zip(row[p..].iter()) {
                *o += v * w;
            }
        }
    }
}

/// Output rows `[p0,p1)` of `aᵀa`'s upper triangle: the skip-zero loop,
/// else the tiled kernel (as a rank-`m` update with `a`'s transpose on
/// the left) when available, else the scalar dense loop.
///
/// # Safety
/// As [`syrk_rows`].
unsafe fn syrk_part(skip_zero: bool, data: &[f64], out: OutPtr, m: usize, n: usize, rows: (usize, usize)) {
    if skip_zero {
        syrk_rows::<true>(data, out, m, n, rows);
        return;
    }
    let job = Dense { a: data, a_rs: 1, a_cs: n, b: data, out, n, k: m };
    if !tiled(job, rows, (rows.0, n), true) {
        syrk_rows::<false>(data, out, m, n, rows);
    }
}

/// Copies the strict upper triangle of a square matrix into the lower.
fn mirror_upper(out: &mut Matrix) {
    let n = out.cols();
    let d = out.as_mut_slice();
    for p in 0..n {
        for q in (p + 1)..n {
            d[q * n + p] = d[p * n + q];
        }
    }
}

/// Symmetric rank-k update: computes `aᵀ × a`, touching only the upper
/// triangle and mirroring — about half the flops of a general GEMM. This is
/// the kernel behind Gram-matrix computation (Figure 1) and the normal
/// equations of least squares (Figure 2).
///
/// Large updates parallelize over output-row blocks on the worker pool;
/// the density dispatch mirrors [`gemm_acc`].
pub(crate) fn syrk_t(a: &Matrix) -> Matrix {
    syrk_t_pooled(lardb_pool::global(), a)
}

/// `syrk_t` scheduled on a caller-supplied pool.
pub fn syrk_t_pooled(pool: &lardb_pool::WorkerPool, a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let data = a.as_slice();
    let mut out = Matrix::zeros(n, n);
    let skip_zero = crate::dispatch::choose_skip_zero(zero_fraction(data));
    // ~half the multiplies of a full m×n×n GEMM.
    let flops = m.saturating_mul(n).saturating_mul(n) / 2;
    let ptr = OutPtr(out.as_mut_slice().as_mut_ptr());
    if flops >= PARALLEL_FLOPS && pool.workers() > 1 && n > PAR_BLOCK {
        pool.scope(|s| {
            for pb in par_ranges(n) {
                // Disjoint output rows [pb.0, pb.1) per morsel.
                s.spawn(move || unsafe { syrk_part(skip_zero, data, ptr, m, n, pb) });
            }
        })
        .expect("syrk morsel panicked");
    } else {
        unsafe { syrk_part(skip_zero, data, ptr, m, n, (0, n)) }
    }
    mirror_upper(&mut out);
    out
}

/// `aᵀ × a` through the scalar dense loop, sequentially — the oracle the
/// tiled SYRK must match bit for bit.
pub fn syrk_t_scalar(a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let mut out = Matrix::zeros(n, n);
    let ptr = OutPtr(out.as_mut_slice().as_mut_ptr());
    unsafe { syrk_rows::<false>(a.as_slice(), ptr, m, n, (0, n)) }
    mirror_upper(&mut out);
    out
}

/// Naive triple-loop reference multiply, kept for differential testing and
/// the blocking ablation bench.
pub fn gemm_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm_naive shape mismatch");
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for kk in 0..k {
                s += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
            }
            out.as_mut_slice()[i * n + j] = s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rngish(seed: u64, len: usize) -> Vec<f64> {
        // Small deterministic pseudo-random generator (xorshift) so the
        // kernel tests do not need the rand crate at build time.
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % 2000) as f64 - 1000.0) / 250.0
            })
            .collect()
    }

    #[test]
    fn blocked_matches_naive_various_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (17, 9, 33), (70, 65, 80), (128, 64, 1)] {
            let a = Matrix::from_vec(m, k, rngish(42 + m as u64, m * k)).unwrap();
            let b = Matrix::from_vec(k, n, rngish(99 + n as u64, k * n)).unwrap();
            let fast = a.multiply(&b).unwrap();
            let slow = gemm_naive(&a, &b);
            assert!(fast.approx_eq(&slow, 1e-9), "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn syrk_matches_naive() {
        for &(m, n) in &[(5, 3), (33, 17), (80, 70)] {
            let a = Matrix::from_vec(m, n, rngish(7 + m as u64, m * n)).unwrap();
            let fast = syrk_t(&a);
            let slow = gemm_naive(&a.transpose(), &a);
            assert!(fast.approx_eq(&slow, 1e-9), "mismatch at {m}x{n}");
        }
    }

    #[test]
    fn gemm_acc_accumulates_not_overwrites() {
        let a = Matrix::identity(4);
        let mut out = Matrix::filled(4, 4, 1.0);
        gemm_acc(&a, &a, &mut out);
        assert_eq!(out.get(0, 0).unwrap(), 2.0);
        assert_eq!(out.get(0, 1).unwrap(), 1.0);
    }

    #[test]
    fn zero_sized_operands() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 0);
        let c = a.multiply(&b).unwrap();
        assert_eq!(c.shape(), (0, 0));
        let d = b.multiply(&a).unwrap();
        assert_eq!(d.shape(), (5, 5));
        assert_eq!(d.sum_elements(), 0.0);
    }

    #[test]
    fn dense_and_skipzero_loops_agree() {
        for &(m, k, n) in &[(7, 11, 5), (64, 64, 64), (130, 70, 129)] {
            let a = Matrix::from_vec(m, k, rngish(3 + k as u64, m * k)).unwrap();
            let b = Matrix::from_vec(k, n, rngish(5 + n as u64, k * n)).unwrap();
            let mut dense = Matrix::zeros(m, n);
            let mut branchy = Matrix::zeros(m, n);
            gemm_acc_dense(&a, &b, &mut dense);
            gemm_acc_skipzero(&a, &b, &mut branchy);
            // Identical loop order ⇒ bitwise-equal accumulation.
            assert_eq!(dense.as_slice(), branchy.as_slice(), "at {m}x{k}x{n}");
        }
    }

    #[test]
    fn sparse_input_dispatch_is_correct() {
        // ~70% zeros: gemm_acc takes the skip-zero path; result must
        // still match the naive reference exactly.
        let m = 40;
        let data: Vec<f64> =
            rngish(11, m * m).iter().map(|&v| if v < 1.0 { 0.0 } else { v }).collect();
        let a = Matrix::from_vec(m, m, data).unwrap();
        let b = Matrix::from_vec(m, m, rngish(13, m * m)).unwrap();
        let fast = a.multiply(&b).unwrap();
        assert!(fast.approx_eq(&gemm_naive(&a, &b), 1e-9));
    }

    #[test]
    fn parallel_gemm_is_bitwise_identical_to_inline() {
        let (m, k, n) = (300, 150, 280);
        let a = Matrix::from_vec(m, k, rngish(21, m * k)).unwrap();
        let b = Matrix::from_vec(k, n, rngish(22, k * n)).unwrap();
        let mut inline_out = Matrix::zeros(m, n);
        gemm_acc_dense(&a, &b, &mut inline_out);
        // A dedicated multi-worker pool + tiny cutoff forces the morsel
        // path even on single-core machines. The flop count here is far
        // above the default cutoff, so the global setting is irrelevant.
        let pool = lardb_pool::WorkerPool::new(4);
        let mut par_out = Matrix::zeros(m, n);
        gemm_acc_pooled(&pool, &a, &b, &mut par_out);
        // Same per-element accumulation order ⇒ identical bits.
        assert_eq!(inline_out.as_slice(), par_out.as_slice());
    }

    #[test]
    fn parallel_syrk_is_bitwise_identical_to_inline() {
        let (m, n) = (200, 260);
        let a = Matrix::from_vec(m, n, rngish(31, m * n)).unwrap();
        let inline_pool = lardb_pool::WorkerPool::new(1);
        let inline_out = syrk_t_pooled(&inline_pool, &a);
        let pool = lardb_pool::WorkerPool::new(4);
        let par_out = syrk_t_pooled(&pool, &a);
        assert_eq!(inline_out.as_slice(), par_out.as_slice());
    }

    /// Every element's bits, except that a NaN maps to one canonical NaN:
    /// Rust leaves the sign and payload of a NaN produced by arithmetic
    /// unspecified, so the contract covers every other bit (±0, ±inf
    /// included) and NaN-ness.
    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice()
            .iter()
            .map(|v| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() })
            .collect()
    }

    /// `rngish` data with signed zeros, NaN and infinities sprinkled in.
    fn special(seed: u64, len: usize) -> Vec<f64> {
        rngish(seed, len)
            .into_iter()
            .enumerate()
            .map(|(i, v)| match i % 23 {
                3 => -0.0,
                7 => 0.0,
                11 => f64::NAN,
                13 => f64::INFINITY,
                17 => f64::NEG_INFINITY,
                _ => v,
            })
            .collect()
    }

    /// Shapes with `m`, `n` off the 4×8 tile, `k` crossing `BLOCK`, and
    /// zero-sized edges.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (5, 65, 13),
        (17, 9, 33),
        (70, 130, 81),
        (9, 200, 100),
        (0, 5, 3),
        (3, 0, 4),
        (4, 5, 0),
    ];

    #[test]
    fn dense_kernel_matches_scalar_bitwise() {
        for &(m, k, n) in SHAPES {
            let a = Matrix::from_vec(m, k, rngish(41 + m as u64, m * k)).unwrap();
            let b = Matrix::from_vec(k, n, rngish(43 + n as u64, k * n)).unwrap();
            // Accumulate onto a non-zero start (with a -0.0) to cover `+=`.
            let start = Matrix::from_fn(m, n, |i, j| if (i + j) % 5 == 0 { -0.0 } else { 0.5 });
            let (mut fast, mut slow) = (start.clone(), start);
            gemm_acc_dense(&a, &b, &mut fast);
            gemm_acc_scalar(&a, &b, &mut slow);
            assert_eq!(bits(&fast), bits(&slow), "at {m}x{k}x{n}");
        }
    }

    #[test]
    fn dense_kernel_matches_scalar_on_special_values() {
        for &(m, k, n) in &[(6, 70, 13), (8, 64, 16), (1, 3, 5)] {
            let a = Matrix::from_vec(m, k, special(51, m * k)).unwrap();
            let b = Matrix::from_vec(k, n, special(53, k * n)).unwrap();
            let mut fast = Matrix::from_vec(m, n, special(55, m * n)).unwrap();
            let mut slow = fast.clone();
            gemm_acc_dense(&a, &b, &mut fast);
            gemm_acc_scalar(&a, &b, &mut slow);
            assert_eq!(bits(&fast), bits(&slow), "at {m}x{k}x{n}");
        }
    }

    #[test]
    fn pooled_dense_kernel_matches_scalar_bitwise() {
        let pool = lardb_pool::WorkerPool::new(4);
        for &(m, k, n) in &[(300, 150, 281), (131, 70, 257)] {
            let a = Matrix::from_vec(m, k, rngish(61, m * k)).unwrap();
            let b = Matrix::from_vec(k, n, rngish(62, k * n)).unwrap();
            let mut par = Matrix::zeros(m, n);
            gemm_acc_pooled(&pool, &a, &b, &mut par);
            let mut slow = Matrix::zeros(m, n);
            gemm_acc_scalar(&a, &b, &mut slow);
            assert_eq!(bits(&par), bits(&slow), "at {m}x{k}x{n}");
        }
    }

    #[test]
    fn tiled_syrk_matches_scalar_bitwise() {
        let inline = lardb_pool::WorkerPool::new(1);
        let pool = lardb_pool::WorkerPool::new(4);
        for &(m, n) in &[(1, 1), (5, 3), (70, 13), (130, 100), (200, 261), (0, 4), (4, 0)] {
            let a = Matrix::from_vec(m, n, rngish(71 + n as u64, m * n)).unwrap();
            let slow = bits(&syrk_t_scalar(&a));
            assert_eq!(bits(&syrk_t_pooled(&inline, &a)), slow, "inline at {m}x{n}");
            assert_eq!(bits(&syrk_t_pooled(&pool, &a)), slow, "pooled at {m}x{n}");
        }
        let a = Matrix::from_vec(67, 21, special(73, 67 * 21)).unwrap();
        assert_eq!(bits(&syrk_t_pooled(&inline, &a)), bits(&syrk_t_scalar(&a)));
    }

    #[test]
    fn rank_k_update_matches_outer_product_fold() {
        use crate::Vector;
        for &(k, m, n) in &[(1, 1, 1), (3, 5, 7), (65, 100, 100), (130, 9, 13), (0, 4, 4)] {
            for data in [rngish as fn(u64, usize) -> Vec<f64>, special] {
                let x = data(81 + m as u64, k * m);
                let y = data(83 + n as u64, k * n);
                let start = Matrix::from_vec(m, n, data(85, m * n)).unwrap();
                let mut fast = start.clone();
                rank_k_update(&x, &y, k, &mut fast).unwrap();
                let mut slow = start;
                for l in 0..k {
                    let xv = Vector::from_slice(&x[l * m..(l + 1) * m]);
                    let yv = Vector::from_slice(&y[l * n..(l + 1) * n]);
                    xv.outer_product_into(&yv, &mut slow).unwrap();
                }
                assert_eq!(bits(&fast), bits(&slow), "at k={k} {m}x{n}");
            }
        }
        let mut out = Matrix::zeros(2, 2);
        assert!(rank_k_update(&[1.0; 3], &[1.0; 2], 1, &mut out).is_err());
    }

    #[test]
    fn zero_fraction_sampling() {
        assert_eq!(zero_fraction(&[]), 0.0);
        assert_eq!(zero_fraction(&[1.0, 2.0]), 0.0);
        assert_eq!(zero_fraction(&[0.0; 8]), 1.0);
        let half: Vec<f64> =
            (0..100).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
        let f = zero_fraction(&half);
        assert!((f - 0.5).abs() < 0.1, "sampled {f}");
    }
}
