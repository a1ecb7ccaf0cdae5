//! Single-layer probes run in the traced process: machine peaks (an FMA
//! loop and a STREAM triad) and the rates of the `la`, `net`, `buf` and
//! `pool` crates' public kernels on the workload's own rows and tiles.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use lardb::{Matrix, Row, SparseMatrix, Vector};
use lardb_buf::SpillWriter;
use lardb_net::codec::{decode_frame, encode_rows_frame, Frame};
use lardb_pool::WorkerPool;

use crate::gen::Rng;
use crate::report::{median, Report};

/// Median seconds per call of `f`, over `reps` timed repetitions of
/// `inner` calls each, after one warm-up call.
fn time_per_call(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..inner {
                f();
            }
            t0.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    median(&samples)
}

/// Calls per repetition so one repetition takes about `target`.
fn calls_for(target: Duration, mut f: impl FnMut()) -> usize {
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    ((target.as_secs_f64() / one) as usize).clamp(1, 1_000_000)
}

// ------------------------------------------------------------ machine peak

/// Peak double-precision rate of one core, GFLOP/s: independent FMA
/// chains, wide enough to cover FMA latency. Uses AVX2+FMA when the CPU
/// has them (what a tuned kernel could reach), else plain mul+add.
fn peak_gflops() -> (f64, &'static str) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            let iters = 20_000_000u64;
            let secs = time_per_call(5, 1, || {
                // SAFETY: the CPU supports AVX2 and FMA (checked above).
                black_box(unsafe {
                    fma_chains_avx2(black_box(iters), black_box(0.999_999_9), black_box(1e-7))
                });
            });
            // 12 chains × 4 lanes × 2 flops per iteration.
            return (iters as f64 * 96.0 / secs / 1e9, "avx2+fma, 12 chains");
        }
    }
    let iters = 20_000_000u64;
    let secs = time_per_call(5, 1, || {
        black_box(scalar_chains(black_box(iters)));
    });
    (iters as f64 * 16.0 / secs / 1e9, "scalar mul+add, 8 chains")
}

fn scalar_chains(iters: u64) -> f64 {
    let mut acc = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
    let (m, a) = (black_box(0.999_999_9), black_box(1e-7));
    for _ in 0..iters {
        for x in &mut acc {
            *x = *x * m + a;
        }
    }
    acc.iter().sum()
}

/// # Safety
/// The caller must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64, m: f64, a: f64) -> f64 {
    use std::arch::x86_64::*;
    let m = _mm256_set1_pd(m);
    let a = _mm256_set1_pd(a);
    let mut acc: [__m256d; 12] = std::array::from_fn(|i| _mm256_set1_pd(1.0 + i as f64 * 0.01));
    for _ in 0..iters {
        for x in &mut acc {
            *x = _mm256_fmadd_pd(*x, m, a);
        }
    }
    let mut out = [0.0f64; 4];
    let mut sum = _mm256_setzero_pd();
    for x in acc {
        sum = _mm256_add_pd(sum, x);
    }
    _mm256_storeu_pd(out.as_mut_ptr(), sum);
    out.iter().sum()
}

/// Last-level cache size in bytes from CPUID leaf 4, if the CPU reports it.
fn llc_bytes() -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        let mut best = None;
        for sub in 0..16 {
            // Leaf 4 with an out-of-range subleaf returns a null cache type.
            let r = __cpuid_count(4, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
            let parts = ((r.ebx >> 12) & 0x3ff) as usize + 1;
            let line = (r.ebx & 0xfff) as usize + 1;
            let sets = r.ecx as usize + 1;
            best = Some(ways * parts * line * sets);
        }
        best
    }
    #[cfg(not(target_arch = "x86_64"))]
    None
}

/// STREAM triad `a = b + s·c` over three arrays whose total size is four
/// times the last-level cache; GB/s counting 24 bytes per element.
fn stream_gbps(r: &mut Report) -> f64 {
    let (llc, source) = match llc_bytes() {
        Some(b) => (b, "reported by CPUID"),
        None => (32 << 20, "assumed; CPUID gave none"),
    };
    let total = (4 * llc).clamp(64 << 20, 1536 << 20);
    let len = total / 3 / 8;
    r.note(format!(
        "la.stream_gbps: triad over 3 arrays of {} MiB ({} MiB total); last-level cache {} MiB ({source})",
        (len * 8) >> 20,
        (3 * len * 8) >> 20,
        llc >> 20,
    ));
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let s = black_box(3.0);
    let secs = time_per_call(5, 1, || {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
    });
    (24 * len) as f64 / secs / 1e9
}

// ------------------------------------------------------------ la kernels

/// Tile shapes one workload's LA statements run on.
pub struct LaShapes {
    /// `(m, k, n)` of the workload's dense products.
    pub gemm: (usize, usize, usize),
    /// Rows × cols of the tile whose `AᵀA` (SYRK) the workload takes.
    pub syrk: (usize, usize),
    /// Length of the vectors whose outer products are accumulated.
    pub outer: usize,
    /// Matrix–vector shape.
    pub matvec: (usize, usize),
    /// Sparse matrix: nodes and non-zeros per row.
    pub spmv: (usize, usize),
}

fn random_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.uniform())
}

/// `work` per second of `f`: the median of 7 repetitions of about 40 ms.
fn rate(work: f64, mut f: impl FnMut()) -> f64 {
    let inner = calls_for(Duration::from_millis(40), &mut f);
    work / time_per_call(7, inner, f)
}

pub fn la(r: &mut Report, shapes: &LaShapes, seed: u64) {
    let (peak, how) = peak_gflops();
    r.note(format!("la.peak_gflops: one core, {how}"));
    let stream = stream_gbps(r);
    let mut rng = Rng::new(seed, 0x1a);

    let (m, k, n) = shapes.gemm;
    let a = random_matrix(&mut rng, m, k);
    let b = random_matrix(&mut rng, k, n);
    let mut out = Matrix::zeros(m, n);
    let gemm = rate(2.0 * (m * k * n) as f64 / 1e9, || {
        lardb_la::gemm::gemm_acc_dense(black_box(&a), black_box(&b), &mut out)
    });
    r.note(format!(
        "la.gemm_gflops: gemm_acc_dense on {m}x{k} * {k}x{n}"
    ));

    let (sr, sc) = shapes.syrk;
    let tile = random_matrix(&mut rng, sr, sc);
    let pool = WorkerPool::new(1);
    let syrk = rate((sr * sc * sc) as f64 / 1e9, || {
        black_box(lardb_la::gemm::syrk_t_pooled(&pool, black_box(&tile)));
    });
    r.note(format!(
        "la.syrk_gflops: AᵀA of a {sr}x{sc} tile, one thread, {sr}·{sc}² flops counted"
    ));

    let d = shapes.outer;
    let vecs: Vec<Vector> = (0..64)
        .map(|_| Vector::from_fn(d, |_| rng.uniform()))
        .collect();
    let mut acc = Matrix::zeros(d, d);
    let outer = rate(2.0 * (vecs.len() * d * d) as f64 / 1e9, || {
        for v in &vecs {
            acc.add_in_place(&v.outer_product(black_box(v)))
                .expect("same shape");
        }
    });
    r.note(format!(
        "la.outer_acc_gflops: x·xᵀ added into a {d}x{d} sum"
    ));

    let (mr, mc) = shapes.matvec;
    let mat = random_matrix(&mut rng, mr, mc);
    let x = Vector::from_fn(mc, |_| rng.uniform());
    let matvec = rate((mr * mc * 8) as f64 / 1e9, || {
        black_box(mat.matrix_vector_multiply(black_box(&x)).expect("shape"));
    });
    r.note(format!(
        "la.matvec_gbps: {mr}x{mc} matrix, matrix bytes per call"
    ));

    let (nodes, per_row) = shapes.spmv;
    let sp = random_sparse(&mut rng, nodes, per_row);
    let xs = Vector::from_fn(nodes, |_| rng.uniform());
    // CSR traffic: value + column index per non-zero, row pointers, x, y.
    let bytes = sp.nnz() * 12 + (nodes + 1) * 8 + 2 * nodes * 8;
    let spmv = rate(bytes as f64 / 1e9, || {
        black_box(sp.spmv(black_box(&xs)).expect("shape"));
    });
    r.note(format!(
        "la.spmv_gbps: CSR {nodes}x{nodes}, {} non-zeros",
        sp.nnz()
    ));

    r.metric("la.peak_gflops", peak, "GFLOP/s");
    r.metric("la.stream_gbps", stream, "GB/s");
    r.metric("la.gemm_gflops", gemm, "GFLOP/s");
    r.metric("la.gemm_pct_peak", 100.0 * gemm / peak, "%");
    r.metric("la.syrk_gflops", syrk, "GFLOP/s");
    r.metric("la.outer_acc_gflops", outer, "GFLOP/s");
    r.metric("la.matvec_gbps", matvec, "GB/s");
    r.metric("la.spmv_gbps", spmv, "GB/s");
}

fn random_sparse(rng: &mut Rng, n: usize, per_row: usize) -> SparseMatrix {
    let mut b = lardb::CooBuilder::new();
    for i in 0..n {
        for _ in 0..per_row {
            b.push(i as i64, rng.below(n as u64) as i64, rng.uniform())
                .expect("in range");
        }
    }
    b.build(n, n).expect("valid coordinates")
}

// ------------------------------------------------------------ net, buf, pool

/// Codec rates on the workload's rows: `(encode MB/s, decode MB/s)`.
pub fn codec(rows: &[Row]) -> (f64, f64) {
    let frames: Vec<Vec<u8>> = rows.chunks(256).map(encode_rows_frame).collect();
    let mb = frames.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let enc = rate(mb, || {
        for chunk in rows.chunks(256) {
            black_box(encode_rows_frame(black_box(chunk)));
        }
    });
    let dec = rate(mb, || {
        for f in &frames {
            match decode_frame(black_box(f)) {
                Ok(Frame::Rows(r)) => {
                    black_box(r);
                }
                other => panic!("probe frame did not decode to rows: {other:?}"),
            }
        }
    });
    (enc, dec)
}

/// Spill rates on the workload's rows, written until at least 8 MB of
/// encoded rows are on disk: `(write MB/s, read MB/s)`.
pub fn spill(rows: &[Row], dir: &Path) -> Result<(f64, f64), String> {
    let per_pass: usize = rows
        .iter()
        .flat_map(|r| r.values().iter().map(lardb_net::codec::encoded_value_size))
        .sum();
    let passes = (8 << 20) / per_pass.max(1) + 1;
    let mut w_samples = Vec::new();
    let mut r_samples = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut w = SpillWriter::create(dir, "probe").map_err(|e| e.to_string())?;
        for _ in 0..passes {
            w.write_rows(rows).map_err(|e| e.to_string())?;
        }
        let file = w.finish().map_err(|e| e.to_string())?;
        let w_secs = t0.elapsed().as_secs_f64();
        let bytes = file.bytes() as f64;
        let t1 = Instant::now();
        let back = file.read_rows().map_err(|e| e.to_string())?;
        let r_secs = t1.elapsed().as_secs_f64();
        if back.len() as u64 != file.rows() {
            return Err(format!(
                "spill read {} rows, wrote {}",
                back.len(),
                file.rows()
            ));
        }
        w_samples.push(bytes / w_secs / 1e6);
        r_samples.push(bytes / r_secs / 1e6);
    }
    Ok((median(&w_samples), median(&r_samples)))
}

/// Microseconds per empty task through `WorkerPool::scope` on a pool of
/// `workers` threads.
pub fn pool_task_overhead_us(workers: usize) -> f64 {
    let pool = WorkerPool::new(workers);
    let tasks = 10_000;
    let secs = time_per_call(7, 1, || {
        pool.scope(|s| {
            for _ in 0..tasks {
                s.spawn(|| {
                    black_box(());
                });
            }
        })
        .expect("empty tasks do not panic");
    });
    secs / tasks as f64 * 1e6
}
