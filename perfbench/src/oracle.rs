//! Reference answers computed with plain loops over the generator's data.
//! Nothing here calls the engine or its linear-algebra crate, so a bug
//! shared by every engine code path still shows up as a check failure.

use crate::gen::Dense;

/// `XᵀX` by the textbook triple loop, row-major `d × d`.
pub fn gram(x: &Dense) -> Vec<f64> {
    let d = x.cols;
    let mut g = vec![0.0; d * d];
    for r in 0..x.rows {
        let xr = x.row(r);
        for i in 0..d {
            for j in 0..d {
                g[i * d + j] += xr[i] * xr[j];
            }
        }
    }
    g
}

/// `Xᵀy`.
pub fn xty(x: &Dense, y: &[f64]) -> Vec<f64> {
    (0..x.cols)
        .map(|j| (0..x.rows).map(|r| x.at(r, j) * y[r]).sum())
        .collect()
}

/// `A · B` by the triple loop.
pub fn matmul(a: &Dense, b: &Dense) -> Dense {
    assert_eq!(a.cols, b.rows, "reference matmul shapes");
    let mut out = Dense {
        rows: a.rows,
        cols: b.cols,
        data: vec![0.0; a.rows * b.cols],
    };
    for i in 0..a.rows {
        for j in 0..b.cols {
            let mut s = 0.0;
            for k in 0..a.cols {
                s += a.at(i, k) * b.at(k, j);
            }
            out.data[i * b.cols + j] = s;
        }
    }
    out
}

/// For every point `i`, `min_{j≠i} x_iᵀ A x_j` — the paper's Fig 3
/// "distance" — then the point whose nearest neighbour is farthest.
/// Returns the per-point minima.
pub fn min_distances(x: &Dense, a: &Dense) -> Vec<f64> {
    let n = x.rows;
    let d = x.cols;
    // ax[j] = A x_j
    let mut ax = vec![0.0; n * d];
    for j in 0..n {
        for r in 0..d {
            let mut s = 0.0;
            for c in 0..d {
                s += a.at(r, c) * x.at(j, c);
            }
            ax[j * d + r] = s;
        }
    }
    (0..n)
        .map(|i| {
            let xi = x.row(i);
            let mut best = f64::INFINITY;
            for j in (0..n).filter(|&j| j != i) {
                let s: f64 = xi
                    .iter()
                    .zip(&ax[j * d..(j + 1) * d])
                    .map(|(p, q)| p * q)
                    .sum();
                best = best.min(s);
            }
            best
        })
        .collect()
}

/// One damped PageRank step `x' = 0.85·M x + (1-0.85)/n` over a
/// column-stochastic edge list `(dst, src, weight)`.
pub fn pagerank_step(n: usize, edges: &[(usize, usize, f64)], x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; n];
    for &(dst, src, w) in edges {
        y[dst] += w * x[src];
    }
    let teleport = (1.0 - DAMPING) / n as f64;
    y.iter().map(|v| v * DAMPING + teleport).collect()
}

pub const DAMPING: f64 = 0.85;

/// `|a - b| ≤ tol · max(1, |b|)`.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}

pub fn all_close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| close(*p, *q, tol))
}
