//! The dense spectral oracle: every eigenvalue of the random-walk
//! operator by cyclic Jacobi rotations, O(n³). Test scaffolding only —
//! the unit tests of `spectral.rs` and the workspace's
//! `tests/spectral_oracle.rs` include this file by path and hold the
//! shipped solver to it. The includer brings `MultiGraph` into scope.

// Dense linear-algebra kernels read clearer with explicit index loops.
#![allow(clippy::needless_range_loop)]

use super::MultiGraph;

/// Dense symmetric normalized adjacency `N = D^{-1/2} A D^{-1/2}` (row-major
/// square matrix), which has the spectrum of `P = D⁻¹A`. Requires every
/// degree ≥ 1.
pub fn normalized_adjacency_dense(g: &MultiGraph) -> Vec<Vec<f64>> {
    let csr = g.csr();
    let n = csr.n();
    let mut m = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        let di = csr.degree(i) as f64;
        for &j in csr.row(i) {
            let dj = csr.degree(j as usize) as f64;
            m[i][j as usize] += 1.0 / (di * dj).sqrt();
        }
    }
    m
}

/// All eigenvalues of a dense symmetric matrix by cyclic Jacobi rotations,
/// sorted descending. Destroys `a`. Exact to ~1e-12 for well-conditioned
/// inputs; O(n³).
pub fn jacobi_eigenvalues(a: &mut [Vec<f64>]) -> Vec<f64> {
    let n = a.len();
    if n == 0 {
        return Vec::new();
    }
    for (i, row) in a.iter().enumerate() {
        assert_eq!(row.len(), n, "matrix must be square");
        for j in 0..n {
            debug_assert!(
                (row[j] - a[j][i]).abs() < 1e-9,
                "matrix must be symmetric at ({i},{j})"
            );
        }
    }
    let max_sweeps = 64;
    for _sweep in 0..max_sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[i][j] * a[i][j];
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p][q];
                if apq.abs() < 1e-15 {
                    continue;
                }
                let app = a[p][p];
                let aqq = a[q][q];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable computation of tan of the rotation angle.
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply rotation J(p,q,θ)ᵀ A J(p,q,θ).
                for k in 0..n {
                    let akp = a[k][p];
                    let akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
            }
        }
    }
    let mut eig: Vec<f64> = (0..n).map(|i| a[i][i]).collect();
    eig.sort_by(|x, y| y.partial_cmp(x).expect("NaN eigenvalue"));
    eig
}

/// The random-walk spectrum of `g`, descending.
pub fn eigenvalues(g: &MultiGraph) -> Vec<f64> {
    jacobi_eigenvalues(&mut normalized_adjacency_dense(g))
}
