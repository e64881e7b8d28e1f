//! Spectral machinery: eigenvalues of the random-walk operator,
//! spectral gap, and Cheeger-inequality helpers (paper, Theorem 2).
//!
//! The paper states its guarantee as a *constant spectral gap* `1 − λ` where
//! `λ` is the second-largest eigenvalue (of the normalized adjacency, for
//! regular graphs). The real network is an irregular multigraph, so we work
//! with the random-walk matrix `P = D⁻¹A` (equivalently the symmetric
//! `N = D^{-1/2} A D^{-1/2}`, which has the same spectrum). Conventions
//! match [`crate::MultiGraph`]: a self-loop contributes 1 to both the degree
//! and the diagonal of `A`.
//!
//! Three solvers are provided:
//!
//! * [`jacobi_eigenvalues`] — a dense cyclic Jacobi eigensolver, O(n³) but
//!   exact to machine precision; the oracle for tests and small graphs;
//! * [`power_lambda2`] — matrix-free power iteration on the *lazy* operator
//!   `W = (I + P)/2` (spectrum in `[0, 1]`, so no sign games), deflating the
//!   known top eigenvector; scales to the n ~ 10⁴–10⁵ graphs the benchmark
//!   harness produces;
//! * [`Lambda2Solver`] — the engine behind `power_lambda2`, kept as a value
//!   so repeated measurements **warm-start** from the previous eigenvector
//!   estimate and reuse scratch buffers. Under churn ("mutate, then
//!   re-measure") this converges in a handful of iterations instead of
//!   hundreds, and together with the graph's cached CSR snapshot it is the
//!   fast path the benchmarks exercise.
//!
//! Everything here is sequential. Reductions sum fixed 4,096-element
//! partials in chunk order — the summation order the recorded λ₂ bits
//! (`SCALAR_BITS` in the tests) were produced with, so it is part of the
//! result, not a scheduling detail.
//!
//! The iteration's hot loop is a plain CSR row loop ([`lazy_spmv`]); the
//! reduction that follows each SpMV (the deflation numerator) is folded
//! into the same pass over each chunk. Every caller measures λ₂ at
//! n ≤ 65,537, where `x` stays cache-resident and this loop beat a
//! 4-row-blocked, software-prefetched variant 1.6–2.2× (that variant won
//! only at n ≈ 1M, a size nothing measures).

// Dense linear-algebra kernels read clearer with explicit index loops.
#![allow(clippy::needless_range_loop)]

use crate::adjacency::{Csr, MultiGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Second-largest and smallest eigenvalues of the random-walk matrix `P`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spectrum {
    /// λ₂(P): second largest eigenvalue.
    pub lambda2: f64,
    /// λ_min(P): smallest (possibly negative) eigenvalue.
    pub lambda_min: f64,
}

impl Spectrum {
    /// Spectral gap `1 − λ₂` — the quantity Theorem 1 keeps constant.
    pub fn gap(&self) -> f64 {
        1.0 - self.lambda2
    }
}

/// Dense symmetric normalized adjacency `N = D^{-1/2} A D^{-1/2}` (row-major
/// square matrix). Requires every degree ≥ 1.
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
/// inputs; O(n³) — intended as a test oracle and for n ≤ ~512.
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

/// Exact spectrum of the random-walk matrix via the dense Jacobi oracle.
/// Requires min degree ≥ 1. O(n³).
pub fn dense_spectrum(g: &MultiGraph) -> Spectrum {
    assert!(g.num_nodes() > 0, "empty graph has no spectrum");
    assert!(
        g.min_degree() >= 1,
        "dense_spectrum requires min degree >= 1"
    );
    let mut m = normalized_adjacency_dense(g);
    let eig = jacobi_eigenvalues(&mut m);
    let lambda2 = if eig.len() >= 2 { eig[1] } else { 1.0 };
    let lambda_min = *eig.last().expect("nonempty");
    Spectrum {
        lambda2,
        lambda_min,
    }
}

/// The SpMV kernel over one row chunk: `out[k] = 0.5·x[start+k] +
/// (0.5·sign)·Σ_row x / deg`. `sign = ±1.0` selects the lazy walk
/// operator `(I + P)/2` or its reflection `(I − P)/2`; the multiplication
/// by `0.5·sign` is exact for both values, so the minus path is
/// bit-identical to the historical `0.5·x − 0.5·acc/deg` form.
fn spmv_chunk(csr: &Csr, x: &[f64], start: usize, out: &mut [f64], sign: f64) {
    let h = 0.5 * sign;
    for (k, yi) in out.iter_mut().enumerate() {
        let i = start + k;
        let row = csr.row(i);
        let mut acc = 0.0;
        for &j in row {
            acc += x[j as usize];
        }
        *yi = 0.5 * x[i] + h * acc / row.len() as f64;
    }
}

/// Rows per SpMV block and elements per reduction partial.
const CHUNK: usize = 4096;

/// `Σ partial(lo, hi)` over consecutive [`CHUNK`]-sized index ranges of
/// `0..n`, partials added in chunk order.
fn sum_chunks(n: usize, partial: impl Fn(usize, usize) -> f64) -> f64 {
    (0..n)
        .step_by(CHUNK)
        .map(|lo| partial(lo, (lo + CHUNK).min(n)))
        .sum()
}

/// One application of `y = 0.5·x + sign·0.5·(P x)` over the whole vector,
/// one 4,096-row chunk at a time.
pub fn lazy_spmv(csr: &Csr, x: &[f64], y: &mut [f64], sign: f64) {
    assert_eq!(x.len(), csr.n());
    assert_eq!(y.len(), csr.n());
    for (c, chunk) in y.chunks_mut(CHUNK).enumerate() {
        spmv_chunk(csr, x, c * CHUNK, chunk, sign);
    }
}

/// Fused iteration front half: apply the lazy operator `W = (I + P)/2`
/// *and* fold the deflation numerator `Σ π_i y_i` in the same streaming
/// pass over `y` — one pass instead of a write pass plus a re-read
/// reduction. Per-chunk partials combine in chunk order, so the numerator
/// is bit-identical to [`deflate_top`]'s separate reduction.
fn apply_lazy_fold_num(csr: &Csr, x: &[f64], y: &mut [f64], pi: &[f64]) -> f64 {
    let mut num = 0.0;
    for (c, chunk) in y.chunks_mut(CHUNK).enumerate() {
        let start = c * CHUNK;
        spmv_chunk(csr, x, start, chunk, 1.0);
        let mut acc = 0.0;
        for (k, &v) in chunk.iter().enumerate() {
            acc += pi[start + k] * v;
        }
        num += acc;
    }
    num
}

/// π-weighted dot product `Σ π_i a_i b_i`.
fn dot_pi(pi: &[f64], a: &[f64], b: &[f64]) -> f64 {
    sum_chunks(pi.len(), |lo, hi| {
        let mut acc = 0.0;
        for i in lo..hi {
            acc += pi[i] * a[i] * b[i];
        }
        acc
    })
}

/// π-weighted norm.
fn pi_norm(pi: &[f64], x: &[f64]) -> f64 {
    dot_pi(pi, x, x).sqrt()
}

/// Remove the component along the top eigenvector of `W` (the constant
/// vector, orthogonal in the π-weighted inner product with π ∝ degree).
fn deflate_top(pi: &[f64], x: &mut [f64]) {
    let num = sum_chunks(pi.len(), |lo, hi| {
        let mut acc = 0.0;
        for i in lo..hi {
            acc += pi[i] * x[i];
        }
        acc
    });
    for v in x.iter_mut() {
        *v -= num;
    }
}

/// Reusable deflated power-iteration engine for λ₂ of the lazy walk
/// operator. Holds the iteration vector and scratch across calls:
///
/// * **warm start** — when the graph size matches the previous call, the
///   previous eigenvector estimate seeds the iteration. After a small
///   topology change λ₂'s eigenvector barely moves, so convergence takes a
///   handful of iterations instead of hundreds. This is the measurement
///   fast path for "mutate, then re-measure" loops, and it pairs with
///   [`MultiGraph::csr`]'s incremental snapshot so neither the CSR nor the
///   solver state is rebuilt from scratch;
/// * **zero steady-state allocation** — π, x, y buffers are reused.
///
/// Results are deterministic for a fixed call sequence.
#[derive(Default)]
pub struct Lambda2Solver {
    x: Vec<f64>,
    y: Vec<f64>,
    pi: Vec<f64>,
    warm: bool,
}

impl Lambda2Solver {
    /// Cold solver: the first call seeds its start vector from `seed`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Same as [`Lambda2Solver::new`]; the solver is sequential and the
    /// argument is ignored. Held for `benchmark/`, goes with the next
    /// benchmark PR.
    pub fn with_threads(_threads: usize) -> Self {
        Self::new()
    }

    /// Drop the warm-start state (the next call re-seeds from `seed`).
    pub fn reset(&mut self) {
        self.warm = false;
    }

    /// λ₂(P) by deflated power iteration on the lazy operator. Matrix-free;
    /// O(iters · m). Requires min degree ≥ 1 and a connected graph for a
    /// meaningful answer (on a disconnected graph it converges to λ₂ = 1,
    /// i.e. gap 0, which is the honest signal).
    pub fn lambda2(&mut self, g: &MultiGraph, max_iters: usize, tol: f64, seed: u64) -> f64 {
        assert!(
            g.min_degree() >= 1,
            "power_lambda2 requires min degree >= 1"
        );
        let csr = g.csr();
        self.run(&csr, max_iters, tol, seed)
    }

    /// Approximate Fiedler-style eigenvector for λ₂ (in the graph's sorted
    /// node order), by the same iteration as [`Lambda2Solver::lambda2`].
    pub fn fiedler(&mut self, g: &MultiGraph, max_iters: usize, tol: f64, seed: u64) -> Vec<f64> {
        assert!(g.min_degree() >= 1);
        let csr = g.csr();
        self.run(&csr, max_iters, tol, seed);
        self.x.clone()
    }

    fn run(&mut self, csr: &Csr, max_iters: usize, tol: f64, seed: u64) -> f64 {
        let n = csr.n();
        if n <= 1 {
            self.warm = false;
            self.x.clear();
            return 0.0;
        }

        // Stationary distribution π ∝ degree.
        self.pi.clear();
        self.pi.resize(n, 0.0);
        let deg_sum = sum_chunks(n, |lo, hi| {
            let mut acc = 0.0;
            for i in lo..hi {
                acc += csr.degree(i) as f64;
            }
            acc
        });
        let pi = &mut self.pi;
        for (i, p) in pi.iter_mut().enumerate() {
            *p = csr.degree(i) as f64 / deg_sum;
        }

        // Start vector: previous eigenvector estimate when the size
        // matches (warm start), fresh randomness otherwise.
        if !(self.warm && self.x.len() == n) {
            let mut rng = StdRng::seed_from_u64(seed);
            self.x.clear();
            self.x.extend((0..n).map(|_| rng.random_range(-1.0..1.0)));
        }
        let (x, y) = (&mut self.x, &mut self.y);
        y.clear();
        y.resize(n, 0.0);

        deflate_top(pi, x);
        let mut norm = pi_norm(pi, x);
        if norm < 1e-300 {
            // Degenerate start (fully in the top eigenspace): re-seed once.
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
            for v in x.iter_mut() {
                *v = rng.random_range(-1.0..1.0);
            }
            deflate_top(pi, x);
            norm = pi_norm(pi, x);
            if norm < 1e-300 {
                self.warm = false;
                return 0.0;
            }
        }
        for v in x.iter_mut() {
            *v /= norm;
        }

        let mut prev = f64::NAN;
        let mut prev_delta = f64::NAN;
        let mut prev_extrap = f64::NAN;
        for it in 0..max_iters {
            // One iteration = SpMV + deflate + Rayleigh quotient (in the
            // π inner product: <x, Wx>_π, x is unit) + norm, fused into
            // two streaming passes over y (apply⊕numerator, then
            // subtract⊕rq⊕norm); partials combine in chunk order.
            let num = apply_lazy_fold_num(csr, x, y, pi);
            let (mut rq, mut norm2) = (0.0f64, 0.0f64);
            for (c, chunk) in y.chunks_mut(CHUNK).enumerate() {
                let start = c * CHUNK;
                let (mut rq_c, mut n2_c) = (0.0, 0.0);
                for (k, v) in chunk.iter_mut().enumerate() {
                    let i = start + k;
                    *v -= num;
                    rq_c += pi[i] * x[i] * *v;
                    n2_c += pi[i] * *v * *v;
                }
                rq += rq_c;
                norm2 += n2_c;
            }
            let norm = norm2.sqrt();
            if norm < 1e-300 {
                // x was (numerically) entirely in the top eigenspace.
                self.warm = false;
                return 0.0;
            }
            for (xv, &yv) in x.iter_mut().zip(y.iter()) {
                *xv = yv / norm;
            }
            let delta = rq - prev;
            if it > 16 {
                if delta.abs() < tol {
                    self.warm = true;
                    return (2.0 * rq - 1.0).clamp(-1.0, 1.0);
                }
                // Aitken Δ² acceleration: the Rayleigh quotients converge
                // geometrically, rq_k ≈ λ − c·ρᵏ, so successive deltas
                // estimate ρ and the extrapolated limit
                // λ̂_k = rq_k + Δ_k·ρ/(1−ρ) cancels the leading geometric
                // term. The seed's drift-only criterion iterates until Δ_k
                // itself is below tol — for ρ → 1 (clustered eigenvalues,
                // exactly the p-cycle regime) that is thousands of
                // mat-vecs past the point where λ̂ has stabilized, and the
                // un-extrapolated rq it returns is *less* accurate than λ̂
                // (its remaining error is Δ·ρ/(1−ρ)). Stop when λ̂
                // stabilizes to tol and return it.
                let rho = delta / prev_delta;
                if rho.is_finite() && (1e-6..=0.9999).contains(&rho) {
                    let extrap = rq + delta * rho / (1.0 - rho);
                    if (extrap - prev_extrap).abs() < tol {
                        self.warm = true;
                        return (2.0 * extrap - 1.0).clamp(-1.0, 1.0);
                    }
                    prev_extrap = extrap;
                }
            }
            prev_delta = delta;
            prev = rq;
        }
        self.warm = true;
        (2.0 * prev - 1.0).clamp(-1.0, 1.0)
    }
}

/// λ₂(P) by power iteration with a cold start (fresh solver per call).
/// Keep a [`Lambda2Solver`] instead when measuring the same graph family
/// repeatedly — warm starts are several times faster under churn.
pub fn power_lambda2(g: &MultiGraph, max_iters: usize, tol: f64, seed: u64) -> f64 {
    Lambda2Solver::new().lambda2(g, max_iters, tol, seed)
}

/// λ_min(P) by power iteration on `M = (I − P)/2` (largest eigenvalue of
/// `M` is `(1 − λ_min)/2`).
pub fn power_lambda_min(g: &MultiGraph, max_iters: usize, tol: f64, seed: u64) -> f64 {
    assert!(g.min_degree() >= 1);
    let csr = g.csr();
    let n = csr.n();
    if n <= 1 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let mut x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    let mut y = vec![0.0f64; n];
    let mut prev = f64::NAN;
    let norm0 = sum_chunks(n, |lo, hi| x[lo..hi].iter().map(|v| v * v).sum()).sqrt();
    for v in x.iter_mut() {
        *v /= norm0;
    }
    for it in 0..max_iters {
        // y = (x - P x)/2 — the shared SpMV kernel with sign −1
        // (bit-identical to the historical `0.5·x − 0.5·acc/deg` loop).
        lazy_spmv(&csr, &x, &mut y, -1.0);
        let rq = sum_chunks(n, |lo, hi| {
            let mut acc = 0.0;
            for i in lo..hi {
                acc += x[i] * y[i];
            }
            acc
        });
        let norm = sum_chunks(n, |lo, hi| y[lo..hi].iter().map(|v| v * v).sum()).sqrt();
        if norm < 1e-300 {
            return 1.0; // P x = x for every start: e.g. clique of loops
        }
        for (xv, &yv) in x.iter_mut().zip(&y) {
            *xv = yv / norm;
        }
        if it > 16 && (rq - prev).abs() < tol {
            return (1.0 - 2.0 * rq).clamp(-1.0, 1.0);
        }
        prev = rq;
    }
    (1.0 - 2.0 * prev).clamp(-1.0, 1.0)
}

/// Approximate Fiedler-style vector: the (π-orthogonal-to-constants)
/// eigenvector of the lazy walk operator for λ₂, by the same deflated
/// power iteration as [`power_lambda2`]. Returned in the graph's sorted
/// node order (see [`MultiGraph::dense_index`]). Used for spectral sweep
/// cuts — both for measurement and for the sweep-cut *adversary*.
pub fn fiedler_vector(g: &MultiGraph, max_iters: usize, tol: f64, seed: u64) -> Vec<f64> {
    if g.num_nodes() <= 1 {
        return vec![0.0; g.num_nodes()];
    }
    Lambda2Solver::new().fiedler(g, max_iters, tol, seed)
}

/// Spectral sweep cut: sort nodes by the Fiedler vector, scan prefixes up
/// to half the volume, and return the prefix minimizing the conductance
/// `cut / min(vol, vol̄)`. Returns `(side, conductance)` where `side` is
/// the sparse side's node ids. Cheeger's inequality guarantees the result
/// is within `√(2·gap)` of optimal.
pub fn sweep_cut(g: &MultiGraph) -> (Vec<crate::ids::NodeId>, f64) {
    let n = g.num_nodes();
    if n < 2 {
        return (Vec::new(), f64::INFINITY);
    }
    let fv = fiedler_vector(g, 3000, 1e-9, 0x5eed);
    let csr = g.csr();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| fv[a].partial_cmp(&fv[b]).expect("no NaN"));
    let total_vol: usize = (0..n).map(|i| csr.degree(i)).sum();
    let mut in_prefix = vec![false; n];
    let mut cut = 0i64;
    let mut vol = 0usize;
    let mut best = (f64::INFINITY, 0usize);
    for (k, &i) in order.iter().enumerate().take(n - 1) {
        for &j in csr.row(i) {
            let j = j as usize;
            if j == i {
                continue; // self-loops never cross
            }
            if in_prefix[j] {
                cut -= 1;
            } else {
                cut += 1;
            }
        }
        in_prefix[i] = true;
        vol += csr.degree(i);
        let denom = vol.min(total_vol - vol);
        if denom == 0 {
            continue;
        }
        let phi = cut as f64 / denom as f64;
        if phi < best.0 {
            best = (phi, k + 1);
        }
    }
    let side: Vec<crate::ids::NodeId> = order[..best.1].iter().map(|&i| csr.order[i]).collect();
    (side, best.0)
}

/// Spectrum of the random-walk matrix; picks the dense oracle for
/// `n ≤ 256`, power iteration above. Degree-0 nodes (possible only in
/// degenerate intermediate states) yield a conservative gap of 0.
pub fn spectrum(g: &MultiGraph) -> Spectrum {
    let n = g.num_nodes();
    if n <= 1 {
        return Spectrum {
            lambda2: 0.0,
            lambda_min: 0.0,
        };
    }
    if g.min_degree() == 0 {
        return Spectrum {
            lambda2: 1.0,
            lambda_min: -1.0,
        };
    }
    if n <= 256 {
        dense_spectrum(g)
    } else {
        Spectrum {
            lambda2: power_lambda2(g, 6000, 1e-10, 0xdecafbad),
            lambda_min: power_lambda_min(g, 6000, 1e-10, 0xdecafbad),
        }
    }
}

/// Spectral gap `1 − λ₂(P)` of the graph (0 when disconnected).
pub fn spectral_gap(g: &MultiGraph) -> f64 {
    spectrum(g).gap()
}

/// Cheeger lower bound (Theorem 2, left): `h(G) ≥ (1 − λ)/2`.
pub fn cheeger_lower(gap: f64) -> f64 {
    gap / 2.0
}

/// Cheeger upper bound (Theorem 2, right): `h(G) ≤ √(2(1 − λ))`.
pub fn cheeger_upper(gap: f64) -> f64 {
    (2.0 * gap).sqrt()
}

/// The paper's worst-case floor during staggered type-2 recovery
/// (Lemma 9(b)): gap ≥ (1 − λ)² / 8 where `1 − λ` is the p-cycle family
/// gap.
pub fn staggered_gap_floor(family_gap: f64) -> f64 {
    family_gap * family_gap / 8.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::pcycle::PCycle;

    fn cycle_graph(k: u64) -> MultiGraph {
        let mut g = MultiGraph::new();
        for i in 0..k {
            g.add_node(NodeId(i));
        }
        for i in 0..k {
            g.add_edge(NodeId(i), NodeId((i + 1) % k));
        }
        g
    }

    fn clique(k: u64) -> MultiGraph {
        let mut g = MultiGraph::new();
        for i in 0..k {
            g.add_node(NodeId(i));
        }
        for i in 0..k {
            for j in (i + 1)..k {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
        g
    }

    #[test]
    fn jacobi_on_known_2x2() {
        let mut m = vec![vec![2.0, 1.0], vec![1.0, 2.0]];
        let e = jacobi_eigenvalues(&mut m);
        assert!((e[0] - 3.0).abs() < 1e-10);
        assert!((e[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn cycle_eigenvalues_are_cosines() {
        // P of C_n has eigenvalues cos(2πk/n).
        let n = 12u64;
        let s = dense_spectrum(&cycle_graph(n));
        let expect2 = (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!((s.lambda2 - expect2).abs() < 1e-9, "{s:?}");
        assert!(
            (s.lambda_min - (-1.0)).abs() < 1e-9,
            "even cycle is bipartite"
        );
    }

    #[test]
    fn clique_eigenvalues() {
        // P of K_n: eigenvalue 1 once and −1/(n−1) with multiplicity n−1.
        let n = 9u64;
        let s = dense_spectrum(&clique(n));
        let expect = -1.0 / (n as f64 - 1.0);
        assert!((s.lambda2 - expect).abs() < 1e-9, "{s:?}");
        assert!((s.lambda_min - expect).abs() < 1e-9);
    }

    #[test]
    fn power_iteration_matches_oracle_on_cycle() {
        let g = cycle_graph(40);
        let dense = dense_spectrum(&g);
        let iter2 = power_lambda2(&g, 20000, 1e-13, 7);
        assert!(
            (iter2 - dense.lambda2).abs() < 1e-4,
            "power {iter2} vs dense {}",
            dense.lambda2
        );
        let itmin = power_lambda_min(&g, 20000, 1e-13, 7);
        assert!((itmin - dense.lambda_min).abs() < 1e-4);
    }

    #[test]
    fn power_iteration_matches_oracle_on_pcycle() {
        let g = PCycle::new(101).to_multigraph();
        let dense = dense_spectrum(&g);
        let iter2 = power_lambda2(&g, 20000, 1e-13, 11);
        assert!(
            (iter2 - dense.lambda2).abs() < 1e-4,
            "power {iter2} vs dense {}",
            dense.lambda2
        );
    }

    #[test]
    fn pcycle_family_gap_is_bounded_below() {
        // The p-cycle family has a constant gap; empirically it sits well
        // above 0.01 for all sizes we use. This is experiment E2's floor.
        for p in [23u64, 101, 499, 1009] {
            let g = PCycle::new(p).to_multigraph();
            let gap = spectral_gap(&g);
            assert!(gap > 0.01, "Z({p}) gap {gap}");
        }
    }

    #[test]
    fn disconnected_graph_has_zero_gap() {
        let mut g = cycle_graph(6);
        // merge a disjoint second 6-cycle with shifted ids
        for i in 0..6 {
            g.add_node(NodeId(100 + i));
        }
        for i in 0..6u64 {
            g.add_edge(NodeId(100 + i), NodeId(100 + (i + 1) % 6));
        }
        let s = dense_spectrum(&g);
        assert!(
            s.gap() < 1e-9,
            "disconnected gap must be 0, got {}",
            s.gap()
        );
    }

    #[test]
    fn self_loops_increase_laziness() {
        // Adding a loop to every vertex of an even cycle destroys
        // bipartiteness: λ_min moves strictly above −1.
        let mut g = cycle_graph(8);
        for i in 0..8 {
            g.add_edge(NodeId(i), NodeId(i));
        }
        let s = dense_spectrum(&g);
        assert!(s.lambda_min > -0.9, "{s:?}");
    }

    #[test]
    fn cheeger_sandwich_on_pcycle() {
        let z = PCycle::new(23);
        let g = z.to_multigraph();
        let gap = spectral_gap(&g);
        let h = crate::expansion::edge_expansion(&g).expect("small graph");
        // Theorem 2: (1−λ)/2 ≤ h ≤ √(2(1−λ)) — for the *conductance-style*
        // normalized h. Our h is |E(S,S̄)|/|S| on a 3-regular graph, so
        // normalize by d=3 for the comparison.
        let h_norm = h / 3.0;
        assert!(
            cheeger_lower(gap) / 3.0 <= h_norm + 1e-9,
            "lower {} vs {}",
            cheeger_lower(gap),
            h
        );
        assert!(h_norm <= cheeger_upper(gap) + 1e-9);
    }

    #[test]
    fn spectrum_dispatch_large_graph() {
        let g = PCycle::new(499).to_multigraph();
        let s = spectrum(&g);
        assert!(s.gap() > 0.01);
    }

    #[test]
    fn sweep_cut_finds_the_barbell_bridge() {
        // Two 8-cliques joined by one edge: the sweep must isolate one
        // clique with conductance ≈ 1/vol(K8).
        let mut g = clique(8);
        for i in 100..108u64 {
            g.add_node(NodeId(i));
        }
        for i in 100..108u64 {
            for j in (i + 1)..108 {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
        g.add_edge(NodeId(0), NodeId(100));
        let (side, phi) = sweep_cut(&g);
        assert_eq!(side.len(), 8, "should cut one clique off");
        assert!(phi < 0.03, "conductance {phi}");
        // All of one clique, none of the other.
        let low: Vec<_> = side.iter().filter(|u| u.0 < 100).collect();
        assert!(low.is_empty() || low.len() == 8);
    }

    #[test]
    fn sweep_cut_on_expander_is_not_sparse() {
        let g = PCycle::new(101).to_multigraph();
        let (_, phi) = sweep_cut(&g);
        // Cheeger: φ ≥ gap/2.
        let gap = spectral_gap(&g);
        assert!(phi >= gap / 2.0 - 1e-9, "φ {phi} below Cheeger floor");
    }

    #[test]
    fn fiedler_vector_separates_barbell() {
        let mut g = cycle_graph(6);
        for i in 100..106u64 {
            g.add_node(NodeId(i));
        }
        for i in 100..106u64 {
            let j = if i == 105 { 100 } else { i + 1 };
            g.add_edge(NodeId(i), NodeId(j));
        }
        g.add_edge(NodeId(0), NodeId(100));
        let fv = fiedler_vector(&g, 4000, 1e-12, 3);
        let (order, _) = g.dense_index();
        // Signs should split the two rings.
        let side_a: Vec<bool> = order
            .iter()
            .zip(fv.iter())
            .filter(|(u, _)| u.0 < 100)
            .map(|(_, &v)| v > 0.0)
            .collect();
        assert!(
            side_a.iter().all(|&b| b) || side_a.iter().all(|&b| !b),
            "ring A not on one side of the Fiedler vector"
        );
    }

    #[test]
    fn singleton_and_degree_zero_guards() {
        let mut g = MultiGraph::new();
        g.add_node(NodeId(0));
        assert_eq!(spectrum(&g).gap(), 1.0);
        g.add_node(NodeId(1));
        // degree-0 node present
        assert_eq!(spectrum(&g).gap(), 0.0);
    }

    // ---- solver engine behaviour ------------------------------------------

    #[test]
    fn mlp_solver_is_bitwise_equal_to_scalar_solver() {
        // Full fused iteration (row SpMV + folded numerator) vs the bits
        // the unfused sequence (separate deflate / Rayleigh quotient /
        // norm passes) returned on cf379e9, the last commit that had it;
        // tol = 0 so the budget is iterated in full. With 17 chunks this
        // also pins the chunk-ordered summation.
        const SCALAR_BITS: u64 = 0x3fee_438f_8416_ee36;
        let g = PCycle::new(65537).to_multigraph();
        let got = Lambda2Solver::new().lambda2(&g, 40, 0.0, 42);
        assert_eq!(got.to_bits(), SCALAR_BITS, "{got}");
    }

    #[test]
    fn warm_start_agrees_with_cold_start_under_churn() {
        let mut g = PCycle::new(499).to_multigraph();
        let mut warm = Lambda2Solver::new();
        let cold0 = power_lambda2(&g, 20000, 1e-12, 9);
        let warm0 = warm.lambda2(&g, 20000, 1e-12, 9);
        assert!((cold0 - warm0).abs() < 1e-6);
        // Perturb edges a little, re-measure: warm result tracks cold.
        let nodes = g.nodes_sorted();
        for w in nodes.windows(2).take(6) {
            g.add_edge(w[0], w[1]);
        }
        let cold1 = power_lambda2(&g, 20000, 1e-12, 9);
        let warm1 = warm.lambda2(&g, 20000, 1e-12, 9);
        assert!((cold1 - warm1).abs() < 1e-5, "cold {cold1} vs warm {warm1}");
    }

    #[test]
    fn solver_reuse_across_different_sizes() {
        let mut solver = Lambda2Solver::new();
        let a = PCycle::new(101).to_multigraph();
        let b = PCycle::new(211).to_multigraph();
        let la = solver.lambda2(&a, 20000, 1e-12, 5);
        let lb = solver.lambda2(&b, 20000, 1e-12, 5);
        let oracle_a = dense_spectrum(&a).lambda2;
        let oracle_b = dense_spectrum(&b).lambda2;
        assert!((la - oracle_a).abs() < 1e-4);
        assert!((lb - oracle_b).abs() < 1e-4);
    }
}
