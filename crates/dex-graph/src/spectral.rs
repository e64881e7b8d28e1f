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
//! Only λ₂ is computed — Theorem 1's guarantee and Cheeger's bounds
//! (Theorem 2) read nothing else — and one solver computes it:
//! [`Lambda2Solver`], matrix-free power iteration on the *lazy* operator
//! `W = (I + P)/2` (spectrum in `[0, 1]`, so no sign games), deflating the
//! known top eigenvector. It scales to the n ~ 10⁴–10⁵ graphs the
//! benchmark harness produces. Kept as a value, it **warm-starts**
//! repeated measurements from the previous eigenvector estimate and reuses
//! its scratch buffers: under churn ("mutate, then re-measure") it
//! converges in a handful of iterations instead of hundreds.
//! [`spectral_gap`] is one cold solve at a fixed setting whose accuracy
//! the tests hold against a dense Jacobi oracle, which is test code only
//! (`tests/common/dense_oracle.rs` in this crate).
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

use crate::adjacency::{Csr, MultiGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The SpMV kernel over one row chunk of the lazy walk operator
/// `(I + P)/2`: `out[k] = 0.5·x[start+k] + 0.5·Σ_row x / deg`.
fn spmv_chunk(csr: &Csr, x: &[f64], start: usize, out: &mut [f64]) {
    for (k, yi) in out.iter_mut().enumerate() {
        let i = start + k;
        let row = csr.row(i);
        let mut acc = 0.0;
        for &j in row {
            acc += x[j as usize];
        }
        *yi = 0.5 * x[i] + 0.5 * acc / row.len() as f64;
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

/// One application of `y = 0.5·x + 0.5·(P x)` over the whole vector, one
/// 4,096-row chunk at a time.
pub fn lazy_spmv(csr: &Csr, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), csr.n());
    assert_eq!(y.len(), csr.n());
    for (c, chunk) in y.chunks_mut(CHUNK).enumerate() {
        spmv_chunk(csr, x, c * CHUNK, chunk);
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
        spmv_chunk(csr, x, start, chunk);
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
///   fast path for "mutate, then re-measure" loops;
/// * **zero steady-state allocation** — π, x, y buffers are reused.
///
/// Results are deterministic for a fixed call sequence.
#[derive(Default)]
pub struct Lambda2Solver {
    x: Vec<f64>,
    y: Vec<f64>,
    pi: Vec<f64>,
    warm: bool,
    /// Power iterations run so far, over every call.
    iters: u64,
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

    /// Work done by every run of this solver so far: the power iterations,
    /// each one lazy mat-vec over the CSR form plus two streaming passes
    /// over the iterate — a deterministic count, the unit a measurement's
    /// cost is stated in.
    pub fn work(&self) -> u64 {
        self.iters
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
            "Lambda2Solver::lambda2 requires min degree >= 1"
        );
        let csr = g.csr();
        self.run(&csr, max_iters, tol, seed)
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
            self.iters += 1;
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
                // x, orthogonal to the top eigenvector, lies in W's kernel:
                // every other eigenvalue of P is −1 (a single edge K₂).
                self.warm = false;
                return -1.0;
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
    assert!(g.min_degree() >= 1, "sweep_cut requires min degree >= 1");
    let csr = g.csr();
    let mut solver = Lambda2Solver::new();
    solver.run(&csr, 3000, 1e-9, 0x5eed);
    let fv = &solver.x;
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

/// Spectral gap `1 − λ₂(P)` of the graph — the quantity Theorem 1 keeps
/// constant (0 when disconnected): one cold [`Lambda2Solver`] run at
/// 100,000 iterations and tolerance 1e-16, for every n.
///
/// Contract: within 1e-10 of the dense Jacobi oracle on every graph the
/// workspace's `tests/spectral_oracle.rs` covers — prime cycles Z(p),
/// bootstrapped and churned networks in both type-2 modes (in its
/// release-mode sweep every prime 11 ≤ p ≤ 251 and every fifth n₀ from 3
/// to 248), and K₂, a triangle, a star and two disjoint cycles — with no
/// solve reaching the cap. A single node has gap 1; a degree-0 node
/// (possible only in degenerate intermediate states) yields a
/// conservative gap of 0.
pub fn spectral_gap(g: &MultiGraph) -> f64 {
    if g.num_nodes() <= 1 {
        return 1.0;
    }
    if g.min_degree() == 0 {
        return 0.0;
    }
    1.0 - Lambda2Solver::new().lambda2(g, 100_000, 1e-16, 0xdecafbad)
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
#[path = "../tests/common/dense_oracle.rs"]
mod dense_oracle;

#[cfg(test)]
mod tests {
    use super::dense_oracle::{eigenvalues, jacobi_eigenvalues};
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
        let eig = eigenvalues(&cycle_graph(n));
        let expect2 = (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!((eig[1] - expect2).abs() < 1e-9, "{eig:?}");
        assert!(
            (eig[eig.len() - 1] - (-1.0)).abs() < 1e-9,
            "even cycle is bipartite"
        );
    }

    #[test]
    fn clique_eigenvalues() {
        // P of K_n: eigenvalue 1 once and −1/(n−1) with multiplicity n−1.
        let n = 9u64;
        let eig = eigenvalues(&clique(n));
        let expect = -1.0 / (n as f64 - 1.0);
        assert!((eig[1] - expect).abs() < 1e-9, "{eig:?}");
        assert!((eig[eig.len() - 1] - expect).abs() < 1e-9);
    }

    #[test]
    fn power_iteration_matches_oracle_on_cycle() {
        let g = cycle_graph(40);
        let dense = eigenvalues(&g)[1];
        let iter2 = Lambda2Solver::new().lambda2(&g, 20000, 1e-13, 7);
        assert!(
            (iter2 - dense).abs() < 1e-4,
            "power {iter2} vs dense {dense}"
        );
    }

    #[test]
    fn power_iteration_matches_oracle_on_pcycle() {
        let g = PCycle::new(101).to_multigraph();
        let dense = eigenvalues(&g)[1];
        let iter2 = Lambda2Solver::new().lambda2(&g, 20000, 1e-13, 11);
        assert!(
            (iter2 - dense).abs() < 1e-4,
            "power {iter2} vs dense {dense}"
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
        let gap = spectral_gap(&g);
        assert!(gap < 1e-9, "disconnected gap must be 0, got {gap}");
    }

    #[test]
    fn self_loops_increase_laziness() {
        // Adding a loop to every vertex of an even cycle destroys
        // bipartiteness: λ_min moves strictly above −1.
        let mut g = cycle_graph(8);
        for i in 0..8 {
            g.add_edge(NodeId(i), NodeId(i));
        }
        let eig = eigenvalues(&g);
        assert!(eig[eig.len() - 1] > -0.9, "{eig:?}");
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
        assert!(spectral_gap(&g) > 0.01);
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
        // The sweep orders nodes by the Fiedler vector; its sparse side
        // is exactly one ring: one bridge edge over a ring's volume.
        let (mut side, phi) = sweep_cut(&g);
        side.sort();
        let ring_a: Vec<NodeId> = (0..6).map(NodeId).collect();
        let ring_b: Vec<NodeId> = (100..106).map(NodeId).collect();
        assert!(side == ring_a || side == ring_b, "side {side:?}");
        assert_eq!(phi, 1.0 / 13.0, "one bridge over vol 2·6 + 1");
    }

    #[test]
    fn singleton_and_degree_zero_guards() {
        let mut g = MultiGraph::new();
        g.add_node(NodeId(0));
        assert_eq!(spectral_gap(&g), 1.0);
        g.add_node(NodeId(1));
        // degree-0 node present
        assert_eq!(spectral_gap(&g), 0.0);
    }

    #[test]
    fn spectral_gap_bits_are_pinned() {
        // `spectral_gap` to the bit on both sides of n = 256 (one solver
        // setting for every n), plus the guards and the two-node case.
        for (p, bits) in [
            (23u64, 0x3fbf_2572_7551_cdd0u64),
            (101, 0x3fa6_8068_85ad_5ba0),
            (257, 0x3fa6_dc53_afdc_3040),
            (499, 0x3fa1_7395_d437_3d00),
        ] {
            let gap = spectral_gap(&PCycle::new(p).to_multigraph());
            assert_eq!(gap.to_bits(), bits, "Z({p}) gap {gap}");
        }
        let mut g = MultiGraph::new();
        g.add_node(NodeId(0));
        assert_eq!(spectral_gap(&g), 1.0, "one node");
        g.add_node(NodeId(1));
        assert_eq!(spectral_gap(&g), 0.0, "a degree-0 node");
        g.add_edge(NodeId(0), NodeId(1));
        assert_eq!(spectral_gap(&g), 2.0, "a single edge: λ₂ = −1");
    }

    // ---- solver engine behaviour ------------------------------------------

    #[test]
    fn fused_iteration_keeps_recorded_bits() {
        // The fused iteration (row SpMV with the deflation numerator
        // folded into the same pass) must return the bits the unfused
        // scalar sequence (separate deflate / Rayleigh quotient / norm
        // passes) returned on cf379e9, the last commit that had it.
        // tol = 0 iterates the 40-step budget in full; at n = 65,537 the
        // 17 chunks also pin the chunk-ordered summation.
        const SCALAR_BITS: u64 = 0x3fee_438f_8416_ee36;
        let g = PCycle::new(65537).to_multigraph();
        let got = Lambda2Solver::new().lambda2(&g, 40, 0.0, 42);
        assert_eq!(got.to_bits(), SCALAR_BITS, "{got}");
    }

    #[test]
    fn warm_start_agrees_with_cold_start_under_churn() {
        let mut g = PCycle::new(499).to_multigraph();
        let mut warm = Lambda2Solver::new();
        let cold0 = Lambda2Solver::new().lambda2(&g, 20000, 1e-12, 9);
        let warm0 = warm.lambda2(&g, 20000, 1e-12, 9);
        assert!((cold0 - warm0).abs() < 1e-6);
        // Perturb edges a little, re-measure: warm result tracks cold.
        let nodes = g.nodes_sorted();
        for w in nodes.windows(2).take(6) {
            g.add_edge(w[0], w[1]);
        }
        let cold1 = Lambda2Solver::new().lambda2(&g, 20000, 1e-12, 9);
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
        let oracle_a = eigenvalues(&a)[1];
        let oracle_b = eigenvalues(&b)[1];
        assert!((la - oracle_a).abs() < 1e-4);
        assert!((lb - oracle_b).abs() < 1e-4);
    }
}
