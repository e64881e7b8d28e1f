//! The p-cycle expander family `Z(p)` (paper, Definition 1).
//!
//! For a prime `p`, `Z(p)` has vertex set `Z_p = {0, …, p−1}` and edges
//!
//! 1. cycle edges `{x, x+1 mod p}`,
//! 2. inverse chords `{x, x⁻¹ mod p}` for `x, x⁻¹ > 0`,
//! 3. a self-loop at 0.
//!
//! Vertices 1 and `p−1` are their own inverses, so their chords are
//! self-loops too; every vertex then has degree exactly 3 (self-loops count
//! once, matching [`crate::MultiGraph`] conventions). Lubotzky showed this
//! family has a constant eigenvalue gap, which is what DEX leans on.
//!
//! The [`resize`] submodule holds the pure arithmetic of *inflation*
//! (Eq. 6–7: old vertex `x` becomes the cloud `y₀…y_c(x)` in the larger
//! cycle) and *deflation* (`x ↦ ⌊x/α⌋`), with the bijection/surjection
//! properties of Lemmas 4 and 6 verified by tests.

use crate::adjacency::MultiGraph;
use crate::ids::{NodeId, VertexId};
use crate::primes::{inverse_batch, is_prime, mod_inverse};
use std::ops::Range;

/// The virtual graph `Z(p)` for a prime `p ≥ 5`.
///
/// The structure is implicit (O(1) memory): neighbors and inverses are
/// computed arithmetically, which is exactly what lets every DEX node "know"
/// the whole virtual graph without storing it (paper, Sect. 4.2.1).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PCycle {
    p: u64,
}

impl PCycle {
    /// Build `Z(p)`.
    ///
    /// # Panics
    /// Panics if `p` is not a prime `≥ 5` (smaller primes degenerate: the
    /// cycle and chord edge sets collide) or not below 2³² (vertices are
    /// stored as `u32` by the route search here and by Φ's owner records,
    /// and the chord kernel's Barrett multiplication needs it).
    pub fn new(p: u64) -> Self {
        assert!(p >= 5, "p-cycle needs p >= 5, got {p}");
        assert!(p >> 32 == 0, "p-cycle needs p < 2^32, got {p}");
        assert!(is_prime(p), "p-cycle needs prime p, got {p}");
        PCycle { p }
    }

    /// The prime `p` (also the number of vertices).
    #[inline]
    pub fn p(&self) -> u64 {
        self.p
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.p
    }

    /// Is `z` a vertex of this cycle?
    #[inline]
    pub fn contains(&self, z: VertexId) -> bool {
        z.0 < self.p
    }

    /// Successor on the cycle: `x + 1 mod p`.
    #[inline]
    pub fn succ(&self, z: VertexId) -> VertexId {
        VertexId((z.0 + 1) % self.p)
    }

    /// Predecessor on the cycle: `x − 1 mod p`.
    #[inline]
    pub fn pred(&self, z: VertexId) -> VertexId {
        VertexId((z.0 + self.p - 1) % self.p)
    }

    /// Chord partner: `x⁻¹ mod p` for `x > 0`, and 0 for `x = 0` (the
    /// self-loop of Definition 1). Self-inverse vertices (1 and `p−1`)
    /// return themselves.
    ///
    /// One scalar inversion (≈ 1.5·log₂ p modular multiplications) — for
    /// a handful of vertices. Anything that walks a range, a frontier or
    /// the whole cycle uses [`PCycle::for_each_chord`] or
    /// [`inverse_batch`], which pay three multiplications per vertex.
    #[inline]
    pub fn chord(&self, z: VertexId) -> VertexId {
        if z.0 == 0 {
            VertexId(0)
        } else {
            VertexId(mod_inverse(z.0, self.p))
        }
    }

    /// The three neighbors `[succ, pred, chord]` of `z` (chord may equal
    /// `z` itself for the self-loop vertices 0, 1, `p−1`).
    #[inline]
    pub fn neighbors(&self, z: VertexId) -> [VertexId; 3] {
        [self.succ(z), self.pred(z), self.chord(z)]
    }

    /// Are `a` and `b` adjacent in `Z(p)`? (Self-loops: `adjacent(z, z)` is
    /// true exactly for z ∈ {0, 1, p−1}.)
    pub fn adjacent(&self, a: VertexId, b: VertexId) -> bool {
        self.neighbors(a).contains(&b)
    }

    /// Call `f(x, chord(x))` for every vertex `x` of `range`, ascending —
    /// the block sweep under every full-cycle traversal (fabric
    /// enumeration, edge lists, type-2 permutation workloads, inverse
    /// tables): fixed blocks, one [`inverse_batch`] per block.
    pub fn for_each_chord(&self, range: Range<u64>, mut f: impl FnMut(VertexId, VertexId)) {
        assert!(
            range.end <= self.p,
            "vertex range {range:?} leaves Z({})",
            self.p
        );
        const BLOCK: u64 = 4096;
        let cap = range.end.saturating_sub(range.start).min(BLOCK) as usize;
        let (mut xs, mut inv) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        let mut lo = range.start;
        while lo < range.end {
            let hi = (lo + BLOCK).min(range.end);
            xs.clear();
            xs.extend((lo..hi).map(|x| x as u32));
            inv.resize(xs.len(), 0);
            inverse_batch(self.p, &xs, &mut inv);
            for (&x, &c) in xs.iter().zip(&inv) {
                f(VertexId(x as u64), VertexId(c as u64));
            }
            lo = hi;
        }
    }

    /// `out[i] = chord(zs[i])` for an arbitrary vertex set, by one
    /// [`inverse_batch`] (`out` is cleared first; `scratch` is the kernel's
    /// `u32` workspace, reusable across calls). A deletion's rescuer
    /// inverts the victim's whole `Sim` set this way, once.
    pub fn chords_into(&self, zs: &[VertexId], scratch: &mut Vec<u32>, out: &mut Vec<VertexId>) {
        scratch.clear();
        scratch.extend(zs.iter().map(|z| z.0 as u32));
        scratch.resize(2 * zs.len(), 0);
        let (xs, inv) = scratch.split_at_mut(zs.len());
        inverse_batch(self.p, xs, inv);
        out.clear();
        out.extend(inv.iter().map(|&c| VertexId(c as u64)));
    }

    /// All undirected edges, each exactly once (self-loops included once).
    /// `p` cycle edges, `(p−3)/2` chords, 3 self-loops.
    pub fn edges(&self) -> Vec<(VertexId, VertexId)> {
        let p = self.p;
        let mut out = Vec::with_capacity(p as usize + (p as usize - 3) / 2 + 3);
        for x in 0..p {
            out.push((VertexId(x), VertexId((x + 1) % p)));
        }
        out.push((VertexId(0), VertexId(0)));
        self.for_each_chord(1..p, |x, inv| {
            if inv >= x {
                out.push((x, inv));
            }
        });
        out
    }

    /// Materialize `Z(p)` as a [`MultiGraph`] whose node ids are the raw
    /// vertex values. Used by spectral tests, the Figure-1 harness, and as
    /// the graph the whole-cycle BFS of [`crate::connectivity`] runs on
    /// (distances and diameter in tests).
    pub fn to_multigraph(&self) -> MultiGraph {
        let mut g = MultiGraph::with_capacity(self.p as usize);
        for x in 0..self.p {
            g.add_node(NodeId(x));
        }
        for (a, b) in self.edges() {
            g.add_edge(NodeId(a.0), NodeId(b.0));
        }
        g
    }

    /// Shortest path `from → to` (inclusive) into a caller buffer, by
    /// bidirectional BFS over pooled scratch.
    ///
    /// A full O(p) BFS per route would be ruinous for per-operation
    /// routing (the DHT) at p ≈ 10⁶. Meeting in the middle expands
    /// O(3^(d/2)) ≈ O(√p) vertices instead. An expansion costs its chord
    /// — a modular inversion — and three visited-mark probes. So the
    /// search is level-synchronous and inverts a frontier block at a time
    /// through [`inverse_batch`]; a vertex that was itself reached over a
    /// chord needs no inversion at all (its chord is its parent), and no
    /// vertex probes its own parent. The marks are one byte per vertex,
    /// indexed directly, so succ and pred share the cache line of the
    /// vertex expanded and only the chord's probe is scattered. Every
    /// buffer lives in `scratch`: a warmed-up caller allocates nothing.
    ///
    /// Fully deterministic: frontiers expand in insertion order with the
    /// fixed (succ, pred, chord) neighbor order, sides alternate strictly
    /// starting forward, and the search stops at the first vertex reached
    /// from both sides. That first meeting is a shortest one: as long as
    /// the two balls (radii `d_f`, `d_b`, both complete) are disjoint,
    /// `dist(from, to) > d_f + d_b`, so a meeting found while growing one
    /// of them by a level has length `≥ d_f + d_b + 1`, and it joins a
    /// depth-`d_f + 1` vertex to one of depth `≤ d_b` — length exactly
    /// `d_f + d_b + 1`. Every meeting of that level is therefore equally
    /// short, and the first in expansion order is the one a search that
    /// finishes the level and keeps the earliest minimum would return
    /// (`tests/route_diff.rs` pins path equality against that search).
    /// The path's length always equals the BFS distance; the path itself
    /// may differ from a unidirectional search's — any shortest path is a
    /// valid route (Sect. 4.4).
    ///
    /// # Panics
    /// Panics if `from` or `to` is not a vertex of this cycle.
    pub fn shortest_path_with(
        &self,
        from: VertexId,
        to: VertexId,
        scratch: &mut PathScratch,
        out: &mut Vec<VertexId>,
    ) {
        assert!(
            self.contains(from) && self.contains(to),
            "route {from} -> {to} leaves {self:?}"
        );
        out.clear();
        if from == to {
            out.push(from);
            return;
        }
        let p = self.p as u32;
        let PathScratch {
            marks,
            queues: [fq, bq],
            next,
            xs,
            inv,
            expansions,
            inversions,
        } = scratch;
        marks.begin_search(self.p as usize);
        fq.clear();
        bq.clear();
        for (root, side, queue) in [(from, Side::Fwd, &mut *fq), (to, Side::Bwd, &mut *bq)] {
            marks.visit_or_get(root.0 as u32, side, Via::Root);
            queue.push((root.0 as u32, Via::Root));
        }
        let mut side = Side::Fwd;
        // (last vertex of the expanding side, first vertex of the other).
        let (near, far) = 'search: loop {
            let queue = match side {
                Side::Fwd => &mut *fq,
                Side::Bwd => &mut *bq,
            };
            assert!(!queue.is_empty(), "Z(p) is connected");
            next.clear();
            for block in queue.chunks(FRONTIER_BLOCK) {
                xs.clear();
                xs.extend(block.iter().filter(|e| e.1 != Via::Chord).map(|e| e.0));
                inv.resize(xs.len(), 0);
                inverse_batch(self.p, xs, inv);
                *inversions += xs.len() as u64;
                let mut chords = inv.iter();
                // Reach `v` from the vertex being expanded: true iff the
                // other side already holds it (the meeting).
                let mut reach = |v: u32, how: Via| match marks.visit_or_get(v, side, how) {
                    None => {
                        next.push((v, how));
                        false
                    }
                    Some(holder) => holder != side,
                };
                for &(x, via) in block {
                    *expansions += 1;
                    // The neighbor `x` was discovered from is already
                    // seen on this side: skip it, and with it the
                    // inversion when that neighbor is the chord.
                    let succ = if x + 1 == p { 0 } else { x + 1 };
                    if via != Via::Pred && reach(succ, Via::Succ) {
                        break 'search (x, succ);
                    }
                    let pred = if x == 0 { p - 1 } else { x - 1 };
                    if via != Via::Succ && reach(pred, Via::Pred) {
                        break 'search (x, pred);
                    }
                    if via != Via::Chord {
                        let chord = *chords.next().expect("one inverse per non-chord vertex");
                        if reach(chord, Via::Chord) {
                            break 'search (x, chord);
                        }
                    }
                }
            }
            std::mem::swap(queue, next);
            side = side.other();
        };
        let (fwd_end, bwd_end) = match side {
            Side::Fwd => (near, far),
            Side::Bwd => (far, near),
        };
        // Forward half back to `from`, reversed; then the backward chain.
        self.climb(marks, fwd_end, out);
        out.reverse();
        self.climb(marks, bwd_end, out);
    }

    /// Append `x` and its chain of BFS parents up to the search root.
    /// A parent is recovered from how the vertex was reached; the chord
    /// case pays a scalar inversion, a few per path.
    fn climb(&self, marks: &Marks, mut x: u32, out: &mut Vec<VertexId>) {
        loop {
            out.push(VertexId(x as u64));
            let z = VertexId(x as u64);
            x = match marks.via(x) {
                Via::Root => return,
                Via::Succ => self.pred(z).0 as u32,
                Via::Pred => self.succ(z).0 as u32,
                Via::Chord => self.chord(z).0 as u32,
            };
        }
    }
}

impl std::fmt::Debug for PCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Z({})", self.p)
    }
}

/// Frontier vertices inverted per [`inverse_batch`] call: large enough
/// that the one scalar inversion per batch vanishes, small enough that
/// stopping at the first meeting wastes at most this many inversions.
const FRONTIER_BLOCK: usize = 256;

/// Which search ball a visited vertex belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Fwd = 0,
    Bwd = 1,
}

impl Side {
    fn other(self) -> Side {
        match self {
            Side::Fwd => Side::Bwd,
            Side::Bwd => Side::Fwd,
        }
    }
}

/// How a visited vertex was reached from its BFS parent — which is
/// enough to recover the parent (`pred`, `succ`, `chord` respectively).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    Succ = 0,
    Pred = 1,
    Chord = 2,
    Root = 3,
}

/// Visited marks of one bidirectional search, indexed by vertex: one byte
/// per vertex of the largest cycle searched so far, `visited << 3 |
/// side << 2 | via` (0 = unvisited), plus a log of the vertices marked.
/// Starting a search zeroes exactly the logged entries, so its cost is the
/// O(√p) vertices the previous search visited; a smaller cycle reads a
/// prefix of the array, a larger one grows it.
#[derive(Default)]
struct Marks {
    mark: Vec<u8>,
    touched: Vec<u32>,
}

impl Marks {
    const VISITED: u8 = 1 << 3;
    const SIDE: u8 = 1 << 2;

    /// Forget every mark and make room for the vertices of `Z(p)`.
    fn begin_search(&mut self, p: usize) {
        for &v in &self.touched {
            self.mark[v as usize] = 0;
        }
        self.touched.clear();
        if self.mark.len() < p {
            self.mark.resize(p, 0);
        }
    }

    /// Record `v` as reached on `side` via `via` unless it is already
    /// visited, in which case nothing changes and the side that holds it
    /// is returned.
    #[inline]
    fn visit_or_get(&mut self, v: u32, side: Side, via: Via) -> Option<Side> {
        let m = &mut self.mark[v as usize];
        if *m != 0 {
            return Some(if *m & Self::SIDE == 0 {
                Side::Fwd
            } else {
                Side::Bwd
            });
        }
        *m = Self::VISITED | (side as u8) << 2 | via as u8;
        self.touched.push(v);
        None
    }

    /// How visited vertex `v` was reached.
    fn via(&self, v: u32) -> Via {
        let m = self.mark[v as usize];
        assert!(m & Self::VISITED != 0, "vertex {v} was never visited");
        match m & 3 {
            0 => Via::Succ,
            1 => Via::Pred,
            2 => Via::Chord,
            _ => Via::Root,
        }
    }
}

/// Pooled buffers for [`PCycle::shortest_path_with`] (bidirectional BFS):
/// one visited-mark array for both balls, two frontiers and a staging
/// queue, and the batch-inversion input/output of one frontier block. One
/// instance serves unbounded routing operations — on any mix of cycles —
/// with no steady-state allocation: the buffers keep their high-water
/// capacity across calls. The marks are the one buffer that scales with
/// p: p bytes for the largest cycle searched. A DEX network keeps
/// p < 8n, so that is under 8 B per node, against ≈ 640 B per node for
/// the network itself.
#[derive(Default)]
pub struct PathScratch {
    marks: Marks,
    /// Forward and backward frontier: `(vertex, how it was reached)`.
    queues: [Vec<(u32, Via)>; 2],
    next: Vec<(u32, Via)>,
    xs: Vec<u32>,
    inv: Vec<u32>,
    expansions: u64,
    inversions: u64,
}

impl PathScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Work done by every search on this scratch so far: `(vertices
    /// expanded, modular inversions among them)` — deterministic counts,
    /// the unit a route's cost is stated in.
    pub fn work(&self) -> (u64, u64) {
        (self.expansions, self.inversions)
    }
}

/// Pure arithmetic of p-cycle inflation and deflation (paper Eq. 6–8 and
/// Sect. 4.2.2). All functions are total and deterministic; the protocol
/// crates call these to compute clouds locally.
pub mod resize {
    /// `⌈a·x / b⌉` in integer arithmetic (no floats — the paper's `α = p₊/p`
    /// is rational and float rounding would break the bijection proofs).
    #[inline]
    fn ceil_mul_div(x: u64, a: u64, b: u64) -> u64 {
        ((x as u128) * (a as u128)).div_ceil(b as u128) as u64
    }

    /// `⌊a·x / b⌋` in integer arithmetic.
    #[inline]
    fn floor_mul_div(x: u64, a: u64, b: u64) -> u64 {
        (((x as u128) * (a as u128)) / (b as u128)) as u64
    }

    /// Inflation cloud size helper `c(x) = ⌈α(x+1)⌉ − ⌈αx⌉ − 1` (Eq. 6)
    /// where `α = p_new / p_old`.
    pub fn inflation_c(x: u64, p_old: u64, p_new: u64) -> u64 {
        ceil_mul_div(x + 1, p_new, p_old) - ceil_mul_div(x, p_new, p_old) - 1
    }

    /// The inflation cloud of old vertex `x`: new vertices
    /// `y_j = (⌈αx⌉ + j) mod p_new` for `0 ≤ j ≤ c(x)` (Eq. 7).
    ///
    /// Lemma 4(b): over all `x ∈ Z_{p_old}` these clouds partition
    /// `Z_{p_new}` (a bijection between ⋃ clouds and `Z_{p_new}`), with
    /// cloud size ≤ ζ = 8 because `α < 8`.
    pub fn inflation_cloud(x: u64, p_old: u64, p_new: u64) -> Vec<u64> {
        let (base, len) = inflation_cloud_range(x, p_old, p_new);
        (0..len).map(|j| (base + j) % p_new).collect()
    }

    /// The cloud of `x` as a contiguous `(start, len)` range — clouds are
    /// the consecutive intervals `[⌈αx⌉, ⌈α(x+1)⌉)` partitioning
    /// `[0, p_new)`, so no wraparound occurs. The allocation-free form the
    /// type-2 rebuild consumes (`VirtualMapping::assign_run`).
    pub fn inflation_cloud_range(x: u64, p_old: u64, p_new: u64) -> (u64, u64) {
        let base = ceil_mul_div(x, p_new, p_old);
        let c = inflation_c(x, p_old, p_new);
        debug_assert!(base + c < p_new, "cloud of {x} wraps");
        (base, c + 1)
    }

    /// Inverse of [`inflation_cloud`]: the old vertex whose cloud contains
    /// new vertex `y`. Clouds are the consecutive ranges
    /// `[⌈αx⌉, ⌈α(x+1)⌉)`, so the source is `⌊y·p_old/p_new⌋` (the
    /// boundary case `y = αx` cannot occur for coprime primes unless
    /// `x = 0`, where the formula is still right).
    pub fn inflation_source(y: u64, p_old: u64, p_new: u64) -> u64 {
        floor_mul_div(y, p_old, p_new)
    }

    /// Deflation image `y_x = ⌊x / α⌋ = ⌊x · p_new / p_old⌋` with
    /// `α = p_old / p_new` (Sect. 4.2.2).
    pub fn deflation_image(x: u64, p_old: u64, p_new: u64) -> u64 {
        floor_mul_div(x, p_new, p_old)
    }

    /// Is old vertex `x` *dominating*, i.e. the smallest preimage of its
    /// deflation image? Dominating vertices are the ones that survive into
    /// the smaller cycle (the node simulating one is guaranteed a vertex).
    pub fn is_dominating(x: u64, p_old: u64, p_new: u64) -> bool {
        x == 0 || deflation_image(x - 1, p_old, p_new) != deflation_image(x, p_old, p_new)
    }

    /// The deflation cloud (preimage) of new vertex `y`: the contiguous old
    /// vertices `x` with `⌊x/α⌋ = y`, i.e. `⌈yα⌉ ≤ x < ⌈(y+1)α⌉` clipped to
    /// `Z_{p_old}`.
    pub fn deflation_cloud(y: u64, p_old: u64, p_new: u64) -> std::ops::Range<u64> {
        let lo = ceil_mul_div(y, p_old, p_new);
        let hi = ceil_mul_div(y + 1, p_old, p_new).min(p_old);
        lo..hi
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::primes::{deflation_prime, inflation_prime};

        #[test]
        fn inflation_clouds_partition_new_cycle() {
            for p_old in [5u64, 23, 37, 101] {
                let p_new = inflation_prime(p_old);
                let mut seen = vec![false; p_new as usize];
                let mut max_cloud = 0;
                for x in 0..p_old {
                    let cloud = inflation_cloud(x, p_old, p_new);
                    assert!(!cloud.is_empty());
                    max_cloud = max_cloud.max(cloud.len());
                    for y in cloud {
                        assert!(
                            !seen[y as usize],
                            "vertex {y} generated twice (p {p_old}->{p_new})"
                        );
                        seen[y as usize] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "not surjective onto Z_{p_new}");
                assert!(max_cloud <= 8, "cloud size {max_cloud} exceeds ζ=8");
            }
        }

        #[test]
        fn inflation_source_inverts_cloud() {
            for p_old in [5u64, 23, 101] {
                let p_new = inflation_prime(p_old);
                for x in 0..p_old {
                    for y in inflation_cloud(x, p_old, p_new) {
                        assert_eq!(
                            inflation_source(y, p_old, p_new),
                            x,
                            "y={y} p {p_old}->{p_new}"
                        );
                    }
                }
            }
        }

        #[test]
        fn inflation_cloud_is_contiguous_mod_p() {
            let (p_old, p_new) = (23u64, inflation_prime(23));
            for x in 0..p_old {
                let cloud = inflation_cloud(x, p_old, p_new);
                for w in cloud.windows(2) {
                    assert_eq!((w[0] + 1) % p_new, w[1]);
                }
            }
        }

        #[test]
        fn deflation_surjective_with_unique_dominators() {
            for p_old in [101u64, 499, 1009] {
                let p_new = deflation_prime(p_old).unwrap();
                let mut dominated = vec![0usize; p_new as usize];
                for x in 0..p_old {
                    if is_dominating(x, p_old, p_new) {
                        dominated[deflation_image(x, p_old, p_new) as usize] += 1;
                    }
                }
                assert!(
                    dominated.iter().all(|&c| c == 1),
                    "each new vertex needs exactly one dominator"
                );
            }
        }

        #[test]
        fn deflation_clouds_cover_old_cycle() {
            let p_old = 499u64;
            let p_new = deflation_prime(p_old).unwrap();
            let mut covered = vec![false; p_old as usize];
            let mut max_cloud = 0usize;
            for y in 0..p_new {
                let r = deflation_cloud(y, p_old, p_new);
                max_cloud = max_cloud.max((r.end - r.start) as usize);
                for x in r {
                    assert!(!covered[x as usize]);
                    covered[x as usize] = true;
                    assert_eq!(deflation_image(x, p_old, p_new), y);
                }
            }
            assert!(covered.iter().all(|&c| c));
            // α = p_old/p_new < 8 ⇒ preimages have ≤ 8 elements.
            assert!(max_cloud <= 8, "deflation cloud {max_cloud} > 8");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{bfs_distances, diameter};

    #[test]
    fn every_vertex_has_degree_three() {
        for p in [5u64, 7, 23, 101] {
            let g = PCycle::new(p).to_multigraph();
            for u in g.nodes() {
                assert_eq!(g.degree(u), 3, "vertex {u} of Z({p})");
            }
            g.validate().unwrap();
        }
    }

    #[test]
    fn edge_count_formula() {
        for p in [5u64, 23, 101] {
            let z = PCycle::new(p);
            // p cycle edges + (p-3)/2 chords + 3 self-loops
            let expected = p as usize + (p as usize - 3) / 2 + 3;
            assert_eq!(z.edges().len(), expected);
            assert_eq!(z.to_multigraph().num_edges(), expected);
        }
    }

    #[test]
    fn self_loops_exactly_at_0_1_pm1() {
        let p = 23u64;
        let z = PCycle::new(p);
        for x in 0..p {
            let v = VertexId(x);
            let has_loop = z.adjacent(v, v);
            let expect = x == 0 || x == 1 || x == p - 1;
            assert_eq!(has_loop, expect, "vertex {x}");
        }
    }

    #[test]
    fn figure1_23_cycle_chords() {
        // Sanity against Figure 1: in Z(23), 2·12 = 24 ≡ 1, so 2 ↔ 12.
        let z = PCycle::new(23);
        assert_eq!(z.chord(VertexId(2)), VertexId(12));
        assert_eq!(z.chord(VertexId(12)), VertexId(2));
        assert!(z.adjacent(VertexId(2), VertexId(12)));
        assert_eq!(z.chord(VertexId(5)), VertexId(14)); // 5·14 = 70 = 3·23+1
    }

    #[test]
    fn neighbors_symmetric() {
        let z = PCycle::new(37);
        for x in 0..37 {
            let v = VertexId(x);
            for w in z.neighbors(v) {
                assert!(z.adjacent(w, v), "asymmetric adjacency {v} {w}");
            }
        }
    }

    #[test]
    fn bfs_and_paths() {
        let z = PCycle::new(23);
        let d = bfs_distances(&z.to_multigraph(), NodeId(0));
        assert_eq!(d[&NodeId(0)], 0);
        assert_eq!(d[&NodeId(1)], 1);
        assert_eq!(d[&NodeId(22)], 1);
        let mut path = Vec::new();
        z.shortest_path_with(VertexId(7), VertexId(0), &mut PathScratch::new(), &mut path);
        assert_eq!(*path.first().unwrap(), VertexId(7));
        assert_eq!(*path.last().unwrap(), VertexId(0));
        assert_eq!(path.len() as u32 - 1, d[&NodeId(7)]);
        // every consecutive pair is an edge
        for w in path.windows(2) {
            assert!(z.adjacent(w[0], w[1]));
        }
    }

    #[test]
    fn diameter_is_logarithmic() {
        // Expander: diameter should be O(log p). Spot-check concrete values.
        for (p, bound) in [(23u64, 6), (101, 10), (499, 14)] {
            let d = diameter(&PCycle::new(p).to_multigraph()).expect("Z(p) is connected");
            assert!(d <= bound, "diam Z({p}) = {d}");
        }
    }

    #[test]
    #[should_panic(expected = "prime")]
    fn rejects_composite() {
        PCycle::new(21);
    }

    #[test]
    #[should_panic(expected = "p < 2^32")]
    fn rejects_primes_that_do_not_fit_u32() {
        PCycle::new(4_294_967_311);
    }

    #[test]
    fn block_sweep_matches_scalar_chords() {
        // 20011 spans several sweep blocks; ranges start and end off the
        // block grid, and may be empty.
        let z = PCycle::new(20_011);
        for range in [0..20_011u64, 1..20_011, 4_095..4_097, 8_192..12_289, 77..77] {
            let mut want = range.clone();
            z.for_each_chord(range.clone(), |x, c| {
                assert_eq!(Some(x.0), want.next(), "ascending, each once ({range:?})");
                assert_eq!(c, z.chord(x));
            });
            assert_eq!(want.next(), None, "{range:?} swept short");
        }
    }

    #[test]
    fn begin_search_clears_exactly_the_previous_marks() {
        // Large, small (a prefix of the same array), large again: after
        // each search the only nonzero marks are the ones it logged, and
        // the warm scratch routes as a cold one does.
        let mut warm = PathScratch::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (p, a, b) in [
            (2_000_003u64, 5u64, 1_234_567u64),
            (101, 3, 77),
            (2_000_003, 999_999, 17),
        ] {
            let z = PCycle::new(p);
            z.shortest_path_with(VertexId(a), VertexId(b), &mut warm, &mut got);
            z.shortest_path_with(VertexId(a), VertexId(b), &mut PathScratch::new(), &mut want);
            assert_eq!(got, want, "{a}->{b} on Z({p})");
            let Marks { mark, touched } = &warm.marks;
            assert_eq!(mark.len(), 2_000_003, "sized to the largest cycle");
            let mut logged = vec![false; mark.len()];
            for &v in touched {
                assert_ne!(mark[v as usize], 0, "logged vertex {v} unmarked");
                logged[v as usize] = true;
            }
            for (v, (&m, &l)) in mark.iter().zip(&logged).enumerate() {
                assert!(l || m == 0, "stale mark {m:#x} at {v} after Z({p})");
            }
        }
    }

    #[test]
    fn bidirectional_path_is_shortest_and_allocation_pooled() {
        let mut scratch = PathScratch::new();
        let mut out = Vec::new();
        for p in [5u64, 101, 499] {
            let z = PCycle::new(p);
            let g = z.to_multigraph();
            for a in 0..p.min(40) {
                let dist = bfs_distances(&g, NodeId(a));
                for b in [0, 1, p - 1, (a * 7 + 3) % p, p / 2] {
                    let want = dist[&NodeId(b)];
                    let (a, b) = (VertexId(a), VertexId(b));
                    z.shortest_path_with(a, b, &mut scratch, &mut out);
                    assert_eq!(out.first(), Some(&a), "{a}->{b} on Z({p})");
                    assert_eq!(out.last(), Some(&b));
                    assert_eq!(
                        out.len() as u32 - 1,
                        want,
                        "{a}->{b} on Z({p}) not shortest"
                    );
                    for w in out.windows(2) {
                        assert!(z.adjacent(w[0], w[1]), "non-edge step {w:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn bidirectional_path_is_deterministic() {
        let z = PCycle::new(499);
        let mut s1 = PathScratch::new();
        let mut s2 = PathScratch::new();
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        // A warm scratch (s1 reused) and a cold one must agree.
        z.shortest_path_with(VertexId(3), VertexId(404), &mut s1, &mut o1);
        for (a, b) in [(17u64, 481u64), (3, 404), (0, 250)] {
            z.shortest_path_with(VertexId(a), VertexId(b), &mut s1, &mut o1);
            z.shortest_path_with(VertexId(a), VertexId(b), &mut s2, &mut o2);
            assert_eq!(o1, o2, "{a}->{b}");
        }
    }
}
