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
//! The [`resize`] submodule holds the arithmetic of *inflation* (Eq. 6–7:
//! old vertex `x` becomes the cloud `y₀…y_c(x)` in the larger cycle) and
//! *deflation* (`x ↦ ⌊x/α⌋`) as one [`resize::Plan`], with the
//! bijection/surjection properties of Lemmas 4 and 6 verified by tests.

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
    /// The smallest prime a p-cycle is built on.
    pub const MIN_P: u64 = 5;

    /// Build `Z(p)`.
    ///
    /// # Panics
    /// Panics if `p` is not a prime `≥ 5` (smaller primes degenerate: the
    /// cycle and chord edge sets collide) or not below 2³² (vertices are
    /// stored as `u32` by the route search here and by Φ's owner records,
    /// and the chord kernel's Barrett multiplication needs it).
    pub fn new(p: u64) -> Self {
        assert!(p >= Self::MIN_P, "p-cycle needs p >= 5, got {p}");
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
    /// a handful of vertices. Anything that walks a range or the whole
    /// cycle uses [`PCycle::for_each_chord`] or [`inverse_batch`], which
    /// pay three multiplications per vertex; the route search reads a
    /// table that one such sweep builds.
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

    /// Shortest path `from → to` (inclusive) into a caller buffer: the
    /// one-root case of [`PCycle::shortest_path_from_any`].
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
        self.shortest_path_from_any(&[from], to, scratch, out)
    }

    /// A shortest path from the nearest of `roots` to `to` (inclusive:
    /// it starts at that root and ends at `to`) into a caller buffer, by
    /// multi-source bidirectional BFS over pooled scratch. A DHT
    /// initiator passes its whole `Sim` set: it knows p and which
    /// vertices it simulates, so starting from the one nearest `h(k)`
    /// costs only local computation (Sect. 4.4.4).
    ///
    /// A full O(p) BFS per route would be ruinous for per-operation
    /// routing (the DHT) at p ≈ 10⁶. Meeting in the middle expands
    /// O(3^(d/2)) ≈ O(√p) vertices instead. Expanding a vertex probes the
    /// visited marks of its neighbours except the parent it was reached
    /// from (so two probes, three at a root). So the search is
    /// level-synchronous, and a level is held as three plain vertex
    /// lists, one per probe: a vertex reached via succ
    /// goes on the succ and chord lists, via pred on pred and chord, via
    /// chord on succ and pred. A level runs the succ list, then the pred
    /// list, then the chord list — no per-vertex dispatch on how it was
    /// reached. A chord is read from `scratch`'s chord table
    /// (`x⁻¹ mod p` for every vertex, built by one [`inverse_batch`]
    /// sweep the first time the scratch searches a cycle of a new p), so
    /// a search inverts nothing. The marks are one byte per vertex,
    /// indexed directly and stamped with the search's epoch, so a succ or
    /// pred probe lands on the cache line of the vertex expanded, only
    /// the chord's table read and probe are scattered, and no search
    /// clears what the last one marked. Every buffer lives in `scratch`:
    /// a warmed-up caller allocates nothing.
    ///
    /// Fully deterministic: the forward frontier starts as `roots` in the
    /// given order (duplicates once), each list keeps discovery order, a
    /// level runs all succ probes, then all pred probes, then all chord
    /// probes, the side with the smaller frontier (in vertices) expands
    /// the next level (the forward one on a tie), and the search stops at
    /// the first vertex reached from both sides. That first meeting is a
    /// shortest one: as long as the two
    /// balls — radius `d_f` around the root set, `d_b` around `to`, both
    /// complete — are disjoint, every root is more than `d_f + d_b` from
    /// `to`, so a meeting found while growing one of them by a level (say
    /// the forward one) has length `≥ d_f + d_b + 1`, and it joins a
    /// depth-`d_f + 1` vertex to one of depth `≤ d_b` — length exactly
    /// `d_f + d_b + 1`. Every meeting of that level is therefore equally
    /// short, whatever order the level's probes run in, and the first in
    /// probe order is the one a search that finishes the level and keeps
    /// the earliest minimum would return (`tests/route_diff.rs` pins path
    /// equality against that search).
    /// The path's length always equals the BFS distance from the nearest
    /// root; the path itself may differ from a unidirectional search's —
    /// any shortest path is a valid route (Sect. 4.4).
    ///
    /// # Panics
    /// Panics if `roots` is empty or a root or `to` is not a vertex of
    /// this cycle.
    pub fn shortest_path_from_any(
        &self,
        roots: &[VertexId],
        to: VertexId,
        scratch: &mut PathScratch,
        out: &mut Vec<VertexId>,
    ) {
        assert!(!roots.is_empty(), "route to {to} has no root");
        for &from in roots {
            assert!(
                self.contains(from) && self.contains(to),
                "route {from} -> {to} leaves {self:?}"
            );
        }
        out.clear();
        if roots.contains(&to) {
            out.push(to);
            return;
        }
        let p = self.p as u32;
        let PathScratch {
            marks,
            chords: table,
            frontiers: [fwd, bwd],
            next,
            probes,
            chord_lookups,
        } = scratch;
        let inv = table.of(self);
        marks.begin_search(self.p as usize);
        let mut stamp = marks.stamp();
        fwd.reset(roots.len());
        for root in roots {
            let r = root.0 as u32;
            if stamp.visit_or_get(r, Side::Fwd, Via::Root).is_none() {
                fwd.push_root(r);
            }
        }
        stamp.visit_or_get(to.0 as u32, Side::Bwd, Via::Root);
        bwd.reset(1);
        bwd.push_root(to.0 as u32);
        let (mut n_probes, mut n_lookups) = (0u64, 0u64);
        // (expanding side, its last vertex, the other side's first vertex).
        let (side, near, far) = 'search: loop {
            let (side, frontier) = if fwd.len <= bwd.len {
                (Side::Fwd, &mut *fwd)
            } else {
                (Side::Bwd, &mut *bwd)
            };
            assert!(frontier.len > 0, "Z(p) is connected");
            // A level probes each list entry once and adds at most one
            // entry per probe to each list of the next: size them first,
            // then append through plain slices and local lengths.
            let [succs, preds, chords] = frontier.lists();
            next.reset(succs.len() + preds.len() + chords.len());
            let [to_succ, to_pred, to_chord] = &mut next.lists;
            let [mut n_succ, mut n_pred, mut n_chord] = [0usize; 3];
            // Reach `v` from the vertex being expanded: true iff the
            // other side already holds it (the meeting). A new vertex
            // goes on the lists of the two probes that do not lead back
            // to its parent.
            let mut reach = |v: u32, how: Via| {
                n_probes += 1;
                match stamp.visit_or_get(v, side, how) {
                    None => {
                        if how != Via::Pred {
                            to_succ[n_succ] = v;
                            n_succ += 1;
                        }
                        if how != Via::Succ {
                            to_pred[n_pred] = v;
                            n_pred += 1;
                        }
                        if how != Via::Chord {
                            to_chord[n_chord] = v;
                            n_chord += 1;
                        }
                        false
                    }
                    Some(holder) => holder != side,
                }
            };
            for &x in succs {
                let succ = if x + 1 == p { 0 } else { x + 1 };
                if reach(succ, Via::Succ) {
                    break 'search (side, x, succ);
                }
            }
            for &x in preds {
                let pred = if x == 0 { p - 1 } else { x - 1 };
                if reach(pred, Via::Pred) {
                    break 'search (side, x, pred);
                }
            }
            for &x in chords {
                let chord = inv[x as usize];
                n_lookups += 1;
                if reach(chord, Via::Chord) {
                    break 'search (side, x, chord);
                }
            }
            next.lens = [n_succ, n_pred, n_chord];
            // Each vertex of a level past the roots is on two lists.
            next.len = (n_succ + n_pred + n_chord) / 2;
            std::mem::swap(frontier, next);
        };
        *probes += n_probes;
        *chord_lookups += n_lookups;
        let (fwd_end, bwd_end) = match side {
            Side::Fwd => (near, far),
            Side::Bwd => (far, near),
        };
        // Forward half back to its root, reversed; then the backward chain.
        self.climb(marks, inv, fwd_end, out);
        out.reverse();
        self.climb(marks, inv, bwd_end, out);
    }

    /// Append `x` and its chain of BFS parents up to the search root.
    /// A parent is recovered from how the vertex was reached; the chord
    /// case reads the chord table `inv`.
    fn climb(&self, marks: &Marks, inv: &[u32], mut x: u32, out: &mut Vec<VertexId>) {
        loop {
            out.push(VertexId(x as u64));
            let z = VertexId(x as u64);
            x = match marks.via(x) {
                Via::Root => return,
                Via::Succ => self.pred(z).0 as u32,
                Via::Pred => self.succ(z).0 as u32,
                Via::Chord => inv[x as usize],
            };
        }
    }
}

impl std::fmt::Debug for PCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Z({})", self.p)
    }
}

/// Which search ball a visited vertex belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Fwd = 0,
    Bwd = 1,
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
/// per vertex of the largest cycle searched so far, `epoch << 3 | side << 2
/// | via`. A mark counts only if its epoch is the current search's, so
/// starting a search is one increment; the 5-bit epoch runs 1..=31, and
/// when it would wrap the whole array is zeroed — once every 31 searches.
/// A smaller cycle reads a prefix of the array, a larger one grows it
/// with zeros (never visited).
#[derive(Default)]
struct Marks {
    mark: Vec<u8>,
    /// Stamp of the current search (0 before the first one).
    epoch: u8,
}

impl Marks {
    const EPOCH_SHIFT: u32 = 3;
    const MAX_EPOCH: u8 = 31;
    const SIDE: u8 = 1 << 2;

    /// Forget every mark and make room for the vertices of `Z(p)`.
    fn begin_search(&mut self, p: usize) {
        if self.epoch == Self::MAX_EPOCH {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.mark.len() < p {
            self.mark.resize(p, 0);
        }
    }

    /// The current search's view of the marks.
    fn stamp(&mut self) -> Stamp<'_> {
        Stamp {
            mark: &mut self.mark,
            epoch: self.epoch,
        }
    }

    /// How `v`, visited by this search, was reached.
    fn via(&self, v: u32) -> Via {
        let m = self.mark[v as usize];
        assert!(
            m >> Self::EPOCH_SHIFT == self.epoch,
            "vertex {v} was never visited"
        );
        match m & 3 {
            0 => Via::Succ,
            1 => Via::Pred,
            2 => Via::Chord,
            _ => Via::Root,
        }
    }
}

/// The marks as a slice and the current epoch, held in locals by the
/// probe loop: a mark store is a byte store, which the compiler must
/// assume may overwrite any field it would otherwise reload.
struct Stamp<'a> {
    mark: &'a mut [u8],
    epoch: u8,
}

impl Stamp<'_> {
    /// Record `v` as reached on `side` via `via` unless this search has
    /// already visited it, in which case nothing changes and the side that
    /// holds it is returned.
    #[inline]
    fn visit_or_get(&mut self, v: u32, side: Side, via: Via) -> Option<Side> {
        let m = &mut self.mark[v as usize];
        if *m >> Marks::EPOCH_SHIFT == self.epoch {
            return Some(if *m & Marks::SIDE == 0 {
                Side::Fwd
            } else {
                Side::Bwd
            });
        }
        *m = self.epoch << Marks::EPOCH_SHIFT | (side as u8) << 2 | via as u8;
        None
    }
}

/// Every chord of the cycle last searched: `inv[x] = x⁻¹ mod p`, and
/// `0 ↦ 0`. A cache of a function each node computes locally
/// (Sect. 4.2.1), not per-node state. Built when a search meets a new p
/// by one [`inverse_batch`] block sweep over the lower half of the cycle,
/// written in place, and mirrored into the upper half, as
/// `(p − x)⁻¹ = p − x⁻¹`. The vector keeps the capacity of the largest p
/// seen.
#[derive(Default)]
struct ChordTable {
    /// The prime `inv` holds the chords of (0 before the first search).
    p: u64,
    inv: Vec<u32>,
}

impl ChordTable {
    /// Vertices per [`inverse_batch`] call of a build.
    const BLOCK: usize = 4096;

    /// The chords of `cycle`, built first if the table holds another p.
    fn of(&mut self, cycle: &PCycle) -> &[u32] {
        let p = cycle.p as u32;
        if self.p != cycle.p {
            self.inv.clear();
            self.inv.resize(p as usize, 0);
            // p is odd: 0..=half below, half + 1..p their mirror images.
            let half = (p / 2) as usize;
            let (lower, upper) = self.inv.split_at_mut(half + 1);
            let mut xs = [0u32; Self::BLOCK];
            for (i, out) in lower.chunks_mut(Self::BLOCK).enumerate() {
                let xs = &mut xs[..out.len()];
                for (j, x) in xs.iter_mut().enumerate() {
                    *x = (i * Self::BLOCK + j) as u32;
                }
                inverse_batch(cycle.p, xs, out);
            }
            for (y, &x_inv) in upper.iter_mut().zip(lower[1..].iter().rev()) {
                *y = p - x_inv;
            }
            self.p = cycle.p;
        }
        &self.inv
    }
}

/// Pooled buffers for [`PCycle::shortest_path_from_any`] (multi-source
/// bidirectional BFS): one epoch-stamped visited-mark array for both
/// balls, the chord table of the cycle searched, and each side's
/// frontier and the level being discovered as three vertex lists each.
/// One instance serves unbounded
/// routing operations — on any mix of cycles — with no steady-state
/// allocation: the buffers keep their high-water capacity across calls,
/// and only a change of p rebuilds the chord table (≈ 5 ms at
/// p = 2,000,003 on a 2-CPU Xeon).
/// Two buffers scale with p: the marks, p bytes for the largest cycle
/// searched, zeroed once every 31 searches, and the chord table, 4p
/// bytes. In a DEX network p/n starts in (4, 8) but grows as nodes
/// leave, until a deflation; the largest p/n measured on `benchmark/`'s
/// `resize` trace (2k → 40k → 500 nodes) is 16.9, so the two stay under
/// 85 B per node of a network that routes, against 336 B per node
/// measured for a bootstrapped network at n = 500k (README, "Memory per
/// node").
#[derive(Default)]
pub struct PathScratch {
    marks: Marks,
    chords: ChordTable,
    /// Forward and backward frontier.
    frontiers: [Frontier; 2],
    /// The level being discovered.
    next: Frontier,
    probes: u64,
    chord_lookups: u64,
}

/// One BFS level of one side, as the three probes still to run: the
/// vertices whose successor, predecessor and chord are unvisited as far
/// as this side knows. A vertex's parent is already on its side, so it
/// skips the probe back to it: one reached via succ goes on the succ and
/// chord lists, via pred on pred and chord, via chord on succ and pred,
/// and a root on all three. Each list keeps discovery order. A list is a
/// buffer that only grows, of which the first `lens[i]` entries are the
/// level.
#[derive(Default)]
struct Frontier {
    /// The succ, pred and chord lists.
    lists: [Vec<u32>; 3],
    lens: [usize; 3],
    /// Vertices in the level (the balance rule compares these).
    len: usize,
}

impl Frontier {
    /// Empty the level, with room for `n` entries on each list.
    fn reset(&mut self, n: usize) {
        for list in &mut self.lists {
            if list.len() < n {
                list.resize(n, 0);
            }
        }
        self.lens = [0; 3];
        self.len = 0;
    }

    /// Add the root `v` to all three lists (the caller made room).
    fn push_root(&mut self, v: u32) {
        for (list, len) in self.lists.iter_mut().zip(&mut self.lens) {
            list[*len] = v;
            *len += 1;
        }
        self.len += 1;
    }

    /// The succ, pred and chord lists of the level.
    fn lists(&self) -> [&[u32]; 3] {
        let [s, p, c] = &self.lists;
        let [ns, np, nc] = self.lens;
        [&s[..ns], &p[..np], &c[..nc]]
    }
}

impl PathScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Work done by every search on this scratch so far: `(visited-mark
    /// probes, chord lookups)` — deterministic counts, the unit a route's
    /// cost is stated in. A probe is one neighbour tested against the
    /// marks; a chord lookup is one chord-list entry's read of the chord
    /// table (so a subset of the probes). Table builds are not counted.
    pub fn work(&self) -> (u64, u64) {
        (self.probes, self.chord_lookups)
    }
}

/// The type-2 map of paper Eq. 6–8 and Sect. 4.2.2: which vertices of the
/// new cycle each old vertex generates. [`resize::Plan`] is its one owner;
/// both type-2 modes and the permutation router read it. All arithmetic
/// is integral, total and deterministic, so every node computes it locally.
pub mod resize {
    use super::PCycle;
    use crate::primes::{deflation_prime, inflation_prime};
    use std::ops::Range;

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

    /// Which way a type-2 rebuild resizes the cycle.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Kind {
        /// To the larger cycle `Z(p')`, `p' ∈ (4p, 8p)` (Sect. 4.2.1).
        Inflation,
        /// To the smaller cycle `Z(p_s)`, `p_s ∈ (p/8, p/4)` (Sect. 4.2.2).
        Deflation,
    }

    /// One type-2 rebuild `Z(p_old) → Z(p_new)`. Old vertex `x` generates
    /// the contiguous range [`Plan::generated_by`]`(x)` of new vertices;
    /// over `x` ascending these ranges tile `0..p_new` in order, and
    /// [`Plan::source`]`(y)` is the old vertex whose range holds `y`.
    ///
    /// * **Inflation** (`α = p_new/p_old`): `x` generates its cloud
    ///   `y_j = ⌈αx⌉ + j`, `0 ≤ j ≤ c(x) = ⌈α(x+1)⌉ − ⌈αx⌉ − 1` (Eq. 6–7).
    ///   The clouds partition `Z_{p_new}` without wrapping (Lemma 4(b)) and
    ///   hold at most ζ = 8 vertices, as `α < 8`.
    /// * **Deflation** (`α = p_old/p_new`): `x` maps to its image `⌊x/α⌋`,
    ///   and only the image's smallest preimage — its *dominating* vertex —
    ///   generates it; so a node simulating a dominating vertex is
    ///   guaranteed a vertex of the smaller cycle. The range is
    ///   `image..image+1` for a dominating vertex and the empty
    ///   `image+1..image+1` otherwise.
    ///
    /// Either way `generated_by(x).end` is the end of the prefix of the new
    /// cycle generated by `0..=x`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Plan {
        kind: Kind,
        p_old: u64,
        p_new: u64,
    }

    impl Plan {
        /// Inflate `Z(p)` to `Z(p')`, `p'` the smallest prime in `(4p, 8p)`.
        pub fn inflation(p: u64) -> Plan {
            Plan {
                kind: Kind::Inflation,
                p_old: p,
                p_new: inflation_prime(p),
            }
        }

        /// Deflate `Z(p)` to `Z(p_s)`, `p_s` the smallest prime in
        /// `(p/8, p/4)` — or `None` when that interval holds no prime of at
        /// least [`PCycle::MIN_P`]: a network that small keeps its cycle.
        pub fn deflation(p: u64) -> Option<Plan> {
            let p_new = deflation_prime(p).filter(|&q| q >= PCycle::MIN_P)?;
            Some(Plan {
                kind: Kind::Deflation,
                p_old: p,
                p_new,
            })
        }

        /// Inflation or deflation.
        pub fn kind(&self) -> Kind {
            self.kind
        }

        /// The prime of the cycle being replaced.
        pub fn p_old(&self) -> u64 {
            self.p_old
        }

        /// The prime of the cycle being built.
        pub fn p_new(&self) -> u64 {
            self.p_new
        }

        /// The new vertices old vertex `x` generates (see [`Plan`]).
        pub fn generated_by(&self, x: u64) -> Range<u64> {
            let (p_old, p_new) = (self.p_old, self.p_new);
            match self.kind {
                Kind::Inflation => ceil_mul_div(x, p_new, p_old)..ceil_mul_div(x + 1, p_new, p_old),
                Kind::Deflation => {
                    let image = floor_mul_div(x, p_new, p_old);
                    let dominating = x == 0 || floor_mul_div(x - 1, p_new, p_old) != image;
                    let start = if dominating { image } else { image + 1 };
                    start..image + 1
                }
            }
        }

        /// The old vertex that generates new vertex `y`: `⌊y/α⌋` under an
        /// inflation (the boundary case `y = αx` cannot occur for coprime
        /// primes unless `x = 0`, where the formula still holds), the
        /// smallest preimage `⌈yα⌉` under a deflation.
        pub fn source(&self, y: u64) -> u64 {
            match self.kind {
                Kind::Inflation => floor_mul_div(y, self.p_old, self.p_new),
                Kind::Deflation => ceil_mul_div(y, self.p_old, self.p_new),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::primes::is_prime;

        /// The plan's contract, for either kind: the generated ranges of
        /// `0..p_old` tile `0..p_new` in order, and `source(y) == x` for
        /// every `y` in `generated_by(x)`. Returns the widest range.
        fn check_plan(plan: Plan) -> u64 {
            let (mut next, mut widest) = (0, 0);
            for x in 0..plan.p_old() {
                let ys = plan.generated_by(x);
                assert_eq!(ys.start, next, "{plan:?}: gap or overlap at old {x}");
                for y in ys.clone() {
                    assert_eq!(plan.source(y), x, "{plan:?}: source of {y}");
                }
                widest = widest.max(ys.end - ys.start);
                next = ys.end;
            }
            assert_eq!(next, plan.p_new(), "{plan:?}: not onto Z_p_new");
            widest
        }

        #[test]
        fn inflation_clouds_partition_new_cycle() {
            for p_old in [5u64, 23, 37, 101] {
                let plan = Plan::inflation(p_old);
                assert_eq!(plan.kind(), Kind::Inflation);
                assert!(check_plan(plan) <= 8, "a cloud of {plan:?} exceeds ζ = 8");
                assert!(
                    (0..p_old).all(|x| !plan.generated_by(x).is_empty()),
                    "{plan:?}: every old vertex has a cloud"
                );
            }
        }

        #[test]
        fn inflation_source_inverts_cloud() {
            // Both kinds, every prime below 2,000 that has a plan: the
            // ranges tile, and `source` is also a right inverse — each new
            // vertex lies in the range of its source.
            for p in (5..2000u64).filter(|&p| is_prime(p)) {
                for plan in [Some(Plan::inflation(p)), Plan::deflation(p)]
                    .into_iter()
                    .flatten()
                {
                    check_plan(plan);
                    for y in 0..plan.p_new() {
                        assert!(
                            plan.generated_by(plan.source(y)).contains(&y),
                            "{plan:?}: {y}"
                        );
                    }
                }
            }
        }

        #[test]
        fn inflation_cloud_is_contiguous_mod_p() {
            // Against Eq. 6–7 written out: y_j = (⌈αx⌉ + j) mod p_new for
            // 0 ≤ j ≤ c(x) — contiguous, and never wrapping past p_new.
            for p_old in [23u64, 101, 1009] {
                let plan = Plan::inflation(p_old);
                let p_new = plan.p_new();
                let ceil_alpha = |x: u64| (x * p_new).div_ceil(p_old);
                for x in 0..p_old {
                    let c = ceil_alpha(x + 1) - ceil_alpha(x) - 1;
                    let eq7: Vec<u64> = (0..=c).map(|j| (ceil_alpha(x) + j) % p_new).collect();
                    assert_eq!(plan.generated_by(x).collect::<Vec<_>>(), eq7, "x = {x}");
                }
            }
        }

        #[test]
        fn deflation_surjective_with_unique_dominators() {
            for p_old in [101u64, 499, 1009] {
                let plan = Plan::deflation(p_old).unwrap();
                assert_eq!(plan.kind(), Kind::Deflation);
                check_plan(plan);
                // Sect. 4.2.2 written out: image ⌊x·p_new/p_old⌋, and x
                // generates it iff x is the image's smallest preimage.
                let image = |x: u64| x * plan.p_new() / p_old;
                let mut dominated = vec![0usize; plan.p_new() as usize];
                for x in 0..p_old {
                    let ys = plan.generated_by(x);
                    assert_eq!(ys.end, image(x) + 1, "x = {x}");
                    let dominating = x == 0 || image(x - 1) != image(x);
                    assert_eq!(!ys.is_empty(), dominating, "x = {x}");
                    for y in ys {
                        dominated[y as usize] += 1;
                    }
                }
                assert!(
                    dominated.iter().all(|&c| c == 1),
                    "each new vertex needs exactly one dominator"
                );
            }
            // No plan exactly where no prime ≥ 5 lies in (p/8, p/4).
            for p in (5..2000u64).filter(|&p| is_prime(p)) {
                let q = deflation_prime(p);
                assert_eq!(
                    Plan::deflation(p).is_none(),
                    q.is_none_or(|q| q < 5),
                    "p = {p}"
                );
            }
            assert!(Plan::deflation(23).is_none() && Plan::deflation(29).is_some());
        }

        #[test]
        fn deflation_clouds_cover_old_cycle() {
            // The preimage of new vertex y is source(y)..source(y+1): these
            // partition Z_{p_old}, and α = p_old/p_new < 8 ⇒ ≤ 8 elements.
            for p_old in [499u64, 1009, 10007] {
                let plan = Plan::deflation(p_old).unwrap();
                let p_new = plan.p_new();
                let mut covered = vec![false; p_old as usize];
                for y in 0..p_new {
                    let end = if y + 1 < p_new {
                        plan.source(y + 1)
                    } else {
                        p_old
                    };
                    let preimage = plan.source(y)..end;
                    assert!((1..=8).contains(&(end - plan.source(y))), "{plan:?}: {y}");
                    for x in preimage {
                        assert!(!covered[x as usize]);
                        covered[x as usize] = true;
                        assert!(plan.generated_by(x).end == y + 1, "x = {x}");
                    }
                }
                assert!(covered.iter().all(|&c| c));
            }
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
    fn epoch_wrap_clears_stale_marks() {
        // Large, small (a prefix of the same array), large again, 40
        // searches in all: the warm scratch routes as a cold one does, and
        // right after the 32nd search (the first of the second epoch
        // cycle) every nonzero mark carries that search's epoch.
        let mut warm = PathScratch::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for i in 0..40u64 {
            let p = [2_000_003u64, 101, 20_011][(i % 3) as usize];
            let z = PCycle::new(p);
            let (a, b) = ((i * 7_919 + 5) % p, (i * 104_729 + p / 2) % p);
            z.shortest_path_with(VertexId(a), VertexId(b), &mut warm, &mut got);
            z.shortest_path_with(VertexId(a), VertexId(b), &mut PathScratch::new(), &mut want);
            assert_eq!(got, want, "{a}->{b} on Z({p})");
            let Marks { mark, epoch } = &warm.marks;
            assert_eq!(mark.len(), 2_000_003, "sized to the largest cycle");
            assert_eq!(*epoch as u64, i % 31 + 1);
            if i == 31 {
                for (v, &m) in mark.iter().enumerate() {
                    assert!(m == 0 || m >> 3 == 1, "stale mark {m:#x} at {v}");
                }
            }
        }
    }

    #[test]
    fn chord_table_follows_every_change_of_p() {
        // One scratch over Z(20,011) → Z(80,021) → Z(20,011) → Z(499),
        // ten searches each, the epoch wrapping in the last: it routes as
        // a scratch that only ever searched the cycle at hand, and its
        // table holds the current cycle's chords while the marks keep the
        // largest cycle's length and read a prefix.
        let mut warm = PathScratch::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (phase, p) in [20_011u64, 80_021, 20_011, 499].into_iter().enumerate() {
            let z = PCycle::new(p);
            let mut fresh = PathScratch::new();
            for i in 0..10u64 {
                let (a, b) = ((i * 7_919 + phase as u64) % p, (i * 104_729 + p / 2) % p);
                z.shortest_path_with(VertexId(a), VertexId(b), &mut warm, &mut got);
                z.shortest_path_with(VertexId(a), VertexId(b), &mut fresh, &mut want);
                assert_eq!(got, want, "{a}->{b} on Z({p})");
            }
            let ChordTable { p: table_p, inv } = &warm.chords;
            assert_eq!((*table_p, inv.len()), (p, p as usize));
            let largest = if phase == 0 { 20_011 } else { 80_021 };
            assert!(inv.capacity() >= largest, "capacity of the largest p");
            for x in 0..p {
                assert_eq!(inv[x as usize] as u64, z.chord(VertexId(x)).0);
            }
            assert_eq!(warm.marks.mark.len(), largest);
        }
        assert_eq!(warm.marks.epoch, 40 - 31, "the epoch wrapped");
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
    fn route_work_is_pinned() {
        // Exact search work over fixed routes on Z(20,011): 200 one-root
        // pairs, then 200 routes from four roots a quarter-cycle apart
        // (a bootstrap node's `Sim` set). A change that adds probes or
        // chord lookups fails here; one that saves some re-pins the totals.
        let z = PCycle::new(20_011);
        let mut scratch = PathScratch::new();
        let mut out = Vec::new();
        let to = |i: u64| VertexId((i * i * 104_729 + 10_005) % 20_011);
        for i in 0..200u64 {
            z.shortest_path_with(
                VertexId((i * 7_919 + 3) % 20_011),
                to(i),
                &mut scratch,
                &mut out,
            );
        }
        assert_eq!(scratch.work(), (177_804, 60_695), "one root");
        let mut roots = Vec::new();
        for i in 0..200u64 {
            roots.clear();
            roots.extend((0..4).map(|j| VertexId((i * 7_919 + 3) % 5_002 + j * 5_002)));
            z.shortest_path_from_any(&roots, to(i), &mut scratch, &mut out);
        }
        assert_eq!(scratch.work(), (318_843, 106_343), "one root, then four");
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
