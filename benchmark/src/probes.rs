//! Unit-cost probes: one layer's public function called in a tight loop on
//! the network the workload left behind (traced runs only, after every
//! check). Each probe reports host nanoseconds per call or per element.

use crate::script::Gen;
use crate::trace::{Name, Tracer};
use dex::core::{DexNetwork, VirtualMapping};
use dex::graph::pcycle::PathScratch;
use dex::graph::{walks, NodeId, VertexId};
use dex::sim::flood::{flood_count_with, FloodScratch};
use dex::sim::rng::{Purpose, SeedSpace};
use dex::sim::tokens::random_walk_search;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    pub phi_owner_of_ns: f64,
    pub phi_transfer_ns: f64,
    pub route_bfs_ns: f64,
    pub route_path_len: f64,
    pub walk_hop_ns: f64,
    pub flood_ns_per_node: f64,
    pub walk_search_ns: f64,
    pub walk_search_hops: f64,
    pub edge_edit_ns: f64,
    pub handoff_ns: f64,
}

const ROUTE_PAIRS: u64 = 1_000;
const PHI_OPS: u64 = 200_000;
const WALKS: u64 = 2_000;
const FLOODS: u64 = 3;
const EDGE_EDITS: u64 = 100_000;
const HANDOFFS: u64 = 2_000;

fn per(t: Instant, count: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / count as f64
}

/// Probe every layer on `net`, which is consumed in spirit: walk and flood
/// probes charge its meters and the edge probe reorders adjacency rows.
pub fn run(net: &mut DexNetwork, seed: u64, threads: usize, tr: &mut Tracer) -> UnitCosts {
    let span = tr.begin(Name::Probe, 0);
    let mut gen = Gen::new(seed ^ 0x0b5e_55ed);
    let mut costs = UnitCosts::default();
    let p = net.cycle.p();
    let ids = net.node_ids();
    let n = ids.len() as u64;
    let any = |gen: &mut Gen| ids[gen.below(n) as usize];

    // Φ alone: a mapping dealt the way `bootstrap` deals it.
    {
        let mut map = VirtualMapping::with_vertex_capacity(net.cfg.zeta, p);
        for x in 0..p {
            map.assign(VertexId(x), NodeId(x % n));
        }
        let zs: Vec<VertexId> = (0..PHI_OPS).map(|_| VertexId(gen.below(p))).collect();
        let tos: Vec<NodeId> = (0..PHI_OPS).map(|_| NodeId(gen.below(n))).collect();
        let t = Instant::now();
        let mut acc = 0u64;
        for &z in &zs {
            acc ^= map.owner_of(z).0;
        }
        black_box(acc);
        costs.phi_owner_of_ns = per(t, PHI_OPS);
        let t = Instant::now();
        for (&z, &to) in zs.iter().zip(&tos) {
            black_box(map.transfer(z, to));
        }
        costs.phi_transfer_ns = per(t, PHI_OPS);
    }

    // Route BFS on Z(p), between the kinds of endpoints a DHT call uses.
    {
        let mut scratch = PathScratch::new();
        let mut path = Vec::new();
        let pairs: Vec<(VertexId, VertexId)> = (0..ROUTE_PAIRS)
            .map(|_| (VertexId(gen.below(p)), VertexId(gen.below(p))))
            .collect();
        let mut hops = 0usize;
        let t = Instant::now();
        for &(a, b) in &pairs {
            net.cycle.shortest_path_with(a, b, &mut scratch, &mut path);
            hops += path.len() - 1;
        }
        costs.route_bfs_ns = per(t, ROUTE_PAIRS);
        costs.route_path_len = hops as f64 / ROUTE_PAIRS as f64;
    }

    let walk_len = net.cfg.walk_len(p);
    let seeds = SeedSpace::new(seed);

    // Plain random-walk hops on the physical graph.
    {
        let starts: Vec<NodeId> = (0..WALKS).map(|_| any(&mut gen)).collect();
        let mut rng = seeds.stream(Purpose::Workload, &[1]);
        let t = Instant::now();
        for &s in &starts {
            black_box(walks::walk(net.graph(), s, walk_len as usize, &mut rng));
        }
        costs.walk_hop_ns = per(t, WALKS * walk_len);
    }

    // The type-1 insertion search: walk until a Spare node accepts.
    {
        let starts: Vec<NodeId> = (0..WALKS).map(|_| any(&mut gen)).collect();
        let mut rng = seeds.stream(Purpose::Workload, &[2]);
        let mut hops = 0u64;
        let t = Instant::now();
        for &s in &starts {
            let map = &net.map;
            let out = random_walk_search(
                &mut net.net,
                s,
                walk_len,
                None,
                |w| map.is_spare(w),
                &mut rng,
            );
            hops += out.hops;
        }
        costs.walk_search_ns = per(t, WALKS);
        costs.walk_search_hops = hops as f64 / WALKS as f64;
    }

    // computeSpare: flood + convergecast over the whole network.
    {
        let mut scratch = FloodScratch::new();
        let roots: Vec<NodeId> = (0..=FLOODS).map(|_| any(&mut gen)).collect();
        let map = &net.map;
        // The first flood sizes the scratch buffers and is not timed.
        flood_count_with(&mut net.net, roots[0], |w| map.is_spare(w), &mut scratch);
        let t = Instant::now();
        for &root in &roots[1..] {
            let res = flood_count_with(&mut net.net, root, |w| map.is_spare(w), &mut scratch);
            assert_eq!(res.n as u64, n, "flood must reach every node");
        }
        costs.flood_ns_per_node = per(t, FLOODS * n);
    }

    // One metered edge insertion and its removal: the arena edit a Φ move
    // pays per incident virtual edge.
    {
        let pairs: Vec<(NodeId, NodeId)> = (0..EDGE_EDITS)
            .map(|_| (any(&mut gen), any(&mut gen)))
            .collect();
        let t = Instant::now();
        for &(u, v) in &pairs {
            net.net.add_edge(u, v);
            net.net.remove_edge(u, v);
        }
        costs.edge_edit_ns = per(t, 2 * EDGE_EDITS);
    }

    // Pool handoff: an empty body over two chunks.
    {
        let mut data = vec![0u8; 2 * dex::exec::CHUNK];
        dex::exec::for_chunks_mut(&mut data, threads, |_, _| {});
        let t = Instant::now();
        for _ in 0..HANDOFFS {
            dex::exec::for_chunks_mut(black_box(&mut data), threads, |_, _| {});
        }
        costs.handoff_ns = per(t, HANDOFFS);
    }

    tr.end(span);
    costs
}
