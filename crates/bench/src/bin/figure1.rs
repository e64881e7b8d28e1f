//! **Figure 1** — the 23-cycle p-cycle expander and a 4-balanced virtual
//! mapping onto 7 real nodes, exactly as drawn in the paper, plus the
//! numeric facts the figure illustrates.
//!
//! ```sh
//! cargo run --release -p dex-bench --bin figure1
//! ```

use dex::core::fabric;
use dex::prelude::*;
use dex_bench::print_table;

fn main() {
    let z = PCycle::new(23);
    println!("Figure 1 reproduction: Z(23) and a 4-balanced mapping onto nodes A..G");

    // The virtual graph's structure.
    let zg = z.to_multigraph();
    let mut rows = Vec::new();
    rows.push(vec![
        "Z(23)".to_string(),
        format!("{}", zg.num_nodes()),
        format!("{}", zg.num_edges()),
        "3".to_string(),
        format!("{:.4}", spectral::spectral_gap(&zg)),
        format!("{}", dex::graph::connectivity::diameter(&zg).unwrap()),
    ]);

    // The paper's right-hand side: 7 nodes, vertex x ↦ node x mod 7.
    let names = ["A", "B", "C", "D", "E", "F", "G"];
    let (net, map) = fabric::deal_round_robin(8, &z, 7);
    let g = net.graph();
    rows.push(vec![
        "G_t = Φ(Z(23))".to_string(),
        format!("{}", g.num_nodes()),
        format!("{}", g.num_edges()),
        format!("{}", g.max_degree()),
        format!("{:.4}", spectral::spectral_gap(g)),
        format!("{}", dex::graph::connectivity::diameter(g).unwrap()),
    ]);
    print_table(
        "Figure 1: virtual graph vs contracted network",
        &["graph", "n", "edges", "maxdeg", "spectral gap", "diameter"],
        &rows,
    );

    let mut sim_rows = Vec::new();
    for i in 0..7u64 {
        let mut sim: Vec<u64> = map.sim(NodeId(i)).iter().map(|z| z.raw()).collect();
        sim.sort_unstable();
        sim_rows.push(vec![
            names[i as usize].to_string(),
            format!("{}", sim.len()),
            format!("{sim:?}"),
        ]);
    }
    print_table(
        "the 4-balanced mapping (paper: max load 4 = C)",
        &["node", "load", "simulated vertices"],
        &sim_rows,
    );

    // The figure's implicit claims, verified.
    let gap_z = spectral::spectral_gap(&zg);
    let gap_g = spectral::spectral_gap(g);
    println!(
        "\nLemma 1 check: λ_G ≤ λ_Z ⟺ gap_G ({gap_g:.4}) ≥ gap_Z ({gap_z:.4}): {}",
        gap_g >= gap_z - 1e-9
    );
    println!(
        "degree check:  deg(u) = 3·load(u) for every node: {}",
        (0..7).all(|i| g.degree(NodeId(i)) as u64 == 3 * map.load(NodeId(i)))
    );
    println!("\n(run `cargo run --example figure1` for DOT output of both graphs)");
}
