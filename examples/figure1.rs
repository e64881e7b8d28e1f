//! Regenerate Figure 1 of the paper: the 3-regular 23-cycle expander
//! `Z(23)` and a 4-balanced virtual mapping onto 7 real nodes
//! {A, …, G}. Emits both graphs in DOT format (pipe into graphviz).
//!
//! ```sh
//! cargo run --release --example figure1 > figure1.dot
//! ```

use dex::core::fabric;
use dex::prelude::*;

fn main() {
    let z = PCycle::new(23);

    // Left half of the figure: the virtual 23-cycle.
    println!("// Figure 1 (left): the 3-regular 23-cycle expander on Z_23");
    println!("graph Z23 {{");
    println!("  layout=circo;");
    for (a, b) in z.edges() {
        println!("  z{} -- z{};", a.raw(), b.raw());
    }
    println!("}}");

    // Right half: a 4-balanced mapping onto 7 nodes A..G
    // (vertex x is simulated by node x mod 7 — every load is 3 or 4 ≤ 4).
    let names = ["A", "B", "C", "D", "E", "F", "G"];
    let (net, map) = fabric::deal_round_robin(8, &z, 7);

    println!();
    println!("// Figure 1 (right): the network graph G_t — the contraction");
    println!("// of Z(23) under a 4-balanced virtual mapping onto 7 nodes");
    println!("graph Gt {{");
    println!("  layout=circo;");
    for i in 0..7u64 {
        let sim: Vec<String> = map
            .sim(NodeId(i))
            .iter()
            .map(|z| z.raw().to_string())
            .collect();
        println!(
            "  {} [label=\"{}\\n{{{}}}\"];",
            names[i as usize],
            names[i as usize],
            sim.join(",")
        );
    }
    for (a, b) in net.graph().edges() {
        println!(
            "  {} -- {};",
            names[a.raw() as usize],
            names[b.raw() as usize]
        );
    }
    println!("}}");

    // Validate what the figure claims.
    eprintln!("\n// verification:");
    let max_load = (0..7).map(|i| map.load(NodeId(i))).max().unwrap();
    eprintln!("//   balanced: max load = {max_load} (4-balanced ✓)");
    let gap_z = spectral::spectral_gap(&z.to_multigraph());
    let gap_g = spectral::spectral_gap(net.graph());
    eprintln!("//   spectral gap: Z(23) = {gap_z:.4}, G_t = {gap_g:.4}");
    eprintln!(
        "//   Lemma 1 (contraction keeps the gap): {}",
        gap_g >= gap_z - 1e-9
    );
    assert!(max_load <= 4);
    assert!(gap_g >= gap_z - 1e-9);
}
