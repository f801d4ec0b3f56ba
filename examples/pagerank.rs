//! PageRank over a power-law web graph with coded power iteration —
//! the Figure 7 workload — then an n-hop graph filter on the same graph.
//!
//! ```text
//! cargo run --release --example pagerank
//! ```

use s2c2_cluster::ClusterSpec;
use s2c2_coding::mds::MdsParams;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::strategy::StrategyKind;
use s2c2_linalg::Vector;
use s2c2_workloads::datasets::power_law_graph;
use s2c2_workloads::exec::ExecConfig;
use s2c2_workloads::graph_filter::DistributedGraphFilter;
use s2c2_workloads::pagerank::DistributedPageRank;

fn main() {
    let graph = power_law_graph(2000, 3, 7);
    println!(
        "graph: {} nodes, {} edges (preferential attachment)\n",
        graph.nodes(),
        graph.edge_count()
    );

    let cluster = ClusterSpec::builder(12)
        .compute_bound()
        .straggler_slowdown(5.0)
        .stragglers(&[5], 0.2)
        .build();
    let cfg = ExecConfig::new(MdsParams::new(12, 6), cluster)
        .strategy(StrategyKind::S2c2General)
        .predictor(PredictorSource::LastValue)
        .chunks_per_worker(12);

    let mut pr = DistributedPageRank::new(&graph, &cfg, 0.85).expect("valid configuration");
    let iters = pr.run_to_convergence(1e-10, 100).expect("converges");
    println!("converged in {iters} power iterations");
    println!("total simulated latency: {:.4}s", pr.total_latency());

    // Show the top-5 ranked nodes alongside their in-degrees.
    let mut indeg = vec![0usize; graph.nodes()];
    for outs in &graph.edges {
        for &v in outs {
            indeg[v] += 1;
        }
    }
    let mut ranked: Vec<usize> = (0..graph.nodes()).collect();
    ranked.sort_by(|&a, &b| pr.rank()[b].total_cmp(&pr.rank()[a]));
    println!("\ntop 5 nodes by PageRank:");
    for &node in ranked.iter().take(5) {
        println!(
            "  node {node:>4}  rank {:.5}  in-degree {}",
            pr.rank()[node],
            indeg[node]
        );
    }
    println!("\nrank mass sums to {:.6} (should be ~1)", pr.rank().sum());

    // §6.3's other graph workload on the same pool: a 3-hop filter over
    // the combinatorial Laplacian, one coded matvec per hop, checked
    // against the sequential `L·L·L·x`.
    let mut filter = DistributedGraphFilter::new(&graph, &cfg).expect("valid configuration");
    let signal = Vector::from_fn(graph.nodes(), |i| ((i % 7) as f64 - 3.0) / 3.0);
    let out = filter.n_hop(&signal, 3).expect("filter runs");
    let laplacian = graph.laplacian();
    let reference = (0..3).fold(signal, |x, _| laplacian.matvec(&x));
    let error = (&out.signal - &reference).norm_inf() / reference.norm_inf();
    println!(
        "\n3-hop Laplacian filter: {} coded rounds, {:.4}s simulated, \
         relative error vs sequential {error:.1e}",
        out.hops, out.latency
    );
}
