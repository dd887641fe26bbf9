//! Quickstart: build a small item–consumer graph by hand, assign
//! capacities, and run the three MapReduce matching algorithms.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use social_content_matching::graph::{BipartiteGraph, Capacities, ConsumerId, Edge, ItemId};
use social_content_matching::mapreduce::FlowContext;
use social_content_matching::matching::{
    greedy_matching, optimal_matching, GreedyMr, GreedyMrConfig, StackMr, StackMrConfig,
};

fn main() {
    // A tiny "featured item" instance: 4 photos, 5 users, relevance scores
    // from some upstream recommender.  A node is its position: photo `p` is
    // `ItemId(p)`, user `u` is `ConsumerId(u)`.
    let photos = ["sunset", "skyline", "forest", "harbour"];
    let users = ["ana", "ben", "chen", "dara", "eli"];
    let scores = [
        (0, 0, 0.9),
        (0, 1, 0.6),
        (1, 1, 0.8),
        (1, 2, 0.5),
        (2, 2, 0.7),
        (2, 3, 0.4),
        (3, 3, 0.95),
        (3, 4, 0.55),
        (0, 4, 0.3),
    ];
    let edges = scores
        .iter()
        .map(|&(p, u, w)| Edge::new(ItemId(p), ConsumerId(u), w))
        .collect();
    let graph = BipartiteGraph::from_edges(photos.len(), users.len(), edges);

    // Every photo may be shown to at most 2 users, every user sees at most
    // 1 featured photo.
    let caps = Capacities::uniform(&graph, 2, 1);

    println!(
        "instance: {} photos, {} users, {} candidate edges",
        graph.num_items(),
        graph.num_consumers(),
        graph.num_edges()
    );

    // The exact optimum (feasible for small instances only).
    let exact = optimal_matching(&graph, &caps);
    println!("exact optimum      : value {:.2}", exact.value(&graph));

    // Centralized greedy (½-approximation).
    let greedy = greedy_matching(&graph, &caps);
    println!("centralized greedy : value {:.2}", greedy.value(&graph));

    // GreedyMR: the MapReduce greedy.  All jobs of a run go through one
    // FlowContext; inter-round state stays in partitions beside the jobs.
    let greedy_mr =
        GreedyMr::new(GreedyMrConfig::default()).run(&graph, &caps, &FlowContext::named("greedy"));
    println!(
        "GreedyMR           : value {:.2}  ({} MapReduce rounds, feasible: {})",
        greedy_mr.value(&graph),
        greedy_mr.rounds,
        greedy_mr.matching.is_feasible(&graph, &caps)
    );

    // StackMR: the primal-dual stack algorithm (ε = 1).
    let stack_mr =
        StackMr::new(StackMrConfig::default()).run(&graph, &caps, &FlowContext::named("stack"));
    println!(
        "StackMR            : value {:.2}  ({} MapReduce jobs, avg violation {:.2}%)",
        stack_mr.value(&graph),
        stack_mr.mr_jobs,
        100.0 * stack_mr.average_violation(&graph, &caps)
    );

    println!("\nedges delivered by GreedyMR:");
    for e in greedy_mr.matching.edges() {
        let edge = graph.edge(e);
        println!(
            "  {} -> {}   (relevance {:.2})",
            photos[edge.item.index()],
            users[edge.consumer.index()],
            edge.weight
        );
    }
}
