//! Output checks. Each compares what the program answered with an
//! independently computed reference and lists every disagreement; a run
//! with any disagreement prints `"correct": false`.

use seeker_graph::SocialGraph;
use seeker_serve::ServeStats;
use seeker_trace::UserPair;

fn sorted_edges(g: &SocialGraph) -> Vec<UserPair> {
    let mut e: Vec<UserPair> = g.edges().collect();
    e.sort_unstable();
    e
}

/// A graph and refinement iteration count must equal the reference's.
pub fn same_result(
    label: &str,
    got: &SocialGraph,
    got_iterations: usize,
    reference: &SocialGraph,
    reference_iterations: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    if got_iterations != reference_iterations {
        problems.push(format!(
            "{label}: {got_iterations} refinement iterations, reference has {reference_iterations}"
        ));
    }
    let (a, b) = (sorted_edges(got), sorted_edges(reference));
    if a != b {
        let missing = b.iter().filter(|e| !got.has_edge(**e)).count();
        let extra = a.iter().filter(|e| !reference.has_edge(**e)).count();
        problems.push(format!(
            "{label}: edge set differs from the reference ({missing} missing, {extra} extra)"
        ));
    }
    problems
}

/// How many `(pair, answered friend?)` verdicts disagree with `reference`.
pub fn wrong_verdicts(answers: &[(UserPair, bool)], reference: &SocialGraph) -> usize {
    answers.iter().filter(|(pair, friend)| reference.has_edge(*pair) != *friend).count()
}

/// The session's statistics after the ingest barrier must describe the
/// reference inference over the fully appended dataset.
pub fn same_stats(
    got: &ServeStats,
    n_users: usize,
    n_checkins: usize,
    n_candidates: usize,
    reference: &SocialGraph,
) -> Vec<String> {
    let expect = [
        ("users", got.n_users, n_users as u64),
        ("check-ins", got.n_checkins, n_checkins as u64),
        ("candidate pairs", got.n_candidate_pairs, n_candidates as u64),
        ("edges", got.n_edges, reference.n_edges() as u64),
    ];
    expect
        .iter()
        .filter(|(_, g, r)| g != r)
        .map(|(what, g, r)| format!("stats after ingest: {g} {what}, reference has {r}"))
        .collect()
}

/// The corrupted reference of the self-test: `g` with every edge removed,
/// or, for an empty graph, with the pair `(0, 1)` added.
pub fn corrupted(g: &SocialGraph) -> SocialGraph {
    let edges = if g.n_edges() == 0 {
        vec![UserPair::new(seeker_trace::UserId::new(0), seeker_trace::UserId::new(1))]
    } else {
        Vec::new()
    };
    SocialGraph::from_edges(g.n_vertices(), edges)
}
