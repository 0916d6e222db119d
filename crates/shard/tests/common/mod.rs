//! Independent reference answers for the query engine's parity suites.
//!
//! Nothing here touches postings, CELF frontiers or shards: Top-K is the
//! batch selection kernel (`select_seeds`, the full-argmax greedy) — over
//! the sub-collection of audience-relevant sets for an audience query — and
//! Spread/Marginal are the collection's own coverage estimators. Answers
//! are assembled through the `QueryResponse::*_from_tallies` constructors,
//! so an engine that derives the same integer tallies matches with `==`.

use efficient_imm::{select_seeds, Algorithm, ExecutionConfig};
use imm_rrr::{NodeId, RrrCollection, RrrSet};
use imm_service::{Query, QueryResponse};

/// Reference answers over one collection.
pub struct Reference<'a> {
    collection: &'a RrrCollection,
    exec: ExecutionConfig,
    pool: rayon::ThreadPool,
}

impl<'a> Reference<'a> {
    pub fn new(collection: &'a RrrCollection) -> Self {
        let exec = ExecutionConfig::new(Algorithm::Efficient, 1);
        let pool = exec.build_pool();
        Reference { collection, exec, pool }
    }

    /// The answer an engine over `collection` must give to `query`.
    pub fn answer(&self, query: &Query) -> QueryResponse {
        let c = self.collection;
        let (theta, n) = (c.len(), c.num_nodes());
        match query {
            Query::TopK { k, audience } => {
                let eligible = match audience {
                    None => c.clone(),
                    Some(audience) => {
                        let mut eligible = RrrCollection::new(n);
                        for set in
                            c.iter().filter(|set| set.iter().any(|v| audience.contains(v as usize)))
                        {
                            eligible.push(RrrSet::sorted(set.to_vec()));
                        }
                        eligible
                    }
                };
                let selection = select_seeds(&eligible, (*k).min(n), &self.exec, &self.pool, None);
                let covered = covered_sets(&eligible, &selection.seeds);
                QueryResponse::top_k_from_tallies(selection.seeds, covered, theta, n)
            }
            Query::Spread { seeds } => {
                QueryResponse::spread_from_tallies(covered_sets(c, seeds), theta, n)
            }
            Query::Marginal { seeds, candidate } => {
                let gained = if (*candidate as usize) < n {
                    let with: Vec<NodeId> = seeds.iter().copied().chain([*candidate]).collect();
                    covered_sets(c, &with) - covered_sets(c, seeds)
                } else {
                    0
                };
                QueryResponse::marginal_from_tallies(gained, theta, n)
            }
        }
    }
}

/// Sets of `c` hit by `seeds`, read back from the collection's coverage
/// estimator (a fraction of `c.len()`, exact at these sizes).
fn covered_sets(c: &RrrCollection, seeds: &[NodeId]) -> usize {
    (c.coverage_fraction(seeds) * c.len() as f64).round() as usize
}
