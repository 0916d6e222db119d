//! The engine's lazy greedy feeds the `service_celf_*` counters once per
//! round. This binary holds a single test so no concurrent query moves the
//! process-global counters between the before and after reads.

use imm_rrr::{NodeId, RrrCollection, RrrSet};
use imm_service::metrics::{CELF_HEAP_POPS, CELF_REVALIDATIONS, CELF_ROUNDS};
use imm_service::{IndexMeta, Query};
use imm_shard::{ShardedEngine, ShardedIndex};
use std::sync::Arc;

#[test]
fn top_k_advances_the_celf_counters_by_the_hand_computed_amounts() {
    if !imm_obs::recording_enabled() {
        return;
    }
    // The paper's Figure 3 sets, counts [2,4,2,2,3,1]. Round 1 pops vertex
    // 1 (live 4). Round 2 pops vertex 4 (bound 3, live 1) and vertex 0
    // (bound 2, live 1) as stale before accepting vertex 2 (live 2). Round
    // 3 accepts vertex 3 (live 2) at once: 3 rounds, 5 pops, 2 stale.
    let sets: [&[NodeId]; 8] = [&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]];
    for shards in [1usize, 3] {
        let mut c = RrrCollection::new(6);
        for s in sets {
            c.push(RrrSet::sorted(s.to_vec()));
        }
        let index = ShardedIndex::from_parts(c, IndexMeta::default(), None, shards).unwrap();
        let engine = ShardedEngine::new(Arc::new(index));
        let before = (CELF_ROUNDS.value(), CELF_HEAP_POPS.value(), CELF_REVALIDATIONS.value());
        let _ = engine.execute(&Query::top_k(3));
        let after = (CELF_ROUNDS.value(), CELF_HEAP_POPS.value(), CELF_REVALIDATIONS.value());
        assert_eq!(
            (after.0 - before.0, after.1 - before.1, after.2 - before.2),
            (3, 5, 2),
            "{shards} shards: (rounds, heap pops, revalidations)"
        );
    }
}
