//! The EfficientIMM `Find_Most_Influential_Set` kernel (Algorithm 2 of the
//! paper).
//!
//! The RRR sets — not the vertices — are partitioned across threads. Each
//! thread scatters atomic increments for its sets into one shared
//! [`GlobalCounter`]; and when a seed is removed the counter is either
//! decremented (touching only the covered sets) or rebuilt from the
//! surviving sets, whichever touches less memory — the paper's adaptive
//! counter update.
//!
//! Each seed is popped from an [`ArgmaxFrontier`] built from the counter,
//! not found by the paper's two-level parallel max reduction over all n
//! counters. Decrements only lower counts, so the frontier's bounds stay
//! valid and its pop is the vertex the reduction would return (the highest
//! count, ties toward the smaller id, vertex 0 once every count is 0); a
//! rebuild recounts from scratch, so the frontier is rebuilt with it. A
//! seed then costs the pops of the vertices whose counts fell since they
//! were last checked instead of a pass over all n counters.
//!
//! A seed's covered sets are looked up, not scanned for: each call first
//! builds a vertex → set-id postings table over the list-represented sets
//! (as the original IMM implementation keeps a vertex → RR-set index) and
//! notes which sets are bitmaps. A seed then costs one walk of its postings
//! plus one O(1) bit probe per bitmap set, instead of a membership test on
//! every one of the θ sets.

use crate::balance::{run_jobs, Schedule};
use crate::counter::{ArgmaxFrontier, GlobalCounter};
use crate::params::ExecutionConfig;
use crate::selection::SeedSelection;
use crate::stats::WorkProfile;
use crate::NodeId;
use imm_rrr::RrrCollection;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Select `k` seeds with the EfficientIMM RRR-set-partitioned kernel.
///
/// `fused_counter` carries the occurrence counts accumulated during sampling
/// when kernel fusion is enabled; without it the kernel performs the initial
/// counting pass itself (lines 1–6 of Algorithm 2).
pub fn select_seeds_efficient(
    sets: &RrrCollection,
    k: usize,
    exec: &ExecutionConfig,
    pool: &rayon::ThreadPool,
    fused_counter: Option<&GlobalCounter>,
) -> SeedSelection {
    let threads = exec.threads.max(1);
    let n = sets.num_nodes();
    if n == 0 || k == 0 {
        return SeedSelection {
            seeds: Vec::new(),
            coverage_fraction: 0.0,
            work: WorkProfile::new(threads),
            counter_rebuilds: 0,
            counter_decrements: 0,
        };
    }

    let schedule = if exec.features.dynamic_balancing {
        Schedule::Dynamic { chunk: exec.job_chunk.max(1) }
    } else {
        Schedule::Static
    };

    let per_thread_ops: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let atomic_ops = AtomicU64::new(0);

    // Working counter. With fusion the sampled counts are copied so the
    // caller's counter survives this selection (the martingale loop reuses it
    // after appending more sets); without fusion the counts are built here by
    // the set-partitioned concurrent update.
    let counter = GlobalCounter::new(n);
    if let Some(base) = fused_counter {
        counter.copy_from(base);
    } else {
        run_jobs(pool, threads, sets.len(), schedule, |worker, range| {
            let mut ops = 0u64;
            for idx in range.iter() {
                sets.get(idx).for_each(|v| {
                    counter.increment(v);
                    ops += 1;
                });
            }
            per_thread_ops[worker].fetch_add(ops, Ordering::Relaxed);
            atomic_ops.fetch_add(ops, Ordering::Relaxed);
        });
    }

    let occurrences = Occurrences::build(sets);
    let alive: Vec<AtomicBool> = (0..sets.len()).map(|_| AtomicBool::new(true)).collect();
    let mut alive_count = sets.len();
    let mut covered_total = 0usize;
    let mut seeds = Vec::with_capacity(k);
    let mut rebuilds = 0usize;
    let mut decrements = 0usize;

    let mut frontier = ArgmaxFrontier::new(counter.snapshot());
    for _ in 0..k.min(n) {
        let (seed, seed_count, _) =
            frontier.pop(|v| counter.get(v)).expect("the frontier holds every vertex");
        seeds.push(seed);
        if seed_count == 0 {
            // Every count is 0: the later zero-gain seeds are this vertex
            // (vertex 0) again, as a scan would return.
            frontier.push(seed, 0);
            continue;
        }

        // The still-alive sets covered by the new seed, in ascending set-id
        // order: its list postings plus the bitmap sets whose bit is set.
        let covered = occurrences.covered(sets, seed, &alive);
        let covered_count = covered.len();
        covered_total += covered_count;

        let rebuild = exec.features.adaptive_counter_update
            && alive_count > 0
            && (covered_count as f64 / alive_count as f64) > exec.features.rebuild_threshold;

        if rebuild {
            // Rebuild: zero the counter and re-accumulate only the surviving
            // (alive and not covered) sets. Cheaper than decrementing when
            // the seed covers most of what is left.
            rebuilds += 1;
            for &idx in &covered {
                alive[idx].store(false, Ordering::Relaxed);
            }
            counter.reset();
            run_jobs(pool, threads, sets.len(), schedule, |worker, range| {
                let mut ops = 0u64;
                for idx in range.iter() {
                    if !alive[idx].load(Ordering::Relaxed) {
                        continue;
                    }
                    sets.get(idx).for_each(|v| {
                        counter.increment(v);
                        ops += 1;
                    });
                }
                per_thread_ops[worker].fetch_add(ops, Ordering::Relaxed);
                atomic_ops.fetch_add(ops, Ordering::Relaxed);
            });
            // The recount replaces every count, and a caller's fused counts
            // need not match the sets, so the bounds are taken afresh.
            frontier = ArgmaxFrontier::new(counter.snapshot());
        } else {
            // Decrement: touch only the covered sets (lines 11–18 of
            // Algorithm 2).
            decrements += 1;
            run_jobs(pool, threads, covered.len(), schedule, |worker, range| {
                let mut ops = 0u64;
                for pos in range.iter() {
                    let idx = covered[pos];
                    alive[idx].store(false, Ordering::Relaxed);
                    sets.get(idx).for_each(|v| {
                        counter.decrement(v);
                        ops += 1;
                    });
                }
                per_thread_ops[worker].fetch_add(ops, Ordering::Relaxed);
                atomic_ops.fetch_add(ops, Ordering::Relaxed);
            });
            frontier.push(seed, counter.get(seed));
        }
        alive_count -= covered_count;
    }

    let coverage_fraction =
        if sets.is_empty() { 0.0 } else { covered_total as f64 / sets.len() as f64 };
    SeedSelection {
        seeds,
        coverage_fraction,
        work: WorkProfile {
            per_thread_ops: per_thread_ops.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            atomic_ops: atomic_ops.load(Ordering::Relaxed),
            search_probes: 0,
        },
        counter_rebuilds: rebuilds,
        counter_decrements: decrements,
    }
}

/// Where each vertex occurs, built once per selection call: CSR postings
/// (vertex → ascending set ids) over the list-represented sets, and the ids
/// of the bitmap-represented sets. Bitmaps stay out of the postings because
/// they are the heavy sets, whose postings would cost memory in proportion
/// to their size; their membership stays the §IV-C single bit probe.
struct Occurrences {
    /// `postings[offsets[v]..offsets[v + 1]]` are the list sets holding `v`.
    offsets: Vec<usize>,
    postings: Vec<u32>,
    /// Ascending ids of the bitmap sets.
    bitmap_sets: Vec<u32>,
}

impl Occurrences {
    fn build(sets: &RrrCollection) -> Self {
        let n = sets.num_nodes();
        assert!(u32::try_from(sets.len()).is_ok(), "set ids must fit in u32");
        let mut offsets = vec![0usize; n + 1];
        let mut bitmap_sets = Vec::new();
        for (idx, set) in sets.iter().enumerate() {
            match set.members() {
                Some(members) => members.iter().for_each(|&v| offsets[v as usize + 1] += 1),
                None => bitmap_sets.push(idx as u32),
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Fill with `offsets[v]` as v's write cursor; afterwards it holds
        // v's end, which is v + 1's start, so one shift restores the starts.
        let mut postings = vec![0u32; offsets[n]];
        for (idx, set) in sets.iter().enumerate() {
            for &v in set.members().unwrap_or_default() {
                postings[offsets[v as usize]] = idx as u32;
                offsets[v as usize] += 1;
            }
        }
        offsets.rotate_right(1);
        offsets[0] = 0;
        Occurrences { offsets, postings, bitmap_sets }
    }

    /// The alive sets containing `v`, in ascending set-id order.
    fn covered(&self, sets: &RrrCollection, v: NodeId, alive: &[AtomicBool]) -> Vec<usize> {
        let is_alive = |idx: &usize| alive[*idx].load(Ordering::Relaxed);
        let listed = self.postings[self.offsets[v as usize]..self.offsets[v as usize + 1]]
            .iter()
            .map(|&idx| idx as usize)
            .filter(is_alive);
        let mut probed = self
            .bitmap_sets
            .iter()
            .map(|&idx| idx as usize)
            .filter(|idx| is_alive(idx) && sets.get(*idx).contains(v))
            .peekable();
        let mut covered = Vec::new();
        for idx in listed {
            while let Some(bitmap_idx) = probed.next_if(|&b| b < idx) {
                covered.push(bitmap_idx);
            }
            covered.push(idx);
        }
        covered.extend(probed);
        covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Algorithm;
    use crate::selection::test_support::{collection, greedy_reference};
    use imm_rrr::AdaptivePolicy;
    use proptest::prelude::*;

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
    }

    fn exec(threads: usize) -> ExecutionConfig {
        ExecutionConfig::new(Algorithm::Efficient, threads)
    }

    /// A collection whose `i`th set is stored as a bitmap when `bitmap(i)`,
    /// else as a sorted list.
    fn mixed_collection(
        num_nodes: usize,
        sets: &[Vec<u32>],
        bitmap: impl Fn(usize) -> bool,
    ) -> RrrCollection {
        let mut c = RrrCollection::new(num_nodes);
        for (i, members) in sets.iter().enumerate() {
            let policy = if bitmap(i) {
                AdaptivePolicy::always_bitmap()
            } else {
                AdaptivePolicy::always_sorted()
            };
            c.push_vertices(members.clone(), &policy);
        }
        c
    }

    /// The sampling-time counts a fused selection starts from.
    fn fused_counts(sets: &RrrCollection) -> GlobalCounter {
        let counter = GlobalCounter::new(sets.num_nodes());
        for set in sets.iter() {
            set.for_each(|v| counter.increment(v));
        }
        counter
    }

    #[test]
    fn picks_the_most_frequent_vertex_first_figure3_example() {
        let sets =
            collection(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]]);
        let p = pool(3);
        let result = select_seeds_efficient(&sets, 1, &exec(3), &p, None);
        assert_eq!(result.seeds, vec![1]);
        assert!((result.coverage_fraction - 0.5).abs() < 1e-12);
        assert!(result.work.atomic_ops > 0);
    }

    #[test]
    fn matches_reference_greedy() {
        let sets = collection(
            8,
            &[&[0, 1, 2], &[2, 3], &[3, 4, 5], &[5], &[5, 6], &[6, 7], &[0, 7], &[1, 3, 5, 7]],
        );
        let (ref_seeds, ref_cov) = greedy_reference(&sets, 3);
        let p = pool(2);
        let result = select_seeds_efficient(&sets, 3, &exec(2), &p, None);
        assert_eq!(result.seeds, ref_seeds);
        assert!((result.coverage_fraction - ref_cov).abs() < 1e-12);
    }

    #[test]
    fn fused_counter_gives_the_same_answer_and_preserves_the_base_counter() {
        let sets =
            collection(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]]);
        let base = fused_counts(&sets);
        let before = base.snapshot();
        let p = pool(2);
        let with_fusion = select_seeds_efficient(&sets, 2, &exec(2), &p, Some(&base));
        let without = select_seeds_efficient(&sets, 2, &exec(2), &p, None);
        assert_eq!(with_fusion.seeds, without.seeds);
        assert_eq!(base.snapshot(), before, "selection must not clobber the sampled counts");
    }

    #[test]
    fn adaptive_update_rebuilds_on_skewed_input() {
        // One vertex (0) appears in almost every set, so removing it covers
        // >90% of the sets and the adaptive policy must choose a rebuild.
        let owned: Vec<Vec<u32>> = (0..40)
            .map(|i| if i < 38 { vec![0, (i % 10) + 1] } else { vec![(i % 10) + 1] })
            .collect();
        let slices: Vec<&[u32]> = owned.iter().map(|v| v.as_slice()).collect();
        let sets = collection(12, &slices);

        let mut cfg = exec(2);
        cfg.features.adaptive_counter_update = true;
        cfg.features.rebuild_threshold = 0.5;
        let p = pool(2);
        let adaptive = select_seeds_efficient(&sets, 2, &cfg, &p, None);
        assert!(adaptive.counter_rebuilds >= 1, "expected at least one rebuild");

        cfg.features.adaptive_counter_update = false;
        let plain = select_seeds_efficient(&sets, 2, &cfg, &p, None);
        assert_eq!(plain.counter_rebuilds, 0);
        assert_eq!(adaptive.seeds, plain.seeds, "adaptive update must not change the result");
        assert!((adaptive.coverage_fraction - plain.coverage_fraction).abs() < 1e-12);
        let (ref_seeds, ref_cov) = greedy_reference(&sets, 2);
        assert_eq!(adaptive.seeds, ref_seeds);
        assert!((adaptive.coverage_fraction - ref_cov).abs() < 1e-12);
    }

    #[test]
    fn budget_beyond_the_covering_vertices_emits_the_reference_zero_gain_seeds() {
        // Vertices 2 and 5 cover every set, so seeds 3..=6 have zero gain:
        // each is the all-zero argmax, vertex 0, as in the reference.
        let sets = collection(8, &[&[2, 3], &[2], &[5, 7], &[4, 5], &[2, 5]]);
        let (ref_seeds, ref_cov) = greedy_reference(&sets, 6);
        assert_eq!(ref_seeds, vec![2, 5, 0, 0, 0, 0]);
        for fused in [false, true] {
            let base = fused.then(|| fused_counts(&sets));
            let result = select_seeds_efficient(&sets, 6, &exec(2), &pool(2), base.as_ref());
            assert_eq!(result.seeds, ref_seeds, "fused={fused}");
            assert_eq!(result.coverage_fraction, ref_cov, "fused={fused}");
        }
    }

    #[test]
    fn static_and_dynamic_schedules_agree() {
        let sets = collection(
            10,
            &[&[0, 1, 2], &[3, 4], &[5, 6, 7, 8], &[9], &[0, 9], &[4, 5], &[2, 3, 4]],
        );
        let p = pool(3);
        let mut dynamic_cfg = exec(3);
        dynamic_cfg.features.dynamic_balancing = true;
        let mut static_cfg = exec(3);
        static_cfg.features.dynamic_balancing = false;
        let a = select_seeds_efficient(&sets, 3, &dynamic_cfg, &p, None);
        let b = select_seeds_efficient(&sets, 3, &static_cfg, &p, None);
        assert_eq!(a.seeds, b.seeds);
    }

    #[test]
    fn zero_k_and_empty_collection() {
        let sets = collection(4, &[&[0, 1]]);
        let p = pool(1);
        assert!(select_seeds_efficient(&sets, 0, &exec(1), &p, None).seeds.is_empty());
        let empty = collection(4, &[]);
        let r = select_seeds_efficient(&empty, 2, &exec(1), &p, None);
        assert_eq!(r.seeds.len(), 2);
        assert_eq!(r.coverage_fraction, 0.0);
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let owned: Vec<Vec<u32>> = (0..30)
            .map(|i| (0..(i % 5 + 1)).map(|j| ((i * 7 + j * 3) % 25) as u32).collect())
            .collect();
        // Every third set is a bitmap, so seeds are found through both the
        // list postings and the bitmap probes.
        let sets = mixed_collection(25, &owned, |i| i % 3 == 0);
        assert!(sets.coverage_stats().bitmap_sets > 0);
        let baseline = select_seeds_efficient(&sets, 5, &exec(1), &pool(1), None);
        let (ref_seeds, ref_cov) = greedy_reference(&sets, 5);
        assert_eq!(baseline.seeds, ref_seeds);
        assert!((baseline.coverage_fraction - ref_cov).abs() < 1e-12);
        for threads in [2usize, 4, 8] {
            let r = select_seeds_efficient(&sets, 5, &exec(threads), &pool(threads), None);
            assert_eq!(r.seeds, baseline.seeds, "threads={threads}");
            assert_eq!(r.coverage_fraction, baseline.coverage_fraction, "threads={threads}");
        }
    }

    #[test]
    fn work_does_not_grow_with_thread_count() {
        // The contrast with the Ripples baseline: the initial counting work
        // is independent of the number of threads (each set is touched once).
        let owned: Vec<Vec<u32>> = (0..60)
            .map(|i| vec![i as u32 % 40, (i + 1) as u32 % 40, (i + 2) as u32 % 40])
            .collect();
        let slices: Vec<&[u32]> = owned.iter().map(|v| v.as_slice()).collect();
        let sets = collection(40, &slices);
        let w1 = select_seeds_efficient(&sets, 1, &exec(1), &pool(1), None).work.total_ops();
        let w4 = select_seeds_efficient(&sets, 1, &exec(4), &pool(4), None).work.total_ops();
        assert_eq!(w1, w4, "total work must be thread-count independent");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn matches_reference_on_random_instances(
            raw_sets in proptest::collection::vec(
                (proptest::collection::hash_set(0u32..30, 1..10), any::<bool>()),
                1..25,
            ),
            k in 1usize..5,
            threads in 1usize..4,
            fused in any::<bool>(),
            rebuild_threshold in 0.0f64..1.0,
        ) {
            // Each set is randomly a sorted list or a bitmap, so a seed's
            // covered sets come from the postings, the bit probes or both.
            let owned: Vec<Vec<u32>> =
                raw_sets.iter().map(|(s, _)| s.iter().copied().collect()).collect();
            let sets = mixed_collection(30, &owned, |i| raw_sets[i].1);
            let (ref_seeds, ref_cov) = greedy_reference(&sets, k);
            let base = fused.then(|| fused_counts(&sets));
            // A random threshold makes some calls rebuild the counter, and
            // with it the frontier, between seeds.
            let mut cfg = exec(threads);
            cfg.features.adaptive_counter_update = true;
            cfg.features.rebuild_threshold = rebuild_threshold;
            let p = pool(threads);
            let result = select_seeds_efficient(&sets, k, &cfg, &p, base.as_ref());
            prop_assert_eq!(result.seeds, ref_seeds);
            prop_assert!((result.coverage_fraction - ref_cov).abs() < 1e-9);
        }
    }
}
