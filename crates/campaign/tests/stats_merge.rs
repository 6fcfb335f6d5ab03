//! Satellite: merging `ExecutorStats` across worker threads (and serve
//! shards) had no dedicated test. `ExecutorStats::absorb` must be
//! associative and commutative with the default as identity, because
//! worker join order and shard grouping are scheduling accidents that
//! must not leak into campaign totals. Its counters sum and `workers`
//! keeps the peak; max is associative and commutative too, with 0 as
//! identity.

use sofi_campaign::ExecutorStats;
use sofi_rng::{DefaultRng, Rng};

fn random_stats(rng: &mut DefaultRng) -> ExecutorStats {
    ExecutorStats {
        workers: (rng.next_u64() % 8) as usize,
        experiments: rng.next_u64() % 10_000,
        pristine_cycles: rng.next_u64() % 1_000_000,
        faulted_cycles: rng.next_u64() % 1_000_000,
        converged_early: rng.next_u64() % 10_000,
        faulted_cycles_saved: rng.next_u64() % 1_000_000,
        memo_hits: rng.next_u64() % 10_000,
        memo_misses: rng.next_u64() % 10_000,
        memoized_cycles_saved: rng.next_u64() % 1_000_000,
        gate_shards_on: rng.next_u64() % 8,
        gate_shards_off: rng.next_u64() % 8,
        store_hits: rng.next_u64() % 10_000,
    }
}

fn absorbed(a: &ExecutorStats, b: &ExecutorStats) -> ExecutorStats {
    let mut m = *a;
    m.absorb(b);
    m
}

#[test]
fn absorb_is_commutative() {
    let mut rng = DefaultRng::seed_from_u64(11);
    for round in 0..500 {
        let a = random_stats(&mut rng);
        let b = random_stats(&mut rng);
        assert_eq!(absorbed(&a, &b), absorbed(&b, &a), "round {round}");
    }
}

#[test]
fn absorb_is_associative() {
    let mut rng = DefaultRng::seed_from_u64(12);
    for round in 0..500 {
        let a = random_stats(&mut rng);
        let b = random_stats(&mut rng);
        let c = random_stats(&mut rng);
        assert_eq!(
            absorbed(&absorbed(&a, &b), &c),
            absorbed(&a, &absorbed(&b, &c)),
            "round {round}"
        );
    }
}

#[test]
fn default_is_identity() {
    let mut rng = DefaultRng::seed_from_u64(13);
    for _ in 0..100 {
        let a = random_stats(&mut rng);
        assert_eq!(absorbed(&a, &ExecutorStats::default()), a);
        assert_eq!(absorbed(&ExecutorStats::default(), &a), a);
    }
}

#[test]
fn any_shard_grouping_gives_the_same_total() {
    // Fold the same worker list left-to-right, right-to-left, and as a
    // balanced tree — exactly the shapes a thread-join loop, a serve
    // batch merge, and a divide-and-conquer merge would produce.
    let mut rng = DefaultRng::seed_from_u64(14);
    let workers: Vec<ExecutorStats> = (0..9).map(|_| random_stats(&mut rng)).collect();

    let mut left = ExecutorStats::default();
    for w in &workers {
        left.absorb(w);
    }

    let mut right = ExecutorStats::default();
    for w in workers.iter().rev() {
        right.absorb(w);
    }

    fn tree(workers: &[ExecutorStats]) -> ExecutorStats {
        match workers {
            [] => ExecutorStats::default(),
            [one] => *one,
            _ => {
                let (lo, hi) = workers.split_at(workers.len() / 2);
                absorbed(&tree(lo), &tree(hi))
            }
        }
    }

    assert_eq!(left, right);
    assert_eq!(left, tree(&workers));
}

#[test]
fn derived_rates_survive_merging() {
    // The rates are ratios of merged counters, not averages of per-shard
    // rates; a merged record must reproduce them from its own fields.
    let a = ExecutorStats {
        experiments: 10,
        converged_early: 5,
        memo_hits: 2,
        memo_misses: 8,
        ..ExecutorStats::default()
    };
    let b = ExecutorStats {
        experiments: 30,
        converged_early: 5,
        memo_hits: 8,
        memo_misses: 2,
        ..ExecutorStats::default()
    };
    let m = absorbed(&a, &b);
    assert!((m.early_termination_rate() - 0.25).abs() < 1e-12);
    assert!((m.memo_hit_rate() - 0.5).abs() < 1e-12);
}
