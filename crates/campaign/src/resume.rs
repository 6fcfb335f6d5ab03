//! Resumable fault-list slicing.
//!
//! The campaign service (`sofi-serve`) dispatches a campaign's experiment
//! list in fixed-size batches and journals each completed batch. After a
//! crash it replays the journal and re-dispatches only the *uncovered
//! tail* of the fault list; the helpers here compute that tail and the
//! shard boundaries. They are plain functions over experiment slices so
//! any executor front-end (daemon, CLI, tests) slices identically.

use sofi_space::Experiment;
use std::collections::HashSet;

/// The experiments of `plan` whose ids are *not* in `done`, in the
/// original (cycle-sorted) plan order.
///
/// `done` typically comes from replaying a result journal: every
/// experiment id with a committed outcome. Re-running the returned tail
/// and merging with the journaled results covers the plan exactly once.
pub fn unfinished(plan: &[Experiment], done: &HashSet<u32>) -> Vec<Experiment> {
    plan.iter()
        .filter(|e| !done.contains(&e.id))
        .copied()
        .collect()
}

/// How many of `plan`'s experiments are already covered by `done` —
/// the journal-recovered head the daemon *skips* on resume. Counted
/// against the plan (not `done.len()`) so stale journal entries for
/// other plans never inflate the figure; the daemon mirrors this into
/// the `serve.experiments_recovered` telemetry counter.
pub fn recovered_count(plan: &[Experiment], done: &HashSet<u32>) -> u64 {
    plan.iter().filter(|e| done.contains(&e.id)).count() as u64
}

/// Splits `experiments` into *owned* contiguous shards of at most
/// `batch_size` (the last shard may be shorter) — the unit of work the
/// distributed coordinator leases to remote workers. Shard indices are
/// stable for a given `(experiments, batch_size)` pair: shard `i` always
/// covers the same experiment ids, so an upload can be validated against
/// the shard it claims to cover. Covers each experiment exactly once, in
/// plan order; `batch_size` of 0 is treated as 1 so the schedule always
/// makes progress.
pub fn shards(experiments: &[Experiment], batch_size: usize) -> Vec<Vec<Experiment>> {
    experiments
        .chunks(batch_size.max(1))
        .map(<[_]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_space::FaultCoord;

    fn exp(id: u32) -> Experiment {
        Experiment {
            id,
            coord: FaultCoord {
                cycle: u64::from(id) + 1,
                bit: 0,
            },
            weight: 1,
        }
    }

    #[test]
    fn unfinished_preserves_order_and_filters() {
        let plan: Vec<Experiment> = (0..10).map(exp).collect();
        let done: HashSet<u32> = [1, 3, 9].into_iter().collect();
        let tail = unfinished(&plan, &done);
        let ids: Vec<u32> = tail.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![0, 2, 4, 5, 6, 7, 8]);
        assert!(unfinished(&plan, &(0..10).collect()).is_empty());
        assert_eq!(unfinished(&plan, &HashSet::new()).len(), 10);
    }

    #[test]
    fn recovered_complements_unfinished() {
        let plan: Vec<Experiment> = (0..10).map(exp).collect();
        // `done` includes ids outside the plan: they must not count.
        let done: HashSet<u32> = [1, 3, 9, 77, 99].into_iter().collect();
        let recovered = recovered_count(&plan, &done);
        assert_eq!(recovered, 3);
        assert_eq!(
            recovered + unfinished(&plan, &done).len() as u64,
            plan.len() as u64
        );
        assert_eq!(recovered_count(&[], &done), 0);
        assert_eq!(recovered_count(&plan, &HashSet::new()), 0);
    }

    #[test]
    fn shards_match_batches_and_are_stable() {
        let plan: Vec<Experiment> = (0..10).map(exp).collect();
        for size in [0, 1, 3, 10, 99] {
            let owned = shards(&plan, size);
            // Every shard but the last holds exactly one batch size.
            let full = size.max(1);
            let (last, head) = owned.split_last().unwrap();
            assert!(head.iter().all(|s| s.len() == full), "batch size {size}");
            assert!((1..=full).contains(&last.len()), "batch size {size}");
            // Stable: recomputing yields identical shard boundaries.
            assert_eq!(owned, shards(&plan, size));
        }
        let all: Vec<u32> = shards(&plan, 4)
            .iter()
            .flat_map(|s| s.iter().map(|e| e.id))
            .collect();
        assert_eq!(all, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn batches_cover_exactly_once() {
        let plan: Vec<Experiment> = (0..10).map(exp).collect();
        for size in [0, 1, 3, 10, 99] {
            let all: Vec<u32> = shards(&plan, size)
                .iter()
                .flat_map(|s| s.iter().map(|e| e.id))
                .collect();
            assert_eq!(all, (0..10).collect::<Vec<u32>>(), "batch size {size}");
        }
        assert_eq!(shards(&plan, 3).len(), 4);
        assert!(shards(&[], 3).is_empty());
    }
}
