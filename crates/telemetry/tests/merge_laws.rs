//! Associativity and commutativity of snapshot merging.
//!
//! The daemon merges per-job snapshots in map order, which is not
//! deterministic, so the merged totals must not depend on grouping or
//! order. These sweeps check the algebraic laws on seeded random
//! snapshots.

use sofi_telemetry::{Registry, Snapshot};

/// Tiny deterministic generator (splitmix64) — no dependency on
/// sofi-rng so the telemetry crate's test closure stays dependency-free.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn random_registry(rng: &mut Mix) -> Registry {
    let names = ["alpha", "beta", "gamma", "delta"];
    let reg = Registry::enabled();
    for _ in 0..(rng.next() % 16) {
        let name = names[(rng.next() % 4) as usize];
        match rng.next() % 3 {
            0 => reg.counter(name).add(rng.next() % 1_000),
            1 => reg.gauge(name).set(rng.next() % 1_000),
            _ => reg.histogram(name).record(rng.next() % 1_000_000),
        }
    }
    reg
}

fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

#[test]
fn snapshot_merge_is_commutative() {
    let mut rng = Mix(1);
    for round in 0..200 {
        let a = random_registry(&mut rng).snapshot();
        let b = random_registry(&mut rng).snapshot();
        assert_eq!(merged(&a, &b), merged(&b, &a), "round {round}");
    }
}

#[test]
fn snapshot_merge_is_associative() {
    let mut rng = Mix(2);
    for round in 0..200 {
        let a = random_registry(&mut rng).snapshot();
        let b = random_registry(&mut rng).snapshot();
        let c = random_registry(&mut rng).snapshot();
        assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c)),
            "round {round}"
        );
    }
}

#[test]
fn empty_snapshot_is_identity() {
    let mut rng = Mix(3);
    for _ in 0..50 {
        let a = random_registry(&mut rng).snapshot();
        let empty = Snapshot::default();
        assert_eq!(merged(&a, &empty), a);
        assert_eq!(merged(&empty, &a), a);
    }
}
