//! Golden interleave: the fleet driver's merge of the control-plane
//! queue with every node's queue is pinned bit for bit on fault-heavy
//! specs. Running any event out of time order changes the merged
//! journal (its length and FNV-1a-64 digest), the lease counters, the
//! forced unsprints or the traced telemetry. These specs contain no
//! same-instant tie between two queues, so the tie rules are pinned by
//! the next-event index's unit tests in `cluster.rs` instead.

use faults::MessageFaults;
use fleet::{
    run_fleet_journaled, run_fleet_traced, CoordinatorCrash, FleetPartition, FleetSpec, LeaseStats,
};

/// FNV-1a-64 over bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `FleetSpec::small(seed, n)` with message faults (duplication rate
/// `dup`), a primary crash at 120 s repaired after 60 s, and a 120 s
/// partition cutting the first `n/4 + 1` nodes off every coordinator.
fn faulty_spec(seed: u64, n: u32, dup: f64) -> FleetSpec {
    let mut spec = FleetSpec::small(seed, n).expect("valid spec");
    spec.faults.messages = MessageFaults {
        drop_prob: 0.02,
        delay_prob: 0.05,
        delay_secs: 2.0,
        dup_prob: dup,
        ..MessageFaults::default()
    };
    spec.faults.coordinator_crashes = vec![CoordinatorCrash {
        coordinator: 0,
        at_secs: 120.0,
        repair_secs: 60.0,
    }];
    spec.faults.partitions = vec![FleetPartition {
        coords_a: Vec::new(),
        nodes_a_lo: 0,
        nodes_a_hi: n / 4 + 1,
        start_secs: 240.0,
        duration_secs: 120.0,
    }];
    spec.validate().expect("valid faults");
    spec
}

struct Golden {
    seed: u64,
    nodes: u32,
    dup: f64,
    journal_len: usize,
    digest: u64,
    stats: LeaseStats,
    forced_unsprints: u64,
}

fn check(g: &Golden) {
    let spec = faulty_spec(g.seed, g.nodes, g.dup);
    let (result, journal) = run_fleet_journaled(&spec).expect("fleet runs");
    let case = format!("(seed {:#x}, n {}, dup {})", g.seed, g.nodes, g.dup);
    assert!(result.invariants_clean(), "{case}: {:?}", result.violations);
    assert_eq!(result.served, u64::from(spec.queries_total), "{case}");
    assert_eq!(journal.len(), g.journal_len, "{case}: journal length");
    assert_eq!(
        format!("{:016x}", fnv1a64(journal.to_jsonl().as_bytes())),
        format!("{:016x}", g.digest),
        "{case}: journal digest"
    );
    assert_eq!(result.stats, g.stats, "{case}: lease stats");
    assert_eq!(
        result.forced_unsprints, g.forced_unsprints,
        "{case}: forced unsprints"
    );
}

#[test]
fn one_node_interleave_is_pinned() {
    check(&Golden {
        seed: 1,
        nodes: 1,
        dup: 0.0,
        journal_len: 1627,
        digest: 0x11d5_a622_41b4_f169,
        stats: LeaseStats {
            grants: 4,
            renewals: 23,
            denials: 0,
            expiries: 3,
            releases: 1,
            retries: 19,
            elections: 2,
            step_downs: 1,
            max_epoch: 7,
        },
        forced_unsprints: 0,
    });
}

#[test]
fn seven_nodes_with_duplication_interleave_is_pinned() {
    check(&Golden {
        seed: 7,
        nodes: 7,
        dup: 0.05,
        journal_len: 3025,
        digest: 0xae14_1e22_14fe_9ef8,
        stats: LeaseStats {
            grants: 7,
            renewals: 25,
            denials: 188,
            expiries: 2,
            releases: 6,
            retries: 69,
            elections: 2,
            step_downs: 1,
            max_epoch: 7,
        },
        forced_unsprints: 0,
    });
}

#[test]
fn sixty_four_nodes_interleave_is_pinned() {
    check(&Golden {
        seed: 0xF1,
        nodes: 64,
        dup: 0.02,
        journal_len: 17_961,
        digest: 0xb444_c0f4_ddd8_5c35,
        stats: LeaseStats {
            grants: 70,
            renewals: 294,
            denials: 1808,
            expiries: 17,
            releases: 53,
            retries: 673,
            elections: 2,
            step_downs: 1,
            max_epoch: 7,
        },
        forced_unsprints: 4,
    });
}

#[test]
fn four_hundred_nodes_interleave_is_pinned() {
    check(&Golden {
        seed: 0xF2,
        nodes: 400,
        dup: 0.0,
        journal_len: 98_882,
        digest: 0x2b3a_a57a_2fbf_426c,
        stats: LeaseStats {
            grants: 454,
            renewals: 1961,
            denials: 10118,
            expiries: 109,
            releases: 347,
            retries: 4078,
            elections: 2,
            step_downs: 1,
            max_epoch: 7,
        },
        forced_unsprints: 34,
    });
}

#[test]
fn thirty_three_nodes_heavy_duplication_interleave_is_pinned() {
    check(&Golden {
        seed: 99,
        nodes: 33,
        dup: 0.1,
        journal_len: 10_835,
        digest: 0xac56_110c_02b8_729b,
        stats: LeaseStats {
            grants: 37,
            renewals: 167,
            denials: 1012,
            expiries: 9,
            releases: 28,
            retries: 330,
            elections: 2,
            step_downs: 1,
            max_epoch: 7,
        },
        forced_unsprints: 3,
    });
}

/// FNV-1a-64 over a traced run's control-plane and node telemetry.
fn telemetry_digest(r: &fleet::FleetResult) -> u64 {
    let mut text = r.telemetry.to_jsonl();
    for node in &r.node_telemetries {
        text.push_str(&node.to_jsonl());
    }
    fnv1a64(text.as_bytes())
}

#[test]
fn traced_interleave_is_pinned_and_repeats_bit_for_bit() {
    for (seed, n, dup, digest) in [
        (7, 7, 0.05, 0x625a_91c3_4733_8d9bu64),
        (0xF1, 64, 0.02, 0xd176_40cf_40f8_33d2),
        (99, 33, 0.1, 0x9558_212d_8b5f_181b),
    ] {
        let spec = faulty_spec(seed, n, dup);
        let a = run_fleet_traced(&spec).expect("traced run");
        let b = run_fleet_traced(&spec).expect("traced run");
        assert!(!a.telemetry.events().is_empty(), "tracing records events");
        assert_eq!(a.telemetry, b.telemetry, "control-plane telemetry");
        assert_eq!(a.node_telemetries, b.node_telemetries, "node telemetry");
        assert_eq!(
            format!("{:016x}", telemetry_digest(&a)),
            format!("{digest:016x}"),
            "(seed {seed:#x}, n {n}, dup {dup}): telemetry digest"
        );
    }
}
