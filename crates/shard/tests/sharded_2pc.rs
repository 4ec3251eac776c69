//! Acceptance tests for the sharded deployment: cross-shard 2PC over
//! live replicated channels must be atomic, conservative, and
//! bit-for-bit deterministic — including under leader kills.

use fabric_store::testdir::TestDir;
use ledgerview_crosschain::contracts::TRANSFER_CC;
use ledgerview_crosschain::read_balance;
use ledgerview_shard::{OpLeg, OpSpec, ShardConfig, ShardedDeployment, TransferStatus};
use ledgerview_simnet::SimTime;

const SECOND: SimTime = SimTime::from_secs(1);

/// A 2-shard config with explicit account pins so the test controls
/// exactly which transfers are local and which are cross-shard.
fn two_shard_config(root: &std::path::Path, seed: u64) -> ShardConfig {
    let mut cfg = ShardConfig::new(root, 2, seed);
    cfg.pins = vec![
        ("acct~alice".into(), 0),
        ("acct~bob".into(), 1),
        ("acct~carol".into(), 1),
    ];
    cfg
}

#[test]
fn cross_shard_transfer_commits_atomically() {
    let dir = TestDir::new("shard-2pc-commit");
    let mut dep = ShardedDeployment::new(two_shard_config(dir.path(), 11)).unwrap();
    assert_eq!(dep.shard_of_account("alice"), 0);
    assert_eq!(dep.shard_of_account("bob"), 1);

    dep.schedule_open(SimTime::from_millis(100), "alice", 1_000);
    dep.schedule_open(SimTime::from_millis(100), "bob", 100);
    dep.schedule_open(SimTime::from_millis(100), "carol", 50);

    // Cross-shard (alice: shard 0 → bob: shard 1), local (bob → carol on
    // shard 1), and a cross-shard abort (insufficient funds).
    let t_cross = dep.schedule_transfer(SimTime::from_secs(2), "alice", "bob", 250);
    let t_local = dep.schedule_transfer(SimTime::from_secs(2), "bob", "carol", 40);
    let t_poor = dep.schedule_transfer(SimTime::from_secs(3), "alice", "bob", 1_000_000);

    dep.run_until_converged(SimTime::from_secs(60)).unwrap();
    dep.verify().unwrap();

    let report = dep.report();
    assert_eq!(report.transfers[t_cross].status, TransferStatus::Committed);
    assert_eq!(report.transfers[t_local].status, TransferStatus::Committed);
    match &report.transfers[t_poor].status {
        TransferStatus::Aborted { reason } => {
            assert!(reason.contains("insufficient"), "reason: {reason}")
        }
        other => panic!("expected insufficient-funds abort, got {other:?}"),
    }
    assert_eq!(report.committed, 2);
    assert_eq!(report.aborted, 1);
    assert_eq!(report.opened_total, 1_150);

    // Exact balances on the committed tips.
    let s0 = dep_state_balance(&dep, 0, "alice");
    let s1_bob = dep_state_balance(&dep, 1, "bob");
    let s1_carol = dep_state_balance(&dep, 1, "carol");
    assert_eq!(s0, Some(750));
    assert_eq!(s1_bob, Some(310));
    assert_eq!(s1_carol, Some(90));
}

fn dep_state_balance(dep: &ShardedDeployment, shard: usize, acct: &str) -> Option<u64> {
    read_balance(dep.cluster(shard).canonical_state(), acct)
}

/// Kill both shards' Raft leaders while a mixed transfer load is in
/// flight: every admitted transfer must still terminate atomically and
/// conservation must hold.
#[test]
fn leader_kills_mid_2pc_preserve_atomicity() {
    let dir = TestDir::new("shard-2pc-kill");
    let mut dep = ShardedDeployment::new(two_shard_config(dir.path(), 23)).unwrap();

    dep.schedule_open(SimTime::from_millis(100), "alice", 10_000);
    dep.schedule_open(SimTime::from_millis(100), "bob", 10_000);
    dep.schedule_open(SimTime::from_millis(100), "carol", 10_000);

    for i in 0..20u64 {
        let at = SECOND + SimTime::from_millis(150 * i);
        if i % 3 == 0 {
            dep.schedule_transfer(at, "bob", "carol", 10 + i);
        } else if i % 3 == 1 {
            dep.schedule_transfer(at, "alice", "bob", 20 + i);
        } else {
            dep.schedule_transfer(at, "carol", "alice", 5 + i);
        }
    }
    // Leaders die while transfers are mid-protocol.
    dep.schedule_leader_kill(0, SECOND + SimTime::from_millis(400));
    dep.schedule_leader_kill(1, SECOND + SimTime::from_millis(900));

    dep.run_until_converged(SimTime::from_secs(120)).unwrap();
    dep.verify().unwrap();

    let report = dep.report();
    assert_eq!(report.shed, 0, "nothing should shed at this rate");
    assert_eq!(
        report.committed + report.aborted,
        20,
        "every admitted transfer must terminate"
    );
    // Plenty of funds: everything commits.
    assert_eq!(report.committed, 20);
}

/// Same seed ⇒ bit-identical per-shard state roots and identical
/// transfer outcomes; a different seed still converges and verifies.
#[test]
fn same_seed_is_bit_identical() {
    let run = |root: &std::path::Path, seed: u64| {
        let mut dep = ShardedDeployment::new(two_shard_config(root, seed)).unwrap();
        dep.schedule_open(SimTime::from_millis(100), "alice", 5_000);
        dep.schedule_open(SimTime::from_millis(100), "bob", 5_000);
        for i in 0..10u64 {
            let at = SECOND + SimTime::from_millis(200 * i);
            if i % 2 == 0 {
                dep.schedule_transfer(at, "alice", "bob", 100 + i);
            } else {
                dep.schedule_transfer(at, "bob", "alice", 50 + i);
            }
        }
        dep.schedule_leader_kill(0, SECOND + SimTime::from_millis(500));
        dep.run_until_converged(SimTime::from_secs(120)).unwrap();
        dep.verify().unwrap();
        let report = dep.report();
        let statuses: Vec<TransferStatus> =
            report.transfers.iter().map(|t| t.status.clone()).collect();
        (dep.state_roots(), statuses)
    };

    let dir_a = TestDir::new("shard-det-a");
    let dir_b = TestDir::new("shard-det-b");
    let dir_c = TestDir::new("shard-det-c");
    let (roots_a, statuses_a) = run(dir_a.path(), 7);
    let (roots_b, statuses_b) = run(dir_b.path(), 7);
    assert_eq!(roots_a, roots_b, "same seed must be bit-identical");
    assert_eq!(statuses_a, statuses_b);

    let (roots_c, _) = run(dir_c.path(), 8);
    assert_ne!(roots_a, roots_c, "different seed must differ");
}

/// A hand-built transfer-shaped [`OpSpec`] over the transfer contract's
/// participant functions.
fn transfer_spec(id: &str, src: &str, dst: &str, amount: u64) -> OpSpec {
    let amount = amount.to_be_bytes().to_vec();
    let leg = |acct: &str, prepare: &str| OpLeg {
        key: format!("acct~{acct}"),
        chaincode: TRANSFER_CC.into(),
        prepare: prepare.into(),
        args: vec![acct.as_bytes().to_vec(), amount.clone()],
    };
    OpSpec {
        id: id.into(),
        direct: (
            TRANSFER_CC.into(),
            "transfer".into(),
            vec![src.into(), dst.into(), amount.clone()],
        ),
        legs: vec![leg(src, "prepare_debit"), leg(dst, "prepare_credit")],
    }
}

/// Transfers and generic ops interleave through one engine under a
/// leader kill: transfer indices still address `report().transfers`,
/// the report's counts cover transfers only, and `op_records()` holds
/// only the ops.
#[test]
fn transfers_and_ops_interleave() {
    let dir = TestDir::new("shard-2pc-mixed");
    let mut dep = ShardedDeployment::new(two_shard_config(dir.path(), 41)).unwrap();

    dep.schedule_open(SimTime::from_millis(100), "alice", 1_000);
    dep.schedule_open(SimTime::from_millis(100), "bob", 1_000);
    dep.schedule_open(SimTime::from_millis(100), "carol", 1_000);

    let at = |i: u64| SECOND + SimTime::from_millis(150 * i);
    let t0 = dep.schedule_transfer(at(0), "alice", "bob", 100);
    let o0 = dep.schedule_op(at(1), transfer_spec("op0", "bob", "alice", 50));
    let t1 = dep.schedule_transfer(at(2), "bob", "carol", 30);
    let o1 = dep.schedule_op(at(3), transfer_spec("op1", "carol", "alice", 1_000_000));
    let t2 = dep.schedule_transfer(at(4), "carol", "alice", 20);
    dep.schedule_leader_kill(1, at(2));

    dep.run_until_converged(SimTime::from_secs(120)).unwrap();
    dep.verify().unwrap();

    let report = dep.report();
    assert_eq!((t0, t1, t2), (0, 1, 2));
    assert_eq!((o0, o1), (0, 1));
    assert_eq!(report.transfers.len(), 3);
    for (t, (id, src, dst)) in [
        (t0, ("t0", "alice", "bob")),
        (t1, ("t1", "bob", "carol")),
        (t2, ("t2", "carol", "alice")),
    ] {
        let rec = &report.transfers[t];
        assert_eq!(
            (rec.id.as_str(), rec.src.as_str(), rec.dst.as_str()),
            (id, src, dst)
        );
        assert_eq!(rec.status, TransferStatus::Committed, "transfer {id}");
    }
    assert_eq!(report.transfers[t0].src_shard, 0);
    assert_eq!(report.transfers[t0].dst_shard, 1);
    // The op's NO vote is not a transfer abort.
    assert_eq!(report.committed, 3);
    assert_eq!(report.aborted, 0);
    assert_eq!(report.shed, 0);

    let ops = dep.op_records();
    assert_eq!(ops.len(), 2);
    assert_eq!(ops[o0].id, "op0");
    assert_eq!(ops[o0].status, TransferStatus::Committed);
    assert!(ops[o0].cross);
    assert_eq!(ops[o1].id, "op1");
    assert!(ops[o1].cross);
    match &dep.op(o1).status {
        TransferStatus::Aborted { reason } => {
            assert!(reason.contains("insufficient"), "reason: {reason}")
        }
        other => panic!("expected insufficient-funds abort, got {other:?}"),
    }

    assert_eq!(dep_state_balance(&dep, 0, "alice"), Some(970));
    assert_eq!(dep_state_balance(&dep, 1, "bob"), Some(1_020));
    assert_eq!(dep_state_balance(&dep, 1, "carol"), Some(1_010));
}
