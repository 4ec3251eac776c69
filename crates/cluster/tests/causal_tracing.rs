//! Acceptance tests for cross-node causal tracing.
//!
//! Two guarantees are checked against the canonical failure drill (leader
//! kill, peer crash + restart replay, snapshot bootstrap):
//!
//! 1. **Observation is free**: attaching telemetry must not perturb the
//!    run. Trace contexts ride the `OrderedBatch` wire encoding whether or
//!    not a tracer is listening, so a traced run and an untraced run of
//!    the same seed must be bit-identical (checked as a property over
//!    random seeds and over a hot and a wider key space).
//! 2. **Causality is closed**: every `peer.commit` span recorded anywhere
//!    in the cluster walks back — commit → replicate → queue → submit —
//!    to a root `submit` span carrying the same trace id, including
//!    transactions that were re-proposed by the submission watchdog.

use std::collections::HashMap;

use fabric_store::testdir::TestDir;
use ledgerview_cluster::cluster::stage;
use ledgerview_cluster::{BootstrapMode, ClusterConfig, ClusterReport, ClusterSim, Fault};
use ledgerview_simnet::SimTime;
use ledgerview_telemetry::{SpanRecord, Telemetry, TraceContext};
use proptest::prelude::*;

const SECOND: SimTime = SimTime::from_secs(1);

/// The canonical failure drill from `cluster_faults.rs`, with optional
/// telemetry attached before any transaction is submitted.
fn run_drill(
    root: &std::path::Path,
    seed: u64,
    keys: u64,
    telemetry: Option<&Telemetry>,
) -> ClusterReport {
    let mut sim = ClusterSim::new(ClusterConfig::new(root, seed)).expect("cluster builds");
    if let Some(t) = telemetry {
        sim.set_telemetry(t);
    }

    sim.schedule_counter_load(
        SimTime::from_millis(300),
        SimTime::from_millis(20),
        200,
        keys,
    );

    sim.run_until(SECOND);
    let leader = sim.current_leader().expect("a leader by t=1s");
    sim.schedule_fault(sim.now(), Fault::KillOrderer(leader));
    sim.schedule_fault(SimTime::from_millis(1_500), Fault::CrashPeer(1));
    sim.schedule_fault(SimTime::from_millis(3_500), Fault::RestartPeer(1));
    sim.schedule_bootstrap_peer(SimTime::from_secs(5), BootstrapMode::Snapshot);

    sim.run_until_converged(SimTime::from_secs(60))
        .expect("cluster converges despite leader kill + peer crash");
    sim.verify_convergence().expect("all live peers canonical");
    sim.report()
}

/// Field-by-field equality over everything the drill determines: commit
/// order, state roots, replica heights, MVCC outcomes, and every counter a
/// tracing side effect could plausibly bump.
fn assert_reports_identical(a: &ClusterReport, b: &ClusterReport) {
    assert_eq!(a.blocks, b.blocks);
    assert_eq!(a.txs, b.txs);
    assert_eq!(a.valid_txs, b.valid_txs);
    assert_eq!(a.batch_history, b.batch_history, "same commit order");
    assert_eq!(a.canonical_roots, b.canonical_roots, "same roots");
    assert_eq!(a.peer_heights, b.peer_heights);
    assert_eq!(a.peer_roots, b.peer_roots);
    assert_eq!(a.elections, b.elections);
    assert_eq!(a.notleader_retries, b.notleader_retries);
    assert_eq!(a.resubmits, b.resubmits);
    assert_eq!(a.dup_batches, b.dup_batches);
    assert_eq!(a.failed_batches, b.failed_batches);
    assert_eq!(a.submit_errors, b.submit_errors);
    assert!(a.divergences.is_empty());
    assert!(a.election_violations.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Tracing on vs. off is bit-identical across the full fault drill,
    /// for random seeds over a hot (3) and a wider (10) key space.
    #[test]
    fn tracing_never_perturbs_the_drill(
        seed in 0u64..100_000,
        keys in prop_oneof![Just(3u64), Just(10u64)],
    ) {
        let dir_off = TestDir::new("trace-diff-off");
        let dir_on = TestDir::new("trace-diff-on");
        let telemetry = Telemetry::wall_clock();
        let untraced = run_drill(dir_off.path(), seed, keys, None);
        let traced = run_drill(dir_on.path(), seed, keys, Some(&telemetry));
        assert_reports_identical(&untraced, &traced);
        prop_assert!(
            !telemetry.tracer().recent().is_empty(),
            "the traced run must actually have recorded spans"
        );
    }
}

/// Walk one hop up the causal chain: the recorded span whose id is
/// `span.parent`.
fn parent_of<'s>(
    by_id: &HashMap<u64, &'s SpanRecord>,
    span: &SpanRecord,
) -> Option<&'s SpanRecord> {
    span.parent.and_then(|p| by_id.get(&p).copied())
}

/// Every peer commit span across the fault drill links back to its
/// submission: commit → replicate → queue → submit, same trace id at
/// every hop, root parentless. Watchdog re-proposals are deduplicated
/// down to a single replicate span per transaction.
#[test]
fn every_peer_commit_links_back_to_its_submission() {
    let dir = TestDir::new("trace-causality");
    let telemetry = Telemetry::wall_clock();
    let report = run_drill(dir.path(), 42, 3, Some(&telemetry));
    assert_eq!(report.txs, 200, "every submission commits exactly once");

    let spans = telemetry.tracer().recent();
    assert_eq!(
        telemetry.tracer().evicted(),
        0,
        "drill must fit in the span ring"
    );
    // Index every span that can serve as a parent. Replay after a peer
    // restart re-records `peer.commit` under the same trace-derived id;
    // parents (submit/queue/replicate) are recorded exactly once, so the
    // map is unambiguous where the walk below needs it to be.
    let mut by_id: HashMap<u64, &SpanRecord> = HashMap::new();
    for s in &spans {
        if s.name != "peer.commit" {
            by_id.insert(s.id, s);
        }
    }

    let commits: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "peer.commit").collect();
    assert!(!commits.is_empty());

    // trace id → distinct peer process lanes that committed it.
    let mut lanes_by_trace: HashMap<u64, std::collections::BTreeSet<u64>> = HashMap::new();
    for commit in &commits {
        let trace = commit.trace_id.expect("commit spans carry a trace id");
        lanes_by_trace
            .entry(trace)
            .or_default()
            .insert(commit.process);

        let replicate = parent_of(&by_id, commit).expect("commit links to replicate");
        assert_eq!(replicate.name, "order.replicate");
        assert_eq!(
            replicate.trace_id,
            Some(trace),
            "trace id survives the wire"
        );

        let queue = parent_of(&by_id, replicate).expect("replicate links to queue");
        assert_eq!(queue.name, "order.queue");
        assert_eq!(queue.trace_id, Some(trace));

        let submit = parent_of(&by_id, queue).expect("queue links to submit");
        assert_eq!(submit.name, "submit");
        assert_eq!(submit.trace_id, Some(trace));
        assert_eq!(submit.parent, None, "submission is the root of the trace");

        // Span ids are trace-derived, never tracer-minted: recompute them.
        let ctx = TraceContext {
            trace_id: trace,
            parent_span: 0,
        };
        assert_eq!(replicate.id, ctx.span_id(stage::REPLICATE));
        assert_eq!(queue.id, ctx.span_id(stage::QUEUE));
        assert_eq!(submit.id, ctx.span_id(stage::SUBMIT));
    }

    // Watchdog re-proposals are deduplicated: one replicate span per
    // transaction, so each trace id appears exactly once in the raft lane.
    let mut replicate_count: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "order.replicate") {
        *replicate_count.entry(s.trace_id.unwrap()).or_default() += 1;
    }
    for (trace, n) in &replicate_count {
        assert_eq!(*n, 1, "trace {trace:#x} replicated {n} times");
    }
    assert_eq!(replicate_count.len(), 200, "every submission replicated");

    // The full journey is reconstructible on at least the three original
    // peers (the snapshot-bootstrapped peer only records spans for blocks
    // past its snapshot point).
    for (trace, lanes) in &lanes_by_trace {
        assert!(
            lanes.len() >= 3,
            "trace {trace:#x} committed on only {} peer lanes",
            lanes.len()
        );
    }
    assert_eq!(
        lanes_by_trace.len(),
        200,
        "every submission traced to commit"
    );
}
