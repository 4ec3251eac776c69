//! `ingest`: the replicated write path at saturation.
//!
//! A `ClusterSim` (3 Raft orderers, 3 LSM peers, endorsement signatures
//! on, commit-time re-verification on, reordering at its default) runs a
//! closed loop of a fixed number of outstanding `counter` increments,
//! submitted with `schedule_call` and resolved with `take_outcomes`. Keys
//! are uniform over 2^40 names, so MVCC conflicts stay near zero. Each
//! client waits a seeded think time before its next submission.
//!
//! The cluster hides its layers, so the traced run replays the run's own
//! transactions layer by layer through the public functions: endorsement
//! on a signed chain, `OrderedBatch` encode/decode, three in-memory
//! `RaftNode`s, `commit_ordered` on an LSM chain with telemetry, a WAL
//! and a standalone LSM tree.

use std::path::Path;
use std::time::Instant;

use ledgerview::cluster::{ClusterConfig, ClusterSim, InvokeOutcome, OrderedBatch};
use ledgerview::fabric::endorsement::EndorsementPolicy;
use ledgerview::fabric::raft::{NodeId, Outgoing, RaftConfig, RaftNode};
use ledgerview::fabric::validation::TxValidation;
use ledgerview::fabric::{FabricChain, ValidationConfig};
use ledgerview::gateway::CounterChaincode;
use ledgerview::simnet::SimTime;
use ledgerview::statedb::{Lsm, LsmConfig, Version};
use ledgerview::store::{StorageConfig, Wal};
use ledgerview::telemetry::{Telemetry, TraceContext};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::layers::{self, CallTimes, CryptoSizes};
use crate::measure::{self, Calibration, Meter, Setups};
use crate::report::Outcome;
use crate::Ctx;

/// Increments in flight at any time.
const OUTSTANDING: u64 = 64;
/// Upper bound of a client's think time between outcome and next
/// submission (virtual µs).
const THINK_MAX_US: u64 = 20_000;
/// Virtual step between polls of the outcome queue.
const STEP: SimTime = SimTime::from_millis(2);
/// Virtual steps between calibration samples (besides the one each
/// batch of outcomes takes).
const SAMPLE_EVERY_STEPS: u64 = 10;
/// Resolved operations per goodput window.
const WINDOW_OPS: u64 = 256;
/// Calibration: a kernel sample (~23 µs) every few virtual steps;
/// elasticity the midpoint of three fits on the reference host (0.70–0.87);
/// set-up elasticity likewise (0.73–0.89).
const CALIBRATION: Calibration = Calibration {
    kernel_iters: 5_000,
    elasticity: 0.79,
    setup_elasticity: 0.81,
};
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Transactions the traced run replays layer by layer.
const REPLAY_TXS: usize = 384;

fn config(dir: &Path, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(dir, seed);
    cfg.lsm_peers = true;
    cfg.check_signatures = true;
    cfg.validation = ValidationConfig::parallel(1);
    cfg
}

/// Build the cluster and run it until a Raft leader exists.
fn setup(dir: &Path, seed: u64) -> ClusterSim {
    let mut sim = ClusterSim::new(config(dir, seed)).expect("build cluster");
    let deadline = SimTime::from_secs(10);
    while sim.current_leader().is_none() && sim.now() < deadline {
        sim.run_for(SimTime::from_millis(10));
    }
    assert!(sim.current_leader().is_some(), "no Raft leader within 10 s");
    sim
}

/// A fresh counter key, uniform over 2^40 names.
pub fn key(rng: &mut StdRng) -> String {
    format!("u{:010x}", rng.next_u64() >> 24)
}

struct Loop {
    rng: StdRng,
    next_tag: u64,
    /// Virtual submit time and key of every tag, in tag order.
    submitted: Vec<(SimTime, String)>,
}

impl Loop {
    fn submit(&mut self, sim: &mut ClusterSim, after: SimTime) {
        let think = SimTime::from_micros(self.rng.random_range(0..THINK_MAX_US));
        let at = after + think;
        let key = key(&mut self.rng);
        sim.schedule_call(
            at,
            "counter",
            "incr",
            vec![key.clone().into_bytes(), b"1".to_vec()],
            self.next_tag,
            None,
        );
        self.submitted.push((at, key));
        self.next_tag += 1;
    }
}

/// Operations whose virtual-time metrics are reported: a fixed prefix,
/// so they are bit-exact for a seed whatever the host speed.
pub fn sim_ops(small: bool) -> usize {
    if small {
        150
    } else {
        1_500
    }
}

/// Run the workload; `off_by` is added to the expected counter sum (the
/// oracle self-test).
pub fn run_with(ctx: &Ctx, telemetry: Option<&Telemetry>, off_by: i64) -> Outcome {
    let mut out = Outcome::new("ingest");
    let cluster_seed = ctx.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17);
    let mut setups = Setups::new(CALIBRATION.setup_elasticity);
    let mut sim = None;
    for rep in 0..SETUP_REPS {
        let dir = ctx.tmp.join(format!("ingest-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let s = setups.time(|| setup(&dir, cluster_seed));
        if let Some(old) = sim.replace(s) {
            drop(old);
            let _ = std::fs::remove_dir_all(ctx.tmp.join(format!("ingest-{}", rep - 1)));
        }
    }
    let mut sim = sim.expect("at least one set-up");
    setups.report(&mut out);
    if let Some(t) = telemetry {
        sim.set_telemetry(t);
    }

    let mut lp = Loop {
        rng: ledgerview::crypto::rng::seeded(ctx.seed ^ 0x494E_4745_5354),
        next_tag: 0,
        submitted: Vec::new(),
    };
    let start_virtual = sim.now();
    for _ in 0..OUTSTANDING {
        lp.submit(&mut sim, start_virtual);
    }
    let sim_ops = sim_ops(ctx.small);
    let mut meter = Meter::start(WINDOW_OPS, sim_ops as u64, CALIBRATION);
    let mut sim_latencies_ms = Vec::with_capacity(sim_ops);
    let mut sim_valid = 0u64;
    let mut sim_end = start_virtual;
    let (mut valid, mut invalid, mut endorse_failed) = (0u64, 0u64, 0u64);
    let mut resolved = 0usize;
    let mut host_sim_us = 0.0;
    let mut steps = 0u64;
    // Virtual time the loop stopped submitting; the drain after it is
    // bounded.
    let mut stop: Option<SimTime> = None;
    while stop.is_none() || resolved < lp.next_tag as usize {
        let t = Instant::now();
        if stop.is_some() {
            sim.run_for(SimTime::from_millis(50));
        } else {
            sim.run_for(STEP);
        }
        host_sim_us += t.elapsed().as_secs_f64() * 1e6;
        steps += 1;
        if stop.is_none() && steps.is_multiple_of(SAMPLE_EVERY_STEPS) {
            meter.sample();
        }
        let now = sim.now();
        let outcomes = sim.take_outcomes();
        let mut good = 0;
        for (tag, outcome) in &outcomes {
            let ok = matches!(
                outcome,
                InvokeOutcome::Committed {
                    valid: TxValidation::Valid
                }
            );
            match outcome {
                InvokeOutcome::Committed {
                    valid: TxValidation::Valid,
                } => valid += 1,
                InvokeOutcome::Committed { .. } => invalid += 1,
                InvokeOutcome::EndorseFailed(_) => endorse_failed += 1,
            }
            good += ok as u64;
            if (*tag as usize) < sim_ops {
                let submitted = lp.submitted[*tag as usize].0;
                sim_latencies_ms.push((now.as_micros() - submitted.as_micros()) as f64 / 1e3);
                sim_valid += ok as u64;
                sim_end = sim_end.max(now);
            }
            resolved += 1;
            if stop.is_none() {
                lp.submit(&mut sim, now);
            }
        }
        match stop {
            None => {
                if !outcomes.is_empty() {
                    meter.record(outcomes.len() as u64, good);
                }
                if meter.elapsed().as_secs_f64() >= ctx.seconds && sim_latencies_ms.len() >= sim_ops
                {
                    stop = Some(now);
                }
            }
            Some(at) if now.as_micros() > at.as_micros() + 120_000_000 => break,
            Some(_) => {}
        }
    }

    // Oracles.
    let converged = sim.run_until_converged(sim.now() + SimTime::from_secs(30));
    out.check(converged.is_ok(), || {
        format!("cluster did not converge: {converged:?}")
    });
    let verdict = sim.verify_convergence();
    out.check(verdict.is_ok(), || {
        format!("verify_convergence: {verdict:?}")
    });
    let raft = sim.check_raft_log_matching();
    out.check(raft.is_ok(), || format!("raft log matching: {raft:?}"));
    out.check(resolved == lp.next_tag as usize, || {
        format!("{} of {} submissions resolved", resolved, lp.next_tag)
    });
    let counter_sum: i64 = sim
        .canonical_state()
        .prefix_scan("u")
        .iter()
        .map(|(_, v)| {
            String::from_utf8_lossy(v)
                .parse::<i64>()
                .unwrap_or(i64::MIN / 4)
        })
        .sum();
    let expected = valid as i64 + off_by;
    out.check(counter_sum == expected, || {
        format!("counter sum {counter_sum} != valid commits {expected}")
    });

    let report = sim.report();
    let elapsed_virtual_s = (sim_end.as_micros() - start_virtual.as_micros()) as f64 / 1e6;
    out.attempted = resolved as u64;
    out.failed = invalid + endorse_failed;
    meter.report(&mut out);
    out.e2e(
        "sim_goodput_tps",
        sim_valid as f64 / elapsed_virtual_s.max(1e-9),
    );
    out.e2e("sim_p50_ms", measure::quantile(&sim_latencies_ms, 0.50));
    out.e2e("sim_p99_ms", measure::quantile(&sim_latencies_ms, 0.99));
    out.e2e(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    if let Some(t) = telemetry {
        out.layer("cluster.elections", report.elections as f64);
        out.layer("cluster.resubmits", report.resubmits as f64);
        out.layer(
            "fabric.mvcc_invalid_per_commit",
            invalid as f64 / resolved.max(1) as f64,
        );
        // Both sides of the residual are scaled to reference speed: the
        // replay runs after the loop, when the host may be busier or idler.
        let a = CALIBRATION.elasticity;
        let host_per_commit = host_sim_us / valid.max(1) as f64 / meter.mean_slowdown().powf(a);
        out.layer("cluster.host_us_per_commit", host_per_commit);
        let block_txs = (report.txs as f64 / report.blocks.max(1) as f64).max(1.0);
        let keys: Vec<String> = lp
            .submitted
            .iter()
            .take(REPLAY_TXS)
            .map(|(_, k)| k.clone())
            .collect();
        let replayed = replay(
            &mut out,
            ctx,
            t,
            cluster_seed,
            &keys,
            block_txs.round() as usize,
        );
        let peers = report.peer_heights.len() as f64;
        let per_tx = replayed.endorse_us
            + replayed.encode_us_per_tx
            + replayed.raft_us_per_batch / block_txs
            + peers * (replayed.decode_us_per_tx + replayed.commit_us_per_tx);
        out.layer(
            "cluster.unattributed_us_per_commit",
            host_per_commit - per_tx / replayed.slowdown.powf(a),
        );
        layers::finish_trace(&mut out, t);
    }
    drop(sim);
    out
}

/// Run the workload.
pub fn run(ctx: &Ctx, telemetry: Option<&Telemetry>) -> Outcome {
    run_with(ctx, telemetry, 0)
}

/// Per-transaction costs of the replayed layers.
struct Replayed {
    endorse_us: f64,
    encode_us_per_tx: f64,
    decode_us_per_tx: f64,
    raft_us_per_batch: f64,
    /// validate per tx + (order + persist + commit) per block / block size.
    commit_us_per_tx: f64,
    /// The host's slowdown while the replay ran.
    slowdown: f64,
}

/// Replay `keys` as increments through each layer's public functions.
fn replay(
    out: &mut Outcome,
    ctx: &Ctx,
    telemetry: &Telemetry,
    seed: u64,
    keys: &[String],
    block_txs: usize,
) -> Replayed {
    let cfg = config(&ctx.tmp, seed);
    let names: Vec<&str> = cfg.org_names.iter().map(String::as_str).collect();
    let mut id_rng = ledgerview::crypto::rng::seeded(cfg.identity_seed);
    let mut endorser = FabricChain::new(&names, &mut id_rng);
    endorser.deploy(
        "counter",
        Box::new(CounterChaincode),
        EndorsementPolicy::AnyOf(endorser.org_ids()),
    );
    let client_org = endorser.org_ids()[0].clone();
    let client = endorser
        .enroll(&client_org, "cluster-client", &mut id_rng)
        .expect("enroll replay client");
    endorser.set_telemetry(telemetry);

    let dir = ctx.tmp.join("ingest-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let mut peer_rng = ledgerview::crypto::rng::seeded(cfg.identity_seed);
    let mut peer = FabricChain::with_lsm_storage(
        &names,
        &mut peer_rng,
        StorageConfig::new(dir.join("peer")).fsync(cfg.fsync),
        cfg.validation.clone(),
    )
    .expect("open replay peer");
    peer.deploy(
        "counter",
        Box::new(CounterChaincode),
        EndorsementPolicy::AnyOf(peer.org_ids()),
    );
    peer.set_telemetry(telemetry);

    let mut calls = CallTimes::default();
    let mut rng = ledgerview::crypto::rng::seeded(seed ^ 0x5245_504C);
    let mut raft = RaftTrio::new(seed);
    let (mut wal, _) = Wal::open(dir.join("wal.log"), cfg.fsync).expect("open replay wal");
    let mut wire_bytes = 0usize;
    let mut blocks = 0u64;
    // Calibration samples between blocks, as in the measured loop.
    let mut cal = Meter::start(block_txs as u64, u64::MAX, CALIBRATION);
    let mut all_valid = true;
    for (b, chunk) in keys.chunks(block_txs.max(1)).enumerate() {
        for key in chunk {
            let r = calls.time(Some(telemetry), "bench.endorse", || {
                endorser.invoke(
                    &client,
                    "counter",
                    "incr",
                    vec![key.clone().into_bytes(), b"1".to_vec()],
                    &mut rng,
                )
            });
            all_valid &= r.is_ok();
        }
        let transactions = endorser.take_pending();
        let n = transactions.len();
        let batch = OrderedBatch {
            batch_id: b as u64,
            timestamp_us: (b as u64 + 1) * 250_000,
            traces: (0..n as u64).map(|i| TraceContext::root(seed, i)).collect(),
            transactions,
        };
        let bytes = calls.time(Some(telemetry), "bench.wire_encode", || batch.encode());
        wire_bytes += bytes.len();
        let wal_payloads: Vec<Vec<u8>> = batch.transactions.iter().map(|tx| tx.encode()).collect();
        let refs: Vec<&[u8]> = wal_payloads.iter().map(Vec::as_slice).collect();
        calls
            .time(Some(telemetry), "bench.wal_append", || {
                wal.append_batch(&refs)
            })
            .expect("wal append");
        calls.time(Some(telemetry), "bench.raft", || {
            raft.replicate(bytes.clone())
        });
        let decoded = calls
            .time(Some(telemetry), "bench.wire_decode", || {
                OrderedBatch::decode(&bytes)
            })
            .expect("decode own batch");
        let outcomes = calls.time(Some(telemetry), "bench.commit_ordered", || {
            peer.commit_ordered(decoded.transactions, decoded.timestamp_us)
        });
        all_valid &= outcomes.iter().all(TxValidation::is_valid);
        blocks += 1;
        cal.record(n as u64, n as u64);
    }
    out.check(all_valid, || {
        "a replayed transaction failed endorsement or validation".into()
    });
    let txs = keys.len().max(1) as f64;
    let r = telemetry.registry();
    layers::chain_layers(out, r);
    let validate_per_tx = out.layers["fabric.validate_us_per_tx"];
    let per_block = out.layers["fabric.order_us_per_block"]
        + out.layers["fabric.persist_us_per_block"]
        + out.layers["fabric.commit_us_per_block"];
    out.layer(
        "fabric.wire_encode_us_per_tx",
        calls.mean_us("bench.wire_encode") * blocks as f64 / txs,
    );
    out.layer(
        "fabric.wire_decode_us_per_tx",
        calls.mean_us("bench.wire_decode") * blocks as f64 / txs,
    );
    out.layer("fabric.wire_bytes_per_tx", wire_bytes as f64 / txs);
    out.layer("fabric.raft_us_per_batch", calls.mean_us("bench.raft"));
    out.layer("store.wal_append_us", calls.mean_us("bench.wal_append"));
    out.layer(
        "store.fsyncs_per_block",
        wal.fsyncs() as f64 / blocks.max(1) as f64,
    );
    statedb_layers(out, &dir.join("lsm"), keys);
    layers::crypto_layers(
        out,
        &CryptoSizes {
            signed: layers::tip_tx_bytes(&peer),
            entry: 64,
            sealed: 32,
        },
        seed,
    );
    let replayed = Replayed {
        endorse_us: calls.mean_us("bench.endorse"),
        encode_us_per_tx: out.layers["fabric.wire_encode_us_per_tx"],
        decode_us_per_tx: out.layers["fabric.wire_decode_us_per_tx"],
        raft_us_per_batch: out.layers["fabric.raft_us_per_batch"],
        commit_us_per_tx: validate_per_tx + per_block * blocks as f64 / txs,
        slowdown: cal.mean_slowdown(),
    };
    drop(peer);
    let _ = std::fs::remove_dir_all(&dir);
    replayed
}

/// Time point reads and writes of the run's keys on a standalone LSM
/// tree small enough to flush and compact.
fn statedb_layers(out: &mut Outcome, dir: &Path, keys: &[String]) {
    let config = LsmConfig::new(dir).memtable_bytes(16 << 10).sync(false);
    let (mut lsm, _) = Lsm::open(config).expect("open replay lsm");
    let t = Instant::now();
    for (i, key) in keys.iter().enumerate() {
        let version = Version {
            block_num: i as u64 / 16,
            tx_num: (i % 16) as u32,
        };
        lsm.put(key.clone(), b"1".to_vec(), version);
        if lsm.should_flush() {
            lsm.flush(&[]).expect("lsm flush");
        }
    }
    // The rest too, so every read comes from a table however few keys
    // the run had.
    lsm.flush(&[]).expect("lsm flush");
    out.layer(
        "statedb.put_us",
        t.elapsed().as_secs_f64() * 1e6 / keys.len().max(1) as f64,
    );
    let t = Instant::now();
    for key in keys {
        let found = lsm.get(key).expect("lsm get");
        std::hint::black_box(found);
    }
    out.layer(
        "statedb.get_us",
        t.elapsed().as_secs_f64() * 1e6 / keys.len().max(1) as f64,
    );
    let stats = lsm.stats();
    out.layer("statedb.write_amp", stats.write_amplification());
    out.layer(
        "statedb.block_cache_hit_ratio",
        stats.block_cache_hit_ratio(),
    );
}

/// Three in-memory Raft nodes with synchronous message delivery.
struct RaftTrio {
    nodes: Vec<RaftNode>,
    now: SimTime,
}

impl RaftTrio {
    fn new(seed: u64) -> RaftTrio {
        let mut nodes: Vec<RaftNode> = (0..3)
            .map(|id| {
                let peers: Vec<NodeId> = (0..3).filter(|&p| p != id).collect();
                RaftNode::new(id, peers, RaftConfig::default(), seed, SimTime::ZERO)
            })
            .collect();
        let now = nodes[0].next_deadline();
        let msgs = nodes[0].tick(now);
        let mut trio = RaftTrio { nodes, now };
        trio.deliver(0, msgs);
        assert!(
            trio.nodes[0].is_leader(),
            "replay Raft node 0 did not win the election"
        );
        trio
    }

    fn deliver(&mut self, from: NodeId, msgs: Vec<Outgoing>) {
        let mut queue: Vec<(NodeId, Outgoing)> = msgs.into_iter().map(|m| (from, m)).collect();
        while let Some((src, m)) = queue.pop() {
            let replies = self.nodes[m.to].handle(src, m.msg, self.now);
            let to = m.to;
            queue.extend(replies.into_iter().map(|r| (to, r)));
        }
    }

    /// Propose one entry on the leader and deliver until every node has
    /// applied it.
    fn replicate(&mut self, data: Vec<u8>) {
        let heartbeat = RaftConfig::default().heartbeat_interval;
        self.now += heartbeat;
        let (index, msgs) = self.nodes[0].propose(data, self.now).expect("node 0 leads");
        self.deliver(0, msgs);
        // Followers learn the commit index from the next heartbeat.
        self.now += heartbeat;
        let msgs = self.nodes[0].tick(self.now);
        self.deliver(0, msgs);
        for node in &mut self.nodes {
            node.take_committed();
        }
        debug_assert!(self.nodes[0].commit_index() >= index);
    }
}
