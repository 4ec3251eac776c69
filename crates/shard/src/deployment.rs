//! The sharded deployment: S replication clusters in lock-step on one
//! virtual clock, a key-shard router in front, and a deterministic
//! cross-shard 2PC orchestrator driving the `crosschain` contracts over
//! the live replicated channels.
//!
//! # One shared virtual clock
//!
//! Each shard is a full [`ClusterSim`] (its own Raft orderer group, its
//! own peer set, its own event queue). The deployment advances every
//! cluster to the same virtual-time boundary in fixed shard order, one
//! *slice* at a time; cross-shard coordination happens only at slice
//! boundaries, from committed state. Because each cluster is internally
//! deterministic and the inter-cluster schedule is a pure function of the
//! boundary sequence, the whole deployment is deterministic: same config
//! and seed ⇒ bit-identical per-shard histories and state roots.
//!
//! # One op engine
//!
//! Every operation is an [`OpSpec`]: one `direct` transaction plus
//! participant legs, each routed by its key. A transfer is one spec
//! shape (a `prepare_debit` leg keyed by the source account, a
//! `prepare_credit` leg keyed by the destination; see
//! [`ShardedDeployment::schedule_transfer`]); scenario crates such as the
//! TPC-C workload describe their multi-shard transactions the same way.
//! When every leg routes to one shard, the `direct` transaction runs
//! there atomically and the op never pays the 2PC cost.
//!
//! # 2PC over Raft
//!
//! An op whose legs span shards runs the per-op state machine,
//! coordinated from the first leg's shard (a transfer's source shard):
//!
//! 1. **begin** — the coordinator record (`CoordinatorContract`) is
//!    written on the coordinator shard's channel, ordered through its
//!    Raft log. The op's trace is minted here.
//! 2. **prepare** — every leg's `prepare` function reserves its effects
//!    under the request id (a transfer's `prepare_debit` locks the funds,
//!    its `prepare_credit` records the intent). An endorsement rejection
//!    is a NO vote; an MVCC invalidation is neither vote — the leg is
//!    re-driven until it commits decisively.
//! 3. **decide** — once every vote is in, the decision is written to the
//!    coordinator record *and replicated through Raft* before any
//!    acknowledgement: a decision that survives only in the
//!    orchestrator's memory could be lost with a crashed leader, but a
//!    decision in the Raft log survives any minority failure.
//! 4. **finalize** — `commit`/`abort` on every leg's participant. A leg
//!    invalidated by a concurrent write is re-driven *from the
//!    replicated decision record* (the coordinator-recovery path): the
//!    orchestrator re-reads the on-chain decision and re-submits, so an
//!    in-doubt request always terminates even across failover.
//!
//! Participant terminal states are idempotent (see
//! `ledgerview_crosschain::contracts`), so crash-replayed decisions and
//! duplicate finalize legs are absorbed as no-ops.
//!
//! "Acceptance is a promise" holds end-to-end: admission is all-or-
//! nothing across the involved shards' token buckets, and once admitted,
//! every leg is eventually ordered and committed by the per-shard
//! cluster's watchdog/rerouting machinery — under leader kills, peer
//! crashes, and partitions from the [`Fault`] schedule.

use std::path::PathBuf;
use std::sync::Arc;

use fabric_sim::chaincode::Chaincode;
use fabric_sim::validation::TxValidation;
use ledgerview_cluster::{
    ClusterConfig, ClusterError, ClusterReport, ClusterSim, Fault, InvokeOutcome,
};
use ledgerview_crosschain::contracts::{
    locked_total, read_coord_state, total_balances, unresolved_requests, CoordState,
    CoordinatorContract, TransferContract, COORDINATOR_CC, TRANSFER_CC,
};
use ledgerview_crypto::sha256::Digest;
use ledgerview_gateway::{Route, ShardMap, ShardRouter};
use ledgerview_simnet::SimTime;
use ledgerview_telemetry::{Telemetry, TraceContext};

use crate::metrics::ShardMetrics;

/// Span stages for the 2PC phases, disjoint from the cluster pipeline's
/// (`ledgerview_cluster::cluster::stage`). Every per-shard leg submits
/// with a context parented under its phase span, so one cross-shard op
/// renders as a single Perfetto trace spanning all shard lanes.
pub mod stage {
    /// Coordinator `begin` on the first leg's shard.
    pub const BEGIN: u64 = 0x2000;
    /// The prepare fan-out (every leg).
    pub const PREPARE: u64 = 0x2001;
    /// The replicated decision write.
    pub const DECIDE: u64 = 0x2002;
    /// The commit/abort fan-out.
    pub const FINALIZE: u64 = 0x2003;
    /// A single-shard op's `direct` transaction (no 2PC), transfers
    /// included.
    pub const LOCAL: u64 = 0x2004;
}

/// Shape and timing of a sharded deployment.
#[derive(Clone)]
pub struct ShardConfig {
    /// Number of shard channels.
    pub shards: usize,
    /// Master seed; each shard's cluster derives its own sub-seed.
    pub seed: u64,
    /// Root directory; shard `i` persists under `<root>/shard<i>`.
    pub storage_root: PathBuf,
    /// Raft orderers per shard channel.
    pub orderers_per_shard: usize,
    /// Committing peers per shard channel.
    pub peers_per_shard: usize,
    /// Block-cutter period on every shard.
    pub block_interval: SimTime,
    /// Lock-step slice: how far each cluster advances before the
    /// orchestrator looks at outcomes again. Must be non-zero. Smaller
    /// slices mean lower 2PC latency and more orchestrator activity;
    /// determinism is unaffected.
    pub slice: SimTime,
    /// Per-shard admission rate (transactions per virtual second).
    pub admission_rate_per_sec: f64,
    /// Per-shard admission burst capacity.
    pub admission_burst: u64,
    /// Endorsement signature production/verification (off by default:
    /// the scale-out bench measures pipeline structure, not crypto).
    pub check_signatures: bool,
    /// Explicit shard-map pins for composite namespaces, `(prefix,
    /// shard)`.
    pub pins: Vec<(String, usize)>,
    /// Extra chaincodes deployed on every replica of every shard (on top
    /// of the transfer and coordinator contracts), `(name, factory)`.
    /// Scenario crates use this to install their own participants — e.g.
    /// the TPC-C contract — without forking the deployment.
    pub workloads: Vec<(String, ledgerview_cluster::WorkloadFactory)>,
}

impl ShardConfig {
    /// A deployment of `shards` channels (3 orderers + 2 peers each)
    /// persisting under `storage_root`.
    pub fn new(storage_root: impl Into<PathBuf>, shards: usize, seed: u64) -> ShardConfig {
        ShardConfig {
            shards: shards.max(1),
            seed,
            storage_root: storage_root.into(),
            orderers_per_shard: 3,
            peers_per_shard: 2,
            block_interval: SimTime::from_millis(250),
            slice: SimTime::from_millis(50),
            admission_rate_per_sec: 100_000.0,
            admission_burst: 100_000,
            check_signatures: false,
            pins: Vec::new(),
            workloads: Vec::new(),
        }
    }

    /// The derived [`ClusterConfig`] for shard `i`.
    pub fn cluster_config(&self, shard: usize) -> ClusterConfig {
        let sub_seed = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1));
        let mut cfg = ClusterConfig::new(self.storage_root.join(format!("shard{shard}")), sub_seed);
        cfg.orderers = self.orderers_per_shard;
        cfg.peers = self.peers_per_shard;
        cfg.block_interval = self.block_interval;
        cfg.check_signatures = self.check_signatures;
        cfg.lane_prefix = format!("shard{shard}/");
        let transfer: ledgerview_cluster::WorkloadFactory =
            Arc::new(|| Box::new(TransferContract) as Box<dyn Chaincode>);
        let coordinator: ledgerview_cluster::WorkloadFactory =
            Arc::new(|| Box::new(CoordinatorContract) as Box<dyn Chaincode>);
        cfg.workloads = vec![
            (TRANSFER_CC.to_string(), transfer),
            (COORDINATOR_CC.to_string(), coordinator),
        ];
        cfg.workloads.extend(self.workloads.iter().cloned());
        cfg
    }
}

/// Errors surfaced by a sharded deployment.
#[derive(Debug)]
pub enum ShardError {
    /// A shard's cluster failed (divergence, non-convergence, …).
    Cluster {
        /// The failing shard.
        shard: usize,
        /// The underlying cluster error.
        source: ClusterError,
    },
    /// The deployment did not reach quiescence by the deadline.
    NotConverged {
        /// The deadline that expired.
        deadline: SimTime,
        /// Ops still in flight, transfers included.
        inflight: usize,
    },
    /// Global conservation was violated: Σ balances + Σ locks ≠ Σ opened.
    Conservation {
        /// What the opened accounts sum to.
        expected: u64,
        /// What the shards actually hold.
        actual: u64,
    },
    /// 2PC requests left permanently prepared locks after quiescence.
    LockedRequests(Vec<String>),
    /// Unexpected protocol outcomes (e.g. a begin that failed).
    Protocol(Vec<String>),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Cluster { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
            ShardError::NotConverged { deadline, inflight } => {
                write!(f, "not converged by {deadline:?}: {inflight} ops in flight")
            }
            ShardError::Conservation { expected, actual } => write!(
                f,
                "conservation violated: opened {expected}, shards hold {actual}"
            ),
            ShardError::LockedRequests(reqs) => {
                write!(f, "permanently locked requests: {reqs:?}")
            }
            ShardError::Protocol(errors) => write!(f, "protocol errors: {errors:?}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Terminal status of a scheduled transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransferStatus {
    /// Still working through its phases.
    InFlight,
    /// Refused at admission; nothing entered any shard.
    Shed,
    /// Applied atomically (locally or via 2PC).
    Committed,
    /// Aborted atomically; no balance moved.
    Aborted {
        /// Deterministic reason string.
        reason: String,
    },
}

/// One scheduled transfer and its fate.
#[derive(Clone, Debug)]
pub struct TransferRecord {
    /// Request id (`t<ordinal>`), also the 2PC request key.
    pub id: String,
    /// Source account.
    pub src: String,
    /// Destination account.
    pub dst: String,
    /// Amount.
    pub amount: u64,
    /// Shard owning the source account.
    pub src_shard: usize,
    /// Shard owning the destination account.
    pub dst_shard: usize,
    /// Current status.
    pub status: TransferStatus,
    /// Times any leg of this transfer was re-driven.
    pub redrives: u64,
}

/// End-of-run summary of a sharded deployment.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Per-shard cluster reports, in shard order.
    pub shards: Vec<ClusterReport>,
    /// Every scheduled transfer with its outcome.
    pub transfers: Vec<TransferRecord>,
    /// Per-shard canonical state roots at the committed tip.
    pub state_roots: Vec<Digest>,
    /// Sum of all committed `open` amounts.
    pub opened_total: u64,
    /// Committed / aborted / shed transfer counts.
    pub committed: u64,
    /// Aborted transfers.
    pub aborted: u64,
    /// Admission-shed transfers.
    pub shed: u64,
    /// Total leg re-drives across all ops, transfers included.
    pub redrives: u64,
    /// Transactions committed on every shard combined (all workloads).
    pub total_txs: u64,
}

/// One participant leg of a generic cross-shard operation.
///
/// `key` routes the leg (admission + shard resolution); `chaincode` is the
/// participant contract deployed via [`ShardConfig::workloads`]. Its
/// `prepare` function is invoked as `(op_id, args…)` and must either
/// reserve its effects under the op id (YES vote), reject with a
/// chaincode error (NO vote), or be invalidated by MVCC (no vote — the
/// leg is re-driven). The same contract must expose idempotent
/// `commit(op_id)` / `abort(op_id)` finalize functions.
#[derive(Clone, Debug)]
pub struct OpLeg {
    /// Routing key: decides the shard and feeds admission control.
    pub key: String,
    /// Participant chaincode name.
    pub chaincode: String,
    /// Prepare function on that chaincode.
    pub prepare: String,
    /// Extra prepare arguments, appended after the op id.
    pub args: Vec<Vec<u8>>,
}

/// A generic operation scheduled through the deployment's router and —
/// when its legs land on different shards — its 2PC orchestrator.
/// Transfers are one `OpSpec` shape; scenario crates (e.g. the TPC-C
/// workload) describe their multi-shard transactions as an `OpSpec`
/// instead of forking the deployment.
#[derive(Clone, Debug)]
pub struct OpSpec {
    /// Unique request id; shares the coordinator namespace with transfers
    /// (`t<ordinal>`), so pick a disjoint scheme (e.g. `op<ordinal>`).
    pub id: String,
    /// `(chaincode, function, args)` submitted as one atomic transaction
    /// when every leg routes to the same shard.
    pub direct: (String, String, Vec<Vec<u8>>),
    /// Participant legs; the first leg's shard hosts the coordinator
    /// record.
    pub legs: Vec<OpLeg>,
}

/// One scheduled generic operation and its fate.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// The spec's request id.
    pub id: String,
    /// Terminal status (shares [`TransferStatus`] semantics).
    pub status: TransferStatus,
    /// Whether the op ran the cross-shard protocol (vs one direct tx).
    pub cross: bool,
    /// Times any leg was re-driven after MVCC invalidation.
    pub redrives: u64,
    /// Virtual time the op was scheduled, microseconds.
    pub submitted_us: u64,
    /// Virtual time the op reached a terminal state (0 while in flight).
    pub completed_us: u64,
}

#[derive(Clone, Debug)]
enum OpState {
    WaitDirect,
    WaitBegin,
    Preparing { votes: Vec<Option<bool>> },
    WaitDecide { commit: bool },
    Finalizing { commit: bool, remaining: Vec<usize> },
    Done,
}

/// A leg with its shard resolved.
#[derive(Clone, Debug)]
struct LegPlan {
    shard: usize,
    chaincode: String,
    prepare: String,
    args: Vec<Vec<u8>>,
}

struct Op {
    rec: OpRecord,
    ctx: TraceContext,
    state: OpState,
    direct: (String, String, Vec<Vec<u8>>),
    direct_shard: usize,
    coordinator_shard: usize,
    legs: Vec<LegPlan>,
    prepare_started_us: u64,
    decide_started_us: u64,
    finalize_started_us: u64,
    no_reason: Option<String>,
}

#[derive(Clone, Copy, Debug)]
enum TagKind {
    Open { shard: usize, amount: u64 },
    OpDirect { o: usize },
    OpBegin { o: usize },
    OpPrepare { o: usize, leg: usize },
    OpDecide { o: usize },
    OpFinalize { o: usize, leg: usize },
}

/// The sharded multi-channel deployment. See the module docs for the
/// clock and protocol architecture.
pub struct ShardedDeployment {
    cfg: ShardConfig,
    clusters: Vec<ClusterSim>,
    router: ShardRouter,
    now: SimTime,
    /// Every scheduled op in schedule order, transfers included.
    ops: Vec<Op>,
    /// [`ShardedDeployment::schedule_op`] index → `ops` index.
    spec_ops: Vec<usize>,
    /// [`ShardedDeployment::schedule_transfer`] index → `ops` index and
    /// the transfer's record (its status and redrives live on the op).
    transfers: Vec<(usize, TransferRecord)>,
    tags: std::collections::BTreeMap<u64, TagKind>,
    next_tag: u64,
    opened_total: u64,
    redrives: u64,
    /// Leader kills awaiting a visible leader on their shard.
    pending_kills: Vec<(SimTime, usize)>,
    errors: Vec<String>,
    metrics: Option<ShardMetrics>,
}

impl ShardedDeployment {
    /// Build the deployment: S clusters (each deploying the transfer and
    /// coordinator contracts on every replica) plus the shard router.
    pub fn new(cfg: ShardConfig) -> Result<ShardedDeployment, ShardError> {
        let mut clusters = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let cluster = ClusterSim::new(cfg.cluster_config(s))
                .map_err(|source| ShardError::Cluster { shard: s, source })?;
            clusters.push(cluster);
        }
        let mut map = ShardMap::new(cfg.shards);
        for (prefix, shard) in &cfg.pins {
            map.pin_prefix(prefix, *shard);
        }
        let router = ShardRouter::new(map, cfg.admission_rate_per_sec, cfg.admission_burst);
        Ok(ShardedDeployment {
            cfg,
            clusters,
            router,
            now: SimTime::ZERO,
            ops: Vec::new(),
            spec_ops: Vec::new(),
            transfers: Vec::new(),
            tags: std::collections::BTreeMap::new(),
            next_tag: 0,
            opened_total: 0,
            redrives: 0,
            pending_kills: Vec::new(),
            errors: Vec::new(),
            metrics: None,
        })
    }

    /// Attach telemetry: `lv_shard_*` families plus every shard
    /// cluster's `lv_cluster_*`/`lv_trace_*` on prefixed process lanes.
    /// Observational only.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        for cluster in &mut self.clusters {
            cluster.set_telemetry(telemetry);
        }
        self.metrics = Some(ShardMetrics::new(telemetry, self.cfg.shards));
    }

    /// Current virtual time (the last lock-step boundary reached).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of shard channels.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// Borrow one shard's cluster read-only (e.g. to inspect balances on
    /// its canonical committed state).
    pub fn cluster(&self, shard: usize) -> &ClusterSim {
        &self.clusters[shard]
    }

    /// The shard owning an account.
    pub fn shard_of_account(&self, acct: &str) -> usize {
        self.router.map().shard_for_key(&format!("acct~{acct}"))
    }

    fn mint_tag(&mut self, kind: TagKind) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.tags.insert(tag, kind);
        tag
    }

    /// Schedule `open(acct, amount)` on the account's owning shard.
    pub fn schedule_open(&mut self, at: SimTime, acct: &str, amount: u64) {
        let shard = self.shard_of_account(acct);
        let tag = self.mint_tag(TagKind::Open { shard, amount });
        let args = vec![acct.as_bytes().to_vec(), amount.to_be_bytes().to_vec()];
        self.clusters[shard].schedule_call(at, TRANSFER_CC, "open", args, tag, None);
    }

    /// Schedule a transfer as one [`OpSpec`] with id `t<ordinal>`: same
    /// shard ⇒ a single atomic `transfer` transaction; different shards
    /// ⇒ the full 2PC protocol, coordinated from the source shard.
    /// Returns the transfer's index into [`ShardReport::transfers`].
    ///
    /// Schedule in non-decreasing `at` order (admission buckets refill
    /// from the schedule clock).
    pub fn schedule_transfer(&mut self, at: SimTime, src: &str, dst: &str, amount: u64) -> usize {
        let t = self.transfers.len();
        let id = format!("t{t}");
        let amount_be = amount.to_be_bytes().to_vec();
        let leg = |acct: &str, prepare: &str| OpLeg {
            key: format!("acct~{acct}"),
            chaincode: TRANSFER_CC.into(),
            prepare: prepare.into(),
            args: vec![acct.as_bytes().to_vec(), amount_be.clone()],
        };
        let spec = OpSpec {
            id: id.clone(),
            direct: (
                TRANSFER_CC.into(),
                "transfer".into(),
                vec![src.into(), dst.into(), amount_be.clone()],
            ),
            legs: vec![leg(src, "prepare_debit"), leg(dst, "prepare_credit")],
        };
        // Transfer traces root under their own salt and ordinal, so they
        // never collide with `schedule_op` traces under the same seed.
        let ctx = TraceContext::root(self.cfg.seed ^ 0x7366_6572_5f32_7063, t as u64);
        let o = self.start_op(at, spec, ctx);
        let rec = TransferRecord {
            id,
            src: src.to_string(),
            dst: dst.to_string(),
            amount,
            src_shard: self.ops[o].legs[0].shard,
            dst_shard: self.ops[o].legs[1].shard,
            status: TransferStatus::InFlight,
            redrives: 0,
        };
        self.transfers.push((o, rec));
        t
    }

    /// Schedule a generic operation. Routed by its legs' keys: all on one
    /// shard ⇒ the `direct` transaction runs atomically there; spread
    /// across shards ⇒ the full 2PC protocol over each leg's participant
    /// chaincode, coordinated from the first leg's shard. Returns the op's
    /// index (see [`ShardedDeployment::op`]).
    ///
    /// Schedule in non-decreasing `at` order, interleaved freely with
    /// transfers (both share the router's admission buckets).
    pub fn schedule_op(&mut self, at: SimTime, spec: OpSpec) -> usize {
        let idx = self.spec_ops.len();
        // A salt disjoint from the transfer path's, so op traces never
        // collide with transfer traces under the same seed.
        let ctx = TraceContext::root(self.cfg.seed ^ 0x6F70_5F32_7063_3031, idx as u64);
        let o = self.start_op(at, spec, ctx);
        self.spec_ops.push(o);
        idx
    }

    /// Admit and route one op, then submit its first transaction (the
    /// `direct` one, or the coordinator `begin`). Returns its `ops` index.
    fn start_op(&mut self, at: SimTime, spec: OpSpec, ctx: TraceContext) -> usize {
        let admitted = self
            .router
            .admit(spec.legs.iter().map(|l| l.key.as_str()), at.as_micros());
        let legs: Vec<LegPlan> = spec
            .legs
            .iter()
            .map(|l| LegPlan {
                shard: self.router.map().shard_for_key(&l.key),
                chaincode: l.chaincode.clone(),
                prepare: l.prepare.clone(),
                args: l.args.clone(),
            })
            .collect();
        let coordinator_shard = legs.first().map(|l| l.shard).unwrap_or(0);
        let mut op = Op {
            rec: OpRecord {
                id: spec.id.clone(),
                status: TransferStatus::InFlight,
                cross: false,
                redrives: 0,
                submitted_us: at.as_micros(),
                completed_us: 0,
            },
            ctx,
            state: OpState::Done,
            direct: spec.direct,
            direct_shard: coordinator_shard,
            coordinator_shard,
            legs,
            prepare_started_us: 0,
            decide_started_us: 0,
            finalize_started_us: 0,
            no_reason: None,
        };
        let o = self.ops.len();
        match admitted {
            Err(_) => {
                op.rec.status = TransferStatus::Shed;
                if let Some(m) = &self.metrics {
                    m.aborts_admission.inc();
                }
                self.ops.push(op);
            }
            Ok(Route::Single(shard)) => {
                op.direct_shard = shard;
                op.state = OpState::WaitDirect;
                if let Some(m) = &self.metrics {
                    m.transfers_single.inc();
                }
                self.ops.push(op);
                let tag = self.mint_tag(TagKind::OpDirect { o });
                let (cc, function, args) = self.ops[o].direct.clone();
                let leg_ctx = ctx.with_parent(ctx.span_id(stage::LOCAL));
                self.clusters[shard].schedule_call(at, &cc, &function, args, tag, Some(leg_ctx));
            }
            Ok(Route::Cross(_)) => {
                op.rec.cross = true;
                op.state = OpState::WaitBegin;
                if let Some(m) = &self.metrics {
                    m.transfers_cross.inc();
                }
                self.ops.push(op);
                let tag = self.mint_tag(TagKind::OpBegin { o });
                let args = vec![spec.id.into_bytes()];
                let leg_ctx = ctx.with_parent(ctx.span_id(stage::BEGIN));
                self.clusters[coordinator_shard].schedule_call(
                    at,
                    COORDINATOR_CC,
                    "begin",
                    args,
                    tag,
                    Some(leg_ctx),
                );
            }
        }
        o
    }

    /// One scheduled op's record.
    pub fn op(&self, idx: usize) -> &OpRecord {
        &self.ops[self.spec_ops[idx]].rec
    }

    /// Every [`ShardedDeployment::schedule_op`] record, in schedule
    /// order (transfers are reported in [`ShardReport::transfers`]).
    pub fn op_records(&self) -> Vec<OpRecord> {
        self.spec_ops
            .iter()
            .map(|&o| self.ops[o].rec.clone())
            .collect()
    }

    /// Schedule a [`Fault`] on one shard's cluster.
    pub fn schedule_fault(&mut self, shard: usize, at: SimTime, fault: Fault) {
        self.clusters[shard].schedule_fault(at, fault);
    }

    /// Kill whichever orderer leads `shard`'s Raft group at (or shortly
    /// after) `at`: the leader is resolved at the first lock-step
    /// boundary past `at` where the group has one, then killed. The
    /// resolution is deterministic because leadership itself is.
    pub fn schedule_leader_kill(&mut self, shard: usize, at: SimTime) {
        self.pending_kills.push((at, shard));
    }

    /// Advance every shard cluster, in lock step, to `end`.
    pub fn run_until(&mut self, end: SimTime) {
        while self.now < end {
            let next = (self.now + self.cfg.slice).min(end);
            for cluster in &mut self.clusters {
                cluster.run_until(next);
            }
            self.now = next;
            self.advance();
        }
    }

    /// Run lock-step slices until every cluster is quiescent and every
    /// op (transfers included) terminal, or fail at `deadline`.
    pub fn run_until_converged(&mut self, deadline: SimTime) -> Result<SimTime, ShardError> {
        loop {
            if self.converged() {
                return Ok(self.now);
            }
            if self.now >= deadline {
                return Err(ShardError::NotConverged {
                    deadline,
                    inflight: self
                        .ops
                        .iter()
                        .filter(|o| o.rec.status == TransferStatus::InFlight)
                        .count(),
                });
            }
            let next = (self.now + self.cfg.slice).min(deadline);
            self.run_until(next);
        }
    }

    fn converged(&self) -> bool {
        self.pending_kills.is_empty()
            && self
                .ops
                .iter()
                .all(|o| o.rec.status != TransferStatus::InFlight)
            && self.clusters.iter().all(|c| c.is_converged())
    }

    /// One orchestrator step at a lock-step boundary: resolve leader
    /// kills, drain every shard's outcomes in shard order, advance the
    /// per-op state machines, sample queue depths.
    fn advance(&mut self) {
        let now = self.now;
        let mut kills = std::mem::take(&mut self.pending_kills);
        kills.retain(|&(at, shard)| {
            if now < at {
                return true;
            }
            match self.clusters[shard].current_leader() {
                Some(leader) => {
                    self.clusters[shard].schedule_fault(now, Fault::KillOrderer(leader));
                    false
                }
                // No stable leader this boundary (mid-election): retry.
                None => true,
            }
        });
        self.pending_kills = kills;

        for s in 0..self.clusters.len() {
            for (tag, outcome) in self.clusters[s].take_outcomes() {
                self.on_outcome(tag, outcome);
            }
        }
        if let Some(m) = &self.metrics {
            for (s, cluster) in self.clusters.iter().enumerate() {
                m.set_queue_depth(s, cluster.pending_txs() as u64);
            }
        }
    }

    fn on_outcome(&mut self, tag: u64, outcome: InvokeOutcome) {
        let Some(kind) = self.tags.remove(&tag) else {
            self.errors.push(format!("unknown tag {tag}"));
            return;
        };
        if let (Some(m), InvokeOutcome::Committed { valid }) = (&self.metrics, &outcome) {
            if valid.is_valid() {
                let shard = match kind {
                    TagKind::Open { shard, .. } => Some(shard),
                    TagKind::OpDirect { o } => Some(self.ops[o].direct_shard),
                    TagKind::OpBegin { o } | TagKind::OpDecide { o } => {
                        Some(self.ops[o].coordinator_shard)
                    }
                    TagKind::OpPrepare { o, leg } | TagKind::OpFinalize { o, leg } => {
                        Some(self.ops[o].legs[leg].shard)
                    }
                };
                if let Some(shard) = shard {
                    m.inc_txs(shard);
                }
            }
        }
        match kind {
            TagKind::Open { amount, .. } => match outcome {
                InvokeOutcome::Committed {
                    valid: TxValidation::Valid,
                } => self.opened_total += amount,
                other => self.errors.push(format!("open failed: {other:?}")),
            },
            TagKind::OpDirect { o } => self.on_op_direct(o, outcome),
            TagKind::OpBegin { o } => self.on_op_begin(o, outcome),
            TagKind::OpPrepare { o, leg } => self.on_op_prepare(o, leg, outcome),
            TagKind::OpDecide { o } => self.on_op_decide(o, outcome),
            TagKind::OpFinalize { o, leg } => self.on_op_finalize(o, leg, outcome),
        }
    }

    fn record_op_span(&self, o: usize, name: &str, phase: u64, parent: u64, start_us: u64) {
        let Some(m) = &self.metrics else { return };
        let op = &self.ops[o];
        let ctx = if parent == 0 {
            op.ctx
        } else {
            op.ctx.with_parent(op.ctx.span_id(parent))
        };
        m.telemetry.tracer().record_linked(
            name,
            start_us,
            self.now.as_micros(),
            m.coordinator_proc,
            "2pc",
            op.ctx.span_id(phase),
            ctx,
        );
    }

    fn op_terminal(&mut self, o: usize, status: TransferStatus) {
        self.ops[o].rec.status = status;
        self.ops[o].rec.completed_us = self.now.as_micros();
        self.ops[o].state = OpState::Done;
    }

    fn on_op_direct(&mut self, o: usize, outcome: InvokeOutcome) {
        match outcome {
            InvokeOutcome::Committed {
                valid: TxValidation::Valid,
            } => {
                self.record_op_span(
                    o,
                    "op.direct",
                    stage::LOCAL,
                    0,
                    self.ops[o].rec.submitted_us,
                );
                self.op_terminal(o, TransferStatus::Committed);
            }
            InvokeOutcome::Committed {
                valid: TxValidation::MvccConflict { .. },
            } => {
                self.redrive_op(o);
                let tag = self.mint_tag(TagKind::OpDirect { o });
                let (cc, function, args) = self.ops[o].direct.clone();
                let op = &self.ops[o];
                let leg_ctx = op.ctx.with_parent(op.ctx.span_id(stage::LOCAL));
                let shard = op.direct_shard;
                self.clusters[shard].schedule_call(
                    self.now,
                    &cc,
                    &function,
                    args,
                    tag,
                    Some(leg_ctx),
                );
            }
            InvokeOutcome::EndorseFailed(reason)
            | InvokeOutcome::Committed {
                valid: TxValidation::EndorsementFailure { reason },
            } => {
                self.count_abort(Some(&reason));
                self.op_terminal(o, TransferStatus::Aborted { reason });
            }
        }
    }

    fn on_op_begin(&mut self, o: usize, outcome: InvokeOutcome) {
        match outcome {
            InvokeOutcome::Committed {
                valid: TxValidation::Valid,
            } => {
                self.record_op_span(
                    o,
                    "2pc.begin",
                    stage::BEGIN,
                    0,
                    self.ops[o].rec.submitted_us,
                );
                let n = self.ops[o].legs.len();
                self.ops[o].state = OpState::Preparing {
                    votes: vec![None; n],
                };
                self.ops[o].prepare_started_us = self.now.as_micros();
                for leg in 0..n {
                    self.send_op_prepare(o, leg);
                }
            }
            other => {
                self.errors.push(format!(
                    "op begin({}) failed: {other:?}",
                    self.ops[o].rec.id
                ));
                self.op_terminal(
                    o,
                    TransferStatus::Aborted {
                        reason: "begin failed".into(),
                    },
                );
            }
        }
    }

    fn send_op_prepare(&mut self, o: usize, leg: usize) {
        let op = &self.ops[o];
        let plan = op.legs[leg].clone();
        let mut args = vec![op.rec.id.as_bytes().to_vec()];
        args.extend(plan.args.iter().cloned());
        let leg_ctx = op.ctx.with_parent(op.ctx.span_id(stage::PREPARE));
        let tag = self.mint_tag(TagKind::OpPrepare { o, leg });
        self.clusters[plan.shard].schedule_call(
            self.now,
            &plan.chaincode,
            &plan.prepare,
            args,
            tag,
            Some(leg_ctx),
        );
    }

    fn on_op_prepare(&mut self, o: usize, leg: usize, outcome: InvokeOutcome) {
        let vote = match outcome {
            InvokeOutcome::Committed {
                valid: TxValidation::Valid,
            } => Some(true),
            InvokeOutcome::Committed {
                valid: TxValidation::MvccConflict { .. },
            } => {
                self.redrive_op(o);
                self.send_op_prepare(o, leg);
                return;
            }
            InvokeOutcome::EndorseFailed(reason)
            | InvokeOutcome::Committed {
                valid: TxValidation::EndorsementFailure { reason },
            } => {
                if self.ops[o].no_reason.is_none() {
                    self.ops[o].no_reason = Some(reason);
                }
                Some(false)
            }
        };
        let OpState::Preparing { mut votes } = self.ops[o].state.clone() else {
            self.errors.push(format!(
                "op prepare outcome in state {:?}",
                self.ops[o].state
            ));
            return;
        };
        votes[leg] = vote;
        if votes.iter().all(|v| v.is_some()) {
            let commit = votes.iter().all(|v| *v == Some(true));
            self.record_op_span(
                o,
                "2pc.prepare",
                stage::PREPARE,
                stage::BEGIN,
                self.ops[o].prepare_started_us,
            );
            if let Some(m) = &self.metrics {
                m.phase_prepare_us.observe(
                    self.now
                        .as_micros()
                        .saturating_sub(self.ops[o].prepare_started_us),
                );
            }
            self.ops[o].state = OpState::WaitDecide { commit };
            self.ops[o].decide_started_us = self.now.as_micros();
            self.send_op_decide(o, commit);
        } else {
            self.ops[o].state = OpState::Preparing { votes };
        }
    }

    fn send_op_decide(&mut self, o: usize, commit: bool) {
        let op = &self.ops[o];
        let args = vec![
            op.rec.id.as_bytes().to_vec(),
            vec![if commit { 1 } else { 0 }],
        ];
        let leg_ctx = op.ctx.with_parent(op.ctx.span_id(stage::DECIDE));
        let shard = op.coordinator_shard;
        let tag = self.mint_tag(TagKind::OpDecide { o });
        self.clusters[shard].schedule_call(
            self.now,
            COORDINATOR_CC,
            "decide",
            args,
            tag,
            Some(leg_ctx),
        );
    }

    fn on_op_decide(&mut self, o: usize, outcome: InvokeOutcome) {
        let OpState::WaitDecide { commit } = self.ops[o].state else {
            self.errors.push(format!(
                "op decide outcome in state {:?}",
                self.ops[o].state
            ));
            return;
        };
        match outcome {
            InvokeOutcome::Committed {
                valid: TxValidation::Valid,
            } => {
                self.record_op_span(
                    o,
                    "2pc.decide",
                    stage::DECIDE,
                    stage::PREPARE,
                    self.ops[o].decide_started_us,
                );
                if let Some(m) = &self.metrics {
                    m.phase_decide_us.observe(
                        self.now
                            .as_micros()
                            .saturating_sub(self.ops[o].decide_started_us),
                    );
                }
                self.start_op_finalize(o, commit);
            }
            InvokeOutcome::Committed {
                valid: TxValidation::MvccConflict { .. },
            } => {
                self.redrive_op(o);
                self.send_op_decide(o, commit);
            }
            InvokeOutcome::EndorseFailed(reason) => {
                if !reason.contains("already decided") {
                    self.errors.push(format!(
                        "op decide({}) failed: {reason}",
                        self.ops[o].rec.id
                    ));
                }
                self.start_op_finalize(o, commit);
            }
            InvokeOutcome::Committed {
                valid: TxValidation::EndorsementFailure { reason },
            } => {
                self.errors.push(format!(
                    "op decide({}) invalid: {reason}",
                    self.ops[o].rec.id
                ));
                self.start_op_finalize(o, commit);
            }
        }
    }

    fn start_op_finalize(&mut self, o: usize, commit: bool) {
        let remaining: Vec<usize> = (0..self.ops[o].legs.len()).collect();
        self.ops[o].state = OpState::Finalizing {
            commit,
            remaining: remaining.clone(),
        };
        self.ops[o].finalize_started_us = self.now.as_micros();
        for leg in remaining {
            self.send_op_finalize(o, leg, commit);
        }
    }

    fn send_op_finalize(&mut self, o: usize, leg: usize, commit: bool) {
        let op = &self.ops[o];
        let plan = op.legs[leg].clone();
        let function = if commit { "commit" } else { "abort" };
        let args = vec![op.rec.id.as_bytes().to_vec()];
        let leg_ctx = op.ctx.with_parent(op.ctx.span_id(stage::FINALIZE));
        let tag = self.mint_tag(TagKind::OpFinalize { o, leg });
        self.clusters[plan.shard].schedule_call(
            self.now,
            &plan.chaincode,
            function,
            args,
            tag,
            Some(leg_ctx),
        );
    }

    fn on_op_finalize(&mut self, o: usize, leg: usize, outcome: InvokeOutcome) {
        let OpState::Finalizing { commit, remaining } = self.ops[o].state.clone() else {
            self.errors.push(format!(
                "op finalize outcome in state {:?}",
                self.ops[o].state
            ));
            return;
        };
        match outcome {
            InvokeOutcome::Committed {
                valid: TxValidation::Valid,
            } => {
                let remaining: Vec<usize> = remaining.into_iter().filter(|&l| l != leg).collect();
                if remaining.is_empty() {
                    self.record_op_span(
                        o,
                        "2pc.finalize",
                        stage::FINALIZE,
                        stage::DECIDE,
                        self.ops[o].finalize_started_us,
                    );
                    if let Some(m) = &self.metrics {
                        m.phase_finalize_us.observe(
                            self.now
                                .as_micros()
                                .saturating_sub(self.ops[o].finalize_started_us),
                        );
                    }
                    let status = if commit {
                        TransferStatus::Committed
                    } else {
                        let reason = self.ops[o].no_reason.clone();
                        self.count_abort(reason.as_deref());
                        TransferStatus::Aborted {
                            reason: reason.unwrap_or_else(|| "prepare voted no".into()),
                        }
                    };
                    self.op_terminal(o, status);
                } else {
                    self.ops[o].state = OpState::Finalizing { commit, remaining };
                }
            }
            InvokeOutcome::Committed {
                valid: TxValidation::MvccConflict { .. },
            } => {
                // Coordinator recovery: the finalize leg was invalidated
                // by a concurrent write. Re-read the *replicated*
                // decision record and re-drive the leg from it — never
                // from orchestrator memory alone.
                self.redrive_op(o);
                let coord_shard = self.ops[o].coordinator_shard;
                let recorded = read_coord_state(
                    self.clusters[coord_shard].canonical_state(),
                    &self.ops[o].rec.id,
                );
                let commit_again = match recorded {
                    Some(CoordState::Committed) => true,
                    Some(CoordState::Aborted) => false,
                    other => {
                        self.errors.push(format!(
                            "op finalize redrive of {} found coordinator state {other:?}",
                            self.ops[o].rec.id
                        ));
                        commit
                    }
                };
                self.send_op_finalize(o, leg, commit_again);
            }
            InvokeOutcome::EndorseFailed(reason)
            | InvokeOutcome::Committed {
                valid: TxValidation::EndorsementFailure { reason },
            } => {
                self.errors.push(format!(
                    "op finalize({}, leg {leg}) failed: {reason}",
                    self.ops[o].rec.id
                ));
                let remaining: Vec<usize> = remaining.into_iter().filter(|&l| l != leg).collect();
                if remaining.is_empty() {
                    self.op_terminal(
                        o,
                        TransferStatus::Aborted {
                            reason: "finalize failed".into(),
                        },
                    );
                } else {
                    self.ops[o].state = OpState::Finalizing { commit, remaining };
                }
            }
        }
    }

    fn redrive_op(&mut self, o: usize) {
        self.ops[o].rec.redrives += 1;
        self.redrives += 1;
        if let Some(m) = &self.metrics {
            m.redrives.inc();
        }
    }

    /// Count an abort by its reason: insufficient funds, or any other
    /// NO vote (`None` when no participant gave a reason).
    fn count_abort(&self, reason: Option<&str>) {
        if let Some(m) = &self.metrics {
            if reason.is_some_and(|r| r.contains("insufficient")) {
                m.aborts_insufficient.inc();
            } else {
                m.aborts_vote.inc();
            }
        }
    }

    /// Protocol errors accumulated so far (empty on a healthy run).
    pub fn protocol_errors(&self) -> &[String] {
        &self.errors
    }

    /// One debug line per non-terminal op (transfers included): id and
    /// internal phase. For diagnosing stuck runs; the format is not
    /// stable.
    pub fn debug_inflight(&self) -> Vec<String> {
        self.ops
            .iter()
            .filter(|o| o.rec.status == TransferStatus::InFlight)
            .map(|o| format!("{} {:?} state={:?}", o.rec.id, o.rec, o.state))
            .collect()
    }

    /// Per-shard canonical state roots at the committed tip. Bit-
    /// identical across same-seed runs.
    pub fn state_roots(&self) -> Vec<Digest> {
        self.clusters.iter().map(|c| c.canonical_root()).collect()
    }

    /// The end-of-run summary.
    pub fn report(&self) -> ShardReport {
        let shards: Vec<ClusterReport> = self.clusters.iter().map(|c| c.report()).collect();
        let transfers: Vec<TransferRecord> = self
            .transfers
            .iter()
            .map(|(o, rec)| TransferRecord {
                status: self.ops[*o].rec.status.clone(),
                redrives: self.ops[*o].rec.redrives,
                ..rec.clone()
            })
            .collect();
        let mut committed = 0;
        let mut aborted = 0;
        let mut shed = 0;
        for t in &transfers {
            match t.status {
                TransferStatus::Committed => committed += 1,
                TransferStatus::Aborted { .. } => aborted += 1,
                TransferStatus::Shed => shed += 1,
                TransferStatus::InFlight => {}
            }
        }
        ShardReport {
            total_txs: shards.iter().map(|r| r.txs).sum(),
            transfers,
            state_roots: self.state_roots(),
            opened_total: self.opened_total,
            committed,
            aborted,
            shed,
            redrives: self.redrives,
            shards,
        }
    }

    /// Full safety audit after quiescence:
    ///
    /// 1. every shard cluster converged with matching peer roots,
    /// 2. no protocol errors,
    /// 3. **conservation** — Σ balances + Σ locks across all shards
    ///    equals Σ committed opens (no lost or duplicated money),
    /// 4. **no permanent locks** — every 2PC request reached a terminal
    ///    state on every shard it touched.
    pub fn verify(&self) -> Result<(), ShardError> {
        for (s, cluster) in self.clusters.iter().enumerate() {
            cluster
                .verify_convergence()
                .map_err(|source| ShardError::Cluster { shard: s, source })?;
        }
        if !self.errors.is_empty() {
            return Err(ShardError::Protocol(self.errors.clone()));
        }
        let mut held = 0u64;
        let mut locked_reqs = Vec::new();
        for cluster in &self.clusters {
            let state = cluster.canonical_state();
            held += total_balances(state) + locked_total(state);
            locked_reqs.extend(unresolved_requests(state));
        }
        if !locked_reqs.is_empty() {
            return Err(ShardError::LockedRequests(locked_reqs));
        }
        if held != self.opened_total {
            return Err(ShardError::Conservation {
                expected: self.opened_total,
                actual: held,
            });
        }
        Ok(())
    }
}
