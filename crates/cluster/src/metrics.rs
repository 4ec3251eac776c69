//! `lv_cluster_*` metric handles, resolved once when telemetry attaches.
//!
//! Purely observational: a cluster with and without telemetry commits
//! bit-identical histories (durations are observed in *virtual*
//! microseconds, so even the measurements are deterministic).

use ledgerview_telemetry::{Counter, Gauge, HistogramHandle, Telemetry};

pub(crate) struct ClusterMetrics {
    pub telemetry: Telemetry,
    /// Prepended to every process-lane name (disambiguates clusters
    /// sharing one `Telemetry`, e.g. shards).
    lane_prefix: String,
    /// Leader transitions observed across the ordering service.
    pub elections: Counter,
    /// Proposals re-routed after hitting a non-leader (or dead) orderer.
    pub notleader_retries: Counter,
    /// Batches cut and proposed (first attempts only).
    pub batches: Counter,
    /// Duplicate batch commits suppressed (client re-proposals).
    pub dup_batches: Counter,
    /// Watchdog re-proposals of batches lost with a crashed leader.
    pub resubmits: Counter,
    /// Per-peer: committed blocks the peer has not applied yet.
    behind: Vec<Gauge>,
    /// Per-peer: virtual µs between global commit and local apply of the
    /// most recently applied block.
    lag_us: Vec<Gauge>,
    /// Catch-up duration in virtual µs, labeled by method.
    pub catchup_snapshot_us: HistogramHandle,
    pub catchup_replay_us: HistogramHandle,
    /// Causal spans recorded, labeled by pipeline stage.
    pub trace_submit_spans: Counter,
    pub trace_queue_spans: Counter,
    pub trace_replicate_spans: Counter,
    pub trace_commit_spans: Counter,
    /// Perfetto process lane for the submission (gateway) side.
    pub gateway_proc: u64,
    /// Perfetto process lanes, one per orderer.
    orderer_procs: Vec<u64>,
    /// Perfetto process lanes, one per peer.
    peer_procs: Vec<u64>,
}

impl ClusterMetrics {
    pub fn new(
        telemetry: &Telemetry,
        orderers: usize,
        peers: usize,
        lane_prefix: &str,
    ) -> ClusterMetrics {
        let r = telemetry.registry();
        let tracer = telemetry.tracer();
        let mut m = ClusterMetrics {
            telemetry: telemetry.clone(),
            lane_prefix: lane_prefix.to_string(),
            elections: r.counter("lv_cluster_elections_total", &[]),
            notleader_retries: r.counter("lv_cluster_notleader_retries_total", &[]),
            batches: r.counter("lv_cluster_batches_total", &[]),
            dup_batches: r.counter("lv_cluster_dup_batches_total", &[]),
            resubmits: r.counter("lv_cluster_resubmits_total", &[]),
            behind: Vec::new(),
            lag_us: Vec::new(),
            catchup_snapshot_us: r.histogram("lv_cluster_catchup_us", &[("method", "snapshot")]),
            catchup_replay_us: r.histogram("lv_cluster_catchup_us", &[("method", "replay")]),
            trace_submit_spans: r.counter("lv_trace_spans_total", &[("stage", "submit")]),
            trace_queue_spans: r.counter("lv_trace_spans_total", &[("stage", "queue")]),
            trace_replicate_spans: r.counter("lv_trace_spans_total", &[("stage", "replicate")]),
            trace_commit_spans: r.counter("lv_trace_spans_total", &[("stage", "commit")]),
            gateway_proc: tracer.process(&format!("{lane_prefix}gateway")),
            orderer_procs: (0..orderers)
                .map(|o| tracer.process(&format!("{lane_prefix}orderer-{o}")))
                .collect(),
            peer_procs: Vec::new(),
        };
        m.ensure_peers(peers);
        m
    }

    /// Grow the per-peer gauge handles and trace lanes (peers can join
    /// mid-run).
    pub fn ensure_peers(&mut self, peers: usize) {
        let r = self.telemetry.registry().clone();
        let tracer = self.telemetry.tracer();
        while self.behind.len() < peers {
            let label = self.behind.len().to_string();
            self.behind
                .push(r.gauge("lv_cluster_peer_blocks_behind", &[("peer", &label)]));
            self.lag_us
                .push(r.gauge("lv_cluster_replication_lag_us", &[("peer", &label)]));
        }
        while self.peer_procs.len() < peers {
            let p = self.peer_procs.len();
            let prefix = &self.lane_prefix;
            self.peer_procs
                .push(tracer.process(&format!("{prefix}peer-{p}")));
        }
    }

    /// Perfetto lane for orderer `o` (falls back to the gateway lane for
    /// out-of-range ids, which cannot happen in a well-formed cluster).
    pub fn orderer_proc(&self, o: usize) -> u64 {
        self.orderer_procs
            .get(o)
            .copied()
            .unwrap_or(self.gateway_proc)
    }

    /// Perfetto lane for peer `p`.
    pub fn peer_proc(&self, p: usize) -> u64 {
        self.peer_procs.get(p).copied().unwrap_or(self.gateway_proc)
    }

    pub fn set_behind(&self, peer: usize, blocks: u64) {
        if let Some(g) = self.behind.get(peer) {
            g.set(blocks as i64);
        }
    }

    pub fn set_lag_us(&self, peer: usize, us: u64) {
        if let Some(g) = self.lag_us.get(peer) {
            g.set(us as i64);
        }
    }
}
