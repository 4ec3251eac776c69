//! The headline benchmark: end-to-end throughput of the full replicated
//! pipeline — gateway-side submission → 3 Raft orderers → leader-based
//! dissemination → 3 durable peers — with the per-phase latency breakdown
//! reconstructed from the cross-node causal trace.
//!
//! Every transaction carries a [`ledgerview_telemetry::TraceContext`]
//! derived from the run seed, so its whole journey (submit, queue wait at
//! the cutter, Raft replication, per-peer validate+commit) is a single
//! linked trace across the `gateway`/`orderer-k`/`peer-p` Perfetto lanes.
//! The benchmark groups the span buffer by trace id to compute:
//!
//! * headline tps — committed transactions over the virtual span from the
//!   first submission to the last per-peer commit, with goodput (valid
//!   commits over the same span) beside it;
//! * per-phase p50/p99 (queue, replicate, peer commit) whose *means* sum
//!   exactly to the end-to-end mean, because the three phases tile the
//!   journey with no gaps (asserted to within 10%);
//! * a folded-stack profile (`flamegraph.pl`-ready) of the whole run.
//!
//! The sweep covers both peer state backends (in-memory durable and
//! disk-backed LSM). All timings are virtual microseconds, so every
//! number here — including headline tps — is bit-reproducible from the
//! seed, which is what lets CI keep a committed baseline and fail on
//! >20% regressions.
//!
//! Writes `bench_results/end_to_end_tps.json` (schema `end_to_end/v2`),
//! the folded profile next to it, and a Chrome-trace export of the
//! headline run. `--smoke` shrinks the load for CI; `--metrics-out`
//! additionally snapshots the Prometheus registry.

use fabric_store::testdir::TestDir;
use ledgerview_bench::report::{metrics_out_arg, results_dir, write_metrics};
use ledgerview_cluster::cluster::stage;
use ledgerview_cluster::{ClusterConfig, ClusterSim};
use ledgerview_simnet::SimTime;
use ledgerview_telemetry::{profile_spans, SpanRecord, Telemetry};

const SEED: u64 = 0xE2E_7B5;
const PEERS: usize = 3;
/// Submission spacing; ~25 tx per 250 ms block at full load.
const SUBMIT_EVERY_MS: u64 = 10;

struct RunSpec {
    backend: &'static str,
    lsm: bool,
}

const SWEEP: [RunSpec; 2] = [
    RunSpec {
        backend: "inmem",
        lsm: false,
    },
    RunSpec {
        backend: "lsm",
        lsm: true,
    },
];

/// Latency statistics over one phase's observations.
#[derive(Clone, Copy)]
struct Stats {
    mean_us: f64,
    p50_us: u64,
    p99_us: u64,
}

fn stats(mut xs: Vec<u64>) -> Stats {
    assert!(!xs.is_empty(), "phase has no observations");
    xs.sort_unstable();
    let pct = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    Stats {
        mean_us: xs.iter().sum::<u64>() as f64 / xs.len() as f64,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}

struct RunResult {
    spec: &'static RunSpec,
    txs: u64,
    /// Transactions among `txs` that passed MVCC validation.
    valid_txs: u64,
    blocks: u64,
    tps: f64,
    /// Valid commits over the same window as `tps`.
    goodput_tps: f64,
    queue: Stats,
    replicate: Stats,
    commit: Stats,
    e2e: Stats,
    /// |sum of phase means − e2e mean| / e2e mean.
    phase_sum_error: f64,
}

/// One journey reassembled from the span buffer.
struct Journey {
    submit_start: u64,
    queue_us: u64,
    replicate_us: u64,
    /// (process lane, duration, end) of each per-peer commit span.
    commits: Vec<(u64, u64, u64)>,
}

fn reassemble(spans: &[SpanRecord]) -> std::collections::BTreeMap<u64, Journey> {
    let mut journeys = std::collections::BTreeMap::new();
    for s in spans {
        let Some(trace) = s.trace_id else { continue };
        let j = journeys.entry(trace).or_insert(Journey {
            submit_start: u64::MAX,
            queue_us: 0,
            replicate_us: 0,
            commits: Vec::new(),
        });
        match s.name.as_str() {
            "submit" => j.submit_start = j.submit_start.min(s.start_us),
            "order.queue" => j.queue_us = s.dur_us,
            "order.replicate" => j.replicate_us = s.dur_us,
            "peer.commit" => j.commits.push((s.process, s.dur_us, s.start_us + s.dur_us)),
            _ => {}
        }
    }
    journeys.retain(|_, j| j.submit_start != u64::MAX && !j.commits.is_empty());
    journeys
}

fn run(spec: &'static RunSpec, txs: u64, telemetry: &Telemetry) -> RunResult {
    let dir = TestDir::new("end-to-end-tps");
    let mut cfg = ClusterConfig::new(dir.path(), SEED);
    cfg.lsm_peers = spec.lsm;
    cfg.check_signatures = false; // Endorsement crypto is not under test.
    let mut sim = ClusterSim::new(cfg).expect("cluster builds");
    sim.set_telemetry(telemetry);
    sim.schedule_counter_load(
        SimTime::from_millis(300),
        SimTime::from_millis(SUBMIT_EVERY_MS),
        txs,
        16,
    );
    sim.run_until_converged(SimTime::from_secs(600))
        .expect("cluster converges");
    sim.verify_convergence()
        .expect("peers reach canonical state");
    let report = sim.report();
    assert_eq!(report.txs, txs, "every submission must commit");

    let journeys = reassemble(&telemetry.tracer().recent());
    assert_eq!(journeys.len() as u64, txs, "one journey per transaction");
    let first_submit = journeys.values().map(|j| j.submit_start).min().unwrap();
    let last_commit = journeys
        .values()
        .flat_map(|j| j.commits.iter().map(|&(_, _, end)| end))
        .max()
        .unwrap();
    let window_s = (last_commit - first_submit) as f64 / 1e6;
    let tps = report.txs as f64 / window_s;
    let goodput_tps = report.valid_txs as f64 / window_s;

    let queue = stats(journeys.values().map(|j| j.queue_us).collect());
    let replicate = stats(journeys.values().map(|j| j.replicate_us).collect());
    let commit = stats(
        journeys
            .values()
            .flat_map(|j| j.commits.iter().map(|&(_, dur, _)| dur))
            .collect(),
    );
    // End-to-end per (transaction, peer): the three phases tile the
    // journey, so per observation e2e == queue + replicate + commit.
    let e2e = stats(
        journeys
            .values()
            .flat_map(|j| {
                j.commits
                    .iter()
                    .map(move |&(_, dur, _)| j.queue_us + j.replicate_us + dur)
            })
            .collect(),
    );
    let phase_sum = queue.mean_us + replicate.mean_us + commit.mean_us;
    let phase_sum_error = (phase_sum - e2e.mean_us).abs() / e2e.mean_us.max(1.0);
    assert!(
        phase_sum_error <= 0.10,
        "phase means ({phase_sum:.0} us) must sum to within 10% of the \
         end-to-end mean ({:.0} us); got {:.1}% off",
        e2e.mean_us,
        phase_sum_error * 100.0,
    );

    RunResult {
        spec,
        txs: report.txs,
        valid_txs: report.valid_txs,
        blocks: report.blocks,
        tps,
        goodput_tps,
        queue,
        replicate,
        commit,
        e2e,
        phase_sum_error,
    }
}

/// Assert one transaction's submit→commit journey is reconstructible
/// across all peers purely from the span links: every per-peer commit
/// span chains replicate → queue → submit within a single trace id.
fn assert_causal_chain(spans: &[SpanRecord], peers: usize) {
    let by_id: std::collections::HashMap<u64, &SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();
    let trace = spans
        .iter()
        .find(|s| s.name == "submit" && s.trace_id.is_some())
        .and_then(|s| s.trace_id)
        .expect("at least one traced submission");
    let commits: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "peer.commit" && s.trace_id == Some(trace))
        .collect();
    assert_eq!(commits.len(), peers, "one commit span per peer");
    let lanes: std::collections::BTreeSet<u64> = commits.iter().map(|s| s.process).collect();
    assert_eq!(lanes.len(), peers, "each peer commits on its own lane");
    for commit in commits {
        let replicate = by_id[&commit.parent.expect("commit links upstream")];
        assert_eq!(replicate.name, "order.replicate");
        assert_eq!(replicate.trace_id, Some(trace));
        let queue = by_id[&replicate.parent.expect("replicate links upstream")];
        assert_eq!(queue.name, "order.queue");
        assert_eq!(queue.trace_id, Some(trace));
        let submit = by_id[&queue.parent.expect("queue links upstream")];
        assert_eq!(submit.name, "submit");
        assert_eq!(submit.trace_id, Some(trace));
        assert_eq!(submit.parent, None, "submit is the journey's root");
    }
    println!(
        "causal chain verified: trace {trace:#018x} commit→replicate→queue→submit on {peers} peers"
    );
}

fn run_json(r: &RunResult) -> String {
    let phase = |name: &str, s: &Stats| {
        format!(
            "{{\"phase\": \"{name}\", \"mean_us\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}",
            s.mean_us, s.p50_us, s.p99_us
        )
    };
    format!(
        concat!(
            "    {{\"backend\": \"{}\", \"txs\": {}, \"valid_txs\": {}, \"blocks\": {}, ",
            "\"tps\": {:.2}, \"goodput_tps\": {:.2},\n",
            "     \"e2e_us\": {{\"mean_us\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}},\n",
            "     \"phases\": [{}, {}, {}],\n",
            "     \"phase_sum_error\": {:.4}}}"
        ),
        r.spec.backend,
        r.txs,
        r.valid_txs,
        r.blocks,
        r.tps,
        r.goodput_tps,
        r.e2e.mean_us,
        r.e2e.p50_us,
        r.e2e.p99_us,
        phase("queue", &r.queue),
        phase("replicate", &r.replicate),
        phase("commit", &r.commit),
        r.phase_sum_error,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let txs: u64 = if smoke { 80 } else { 400 };
    println!(
        "end-to-end pipeline tps ({} tx/run, 3 orderers, {PEERS} peers{})\n",
        txs,
        if smoke { ", smoke" } else { "" }
    );
    println!(
        "{:>7}  {:>9} {:>9} {:>7}  {:>10} {:>10} {:>10}  {:>10} {:>10}",
        "backend",
        "tps",
        "goodput",
        "blocks",
        "queue_p50",
        "repl_p50",
        "commit_p50",
        "e2e_p50",
        "e2e_p99"
    );

    let mut results = Vec::new();
    let mut headline_telemetry = None;
    for spec in &SWEEP {
        let telemetry = Telemetry::wall_clock();
        let r = run(spec, txs, &telemetry);
        println!(
            "{:>7}  {:>9.1} {:>9.1} {:>7}  {:>10} {:>10} {:>10}  {:>10} {:>10}",
            r.spec.backend,
            r.tps,
            r.goodput_tps,
            r.blocks,
            r.queue.p50_us,
            r.replicate.p50_us,
            r.commit.p50_us,
            r.e2e.p50_us,
            r.e2e.p99_us,
        );
        results.push(r);
        if headline_telemetry.is_none() {
            headline_telemetry = Some(telemetry);
        }
    }
    let headline = &results[0];
    let telemetry = headline_telemetry.expect("headline run recorded");
    let spans = telemetry.tracer().recent();

    // Acceptance: a single transaction's journey must be reconstructible
    // across all three peers from the span links alone.
    assert_causal_chain(&spans, PEERS);

    // Deterministic self-profile of the headline run.
    let profile = profile_spans(&spans);
    let folded = profile.folded();
    println!(
        "\nper-phase cost table (headline run):\n{}",
        profile.table()
    );

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let folded_path = dir.join("end_to_end_profile.folded");
    std::fs::write(&folded_path, &folded).expect("write folded profile");
    let trace_path = dir.join("end_to_end_trace.json");
    let chrome = telemetry.tracer().chrome_trace_json();
    assert!(
        chrome.contains("\"process_name\"") && chrome.contains("orderer-0"),
        "chrome export must carry per-node process lanes"
    );
    std::fs::write(&trace_path, &chrome).expect("write chrome trace");

    let runs: Vec<String> = results.iter().map(run_json).collect();
    let folded_lines: Vec<String> = folded
        .lines()
        .map(|l| format!("    \"{}\"", l.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"end_to_end/v2\",\n",
            "  \"benchmark\": \"end_to_end_tps\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"description\": \"full-pipeline throughput: gateway submission, 3 Raft ",
            "orderers, leader dissemination, {} durable peers; phases from the ",
            "cross-node causal trace, virtual time\",\n",
            "  \"headline\": {{\"backend\": \"{}\", \"tps\": {:.2}}},\n",
            "  \"runs\": [\n{}\n  ],\n",
            "  \"folded_profile\": [\n{}\n  ]\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        PEERS,
        headline.spec.backend,
        headline.tps,
        runs.join(",\n"),
        folded_lines.join(",\n"),
    );
    let path = dir.join("end_to_end_tps.json");
    std::fs::write(&path, &json).expect("write json");
    println!(
        "headline: {:.1} tps ({} backend)\nwrote {}\nwrote {}\nwrote {}",
        headline.tps,
        headline.spec.backend,
        path.display(),
        folded_path.display(),
        trace_path.display(),
    );

    if let Some(out) = metrics_out_arg() {
        write_metrics(&telemetry, &out).expect("write metrics");
        println!("wrote {}", out.display());
    }

    // Quiet-but-real use of the stage constants: the journey assertion
    // above checked links; this checks the ids are the seed-derived ones.
    let sample = spans
        .iter()
        .find(|s| s.name == "order.replicate")
        .expect("replicate span recorded");
    let trace = sample.trace_id.expect("replicate spans are linked");
    assert_eq!(
        sample.id,
        ledgerview_telemetry::TraceContext {
            trace_id: trace,
            parent_span: 0
        }
        .span_id(stage::REPLICATE),
        "replicate span ids derive from the trace id"
    );
}
