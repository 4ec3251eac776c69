//! `tpcc`: the contended sharded path.
//!
//! `ledgerview_workload::run` at 4 warehouses on 2 shards, views on,
//! faults off, open loop at 40 ms interarrival: below the knee, where the
//! virtual latency of a run stays flat as the run grows. Zipf-hot rows,
//! MVCC re-drives, cross-shard 2PC and read-only profiles exercise the
//! shard and gateway layers and the MVCC-invalid path; shard clusters
//! run unsigned, so Ed25519 does almost nothing here.
//!
//! One operation of the host meter is one `run` call (a whole scenario
//! of `deck_ops` transactions); goodput counts its committed deck
//! transactions.

use ledgerview::simnet::SimTime;
use ledgerview::telemetry::Telemetry;
use ledgerview::workload::{run as run_tpcc, TpccConfig, TpccReport};

use crate::layers::{self, CryptoSizes};
use crate::measure::{self, Calibration, Meter, Setups};
use crate::report::Outcome;
use crate::Ctx;

const WAREHOUSES: u64 = 4;
const SHARDS: usize = 2;
/// Open-loop gap between scheduled transactions (below the knee).
const INTERARRIVAL: SimTime = SimTime::from_millis(40);
/// Profile shares of the deck, in `TxProfile::ALL` order (percent).
const MIX: [(&str, f64); 5] = [
    ("new_order", 45.0),
    ("payment", 43.0),
    ("order_status", 4.0),
    ("delivery", 4.0),
    ("stock_level", 4.0),
];
/// Calibration: a kernel sample (~0.5 ms) before and after each call;
/// elasticity the midpoint of three fits on the reference host (0.27–0.71);
/// set-up elasticity likewise (0.69–0.77).
const CALIBRATION: Calibration = Calibration {
    kernel_iters: 100_000,
    elasticity: 0.49,
    setup_elasticity: 0.73,
};
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Scenario calls whose virtual-time metrics are reported: a fixed
/// prefix, bit-exact for a seed whatever the host speed.
const SIM_CALLS: usize = 3;

/// Deck transactions per `run` call.
pub fn deck_ops(small: bool) -> usize {
    if small {
        60
    } else {
        240
    }
}

/// The seed of the `call`-th scenario of a run seeded with `seed`.
pub fn scenario_seed(seed: u64, call: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(call as u64)
}

fn config(ctx: &Ctx, call: usize, ops: usize) -> TpccConfig {
    let seed = scenario_seed(ctx.seed, call);
    let mut cfg = TpccConfig::new(
        ctx.tmp.join(format!("tpcc-{call}")),
        WAREHOUSES,
        SHARDS,
        seed,
    );
    cfg.ops = ops;
    cfg.interarrival = INTERARRIVAL;
    cfg.views = true;
    cfg.faults = false;
    cfg
}

/// Run one scenario on fresh storage.
fn scenario(cfg: &TpccConfig, telemetry: &Telemetry) -> Result<TpccReport, String> {
    let _ = std::fs::remove_dir_all(&cfg.storage_root);
    run_tpcc(cfg, telemetry).map_err(|e| format!("run: {e:?}"))
}

/// Check one report against the oracles; returns the violations.
pub fn oracle(report: &TpccReport) -> Vec<String> {
    let mut bad = Vec::new();
    match &report.views {
        Some(v) if v.unauthorized_reads == 0 => {}
        Some(v) => bad.push(format!("{} unauthorized view reads", v.unauthorized_reads)),
        None => bad.push("views audit missing".into()),
    }
    let c = &report.confidential;
    if c.granted_reads != c.entries
        || c.no_grant_denials != 1
        || c.policy_denials != 1
        || c.bad_key_denials != 1
        || c.revoked_denials != 1
    {
        bad.push(format!("confidential outcome unsound: {c:?}"));
    }
    let total: u64 = report.profiles.iter().map(|(_, s)| s.submitted).sum();
    for (label, share) in MIX {
        let got = report
            .profiles
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, s)| s.submitted)
            .unwrap_or(0);
        let pct = 100.0 * got as f64 / total.max(1) as f64;
        if (pct - share).abs() > 2.0 {
            bad.push(format!(
                "{label} is {pct:.1}% of the deck, expected {share}% ± 2"
            ));
        }
    }
    bad
}

fn committed(report: &TpccReport) -> u64 {
    report.profiles.iter().map(|(_, s)| s.committed).sum()
}

fn worse_of_no_and_payment(
    report: &TpccReport,
    pick: fn(&ledgerview::workload::ProfileStats) -> u64,
) -> f64 {
    report
        .profiles
        .iter()
        .filter(|(l, _)| *l == "new_order" || *l == "payment")
        .map(|(_, s)| pick(s))
        .max()
        .unwrap_or(0) as f64
        / 1e3
}

/// Run the workload.
pub fn run(ctx: &Ctx, telemetry: Option<&Telemetry>) -> Outcome {
    let mut out = Outcome::new("tpcc");
    let mut setups = Setups::new(CALIBRATION.setup_elasticity);
    for rep in 0..SETUP_REPS {
        // Set-up is everything a scenario does besides its deck:
        // deployment, population and the closing audits.
        let cfg = config(ctx, usize::MAX - rep, 0);
        let r = setups.time(|| scenario(&cfg, &Telemetry::wall_clock()));
        let _ = std::fs::remove_dir_all(&cfg.storage_root);
        if let Err(e) = r {
            out.check(false, || format!("empty-deck scenario failed: {e}"));
        }
    }
    setups.report(&mut out);

    let ops = deck_ops(ctx.small);
    // One window per scenario call.
    let mut meter = Meter::start(ops as u64, (SIM_CALLS * ops) as u64, CALIBRATION);
    let (mut sim_committed, mut sim_makespan_us) = (0u64, 0u64);
    let (mut sim_p50, mut sim_p99) = (Vec::new(), Vec::new());
    let (mut redrives, mut cross, mut good_total) = (0u64, 0u64, 0u64);
    let mut call = 0usize;
    while meter.elapsed().as_secs_f64() < ctx.seconds || call < SIM_CALLS {
        let cfg = config(ctx, call, ops);
        let fresh = Telemetry::wall_clock();
        meter.sample();
        let result = scenario(&cfg, telemetry.unwrap_or(&fresh));
        let _ = meter.untimed(|| std::fs::remove_dir_all(&cfg.storage_root));
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || e);
                meter.record(ops as u64, 0);
                call += 1;
                continue;
            }
        };
        for v in oracle(&report) {
            out.check(false, || format!("call {call}: {v}"));
        }
        let good = committed(&report);
        let submitted: u64 = report.profiles.iter().map(|(_, s)| s.submitted).sum();
        meter.record(submitted, good);
        good_total += good;
        redrives += report.redrives;
        cross += report.cross_committed;
        if call < SIM_CALLS {
            sim_committed += good;
            sim_makespan_us += report.makespan_us;
            sim_p50.push(worse_of_no_and_payment(&report, |s| s.p50_us));
            sim_p99.push(worse_of_no_and_payment(&report, |s| s.p99_us));
        }
        call += 1;
    }
    out.attempted = meter.attempted;
    out.failed = meter.attempted - meter.good;
    meter.report(&mut out);
    out.e2e(
        "sim_goodput_tps",
        sim_committed as f64 / (sim_makespan_us as f64 / 1e6).max(1e-9),
    );
    out.e2e("sim_p50_ms", measure::median(&sim_p50));
    out.e2e("sim_p99_ms", measure::median(&sim_p99));
    out.e2e(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    if let Some(t) = telemetry {
        let r = t.registry();
        let abort = |reason: &str| {
            r.counter("lv_shard_aborts_total", &[("reason", reason)])
                .get() as f64
        };
        out.layer("shard.aborts_prepare_vote", abort("prepare_vote"));
        out.layer(
            "shard.aborts_insufficient_funds",
            abort("insufficient_funds"),
        );
        out.layer("shard.aborts_admission", abort("admission"));
        out.layer(
            "shard.redrives_per_op",
            redrives as f64 / good_total.max(1) as f64,
        );
        out.layer(
            "shard.cross_fraction",
            cross as f64 / good_total.max(1) as f64,
        );
        out.layer(
            "fabric.mvcc_invalid_per_commit",
            redrives as f64 / (good_total + redrives).max(1) as f64,
        );
        out.layer(
            "workload.invariant_check_us",
            layers::hist_mean(r, "lv_workload_invariant_check_us", &[]),
        );
        out.layer(
            "cluster.elections",
            r.counter("lv_cluster_elections_total", &[]).get() as f64,
        );
        out.layer(
            "cluster.resubmits",
            r.counter("lv_cluster_resubmits_total", &[]).get() as f64,
        );
        layers::chain_layers(&mut out, r);
        layers::crypto_layers(
            &mut out,
            &CryptoSizes {
                signed: 300,
                entry: 64,
                sealed: 32,
            },
            ctx.seed,
        );
        layers::finish_trace(&mut out, t);
    }
    out
}
