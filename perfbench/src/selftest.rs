//! The benchmark's own tests: metric names, the names `BENCHMARK.json`
//! lists, the oracles against planted wrong answers, and seeded inputs.

use std::path::PathBuf;

use ledgerview::crypto::rng::seeded;
use ledgerview::fabric::endorsement::EndorsementPolicy;
use ledgerview::gateway::CounterChaincode;

use crate::report::{self, Outcome};
use crate::{audit, ingest, measure, tpcc, views, Ctx, WORKLOADS};

fn small_ctx(seed: u64, tag: &str) -> Ctx {
    Ctx {
        seed,
        seconds: 0.1,
        small: true,
        tmp: std::env::temp_dir().join(format!("perfbench-test-{tag}-{}", std::process::id())),
    }
}

/// `(section, name)` pairs of `BENCHMARK.json`, read without a JSON
/// library: every `"name": "…"` line, attributed to the last section key
/// seen above it.
fn benchmark_names() -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let mut section = String::new();
    let mut names = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        for key in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.starts_with(key) {
                section = key.trim_matches('"').to_string();
            }
        }
        if let Some(rest) = line
            .strip_prefix("{\"name\": \"")
            .or_else(|| line.strip_prefix("\"name\": \""))
        {
            let name = rest.split('"').next().expect("closing quote");
            names.push((section.clone(), name.to_string()));
        }
    }
    names
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let names = benchmark_names();
    let of = |s: &str| -> Vec<String> {
        names
            .iter()
            .filter(|(sec, _)| sec == s)
            .map(|(_, n)| n.clone())
            .collect()
    };
    assert_eq!(of("workloads"), WORKLOADS.to_vec());
    let mut gated = of("end_to_end");
    gated.sort();
    let mut expected: Vec<String> = report::GATED.iter().map(|s| s.to_string()).collect();
    expected.sort();
    assert_eq!(gated, expected);
    let layers: Vec<String> = report::PER_LAYER
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    assert_eq!(of("per_layer"), layers);
    for (_, name) in &names {
        assert!(report::valid_name(name), "bad name {name:?}");
    }
}

/// The workload whose traced run measures a per-layer metric (the
/// layer table of `perfbench/README.md`).
fn home_workload(name: &str) -> &'static str {
    match name {
        "fabric.mvcc_invalid_per_commit" => "tpcc",
        "core.invoke_self_us" | "core.flush_us" | "core.grant_us" | "core.revoke_us" => "views",
        _ if name.starts_with("fabric.wire_")
            || name.starts_with("fabric.raft_")
            || name.starts_with("store.")
            || name.starts_with("statedb.")
            || name.starts_with("cluster.") =>
        {
            "ingest"
        }
        _ if name.starts_with("core.") || name.starts_with("datalog.") => "audit",
        _ if name.starts_with("shard.") || name.starts_with("workload.") => "tpcc",
        _ => "views",
    }
}

/// Per-layer metrics a small run of their home workload may read 0 for:
/// counts of rare events, and the WAL fsyncs, which the cluster's
/// default policy (`FsyncPolicy::Never`) leaves at 0.
const MAY_BE_ZERO: [&str; 7] = [
    "store.fsyncs_per_block",
    "cluster.elections",
    "cluster.resubmits",
    "fabric.mvcc_invalid_per_commit",
    "shard.aborts_prepare_vote",
    "shard.aborts_insufficient_funds",
    "shard.aborts_admission",
];

#[test]
fn every_listed_metric_is_measured_by_a_small_run() {
    let names = benchmark_names();
    let listed = |section: &str| -> Vec<String> {
        names
            .iter()
            .filter(|(s, _)| s == section)
            .map(|(_, n)| n.clone())
            .collect()
    };
    for workload in WORKLOADS {
        for trace in [false, true] {
            let ctx = small_ctx(7, workload);
            let out = crate::invocation(workload, &ctx, trace);
            let _ = std::fs::remove_dir_all(&ctx.tmp);
            assert!(out.correct, "{workload}: {:?}", out.violations);
            if !trace {
                for name in listed("end_to_end") {
                    let value = out.e2e.get(name.as_str()).copied();
                    assert!(
                        value.is_some_and(|v| v > 0.0),
                        "{workload}: {name} is {value:?}: {:?}",
                        out.e2e
                    );
                }
                continue;
            }
            for name in listed("per_layer") {
                if home_workload(&name) != workload {
                    continue;
                }
                let value = out.layers.get(name.as_str()).copied();
                let measured = match value {
                    Some(v) => v != 0.0 || MAY_BE_ZERO.contains(&name.as_str()),
                    None => false,
                };
                assert!(
                    measured,
                    "{workload} does not measure {name} ({value:?}): {:?}",
                    out.layers
                );
            }
        }
    }
}

#[test]
fn audit_oracle_catches_a_tampered_response() {
    let ctx = small_ctx(3, "audit-tamper");
    let honest = audit::run_with(&ctx, None, false);
    assert!(honest.correct, "{:?}", honest.violations);
    let tampered = audit::run_with(&ctx, None, true);
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    assert!(!tampered.correct, "a flipped secret byte went unnoticed");
    assert!(tampered.failed > 0);
}

#[test]
fn ingest_oracle_catches_an_off_by_one_counter_sum() {
    let ctx = small_ctx(4, "ingest-sum");
    let out = ingest::run_with(&ctx, None, 1);
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    assert!(!out.correct);
    assert!(
        out.violations.iter().any(|v| v.contains("counter sum")),
        "{:?}",
        out.violations
    );
}

#[test]
fn views_oracle_catches_an_invalid_commit() {
    let mut rng = seeded(5);
    let mut dep = views::setup(&mut rng);
    let policy = EndorsementPolicy::AnyOf(dep.chain.org_ids());
    dep.chain
        .deploy("counter", Box::new(CounterChaincode), policy);
    let org = dep.chain.org_ids()[0].clone();
    let client = dep.chain.enroll(&org, "racer", &mut rng).expect("enroll");
    // Two increments of one key endorsed against the same version: the
    // second is MVCC-invalid at commit.
    for _ in 0..2 {
        dep.chain
            .invoke(
                &client,
                "counter",
                "incr",
                vec![b"k".to_vec(), b"1".to_vec()],
                &mut rng,
            )
            .expect("endorse");
    }
    dep.chain.cut_block();
    let mut out = Outcome::new("views");
    let (valid, invalid) = views::commit_oracle(&mut out, &dep);
    assert_eq!(invalid, 1, "valid {valid}");
    assert!(!out.correct);
}

#[test]
fn tpcc_oracle_catches_unauthorized_reads_and_a_skewed_mix() {
    let ctx = small_ctx(6, "tpcc-oracle");
    let out = tpcc::run(&ctx, None);
    assert!(out.correct, "{:?}", out.violations);
    let mut cfg = ledgerview::workload::TpccConfig::new(ctx.tmp.join("one"), 4, 2, 6);
    cfg.ops = 60;
    cfg.views = true;
    cfg.interarrival = ledgerview::simnet::SimTime::from_millis(40);
    let telemetry = ledgerview::telemetry::Telemetry::wall_clock();
    let report = ledgerview::workload::run(&cfg, &telemetry).expect("tpcc run");
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    assert!(tpcc::oracle(&report).is_empty());
    let mut leaked = report.clone();
    if let Some(v) = leaked.views.as_mut() {
        v.unauthorized_reads = 1;
    }
    assert!(!tpcc::oracle(&leaked).is_empty());
    let mut skewed = report;
    skewed.profiles[0].1.submitted += 10;
    assert!(!tpcc::oracle(&skewed).is_empty());
}

#[test]
fn changing_the_seed_changes_the_inputs() {
    let a = views::transaction(&mut seeded(1), 0);
    let b = views::transaction(&mut seeded(2), 0);
    assert_ne!(a.secret, b.secret);
    assert_eq!(a.secret, views::transaction(&mut seeded(1), 0).secret);
    assert_ne!(ingest::key(&mut seeded(1)), ingest::key(&mut seeded(2)));
    assert_ne!(audit::transfer_secret(1), audit::transfer_secret(2));
    assert_ne!(tpcc::scenario_seed(1, 0), tpcc::scenario_seed(2, 0));
    assert_ne!(tpcc::scenario_seed(1, 0), tpcc::scenario_seed(1, 1));
}

#[test]
fn calibrated_setup_is_positive() {
    let mut setups = measure::Setups::new(1.0);
    setups.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
    let mut out = Outcome::new("views");
    setups.report(&mut out);
    assert!(out.e2e["setup_s"] > 0.0 && out.e2e["setup_wall_s"] >= 0.002);
}
