//! `views`: the LedgerView write path on one signed chain.
//!
//! Two organisations, `MajorityOf` endorsement, endorsement signatures
//! produced at endorsement and re-verified at commit. One closed-loop
//! client alternates `invoke_with_secret` between an encryption-based
//! manager with revocable views and a hash-based manager with
//! irrevocable views batched through the TxListContract, flushes the
//! batch periodically and now and then grants or revokes a reader. Most
//! transactions match one view; a minority carry a `broadcast` marker
//! that every view selects (the paper's Figs 10/11 overlap).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ledgerview::crypto::EncryptionKeyPair;
use ledgerview::fabric::endorsement::EndorsementPolicy;
use ledgerview::fabric::identity::{Identity, OrgId};
use ledgerview::fabric::validation::TxValidation;
use ledgerview::fabric::{FabricChain, ValidationConfig};
use ledgerview::telemetry::Telemetry;
use ledgerview::views::manager::{
    AccessMode, EncryptionBasedManager, HashBasedManager, ViewManager,
};
use ledgerview::views::txmodel::{AttrValue, ClientTransaction};
use ledgerview::views::ViewPredicate;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::layers::{self, CallTimes, CryptoSizes};
use crate::measure::{self, Calibration, Meter, Setups};
use crate::report::Outcome;
use crate::Ctx;

/// Destinations; one view per destination in each manager.
pub const DESTS: [&str; 4] = ["Warehouse 1", "Warehouse 2", "Warehouse 3", "Warehouse 4"];
/// Share of transactions every view selects.
const BROADCAST_P: f64 = 0.1;
/// Secret payload size (bytes).
pub const SECRET_BYTES: usize = 128;
/// Every `FLUSH_EVERY`-th operation flushes the TxListContract batch.
const FLUSH_EVERY: u64 = 25;
/// Every `ACCESS_EVERY`-th operation grants a temporary reader, or
/// revokes the one granted before.
const ACCESS_EVERY: u64 = 50;
/// Operations per goodput window (a multiple of both cadences).
const WINDOW_OPS: u64 = 100;
/// Calibration: a kernel sample (~46 µs) after each operation;
/// elasticity the midpoint of three fits on the reference host (0.91–0.96);
/// set-up elasticity likewise (0.69–0.80).
const CALIBRATION: Calibration = Calibration {
    kernel_iters: 10_000,
    elasticity: 0.94,
    setup_elasticity: 0.75,
};
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// One ready deployment.
pub struct Deployment {
    /// The signed chain.
    pub chain: FabricChain,
    enc: EncryptionBasedManager,
    hash: HashBasedManager,
    clients: Vec<Identity>,
    commits: Arc<Mutex<(u64, u64)>>,
}

/// Build the chain, deploy the contracts, enroll, create the views and
/// grant one standing reader per revocable view.
pub fn setup(rng: &mut StdRng) -> Deployment {
    let mut chain = FabricChain::new(&["ManufacturerOrg", "AuditorOrg"], rng);
    chain.set_validation_config(ValidationConfig::parallel(1));
    let policy = EndorsementPolicy::MajorityOf(chain.org_ids());
    ledgerview::deploy_ledgerview_contracts(&mut chain, policy);
    let commits: Arc<Mutex<(u64, u64)>> = Arc::default();
    let sink = Arc::clone(&commits);
    chain.subscribe_commits(move |ev| {
        let mut c = sink.lock().expect("commit counter lock");
        if ev.outcome == TxValidation::Valid {
            c.0 += 1;
        } else {
            c.1 += 1;
        }
    });
    let owner_org = OrgId::new("ManufacturerOrg");
    let owner = chain
        .enroll(&owner_org, "view-owner", rng)
        .expect("enroll owner");
    let clients = (0..4)
        .map(|i| {
            chain
                .enroll(&OrgId::new("AuditorOrg"), &format!("client{i}"), rng)
                .expect("enroll client")
        })
        .collect();
    let mut enc: EncryptionBasedManager = ViewManager::new(owner.clone(), false);
    let mut hash: HashBasedManager = ViewManager::new(owner, true);
    for d in DESTS {
        let pred = ViewPredicate::Or(vec![
            ViewPredicate::attr_eq("to", d),
            ViewPredicate::AttrExists("broadcast".into()),
        ]);
        enc.create_view(
            &mut chain,
            format!("E:{d}"),
            pred.clone(),
            AccessMode::Revocable,
            rng,
        )
        .expect("create revocable view");
        hash.create_view(
            &mut chain,
            format!("H:{d}"),
            pred,
            AccessMode::Irrevocable,
            rng,
        )
        .expect("create irrevocable view");
        let reader = EncryptionKeyPair::generate(rng);
        enc.grant_access(&mut chain, &format!("E:{d}"), reader.public(), rng)
            .expect("grant standing reader");
    }
    Deployment {
        chain,
        enc,
        hash,
        clients,
        commits,
    }
}

/// The `i`-th client transaction of a run.
pub fn transaction(rng: &mut StdRng, i: u64) -> ClientTransaction {
    let mut attrs = vec![
        ("shipment", AttrValue::int(i as i64)),
        (
            "from",
            AttrValue::str(format!("Manufacturer {}", rng.random_range(0..8u32))),
        ),
        (
            "to",
            AttrValue::str(DESTS[rng.random_range(0..DESTS.len())]),
        ),
    ];
    if rng.random_bool(BROADCAST_P) {
        attrs.push(("broadcast", AttrValue::str("all")));
    }
    let mut secret = vec![0u8; SECRET_BYTES];
    rng.fill_bytes(&mut secret);
    ClientTransaction::new(attrs, secret)
}

/// Run the workload for `ctx.seconds` (and at least `min_ops`).
pub fn run(ctx: &Ctx, telemetry: Option<&Telemetry>) -> Outcome {
    let mut out = Outcome::new("views");
    let mut setups = Setups::new(CALIBRATION.setup_elasticity);
    let mut dep = None;
    for rep in 0..SETUP_REPS {
        let mut rng = ledgerview::crypto::rng::seeded(ctx.seed.wrapping_add(rep as u64));
        dep = Some(setups.time(|| setup(&mut rng)));
    }
    let mut dep = dep.expect("at least one set-up");
    setups.report(&mut out);
    if let Some(t) = telemetry {
        dep.chain.set_telemetry(t);
        dep.enc.set_telemetry(t);
        dep.hash.set_telemetry(t);
    }
    let registry = telemetry.map(|t| Arc::clone(t.registry()));
    let base_height = dep.chain.height();
    *dep.commits.lock().expect("commit counter lock") = (0, 0);

    let mut rng = ledgerview::crypto::rng::seeded(ctx.seed ^ 0x5649_4557);
    // A small run still grants and revokes once each.
    let min_ops = if ctx.small {
        2 * ACCESS_EVERY
    } else {
        10 * WINDOW_OPS
    };
    let mut meter = Meter::start(WINDOW_OPS, min_ops, CALIBRATION);
    let mut latencies = Vec::new();
    let mut calls = CallTimes::default();
    let mut invoke_self_us = 0.0;
    let mut temp_reader: Option<(String, EncryptionKeyPair)> = None;
    let mut i = 0u64;
    while meter.elapsed().as_secs_f64() < ctx.seconds || i < min_ops {
        i += 1;
        let start = Instant::now();
        let ok = if i.is_multiple_of(ACCESS_EVERY) {
            match temp_reader.take() {
                None => {
                    let view = format!("E:{}", DESTS[rng.random_range(0..DESTS.len())]);
                    let reader = EncryptionKeyPair::generate(&mut rng);
                    let r = calls.time(telemetry, "bench.grant", || {
                        dep.enc
                            .grant_access(&mut dep.chain, &view, reader.public(), &mut rng)
                    });
                    temp_reader = Some((view, reader));
                    check(&mut out, r, "grant_access")
                }
                Some((view, reader)) => {
                    let r = calls.time(telemetry, "bench.revoke", || {
                        dep.enc
                            .revoke_access(&mut dep.chain, &view, &reader.public(), &mut rng)
                    });
                    check(&mut out, r, "revoke_access")
                }
            }
        } else if i.is_multiple_of(FLUSH_EVERY) {
            let r = calls.time(telemetry, "bench.flush", || {
                dep.hash.flush(&mut dep.chain, &mut rng)
            });
            check(&mut out, r, "flush")
        } else {
            let tx = transaction(&mut rng, i);
            let client = &dep.clients[(i % dep.clients.len() as u64) as usize];
            let fabric_before = registry.as_deref().map(layers::chain_phase_total_us);
            let t0 = Instant::now();
            let r = calls.time(telemetry, "bench.invoke", || {
                if i.is_multiple_of(2) {
                    dep.enc
                        .invoke_with_secret(&mut dep.chain, client, &tx, &mut rng)
                } else {
                    dep.hash
                        .invoke_with_secret(&mut dep.chain, client, &tx, &mut rng)
                }
            });
            if let (Some(r), Some(before)) = (registry.as_deref(), fabric_before) {
                let fabric = (layers::chain_phase_total_us(r) - before) as f64;
                invoke_self_us += t0.elapsed().as_secs_f64() * 1e6 - fabric;
            }
            check(&mut out, r, "invoke_with_secret")
        };
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
        meter.record(1, ok as u64);
    }
    let (valid, invalid) = commit_oracle(&mut out, &dep);

    let ledger_bytes: usize = dep
        .chain
        .store()
        .iter()
        .filter(|b| b.header.number >= base_height)
        .map(|b| b.encode().len())
        .sum();
    out.attempted = meter.attempted;
    // An invalid commit makes its call return an error, so it is already
    // among the operations that were not good.
    out.failed = meter.attempted - meter.good;
    meter.report(&mut out);
    out.e2e("op_p50_us", measure::quantile(&latencies, 0.50));
    out.e2e("op_p99_us", measure::quantile(&latencies, 0.99));
    out.e2e(
        "failed_ratio",
        out.failed as f64 / meter.attempted.max(1) as f64,
    );
    out.e2e(
        "ledger_bytes_per_op",
        ledger_bytes as f64 / meter.good.max(1) as f64,
    );

    if let (Some(t), Some(r)) = (telemetry, registry.as_deref()) {
        layers::chain_layers(&mut out, r);
        out.layer(
            "fabric.mvcc_invalid_per_commit",
            invalid as f64 / (valid + invalid).max(1) as f64,
        );
        let invokes = calls.count("bench.invoke").max(1);
        out.layer("core.invoke_self_us", invoke_self_us / invokes as f64);
        out.layer("core.flush_us", calls.mean_us("bench.flush"));
        out.layer("core.grant_us", calls.mean_us("bench.grant"));
        out.layer("core.revoke_us", calls.mean_us("bench.revoke"));
        let sizes = CryptoSizes {
            signed: layers::tip_tx_bytes(&dep.chain),
            entry: SECRET_BYTES + 64,
            sealed: 32,
        };
        layers::crypto_layers(&mut out, &sizes, ctx.seed);
        layers::finish_trace(&mut out, t);
    }
    out
}

/// The commit oracle: every commit since set-up is `Valid`. Returns
/// `(valid, invalid)` commit counts.
pub fn commit_oracle(out: &mut Outcome, dep: &Deployment) -> (u64, u64) {
    let (valid, invalid) = *dep.commits.lock().expect("commit counter lock");
    out.check(invalid == 0, || format!("{invalid} commits were not Valid"));
    out.check(valid > 0, || "no commit was observed".to_string());
    (valid, invalid)
}

/// Count a call's result: `true` when it succeeded, an oracle failure
/// otherwise (no operation of this workload may fail).
fn check<T, E: std::fmt::Debug>(out: &mut Outcome, r: Result<T, E>, what: &str) -> bool {
    match r {
        Ok(_) => true,
        Err(e) => {
            out.check(false, || format!("{what} failed: {e:?}"));
            false
        }
    }
}
