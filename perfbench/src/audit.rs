//! `audit`: the LedgerView read path on a ledger built during set-up.
//!
//! Member readers run `query_view` → `ViewReader::open_response` →
//! `verify_soundness` and `verify_completeness_txlist` on per-transaction
//! views.
//! A recursive provenance view (every transfer of every item the hub
//! ever handled, evaluated by datalog over the ledger) is refreshed once
//! in set-up, where it must add exactly the transfers the benchmark
//! computes from its inputs, and then at a fixed cadence over the
//! unchanged ledger, where it must add nothing. Each run also makes one
//! query as a non-member and one key fetch after revocation; both must
//! be denied.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use ledgerview::crypto::EncryptionKeyPair;
use ledgerview::fabric::endorsement::EndorsementPolicy;
use ledgerview::fabric::identity::{Identity, OrgId};
use ledgerview::fabric::{FabricChain, TxId, ValidationConfig};
use ledgerview::telemetry::Telemetry;
use ledgerview::views::manager::{AccessMode, HashBasedManager, QueryResponse, ViewManager};
use ledgerview::views::predicate::{entity_history_definition, ViewDefinition};
use ledgerview::views::reader::{RevealedTx, ViewReader};
use ledgerview::views::txmodel::{AttrValue, ClientTransaction};
use ledgerview::views::{verify, ViewPredicate};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::layers::{self, CallTimes, CryptoSizes};
use crate::measure::{self, Calibration, Meter, Setups};
use crate::report::Outcome;
use crate::Ctx;

/// Receiving parties with one per-transaction view each.
const DESTS: [&str; 4] = ["Warehouse 1", "Warehouse 2", "Warehouse 3", "Warehouse 4"];
/// Every party that sends or receives items.
const ENTITIES: [&str; 6] = [
    "Warehouse 1",
    "Warehouse 2",
    "Warehouse 3",
    "Warehouse 4",
    "Hub",
    "Factory",
];
/// The entity whose provenance view is recursive.
const HUB: &str = "Hub";
/// Distinct items moving between entities.
const ITEMS: u32 = 24;
/// Every `BROADCAST_EVERY`-th transfer is selected by every
/// per-transaction view.
const BROADCAST_EVERY: usize = 10;
/// Secret payload size (bytes).
const SECRET_BYTES: usize = 96;
/// Every `REFRESH_EVERY`-th operation refreshes the recursive view.
const REFRESH_EVERY: u64 = 40;
/// Operations per goodput window (a multiple of the refresh cadence).
const WINDOW_OPS: u64 = 80;
/// Calibration: a kernel sample (~46 µs) after each operation;
/// elasticity the midpoint of three fits on the reference host (0.67–0.78);
/// set-up elasticity likewise (0.49–0.81).
const CALIBRATION: Calibration = Calibration {
    kernel_iters: 10_000,
    elasticity: 0.73,
    setup_elasticity: 0.65,
};
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// One transfer as the benchmark generated it.
struct Transfer {
    item: String,
    from: &'static str,
    to: &'static str,
    broadcast: bool,
    secret: Vec<u8>,
}

impl Transfer {
    /// The `i`-th transfer. Receivers and broadcast markers follow `i`,
    /// so every seed gives views of the same sizes (and the same work per
    /// query); senders, items and secrets come from `rng`.
    fn new(rng: &mut StdRng, i: usize) -> Transfer {
        let to = ENTITIES[i % ENTITIES.len()];
        let from = loop {
            let from = ENTITIES[rng.random_range(0..ENTITIES.len())];
            if from != to {
                break from;
            }
        };
        let mut secret = vec![0u8; SECRET_BYTES];
        rng.fill_bytes(&mut secret);
        Transfer {
            item: format!("item{}", rng.random_range(0..ITEMS)),
            from,
            to,
            broadcast: i % BROADCAST_EVERY == BROADCAST_EVERY - 1,
            secret,
        }
    }

    fn client_tx(&self) -> ClientTransaction {
        let mut attrs = vec![
            ("item", AttrValue::str(self.item.clone())),
            ("from", AttrValue::str(self.from)),
            ("to", AttrValue::str(self.to)),
        ];
        if self.broadcast {
            attrs.push(("broadcast", AttrValue::str("all")));
        }
        ClientTransaction::new(attrs, self.secret.clone())
    }

    fn in_view(&self, dest: &str) -> bool {
        self.to == dest || self.broadcast
    }
}

/// The secret of the first transfer a seed generates.
#[cfg(test)]
pub fn transfer_secret(seed: u64) -> Vec<u8> {
    Transfer::new(&mut ledgerview::crypto::rng::seeded(seed), 0).secret
}

/// The audit ledger and everything the oracles compare against.
pub struct Deployment {
    chain: FabricChain,
    manager: HashBasedManager,
    client: Identity,
    readers: Vec<ViewReader>,
    revoked: ViewReader,
    /// The benchmark's own record of every transfer, by tid.
    transfers: BTreeMap<TxId, Transfer>,
    /// Expected members of the recursive view.
    provenance: BTreeSet<TxId>,
}

fn view_name(dest: &str) -> String {
    format!("A:{dest}")
}

const PROVENANCE: &str = "P:Hub";

/// Build a signed chain holding `ledger_txs` transfers, the views over
/// them and their readers; refresh the recursive view once.
fn setup(rng: &mut StdRng, ledger_txs: usize, out: &mut Outcome) -> Deployment {
    let mut chain = FabricChain::new(&["ManufacturerOrg", "AuditorOrg"], rng);
    chain.set_validation_config(ValidationConfig::parallel(1));
    let policy = EndorsementPolicy::MajorityOf(chain.org_ids());
    ledgerview::deploy_ledgerview_contracts(&mut chain, policy);
    let owner = chain
        .enroll(&OrgId::new("ManufacturerOrg"), "view-owner", rng)
        .expect("enroll owner");
    let client = chain
        .enroll(&OrgId::new("AuditorOrg"), "shipper", rng)
        .expect("enroll client");
    let mut manager: HashBasedManager = ViewManager::new(owner, true);
    for d in DESTS {
        let pred = ViewPredicate::Or(vec![
            ViewPredicate::attr_eq("to", d),
            ViewPredicate::AttrExists("broadcast".into()),
        ]);
        manager
            .create_view(&mut chain, view_name(d), pred, AccessMode::Revocable, rng)
            .expect("create per-tx view");
    }
    manager
        .create_view_with_definition(
            &mut chain,
            PROVENANCE,
            entity_history_definition(HUB),
            AccessMode::Revocable,
            rng,
        )
        .expect("create recursive view");
    let mut dep = Deployment {
        chain,
        manager,
        client,
        readers: Vec::new(),
        revoked: ViewReader::new(EncryptionKeyPair::generate(rng)),
        transfers: BTreeMap::new(),
        provenance: BTreeSet::new(),
    };
    for i in 0..ledger_txs {
        dep.append(rng, i);
    }
    dep.manager
        .flush(&mut dep.chain, rng)
        .expect("flush txlist");
    let added = dep.manager.refresh_view(&mut dep.chain, PROVENANCE, rng);
    let expected = dep.expected_provenance();
    out.check(added.as_ref().ok() == Some(&expected.len()), || {
        format!(
            "initial refresh added {added:?}, expected {}",
            expected.len()
        )
    });
    dep.provenance = expected;

    for d in DESTS {
        let keys = EncryptionKeyPair::generate(rng);
        dep.manager
            .grant_access(&mut dep.chain, &view_name(d), keys.public(), rng)
            .expect("grant reader");
        let mut reader = ViewReader::new(keys);
        reader
            .obtain_view_key(&dep.chain, &view_name(d))
            .expect("member obtains K_V");
        dep.readers.push(reader);
    }
    // A reader granted and then revoked: the rotated key is not sealed
    // to it any more.
    let revoked_pub = dep.revoked.public();
    let first = view_name(DESTS[0]);
    dep.manager
        .grant_access(&mut dep.chain, &first, revoked_pub, rng)
        .expect("grant reader to revoke");
    dep.manager
        .revoke_access(&mut dep.chain, &first, &revoked_pub, rng)
        .expect("revoke reader");
    dep.readers[0]
        .obtain_view_key(&dep.chain, &first)
        .expect("member re-obtains the rotated K_V");
    dep
}

impl Deployment {
    /// Invoke the `i`-th transfer through the manager; returns its tid.
    fn append(&mut self, rng: &mut StdRng, i: usize) -> Option<TxId> {
        let t = Transfer::new(rng, i);
        let tid = self
            .manager
            .invoke_with_secret(&mut self.chain, &self.client, &t.client_tx(), rng)
            .ok()?;
        self.transfers.insert(tid, t);
        Some(tid)
    }

    /// Every transfer of every item the hub sent or received, computed
    /// from the benchmark's own inputs.
    fn expected_provenance(&self) -> BTreeSet<TxId> {
        let items: BTreeSet<&str> = self
            .transfers
            .values()
            .filter(|t| t.from == HUB || t.to == HUB)
            .map(|t| t.item.as_str())
            .collect();
        self.transfers
            .iter()
            .filter(|(_, t)| items.contains(t.item.as_str()))
            .map(|(tid, _)| *tid)
            .collect()
    }

    fn expected_view(&self, dest: &str) -> BTreeSet<TxId> {
        self.transfers
            .iter()
            .filter(|(_, t)| t.in_view(dest))
            .map(|(tid, _)| *tid)
            .collect()
    }
}

/// Compare a reader's revealed view against the benchmark's own record.
fn check_revealed(dep: &Deployment, dest: &str, revealed: &[RevealedTx]) -> Result<(), String> {
    let expected = dep.expected_view(dest);
    let got: BTreeSet<TxId> = revealed.iter().map(|r| r.tid).collect();
    if got != expected {
        return Err(format!(
            "{}: revealed {} tids, expected {}",
            view_name(dest),
            got.len(),
            expected.len()
        ));
    }
    let owner_tids: BTreeSet<TxId> = dep
        .manager
        .view_tids(&view_name(dest))
        .map_err(|e| e.to_string())?
        .into_iter()
        .collect();
    if owner_tids != expected {
        return Err(format!(
            "{}: owner's view differs from the inputs",
            view_name(dest)
        ));
    }
    for r in revealed {
        if dep.transfers.get(&r.tid).map(|t| &t.secret) != Some(&r.secret) {
            return Err(format!("{}: secret of {} differs", view_name(dest), r.tid));
        }
    }
    Ok(())
}

/// One member read: query, open, compare, verify. Returns the number of
/// revealed transactions and the sealed response's size in bytes.
fn member_read(
    dep: &Deployment,
    j: usize,
    rng: &mut StdRng,
    calls: &mut CallTimes,
    telemetry: Option<&Telemetry>,
    tamper: bool,
) -> Result<(usize, usize), String> {
    let dest = DESTS[j];
    let view = view_name(dest);
    let reader = &dep.readers[j];
    let response: QueryResponse = calls
        .time(telemetry, "bench.query", || {
            dep.manager.query_view(&view, &reader.public(), None, rng)
        })
        .map_err(|e| format!("query_view: {e}"))?;
    let mut revealed = calls
        .time(telemetry, "bench.open", || {
            reader.open_response(&dep.chain, &view, &response)
        })
        .map_err(|e| format!("open_response: {e}"))?;
    if tamper {
        if let Some(first) = revealed.first_mut() {
            first.secret[0] ^= 1;
        }
    }
    check_revealed(dep, dest, &revealed)?;
    let sound = calls
        .time(telemetry, "bench.verify_soundness", || {
            verify::verify_soundness(&dep.chain, &view, &revealed)
        })
        .map_err(|e| format!("verify_soundness: {e}"))?;
    let tids = revealed.iter().map(|r| r.tid).collect();
    let complete = calls
        .time(telemetry, "bench.verify_completeness", || {
            verify::verify_completeness_txlist(&dep.chain, &view, &tids, u64::MAX)
        })
        .map_err(|e| format!("verify_completeness_txlist: {e}"))?;
    if !sound.ok || !complete.ok {
        return Err(format!(
            "{view}: sound={} complete={} ({:?} {:?})",
            sound.ok, complete.ok, sound.violations, complete.violations
        ));
    }
    Ok((revealed.len(), response.sealed.len()))
}

/// Refresh the recursive view over the unchanged ledger: it must add
/// nothing and still hold exactly the provenance the benchmark computed.
/// (The ledger does not grow during the run, so every refresh costs the
/// same however many operations a run gets through.)
fn refresh(
    dep: &mut Deployment,
    rng: &mut StdRng,
    calls: &mut CallTimes,
    telemetry: Option<&Telemetry>,
) -> Result<(), String> {
    let added = calls
        .time(telemetry, "bench.refresh", || {
            dep.manager.refresh_view(&mut dep.chain, PROVENANCE, rng)
        })
        .map_err(|e| format!("refresh_view: {e}"))?;
    let members: BTreeSet<TxId> = dep
        .manager
        .view_tids(PROVENANCE)
        .map_err(|e| e.to_string())?
        .into_iter()
        .collect();
    if added != 0 || members != dep.provenance {
        return Err(format!(
            "refresh added {added} (expected 0); view has {} tids, expected {}",
            members.len(),
            dep.provenance.len()
        ));
    }
    Ok(())
}

/// Ledger size the audit runs on.
pub fn ledger_txs(small: bool) -> usize {
    if small {
        40
    } else {
        160
    }
}

/// Run the workload; `tamper` flips one byte of the first revealed
/// secret (the oracle self-test).
pub fn run_with(ctx: &Ctx, telemetry: Option<&Telemetry>, tamper: bool) -> Outcome {
    let mut out = Outcome::new("audit");
    let mut setups = Setups::new(CALIBRATION.setup_elasticity);
    let mut dep = None;
    for rep in 0..SETUP_REPS {
        let mut rng = ledgerview::crypto::rng::seeded(ctx.seed.wrapping_add(rep as u64));
        dep = Some(setups.time(|| setup(&mut rng, ledger_txs(ctx.small), &mut out)));
    }
    let mut dep = dep.expect("at least one set-up");
    setups.report(&mut out);
    if let Some(t) = telemetry {
        dep.chain.set_telemetry(t);
        dep.manager.set_telemetry(t);
    }
    let mut rng = ledgerview::crypto::rng::seeded(ctx.seed ^ 0x0041_5544_4954);
    let min_ops = if ctx.small {
        2 * REFRESH_EVERY
    } else {
        5 * WINDOW_OPS
    };
    let mut meter = Meter::start(WINDOW_OPS, min_ops, CALIBRATION);
    let mut latencies = Vec::new();
    let mut calls = CallTimes::default();
    let (mut revealed_total, mut sealed_total) = (0usize, 0usize);

    // The two denials, once per run.
    let outsider = EncryptionKeyPair::generate(&mut rng);
    let view0 = view_name(DESTS[0]);
    let denied = dep
        .manager
        .query_view(&view0, &outsider.public(), None, &mut rng)
        .is_err();
    out.check(denied, || "a non-member query was answered".into());
    let revoked_denied = dep.revoked.obtain_view_key(&dep.chain, &view0).is_err();
    out.check(revoked_denied, || {
        "a revoked reader obtained the view key".into()
    });
    meter.record(2, denied as u64 + revoked_denied as u64);

    let mut i = 0u64;
    while meter.elapsed().as_secs_f64() < ctx.seconds || i < min_ops {
        i += 1;
        let start = Instant::now();
        let result = if i.is_multiple_of(REFRESH_EVERY) {
            refresh(&mut dep, &mut rng, &mut calls, telemetry)
        } else {
            let j = (i % DESTS.len() as u64) as usize;
            member_read(&dep, j, &mut rng, &mut calls, telemetry, tamper && i == 1).map(
                |(n, bytes)| {
                    revealed_total += n;
                    sealed_total += bytes;
                },
            )
        };
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
        if let Err(e) = &result {
            out.check(false, || e.clone());
        }
        meter.record(1, result.is_ok() as u64);
    }
    out.attempted = meter.attempted;
    out.failed = meter.attempted - meter.good;
    meter.report(&mut out);
    out.e2e("op_p50_us", measure::quantile(&latencies, 0.50));
    out.e2e("op_p99_us", measure::quantile(&latencies, 0.99));
    out.e2e(
        "failed_ratio",
        out.failed as f64 / meter.attempted.max(1) as f64,
    );

    if let Some(t) = telemetry {
        layers::chain_layers(&mut out, t.registry());
        out.layer("core.query_us", calls.mean_us("bench.query"));
        out.layer("core.open_us", calls.mean_us("bench.open"));
        let reads = calls.count("bench.verify_soundness").max(1);
        let per_read = revealed_total as f64 / reads as f64;
        out.layer(
            "core.verify_soundness_us_per_tx",
            calls.mean_us("bench.verify_soundness") / per_read.max(1.0),
        );
        out.layer(
            "core.verify_completeness_us",
            calls.mean_us("bench.verify_completeness"),
        );
        out.layer("core.refresh_ms", calls.mean_us("bench.refresh") / 1e3);
        // The two halves of a refresh, timed once through their public
        // entry points on the final ledger (outside the measured loop).
        let edb = calls.time(telemetry, "bench.edb_build", || {
            verify::ledger_edb(&dep.chain)
        });
        if let Ok(ViewDefinition::Recursive { program, .. }) = dep.manager.definition(PROVENANCE) {
            let _ = calls.time(telemetry, "bench.datalog_eval", || program.evaluate(&edb));
        }
        out.layer(
            "datalog.edb_build_ms",
            calls.mean_us("bench.edb_build") / 1e3,
        );
        out.layer("datalog.eval_ms", calls.mean_us("bench.datalog_eval") / 1e3);
        let sizes = CryptoSizes {
            signed: layers::tip_tx_bytes(&dep.chain),
            entry: SECRET_BYTES,
            sealed: sealed_total / reads as usize,
        };
        layers::crypto_layers(&mut out, &sizes, ctx.seed);
        layers::finish_trace(&mut out, t);
    }
    out
}

/// Run the workload.
pub fn run(ctx: &Ctx, telemetry: Option<&Telemetry>) -> Outcome {
    run_with(ctx, telemetry, false)
}
