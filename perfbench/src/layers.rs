//! Per-layer measurement from outside the stack: the benchmark's own
//! timed calls into each layer's public functions, and reads of the
//! `lv_*` histograms and counters the stack already records.

use std::collections::BTreeMap;
use std::time::Instant;

use ledgerview::crypto::{ed25519, keys, sha256, EncryptionKeyPair, SymmetricKey};
use ledgerview::fabric::FabricChain;
use ledgerview::telemetry::{profile_spans, MetricsRegistry, Telemetry};

use crate::measure::time_median_us;
use crate::report::Outcome;

/// Chain lifecycle phases recorded in `lv_chain_phase_seconds`.
pub const CHAIN_PHASES: [&str; 5] = ["endorse", "validate", "order", "persist", "commit"];

/// `(count, sum in µs)` of a histogram.
pub fn hist(r: &MetricsRegistry, name: &str, labels: &[(&str, &str)]) -> (u64, u64) {
    let h = r.histogram(name, labels);
    (h.histogram().count(), h.histogram().sum())
}

/// Mean of a histogram (0 when empty).
pub fn hist_mean(r: &MetricsRegistry, name: &str, labels: &[(&str, &str)]) -> f64 {
    let (n, sum) = hist(r, name, labels);
    sum as f64 / n.max(1) as f64
}

/// Total µs recorded so far across every chain phase; the difference
/// across one application call is the fabric share of that call.
pub fn chain_phase_total_us(r: &MetricsRegistry) -> u64 {
    CHAIN_PHASES
        .iter()
        .map(|p| hist(r, "lv_chain_phase_seconds", &[("phase", p)]).1)
        .sum()
}

/// Per-phase chain costs from `lv_chain_phase_seconds`.
pub fn chain_layers(out: &mut Outcome, r: &MetricsRegistry) {
    let phase = |p: &str| hist(r, "lv_chain_phase_seconds", &[("phase", p)]);
    let txs = r.counter("lv_chain_txs_total", &[]).get();
    let per = |(n, sum): (u64, u64)| sum as f64 / n.max(1) as f64;
    out.layer("fabric.endorse_us", per(phase("endorse")));
    out.layer("fabric.validate_us_per_tx", per((txs, phase("validate").1)));
    out.layer("fabric.order_us_per_block", per(phase("order")));
    out.layer("fabric.persist_us_per_block", per(phase("persist")));
    out.layer("fabric.commit_us_per_block", per(phase("commit")));
    out.layer(
        "fabric.block_txs_mean",
        hist_mean(r, "lv_chain_block_txs", &[]),
    );
}

/// Encoded size of the last transaction on `chain`'s ledger: the bytes an
/// endorsement signature covers on this workload.
pub fn tip_tx_bytes(chain: &FabricChain) -> usize {
    chain
        .store()
        .tip()
        .and_then(|b| b.transactions.first())
        .map(|tx| tx.encode().len())
        .unwrap_or(0)
}

/// Message sizes the crypto micro-timings use, taken from the workload's
/// own traffic.
pub struct CryptoSizes {
    /// Bytes an endorsement signature covers (an encoded transaction).
    pub signed: usize,
    /// Plaintext of one symmetric AEAD entry.
    pub entry: usize,
    /// Plaintext of one hybrid (X25519) seal: a query response or a
    /// sealed view key.
    pub sealed: usize,
}

/// Time the crypto primitives on the workload's own message sizes.
pub fn crypto_layers(out: &mut Outcome, sizes: &CryptoSizes, seed: u64) {
    let mut rng = ledgerview::crypto::rng::seeded(seed ^ 0xC0_FFEE);
    let mut seed_bytes = [0u8; 32];
    rand::RngCore::fill_bytes(&mut rng, &mut seed_bytes);
    let public = ed25519::public_key(&seed_bytes);
    let msg = vec![0x5Au8; sizes.signed.max(1)];
    let sig = ed25519::sign(&seed_bytes, &msg);
    out.layer(
        "crypto.ed25519_sign_us",
        time_median_us(15, || {
            std::hint::black_box(ed25519::sign(&seed_bytes, std::hint::black_box(&msg)));
        }),
    );
    out.layer(
        "crypto.ed25519_verify_us",
        time_median_us(15, || {
            ed25519::verify(&public, std::hint::black_box(&msg), &sig).expect("valid signature");
        }),
    );
    const BATCH: usize = 16;
    let msgs: Vec<Vec<u8>> = (0..BATCH)
        .map(|i| {
            let mut m = msg.clone();
            m[0] = i as u8;
            m
        })
        .collect();
    let sigs: Vec<[u8; 64]> = msgs.iter().map(|m| ed25519::sign(&seed_bytes, m)).collect();
    let entries: Vec<ed25519::BatchEntry<'_>> = msgs
        .iter()
        .zip(&sigs)
        .map(|(m, s)| ed25519::BatchEntry {
            public_key: &public,
            message: m,
            signature: s,
        })
        .collect();
    out.layer(
        "crypto.ed25519_batch_verify_us_per_sig",
        time_median_us(7, || {
            ed25519::verify_batch(std::hint::black_box(&entries)).expect("valid batch");
        }) / BATCH as f64,
    );
    let block = [0xA5u8; 64];
    const HASHES: usize = 2_000;
    out.layer(
        "crypto.sha256_64b_ns",
        time_median_us(9, || {
            for _ in 0..HASHES {
                std::hint::black_box(sha256::sha256(std::hint::black_box(&block)));
            }
        }) * 1e3
            / HASHES as f64,
    );
    let key = SymmetricKey::generate(&mut rng);
    let entry = vec![7u8; sizes.entry.max(1)];
    out.layer(
        "crypto.aead_seal_us",
        time_median_us(31, || {
            std::hint::black_box(key.seal(&mut rng, std::hint::black_box(&entry)));
        }),
    );
    let reader = EncryptionKeyPair::generate(&mut rng);
    let sealed_plain = vec![3u8; sizes.sealed.max(1)];
    let sealed = keys::seal(&reader.public(), &mut rng, &sealed_plain);
    out.layer(
        "crypto.hybrid_seal_us",
        time_median_us(15, || {
            std::hint::black_box(keys::seal(&reader.public(), &mut rng, &sealed_plain));
        }),
    );
    out.layer(
        "crypto.hybrid_open_us",
        time_median_us(15, || {
            keys::open(&reader, std::hint::black_box(&sealed)).expect("sealed to this reader");
        }),
    );
}

/// Accumulates the host time of the benchmark's own calls, by name.
#[derive(Default)]
pub struct CallTimes {
    totals: BTreeMap<&'static str, (u64, f64)>,
}

impl CallTimes {
    /// Time `f` as one call of `name`, inside a span of the same name
    /// when telemetry is attached.
    pub fn time<T>(
        &mut self,
        telemetry: Option<&Telemetry>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let _span = telemetry.map(|t| t.span(name));
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn add(&mut self, name: &'static str, us: f64) {
        let e = self.totals.entry(name).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += us;
    }

    /// Mean µs per call of `name` (0 when never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map(|(n, sum)| sum / *n as f64)
            .unwrap_or(0.0)
    }

    /// Calls recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map(|(n, _)| *n).unwrap_or(0)
    }
}

/// Fold the tracer's in-memory spans into a self-time table, count
/// them, and keep the Chrome trace for writing out at the end.
pub fn finish_trace(out: &mut Outcome, telemetry: &Telemetry) {
    let tracer = telemetry.tracer();
    let spans = tracer.recent();
    out.layer(
        "trace.spans",
        (spans.len() as u64 + tracer.evicted()) as f64,
    );
    let profile = profile_spans(&spans);
    out.profile = Some(format!(
        "{}({} spans kept in memory, {} older ones evicted from the ring)\n",
        profile.table(),
        spans.len(),
        tracer.evicted()
    ));
    out.chrome_trace = Some(tracer.chrome_trace_json());
}

/// Tracing overhead: how much more time an operation takes traced than
/// untraced, in percent.
pub fn overhead_pct(untraced_goodput: f64, traced_goodput: f64) -> f64 {
    if traced_goodput <= 0.0 {
        return 0.0;
    }
    (untraced_goodput / traced_goodput - 1.0) * 100.0
}
