//! The LedgerView benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload <views|audit|ingest|tpcc|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a report, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the gated end-to-end metrics with
//! `--trace 0`, every per-layer metric with `--trace 1`). Exits non-zero
//! when an oracle fails. See `perfbench/README.md`.

mod audit;
mod ingest;
mod layers;
mod measure;
mod report;
#[cfg(test)]
mod selftest;
mod tpcc;
mod views;

use std::path::PathBuf;
use std::process::ExitCode;

use ledgerview::telemetry::Telemetry;

use report::Outcome;

/// The workloads, in report order.
pub const WORKLOADS: [&str; 4] = ["views", "audit", "ingest", "tpcc"];

/// What every workload needs to know about the run.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the measured phase lasts (at least; a workload finishes
    /// the fixed amount of work its virtual-time metrics need).
    pub seconds: f64,
    /// Shrink every size, for the benchmark's own tests.
    pub small: bool,
    /// Scratch directory for on-disk state, removed at the end.
    pub tmp: PathBuf,
}

/// Run one workload, traced when `telemetry` is given.
pub fn run_workload(name: &str, ctx: &Ctx, telemetry: Option<&Telemetry>) -> Outcome {
    match name {
        "views" => views::run(ctx, telemetry),
        "audit" => audit::run(ctx, telemetry),
        "ingest" => ingest::run(ctx, telemetry),
        "tpcc" => tpcc::run(ctx, telemetry),
        other => panic!("unknown workload {other:?}"),
    }
}

/// One benchmark invocation: the untraced run, or with `trace` an
/// untraced reference half and a traced half whose gap is the tracing
/// overhead.
pub fn invocation(name: &str, ctx: &Ctx, trace: bool) -> Outcome {
    if trace {
        let half = Ctx {
            seconds: ctx.seconds / 2.0,
            tmp: ctx.tmp.clone(),
            ..*ctx
        };
        let reference = run_workload(name, &half, None);
        let telemetry = Telemetry::wall_clock();
        let mut traced = run_workload(name, &half, Some(&telemetry));
        let untraced = reference
            .e2e
            .get("cal_goodput_ops_s")
            .copied()
            .unwrap_or(0.0);
        let with_tracing = traced.e2e.get("cal_goodput_ops_s").copied().unwrap_or(0.0);
        traced.layer(
            "trace.overhead_pct",
            layers::overhead_pct(untraced, with_tracing),
        );
        traced.correct &= reference.correct;
        traced.attempted += reference.attempted;
        traced.failed += reference.failed;
        traced.violations.extend(reference.violations);
        traced
    } else {
        run_workload(name, ctx, None)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench_out");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        small: false,
        tmp: out_dir.join(format!("tmp-{}", std::process::id())),
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut outcomes = Vec::new();
    for name in &names {
        let out = invocation(name, &ctx, args.trace);
        print!("{}", out.table());
        let stem = format!("{name}-seed{}-trace{}", args.seed, args.trace as u8);
        let mut files = vec![(format!("{stem}.json"), out.full_json(args.seed, args.trace))];
        if let Some(trace) = &out.chrome_trace {
            files.push((format!("{stem}.spans.json"), trace.clone()));
        }
        for (file, body) in files {
            let path = out_dir.join(file);
            match std::fs::create_dir_all(&out_dir).and_then(|_| std::fs::write(&path, body)) {
                Ok(()) => println!("   written: {}", path.display()),
                Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
            }
        }
        outcomes.push(out);
    }
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let correct = outcomes.iter().all(|o| o.correct);
    if outcomes.len() == 1 {
        println!("{}", outcomes[0].result_line(args.trace));
    } else {
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"workloads\": {names:?}}}",
            outcomes.iter().map(|o| o.attempted).sum::<u64>(),
            outcomes.iter().map(|o| o.failed).sum::<u64>(),
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an oracle failed; see the report above");
        ExitCode::from(1)
    }
}
