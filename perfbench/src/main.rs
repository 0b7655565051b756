//! The repository benchmark: three workloads against the public APIs of
//! the query, exec, core and serve crates. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-stats-ceb|serve-hot --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it records the run context (host parallelism, SIMD tier,
//! scale, seeds, sample counts, writer lateness).

mod common;
mod plan;
mod serve;
mod trace;
mod util;

use util::Report;

const WORKLOADS: [&str; 2] = ["plan-stats-ceb", "serve-hot"];

/// Every `--trace 0` run reports exactly these.
const END_TO_END: [&str; 11] = [
    "setup_s",
    "stats_bytes",
    "ok_pct",
    "qps",
    "op_us_p50",
    "op_us_p999",
    "batch_ms_p50",
    "batch_ms_p99",
    "plan_runtime_rel",
    "bound_over_true_p50",
    "bound_over_true_p95",
];

/// Every `--trace 1` run reports exactly these.
const PER_LAYER: [&str; 42] = [
    "stats.scan_s",
    "stats.merge_s",
    "stats.finalize_s",
    "query.parse_us",
    "query.induced_us",
    "optimizer.self_ms",
    "optimizer.estimates_per_query",
    "estimator.bound_us",
    "estimator.resolve_ns",
    "estimator.assemble_ns",
    "estimator.kernel_ns",
    "estimator.shape_ns",
    "estimator.shape_hit_ratio",
    "estimator.shape_lookups",
    "estimator.shape_evictions",
    "estimator.lit_bound_hit_ratio",
    "estimator.lit_bound_lookups",
    "estimator.eq_memo_hit_ratio",
    "estimator.eq_memo_lookups",
    "estimator.range_memo_hit_ratio",
    "estimator.range_memo_lookups",
    "estimator.like_memo_hit_ratio",
    "estimator.like_memo_lookups",
    "estimator.relaxations_pruned",
    "estimator.refill_misses",
    "service.line_us",
    "service.batch_us",
    "service.dedup_ratio",
    "service.dedup_lines",
    "service.worker_skew",
    "service.timeouts",
    "service.spills",
    "server.overhead_us",
    "incremental.apply_ms",
    "snapshot.encode_ms",
    "snapshot.save_ms",
    "refresh.publish_ms",
    "refresh.publishes",
    "trace.plan_overhead_pct",
    "trace.serve_overhead_pct",
    "trace.plan_coverage",
    "trace.spans",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| util::fail(&format!("{flag} needs a value")));
        let bad = || -> ! { util::fail(&format!("bad value for {flag}: {value}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => args.trace = value.parse::<u8>().unwrap_or_else(|_| bad()) == 1,
            _ => util::fail(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        util::fail(&format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds <= 0.0 {
        util::fail("--seconds must be positive");
    }
    args
}

fn main() {
    let args = parse_args();
    let mut report = Report::default();
    let tier = safebound_core::simd_tier();
    report.info("workload", util::string(&args.workload));
    report.info_num("seed", args.seed as f64);
    report.info_num("data_seed", common::DATA_SEED as f64);
    report.info("scale", util::string("default"));
    report.info_num("nproc", serve::workers() as f64);
    report.info("simd_tier", util::string(tier.name()));
    report.info_num("seconds", args.seconds);
    report.info("trace", args.trace.to_string());

    let expected: &[&str] = if args.trace {
        let tracers = match args.workload.as_str() {
            "plan-stats-ceb" => plan::run_traced(args.seed, &mut report),
            _ => serve::run_traced(args.seed, &mut report),
        };
        let spans: usize = tracers.iter().map(|(_, t)| t.len()).sum();
        report.metric("trace.spans", spans as f64, "count");
        let dir = util::scratch_dir();
        for (name, t) in &tracers {
            let path = dir.join(format!("trace-{}-{}-{name}.tsv", args.workload, args.seed));
            if let Err(e) = t.write_tsv(&path) {
                util::fail(&format!("writing {}: {e}", path.display()));
            }
        }
        report.info(
            "trace_files",
            util::string(&dir.join("trace-*.tsv").display().to_string()),
        );
        &PER_LAYER
    } else {
        match args.workload.as_str() {
            "plan-stats-ceb" => plan::run(args.seed, args.seconds, &mut report),
            _ => serve::run(args.seed, args.seconds, &mut report),
        }
        let ok =
            report.attempted.saturating_sub(report.failed) as f64 / report.attempted.max(1) as f64;
        report.metric("ok_pct", ok * 100.0, "%");
        &END_TO_END
    };

    // The result must carry exactly the declared metrics, each once.
    let mut got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    got.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if got != want {
        util::fail(&format!("metric set mismatch: got {got:?}, want {want:?}"));
    }
    report.print();
}
