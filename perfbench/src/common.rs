//! Pieces every workload shares: the quality check sample, snapshot
//! identity, the write stream, and the traced offline build.

use crate::trace::Tracer;
use crate::util::{self, Report};
use safebound_baselines::SafeBoundEstimator;
use safebound_core::snapshot_file::encode_snapshot;
use safebound_core::{
    partition_ranges, save_snapshot, IncrementalBuilder, SafeBound, SafeBoundBuilder,
    SafeBoundConfig, StatsSnapshot, SymbolTable, TableScanPlan,
};
use safebound_datagen::insert_batch;
use safebound_exec::{exact_count, pk_fk_indexes, simulated_runtime, Optimizer, TrueCardOracle};
use safebound_query::Query;
use safebound_serve::{DeltaSource, RefreshConfig, ShutdownToken, StatsRefresher};
use safebound_storage::{Catalog, CatalogDelta};
use std::path::Path;
use std::time::{Duration, Instant};

/// Seed of the generated databases and of the write stream. Fixed, so
/// the statistics and the quality numbers repeat across workload seeds.
pub const DATA_SEED: u64 = 42;

/// Seed of the fixed quality check sample.
pub const CHECK_SEED: u64 = 1;

/// Rows per write.
pub const WRITE_ROWS: usize = 64;

/// Writes in a traced run.
pub const WRITES: usize = 6;

/// Times the set-up is repeated for `setup_s`.
pub const SETUPS: usize = 5;

/// The write stream: `WRITES` inserts of `WRITE_ROWS` rows resampled
/// from `table`, derived from [`DATA_SEED`] only.
pub fn write_stream(catalog: &Catalog, table: &str) -> Vec<CatalogDelta> {
    (0..WRITES as u64)
        .map(|k| insert_batch(catalog, table, WRITE_ROWS, DATA_SEED * 1000 + k))
        .collect()
}

/// Plan-quality numbers over the check sample.
pub struct Quality {
    pub runtime_rel: f64,
    pub ratio_p50: f64,
    pub ratio_p95: f64,
    pub queries: usize,
}

/// Check the sample against the exact oracle (every bound ≥ the true
/// count, every plan simulates) and measure plan quality: total
/// simulated runtime of SafeBound plans over TrueCard plans, and the
/// full-query bound over the true count.
pub fn quality(
    catalog: &Catalog,
    handle: &SafeBound,
    sample: &[Query],
    report: &mut Report,
) -> Quality {
    let opt = Optimizer::default();
    let mut est = SafeBoundEstimator::new(handle.clone());
    let (mut sb_total, mut tc_total) = (0.0, 0.0);
    let mut ratios = Vec::with_capacity(sample.len());
    for (i, q) in sample.iter().enumerate() {
        let truth = exact_count(catalog, q);
        let bound = handle.bound(q);
        match (&truth, &bound) {
            (Ok(t), Ok(b)) => {
                let t = *t as f64;
                report.check(*b >= t, || format!("check query {i}: bound {b} < true {t}"));
                ratios.push(b / t.max(1.0));
            }
            _ => report.check(false, || format!("check query {i}: {truth:?} / {bound:?}")),
        }
        let idx = pk_fk_indexes(catalog, q);
        let sb_plan = opt.optimize(q, &idx, &mut est);
        let tc_plan = opt.optimize(q, &idx, &mut TrueCardOracle::new(catalog));
        match (
            simulated_runtime(&sb_plan, q, catalog, &opt.cost),
            simulated_runtime(&tc_plan, q, catalog, &opt.cost),
        ) {
            (Ok(sb), Ok(tc)) => {
                report.check(true, String::new);
                sb_total += sb;
                tc_total += tc;
            }
            (a, b) => report.check(false, || format!("check query {i}: simulate {a:?} / {b:?}")),
        }
    }
    let ratios = util::sorted(ratios);
    Quality {
        runtime_rel: sb_total / tc_total,
        ratio_p50: util::pct(&ratios, 50.0),
        ratio_p95: util::pct(&ratios, 95.0),
        queries: sample.len(),
    }
}

pub fn report_quality(q: &Quality, report: &mut Report) {
    report.metric("plan_runtime_rel", q.runtime_rel, "ratio");
    report.metric("bound_over_true_p50", q.ratio_p50, "ratio");
    report.metric("bound_over_true_p95", q.ratio_p95, "ratio");
    report.info_num("check_sample_queries", q.queries as f64);
}

/// Bit-identity of two snapshots' statistics (build id and build time
/// are per-build stamps, not statistics).
pub fn same_stats(a: &StatsSnapshot, b: &StatsSnapshot) -> bool {
    let strip = |s: &StatsSnapshot| {
        let mut s = s.clone();
        s.build_id = 0;
        s.build_time = Duration::ZERO;
        encode_snapshot(&s).ok()
    };
    match (strip(a), strip(b)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// A statistics refresher fed by a [`DeltaSource`], saving every
/// published snapshot to `save_path` through the crash-safe writer.
pub fn spawn_refresher(
    handle: &SafeBound,
    source: &DeltaSource,
    save_path: &Path,
    shutdown: &ShutdownToken,
) -> StatsRefresher {
    StatsRefresher::spawn(
        handle.clone(),
        source.source(),
        RefreshConfig {
            save_path: Some(save_path.to_path_buf()),
            ..RefreshConfig::default()
        },
        shutdown.clone(),
    )
}

/// Run `f` with reference work timed just before and after it; returns
/// its result with the raw and the host-normalized seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let mut norm = util::Normalizer::default();
    for _ in 0..3 {
        norm.record_all_cores(0.0);
    }
    let t = Instant::now();
    let out = f();
    let raw = t.elapsed().as_secs_f64();
    for _ in 0..3 {
        norm.record_all_cores(0.0);
    }
    (out, raw, raw * norm.run_factor())
}

/// `setup_s` from the normalized set-up times (the raw ones go to the
/// run context).
pub fn report_setup(raw: &[f64], normalized: &[f64], report: &mut Report) {
    report.metric("setup_s", util::median(normalized), "s");
    report.info("setup_s_raw", format!("{raw:?}"));
}

/// The write stream through the statistics refresher: each write is
/// submitted to the `DeltaSource` and published (and saved) by
/// `refresh_blocking`. Afterwards the published statistics must be
/// bit-identical to a full rebuild over the source's catalog.
pub fn refresher_writes(
    source: &DeltaSource,
    refresher: &StatsRefresher,
    handle: &SafeBound,
    deltas: &[CatalogDelta],
    report: &mut Report,
) {
    let mut ms = Vec::new();
    for delta in deltas {
        let t = Instant::now();
        source.submit(delta.clone());
        let result = refresher.refresh_blocking();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(result.is_ok(), || format!("refresh: {result:?}"));
    }
    report.metric("refresh.publish_ms", util::median(&ms), "ms");
    report.metric("refresh.publishes", refresher.generation() as f64, "count");
    let applied = source.applied();
    report.check(applied == deltas.len() as u64, || {
        format!("{applied} of {} writes applied", deltas.len())
    });
    let rebuilt = SafeBoundBuilder::new(util::stats_config()).build(&source.catalog());
    report.check(same_stats(&handle.snapshot(), &rebuilt), || {
        "published statistics differ from a full rebuild".to_string()
    });
}

/// Build statistics the way the incremental builder does (row shards →
/// per-table merge → finalize) through the public per-table calls, one
/// span per call. Sequential, so each stage's time is its full cost.
pub fn traced_build(
    catalog: &Catalog,
    config: &SafeBoundConfig,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let mut symbols = SymbolTable::new();
    for t in catalog.tables() {
        symbols.intern(&t.name);
        for f in &t.schema.fields {
            symbols.intern(&f.name);
        }
    }
    tracer.next_request();
    tracer.begin("stats.build");
    for table in catalog.tables() {
        let plan = TableScanPlan::new(catalog, table, config);
        let mut shards = Vec::new();
        for range in partition_ranges(table.num_rows(), 8) {
            shards.push(tracer.span("stats.scan", || plan.scan(catalog, range)));
        }
        let mut shards = shards.into_iter();
        let Some(mut merged) = shards.next() else {
            continue;
        };
        tracer.span("stats.merge", || {
            for s in shards {
                merged.merge(s);
            }
        });
        tracer.span("stats.finalize", || merged.finalize(&symbols, config));
    }
    tracer.end();
    for (name, metric) in [
        ("stats.scan", "stats.scan_s"),
        ("stats.merge", "stats.merge_s"),
        ("stats.finalize", "stats.finalize_s"),
    ] {
        report.metric(
            metric,
            tracer.durations(name).iter().sum::<f64>() / 1e9,
            "s",
        );
    }
}

/// Apply `deltas` to a private incremental builder, timing apply, encode
/// and save per write; returns the snapshot after each write.
pub fn traced_writes(
    catalog: &Catalog,
    config: &SafeBoundConfig,
    deltas: &[CatalogDelta],
    save_path: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<StatsSnapshot> {
    let mut builder = IncrementalBuilder::new(catalog.clone(), config.clone());
    let mut snaps = Vec::new();
    for delta in deltas {
        tracer.next_request();
        tracer.begin("refresh.write");
        let snap = tracer.span("incremental.apply", || builder.apply(delta));
        let Ok(snap) = snap else {
            tracer.end();
            report.check(false, || "traced apply rejected a write".to_string());
            continue;
        };
        let encoded = tracer.span("snapshot.encode", || encode_snapshot(&snap));
        let saved = tracer.span("snapshot.save", || save_snapshot(save_path, &snap));
        tracer.end();
        report.check(encoded.is_ok() && saved.is_ok(), || {
            "traced encode/save failed".to_string()
        });
        snaps.push(snap);
    }
    let ms = |name| util::median(&tracer.durations(name)) / 1e6;
    report.metric("incremental.apply_ms", ms("incremental.apply"), "ms");
    report.metric("snapshot.encode_ms", ms("snapshot.encode"), "ms");
    report.metric("snapshot.save_ms", ms("snapshot.save"), "ms");
    snaps
}

/// The shape misses the traffic right after each publish paid to refill
/// the flushed caches (mean per publish).
pub fn report_refill(misses: &[f64], report: &mut Report) {
    report.metric("estimator.refill_misses", util::mean(misses), "count");
}
