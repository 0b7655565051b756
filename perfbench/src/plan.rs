//! `plan-stats-ceb`: an embedded optimizer plans STATS-CEB queries back
//! to back, SQL text → `parse_sql` → `Optimizer::optimize` with one
//! long-lived `SafeBoundEstimator`, in a single thread (closed loop).

use crate::common::{self, CHECK_SEED, DATA_SEED, SETUPS};
use crate::serve;
use crate::trace::Tracer;
use crate::util::{self, Report};
use safebound_baselines::SafeBoundEstimator;
use safebound_core::{BoundSession, PhaseBreakdown, SafeBound, SessionStats};
use safebound_datagen::{stats_catalog, stats_ceb, StatsScale};
use safebound_exec::{pk_fk_indexes, CardinalityEstimator, Optimizer};
use safebound_query::{parse_sql, Query};
use safebound_serve::{DeltaSource, ShutdownToken};
use safebound_storage::Catalog;
use std::time::Instant;

/// Queries planned per `batch_ms` sample (a batch here is this many
/// back-to-back plans).
const PLAN_BATCH: usize = 16;

/// Queries of the fixed check sample.
const CHECK_QUERIES: usize = 48;

/// Fact table the write stream inserts into.
const WRITE_TABLE: &str = "badges";

/// Workload instances (146 queries each) in the traced replay.
const TRACE_INSTANCES: u64 = 24;

/// The workload's SQL, one STATS-CEB instance (fresh literals, repeating
/// templates) per step: instance `k` is `stats_ceb(seed + k)`.
fn instance(seed: u64, k: u64) -> Vec<String> {
    stats_ceb(seed.wrapping_add(k))
        .into_iter()
        .map(|b| b.sql)
        .collect()
}

fn catalog() -> Catalog {
    stats_catalog(&StatsScale::default(), DATA_SEED)
}

/// `SafeBound::build`, timed `SETUPS` times; returns the last handle.
fn setup(catalog: &Catalog, report: &mut Report) -> SafeBound {
    let (mut raw, mut normalized, mut handle) = (Vec::new(), Vec::new(), None);
    for _ in 0..SETUPS {
        let (sb, r, n) = common::timed(|| SafeBound::build(catalog, util::stats_config()));
        raw.push(r);
        normalized.push(n);
        handle = Some(sb);
    }
    common::report_setup(&raw, &normalized, report);
    handle.unwrap_or_else(|| util::fail("no setup ran"))
}

fn check_sample() -> Vec<Query> {
    stats_ceb(CHECK_SEED)
        .into_iter()
        .take(CHECK_QUERIES)
        .map(|b| b.query)
        .collect()
}

/// Plan one SQL string; false if the text does not parse or the plan
/// carries a failed estimate.
fn plan_one(
    catalog: &Catalog,
    opt: &Optimizer,
    sql: &str,
    est: &mut dyn CardinalityEstimator,
) -> bool {
    let Ok(q) = parse_sql(sql) else { return false };
    let idx = pk_fk_indexes(catalog, &q);
    opt.optimize(&q, &idx, est).card().is_finite()
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let catalog = catalog();
    let handle = setup(&catalog, report);
    report.metric("stats_bytes", handle.snapshot().byte_size() as f64, "bytes");

    // Timed loop. Instance generation and the reference work happen
    // between instances and are kept out of the measured time.
    let opt = Optimizer::default();
    let mut est = SafeBoundEstimator::new(handle.clone());
    let (mut measured, mut k) = (0.0f64, 0u64);
    let mut ops = Vec::new();
    let mut norm = util::Normalizer::default();
    while measured < seconds {
        let sqls = instance(seed, k);
        k += 1;
        norm.record(measured);
        for sql in &sqls {
            let t = Instant::now();
            let ok = plan_one(&catalog, &opt, sql, &mut est);
            let dt = t.elapsed().as_secs_f64();
            measured += dt;
            report.check(ok, || format!("planning failed: {sql}"));
            ops.push((measured, dt));
            if measured >= seconds {
                break;
            }
        }
    }
    norm.record(measured);
    let scaled = norm.scale(&ops);
    let us: Vec<(f64, f64)> = scaled.iter().map(|&(at, s)| (at, s * 1e6)).collect();
    let batches: Vec<(f64, f64)> = scaled
        .chunks_exact(PLAN_BATCH)
        .map(|c| (c[c.len() - 1].0, c.iter().map(|x| x.1).sum::<f64>() * 1e3))
        .collect();
    report.metric(
        "qps",
        ops.len() as f64 / scaled.iter().map(|x| x.1).sum::<f64>(),
        "1/s",
    );
    report.metric("op_us_p50", util::windowed_pct(&us, 50.0), "us");
    report.metric("op_us_p999", util::windowed_pct(&us, 99.9), "us");
    report.metric("batch_ms_p50", util::windowed_pct(&batches, 50.0), "ms");
    report.metric("batch_ms_p99", util::windowed_pct(&batches, 99.0), "ms");
    report.info_num("qps_raw", ops.len() as f64 / measured);
    report.info_num("reference_us", norm.reference_us_median());
    report.info_num("reference_samples", norm.len() as f64);
    report.info_num("op_samples", ops.len() as f64);
    report.info_num("batch_samples", batches.len() as f64);
    report.info_num("batch_size", PLAN_BATCH as f64);
    report.info_num("instances", k as f64);
    let raw_us: Vec<(f64, f64)> = ops.iter().map(|&(at, s)| (at, s * 1e6)).collect();
    report.info(
        "op_us_p50_raw_by_window",
        util::window_pcts(&raw_us, 1.0, 50.0),
    );
    report.info("op_us_p50_by_window", util::window_pcts(&us, 1.0, 50.0));

    let quality = common::quality(&catalog, &handle, &check_sample(), report);
    common::report_quality(&quality, report);
}

/// The adapter's calls (`Query::induced` + `bound_with_session`) with a
/// span around each and the session's phase timing on.
pub struct TracedEstimator {
    inner: SafeBound,
    session: BoundSession,
    pub tracer: Tracer,
    /// Phase split summed over the calls.
    phases: PhaseBreakdown,
    bound_ns: u64,
    calls: u64,
}

impl TracedEstimator {
    pub fn new(inner: SafeBound) -> Self {
        let mut session = BoundSession::default();
        session.set_phase_timing(true);
        TracedEstimator {
            inner,
            session,
            tracer: Tracer::default(),
            phases: PhaseBreakdown::default(),
            bound_ns: 0,
            calls: 0,
        }
    }

    /// One bound with spans and the phase split (the serve workloads use
    /// this on their request stream too).
    pub fn bound(&mut self, query: &Query) -> Result<f64, safebound_core::EstimateError> {
        let before = self.session.phase_breakdown();
        self.tracer.begin("estimator.bound");
        let r = self.inner.bound_with_session(query, &mut self.session);
        self.bound_ns += self.tracer.end();
        let after = self.session.phase_breakdown();
        self.phases.resolve_ns += after.resolve_ns - before.resolve_ns;
        self.phases.assemble_ns += after.assemble_ns - before.assemble_ns;
        self.phases.kernel_ns += after.kernel_ns - before.kernel_ns;
        self.calls += 1;
        r
    }

    /// `estimator.*` metrics: per-call time and phase split, plus the
    /// session's cache counters.
    pub fn report(&self, stats: &SessionStats, report: &mut Report) {
        let calls = self.calls.max(1) as f64;
        let phase = |ns: u64| ns as f64 / calls;
        let bound_ns = self.bound_ns as f64 / calls;
        report.metric("estimator.bound_us", bound_ns / 1e3, "us");
        report.metric("estimator.resolve_ns", phase(self.phases.resolve_ns), "ns");
        report.metric(
            "estimator.assemble_ns",
            phase(self.phases.assemble_ns),
            "ns",
        );
        report.metric("estimator.kernel_ns", phase(self.phases.kernel_ns), "ns");
        let phases = self.phases.resolve_ns + self.phases.assemble_ns + self.phases.kernel_ns;
        report.metric(
            "estimator.shape_ns",
            (bound_ns - phase(phases)).max(0.0),
            "ns",
        );
        report.info_num("estimator_calls", self.calls as f64);
        report_session_stats(stats, report);
    }
}

impl CardinalityEstimator for TracedEstimator {
    fn name(&self) -> &'static str {
        "SafeBound(traced)"
    }

    fn estimate(&mut self, query: &Query, mask: u64) -> f64 {
        self.tracer.begin("estimate");
        let sub = self.tracer.span("query.induced", || query.induced(mask));
        let r = self.bound(&sub);
        self.tracer.end();
        r.unwrap_or(f64::INFINITY)
    }
}

/// Hit ratios with their lookup counts, and the other session counters.
pub fn report_session_stats(s: &SessionStats, report: &mut Report) {
    let ratio = |hits: u64, misses: u64| {
        let n = hits + misses;
        (if n == 0 { 0.0 } else { hits as f64 / n as f64 }, n as f64)
    };
    for (name, lookups_name, hits, misses) in [
        (
            "estimator.shape_hit_ratio",
            "estimator.shape_lookups",
            s.shape_hits,
            s.shape_misses,
        ),
        (
            "estimator.lit_bound_hit_ratio",
            "estimator.lit_bound_lookups",
            s.lit_bound_hits,
            s.lit_bound_misses,
        ),
        (
            "estimator.eq_memo_hit_ratio",
            "estimator.eq_memo_lookups",
            s.eq_memo_hits,
            s.eq_memo_misses,
        ),
        (
            "estimator.range_memo_hit_ratio",
            "estimator.range_memo_lookups",
            s.range_memo_hits,
            s.range_memo_misses,
        ),
        (
            "estimator.like_memo_hit_ratio",
            "estimator.like_memo_lookups",
            s.like_memo_hits,
            s.like_memo_misses,
        ),
    ] {
        let (r, n) = ratio(hits, misses);
        report.metric(name, r, "ratio");
        report.metric(lookups_name, n, "count");
    }
    report.metric(
        "estimator.shape_evictions",
        s.shape_evictions as f64,
        "count",
    );
    report.metric(
        "estimator.relaxations_pruned",
        s.relaxations_pruned as f64,
        "count",
    );
}

/// Plan `sqls` untraced and with spans, each pass with its own fresh
/// estimator. Reports the optimizer metrics and the tracing overhead;
/// with `primary` also parse and the estimator metrics.
pub fn plan_replay(
    catalog: &Catalog,
    handle: &SafeBound,
    sqls: &[String],
    primary: bool,
    report: &mut Report,
) -> Tracer {
    // The two passes interleave query by query, each with its own
    // estimator, so host-speed drift hits both alike.
    let opt = Optimizer::default();
    let mut plain = SafeBoundEstimator::new(handle.clone());
    let mut est = TracedEstimator::new(handle.clone());
    let mut untraced = Vec::with_capacity(sqls.len());
    for sql in sqls {
        let t = Instant::now();
        let ok = plan_one(catalog, &opt, sql, &mut plain);
        untraced.push(t.elapsed().as_secs_f64() * 1e6);
        report.check(ok, || format!("planning failed: {sql}"));

        est.tracer.next_request();
        est.tracer.begin("plan");
        let q = est.tracer.span("query.parse", || parse_sql(sql));
        let Ok(q) = q else {
            est.tracer.end();
            report.check(false, || format!("parse failed: {sql}"));
            continue;
        };
        let idx = est
            .tracer
            .span("exec.indexes", || pk_fk_indexes(catalog, &q));
        est.tracer.begin("optimizer.optimize");
        let plan = opt.optimize(&q, &idx, &mut est);
        est.tracer.end();
        est.tracer.end();
        report.check(plan.card().is_finite(), || {
            format!("planning failed: {sql}")
        });
    }
    let traced = est.tracer.durations("plan");
    let n = sqls.len() as f64;
    let qps_untraced = n / (untraced.iter().sum::<f64>() / 1e6);
    let qps_traced = traced.len() as f64 / (traced.iter().sum::<f64>() / 1e9);
    let overhead = (qps_untraced / qps_traced - 1.0) * 100.0;
    report.metric("trace.plan_overhead_pct", overhead, "%");
    // Self times partition each `plan` span, so the traced per-query
    // total is what parse + optimizer + estimator phases + shape add up
    // to; compare it with the untraced p50.
    let coverage = util::median(&traced) / 1e3 / util::median(&untraced);
    report.metric("trace.plan_coverage", coverage, "ratio");
    report.info(
        "plan_coverage_within_overhead",
        ((coverage - 1.0) * 100.0 <= overhead.max(0.0) + 1.0).to_string(),
    );
    report.info_num("plan_qps_untraced", qps_untraced);
    report.info_num("plan_qps_traced", qps_traced);
    report.info_num("plan_replay_queries", n);

    let t = &est.tracer;
    let mean = |name: &str| util::mean(&t.self_times(name));
    report.metric("optimizer.self_ms", mean("optimizer.optimize") / 1e6, "ms");
    report.metric(
        "optimizer.estimates_per_query",
        t.durations("estimate").len() as f64 / n,
        "count",
    );
    report.metric("query.induced_us", mean("query.induced") / 1e3, "us");
    if primary {
        report.metric("query.parse_us", mean("query.parse") / 1e3, "us");
        est.report(&est.session.stats(), report);
    }
    est.tracer
}

pub fn run_traced(seed: u64, report: &mut Report) -> Vec<(&'static str, Tracer)> {
    let catalog = catalog();
    let handle = SafeBound::build(&catalog, util::stats_config());
    let mut build_tracer = Tracer::default();
    common::traced_build(&catalog, &util::stats_config(), &mut build_tracer, report);

    let sqls: Vec<String> = (0..TRACE_INSTANCES)
        .flat_map(|k| instance(seed, k))
        .collect();
    let plan_tracer = plan_replay(&catalog, &handle, &sqls, true, report);

    // What serving this workload's queries would cost, layer by layer.
    let mut serve_tracers = serve::trace_serving(
        &handle,
        &sqls,
        serve::Picker::Sequential,
        seed,
        false,
        &[],
        report,
    );

    // Writes: each publish flushes the planner's caches; count the shape
    // misses of the next instance planned.
    let mut write_tracer = Tracer::default();
    let deltas = common::write_stream(&catalog, WRITE_TABLE);
    let snaps = common::traced_writes(
        &catalog,
        &util::stats_config(),
        &deltas,
        &util::scratch_dir().join("plan-trace.snap"),
        &mut write_tracer,
        report,
    );
    let opt = Optimizer::default();
    let mut est = TracedEstimator::new(handle.clone());
    let mut misses = Vec::new();
    for (k, snap) in (TRACE_INSTANCES..).zip(snaps) {
        handle.swap_stats(snap);
        let before = est.session.stats().shape_misses;
        for sql in instance(seed, k) {
            let ok = plan_one(&catalog, &opt, &sql, &mut est);
            report.check(ok, || format!("planning failed: {sql}"));
        }
        misses.push((est.session.stats().shape_misses - before) as f64);
    }
    common::report_refill(&misses, report);

    // The same writes through the statistics refresher into the planner's
    // handle.
    let source = DeltaSource::new(catalog.clone(), util::stats_config());
    let token = ShutdownToken::new();
    let refresher = common::spawn_refresher(
        &handle,
        &source,
        &util::scratch_dir().join("plan-stats.snap"),
        &token,
    );
    common::refresher_writes(&source, &refresher, &handle, &deltas, report);
    refresher.stop();
    serve_tracers.extend([
        ("build", build_tracer),
        ("plan", plan_tracer),
        ("writes", write_tracer),
    ]);
    serve_tracers
}
