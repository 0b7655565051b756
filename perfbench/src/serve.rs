//! `serve-hot`: the TCP server (`serve_with`) on
//! loopback over a `BoundService` of `nproc` workers, with two
//! closed-loop client connections: A sends single SQL lines, B sends
//! `BATCH 64`.

use crate::common::{self, CHECK_SEED, DATA_SEED, SETUPS};
use crate::plan::{self, TracedEstimator};
use crate::trace::Tracer;
use crate::util::{self, Report, SplitMix64, Zipf};
use safebound_core::{BoundSession, SafeBound, SessionStats, StatsSnapshot};
use safebound_datagen::{imdb_catalog, job_light, ImdbScale};
use safebound_query::{parse_sql, Query};
use safebound_serve::{
    serve_with, BoundService, DeltaSource, ServeOptions, ShutdownToken, StatsRefresher,
};
use safebound_storage::Catalog;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lines per `BATCH` request of connection B.
const BATCH: usize = 64;

/// JOB-light instances in the line pool (70 lines each).
const POOL_INSTANCES: u64 = 16;

/// Zipf exponent of line popularity.
const ZIPF_S: f64 = 1.1;

/// Fact table the write stream inserts into (queried by JOB-light).
const WRITE_TABLE: &str = "movie_info_idx";

/// Queries of the fixed check sample.
const CHECK_QUERIES: usize = 32;

/// Length of the traced run's untraced TCP phase.
const TRACE_TCP_SECONDS: f64 = 3.0;

/// Request units (some single lines plus one batch) in the traced replay.
const TRACE_UNITS: usize = 120;

/// Times the traced run plans the line pool.
const PLAN_REPEATS: usize = 4;

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How a client picks its next line.
#[derive(Debug, Clone)]
pub enum Picker {
    /// Zipf-popular lines; rank `r` is line `perm[r]`.
    Zipf(Zipf, Vec<usize>),
    /// Every line in order, wrapping around.
    Sequential,
}

impl Picker {
    fn pick(&self, rng: &mut SplitMix64, counter: &mut usize, n: usize) -> usize {
        match self {
            Picker::Zipf(z, perm) => perm[z.sample(rng)],
            Picker::Sequential => {
                *counter += 1;
                (*counter - 1) % n
            }
        }
    }
}

/// What one client connection saw.
#[derive(Debug, Default)]
struct ClientLog {
    /// (seconds since start, round trip seconds) per request.
    samples: Vec<(f64, f64)>,
    lines: u64,
    /// (line, bound bits) → responses.
    observed: HashMap<(u32, u64), u64>,
    errors: u64,
    first_error: Option<String>,
}

/// Closed loop on one connection: send `batch` lines (as `BATCH n` when
/// `batch > 1`), read every answer, repeat until `stop`.
#[allow(clippy::too_many_arguments)]
fn client(
    addr: SocketAddr,
    lines: Arc<Vec<String>>,
    picker: Picker,
    seed: u64,
    batch: usize,
    stop: Arc<AtomicBool>,
    start: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let fail = |log: &mut ClientLog, e: String| {
        log.errors += 1;
        log.first_error.get_or_insert(e);
    };
    let Ok(stream) = TcpStream::connect(addr) else {
        fail(&mut log, "connect failed".to_string());
        return log;
    };
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        fail(&mut log, "socket clone failed".to_string());
        return log;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut rng = SplitMix64::new(seed);
    let mut counter = seed as usize % lines.len();
    let (mut req, mut resp, mut picked) = (String::new(), String::new(), Vec::new());
    while !stop.load(Ordering::Relaxed) {
        req.clear();
        picked.clear();
        if batch > 1 {
            req.push_str(&format!("BATCH {batch}\n"));
        }
        for _ in 0..batch {
            let i = picker.pick(&mut rng, &mut counter, lines.len());
            picked.push(i);
            req.push_str(&lines[i]);
            req.push('\n');
        }
        let t = Instant::now();
        if let Err(e) = writer.write_all(req.as_bytes()) {
            fail(&mut log, format!("write: {e}"));
            return log;
        }
        let mut answers = Vec::with_capacity(batch);
        for _ in 0..batch {
            resp.clear();
            match reader.read_line(&mut resp) {
                Ok(0) | Err(_) => {
                    fail(&mut log, "connection closed mid-request".to_string());
                    return log;
                }
                Ok(_) => answers.push(
                    resp.trim_end()
                        .strip_prefix("OK ")
                        .and_then(|b| b.parse::<f64>().ok())
                        .ok_or_else(|| resp.trim_end().to_string()),
                ),
            }
        }
        let rtt = t.elapsed().as_secs_f64();
        log.samples.push(((t - start).as_secs_f64(), rtt));
        log.lines += batch as u64;
        for (i, a) in picked.iter().zip(answers) {
            match a {
                Ok(b) => *log.observed.entry((*i as u32, b.to_bits())).or_default() += 1,
                Err(e) => fail(&mut log, e),
            }
        }
    }
    log
}

/// Two closed-loop clients against `addr` until `stop` is set: A sends
/// single lines, B sends `BATCH 64`.
fn spawn_clients(
    addr: SocketAddr,
    lines: &Arc<Vec<String>>,
    picker: &Picker,
    seed: u64,
    stop: &Arc<AtomicBool>,
    start: Instant,
) -> [JoinHandle<ClientLog>; 2] {
    let spawn = |salt: u64, batch: usize| {
        let (lines, picker, stop) = (lines.clone(), picker.clone(), stop.clone());
        std::thread::spawn(move || client(addr, lines, picker, seed ^ salt, batch, stop, start))
    };
    [spawn(0xA1, 1), spawn(0xB2, BATCH)]
}

fn join_clients(clients: [JoinHandle<ClientLog>; 2]) -> [ClientLog; 2] {
    clients.map(|h| {
        h.join()
            .unwrap_or_else(|_| util::fail("client thread panicked"))
    })
}

/// A running server: statistics from a `DeltaSource`, the worker pool,
/// the TCP front end, and an on-demand refresher saving every publish.
struct Rig {
    source: DeltaSource,
    handle: SafeBound,
    refresher: Arc<StatsRefresher>,
    token: ShutdownToken,
    server: JoinHandle<std::io::Result<()>>,
    addr: SocketAddr,
}

impl Rig {
    /// Bring everything up and wait for the first `PONG`.
    fn start(catalog: Catalog, save_path: &Path) -> Self {
        let source = DeltaSource::new(catalog, util::stats_config());
        let handle = SafeBound::from_stats(source.snapshot());
        let service = Arc::new(BoundService::new(handle.clone(), workers()));
        let token = ShutdownToken::new();
        let refresher = Arc::new(common::spawn_refresher(&handle, &source, save_path, &token));
        let (server, addr) = start_server(service, Some(refresher.clone()), &token);
        Rig {
            source,
            handle,
            refresher,
            token,
            server,
            addr,
        }
    }

    /// Shut everything down; false if the server failed or panicked.
    fn stop(self) -> bool {
        self.token.trigger();
        let clean = matches!(self.server.join(), Ok(Ok(())));
        self.refresher.stop();
        clean
    }
}

fn start_server(
    service: Arc<BoundService>,
    refresher: Option<Arc<StatsRefresher>>,
    token: &ShutdownToken,
) -> (JoinHandle<std::io::Result<()>>, SocketAddr) {
    let listener =
        TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| util::fail(&format!("bind: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| util::fail(&format!("local_addr: {e}")));
    let token2 = token.clone();
    let server = std::thread::spawn(move || {
        serve_with(
            service,
            listener,
            refresher,
            token2,
            ServeOptions::default(),
        )
    });
    if !ping(addr) {
        util::fail("server did not answer PING");
    }
    (server, addr)
}

fn ping(addr: SocketAddr) -> bool {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return false;
    };
    let Ok(r) = s.try_clone() else { return false };
    let mut line = String::new();
    s.write_all(b"PING\n").is_ok()
        && BufReader::new(r).read_line(&mut line).is_ok()
        && line.trim() == "PONG"
}

/// The line pool: `job_light(seed..seed+16)`, with the parsed queries.
fn pool(seed: u64) -> (Vec<String>, Vec<Query>) {
    (0..POOL_INSTANCES)
        .flat_map(|j| job_light(seed.wrapping_add(j)))
        .map(|b| (b.sql, b.query))
        .unzip()
}

/// Zipf popularity over the pool. Ranks go round-robin over query sizes
/// (relation counts), each size's lines in a seeded order, so every seed's
/// hot set has the same size mix and seeds differ in literals, tables and
/// templates rather than in how large the hottest few queries are.
fn zipf_picker(seed: u64, queries: &[Query]) -> Picker {
    let mut by_size: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in SplitMix64::new(seed ^ 0x5EED).permutation(queries.len()) {
        by_size
            .entry(queries[i].num_relations())
            .or_default()
            .push(i);
    }
    let mut classes: Vec<std::vec::IntoIter<usize>> =
        by_size.into_values().map(Vec::into_iter).collect();
    let mut order = Vec::with_capacity(queries.len());
    while order.len() < queries.len() {
        for c in &mut classes {
            order.extend(c.next());
        }
    }
    Picker::Zipf(Zipf::new(queries.len(), ZIPF_S), order)
}

fn catalog() -> Catalog {
    imdb_catalog(&ImdbScale::default(), DATA_SEED)
}

/// Every answer must be bit-identical to an in-process bound of the same
/// query under the served snapshot, computed in a cold session as
/// `SafeBound::bound` does (once per line).
fn verify(logs: &[ClientLog], queries: &[Query], snap: &Arc<StatsSnapshot>, report: &mut Report) {
    let mut refs: HashMap<u32, Option<u64>> = HashMap::new();
    for log in logs {
        for (&(line, bits), &count) in &log.observed {
            let reference = *refs.entry(line).or_insert_with(|| {
                let mut cold = BoundSession::default().with_literal_capacity(0);
                snap.bound_with_session(&queries[line as usize], &mut cold)
                    .ok()
                    .map(f64::to_bits)
            });
            let ok = reference == Some(bits);
            report.check_many(
                count,
                if ok { 0 } else { count },
                "responses differ from the in-process bound",
            );
        }
        report.check_many(log.errors, log.errors, "requests failed");
        if let Some(e) = &log.first_error {
            eprintln!("perfbench: first client error: {e}");
        }
    }
    report.info_num("reference_bounds", refs.len() as f64);
}

fn setup(catalog: &Catalog, save_path: &Path, report: &mut Report) -> Rig {
    let (mut raw, mut normalized, mut serving) = (Vec::new(), Vec::new(), None);
    for _ in 0..SETUPS {
        let copy = catalog.clone();
        let (rig, r, n) = common::timed(|| Rig::start(copy, save_path));
        raw.push(r);
        normalized.push(n);
        // Only the last one serves.
        if let Some(old) = serving.replace(rig) {
            report.check(Rig::stop(old), || "server failed during set-up".to_string());
        }
    }
    common::report_setup(&raw, &normalized, report);
    serving.unwrap_or_else(|| util::fail("no setup ran"))
}

/// Reference work every 100 ms on a thread of its own until `stop`, timed
/// in CPU time, so the busy process does not inflate it.
fn spawn_probe(stop: &Arc<AtomicBool>, start: Instant) -> JoinHandle<util::Normalizer> {
    let stop = stop.clone();
    std::thread::spawn(move || {
        let mut norm = util::Normalizer::default();
        while !stop.load(Ordering::Relaxed) {
            norm.record(start.elapsed().as_secs_f64());
            std::thread::sleep(Duration::from_millis(100));
        }
        norm
    })
}

fn report_reads(
    logs: &[ClientLog; 2],
    window_s: f64,
    norm: &util::Normalizer,
    report: &mut Report,
) {
    let to = |log: &ClientLog, scale: f64| -> Vec<(f64, f64)> {
        norm.scale(&log.samples)
            .into_iter()
            .map(|(at, rtt)| (at, rtt * scale))
            .collect()
    };
    let (single, batch) = (to(&logs[0], 1e6), to(&logs[1], 1e3));
    let qps_raw = (logs[0].lines + logs[1].lines) as f64 / window_s;
    report.metric("qps", qps_raw / norm.run_factor(), "1/s");
    report.metric("op_us_p50", util::windowed_pct(&single, 50.0), "us");
    report.metric("op_us_p999", util::windowed_pct(&single, 99.9), "us");
    report.metric("batch_ms_p50", util::windowed_pct(&batch, 50.0), "ms");
    report.metric("batch_ms_p99", util::windowed_pct(&batch, 99.0), "ms");
    report.info_num("qps_raw", qps_raw);
    report.info_num("reference_us", norm.reference_us_median());
    report.info_num("reference_samples", norm.len() as f64);
    report.info_num("op_samples", single.len() as f64);
    report.info_num("batch_samples", batch.len() as f64);
    report.info_num("batch_size", BATCH as f64);
    report.info_num("read_window_s", window_s);
    let raw_us: Vec<(f64, f64)> = logs[0]
        .samples
        .iter()
        .map(|&(at, s)| (at, s * 1e6))
        .collect();
    report.info(
        "op_us_p50_raw_by_window",
        util::window_pcts(&raw_us, 1.0, 50.0),
    );
    report.info("op_us_p50_by_window", util::window_pcts(&single, 1.0, 50.0));
    let pcts =
        |v: &[(f64, f64)]| format!("{:?}", [90.0, 95.0, 99.0, 99.9].map(|q| util::pct_of(v, q)));
    report.info("op_us_p90_p95_p99_p999", pcts(&single));
    report.info("batch_ms_p90_p95_p99_p999", pcts(&batch));
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let catalog = catalog();
    let (lines, queries) = pool(seed);
    let lines = Arc::new(lines);
    let picker = zipf_picker(seed, &queries);
    let rig = setup(&catalog, &util::scratch_dir().join("serve.snap"), report);
    let initial = rig.handle.snapshot();
    report.metric("stats_bytes", initial.byte_size() as f64, "bytes");
    report.info_num("pool_lines", lines.len() as f64);
    report.info_num("workers", workers() as f64);

    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let clients = spawn_clients(rig.addr, &lines, &picker, seed, &stop, start);
    let probe = spawn_probe(&stop, start);
    std::thread::sleep(Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);
    let window = start.elapsed().as_secs_f64();
    let logs = join_clients(clients);
    let norm = probe
        .join()
        .unwrap_or_else(|_| util::fail("probe thread panicked"));
    report_reads(&logs, window, &norm, report);
    verify(&logs, &queries, &initial, report);

    let sample: Vec<Query> = job_light(CHECK_SEED)
        .into_iter()
        .take(CHECK_QUERIES)
        .map(|b| b.query)
        .collect();
    let quality = common::quality(&catalog, &rig.handle, &sample, report);
    common::report_quality(&quality, report);
    report.check(rig.stop(), || "server failed".to_string());
}

/// One replay request: a single line, or a batch.
enum Request {
    Single(usize),
    Batch(Vec<usize>),
}

/// The request stream the TCP clients would send, as units of
/// `singles` single lines followed by one batch.
fn request_stream(n: usize, picker: &Picker, seed: u64, singles: usize) -> Vec<Vec<Request>> {
    let (mut ra, mut rb) = (SplitMix64::new(seed ^ 0xA1), SplitMix64::new(seed ^ 0xB2));
    let (mut ca, mut cb) = (seed as usize % n, seed as usize % n);
    (0..TRACE_UNITS)
        .map(|_| {
            let mut unit: Vec<Request> = (0..singles)
                .map(|_| Request::Single(picker.pick(&mut ra, &mut ca, n)))
                .collect();
            unit.push(Request::Batch(
                (0..BATCH)
                    .map(|_| picker.pick(&mut rb, &mut cb, n))
                    .collect(),
            ));
            unit
        })
        .collect()
}

fn stats_delta(a: &SessionStats, b: &SessionStats) -> SessionStats {
    SessionStats {
        shape_hits: b.shape_hits - a.shape_hits,
        shape_misses: b.shape_misses - a.shape_misses,
        shape_evictions: b.shape_evictions - a.shape_evictions,
        eq_memo_hits: b.eq_memo_hits - a.eq_memo_hits,
        eq_memo_misses: b.eq_memo_misses - a.eq_memo_misses,
        range_memo_hits: b.range_memo_hits - a.range_memo_hits,
        range_memo_misses: b.range_memo_misses - a.range_memo_misses,
        like_memo_hits: b.like_memo_hits - a.like_memo_hits,
        like_memo_misses: b.like_memo_misses - a.like_memo_misses,
        lit_bound_hits: b.lit_bound_hits - a.lit_bound_hits,
        lit_bound_misses: b.lit_bound_misses - a.lit_bound_misses,
        relaxations_pruned: b.relaxations_pruned - a.relaxations_pruned,
        ..SessionStats::default()
    }
}

/// Replay `requests` through parse and the service; with a tracer, one
/// span per call. Returns the number of lines that failed.
fn replay(
    service: &BoundService,
    lines: &[String],
    requests: &[Request],
    mut tracer: Option<&mut Tracer>,
) -> u64 {
    let mut failures = 0;
    for req in requests {
        let parse = |i: usize, tracer: &mut Option<&mut Tracer>| match tracer {
            Some(t) => t.span("query.parse", || parse_sql(&lines[i])),
            None => parse_sql(&lines[i]),
        };
        if let Some(t) = tracer.as_deref_mut() {
            t.next_request();
            t.begin("request");
        }
        match req {
            Request::Single(i) => match parse(*i, &mut tracer) {
                Ok(q) => {
                    let r = match tracer.as_deref_mut() {
                        Some(t) => t.span("service.bound", || service.bound(&q)),
                        None => service.bound(&q),
                    };
                    failures += u64::from(r.is_err());
                }
                Err(_) => failures += 1,
            },
            Request::Batch(idx) => {
                let qs: Vec<Query> = idx
                    .iter()
                    .filter_map(|&i| parse(i, &mut tracer).ok())
                    .collect();
                failures += (idx.len() - qs.len()) as u64;
                let qs: Arc<[Query]> = qs.into();
                let r = match tracer.as_deref_mut() {
                    Some(t) => t.span("service.batch", || service.bound_batch_shared(qs)),
                    None => service.bound_batch_shared(qs),
                };
                failures += r.iter().filter(|x| x.is_err()).count() as u64;
            }
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.end();
        }
    }
    failures
}

/// (single lines, batch lines) in `requests`.
fn lines_in<'a>(requests: impl IntoIterator<Item = &'a Request>) -> (u64, u64) {
    requests.into_iter().fold((0, 0), |(s, b), r| match r {
        Request::Single(_) => (s + 1, b),
        Request::Batch(v) => (s, b + v.len() as u64),
    })
}

/// The serving layers traced on one request stream: an untraced TCP
/// phase (round trips), then an in-process replay — warm-up, untraced,
/// then with spans — through parse and the service. Each of `writes` is
/// then published with a stretch of the stream replayed after it, to
/// count the refill cost. With `primary`, also the parse and estimator
/// metrics.
pub fn trace_serving(
    handle: &SafeBound,
    lines: &[String],
    picker: Picker,
    seed: u64,
    primary: bool,
    writes: &[StatsSnapshot],
    report: &mut Report,
) -> Vec<(&'static str, Tracer)> {
    let service = Arc::new(BoundService::new(handle.clone(), workers()));
    let token = ShutdownToken::new();
    let (server, addr) = start_server(service.clone(), None, &token);
    let shared = Arc::new(lines.to_vec());
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let clients = spawn_clients(addr, &shared, &picker, seed, &stop, start);
    std::thread::sleep(Duration::from_secs_f64(TRACE_TCP_SECONDS));
    stop.store(true, Ordering::Relaxed);
    let window = start.elapsed().as_secs_f64();
    let logs = join_clients(clients);
    token.trigger();
    report.check(matches!(server.join(), Ok(Ok(()))), || {
        "server failed".to_string()
    });
    for log in &logs {
        report.check_many(log.errors, log.errors, "requests failed in the TCP phase");
    }
    let rtt_us = util::median(
        &logs[0]
            .samples
            .iter()
            .map(|s| s.1 * 1e6)
            .collect::<Vec<_>>(),
    );
    let tcp_qps = (logs[0].lines + logs[1].lines) as f64 / window;
    let singles = (logs[0].samples.len() / logs[1].samples.len().max(1)).clamp(1, 256);

    let units = request_stream(lines.len(), &picker, seed, singles);
    let (single_lines, batch_lines) = lines_in(units.iter().flatten());
    // Warm the pool's caches, then alternate units between an untraced
    // and a traced pass, so both see the same cache state and host speed.
    let mut failures: u64 = units.iter().map(|u| replay(&service, lines, u, None)).sum();
    let before = service.session_stats();
    let (served0, dedup0) = (service.served_per_worker(), service.batch_dedup_hits());
    let (spills0, timeouts0) = (service.spill_count(), service.worker_timeouts());
    let mut tracer = Tracer::default();
    let (mut pass_s, mut pass_lines) = ([0.0f64; 2], [0u64; 2]);
    for (k, unit) in units.iter().enumerate() {
        let traced = k % 2;
        let t = Instant::now();
        failures += replay(
            &service,
            lines,
            unit,
            if traced == 1 { Some(&mut tracer) } else { None },
        );
        pass_s[traced] += t.elapsed().as_secs_f64();
        let (a, b) = lines_in(unit);
        pass_lines[traced] += a + b;
    }
    let stats = stats_delta(&before, &service.session_stats());
    let total = (single_lines + batch_lines) as f64;
    let (untraced_rate, traced_rate) = (
        pass_lines[0] as f64 / pass_s[0],
        pass_lines[1] as f64 / pass_s[1],
    );
    report.metric(
        "trace.serve_overhead_pct",
        (untraced_rate / traced_rate - 1.0) * 100.0,
        "%",
    );
    report.info_num("serve_qps_tcp_untraced", tcp_qps);
    report.info_num("serve_lines_per_s_replay_untraced", untraced_rate);
    report.info_num("serve_lines_per_s_replay_traced", traced_rate);

    let med_us = |name: &str| util::median(&tracer.durations(name)) / 1e3;
    let (parse_us, line_us) = (med_us("query.parse"), med_us("service.bound"));
    report.metric("service.line_us", line_us, "us");
    report.metric("service.batch_us", med_us("service.batch"), "us");
    report.metric("server.overhead_us", rtt_us - parse_us - line_us, "us");
    report.info_num("tcp_single_rtt_us_p50", rtt_us);
    let dedup = service.batch_dedup_hits() - dedup0;
    report.metric(
        "service.dedup_ratio",
        dedup as f64 / batch_lines.max(1) as f64,
        "ratio",
    );
    report.metric("service.dedup_lines", batch_lines as f64, "count");
    let served: Vec<f64> = service
        .served_per_worker()
        .iter()
        .zip(&served0)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let skew = served.iter().cloned().fold(0.0, f64::max) / util::mean(&served).max(1.0);
    report.metric("service.worker_skew", skew, "ratio");
    report.metric(
        "service.timeouts",
        (service.worker_timeouts() - timeouts0) as f64,
        "count",
    );
    report.metric(
        "service.spills",
        (service.spill_count() - spills0) as f64,
        "count",
    );
    report.info_num("replay_single_lines", single_lines as f64);
    report.info_num("replay_batch_lines", batch_lines as f64);

    let mut tracers = Vec::new();
    if primary {
        report.metric("query.parse_us", parse_us, "us");
        // The phase split, from a session of the benchmark's own that
        // bounds the same stream line by line with phase timing on.
        let mut est = TracedEstimator::new(handle.clone());
        for req in units.iter().flatten() {
            let idx: &[usize] = match req {
                Request::Single(i) => std::slice::from_ref(i),
                Request::Batch(v) => v,
            };
            for &i in idx {
                match parse_sql(&lines[i]) {
                    Ok(q) => failures += u64::from(est.bound(&q).is_err()),
                    Err(_) => failures += 1,
                }
            }
        }
        est.report(&stats, report);
        tracers.push(("estimator", est.tracer));
    }
    tracers.push(("serve", tracer));

    if !writes.is_empty() {
        let stretch = &units[..units.len() / (writes.len() + 1)];
        let misses: Vec<f64> = writes
            .iter()
            .map(|snap| {
                service.estimator().swap_stats(snap.clone());
                let before = service.session_stats().shape_misses;
                failures += stretch
                    .iter()
                    .map(|u| replay(&service, lines, u, None))
                    .sum::<u64>();
                (service.session_stats().shape_misses - before) as f64
            })
            .collect();
        common::report_refill(&misses, report);
    }
    let stretch_lines: u64 = units[..units.len() / (writes.len() + 1)]
        .iter()
        .map(|u| {
            let (a, b) = lines_in(u);
            a + b
        })
        .sum();
    let attempted = total as u64 * (2 + u64::from(primary)) + stretch_lines * writes.len() as u64;
    report.check_many(attempted, failures, "replayed lines failed");
    tracers
}

pub fn run_traced(seed: u64, report: &mut Report) -> Vec<(&'static str, Tracer)> {
    let catalog = catalog();
    let (lines, queries) = pool(seed);
    let dir = util::scratch_dir();
    let rig = Rig::start(catalog.clone(), &dir.join("serve.snap"));
    let mut build_tracer = Tracer::default();
    common::traced_build(&catalog, &util::stats_config(), &mut build_tracer, report);
    // The pool planned as an optimizer would (repeated, so the replay is
    // long enough to time).
    let plans: Vec<String> = (0..PLAN_REPEATS)
        .flat_map(|_| lines.iter().cloned())
        .collect();
    let plan_tracer = plan::plan_replay(&catalog, &rig.handle, &plans, false, report);
    let deltas = common::write_stream(&catalog, WRITE_TABLE);
    let mut write_tracer = Tracer::default();
    let snaps = common::traced_writes(
        &catalog,
        &util::stats_config(),
        &deltas,
        &dir.join("serve-trace.snap"),
        &mut write_tracer,
        report,
    );
    let picker = zipf_picker(seed, &queries);
    let mut tracers = trace_serving(&rig.handle, &lines, picker, seed, true, &snaps, report);
    common::refresher_writes(&rig.source, &rig.refresher, &rig.handle, &deltas, report);
    report.check(rig.stop(), || "server failed".to_string());
    tracers.push(("build", build_tracer));
    tracers.push(("plan", plan_tracer));
    tracers.push(("writes", write_tracer));
    tracers
}
