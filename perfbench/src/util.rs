//! Small self-contained helpers: a seeded generator, Zipf sampling,
//! percentiles, and the JSON the benchmark prints.

use safebound_core::SafeBoundConfig;
use std::fmt::Write as _;
use std::path::PathBuf;

/// SplitMix64: the benchmark's only source of randomness, so every input
/// is a pure function of the seeds.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The statistics configuration of the paper-figure runs (compression
/// c = 0.01, 200-value MCV lists, a 5-level histogram hierarchy, 16 CDS
/// groups), fixed here so the benchmark's meaning does not drift with
/// the library defaults.
pub fn stats_config() -> SafeBoundConfig {
    SafeBoundConfig {
        compression_c: 0.01,
        mcv_size: 200,
        histogram_levels: 5,
        ngram_size: 3,
        ngram_mcv_size: 150,
        cds_groups: Some(16),
        cluster_input_cap: 128,
        use_bloom_filters: true,
        bloom_bits_per_key: 12,
        pk_fk_propagation: true,
        enable_ngrams: true,
        spanning_tree_cap: 50,
    }
}

/// Where a run keeps its files: `.perfbench/` under the working directory.
pub fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fail(&format!("cannot create {}: {e}", dir.display()));
    }
    dir
}

/// Abort the run without printing a result line.
pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=100).
pub fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of the values of (time, value) samples.
pub fn pct_of(samples: &[(f64, f64)], q: f64) -> f64 {
    pct(&sorted(samples.iter().map(|s| s.1).collect()), q)
}

/// A latency percentile taken per 3-second window of the run and reduced
/// by the median across windows, so a stall of the shared host moves one
/// window instead of the run's tail. Windows too small to leave 10
/// samples beyond the percentile are left out (all of them: the whole run).
pub fn windowed_pct(samples: &[(f64, f64)], q: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(at, v) in samples {
        let w = (at / 3.0) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(v);
    }
    let need = (10.0 * 100.0 / (100.0 - q)).ceil() as usize;
    let per: Vec<f64> = windows
        .into_iter()
        .filter(|w| w.len() >= need)
        .map(|w| pct(&sorted(w), q))
        .collect();
    if per.is_empty() {
        pct_of(samples, q)
    } else {
        median(&per)
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    pct(&sorted(v.to_vec()), 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// CPU time of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` (two
    // 64-bit fields on the 64-bit Linux targets this benchmark runs on)
    // through the valid, exclusively borrowed pointer passed here.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        fail("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A fixed unit of host work — dependent hashing and stores over a
/// 2 MiB table, so it exercises the ALU and the cache hierarchy like the
/// program does. Returns the CPU time it took on this thread (waiting for a core
/// is not counted, so a busy process does not inflate it).
pub fn reference_work() -> f64 {
    const SLOTS: usize = 1 << 18;
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new((0..SLOTS as u64).collect());
    }
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        let t0 = thread_cpu_s();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..100_000 {
            let i = (x >> 49) as usize & (SLOTS - 1);
            x = SplitMix64::new(x ^ t[i]).next_u64();
            t[i] = x;
        }
        std::hint::black_box(x);
        thread_cpu_s() - t0
    })
}

/// The reference work's nominal CPU time. Reported times are scaled to a
/// host on which the reference work takes exactly this long.
pub const REFERENCE_NOMINAL_S: f64 = 1.5e-3;

/// Host-speed normalization. The shared host's per-core speed drifts by
/// ±15% over tens of seconds; the reference work, timed alongside the
/// program, drifts with it. A time measured at `at` is scaled by
/// `REFERENCE_NOMINAL_S / (median reference time within ±1 s of at)`,
/// which cancels the drift and leaves the program's own cost.
#[derive(Debug, Default)]
pub struct Normalizer {
    /// (seconds since the run's origin, reference CPU seconds), by time.
    refs: Vec<(f64, f64)>,
}

impl Normalizer {
    pub fn record(&mut self, at: f64) {
        let r = reference_work();
        self.refs.push((at, r));
    }

    /// Reference work on every core at once (one thread per core, so a
    /// slow core and a fast one both count), recorded as their mean.
    pub fn record_all_cores(&mut self, at: f64) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(cores));
        let threads: Vec<_> = (0..cores)
            .map(|_| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    reference_work()
                })
            })
            .collect();
        let times: Vec<f64> = threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| fail("reference thread panicked"))
            })
            .collect();
        self.refs.push((at, mean(&times)));
    }

    pub fn len(&self) -> usize {
        self.refs.len()
    }

    fn sorted_refs(&self) -> Vec<(f64, f64)> {
        let mut r = self.refs.clone();
        r.sort_by(|a, b| a.0.total_cmp(&b.0));
        r
    }

    /// Scale factor for the whole run.
    pub fn run_factor(&self) -> f64 {
        let all: Vec<f64> = self.refs.iter().map(|r| r.1).collect();
        if all.is_empty() {
            fail("no reference work was timed");
        }
        REFERENCE_NOMINAL_S / median(&all)
    }

    /// A function from time to scale factor (the run factor where fewer
    /// than 5 references fall within ±1 s).
    pub fn factors(&self) -> impl Fn(f64) -> f64 {
        let refs = self.sorted_refs();
        let run = self.run_factor();
        move |at: f64| {
            let lo = refs.partition_point(|r| r.0 < at - 1.0);
            let hi = refs.partition_point(|r| r.0 <= at + 1.0);
            if hi - lo < 5 {
                run
            } else {
                REFERENCE_NOMINAL_S / median(&refs[lo..hi].iter().map(|r| r.1).collect::<Vec<_>>())
            }
        }
    }

    /// `samples` (at, value) with each value scaled by its factor.
    pub fn scale(&self, samples: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let f = self.factors();
        samples.iter().map(|&(at, v)| (at, v * f(at))).collect()
    }

    pub fn reference_us_median(&self) -> f64 {
        median(&self.refs.iter().map(|r| r.1 * 1e6).collect::<Vec<_>>())
    }
}

/// Per-window percentiles, for the run context (shows drift and stalls).
pub fn window_pcts(samples: &[(f64, f64)], window_s: f64, q: f64) -> String {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(at, v) in samples {
        let w = (at / window_s) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(v);
    }
    let per: Vec<String> = windows
        .into_iter()
        .map(|w| format!("{:.1}", pct(&sorted(w), q)))
        .collect();
    format!("[{}]", per.join(", "))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Accumulates metrics plus the run context printed before the result.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub info: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record run context (a JSON value, already encoded).
    pub fn info(&mut self, key: &str, json_value: String) {
        self.info.push((key.to_string(), json_value));
    }

    pub fn info_num(&mut self, key: &str, v: f64) {
        self.info(key, num(v));
    }

    /// Count one checked operation; a failure keeps its reason (the first
    /// few are printed to stderr).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Count a batch of checked operations of which `failed` failed.
    pub fn check_many(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.problems.len() < 20 {
            self.problems
                .push(format!("{failed} of {attempted} {what}"));
        }
    }

    /// Print the context line, then the result object as the last line.
    pub fn print(&self) {
        for p in &self.problems {
            eprintln!("perfbench: check failed: {p}");
        }
        let mut info = String::from("{");
        for (i, (k, v)) in self.info.iter().enumerate() {
            let _ = write!(
                info,
                "{}{}: {}",
                if i > 0 { ", " } else { "" },
                string(k),
                v
            );
        }
        info.push('}');
        println!("{{\"info\": {info}}}");
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i > 0 { ", " } else { "" },
                string(m.name),
                num(m.value),
                string(m.unit)
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// A JSON number (non-finite values become `null`, which the reader of
/// the result treats as a broken run).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_zipf_is_skewed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let z = Zipf::new(100, 1.1);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut a)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
    }

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(pct(&v, 50.0), 20.0);
        assert_eq!(pct(&v, 100.0), 40.0);
        assert_eq!(pct_of(&[(0.0, 3.0), (1.0, 1.0), (2.0, 2.0)], 50.0), 2.0);
    }
}
