//! One untraced run of one workload: repeated cold set-ups, warm-up, then
//! the measured windows with a reading of the host's speed between each two,
//! and the end-to-end metrics taken from them.
//!
//! The reference host is a small shared VM whose speed shifts by a quarter
//! and more, for seconds to minutes at a time, with what its neighbours do,
//! so no absolute time measured on it repeats. What does repeat is a time
//! *relative to the dense reference forward of the same models, timed within
//! the same half second*: the two move together (correlation 0.97 over seven
//! minutes; the ratio's quartile spread was 3 % where each time's own was
//! 15–20 %). The gated speed metrics are therefore such ratios, one per
//! window, and their median over the windows. README.md has the measurements
//! behind that choice.

use std::time::{Duration, Instant};

use crate::adapter::{ModelDef, Plan, Server, Zoo};
use crate::metrics::Values;
use crate::stats::{mean, median, percentile, percentile_sorted, window_spread};
use crate::workloads::{
    self, Case, OfflineInputs, Run, Sample, ServeInputs, Tally, WhenFull, Workload, CLOSED_CLIENTS,
    OFFLINE_BATCH, OPEN_RATE, SLO,
};

/// Windows a measured stretch is cut into, by the instant each request was
/// due. Short enough to fall inside one state of the host, long enough to
/// hold a percentile's worth of requests (or two calls of `offline_b32`).
pub const WINDOWS: usize = 40;
/// A window of a serve workload with fewer requests than this says nothing
/// about a percentile.
const MIN_WINDOW_SAMPLES: usize = 20;
/// A reading of the yardstick lasts at least this long and this many passes
/// over its models.
const YARDSTICK_BUDGET: Duration = Duration::from_millis(20);
const YARDSTICK_PASSES: usize = 3;
/// Traffic sent, and discarded, before the measured stretch.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Cold set-ups per run: about a second's worth today. A fixed count, so
/// that peak memory does not depend on how fast the host happened to be.
const SETUP_REPS_SERVE: usize = 300;
const SETUP_REPS_OFFLINE: usize = 20;
/// `setup_s` is this quantile of the repeated set-ups, not their median: the
/// contract wants it in seconds, the host's noise only ever slows a set-up
/// down, and the lower decile — what a set-up costs when the neighbours are
/// quiet — moved half as much between sessions as the median did.
const SETUP_QUANTILE: f64 = 0.1;

/// What the command line asked for.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
}

impl Settings {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The host's speed, read as the time of one dense-reference forward of the
/// workload's own models — the oracle the outputs are checked against, and
/// the baseline the paper measures weight repetition against.
pub struct Yardstick<'a> {
    cases: Vec<(&'a ModelDef, &'a Case)>,
    threads: usize,
}

impl<'a> Yardstick<'a> {
    /// One case of each model, weighted alike, as the traffic mix is, read
    /// on `threads` threads at once: as many as the workload keeps busy, so
    /// that the reading shares cores and caches the way the workload does.
    pub fn new(models: &'a [ModelDef], cases: &'a [Vec<Case>], threads: usize) -> Self {
        Self {
            cases: models.iter().zip(cases).map(|(m, c)| (m, &c[0])).collect(),
            threads,
        }
    }

    /// Seconds per dense forward right now, the mean over the threads. Read
    /// while the program is idle.
    pub fn read(&self) -> f64 {
        if self.threads <= 1 {
            return self.read_on_this_thread();
        }
        let readings: Vec<f64> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..self.threads)
                .map(|_| scope.spawn(|| self.read_on_this_thread()))
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("yardstick thread panicked"))
                .collect()
        });
        mean(&readings)
    }

    /// The median over passes of one pass's time, divided by the models in
    /// a pass.
    fn read_on_this_thread(&self) -> f64 {
        let begin = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < YARDSTICK_PASSES || begin.elapsed() < YARDSTICK_BUDGET {
            let t0 = Instant::now();
            for (model, case) in &self.cases {
                std::hint::black_box(model.reference(std::hint::black_box(&case.input)));
            }
            passes.push(t0.elapsed().as_secs_f64());
        }
        median(&passes) / self.cases.len() as f64
    }
}

/// Runs the `WINDOWS` windows of a measured stretch one after another, with
/// a yardstick reading before the first and after each. Returns the windows
/// as one stretch (window `w` starts at `w × window_len`) and the
/// `WINDOWS + 1` readings.
pub fn measure_windows(
    window_len: Duration,
    yardstick: &Yardstick<'_>,
    mut window: impl FnMut(usize) -> Run,
) -> (Run, Vec<f64>) {
    let window_ns = window_len.as_nanos() as u64;
    let mut readings = Vec::with_capacity(WINDOWS + 1);
    readings.push(yardstick.read());
    let mut stretch = window(0);
    stretch.reserve(WINDOWS - 1);
    readings.push(yardstick.read());
    for w in 1..WINDOWS {
        stretch.append(window(w), w as u64 * window_ns);
        readings.push(yardstick.read());
    }
    (stretch, readings)
}

/// What a run reports.
pub struct Outcome {
    pub values: Values,
    /// Ungated companions of an untraced run (tail latencies, noise signs).
    pub extras: Vec<(&'static str, f64, &'static str)>,
    pub tally: Tally,
    pub samples: usize,
}

/// Instants of one serve set-up, for `setup_s` and the traced run's spans.
pub struct ServeSetup {
    pub server: Server,
    pub begin: Instant,
    /// `compile_and_insert` per model.
    pub inserts: Vec<(Instant, Instant)>,
    pub start: (Instant, Instant),
    /// First verified answer per model.
    pub first_outputs: Vec<(Instant, Instant)>,
    pub end: Instant,
}

impl ServeSetup {
    pub fn took(&self) -> Duration {
        self.end - self.begin
    }
}

/// A cold serve set-up: fresh registry, compile and register every model,
/// start the engine, and get one verified answer from each model.
pub fn setup_serve(inputs: &ServeInputs) -> Result<ServeSetup, String> {
    let begin = Instant::now();
    let zoo = Zoo::new();
    let mut inserts = Vec::with_capacity(inputs.models.len());
    for model in &inputs.models {
        let t0 = Instant::now();
        zoo.insert(model);
        inserts.push((t0, Instant::now()));
    }
    let t0 = Instant::now();
    let server = Server::start(&zoo);
    let start = (t0, Instant::now());
    let mut first_outputs = Vec::with_capacity(inputs.models.len());
    for (model, cases) in inputs.models.iter().zip(&inputs.cases) {
        if !zoo.resolves(model.name()) {
            return Err(format!("set-up: {} does not resolve", model.name()));
        }
        let t0 = Instant::now();
        let reply = server
            .submit(model.name(), cases[0].input.clone())
            .and_then(|ticket| ticket.wait())
            .map_err(|e| format!("set-up: {} failed its first request: {e}", model.name()))?;
        first_outputs.push((t0, Instant::now()));
        if reply.output != cases[0].expected {
            return Err(format!(
                "set-up: {} answered differently from the dense reference",
                model.name()
            ));
        }
    }
    Ok(ServeSetup {
        server,
        begin,
        inserts,
        start,
        first_outputs,
        end: Instant::now(),
    })
}

/// Instants of one offline set-up.
pub struct OfflineSetup {
    pub plan: Plan,
    pub begin: Instant,
    pub compiled: Instant,
    pub warmed: Instant,
    pub end: Instant,
}

impl OfflineSetup {
    pub fn took(&self) -> Duration {
        self.end - self.begin
    }
}

/// A cold offline set-up: compile, warm, and one verified single-image
/// forward — the "write" side of the plan the run then only reads.
pub fn setup_offline(inputs: &OfflineInputs) -> Result<OfflineSetup, String> {
    let (first, expected) = inputs.batch(1);
    let begin = Instant::now();
    let plan = inputs.model.compile();
    let compiled = Instant::now();
    plan.warm();
    let warmed = Instant::now();
    let outputs = plan.forward_batch(&first);
    let end = Instant::now();
    if outputs.mismatches(&expected) != 0 {
        return Err("set-up: LeNet answered differently from the dense reference".to_string());
    }
    Ok(OfflineSetup {
        plan,
        begin,
        compiled,
        warmed,
        end,
    })
}

/// Repeats a cold set-up `reps` times. Returns the last instance (the run
/// uses it) and every duration in seconds; earlier instances go through
/// `retire`.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    took: impl Fn(&T) -> Duration,
    mut retire: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    loop {
        let instance = setup()?;
        times.push(took(&instance).as_secs_f64());
        if times.len() >= reps {
            return Ok((instance, times));
        }
        retire(instance);
    }
}

/// Runs one serve workload for `duration` against a started engine.
pub fn run_serve(
    workload: Workload,
    server: &Server,
    inputs: &ServeInputs,
    seed: u64,
    stream_base: u64,
    duration: Duration,
    traced: bool,
) -> Run {
    match workload {
        Workload::ServeClosedC2 => {
            workloads::run_closed(server, inputs, seed, stream_base, duration, traced)
        }
        Workload::ServePipelinedW32 => {
            workloads::run_pipelined(server, inputs, seed, stream_base, duration, traced)
        }
        Workload::ServeOpenR500 => workloads::run_open(
            server,
            inputs,
            seed,
            stream_base,
            OPEN_RATE,
            duration,
            WhenFull::Wait,
            traced,
        ),
        Workload::OfflineB32 => unreachable!("offline_b32 starts no engine"),
    }
}

/// One window of a stretch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// Which of the stretch's `WINDOWS` windows.
    pub index: usize,
    /// Verified answers per *busy* second — a second during which at least
    /// one operation was outstanding. The closed loops and `offline_b32`
    /// are always busy, so this is their plain rate; the open loop is busy a
    /// quarter of the time, and its plain rate is its schedule's.
    pub throughput: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
}

/// Time during which at least one of `samples` (ascending by `start_ns`)
/// was outstanding.
fn busy_ns(samples: &[Sample]) -> u64 {
    let (mut busy, mut covered_to) = (0, 0);
    for s in samples {
        let end = s.start_ns + s.latency_ns;
        if end > covered_to {
            busy += end - s.start_ns.max(covered_to);
            covered_to = end;
        }
    }
    busy
}

/// Cuts samples (ascending by `start_ns`) into `WINDOWS` equal windows by
/// the instant each was due, and keeps the windows that hold `min_samples`.
/// A verified sample stands for `answers_per_sample` answers.
fn windowed(
    samples: &[Sample],
    duration: Duration,
    answers_per_sample: usize,
    min_samples: usize,
) -> Vec<Window> {
    let window_ns = (duration.as_nanos() as u64 / WINDOWS as u64).max(1);
    let window_of = |s: &Sample| ((s.start_ns / window_ns) as usize).min(WINDOWS - 1);
    let mut out = Vec::with_capacity(WINDOWS);
    let mut rest = samples;
    while let Some(first) = rest.first() {
        let index = window_of(first);
        let len = rest.partition_point(|s| window_of(s) == index);
        let (window, later) = rest.split_at(len);
        rest = later;
        let busy = busy_ns(window);
        if window.len() < min_samples || busy == 0 {
            continue;
        }
        let mut ms: Vec<f64> = window.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        let verified = window.iter().filter(|s| s.ok).count() * answers_per_sample;
        out.push(Window {
            index,
            throughput: verified as f64 / (busy as f64 / 1e9),
            p50_ms: percentile_sorted(&ms, 0.5),
            p90_ms: percentile_sorted(&ms, 0.9),
        });
    }
    out
}

fn max_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

fn min_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// The numbers of one measured stretch, in absolute units: what this host
/// did this time. None of them is gated.
pub struct Summary {
    /// The windows that held enough samples.
    pub windows: Vec<Window>,
    /// The best window of a serve workload — what the host does when its
    /// neighbours are quiet; every call of the offline one.
    pub throughput_per_s: f64,
    pub lat_p50_ms: f64,
    pub lat_p90_ms: f64,
    /// The medians over windows: the typical window of this run.
    pub typical_throughput_per_s: f64,
    pub typical_lat_p50_ms: f64,
    /// `(max − min) / median` over windows: how unsettled the host was.
    pub window_spread: f64,
    /// Over every sample, whichever window it fell in.
    pub lat_p99_ms: f64,
    pub lat_max_ms: f64,
    pub gen_late_us_p99: f64,
    pub gen_late_us_max: f64,
    /// Share of everything attempted that was answered correctly within
    /// `SLO` of the instant it was due; a failed or refused request misses.
    pub slo_ok_share: f64,
}

pub fn summarize(workload: Workload, run: &Run, duration: Duration) -> Summary {
    let all_ms: Vec<f64> = run
        .samples
        .iter()
        .map(|s| s.latency_ns as f64 / 1e6)
        .collect();
    let late_us: Vec<f64> = run.samples.iter().map(|s| s.late_ns as f64 / 1e3).collect();
    let limit = SLO.as_nanos() as u64;
    let within = run
        .samples
        .iter()
        .filter(|s| s.ok && s.latency_ns <= limit)
        .count();
    let (answers_per_sample, min_samples) = if workload == Workload::OfflineB32 {
        (OFFLINE_BATCH, 1)
    } else {
        (1, MIN_WINDOW_SAMPLES)
    };
    let mut summary = Summary {
        windows: windowed(&run.samples, duration, answers_per_sample, min_samples),
        throughput_per_s: 0.0,
        lat_p50_ms: 0.0,
        lat_p90_ms: 0.0,
        typical_throughput_per_s: 0.0,
        typical_lat_p50_ms: 0.0,
        window_spread: 0.0,
        lat_p99_ms: percentile(&all_ms, 0.99),
        lat_max_ms: max_of(&all_ms),
        gen_late_us_p99: percentile(&late_us, 0.99),
        gen_late_us_max: max_of(&late_us),
        slo_ok_share: if workload.is_serve() && !run.samples.is_empty() {
            within as f64 / run.samples.len() as f64
        } else {
            0.0
        },
    };
    if workload == Workload::OfflineB32 {
        // A window holds a call or two: there is no best window to pick,
        // so the call-time percentiles pool every call.
        let p50 = percentile(&all_ms, 0.5);
        summary.lat_p50_ms = p50;
        summary.lat_p90_ms = percentile(&all_ms, 0.9);
        if p50 > 0.0 {
            summary.throughput_per_s = OFFLINE_BATCH as f64 / (p50 / 1e3);
        }
        summary.typical_throughput_per_s = summary.throughput_per_s;
        summary.typical_lat_p50_ms = p50;
        summary.window_spread = window_spread(&all_ms);
        return summary;
    }
    let column = |f: fn(&Window) -> f64| -> Vec<f64> { summary.windows.iter().map(f).collect() };
    let (throughput, p50_ms, p90_ms) = (
        column(|w| w.throughput),
        column(|w| w.p50_ms),
        column(|w| w.p90_ms),
    );
    summary.throughput_per_s = max_of(&throughput);
    summary.lat_p50_ms = min_of(&p50_ms);
    summary.lat_p90_ms = min_of(&p90_ms);
    summary.typical_throughput_per_s = median(&throughput);
    summary.typical_lat_p50_ms = median(&p50_ms);
    summary.window_spread = window_spread(&throughput);
    summary
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Each window's throughput and median latency in units of the yardstick:
/// verified answers per dense-forward time, and dense-forward times per
/// answer's latency. A window's yardstick is the mean of the readings on
/// either side of it (`readings[w]` before window `w`, `readings[w + 1]`
/// after).
fn vs_dense(windows: &[Window], readings: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let dense_s = |w: &Window| (readings[w.index] + readings[w.index + 1]) / 2.0;
    (
        windows.iter().map(|w| w.throughput * dense_s(w)).collect(),
        windows
            .iter()
            .map(|w| w.p50_ms / 1e3 / dense_s(w))
            .collect(),
    )
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_untraced(settings: &Settings) -> Result<Outcome, String> {
    let workload = settings.workload;
    let duration = settings.duration();
    let window_len = duration / WINDOWS as u32;
    let (setup_times, warm, (run, readings)) = if workload.is_serve() {
        let inputs = ServeInputs::generate(settings.seed);
        let (setup, times) = repeat_setup(
            SETUP_REPS_SERVE,
            || setup_serve(&inputs),
            ServeSetup::took,
            |s| {
                s.server.shutdown();
            },
        )?;
        let server = setup.server;
        let seed = settings.seed;
        let warm = run_serve(workload, &server, &inputs, seed, 100, WARMUP, false);
        let yardstick = Yardstick::new(&inputs.models, &inputs.cases, workload.generator_threads());
        let measured = measure_windows(window_len, &yardstick, |w| {
            // Every window draws its own stretch of the request sequence.
            let stream = (1000 + w * CLOSED_CLIENTS) as u64;
            run_serve(workload, &server, &inputs, seed, stream, window_len, false)
        });
        server.shutdown();
        (times, warm, measured)
    } else {
        let inputs = OfflineInputs::generate(settings.seed);
        let (setup, times) = repeat_setup(
            SETUP_REPS_OFFLINE,
            || setup_offline(&inputs),
            OfflineSetup::took,
            drop,
        )?;
        let (batch, expected) = inputs.batch(OFFLINE_BATCH);
        let warm = workloads::run_offline(&setup.plan, &batch, &expected, WARMUP);
        let models = std::slice::from_ref(&inputs.model);
        let cases = std::slice::from_ref(&inputs.cases);
        let yardstick = Yardstick::new(models, cases, workload.generator_threads());
        let measured = measure_windows(window_len, &yardstick, |_| {
            workloads::run_offline(&setup.plan, &batch, &expected, window_len)
        });
        (times, warm, measured)
    };

    let summary = summarize(workload, &run, duration);
    let mut tally = warm.tally;
    tally.merge(&run.tally);

    let (throughput_vs_dense, lat_p50_vs_dense) = vs_dense(&summary.windows, &readings);

    let mut values = Values::default();
    values.set("throughput_vs_dense", median(&throughput_vs_dense));
    values.set("lat_p50_vs_dense", median(&lat_p50_vs_dense));
    values.set("peak_rss_mb", peak_rss_mb()?);
    values.set("setup_s", percentile(&setup_times, SETUP_QUANTILE));
    let extras = vec![
        ("dense_forward_us", median(&readings) * 1e6, "us"),
        ("dense_forward_spread", window_spread(&readings), "share"),
        ("throughput_per_s", summary.typical_throughput_per_s, "1/s"),
        ("lat_p50_ms", summary.typical_lat_p50_ms, "ms"),
        ("best_throughput_per_s", summary.throughput_per_s, "1/s"),
        ("best_lat_p50_ms", summary.lat_p50_ms, "ms"),
        ("best_lat_p90_ms", summary.lat_p90_ms, "ms"),
        ("lat_p99_ms", summary.lat_p99_ms, "ms"),
        ("lat_max_ms", summary.lat_max_ms, "ms"),
        ("slo_ok_share", summary.slo_ok_share, "share"),
        ("failed_share", tally.failed_share(), "share"),
        ("queue_full_waits", tally.waited as f64, "count"),
        ("windows", summary.windows.len() as f64, "count"),
        ("window_spread", summary.window_spread, "share"),
        (
            "vs_dense_window_spread",
            window_spread(&throughput_vs_dense),
            "share",
        ),
        ("gen_late_us_p99", summary.gen_late_us_p99, "us"),
        ("setup_median_s", median(&setup_times), "s"),
        ("setup_reps", setup_times.len() as f64, "count"),
    ];
    Ok(Outcome {
        values,
        extras,
        tally,
        samples: run.samples.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_ms: u64, latency_ms: u64, ok: bool) -> Sample {
        Sample {
            start_ns: start_ms * 1_000_000,
            latency_ns: latency_ms * 1_000_000,
            late_ns: 0,
            ok,
        }
    }

    fn run_of(samples: Vec<Sample>) -> Run {
        let tally = Tally {
            attempted: samples.len() as u64,
            ..Tally::default()
        };
        Run {
            samples,
            details: Vec::new(),
            tally,
            epoch: Instant::now(),
        }
    }

    /// `n` verified requests of `latency_ms`, evenly due over window `w` of
    /// a 40 s stretch (1 s windows).
    fn fill(samples: &mut Vec<Sample>, w: u64, n: u64, latency_ms: u64) {
        for i in 0..n {
            samples.push(sample(w * 1000 + i * 1000 / n, latency_ms, true));
        }
    }

    #[test]
    fn windows_split_by_due_time_and_drop_the_nearly_empty() {
        let mut samples = Vec::new();
        fill(&mut samples, 0, 40, 2);
        fill(&mut samples, 3, 25, 5);
        fill(&mut samples, 7, 5, 9); // too few to take a percentile from
        samples.push(sample(0, 2, false)); // answered wrongly: no throughput
        samples.sort_by_key(|s| s.start_ns);
        let win = windowed(&samples, Duration::from_secs(40), 1, 20);
        let indices: Vec<usize> = win.iter().map(|w| w.index).collect();
        assert_eq!(indices, [0, 3]);
        // Window 0 was busy 40 × 2 ms (its wrong answer was outstanding
        // together with a right one), window 3 25 × 5 ms.
        assert_eq!(win[0].throughput, 40.0 / 0.080);
        assert_eq!(win[1].throughput, 25.0 / 0.125);
        assert_eq!((win[0].p50_ms, win[0].p90_ms), (2.0, 2.0));
        assert_eq!((win[1].p50_ms, win[1].p90_ms), (5.0, 5.0));
        // A sample due after the last boundary lands in the last window,
        // and a verified call of 32 images is 32 answers: two back-to-back
        // calls of 250 ms are 64 answers in half a busy second.
        let late = [sample(45_000, 250, true), sample(45_250, 250, true)];
        let win = windowed(&late, Duration::from_secs(40), 32, 1);
        assert_eq!((win.len(), win[0].index), (1, WINDOWS - 1));
        assert_eq!(win[0].throughput, 128.0);
    }

    #[test]
    fn busy_time_is_the_union_of_the_outstanding_intervals() {
        // [0, 4] and [2, 5] overlap; [5, 6] touches; [9, 10] stands apart;
        // [9, 9.5] hides inside it.
        let samples = [
            sample(0, 4, true),
            sample(2, 3, true),
            sample(5, 1, true),
            sample(9, 1, true),
            Sample {
                latency_ns: 500_000,
                ..sample(9, 0, true)
            },
        ];
        assert_eq!(busy_ns(&samples), 7_000_000);
        assert_eq!(busy_ns(&[]), 0);
        // An open loop at a quarter utilisation: 250 answers of 1 ms in half
        // a second are 1000 answers per busy second.
        let open: Vec<Sample> = (0..250)
            .map(|i| Sample {
                start_ns: i * 2_000_000,
                ..sample(0, 1, true)
            })
            .collect();
        let win = windowed(&open, Duration::from_secs(20), 1, 20);
        assert_eq!(win[0].throughput, 1000.0);
    }

    #[test]
    fn a_slower_host_leaves_the_ratios_to_the_yardstick_unchanged() {
        let window = |index, throughput, p50_ms| Window {
            index,
            throughput,
            p50_ms,
            p90_ms: p50_ms,
        };
        // The host halves its speed during window 1: the dense forward goes
        // from 1 ms to 2 ms, and the program with it.
        let windows = [
            window(0, 2000.0, 1.0),
            window(1, 2000.0 / 1.5, 1.5),
            window(2, 1000.0, 2.0),
        ];
        let readings = [0.001, 0.001, 0.002, 0.002];
        let (throughput, latency) = vs_dense(&windows, &readings);
        assert_eq!(throughput, [2.0, 2.0, 2.0]);
        assert_eq!(latency, [1.0, 1.0, 1.0]);
        // A window that was dropped keeps the others at their own readings.
        let (throughput, _) = vs_dense(&[windows[2]], &readings);
        assert_eq!(throughput, [2.0]);
    }

    #[test]
    fn serve_metrics_come_from_the_best_window() {
        // Thirty windows under a neighbour, five stalled, five quiet.
        let mut samples = Vec::new();
        for w in 0..40 {
            match w % 8 {
                0 => fill(&mut samples, w, 400, 2),
                1 => fill(&mut samples, w, 20, 50),
                _ => fill(&mut samples, w, 300, 3),
            }
        }
        let s = summarize(
            Workload::ServeClosedC2,
            &run_of(samples),
            Duration::from_secs(40),
        );
        // Due on whole milliseconds, the quiet windows are busy 0.8 s of
        // their second and the typical ones 0.9 s.
        assert_eq!(s.windows.len(), 40);
        assert_eq!(s.throughput_per_s, 400.0 / 0.8);
        assert_eq!(s.lat_p50_ms, 2.0);
        assert_eq!(s.lat_p90_ms, 2.0);
        assert_eq!(s.typical_throughput_per_s, 300.0 / 0.9);
        assert_eq!(s.typical_lat_p50_ms, 3.0);
        assert_eq!(s.lat_max_ms, 50.0);
        assert_eq!(s.slo_ok_share, 1.0 - 100.0 / 11_100.0);
    }

    #[test]
    fn offline_pools_every_call() {
        let calls: Vec<Sample> = (0..20).map(|i| sample(i * 300, 200 + i, true)).collect();
        let s = summarize(Workload::OfflineB32, &run_of(calls), Duration::from_secs(6));
        assert_eq!(s.lat_p50_ms, 209.0);
        assert_eq!(s.lat_p90_ms, 217.0);
        assert_eq!(s.throughput_per_s, 32.0 / 0.209);
        assert_eq!(s.slo_ok_share, 0.0);
    }

    #[test]
    fn the_limit_is_missed_by_late_wrong_and_refused_answers() {
        let samples = vec![
            sample(0, 2, true),
            sample(1, 2, false), // wrong or refused
            sample(2, 11, true), // correct, but over the 10 ms limit
            sample(3, 10, true),
        ];
        let s = summarize(
            Workload::ServeOpenR500,
            &run_of(samples),
            Duration::from_secs(1),
        );
        assert_eq!(s.slo_ok_share, 0.5);
        // Four requests are too few for a window.
        assert!(s.windows.is_empty());
    }

    #[test]
    fn an_overrun_open_loop_waits_for_room_unless_told_to_refuse() {
        // 2000 requests due within 50 ms: far more than the engine answers
        // in that time, or its queue holds.
        let inputs = ServeInputs::generate(3);
        let (rate, due_within) = (40_000.0, Duration::from_millis(50));
        let run_with = |when_full| {
            let server = setup_serve(&inputs).unwrap().server;
            let run =
                workloads::run_open(&server, &inputs, 3, 0, rate, due_within, when_full, false);
            server.shutdown();
            run.tally
        };
        let waiting = run_with(WhenFull::Wait);
        assert_eq!((waiting.attempted, waiting.failed()), (2000, 0));
        assert!(waiting.waited > 0, "the queue never filled: {waiting:?}");
        let refusing = run_with(WhenFull::Refuse);
        assert_eq!((refusing.attempted, refusing.waited), (2000, 0));
        assert!(refusing.refused > 0 && refusing.outputs_correct());
    }

    #[test]
    fn setup_repeats_a_fixed_count_and_keeps_the_last() {
        let mut made = 0;
        let mut retired = Vec::new();
        let (last, times) = repeat_setup(
            7,
            || {
                made += 1;
                Ok(made)
            },
            |_| Duration::from_millis(300),
            |i| retired.push(i),
        )
        .unwrap();
        assert_eq!((last, times.len()), (7, 7));
        assert_eq!(retired, [1, 2, 3, 4, 5, 6]);
        assert!(times.iter().all(|&t| t == 0.3));
        let failing: Result<((), Vec<f64>), String> =
            repeat_setup(3, || Err("boom".to_string()), |_| Duration::ZERO, |_| {});
        assert_eq!(failing.unwrap_err(), "boom");
    }
}
