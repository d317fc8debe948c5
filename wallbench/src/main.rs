//! Wall-clock benchmark of the SmartCIS / ASPEN stack.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload building|fanout|cluster_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a closed loop with one client (this thread) and no
//! think time: a round admits its inputs, then reads its results before
//! the next round starts. Simulated time is decoupled from wall time, so
//! the loop's rate is the engine's capacity at the stated input size.
//! Inputs come from `--seed` and are generated before timing; every round
//! is checked against a reference the workload computes itself.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer ledger, measured from the
//! benchmark's own spans around each call into the program. The last
//! line of standard output is one JSON object.

mod building;
mod churn;
mod fanout;
mod ledger;
mod shapes;
mod util;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ledger::{Ledger, Phase};

/// Warm-up rounds between setup and the first timed round.
const WARMUP_ROUNDS: usize = 20;
/// Timed rounds at least: ten samples beyond p99.
const MIN_ROUNDS: usize = 1000;
/// Setups per batch: at least this many, then until half a second of
/// setup has passed, at most `SETUPS_MAX`.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 50;
/// Rounds of the untraced and one-shard passes of a traced run, at least.
const BASELINE_MIN_ROUNDS: usize = 100;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }
}

/// One benchmark workload over the program's public API.
pub trait Workload {
    /// Input sizes and the property shares the workload stresses.
    fn describe(&self) -> String;
    /// Drop the system under test.
    fn teardown(&mut self);
    /// Build the system under test from scratch. `single_thread` builds
    /// the one-shard sequential baseline.
    fn setup(&mut self, single_thread: bool, ledger: &mut Ledger) -> bool;
    /// Stamp round `r`'s inputs; not timed.
    fn prepare(&mut self, r: usize);
    /// One timed round; returns the input tuples it admitted.
    fn round(&mut self, r: usize, ledger: &mut Ledger) -> u64;
    /// Check the round's reads against the reference; not timed.
    fn verify(&mut self, r: usize, ledger: &mut Ledger);
    /// Time parse+bind of each distinct statement and the optimizer.
    fn probe_front_end(&mut self, ledger: &mut Ledger);
    /// Per-layer counts read from the program's public surfaces.
    fn counts(&mut self, out: &mut Metrics);
    /// Timed rounds after which the counts are read, so exact counts
    /// cover the same work on every run.
    fn count_rounds(&self) -> usize;
    /// Rounds after which the inputs repeat.
    fn period(&self) -> usize;
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
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Outcome of one timed phase.
#[derive(Default)]
struct Pass {
    round_ms: Vec<f64>,
    round_tuples: Vec<u64>,
    wall: Duration,
    /// Rounds after which the workload's inputs repeat.
    period: usize,
    /// Peak resident memory when `min_rounds` timed rounds had run, so it
    /// covers the same work however fast the rounds go.
    rss_peak_mb: f64,
}

impl Pass {
    /// A statistic of each whole input period (of all rounds when the
    /// pass is shorter than one period), sorted.
    fn per_period(&self, stat: impl Fn(&[f64], &[u64]) -> f64) -> Vec<f64> {
        let n = self.period.max(1).min(self.round_ms.len().max(1));
        let mut out: Vec<f64> = self
            .round_ms
            .chunks_exact(n)
            .zip(self.round_tuples.chunks_exact(n))
            .map(|(ms, tuples)| stat(ms, tuples))
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Tuples admitted per second of round time: the median over input
    /// periods, so a stretch of noise from the host's shared cores (on a
    /// 2-vCPU cloud host a fixed CPU loop swings up to 1.6x over seconds)
    /// moves it less than it moves a run-long mean.
    fn events_per_s(&self) -> f64 {
        let rates = self.per_period(|ms, tuples| {
            tuples.iter().sum::<u64>() as f64 * 1e3 / ms.iter().sum::<f64>().max(1e-9)
        });
        util::quantile(&rates, 0.5)
    }

    /// Median round latency: the median over input periods of each
    /// period's median.
    fn latency_p50_ms(&self) -> f64 {
        util::quantile(&self.per_period(|ms, _| util::median(ms)), 0.5)
    }

    /// p99 of all timed rounds.
    fn latency_p99_ms(&self) -> f64 {
        let mut all = self.round_ms.clone();
        all.sort_by(f64::total_cmp);
        util::quantile(&all, 0.99)
    }
}

/// Run timed rounds until `seconds` of round time and `min_rounds`
/// rounds have passed. With `counts` set, the workload's counts are read
/// after exactly `count_rounds` timed rounds.
fn run_rounds(
    w: &mut dyn Workload,
    ledger: &mut Ledger,
    seconds: f64,
    min_rounds: usize,
    mut counts: Option<&mut Metrics>,
) -> Pass {
    let need_rounds = if counts.is_some() {
        min_rounds.max(w.count_rounds())
    } else {
        min_rounds
    };
    let mut pass = Pass {
        period: w.period(),
        ..Pass::default()
    };
    let mut r = WARMUP_ROUNDS;
    while pass.wall.as_secs_f64() < seconds || pass.round_ms.len() < need_rounds {
        r += 1;
        w.prepare(r);
        ledger.begin_round(r as u32);
        let t0 = Instant::now();
        let tuples = w.round(r, ledger);
        let dt = t0.elapsed();
        ledger.end_round();
        pass.wall += dt;
        pass.round_ms.push(dt.as_secs_f64() * 1e3);
        pass.round_tuples.push(tuples);
        w.verify(r, ledger);
        if pass.round_ms.len() == min_rounds {
            pass.rss_peak_mb = util::rss_peak_mb();
        }
        if pass.round_ms.len() == w.count_rounds() {
            if let Some(out) = counts.as_deref_mut() {
                w.counts(out);
            }
        }
    }
    pass
}

/// Drop the previous system, build a new one and run the untraced
/// warm-up rounds (caches fill, lazy registration ends). Returns the time
/// from workload start to the first timed round, without the input
/// stamping and reference checks the benchmark does in between.
fn bring_up(w: &mut dyn Workload, single_thread: bool, ledger: &mut Ledger) -> f64 {
    w.teardown();
    let t0 = Instant::now();
    if !w.setup(single_thread, ledger) {
        eprintln!("setup failed: {:?}", ledger.errors());
        std::process::exit(1);
    }
    let mut elapsed = t0.elapsed();
    let traced = ledger.tracing();
    ledger.set_tracing(false);
    for r in 1..=WARMUP_ROUNDS {
        w.prepare(r);
        ledger.begin_round(r as u32);
        let t = Instant::now();
        w.round(r, ledger);
        elapsed += t.elapsed();
        ledger.end_round();
        w.verify(r, ledger);
    }
    ledger.set_tracing(traced);
    elapsed.as_secs_f64()
}

/// Bring the system up repeatedly; the last one stays for the rounds.
fn setup_batch(w: &mut dyn Workload, ledger: &mut Ledger) -> Vec<f64> {
    let mut setup_s: Vec<f64> = Vec::new();
    while setup_s.len() < SETUPS_MIN
        || (setup_s.iter().sum::<f64>() < 0.5 && setup_s.len() < SETUPS_MAX)
    {
        setup_s.push(bring_up(w, false, ledger));
    }
    setup_s
}

/// Untraced run: the end-to-end metrics.
fn end_to_end(
    w: &mut dyn Workload,
    args: &Args,
    ledger: &mut Ledger,
    text: &mut String,
) -> Metrics {
    // Bring-up is timed in two batches, before and after the rounds, so
    // its median spans the run rather than one moment of the host's load.
    let mut setup_s = setup_batch(w, ledger);
    let pass = run_rounds(w, ledger, args.seconds, MIN_ROUNDS, None);
    setup_s.extend(setup_batch(w, ledger));
    let failed_frac = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    let _ = writeln!(
        text,
        "timed rounds (latency samples): {} in {:.3} s, {} whole input periods; setups: {}; \
         failed_frac: {failed_frac}",
        pass.round_ms.len(),
        pass.wall.as_secs_f64(),
        pass.round_ms.len() / pass.period.max(1),
        setup_s.len(),
    );
    let mut m = Metrics::default();
    m.put("setup_s", util::median(&setup_s), "s");
    m.put("events_per_s", pass.events_per_s(), "1/s");
    m.put("latency_p50_ms", pass.latency_p50_ms(), "ms");
    m.put("latency_p99_ms", pass.latency_p99_ms(), "ms");
    m.put("rss_peak_mb", pass.rss_peak_mb, "MiB");
    m
}

/// Traced run: the per-layer ledger, the exact counts, the one-shard
/// sequential baseline, and the tracing overhead.
fn per_layer(w: &mut dyn Workload, args: &Args, ledger: &mut Ledger, text: &mut String) -> Metrics {
    // Untraced reference pass, for the overhead of the spans.
    bring_up(w, false, ledger);
    let plain = run_rounds(w, ledger, args.seconds / 2.0, BASELINE_MIN_ROUNDS, None);

    // Traced pass: setup, front-end probes, rounds.
    ledger.set_tracing(true);
    ledger.set_phase(Phase::Setup);
    bring_up(w, false, ledger);
    ledger.set_phase(Phase::Setup);
    w.probe_front_end(ledger);
    let mut m = Metrics::default();
    let traced = run_rounds(w, ledger, args.seconds, BASELINE_MIN_ROUNDS, Some(&mut m));
    ledger.set_tracing(false);

    // One shard, sequential scheduling: the single-threaded baseline.
    bring_up(w, true, ledger);
    let baseline = run_rounds(w, ledger, args.seconds / 3.0, BASELINE_MIN_ROUNDS, None);

    let table = ledger.summarize();
    text.push_str(&table.render(&args.workload));
    let mut layers: Vec<&str> = LAYERS.to_vec();
    layers.push(ledger::UNATTRIBUTED);
    for layer in layers {
        let empty = ledger::LayerStats::default();
        let s = table.get(layer).unwrap_or(&empty);
        m.put(format!("{layer}.count"), s.count() as f64, "count");
        m.put(format!("{layer}.self_s"), s.self_s(), "s");
        m.put(format!("{layer}.p50_us"), s.quantile_us(0.50), "us");
        m.put(format!("{layer}.p99_us"), s.quantile_us(0.99), "us");
    }
    m.put(
        "executor.single_thread_events_per_s",
        baseline.events_per_s(),
        "1/s",
    );
    m.put(
        "bench.trace_overhead_frac",
        1.0 - traced.events_per_s() / plain.events_per_s().max(1e-9),
        "frac",
    );
    let spans = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    match ledger.write_spans(&spans) {
        Ok(()) => {
            let _ = writeln!(text, "spans written to {}", spans.display());
        }
        Err(e) => {
            let _ = writeln!(text, "spans not written: {e}");
        }
    }
    m
}

/// What the program's public surfaces report at the count point.
#[derive(Default)]
pub struct Census {
    pub ops_invoked: u64,
    pub report: Option<aspen_stream::TelemetryReport>,
    pub resident: aspen_stream::ResidentState,
    pub plan_cache: aspen_optimizer::PlanCacheStats,
    pub batches_delivered: u64,
    pub rows_per_join_key: f64,
    pub wire_frames: u64,
    pub wire_bytes: u64,
    pub exchange: (u64, u64),
    pub migrations: u64,
    /// Wall time since the system was built (worker utilization base).
    pub wall: Duration,
}

impl Census {
    pub fn put(&self, out: &mut Metrics) {
        out.put("pipeline.ops_invoked", self.ops_invoked as f64, "count");
        let empty = aspen_stream::TelemetryReport::default();
        let report = self.report.as_ref().unwrap_or(&empty);
        for kind in aspen_stream::OpKind::ALL {
            out.put(
                format!("pipeline.busy_s.{}", kind.name()),
                report.profile.meter(kind).busy.as_secs_f64(),
                "s",
            );
        }
        let busy: Vec<f64> = report.shards.iter().map(|s| s.busy_seconds).collect();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        let max = busy.iter().copied().fold(0.0, f64::max);
        out.put(
            "executor.shard_busy_skew",
            if mean > 0.0 { max / mean } else { 0.0 },
            "ratio",
        );
        out.put(
            "executor.queue_wait_p99_us",
            report.queue_wait().p99_us() as f64,
            "us",
        );
        let worker_busy: f64 = report.workers.iter().map(|w| w.busy_seconds).sum();
        let worker_wall = report.workers.len() as f64 * self.wall.as_secs_f64();
        out.put(
            "executor.worker_busy_frac",
            if worker_wall > 0.0 {
                worker_busy / worker_wall
            } else {
                0.0
            },
            "frac",
        );
        out.put("state.bytes", self.resident.state_bytes as f64, "B");
        out.put(
            "state.window_tuples",
            self.resident.window_tuples as f64,
            "count",
        );
        out.put(
            "state.shared_taps",
            self.resident.shared_taps as f64,
            "count",
        );
        out.put("state.rows_per_join_key", self.rows_per_join_key, "count");
        let c = &self.plan_cache;
        out.put("optimizer.plan_cache_hit_ratio", c.hit_rate(), "frac");
        out.put(
            "optimizer.plan_cache_hits",
            (c.exact_hits + c.template_hits) as f64,
            "count",
        );
        out.put("optimizer.plan_cache_misses", c.misses as f64, "count");
        out.put(
            "sink.batches_delivered",
            self.batches_delivered as f64,
            "count",
        );
        out.put("netsim.wire_frames", self.wire_frames as f64, "count");
        out.put("netsim.wire_bytes", self.wire_bytes as f64, "B");
        out.put("cluster.exchange_out", self.exchange.0 as f64, "count");
        out.put("cluster.exchange_in", self.exchange.1 as f64, "count");
        out.put("cluster.migrations", self.migrations as f64, "count");
    }
}

/// Sum of plan-cache statistics over engines.
pub fn add_cache(
    total: &mut aspen_optimizer::PlanCacheStats,
    s: Option<aspen_optimizer::PlanCacheStats>,
) {
    if let Some(s) = s {
        total.exact_hits += s.exact_hits;
        total.template_hits += s.template_hits;
        total.misses += s.misses;
        total.evictions += s.evictions;
    }
}

/// Engine configuration of a single-engine workload: the shipped
/// defaults with one shard per core under the worker pool, or one
/// shard run sequentially for the single-threaded baseline.
pub fn engine_config(single_thread: bool) -> aspen_stream::EngineConfig {
    use aspen_stream::{EngineConfig, Scheduling};
    if single_thread {
        EngineConfig::new()
            .shards(1)
            .scheduling(Scheduling::Sequential)
    } else {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        EngineConfig::new()
            .shards(nproc)
            .scheduling(Scheduling::Pool)
    }
}

/// Layers timed from the benchmark's side of each call.
pub const LAYERS: [&str; 14] = [
    "session.register",
    "session.close_session",
    "shard.on_batch",
    "telemetry.poll",
    "executor.quiesce",
    "shard.heartbeat",
    "shard.snapshot",
    "sink.drain",
    "smartcis.visitor_guidance",
    "recursive.close_corridor",
    "cluster.on_batch",
    "cluster.migrate",
    "sql.parse_bind",
    "optimizer.optimize",
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    };
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "building" => Box::new(building::Building::new(args.seed)),
        "fanout" => Box::new(fanout::Fanout::new(args.seed)),
        "cluster_churn" => Box::new(churn::ClusterChurn::new(args.seed)),
        other => {
            eprintln!("wallbench: unknown workload '{other}' (building, fanout, cluster_churn)");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut text = format!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}\n{}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.describe()
    );
    let mut ledger = Ledger::new();
    let metrics = if args.trace {
        per_layer(w.as_mut(), &args, &mut ledger, &mut text)
    } else {
        end_to_end(w.as_mut(), &args, &mut ledger, &mut text)
    };
    for e in ledger.errors() {
        let _ = writeln!(text, "FAILED: {e}");
    }
    for m in &metrics.0 {
        let _ = writeln!(text, "{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    print!("{text}");
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.failed == 0,
        ledger.attempted.max(1),
        ledger.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
