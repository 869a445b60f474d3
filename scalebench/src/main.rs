//! The repository benchmark: scale-check workloads run through the
//! public pipeline functions of `crates/core`, timed per stage from
//! outside, with work counters read from every `RunReport` and the
//! outputs checked.
//!
//! ```text
//! scalecheck-benchmark --workload pil-c3831 --seed 1 --seconds 30 --trace 0 [--rev REV]
//! ```
//!
//! `--trace 0` repeats the workload's pass (Real, memoize, replay) until
//! the next pass would end past `--seconds`, and reports the end-to-end
//! metrics as medians over passes, their times calibrated to a reference
//! host speed (see `calibrate`). `--trace 1` runs two untraced passes,
//! then two traced passes (counting allocator on, spans kept, plus a
//! plain Colo cell), then the layer probes, and reports the per-layer
//! metrics.
//!
//! Standard output carries the uncalibrated timings in the untraced run,
//! a provenance line, a spans line in the traced run, and last the
//! result line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A human-readable table goes to standard error. The load is a closed
//! loop with one client: one cell at a time on one thread.

mod alloc;
mod calibrate;
mod probes;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use scalecheck_cluster::ScenarioConfig;
use serde_json::Value;

use crate::probes::Probes;
use crate::trace::Spans;
use crate::workload::{check, check_same_work, Cell, Pass, Runner, Stage, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Schema tag of every result this benchmark writes.
const SCHEMA: &str = "scalebench/v1";

/// Set-ups per timed batch: one set-up takes well under a microsecond,
/// too short to time alone.
const SETUP_BATCH: usize = 1000;

/// Timed batches before each pass; `setup_s` is the median over all of
/// them, per set-up.
const SETUP_BATCHES: usize = 20;

/// Untraced passes, then traced passes, in a traced run.
const TRACED_PASSES: usize = 2;

const USAGE: &str = "usage: scalecheck-benchmark --workload pil-c3831|scale-baseline|slo-c3881 \
--seed N --seconds S --trace 0|1 [--rev REV]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rev = "unknown".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("{flag} got invalid value '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--rev" => rev = value.to_string(),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rev,
    })
}

/// Set-up: builds and validates the workload's config.
fn setup(workload: Workload, seed: u64) -> Result<ScenarioConfig, String> {
    let cfg = workload.config(seed);
    cfg.validate()?;
    Ok(cfg)
}

/// The config's digest, for the provenance line.
fn config_digest(cfg: &ScenarioConfig) -> Result<String, String> {
    let json = serde_json::to_string(cfg).map_err(|e| e.to_string())?;
    let digest = scalecheck_memo::digest_bytes(json.as_bytes());
    Ok(format!("{:032x}", digest.0))
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when nothing was attempted.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Peak resident memory of this process (VmHWM), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Named metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// A probe's median, tail, tail percentile and sample count, scaled
    /// from seconds to `unit`.
    fn probe(&mut self, name: &str, p: &probes::Probe, scale: f64, unit: &'static str) {
        self.put(name, p.median * scale, unit);
        self.put(format!("{name}.tail"), p.tail * scale, unit);
        self.put(format!("{name}.tail_pct"), p.tail_pct, "%");
        self.put(format!("{name}.samples"), p.samples as f64, "count");
    }

    fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        serde_json::json!({"value": value, "unit": unit}),
                    )
                })
                .collect(),
        )
    }
}

/// The timings of untraced passes and set-ups, medians per pass, with
/// every cell timed by `cell_s` and every set-up batch by `setup_s`.
fn timings(
    passes: &[Pass],
    setup: &[SetupSample],
    cell_s: fn(&Cell) -> f64,
    setup_s: fn(&SetupSample) -> f64,
) -> Metrics {
    let per = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let stage = |s: Stage| per(&|p: &Pass| p.cell(s).map_or(0.0, cell_s));
    let mut m = Metrics::default();
    m.put(
        "wall_s",
        per(&|p: &Pass| p.pipeline().map(cell_s).sum()),
        "s",
    );
    m.put(
        "setup_s",
        median(&setup.iter().map(setup_s).collect::<Vec<_>>()),
        "s",
    );
    m.put("real_s", stage(Stage::Real), "s");
    m.put("memo_s", stage(Stage::Memo), "s");
    m.put("replay_s", stage(Stage::Replay), "s");
    m
}

/// End-to-end metrics over untraced passes: medians per pass of the
/// calibrated times (see `calibrate`).
fn end_to_end(passes: &[Pass], setup: &[SetupSample]) -> Result<Metrics, String> {
    let mut m = timings(passes, setup, Cell::calibrated_s, SetupSample::calibrated_s);
    let events_per_s: Vec<f64> = passes
        .iter()
        .map(|p| p.pipeline_events() as f64 / p.pipeline().map(Cell::calibrated_s).sum::<f64>())
        .collect();
    m.put("events_per_s", median(&events_per_s), "1/s");
    m.put("peak_rss_mib", peak_rss_mib()?, "MiB");
    Ok(m)
}

/// The same timings uncalibrated, as the host measured them, and the
/// reference kernel's median time.
fn uncalibrated(passes: &[Pass], setup: &[SetupSample]) -> Metrics {
    let mut m = timings(passes, setup, |c| c.wall_s, |s| s.per_setup_s);
    let references: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cells.iter().map(|c| c.reference_s))
        .chain(setup.iter().map(|s| s.reference_s))
        .collect();
    m.put("reference_s", median(&references), "s");
    m
}

/// Per-layer metrics from the first traced pass and the probes; the
/// tracing overhead compares all traced passes with the untraced ones.
fn per_layer(cfg: &ScenarioConfig, traced: &[Pass], untraced: &[Pass], p: &Probes) -> Metrics {
    let pipeline = |ps: &[Pass]| median(&ps.iter().map(Pass::pipeline_s).collect::<Vec<_>>());
    let overhead = pipeline(traced) / pipeline(untraced) - 1.0;
    let traced = &traced[0];
    let mut m = Metrics::default();
    let sum = |f: &dyn Fn(&workload::Counters) -> u64| -> u64 {
        traced.cells.iter().map(|c| f(&c.counters)).sum()
    };
    let cell = |s: Stage| traced.cell(s).expect("the traced pass runs every stage");

    for s in Stage::ALL {
        let c = cell(s);
        let heap = c.heap.unwrap_or_default();
        m.put(
            format!("core.{}.allocs_per_event", s.name()),
            ratio(heap.allocs, c.counters.events_fired),
            "allocs/event",
        );
        m.put(
            format!("core.{}.peak_live_mib", s.name()),
            heap.peak_bytes as f64 / (1 << 20) as f64,
            "MiB",
        );
    }
    let flaps = |s: Stage| cell(s).counters.flaps;
    m.put(
        "core.pil_flap_gap",
        flaps(Stage::Replay).abs_diff(flaps(Stage::Real)) as f64,
        "count",
    );

    let executed = sum(&|c| c.calc_executed);
    let invocations = sum(&|c| c.calc_invocations);
    let cache_hits = sum(&|c| c.exec_cache_hits);
    m.put("ring.calc_executed", executed as f64, "count");
    m.probe("ring.probe_exec_ms", &p.ring_exec, 1e3, "ms");
    let ring_est = p.ring_exec.median * executed as f64;
    m.put("ring.est_busy_s", ring_est, "s");

    m.put("cluster.calc_invocations", invocations as f64, "count");
    m.put(
        "cluster.exec_cache_hit_ratio",
        ratio(cache_hits, cache_hits + executed),
        "ratio",
    );
    m.probe("cluster.probe_digest_us", &p.digest, 1e6, "us");
    let digest_est = p.digest.median * invocations as f64;
    m.put("cluster.digest_est_busy_s", digest_est, "s");

    let replay = &cell(Stage::Replay).counters;
    let lookups = replay.memo_hits + replay.memo_fallbacks + replay.memo_misses;
    m.put(
        "memo.recorded",
        cell(Stage::Memo).counters.memo_recorded as f64,
        "count",
    );
    m.put("memo.hits", replay.memo_hits as f64, "count");
    m.put("memo.misses", replay.memo_misses as f64, "count");
    m.put("memo.hit_ratio", ratio(replay.memo_hits, lookups), "ratio");
    m.probe("memo.probe_replay_call_us", &p.replay_call, 1e6, "us");
    let memo_est = p.replay_call.median * lookups as f64;
    m.put("memo.est_busy_s", memo_est, "s");

    let delivered = sum(&|c| c.msgs_delivered);
    let sweeps: u64 = traced
        .cells
        .iter()
        .map(|c| probes::fd_sweeps(cfg, c.counters.virtual_ns))
        .sum();
    for s in Stage::ALL {
        m.put(
            format!("gossip.flaps.{}", s.name()),
            flaps(s) as f64,
            "count",
        );
    }
    m.probe("gossip.probe_exchange_us", &p.gossip_exchange, 1e6, "us");
    m.probe("gossip.fd_probe_sweep_us", &p.fd_sweep, 1e6, "us");
    m.put(
        "gossip.probe_state_kib_per_peer",
        p.state_bytes_per_peer / 1024.0,
        "KiB",
    );
    // A syn/ack/ack2 exchange delivers three messages.
    let gossip_est =
        p.gossip_exchange.median * delivered as f64 / 3.0 + p.fd_sweep.median * sweeps as f64;
    m.put("gossip.est_busy_s", gossip_est, "s");

    let data_sent = sum(&|c| c.data_sent);
    m.put("net.msgs_delivered", delivered as f64, "count");
    m.put("net.msgs_dropped", sum(&|c| c.msgs_dropped) as f64, "count");
    m.put("net.data_sent", data_sent as f64, "count");
    m.probe("net.probe_offer_ns", &p.net_offer, 1e9, "ns");
    let net_est = p.net_offer.median * (sum(&|c| c.msgs_sent) + data_sent) as f64;
    m.put("net.est_busy_s", net_est, "s");

    let fired = sum(&|c| c.events_fired);
    for s in Stage::ALL {
        m.put(
            format!("sim.events_fired.{}", s.name()),
            cell(s).counters.events_fired as f64,
            "count",
        );
    }
    m.put(
        "sim.timer_pool_miss_ratio",
        ratio(sum(&|c| c.pool_misses), sum(&|c| c.events_scheduled)),
        "ratio",
    );
    m.probe("sim.probe_event_ns", &p.event, 1e9, "ns");
    let sim_est = p.event.median * fired as f64;
    m.put("sim.est_busy_s", sim_est, "s");

    let ticks: u64 = traced
        .cells
        .iter()
        .map(|c| probes::traffic_ticks(cfg, c.counters.virtual_ns))
        .sum();
    m.put(
        "traffic.samples",
        sum(&|c| c.traffic_samples) as f64,
        "count",
    );
    m.put(
        "traffic.retried",
        sum(&|c| c.traffic_retried) as f64,
        "count",
    );
    m.put("traffic.failed", sum(&|c| c.traffic_failed) as f64, "count");
    m.probe("traffic.probe_tick_us", &p.traffic_tick, 1e6, "us");
    let traffic_est = p.traffic_tick.median * ticks as f64;
    m.put("traffic.est_busy_s", traffic_est, "s");
    let p999 = |s: Stage| cell(s).slo.p999_ns;
    m.put(
        "traffic.pil_p999_gap_ms",
        p999(Stage::Replay).abs_diff(p999(Stage::Real)) as f64 / 1e6,
        "ms",
    );

    // A replay call includes its digest, which digest_est already
    // charges: count only the lookup on top of it.
    let lookup_est = (p.replay_call.median - p.digest.median).max(0.0) * lookups as f64;
    let stages_s: f64 = traced.cells.iter().map(|c| c.wall_s).sum();
    let unattributed = stages_s
        - (ring_est + digest_est + lookup_est + gossip_est + net_est + sim_est + traffic_est);
    m.put("cluster.unattributed_s", unattributed, "s");

    m.put("obs.trace_overhead_permille", overhead * 1e3, "permille");
    m
}

fn print_table(title: &str, m: &Metrics) {
    eprintln!("{title}");
    for (name, value, unit) in &m.0 {
        eprintln!("  {name:<40} {value:>16.6} {unit}");
    }
}

fn report_failures(passes: &[&Pass]) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for pass in passes {
        let (a, f) = pass.tally();
        attempted += a;
        failed += f;
        for c in &pass.cells {
            for why in &c.failures {
                eprintln!("FAILED {} cell: {why}", c.stage.name());
            }
        }
    }
    (attempted, failed)
}

/// Runs and checks one untraced pass, compares its work with the first
/// pass in `passes`, appends it, and returns its wall time.
fn untraced_pass(workload: Workload, cfg: &ScenarioConfig, passes: &mut Vec<Pass>) -> f64 {
    let mut pass = Runner { cfg, spans: None }.pass();
    check(workload, &mut pass);
    if let Some(first) = passes.first() {
        check_same_work(&mut pass, first, "first pass");
    }
    let wall_s = pass.wall_s;
    passes.push(pass);
    wall_s
}

/// One timed batch of set-ups.
struct SetupSample {
    per_setup_s: f64,
    /// The reference kernel's time right after the batches it belongs to.
    reference_s: f64,
}

impl SetupSample {
    fn calibrated_s(&self) -> f64 {
        self.per_setup_s * calibrate::scale(self.reference_s)
    }
}

/// Times `SETUP_BATCHES` more batches of set-ups into `samples`, then
/// the reference kernel.
fn time_setups(args: &Args, samples: &mut Vec<SetupSample>) -> Result<(), String> {
    use std::hint::black_box;
    let mut per_setup = Vec::with_capacity(SETUP_BATCHES);
    for _ in 0..SETUP_BATCHES {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            black_box(setup(black_box(args.workload), black_box(args.seed))?);
        }
        per_setup.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    let reference_s = calibrate::reference_s();
    samples.extend(per_setup.into_iter().map(|per_setup_s| SetupSample {
        per_setup_s,
        reference_s,
    }));
    Ok(())
}

fn run(args: &Args, t0: Instant) -> Result<(), String> {
    // The cold set-up, from process start, goes to the provenance line;
    // `setup_s` is the median of the batches timed before every pass.
    let cfg = setup(args.workload, args.seed)?;
    let first_setup_s = t0.elapsed().as_secs_f64();
    let config_digest = config_digest(&cfg)?;

    let (metrics, attempted, failed, passes, spans) = if args.trace {
        let mut spans = Spans::new(t0);
        let mut untraced = Vec::new();
        for _ in 0..TRACED_PASSES {
            untraced_pass(args.workload, &cfg, &mut untraced);
        }
        alloc::enable();
        let mut traced = Vec::new();
        for _ in 0..TRACED_PASSES {
            let mut pass = spans.scope("pass.traced", |s| {
                Runner {
                    cfg: &cfg,
                    spans: Some(s),
                }
                .pass()
            });
            check(args.workload, &mut pass);
            check_same_work(&mut pass, &untraced[0], "untraced run");
            traced.push(pass);
        }
        let probes = spans.scope("probes", |s| probes::run(&cfg, s));
        let m = per_layer(&cfg, &traced, &untraced, &probes);
        let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
        let (attempted, failed) = report_failures(&all);
        (m, attempted, failed, all.len(), Some(spans.to_json()))
    } else {
        let start = Instant::now();
        let mut passes = Vec::new();
        let mut setup_samples = Vec::new();
        loop {
            time_setups(args, &mut setup_samples)?;
            let last = untraced_pass(args.workload, &cfg, &mut passes);
            if start.elapsed().as_secs_f64() + last > args.seconds {
                break;
            }
        }
        let m = end_to_end(&passes, &setup_samples)?;
        let raw = uncalibrated(&passes, &setup_samples);
        print_table("uncalibrated", &raw);
        println!("{}", serde_json::json!({ "uncalibrated": raw.to_json() }));
        let (attempted, failed) = report_failures(&passes.iter().collect::<Vec<_>>());
        (m, attempted, failed, passes.len(), None)
    };

    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = serde_json::json!({
        "schema": SCHEMA,
        "workload": args.workload.name(),
        "seed": args.seed,
        "trace": args.trace,
        "git_rev": args.rev,
        "host_cpus": cpus,
        "config_digest": config_digest,
        "first_setup_s": first_setup_s,
        "nodes": cfg.total_nodes(),
        "passes": passes,
    });
    println!("{}", serde_json::json!({ "provenance": provenance }));
    if let Some(spans) = spans {
        println!("{}", serde_json::json!({ "spans": spans }));
    }
    print_table(
        &format!(
            "{} seed {} ({} pass(es), {} cells, {} failed)",
            args.workload.name(),
            args.seed,
            passes,
            attempted,
            failed
        ),
        &metrics,
    );
    let result = serde_json::json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.to_json(),
    });
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, t0) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
