//! Scale table: harness throughput at 256–4096 nodes.
//!
//! The paper's whole premise is that behaviour past the tested scale is
//! where the bugs hide — and that cuts both ways: the checker itself
//! must stay fast enough to *reach* those scales. This table sweeps the
//! baseline decommission scenario across cluster sizes under Colo and
//! SC+PIL, recording **wall-clock** cost per cell (virtual results are
//! deterministic; wall time is what limits how far a cell can go):
//! events fired per wall second, peak tracked memory, and the engine's
//! schedule/fire/pool counters. An SC+PIL cell is two runs — memoize,
//! then replay — timed separately; its events-per-second is the
//! replay's events over the replay's wall time alone. Every row records
//! the host CPU count and git revision it was measured at.
//!
//! ```text
//! cargo run --release -p scalecheck-bench --bin tbl_scale
//! ```
//!
//! Writes `BENCH_scale.json` (schema `bench_scale/v2`) and
//! `TBL_scale.txt` in the working directory, and prints the table.
//!
//! Options:
//! * `--scales 256,512,1024` — cluster sizes (default; 2048- and
//!   4096-node cells work too, but a 2048-node cell passes 7.5 GB of
//!   host memory, so they are opt-in);
//! * `--seed 1` — simulation seed;
//! * `--modes colo,scpil` — which execution modes to sweep (default
//!   both);
//! * `--json-out PATH` / `--table-out PATH` — artifact destinations;
//! * `--no-write` — print only, write no artifact files;
//! * `--smoke` — CI mode: run one 1024-node SC+PIL cell cache-free,
//!   validate the `bench_scale/v2` schema on its row, and fail if the
//!   cell exceeds `--budget-secs` (default 600) of wall clock;
//! * `--jobs N` / `--no-cache` — sweep worker/caching control.
//!
//! Wall times are measured on whatever machine runs the sweep and are
//! *not* deterministic; they ride along inside the sweep cache next to
//! the deterministic `RunReport`, so a warm-cache rerun reproduces the
//! committed artifact byte-for-byte.

use std::time::Instant;

use scalecheck::{memoize, replay, replay_ordered, CellSpec, ExecMode, COLO_CORES};
use scalecheck_bench::{
    exit_usage, flag_value, git_revision, has_flag, host_cpus, parse_flag, parse_list_flag,
    run_sweep, Cell, SweepOptions,
};
use scalecheck_cluster::{RunReport, ScenarioConfig};
use serde::{Deserialize, Serialize};

const USAGE: &str = "usage: tbl_scale [--scales 256,512,1024] [--seed N] \
[--modes colo,scpil] [--json-out PATH] [--table-out PATH] [--no-write] \
[--smoke] [--budget-secs N] [--jobs N] [--no-cache]";

/// The schema tag committed artifacts carry.
const SCHEMA: &str = "bench_scale/v2";

/// One executed cell: the deterministic report plus the wall-clock cost
/// of producing it and where it was measured. Cached as a unit so
/// warm-cache reruns keep the originally measured timings and their
/// provenance.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct TimedReport {
    /// The whole cell (for SC+PIL: memoize plus replay).
    wall_secs: f64,
    /// SC+PIL only: the memoize run.
    memo_wall_secs: Option<f64>,
    /// SC+PIL only: the replay run, which produced `report`.
    replay_wall_secs: Option<f64>,
    host_cpus: usize,
    git_rev: String,
    report: RunReport,
}

impl TimedReport {
    /// Runs `spec`, timing an SC+PIL cell's memoize and replay apart.
    fn measure(spec: &CellSpec) -> Self {
        let t0 = Instant::now();
        let (report, memo_wall_secs, replay_wall_secs) = match spec.mode {
            ExecMode::ScPil { cores, ordered } => {
                let memo = memoize(&spec.config, cores);
                let memo_secs = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let report = if ordered {
                    replay_ordered(&spec.config, cores, &memo)
                } else {
                    replay(&spec.config, cores, &memo)
                };
                (report, Some(memo_secs), Some(t1.elapsed().as_secs_f64()))
            }
            _ => (spec.run(), None, None),
        };
        TimedReport {
            wall_secs: t0.elapsed().as_secs_f64(),
            memo_wall_secs,
            replay_wall_secs,
            host_cpus: host_cpus(),
            git_rev: git_revision(),
            report,
        }
    }

    /// Events fired per wall second of the run that fired them: the
    /// replay alone for SC+PIL, the whole cell otherwise.
    fn events_per_sec(&self) -> f64 {
        let secs = self.replay_wall_secs.unwrap_or(self.wall_secs);
        if secs > 0.0 {
            self.report.engine.fired as f64 / secs
        } else {
            0.0
        }
    }
}

/// The swept scenario: the baseline decommission run under the paper's
/// §6 single-process memory layout. One process overhead paid once
/// instead of per node — without it, colocating ≥512 nodes at 70 MB
/// runtime overhead each blows the 32 GB machine model and the cell
/// measures OOM-crash dynamics instead of harness throughput.
///
/// The virtual horizon is cut from the baseline 900 s to 150 s: a
/// saturated colo machine never passes the all-stages-idle quiescence
/// test, so big cells always run to the cap, and 50 s of steady state
/// past the 100 s workload is plenty for a throughput measurement.
fn scale_scenario(n: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(n, seed);
    cfg.memory.single_process = true;
    cfg.max_duration = scalecheck_sim::SimDuration::from_secs(150);
    cfg
}

fn all_modes() -> [ExecMode; 2] {
    [
        ExecMode::Colo { cores: COLO_CORES },
        ExecMode::ScPil {
            cores: COLO_CORES,
            ordered: false,
        },
    ]
}

/// Parses the `--modes` selector: a comma-separated subset of
/// `colo` / `scpil`, swept in the order given.
fn parse_modes(spec: &str) -> Result<Vec<ExecMode>, String> {
    spec.split(',')
        .map(|m| match m.trim().to_ascii_lowercase().as_str() {
            "colo" => Ok(ExecMode::Colo { cores: COLO_CORES }),
            "scpil" | "sc+pil" => Ok(ExecMode::ScPil {
                cores: COLO_CORES,
                ordered: false,
            }),
            other => Err(format!("unknown mode '{other}' (expected colo or scpil)")),
        })
        .collect()
}

/// Builds the timed sweep cell for one `(n, mode)` point. The cache key
/// is namespaced so these entries never collide with the plain
/// `RunReport` cells other table binaries store for the same spec.
fn timed_cell(n: usize, seed: u64, mode: ExecMode) -> Cell<TimedReport> {
    let spec = CellSpec::new(scale_scenario(n, seed), mode);
    let key = serde_json::to_value(&(SCHEMA, &spec)).expect("cell key serializes");
    Cell::new(format!("scale N={n} {}", mode.label()), key, move || {
        TimedReport::measure(&spec)
    })
}

/// One `bench_scale/v2` row. `memo_wall_secs` and `replay_wall_secs`
/// are `null` on Colo rows, which are a single run.
fn row_json(n: usize, mode_label: &str, t: &TimedReport) -> serde_json::Value {
    let r = &t.report;
    serde_json::json!({
        "nodes": n,
        "mode": mode_label,
        "wall_secs": t.wall_secs,
        "memo_wall_secs": t.memo_wall_secs,
        "replay_wall_secs": t.replay_wall_secs,
        "events_per_sec": t.events_per_sec(),
        "host_cpus": t.host_cpus,
        "git_rev": t.git_rev,
        "virtual_secs": r.duration.as_secs_f64(),
        "events_scheduled": r.engine.scheduled,
        "events_fired": r.engine.fired,
        "events_cancelled": r.engine.cancelled,
        "timer_pool_hits": r.engine.pool_hits,
        "timer_pool_misses": r.engine.pool_misses,
        "mem_peak_bytes": r.mem_peak_bytes,
        "messages_sent": r.messages_sent,
        "messages_delivered": r.messages_delivered,
        "total_flaps": r.total_flaps,
        "quiesced": r.quiesced,
    })
}

/// Checks one row against the `bench_scale/v2` contract. Returns the
/// first violation, if any.
fn validate_row(row: &serde_json::Value) -> Result<(), String> {
    let u64_fields = [
        "nodes",
        "events_scheduled",
        "events_fired",
        "events_cancelled",
        "timer_pool_hits",
        "timer_pool_misses",
        "mem_peak_bytes",
        "messages_sent",
        "messages_delivered",
        "total_flaps",
        "host_cpus",
    ];
    for f in u64_fields {
        row.get(f)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("row missing u64 field '{f}'"))?;
    }
    for f in ["wall_secs", "events_per_sec", "virtual_secs"] {
        let v = row
            .get(f)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("row missing numeric field '{f}'"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("row field '{f}' must be finite and >= 0, got {v}"));
        }
    }
    let mode = row
        .get("mode")
        .and_then(|v| v.as_str())
        .ok_or("row missing string field 'mode'".to_string())?;
    // SC+PIL rows time memoize and replay apart; Colo rows carry null.
    let split = mode.starts_with("SC+PIL");
    for f in ["memo_wall_secs", "replay_wall_secs"] {
        let v = row.get(f);
        let ok = if split {
            v.and_then(|v| v.as_f64())
                .is_some_and(|x| x.is_finite() && x >= 0.0)
        } else {
            matches!(v, Some(serde_json::Value::Null))
        };
        if !ok {
            let want = if split {
                "a finite number >= 0"
            } else {
                "null"
            };
            return Err(format!("{mode} row field '{f}' must be {want}"));
        }
    }
    row.get("git_rev")
        .and_then(|v| v.as_str())
        .filter(|s| !s.is_empty())
        .ok_or("row missing non-empty string field 'git_rev'".to_string())?;
    row.get("quiesced")
        .and_then(|v| v.as_bool())
        .ok_or("row missing bool field 'quiesced'".to_string())?;
    Ok(())
}

/// Checks a whole document: schema tag, non-empty rows, every row
/// well-formed.
fn validate_doc(doc: &serde_json::Value) -> Result<(), String> {
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema tag must be '{SCHEMA}', got {other:?}")),
    }
    doc.get("seed")
        .and_then(|v| v.as_u64())
        .ok_or("document missing u64 'seed'".to_string())?;
    let rows = doc
        .get("rows")
        .and_then(|v| v.as_array())
        .ok_or("document missing 'rows' array".to_string())?;
    if rows.is_empty() {
        return Err("document has zero rows".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        validate_row(row).map_err(|e| format!("row {i}: {e}"))?;
    }
    Ok(())
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Renders the human table; also what `TBL_scale.txt` holds.
fn render_table(seed: u64, rows: &[(usize, &'static str, TimedReport)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scale table — baseline decommission, seed {seed}: harness cost per cell"
    );
    let _ = writeln!(
        out,
        "wall = host seconds for the cell (SC+PIL: memo_s + replay_s)\n\
ev/s = engine events fired per wall second of the run that fired them (SC+PIL: the replay)"
    );
    let mut hosts: Vec<String> = rows
        .iter()
        .map(|(_, _, t)| format!("{} CPUs, rev {}", t.host_cpus, t.git_rev))
        .collect();
    hosts.dedup();
    let _ = writeln!(out, "measured on {}\n", hosts.join("; "));
    let secs = |v: Option<f64>| v.map_or("-".to_string(), |s| format!("{s:.2}"));
    let mut buf = vec![vec![
        "#Nodes".to_string(),
        "mode".to_string(),
        "wall_s".to_string(),
        "memo_s".to_string(),
        "replay_s".to_string(),
        "ev/s".to_string(),
        "fired".to_string(),
        "virt_s".to_string(),
        "peak_MiB".to_string(),
        "flaps".to_string(),
    ]];
    for (n, label, t) in rows {
        let r = &t.report;
        buf.push(vec![
            n.to_string(),
            label.to_string(),
            format!("{:.2}", t.wall_secs),
            secs(t.memo_wall_secs),
            secs(t.replay_wall_secs),
            format!("{:.0}", t.events_per_sec()),
            r.engine.fired.to_string(),
            format!("{:.0}", r.duration.as_secs_f64()),
            format!("{:.1}", mib(r.mem_peak_bytes)),
            r.total_flaps.to_string(),
        ]);
    }
    for cells in buf {
        let line: Vec<String> = cells.iter().map(|c| format!("{c:>9}")).collect();
        let _ = writeln!(out, "{}", line.join(" "));
    }
    out
}

fn smoke(seed: u64, budget_secs: f64) -> ! {
    // One 1024-node SC+PIL cell, always executed (never cache-served):
    // the point is to measure this machine, not to replay a result.
    let n = 1024;
    let mode = ExecMode::ScPil {
        cores: COLO_CORES,
        ordered: false,
    };
    let spec = CellSpec::new(scale_scenario(n, seed), mode);
    eprintln!("[smoke] running N={n} {} ...", mode.label());
    let timed = TimedReport::measure(&spec);
    let doc = serde_json::json!({
        "schema": SCHEMA,
        "seed": seed,
        "scenario": "baseline single-process",
        "rows": [row_json(n, mode.label(), &timed)],
    });
    if let Err(e) = validate_doc(&doc) {
        eprintln!("[smoke] FAIL: schema violation: {e}");
        std::process::exit(1);
    }
    println!(
        "smoke: N={n} {} wall={:.2}s (memo {:.2}s, replay {:.2}s) events/s={:.0} fired={} quiesced={}",
        mode.label(),
        timed.wall_secs,
        timed.memo_wall_secs.unwrap_or_default(),
        timed.replay_wall_secs.unwrap_or_default(),
        timed.events_per_sec(),
        timed.report.engine.fired,
        timed.report.quiesced,
    );
    if timed.wall_secs > budget_secs {
        eprintln!(
            "[smoke] FAIL: {:.2}s exceeds the {budget_secs:.0}s wall budget",
            timed.wall_secs
        );
        std::process::exit(1);
    }
    println!("smoke: PASS (schema ok, within {budget_secs:.0}s budget)");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = SweepOptions::from_args(&args).unwrap_or_else(|e| exit_usage(USAGE, &e));
    let seed: u64 = parse_flag(&args, "--seed")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or(1);
    let scales: Vec<usize> = parse_list_flag(&args, "--scales")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| vec![256, 512, 1024]);
    let json_out = flag_value(&args, "--json-out")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let table_out = flag_value(&args, "--table-out")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| "TBL_scale.txt".to_string());
    let no_write = has_flag(&args, "--no-write");
    let budget_secs: f64 = parse_flag(&args, "--budget-secs")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or(600.0);
    let modes: Vec<ExecMode> =
        match flag_value(&args, "--modes").unwrap_or_else(|e| exit_usage(USAGE, &e)) {
            Some(spec) => parse_modes(&spec).unwrap_or_else(|e| exit_usage(USAGE, &e)),
            None => all_modes().to_vec(),
        };
    if has_flag(&args, "--smoke") {
        smoke(seed, budget_secs);
    }

    let mut cells = Vec::new();
    for &n in &scales {
        for &mode in &modes {
            cells.push(timed_cell(n, seed, mode));
        }
    }
    let out = run_sweep(cells, &opts);

    let mut rows: Vec<(usize, &'static str, TimedReport)> = Vec::new();
    let mut idx = 0;
    for &n in &scales {
        for mode in &modes {
            rows.push((n, mode.label(), out.results[idx].clone()));
            idx += 1;
        }
    }

    let table = render_table(seed, &rows);
    print!("{table}");

    let doc = serde_json::json!({
        "schema": SCHEMA,
        "seed": seed,
        "scenario": "baseline single-process",
        "rows": rows
            .iter()
            .map(|(n, label, t)| row_json(*n, label, t))
            .collect::<Vec<_>>(),
    });
    validate_doc(&doc).unwrap_or_else(|e| {
        eprintln!("internal error: generated document violates {SCHEMA}: {e}");
        std::process::exit(1);
    });
    if no_write {
        return;
    }
    std::fs::write(&json_out, format!("{doc}\n")).unwrap_or_else(|e| {
        eprintln!("cannot write {json_out}: {e}");
        std::process::exit(1);
    });
    std::fs::write(&table_out, &table).unwrap_or_else(|e| {
        eprintln!("cannot write {table_out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {json_out} and {table_out}");
}
