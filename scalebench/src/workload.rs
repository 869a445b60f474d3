//! The workloads: which scenario each one runs, the fixed cell sequence
//! of one pass, the work counters read back from every `RunReport`, and
//! the output checks that decide whether a cell failed.
//!
//! Every workload runs the same pipeline as its pass: Real, then the
//! one-time memoization run (a Colo run that records; its report is the
//! Colo verdict), then the PIL replay. The traced run adds a plain Colo
//! cell, whose work counters must equal the memoization run's.

use std::time::Instant;

use scalecheck::{memoize, replay, run_colo, run_real, COLO_CORES};
use scalecheck_cluster::{
    RunReport, ScenarioConfig, SloSummary, TrafficConfig, Workload as ScenarioWorkload,
};
use scalecheck_explore::{FlapTriple, SloParams, SloTriple, VerdictParams};
use scalecheck_sim::SimDuration;

use crate::alloc;
use crate::calibrate::{self, Brackets};
use crate::trace::Spans;

/// C3831 past the 100-node line, where the cubic calculator starves
/// colocated gossip into a flap storm (at 128 nodes some seeds leave
/// Colo within a few flaps of Real).
pub const PIL_NODES: usize = 144;
/// The baseline decommission past the 100-node line: control-plane work
/// that grows with N, at a size where a pass takes a few seconds.
pub const SCALE_NODES: usize = 160;
/// `tbl_slo`'s C3881 row past the 100-node line.
pub const SLO_NODES: usize = 128;
/// `tbl_slo`'s virtual user population (open-loop input to the modelled
/// cluster, not load on the host).
pub const SLO_USERS: u64 = 1_000_000;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// C3831 (V1 cubic calculator, 1 vnode): the paper's headline
    /// pipeline, where the offending function runs for real in Real and
    /// memoize and is served from the memo database in replay.
    PilC3831,
    /// `tbl_scale`'s baseline decommission (V3 calculator,
    /// single-process memory, 150 s horizon): the control plane at
    /// scale, where calc and memo do almost nothing.
    ScaleBaseline,
    /// C3881 scale-out (V2 calculator, 32 vnodes) with `tbl_slo`'s
    /// coupled open-loop traffic: the only workload that drives the
    /// traffic layer and the data plane.
    SloC3881,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [
        Workload::PilC3831,
        Workload::ScaleBaseline,
        Workload::SloC3881,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PilC3831 => "pil-c3831",
            Workload::ScaleBaseline => "scale-baseline",
            Workload::SloC3881 => "slo-c3881",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario this workload runs at `seed`. The program receives
    /// only this config.
    pub fn config(self, seed: u64) -> ScenarioConfig {
        match self {
            Workload::PilC3831 => one_action(ScenarioConfig::c3831(PIL_NODES, seed)),
            Workload::ScaleBaseline => {
                let mut cfg = ScenarioConfig::baseline(SCALE_NODES, seed);
                cfg.memory.single_process = true;
                cfg.max_duration = SimDuration::from_secs(150);
                cfg
            }
            Workload::SloC3881 => one_action(ScenarioConfig::c3881(SLO_NODES, seed))
                .with_traffic(TrafficConfig::open_loop(SLO_USERS)),
        }
    }
}

/// Cuts a bug scenario's rescale workload to its first action. Every
/// action repeats the same mechanism (one pending-range window), so one
/// keeps the bug's shape while a pass stays short enough to repeat
/// several times in a run: medians over passes are what make the
/// timings steady on a shared host.
fn one_action(mut cfg: ScenarioConfig) -> ScenarioConfig {
    let (count, gap) = match &mut cfg.workload {
        ScenarioWorkload::Decommission { count, gap }
        | ScenarioWorkload::ScaleOut { count, gap } => (std::mem::replace(count, 1), *gap),
        ScenarioWorkload::BootstrapFromScratch => return cfg,
    };
    cfg.workload_end -= gap.saturating_mul(count as u64 - 1);
    cfg
}

/// A pipeline stage: one call into `crates/core`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// `run_real`.
    Real,
    /// `memoize`.
    Memo,
    /// `replay` over the memoization run's artifacts.
    Replay,
    /// `run_colo` (traced run only).
    Colo,
}

impl Stage {
    /// Every stage, in report order.
    pub const ALL: [Stage; 4] = [Stage::Real, Stage::Memo, Stage::Replay, Stage::Colo];

    /// The stage's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Real => "real",
            Stage::Memo => "memo",
            Stage::Replay => "replay",
            Stage::Colo => "colo",
        }
    }
}

/// Deterministic work counts of one cell, read from its `RunReport`.
/// Two runs of the same config must agree on every field.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub virtual_ns: u64,
    pub events_scheduled: u64,
    pub events_fired: u64,
    pub pool_misses: u64,
    pub msgs_sent: u64,
    pub msgs_delivered: u64,
    pub msgs_dropped: u64,
    pub flaps: u64,
    pub calc_invocations: u64,
    pub calc_executed: u64,
    pub exec_cache_hits: u64,
    pub memo_recorded: u64,
    pub memo_hits: u64,
    pub memo_fallbacks: u64,
    pub memo_misses: u64,
    pub traffic_samples: u64,
    pub traffic_retried: u64,
    pub traffic_failed: u64,
    pub data_sent: u64,
    pub traffic_log_digest: String,
}

impl Counters {
    fn of(r: &RunReport) -> Counters {
        Counters {
            virtual_ns: r.duration.as_nanos(),
            events_scheduled: r.engine.scheduled,
            events_fired: r.engine.fired,
            pool_misses: r.engine.pool_misses,
            msgs_sent: r.messages_sent,
            msgs_delivered: r.messages_delivered,
            msgs_dropped: r.messages_dropped,
            flaps: r.total_flaps,
            calc_invocations: r.calc.invocations,
            calc_executed: r.calc.executed,
            exec_cache_hits: r.calc.exec_cache_hits,
            memo_recorded: r.memo.recorded,
            memo_hits: r.memo.hits,
            memo_fallbacks: r.memo.index_fallbacks,
            memo_misses: r.memo.misses,
            traffic_samples: r.traffic.samples,
            traffic_retried: r.traffic.retried,
            traffic_failed: r.traffic.failed,
            data_sent: r.traffic.data_sent,
            traffic_log_digest: r.traffic.log_digest.clone(),
        }
    }

    /// Whether `self` and `other` did the same simulated work, ignoring
    /// what only the memoization run records.
    fn same_simulation(&self, other: &Counters) -> bool {
        Counters {
            memo_recorded: 0,
            ..self.clone()
        } == Counters {
            memo_recorded: 0,
            ..other.clone()
        }
    }
}

/// Heap use of one traced cell, from the counting allocator.
#[derive(Clone, Copy, Debug, Default)]
pub struct Heap {
    pub allocs: u64,
    pub peak_bytes: i64,
}

/// Host cost of one stage call.
struct Timing {
    wall_s: f64,
    heap: Option<Heap>,
}

/// One stage call and what it produced.
pub struct Cell {
    pub stage: Stage,
    pub wall_s: f64,
    /// The reference kernel's time around the call (see `calibrate`).
    pub reference_s: f64,
    pub counters: Counters,
    pub slo: SloSummary,
    pub heap: Option<Heap>,
    pub failures: Vec<String>,
}

impl Cell {
    fn new(stage: Stage, r: &RunReport, timing: Timing, reference_s: f64) -> Cell {
        Cell {
            stage,
            wall_s: timing.wall_s,
            reference_s,
            counters: Counters::of(r),
            slo: r.traffic.slo_summary(),
            heap: timing.heap,
            failures: Vec::new(),
        }
    }

    /// The call's wall time, calibrated to the reference host speed.
    pub fn calibrated_s(&self) -> f64 {
        self.wall_s * calibrate::scale(self.reference_s)
    }
}

/// One run of a workload's cell sequence.
pub struct Pass {
    pub cells: Vec<Cell>,
    pub wall_s: f64,
}

impl Pass {
    /// The cell of `stage`, if this pass ran it.
    pub fn cell(&self, stage: Stage) -> Option<&Cell> {
        self.cells.iter().find(|c| c.stage == stage)
    }

    fn cell_mut(&mut self, stage: Stage) -> &mut Cell {
        self.cells
            .iter_mut()
            .find(|c| c.stage == stage)
            .expect("every pass runs real, memo and replay")
    }

    /// Host seconds of the Real, memo and replay cells.
    pub fn pipeline_s(&self) -> f64 {
        self.pipeline().map(|c| c.wall_s).sum()
    }

    /// The Real, memo and replay cells.
    pub fn pipeline(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().filter(|c| c.stage != Stage::Colo)
    }

    /// Engine events fired over the Real, memo and replay cells.
    pub fn pipeline_events(&self) -> u64 {
        self.pipeline().map(|c| c.counters.events_fired).sum()
    }

    /// Cells run and cells with at least one failed check.
    pub fn tally(&self) -> (u64, u64) {
        let failed = self.cells.iter().filter(|c| !c.failures.is_empty()).count();
        (self.cells.len() as u64, failed as u64)
    }
}

/// How a pass is run: untraced for the end-to-end numbers, or traced
/// (counting allocator on, spans kept, plain Colo cell added).
pub struct Runner<'a> {
    pub cfg: &'a ScenarioConfig,
    pub spans: Option<&'a mut Spans>,
}

impl Runner<'_> {
    fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// Times `f` as the call of `stage`; when traced, also records its
    /// span and heap use.
    fn timed<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> (T, Timing) {
        let traced = self.traced();
        let allocs0 = alloc::allocs();
        if traced {
            alloc::reset_peak();
        }
        let span = self.spans.as_deref_mut().map(|s| s.open(stage.name()));
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        if let (Some(spans), Some(id)) = (self.spans.as_deref_mut(), span) {
            spans.close(id);
        }
        let heap = traced.then(|| Heap {
            allocs: alloc::allocs() - allocs0,
            peak_bytes: alloc::peak_bytes(),
        });
        (out, Timing { wall_s, heap })
    }

    /// Runs one pass: Real, memoize, replay, and in the traced run a
    /// plain Colo cell. The reference kernel is timed between stages,
    /// outside every timed call.
    pub fn pass(&mut self) -> Pass {
        let cfg = self.cfg;
        let t = Instant::now();
        let mut cells = Vec::with_capacity(4);
        let mut brackets = Brackets::open();
        let (real, timing) = self.timed(Stage::Real, || run_real(cfg));
        cells.push(Cell::new(Stage::Real, &real, timing, brackets.close()));
        drop(real);
        let (memo, timing) = self.timed(Stage::Memo, || memoize(cfg, COLO_CORES));
        cells.push(Cell::new(
            Stage::Memo,
            &memo.report,
            timing,
            brackets.close(),
        ));
        let (pil, timing) = self.timed(Stage::Replay, || replay(cfg, COLO_CORES, &memo));
        cells.push(Cell::new(Stage::Replay, &pil, timing, brackets.close()));
        drop((memo, pil));
        if self.traced() {
            let (colo, timing) = self.timed(Stage::Colo, || run_colo(cfg, COLO_CORES));
            cells.push(Cell::new(Stage::Colo, &colo, timing, brackets.close()));
        }
        Pass {
            cells,
            wall_s: t.elapsed().as_secs_f64(),
        }
    }
}

/// Applies the output checks to `pass`, recording each failed check on
/// the cell it condemns.
///
/// * The paper shape, with the repo's own tolerances: on the bug
///   workloads the memoization run (the Colo verdict) diverges from
///   Real and the replay tracks Real; on `scale-baseline`, a healthy
///   cluster, memoize and replay both track Real.
/// * The replay serves every calculation from the memo database.
/// * A plain Colo cell does the same simulated work as memoize.
pub fn check(workload: Workload, pass: &mut Pass) {
    let tol = VerdictParams::default().tolerance;
    let flaps = |s| pass.cell(s).map_or(0, |c| c.counters.flaps);
    let triple = FlapTriple {
        real: flaps(Stage::Real),
        colo: flaps(Stage::Memo),
        pil: flaps(Stage::Replay),
    };
    let shape = triple.shape(tol);
    let mut memo_fail = Vec::new();
    let mut replay_fail = Vec::new();
    match workload {
        Workload::PilC3831 => {
            if !shape.colo_diverges {
                memo_fail.push(format!("Colo does not diverge from Real: {triple:?}"));
            }
        }
        Workload::ScaleBaseline => {
            if triple.colo.abs_diff(triple.real) > tol {
                memo_fail.push(format!("healthy baseline diverges under Colo: {triple:?}"));
            }
        }
        Workload::SloC3881 => {
            let slo = |s| pass.cell(s).map(|c| c.slo).unwrap_or_default();
            let t = SloTriple {
                real: slo(Stage::Real),
                colo: slo(Stage::Memo),
                pil: slo(Stage::Replay),
            };
            let v = t.verdict(&SloParams::default());
            let p999 = (t.real.p999_ns, t.colo.p999_ns, t.pil.p999_ns);
            if !v.colo_diverges {
                memo_fail.push(format!(
                    "Colo SLO does not diverge from Real: p99.9 {p999:?}"
                ));
            }
            if !v.pil_tracks {
                replay_fail.push(format!("SC+PIL SLO does not track Real: p99.9 {p999:?}"));
            }
        }
    }
    if !shape.pil_tracks {
        replay_fail.push(format!("SC+PIL flaps do not track Real: {triple:?}"));
    }
    let misses = pass
        .cell(Stage::Replay)
        .map_or(0, |c| c.counters.memo_misses);
    if misses > 0 {
        replay_fail.push(format!("replay missed the memo database {misses} times"));
    }
    if let (Some(colo), Some(memo)) = (pass.cell(Stage::Colo), pass.cell(Stage::Memo)) {
        if !colo.counters.same_simulation(&memo.counters) {
            let msg = "plain Colo run did different work than memoize".to_string();
            pass.cell_mut(Stage::Colo).failures.push(msg);
        }
    }
    pass.cell_mut(Stage::Memo).failures.extend(memo_fail);
    pass.cell_mut(Stage::Replay).failures.extend(replay_fail);
}

/// Fails every cell of `pass` whose work counters differ from the same
/// stage in `reference`, a run of the same config: the simulation is
/// deterministic, so any difference is a defect.
pub fn check_same_work(pass: &mut Pass, reference: &Pass, what: &str) {
    for cell in &mut pass.cells {
        if let Some(r) = reference.cell(cell.stage) {
            if r.counters != cell.counters {
                cell.failures.push(format!(
                    "work counters differ from the {what}: {:?} vs {:?}",
                    cell.counters, r.counters
                ));
            }
        }
    }
}
