//! Layer probes: timed calls into each layer crate's public functions,
//! with inputs built from the workload's own config (N, vnodes,
//! calculator version, topology change). A probe's cost times a count
//! from the `RunReport` is that layer's estimated busy time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use scalecheck_cluster::{CalcEngine, CalcIo, CalcVersion, RingInfo, ScenarioConfig, Workload};
use scalecheck_gossip::{EndpointState, FailureDetector, Gossiper, HeartbeatState, Peer};
use scalecheck_net::{Addr, Network};
use scalecheck_ring::{
    spread_tokens, FreshRingQuadratic, NodeId, NodeStatus, OpCounter, PendingRangeCalculator,
    RingTable, TopologyChange, V1Cubic, V2Quadratic, V3VnodeAware,
};
use scalecheck_sim::{DetRng, Engine, HandlerId, SimDuration, SimTime};
use scalecheck_traffic::{ClusterFabric, Phase, TrafficState};

use crate::alloc;
use crate::trace::Spans;

/// Timings of one probe, in seconds per call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// Median.
    pub median: f64,
    /// The highest percentile with at least 10 samples beyond it.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
    /// Samples taken.
    pub samples: usize,
}

/// Takes at least `min` samples of `f` (each the seconds per call of
/// one batch), continuing until `budget` is spent or `max` are taken.
/// `min` exceeds 10, so the tail percentile always exists.
fn sample(min: usize, max: usize, budget: Duration, mut f: impl FnMut() -> f64) -> Probe {
    assert!(min > 10, "a tail needs at least 10 samples beyond it");
    let t = Instant::now();
    let mut xs = Vec::with_capacity(min);
    while xs.len() < min || (xs.len() < max && t.elapsed() < budget) {
        xs.push(f());
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let median = if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    };
    Probe {
        median,
        tail: xs[n - 11],
        tail_pct: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

/// Samples a cheap call: each sample times a batch of calls long enough
/// to read well on the clock, and reports seconds per call.
fn sample_batched(mut call: impl FnMut()) -> Probe {
    let mut batch = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            call();
        }
        if t.elapsed() >= Duration::from_micros(50) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    sample(200, 5000, Duration::from_millis(300), || {
        let t = Instant::now();
        for _ in 0..batch {
            call();
        }
        t.elapsed().as_secs_f64() / f64::from(batch)
    })
}

/// Samples an expensive call one call per sample.
fn sample_each(budget: Duration, mut call: impl FnMut()) -> Probe {
    sample(11, 1000, budget, || {
        let t = Instant::now();
        call();
        t.elapsed().as_secs_f64()
    })
}

/// Every probe's result for one workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    /// Pending-range calculation (ring layer), one execution.
    pub ring_exec: Probe,
    /// `CalcEngine::digest` of the calculation input.
    pub digest: Probe,
    /// `CalcEngine::calculate` in replay mode over a recorded database.
    pub replay_call: Probe,
    /// One syn/ack/ack2 exchange between two gossipers knowing N peers.
    pub gossip_exchange: Probe,
    /// `FailureDetector::interpret_all` over N peers.
    pub fd_sweep: Probe,
    /// Gossip plus failure-detector state per known peer, in bytes.
    pub state_bytes_per_peer: f64,
    /// `Network::offer` / `offer_data` at N addresses, per call.
    pub net_offer: Probe,
    /// Engine handler schedule + fire at a depth of 2N timers, per event.
    pub event: Probe,
    /// `TrafficState::tick` against a stub fabric of N nodes.
    pub traffic_tick: Probe,
}

fn calculator(v: CalcVersion) -> Box<dyn PendingRangeCalculator> {
    match v {
        CalcVersion::V1Cubic => Box::new(V1Cubic),
        CalcVersion::V2Quadratic => Box::new(V2Quadratic),
        CalcVersion::V3VnodeAware => Box::new(V3VnodeAware),
        CalcVersion::FreshRing => Box::new(FreshRingQuadratic),
    }
}

/// The ring every node holds before the workload's first topology
/// change, and that change: the runner's token layout for
/// `cfg.n_nodes` nodes, then a decommission of the last node or a join
/// of the first new one.
fn calc_input(cfg: &ScenarioConfig) -> (RingTable, Vec<TopologyChange>) {
    let mut ring = RingTable::new(cfg.rf);
    for i in 0..cfg.n_nodes as u32 {
        ring.add_node(
            NodeId(i),
            NodeStatus::Normal,
            spread_tokens(NodeId(i), cfg.vnodes),
        )
        .expect("spread tokens are distinct");
    }
    let change = match cfg.workload {
        Workload::ScaleOut { .. } => {
            let node = NodeId(cfg.n_nodes as u32);
            TopologyChange::Join {
                node,
                tokens: spread_tokens(node, cfg.vnodes),
            }
        }
        Workload::Decommission { .. } | Workload::BootstrapFromScratch => TopologyChange::Leave {
            node: NodeId(cfg.n_nodes as u32 - 1),
        },
    };
    (ring, vec![change])
}

fn ring_info(i: u32, vnodes: usize) -> RingInfo {
    RingInfo::normal(spread_tokens(NodeId(i), vnodes))
}

/// A gossiper that knows all `n` endpoints.
fn gossiper(me: u32, n: usize, vnodes: usize) -> Gossiper<RingInfo> {
    let mut g = Gossiper::new(Peer(me), 1, ring_info(me, vnodes));
    for i in 0..n as u32 {
        let hb = HeartbeatState {
            generation: 1,
            version: 1,
        };
        g.seed_peer(Peer(i), EndpointState::new(hb, 0, ring_info(i, vnodes)));
    }
    g
}

/// A failure detector that has seen `window` heartbeats from each of
/// `n` peers, one gossip interval apart.
fn detector(cfg: &ScenarioConfig, n: usize, window: u64) -> FailureDetector {
    let mut fd = FailureDetector::new(cfg.phi_threshold, cfg.gossip_interval);
    for k in 1..=window {
        let at = SimTime::from_nanos(k * cfg.gossip_interval.as_nanos());
        for i in 0..n as u32 {
            fd.report(Peer(i), at);
        }
    }
    fd
}

/// A fabric of healthy nodes: replicas are the key's `rf` successors by
/// node id, each node serves requests in FIFO order, and every data
/// message takes a fixed 500 µs. It isolates the traffic layer's own
/// cost from the cluster it normally drives.
struct StubFabric {
    rf: usize,
    cpu_free: Vec<SimTime>,
}

impl ClusterFabric for StubFabric {
    fn node_count(&self) -> usize {
        self.cpu_free.len()
    }
    fn is_live_coordinator(&self, _i: usize) -> bool {
        true
    }
    fn rf(&self) -> usize {
        self.rf
    }
    fn replicas_of(&mut self, _coordinator: usize, key: u64, out: &mut Vec<u32>) {
        let n = self.cpu_free.len() as u64;
        for k in 0..self.rf.min(self.cpu_free.len()) as u64 {
            out.push(((key % n + k) % n) as u32);
        }
    }
    fn replica_alive(&self, _coordinator: usize, _replica: u32) -> bool {
        true
    }
    fn bill_service(&mut self, node: u32, at: SimTime, demand: SimDuration) -> SimTime {
        let slot = &mut self.cpu_free[node as usize];
        *slot = (*slot).max(at) + demand;
        *slot
    }
    fn send_data(
        &mut self,
        at: SimTime,
        _src: u32,
        _dst: u32,
        _rng: &mut DetRng,
    ) -> Option<SimTime> {
        Some(at + SimDuration::from_micros(500))
    }
}

/// State of the engine probe: the handler reschedules itself.
struct Ticker {
    handler: Option<HandlerId>,
}

/// Runs every probe for `cfg`, each inside its own span.
pub fn run(cfg: &ScenarioConfig, spans: &mut Spans) -> Probes {
    let n = cfg.total_nodes();
    let mut p = Probes::default();
    let (ring, changes) = calc_input(cfg);

    p.ring_exec = spans.scope("probe.ring.exec", |_| {
        let calc = calculator(cfg.calculator);
        sample_each(Duration::from_secs(1), || {
            let mut ops = OpCounter::new();
            black_box(calc.calculate(&ring, &changes, &mut ops));
        })
    });

    p.digest = spans.scope("probe.cluster.digest", |_| {
        sample_batched(|| {
            black_box(CalcEngine::digest(black_box(&ring), &changes));
        })
    });

    p.replay_call = spans.scope("probe.memo.replay_call", |_| {
        let mut rec = CalcEngine::new(cfg.calculator, cfg.ns_per_op, CalcIo::Record);
        rec.calculate(0, 0, &ring, &changes);
        let mut engine =
            CalcEngine::with_db(cfg.calculator, cfg.ns_per_op, CalcIo::Replay, rec.into_db());
        sample_batched(|| {
            black_box(engine.calculate(0, 0, black_box(&ring), &changes));
        })
    });

    p.gossip_exchange = spans.scope("probe.gossip.exchange", |_| {
        let mut a = gossiper(0, n, cfg.vnodes);
        let mut b = gossiper(1, n, cfg.vnodes);
        sample_batched(|| {
            a.beat();
            b.beat();
            let ack = b.handle_syn(&a.make_syn());
            let (_, ack2) = a.handle_ack(&ack);
            black_box(b.handle_ack2(&ack2));
        })
    });

    p.fd_sweep = spans.scope("probe.gossip.fd_sweep", |_| {
        let mut fd = detector(cfg, n, 16);
        let now = SimTime::from_nanos(17 * cfg.gossip_interval.as_nanos());
        sample_batched(|| {
            black_box(fd.interpret_all(now));
        })
    });

    p.state_bytes_per_peer = spans.scope("probe.gossip.state", |_| {
        let before = alloc::live_bytes();
        let g = gossiper(0, n, cfg.vnodes);
        let fd = detector(cfg, n, 16);
        let bytes = alloc::live_bytes() - before;
        drop((g, fd));
        bytes as f64 / n as f64
    });

    p.net_offer = spans.scope("probe.net.offer", |_| {
        let mut net = Network::new(cfg.network);
        let mut rng = DetRng::new(cfg.seed);
        let mut k = 0u64;
        let n = n as u64;
        sample_batched(|| {
            k += 1;
            let now = SimTime::from_nanos(k * 1_000);
            let src = Addr((k % n) as u32);
            let dst = Addr(((k * 7 + 1) % n) as u32);
            if k.is_multiple_of(2) {
                black_box(net.offer(now, &mut rng, src, dst).ok());
            } else {
                black_box(net.offer_data(now, &mut rng, src, dst));
            }
        })
    });

    p.event = spans.scope("probe.sim.event", |_| {
        let depth = 2 * n as u64;
        let period = SimDuration::from_secs(1);
        let mut engine: Engine<Ticker> = Engine::new(cfg.seed);
        let mut st = Ticker { handler: None };
        let h = engine.register_handler(move |s: &mut Ticker, ctx, payload| {
            let h = s.handler.expect("handler id is set before the run");
            ctx.schedule_handler_after(period, h, payload);
        });
        st.handler = Some(h);
        for i in 0..depth {
            let at = SimTime::from_nanos(i * period.as_nanos() / depth);
            engine.schedule_handler_at(at, h, i);
        }
        let mut until = SimTime::ZERO;
        sample(200, 5000, Duration::from_millis(300), || {
            until += period;
            let t = Instant::now();
            let stats = engine.run_until(&mut st, until);
            t.elapsed().as_secs_f64() / stats.executed.max(1) as f64
        })
    });

    p.traffic_tick = spans.scope("probe.traffic.tick", |_| {
        let traffic = cfg.effective_traffic();
        let mut state = TrafficState::new(traffic, &DetRng::new(cfg.seed), cfg.network.latency);
        let mut fabric = StubFabric {
            rf: cfg.rf,
            cpu_free: vec![SimTime::ZERO; n],
        };
        let mut now = SimTime::ZERO;
        let tick = traffic.arrival.tick;
        sample(200, 5000, Duration::from_millis(300), || {
            now += tick;
            let t = Instant::now();
            state.tick(now, Phase::Pre, &mut fabric);
            t.elapsed().as_secs_f64()
        })
    });

    p
}

/// Simulated traffic ticks a run of `virtual_ns` fired, if traffic is on.
pub fn traffic_ticks(cfg: &ScenarioConfig, virtual_ns: u64) -> u64 {
    let traffic = cfg.effective_traffic();
    if !traffic.enabled() {
        return 0;
    }
    virtual_ns / traffic.arrival.tick.as_nanos().max(1)
}

/// Failure-detector sweeps a run of `virtual_ns` made: every node, once
/// per detector interval.
pub fn fd_sweeps(cfg: &ScenarioConfig, virtual_ns: u64) -> u64 {
    cfg.total_nodes() as u64 * (virtual_ns / cfg.fd_interval.as_nanos().max(1))
}
