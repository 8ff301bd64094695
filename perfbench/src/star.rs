//! The one-switch star workloads: `cache_read` and `monitor_write`.
//!
//! Both build the same star — one `SwitchNode` on the default
//! single-runtime data plane, [`TENANTS`] `CacheClientHost` tenants
//! (MostConstrained) and one `KvServerHost` — and differ only in the
//! phase the tenants are held in during the measured window:
//!
//! * `cache_read`: every tenant `Serving` from a populated cache, so
//!   requests are short read-mostly capsules and about a fifth of them
//!   leave the fast path for the server;
//! * `monitor_write`: every tenant held in its heavy-hitter monitor
//!   phase, so every request carries the Listing 2 capsule (hash,
//!   `MIN_READ_INC` writes, recirculation) and continues to the server.
//!
//! Clients send on an open loop in virtual time. The untraced run uses
//! `Simulation` itself. The traced run uses [`TracedLoop`], an event loop
//! that reproduces `Simulation::run_until` for a fault-free star call
//! for call, so that the switch, the hosts and the loop can each be
//! timed; its fidelity is checked against the untraced run (same
//! outcome digest, same digest of every frame byte every host received
//! and sent).

use crate::common::{
    allocs, batch_time, best, emit_layers, median, peak_rss_mib, report_setup, Dist, Fnv, Layers,
    Outcome, Probe, Reps, Slices,
};
use crate::mirror::{self, Event};
use crate::Args;
use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::runtime::decode_cache::{decode_into, new_scratch};
use activermt_core::SwitchConfig;
use activermt_isa::constants::{ACTIVE_ETHERTYPE, ETHERNET_HEADER_LEN};
use activermt_isa::wire::{
    program_packet_layout, ActiveHeader, ControlOp, EthernetFrame, PacketType,
};
use activermt_net::apphosts::{CacheClientConfig, CacheClientHost, Phase};
use activermt_net::fault::{FaultInjector, FaultPlan};
use activermt_net::host::{Host, KvServerHost};
use activermt_net::{NetConfig, Simulation, SwitchNode};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which phase the tenants are held in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Populated caches, serving Zipf GETs.
    CacheRead,
    /// Heavy-hitter monitors, every request a Listing 2 capsule.
    MonitorWrite,
}

const SWITCH: [u8; 6] = [2, 0, 0, 0, 0, 0xFF];
const SERVER: [u8; 6] = [2, 0, 0, 0, 0, 0xEE];
/// Tenants on the star.
const TENANTS: u8 = 4;
/// Distinct keys (Zipf, alpha 1.0).
const KEYSPACE: usize = 10_000;
/// Objects each cache tenant populates.
const POPULATE_TOP: usize = 2_000;
/// Open-loop request period of each client, virtual ns.
const REQ_INTERVAL_NS: u64 = 10_000;
/// Virtual time between tenant arrivals.
const STAGGER_NS: u64 = 1_000_000;
/// Set-up advances in steps of this much virtual time until every
/// tenant is in its measured phase.
const SETUP_STEP_NS: u64 = 1_000_000;
/// A set-up that has not finished by this virtual time fails the run.
const SETUP_LIMIT_NS: u64 = 10_000_000_000;
/// The measured window, virtual ns.
const WINDOW_NS: u64 = 1_600_000_000;
/// The window is cut into slices of this much virtual time; each
/// repetition does the same work in each slice, and the window is costed
/// at each slice's fastest repetition (`common::best`).
const SLICE_NS: u64 = 2_000_000;
/// After the window the clients stop sending and in-flight requests
/// drain for this long, so every request is either completed or failed.
const DRAIN_NS: u64 = 5_000_000;
/// Repetitions a run makes at least.
const MIN_REPS: usize = 3;
/// Every n-th active frame of the traced window is kept for the
/// isolated `program_packet_layout`/`decode_into` timings.
const SAMPLE_EVERY: u64 = 16;
const SAMPLE_CAP: usize = 4_096;

fn client_mac(i: u8) -> [u8; 6] {
    [2, 0, 0, 0, 1, i]
}

fn switch_cfg() -> SwitchConfig {
    SwitchConfig {
        // Table programming at 10 µs per entry keeps set-up to a few
        // hundred virtual milliseconds.
        table_entry_update_ns: 10_000,
        ..SwitchConfig::default()
    }
}

fn client_cfg(kind: Kind, seed: u64, i: u8) -> CacheClientConfig {
    CacheClientConfig {
        mac: client_mac(i),
        switch_mac: SWITCH,
        server_mac: SERVER,
        fid: 100 + u16::from(i),
        start_ns: u64::from(i) * STAGGER_NS,
        monitor_ns: match kind {
            Kind::CacheRead => None,
            // Longer than any run: the monitor phase never ends.
            Kind::MonitorWrite => Some(u64::MAX / 4),
        },
        populate_top: POPULATE_TOP,
        req_interval_ns: REQ_INTERVAL_NS,
        keyspace: KEYSPACE,
        zipf_alpha: 1.0,
        seed: seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(i)),
        policy: match kind {
            Kind::CacheRead => MutantPolicy::MostConstrained,
            Kind::MonitorWrite => MutantPolicy::LeastConstrained,
        },
        num_stages: 20,
        ingress_stages: 10,
        max_extra_recircs: 1,
    }
}

fn target_phase(kind: Kind) -> Phase {
    match kind {
        Kind::CacheRead => Phase::Serving,
        Kind::MonitorWrite => Phase::Monitoring,
    }
}

type Client = Probe<CacheClientHost>;
type Server = Probe<KvServerHost>;

/// The hosts of one repetition, in the order they are attached; with
/// `digest`, each folds every frame byte it receives and sends.
fn hosts(kind: Kind, seed: u64, digest: bool) -> Vec<Box<dyn Host>> {
    let mut server = Probe::new(KvServerHost::new(SERVER, KEYSPACE as u64));
    server.digest = digest.then(Fnv::default);
    let mut out: Vec<Box<dyn Host>> = vec![Box::new(server)];
    for i in 1..=TENANTS {
        let mut c = Probe::new(CacheClientHost::new(client_cfg(kind, seed, i)));
        c.digest = digest.then(Fnv::default);
        out.push(Box::new(c));
    }
    out
}

/// Read access to the star, whichever loop runs it.
trait Star {
    fn host_dyn(&self, mac: [u8; 6]) -> &dyn Host;
    fn host_dyn_mut(&mut self, mac: [u8; 6]) -> &mut dyn Host;
    fn node(&self) -> &SwitchNode;
    fn delivered(&self) -> u64;
    fn advance(&mut self, t_ns: u64);

    /// The measured window opens (`true`) or closes.
    fn mark_window(&mut self, _open: bool) {}

    fn client(&self, i: u8) -> &Client {
        self.host_dyn(client_mac(i))
            .as_any()
            .downcast_ref::<Client>()
            .expect("client host")
    }

    fn client_mut(&mut self, i: u8) -> &mut Client {
        self.host_dyn_mut(client_mac(i))
            .as_any_mut()
            .downcast_mut::<Client>()
            .expect("client host")
    }

    fn server(&self) -> &Server {
        self.host_dyn(SERVER)
            .as_any()
            .downcast_ref::<Server>()
            .expect("server host")
    }

    fn completed(&self) -> u64 {
        (1..=TENANTS)
            .map(|i| {
                let c = &self.client(i).inner;
                c.hits + c.misses
            })
            .sum()
    }
}

struct SimStar {
    sim: Simulation,
}

impl Star for SimStar {
    fn host_dyn(&self, mac: [u8; 6]) -> &dyn Host {
        if mac == SERVER {
            self.sim.host::<Server>(mac).expect("server")
        } else {
            self.sim.host::<Client>(mac).expect("client")
        }
    }

    fn host_dyn_mut(&mut self, mac: [u8; 6]) -> &mut dyn Host {
        if mac == SERVER {
            self.sim.host_mut::<Server>(mac).expect("server")
        } else {
            self.sim.host_mut::<Client>(mac).expect("client")
        }
    }

    fn node(&self) -> &SwitchNode {
        self.sim.switch()
    }

    fn delivered(&self) -> u64 {
        self.sim.delivered()
    }

    fn advance(&mut self, t_ns: u64) {
        self.sim.run_until(t_ns);
    }
}

/// What one repetition measured and produced.
struct Rep {
    setup: Duration,
    window: Duration,
    delivered: u64,
    /// Heap allocations made during the window.
    window_allocs: u64,
    slices: Slices,
    sent: u64,
    failed: u64,
    hits: u64,
    digest: u64,
    frame_digest: Option<u64>,
    admit_ratio: f64,
    utilization: f64,
    failures: Vec<String>,
}

/// Per tenant: (requests sent, frames its service FID ran in the data
/// plane).
fn active_per_tenant(kind: Kind, star: &impl Star) -> Vec<(u64, u64)> {
    let ran: HashMap<u16, u64> = star
        .node()
        .runtime()
        .fid_stats()
        .map(|(fid, s)| (fid, s.interpreted))
        .collect();
    (1..=TENANTS)
        .map(|i| {
            let fid = client_cfg(kind, 0, i).fid;
            let fid = match kind {
                Kind::CacheRead => fid,
                // The monitor is its own service instance.
                Kind::MonitorWrite => fid | 0x8000,
            };
            (
                star.client(i).inner.sent,
                ran.get(&fid).copied().unwrap_or(0),
            )
        })
        .collect()
}

/// Set up, measure the window, drain and check: the body shared by the
/// untraced and the traced loop. `t0` is when the workload started.
fn drive(kind: Kind, star: &mut impl Star, t0: Instant) -> Rep {
    let mut failures = Vec::new();
    let target = target_phase(kind);
    let mut vt = 0u64;
    while !(1..=TENANTS).all(|i| star.client(i).inner.phase() == target) {
        if vt >= SETUP_LIMIT_NS {
            failures.push(format!("tenants did not all reach {target:?}"));
            break;
        }
        vt += SETUP_STEP_NS;
        star.advance(vt);
    }
    let setup = t0.elapsed();
    let end = vt + WINDOW_NS;
    for i in 1..=TENANTS {
        star.client_mut(i).stop_at = end;
    }
    let d0 = star.delivered();
    let c0 = star.completed();
    let active0 = active_per_tenant(kind, star);
    let mut slices = Slices::default();
    star.mark_window(true);
    let a0 = allocs();
    let w0 = Instant::now();
    slices.start(d0, c0);
    while vt < end {
        vt += SLICE_NS;
        star.advance(vt);
        slices.mark(star.delivered(), star.completed());
    }
    let window = w0.elapsed();
    let window_allocs = allocs() - a0;
    star.mark_window(false);
    for (i, (a, b)) in active0
        .iter()
        .zip(active_per_tenant(kind, star))
        .enumerate()
    {
        // Every request of the window carries the tenant's capsule (one
        // request may be in flight at each edge of the window).
        if (b.0 - a.0).abs_diff(b.1 - a.1) > 2 {
            failures.push(format!(
                "tenant {}: {} of {} window requests ran its capsule",
                i + 1,
                b.1 - a.1,
                b.0 - a.0
            ));
        }
    }
    let delivered = star.delivered() - d0;
    star.advance(end + DRAIN_NS);

    let mut d = Fnv::default();
    d.u64(star.delivered());
    let (mut sent, mut done, mut hits) = (0, 0, 0);
    for i in 1..=TENANTS {
        let c = &star.client(i).inner;
        if c.phase() != target {
            failures.push(format!("tenant {i} ended in {:?}", c.phase()));
        }
        if c.value_errors != 0 {
            failures.push(format!("tenant {i} saw {} value errors", c.value_errors));
        }
        for v in [c.sent, c.hits, c.misses, c.value_errors] {
            d.u64(v);
        }
        d.bytes(format!("{:?}", c.phase()).as_bytes());
        sent += c.sent;
        done += c.hits + c.misses;
        hits += c.hits;
    }
    let ctl = star.node().controller();
    let alloc = ctl.allocator();
    let (arrivals, admitted, rejected) = alloc.admission_totals();
    for v in [arrivals, admitted, rejected] {
        d.u64(v);
    }
    for (fid, _) in alloc.apps() {
        d.u64(u64::from(fid));
        for p in alloc.placements_of(fid) {
            d.u64(p.stage as u64);
            d.bytes(format!("{:?}", p.range).as_bytes());
        }
    }
    let violations = activermt_modelcheck::check_invariants(ctl, star.node().plane());
    for v in &violations {
        failures.push(format!("invariant violation: {v}"));
    }
    let frame_digest = std::iter::once(star.server().digest)
        .chain((1..=TENANTS).map(|i| star.client(i).digest))
        .collect::<Option<Vec<Fnv>>>()
        .map(|hosts| {
            let mut f = Fnv::default();
            for h in hosts {
                f.u64(h.0);
            }
            f.0
        });
    Rep {
        setup,
        window,
        delivered,
        window_allocs,
        slices,
        sent,
        failed: sent.saturating_sub(done),
        hits,
        digest: d.0,
        frame_digest,
        admit_ratio: admitted as f64 / arrivals.max(1) as f64,
        utilization: alloc.utilization(),
        failures,
    }
}

fn untraced_rep(kind: Kind, seed: u64, digest: bool) -> Rep {
    let t0 = Instant::now();
    let switch = SwitchNode::new(SWITCH, switch_cfg(), Scheme::WorstFit);
    let mut sim = Simulation::new(NetConfig::default(), switch);
    for h in hosts(kind, seed, digest) {
        sim.add_host(h);
    }
    let mut star = SimStar { sim };
    drive(kind, &mut star, t0)
}

/// Run the workload and report.
pub fn run(args: &Args, kind: Kind) -> Outcome {
    let mut out = Outcome::new();
    if args.trace {
        traced(args, kind, &mut out);
        return out;
    }
    let mut reps = Vec::new();
    let mut budget = Reps::new(args.budget, MIN_REPS);
    while budget.more() {
        let rep = untraced_rep(kind, args.seed, false);
        out.note(format!(
            "rep {}: setup {:.3} s, window {:.3} s, {} frames, {} window allocs",
            reps.len(),
            rep.setup.as_secs_f64(),
            rep.window.as_secs_f64(),
            rep.delivered,
            rep.window_allocs
        ));
        reps.push(rep);
    }
    summarize(&mut out, &reps);
    let window = best(
        &mut out,
        &reps.iter().map(|r| &r.slices).collect::<Vec<_>>(),
    );
    window.report_rates(&mut out);
    out.metric("op_us", window.us_per_op(), "us");
    out.metric("admit_ratio", reps[0].admit_ratio, "ratio");
    out.metric("mem_utilization", reps[0].utilization, "ratio");
    report_setup(&mut out, reps.iter().map(|r| r.setup));
    out.metric("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB");
    out.check(peak_rss_mib().is_some(), "VmHWM readable");
    out
}

/// Checks and counts shared by both modes: every repetition passed its
/// outcome checks and produced the same deterministic outcome.
fn summarize(out: &mut Outcome, reps: &[Rep]) {
    for r in reps {
        out.attempted += r.sent;
        out.failed += r.failed;
        for f in &r.failures {
            out.check(false, f.clone());
        }
        out.check(
            r.digest == reps[0].digest,
            "every repetition yields the same outcome digest",
        );
    }
    let r = &reps[0];
    out.note(format!(
        "outcome digest {:016x}: sent {}, failed {}, hits {}, hit_rate {:.4}, admit_ratio {}, utilization {:.4}",
        r.digest,
        r.sent,
        r.failed,
        r.hits,
        r.hits as f64 / (r.sent - r.failed).max(1) as f64,
        r.admit_ratio,
        r.utilization
    ));
}

// ---------------------------------------------------------------------
// Traced run.

#[derive(Debug)]
enum EvKind {
    ToSwitch(Vec<u8>),
    ToHost([u8; 6], Vec<u8>),
    Poll,
    Tick([u8; 6]),
}

#[derive(Debug)]
struct Ev {
    at: u64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Spans of one phase (set-up or window), ns.
#[derive(Debug, Default)]
struct Spans {
    active: Dist,
    plain: Dist,
    alloc: Dist,
    control: Dist,
    poll: Dist,
    client_frame: Dist,
    client_tick: Dist,
    server_frame: Dist,
}

impl Spans {
    fn all(&self) -> [&Dist; 8] {
        [
            &self.active,
            &self.plain,
            &self.alloc,
            &self.control,
            &self.poll,
            &self.client_frame,
            &self.client_tick,
            &self.server_frame,
        ]
    }

    fn all_mut(&mut self) -> [&mut Dist; 8] {
        [
            &mut self.active,
            &mut self.plain,
            &mut self.alloc,
            &mut self.control,
            &mut self.poll,
            &mut self.client_frame,
            &mut self.client_tick,
            &mut self.server_frame,
        ]
    }

    fn children_ns(&self) -> f64 {
        self.all().iter().map(|d| d.sum()).sum()
    }

    fn client_ns(&self) -> f64 {
        self.client_frame.sum() + self.client_tick.sum()
    }

    fn merge(&mut self, from: &Spans) {
        for (into, from) in self.all_mut().into_iter().zip(from.all()) {
            into.merge(from);
        }
    }
}

/// What kind of frame reaches the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameClass {
    Active,
    Plain,
    Alloc,
    Control,
}

fn classify(frame: &[u8]) -> FrameClass {
    let Ok(eth) = EthernetFrame::new_checked(frame) else {
        return FrameClass::Plain;
    };
    if eth.ethertype() != ACTIVE_ETHERTYPE {
        return FrameClass::Plain;
    }
    match ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]).map(|h| h.flags().packet_type())
    {
        Ok(PacketType::Program) => FrameClass::Active,
        Ok(PacketType::AllocRequest) => FrameClass::Alloc,
        _ => FrameClass::Control,
    }
}

/// `Simulation::run_until` for a fault-free star, with every call into
/// the switch and the hosts timed.
struct TracedLoop {
    cfg: NetConfig,
    now: u64,
    seq: u64,
    queue: BinaryHeap<Ev>,
    switch: SwitchNode,
    hosts: HashMap<[u8; 6], Box<dyn Host>>,
    delivered: u64,
    injector: FaultInjector,
    fan: Vec<Vec<u8>>,
    in_window: bool,
    setup: Spans,
    window: Spans,
    active_seen: u64,
    samples: Vec<Vec<u8>>,
    /// Control-plane inputs, for the mirror replay.
    events: Vec<Event>,
}

impl TracedLoop {
    fn new(cfg: NetConfig, switch: SwitchNode) -> TracedLoop {
        let mut d = TracedLoop {
            cfg,
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            switch,
            hosts: HashMap::new(),
            delivered: 0,
            injector: FaultInjector::new(FaultPlan::none()),
            fan: Vec::new(),
            in_window: false,
            setup: Spans::default(),
            window: Spans::default(),
            active_seen: 0,
            samples: Vec::new(),
            events: Vec::new(),
        };
        d.schedule(cfg.controller_poll_ns, EvKind::Poll);
        d
    }

    /// Note an allocation request (the first per FID: the shim
    /// retransmits until answered) or a deallocation for the mirror.
    fn record_control(&mut self, frame: &[u8]) {
        let Ok(hdr) = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]) else {
            return;
        };
        let fid = hdr.fid();
        let resident = |events: &[Event]| {
            events.iter().rev().find_map(|e| match e {
                Event::Arrival(f, _) if *f == fid => Some(true),
                Event::Departure(f) if *f == fid => Some(false),
                _ => None,
            }) == Some(true)
        };
        match hdr.flags().packet_type() {
            PacketType::AllocRequest if !resident(&self.events) => {
                self.events.push(Event::Arrival(fid, frame.to_vec()));
            }
            PacketType::Control
                if hdr.control_op() == Ok(ControlOp::Deallocate) && resident(&self.events) =>
            {
                self.events.push(Event::Departure(fid));
            }
            _ => {}
        }
    }

    fn schedule(&mut self, at: u64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Ev { at, seq, kind });
    }

    fn add_host(&mut self, host: Box<dyn Host>) {
        let mac = host.mac();
        if let Some(period) = host.tick_interval() {
            self.schedule(self.now + period, EvKind::Tick(mac));
        }
        self.hosts.insert(mac, host);
    }

    fn spans(&mut self) -> &mut Spans {
        if self.in_window {
            &mut self.window
        } else {
            &mut self.setup
        }
    }

    fn deliver_to_hosts(&mut self, emissions: Vec<activermt_net::switch::SwitchEmission>) {
        for e in emissions {
            let depart = e.at_ns.max(self.now);
            self.injector
                .apply_into(depart, e.dst, e.frame, &mut self.fan);
            let fan = std::mem::take(&mut self.fan);
            for f in fan {
                let arrive = depart + self.cfg.link_time_ns(f.len());
                self.schedule(arrive, EvKind::ToHost(e.dst, f));
            }
        }
    }

    fn send_from_host(&mut self, mac: [u8; 6], frames: Vec<Vec<u8>>) {
        let now = self.now;
        for r in frames {
            self.injector.apply_into(now, mac, r, &mut self.fan);
            let fan = std::mem::take(&mut self.fan);
            for f in fan {
                let arrive = now + self.cfg.host_overhead_ns + self.cfg.link_time_ns(f.len());
                self.schedule(arrive, EvKind::ToSwitch(f));
            }
        }
    }

    fn run_until(&mut self, t_ns: u64) {
        while let Some(ev) = self.queue.peek() {
            if ev.at > t_ns {
                break;
            }
            let Ev { at, kind, .. } = self.queue.pop().expect("peeked");
            self.now = self.now.max(at);
            match kind {
                EvKind::ToSwitch(frame) => {
                    let class = classify(&frame);
                    if matches!(class, FrameClass::Alloc | FrameClass::Control) {
                        self.record_control(&frame);
                    }
                    if class == FrameClass::Active && self.in_window {
                        self.active_seen += 1;
                        if self.active_seen.is_multiple_of(SAMPLE_EVERY)
                            && self.samples.len() < SAMPLE_CAP
                        {
                            self.samples.push(frame.clone());
                        }
                    }
                    let t1 = Instant::now();
                    let emissions = self.switch.handle_frame(self.now, frame);
                    let dt = t1.elapsed();
                    let s = self.spans();
                    match class {
                        FrameClass::Active => s.active.push_ns(dt),
                        FrameClass::Plain => s.plain.push_ns(dt),
                        FrameClass::Alloc => s.alloc.push_ns(dt),
                        FrameClass::Control => s.control.push_ns(dt),
                    }
                    self.deliver_to_hosts(emissions);
                    // The single-runtime plane emits inline; its flush
                    // is empty, as in `Simulation::run_until`.
                    let flushed = self.switch.flush_data_plane(self.now);
                    debug_assert!(flushed.is_empty());
                }
                EvKind::ToHost(mac, frame) => {
                    let Some(host) = self.hosts.get_mut(&mac) else {
                        self.injector.recycle(frame);
                        continue;
                    };
                    self.delivered += 1;
                    let t1 = Instant::now();
                    let replies = host.on_frame(self.now, frame);
                    let dt = t1.elapsed();
                    let s = if self.in_window {
                        &mut self.window
                    } else {
                        &mut self.setup
                    };
                    if mac == SERVER {
                        s.server_frame.push_ns(dt);
                    } else {
                        s.client_frame.push_ns(dt);
                    }
                    self.send_from_host(mac, replies);
                }
                EvKind::Poll => {
                    let t1 = Instant::now();
                    let emissions = self.switch.poll(self.now);
                    let dt = t1.elapsed();
                    self.spans().poll.push_ns(dt);
                    self.deliver_to_hosts(emissions);
                    let next = self.now + self.cfg.controller_poll_ns;
                    self.schedule(next, EvKind::Poll);
                }
                EvKind::Tick(mac) => {
                    let Some(host) = self.hosts.get_mut(&mac) else {
                        continue;
                    };
                    let t1 = Instant::now();
                    let frames = host.on_tick(self.now);
                    let dt = t1.elapsed();
                    let period = host.tick_interval();
                    self.spans().client_tick.push_ns(dt);
                    self.send_from_host(mac, frames);
                    if let Some(p) = period {
                        let next = self.now + p;
                        self.schedule(next, EvKind::Tick(mac));
                    }
                }
            }
        }
        self.now = self.now.max(t_ns);
    }
}

impl Star for TracedLoop {
    fn host_dyn(&self, mac: [u8; 6]) -> &dyn Host {
        self.hosts.get(&mac).expect("host").as_ref()
    }

    fn host_dyn_mut(&mut self, mac: [u8; 6]) -> &mut dyn Host {
        self.hosts.get_mut(&mac).expect("host").as_mut()
    }

    fn node(&self) -> &SwitchNode {
        &self.switch
    }

    fn delivered(&self) -> u64 {
        self.delivered
    }

    fn advance(&mut self, t_ns: u64) {
        self.run_until(t_ns);
    }

    fn mark_window(&mut self, open: bool) {
        self.in_window = open;
    }
}

/// One traced repetition: the workload run through [`TracedLoop`].
fn traced_rep(kind: Kind, seed: u64, digest: bool) -> (Rep, TracedLoop) {
    let t0 = Instant::now();
    let switch = SwitchNode::new(SWITCH, switch_cfg(), Scheme::WorstFit);
    let mut d = TracedLoop::new(NetConfig::default(), switch);
    for h in hosts(kind, seed, digest) {
        d.add_host(h);
    }
    let rep = drive(kind, &mut d, t0);
    (rep, d)
}

fn traced(args: &Args, kind: Kind, out: &mut Outcome) {
    // Fidelity: the untraced loop and the traced loop, each with every
    // host frame byte folded into a digest, must agree. The hashing
    // would inflate the host spans, so the measured repetitions below
    // run without it.
    let reference = untraced_rep(kind, args.seed, true);
    let (replay, _) = traced_rep(kind, args.seed, true);
    out.check(
        replay.frame_digest.is_some() && replay.frame_digest == reference.frame_digest,
        "traced replay reproduces every host frame byte for byte",
    );
    out.check(
        replay.digest == reference.digest,
        "traced outcome digest equals the untraced run's",
    );
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut setup = Spans::default();
    let mut window = Spans::default();
    let mut sim_self = Vec::new();
    let mut allocs_per_frame = Vec::new();
    let mut host_setup_s = Vec::new();
    let mut layer_sum = Vec::new();
    let mut samples = Vec::new();
    let mut mirror_out = None;
    let (mut admit, mut verify) = (Dist::default(), Dist::default());
    let mut stats = None;
    let mut budget = Reps::new(args.budget, 2);
    while budget.more() {
        plain_walls.push(untraced_rep(kind, args.seed, false).window.as_secs_f64());
        let (rep, mut d) = traced_rep(kind, args.seed, false);
        let wall = rep.window.as_secs_f64() * 1e9;
        let children = d.window.children_ns();
        sim_self.push((wall - children) / rep.delivered.max(1) as f64);
        layer_sum.push((children + (wall - children).max(0.0)) / wall);
        out.check(
            children <= wall,
            "traced child spans fit inside the window wall time",
        );
        allocs_per_frame.push(rep.window_allocs as f64 / rep.delivered.max(1) as f64);
        host_setup_s.push(d.setup.client_ns() / 1e9);
        traced_walls.push(rep.window.as_secs_f64());
        setup.merge(&d.setup);
        window.merge(&d.window);
        samples = std::mem::take(&mut d.samples);
        // Isolated control-plane timings on the set-up's admissions.
        let m = mirror::replay(&switch_cfg(), Scheme::WorstFit, &d.events);
        let ctl = d.switch.controller();
        out.check(
            m.unparsable == 0 && m.decisions.iter().all(|&(_, ok)| ok),
            "mirror replay admits every tenant",
        );
        out.check(
            m.grants == mirror::grant_map(ctl.allocator()),
            "mirror allocator ends with the switch's grant map",
        );
        let shims: Vec<(u64, u64, u64)> = (1..=TENANTS)
            .map(|i| d.client(i).inner.cache().shim().optimizer_cache_stats())
            .collect();
        let client_hits: u64 = shims.iter().map(|s| s.0).sum();
        let client_syntheses: u64 = shims.iter().map(|s| s.2).sum();
        admit.merge(&m.admit_ns);
        verify.merge(&m.verify_ns);
        mirror_out = Some((
            m,
            ctl.optimizer_cache_stats(),
            client_hits as f64 / client_syntheses.max(1) as f64,
        ));
        let rt = d.switch.runtime();
        let s = rt.stats();
        let recircs: u64 = rt.fid_stats().map(|(_, f)| f.recirculations).sum();
        let dc = rt.decode_stats();
        stats = Some((
            recircs as f64 / s.active_frames.max(1) as f64,
            dc.hits as f64 / (dc.hits + dc.misses).max(1) as f64,
            (s.violation_drops + s.privilege_drops + s.recirc_budget_drops + s.malformed_drops)
                as f64
                / s.frames.max(1) as f64,
        ));
        out.check(
            rep.digest == reference.digest,
            "traced outcome digest equals the untraced run's",
        );
        reps.push(rep);
    }
    summarize(out, &reps);
    out.note(format!(
        "fidelity: outcome digest {:016x}, frame digest {:016x}",
        reference.digest,
        reference.frame_digest.unwrap_or(0)
    ));

    // Isolated stage timings on the recorded active frames.
    let layouts: Vec<usize> = samples
        .iter()
        .filter_map(|f| program_packet_layout(f).ok().map(|l| l.instr_off))
        .collect();
    out.check(
        layouts.len() == samples.len() && !samples.is_empty(),
        "recorded active frames parse",
    );
    let layout_ns = batch_time(&samples, 256, 2_000, |f| {
        black_box(program_packet_layout(black_box(f)).ok());
    });
    let programs: Vec<&[u8]> = samples
        .iter()
        .zip(&layouts)
        .map(|(f, &off)| &f[off..])
        .collect();
    let mut scratch = new_scratch();
    let decode_ns = batch_time(&programs, 256, 2_000, |p| {
        black_box(decode_into(black_box(p), &mut scratch).ok());
    });

    let (recirc, dc_hit, drops) = stats.unwrap_or_default();
    let (m, (ch, cm), client_cache_hit_ratio) = mirror_out.expect("at least one traced rep");
    let hit_rate = {
        let r = &reps[0];
        r.hits as f64 / (r.sent - r.failed).max(1) as f64
    };
    emit_layers(
        out,
        &Layers {
            active_frame: window.active,
            plain_frame: window.plain,
            layout: layout_ns,
            decode: decode_ns,
            recirc_per_frame: recirc,
            decode_cache_hit_ratio: dc_hit,
            drops_per_frame: drops,
            client_frame: window.client_frame,
            client_tick: window.client_tick,
            client_setup_s: median(&host_setup_s),
            kv_frame: window.server_frame,
            sim_self_ns_per_frame: median(&sim_self),
            allocs_per_frame: median(&allocs_per_frame),
            hit_rate,
            alloc_request: setup.alloc,
            control_frame: setup.control,
            poll: setup.poll,
            admit,
            verify,
            victims_per_admit: m.victims as f64 / m.admitted.max(1) as f64,
            feasible_per_mutant: m.feasible as f64 / m.mutants_considered.max(1) as f64,
            controller_cache_hit_ratio: ch as f64 / (ch + cm).max(1) as f64,
            client_cache_hit_ratio,
            overhead_frac: median(&traced_walls) / median(&plain_walls) - 1.0,
            layer_sum_frac: median(&layer_sum),
            ..Layers::default()
        },
    );
}
