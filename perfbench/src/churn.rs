//! `tenant_churn`: the paper's churn process, driven straight through
//! `SwitchNode::handle_frame`/`poll` one arrival at a time (closed
//! loop).
//!
//! Each epoch has about Poisson(2) arrivals and Poisson(1) departures
//! (see [`block_counts`]); tenants depart in arrival order. An arrival
//! is a cache, heavy-hitter or load-balancer tenant (equally likely)
//! under the policies of [`POLICY_MIX`], drawn as (app, policy) pairs
//! in seed-shuffled blocks so that every seed gets the same mix in a
//! different order. These choices keep the resident population, and so
//! the cost of an admission, the same from seed to seed; with uniform
//! draws and random departures the rates wandered by up to half.
//!
//! Requests come from the canonical apps' own client shims, so bytecode
//! ships and the verifier, the placement DP and both mutant caches run.
//! Victims acknowledge snapshots at once; departures send the shim's
//! deallocate frame. Configuration writes an app would send after its
//! grant (memsync program packets) are not sent: this workload measures
//! admission, and the data plane does no work in it.
//!
//! The first [`WARM_EPOCHS`] epochs fill the switch and count as
//! set-up; the next [`WINDOW_EPOCHS`] are measured.

use crate::common::{
    best, emit_layers, least_per_index, median, peak_rss_mib, report_setup, Dist, Fnv, Layers,
    Outcome, Reps, Slices,
};
use crate::mirror::{self, Event};
use crate::Args;
use activermt_apps::cache::CacheEvent;
use activermt_apps::{CacheApp, CheetahLb, HeavyHitterApp};
use activermt_client::shim::{Shim, ShimState};
use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::types::Fid;
use activermt_core::SwitchConfig;
use activermt_isa::constants::{ACTIVE_ETHERTYPE, ETHERNET_HEADER_LEN};
use activermt_isa::wire::{build_control, ActiveHeader, ControlOp, EthernetFrame, PacketType};
use activermt_net::SwitchNode;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

const SWITCH: [u8; 6] = [2, 0, 0, 0, 0, 0xFF];
/// Virtual time between epochs.
const EPOCH_NS: u64 = 10_000_000;
/// Controller poll cadence while an arrival settles.
const POLL_NS: u64 = 100_000;
/// An arrival still undecided after this many polls is unanswered.
const POLL_LIMIT: u32 = 1_000;
/// Each app kind arrives under these policies in turn: two in three
/// arrivals are MostConstrained. With an even split the median
/// admission latency would sit in the gap between the fast
/// MostConstrained and the slow LeastConstrained arrivals and jump
/// between them from seed to seed.
const POLICY_MIX: [MutantPolicy; 3] = [
    MutantPolicy::MostConstrained,
    MutantPolicy::MostConstrained,
    MutantPolicy::LeastConstrained,
];
/// Arrivals and departures are drawn per block of epochs. A block's
/// arrivals are exactly two shuffled rounds of the nine (app, policy)
/// pairs, so every block asks for the same work.
const BLOCK_EPOCHS: u32 = 9;
const BLOCK_ARRIVALS: u32 = 18;
const BLOCK_DEPARTURES: u32 = 9;
/// Set-up epochs (the switch fills), a whole number of blocks.
const WARM_EPOCHS: u32 = 7 * BLOCK_EPOCHS;
/// Measured epochs, a whole number of blocks.
const WINDOW_EPOCHS: u32 = 81 * BLOCK_EPOCHS;
const MIN_REPS: usize = 3;
const NUM_STAGES: usize = 20;
const INGRESS_STAGES: usize = 10;

fn switch_cfg() -> SwitchConfig {
    SwitchConfig {
        table_entry_update_ns: 10_000,
        ..SwitchConfig::default()
    }
}

#[derive(Debug, Clone, Copy)]
enum AppKind {
    Cache,
    Hh,
    Lb,
}

enum App {
    Cache(CacheApp),
    Hh(HeavyHitterApp),
    Lb(CheetahLb),
}

fn mac_of(fid: Fid) -> [u8; 6] {
    [2, 0, 1, (fid >> 8) as u8, fid as u8, 1]
}

fn is_program(frame: &[u8]) -> bool {
    EthernetFrame::new_checked(frame).is_ok_and(|e| e.ethertype() == ACTIVE_ETHERTYPE)
        && ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..])
            .is_ok_and(|h| h.flags().packet_type() == PacketType::Program)
}

impl App {
    fn new(kind: AppKind, fid: Fid, mac: [u8; 6], policy: MutantPolicy) -> App {
        let server = [2, 0, 0, 0, 0, 0xEE];
        match kind {
            AppKind::Cache => App::Cache(CacheApp::new(
                fid,
                mac,
                SWITCH,
                server,
                policy,
                NUM_STAGES,
                INGRESS_STAGES,
                1,
            )),
            AppKind::Hh => App::Hh(HeavyHitterApp::new(
                fid,
                mac,
                SWITCH,
                server,
                policy,
                NUM_STAGES,
                INGRESS_STAGES,
                1,
            )),
            AppKind::Lb => App::Lb(CheetahLb::new(
                fid,
                mac,
                SWITCH,
                u32::from(fid),
                vec![1, 2, 3, 4],
                policy,
                NUM_STAGES,
                INGRESS_STAGES,
                1,
            )),
        }
    }

    fn shim(&self) -> &Shim {
        match self {
            App::Cache(a) => a.shim(),
            App::Hh(a) => a.shim(),
            App::Lb(a) => a.shim(),
        }
    }

    fn request(&mut self, now: u64) -> Vec<u8> {
        match self {
            App::Cache(a) => a.request_allocation(now),
            App::Hh(a) => a.request_allocation(now),
            App::Lb(a) => a.request_allocation(now),
        }
    }

    /// The deallocation frame. The balancer's client has no teardown
    /// call of its own, so its frame is built as its shim would.
    fn deallocate(&mut self) -> Vec<u8> {
        match self {
            App::Cache(a) => a.deallocate(),
            App::Hh(a) => a.deallocate(),
            App::Lb(a) => {
                let fid = a.shim().fid();
                build_control(SWITCH, mac_of(fid), fid, 0, ControlOp::Deallocate, false)
            }
        }
    }

    /// Handle a frame from the switch; returns the control frames to
    /// send back (snapshot acks, reactivation acks). Memsync program
    /// packets the app would send are dropped (see the module doc).
    fn handle(&mut self, frame: &[u8], now: u64) -> Vec<Vec<u8>> {
        let mut out = match self {
            App::Cache(a) => {
                let r = a.handle_frame(frame);
                let mut out = r.frames;
                if r.event == Some(CacheEvent::SnapshotNeeded) {
                    out.push(a.snapshot_complete(now));
                }
                out
            }
            App::Hh(a) => {
                a.handle_frame(frame);
                a.poll(now).1
            }
            App::Lb(a) => a.handle_frame(frame).1,
        };
        out.retain(|f| !is_program(f));
        out
    }
}

/// Wall time of each call into the stack, ns (traced run, window only).
#[derive(Debug, Default)]
struct Spans {
    build: Dist,
    request: Dist,
    alloc_request: Dist,
    control: Dist,
    poll: Dist,
    synthesize: Dist,
    notice: Dist,
}

impl Spans {
    fn total_ns(&self) -> f64 {
        [
            &self.build,
            &self.request,
            &self.alloc_request,
            &self.control,
            &self.poll,
            &self.synthesize,
            &self.notice,
        ]
        .iter()
        .map(|d| d.sum())
        .sum()
    }
}

/// Times `f` into `dist` when tracing.
fn timed<T>(dist: Option<&mut Dist>, f: impl FnOnce() -> T) -> T {
    match dist {
        None => f(),
        Some(d) => {
            let t0 = Instant::now();
            let v = f();
            d.push_ns(t0.elapsed());
            v
        }
    }
}

struct Churn {
    switch: SwitchNode,
    vt: u64,
    rng: SmallRng,
    /// The (app, policy) pairs still to draw in the current block.
    deck: Vec<(AppKind, MutantPolicy)>,
    apps: BTreeMap<Fid, App>,
    by_mac: HashMap<[u8; 6], Fid>,
    resident: Vec<Fid>,
    next_fid: Fid,
    events: Vec<Event>,
    /// Admitted or refused, per arrival.
    decisions: Vec<(Fid, bool)>,
    trace: bool,
    in_window: bool,
    ledger: Ledger,
    /// Whole-run ledger.
    total_arrivals: u64,
    total_admitted: u64,
    total_refused: u64,
    /// Client synthesis-cache `(hits, syntheses)` of departed tenants.
    client_cache: (u64, u64),
}

/// What a repetition's window measured, and its outcome digest.
#[derive(Debug, Default)]
struct Ledger {
    arrivals: u64,
    admitted: u64,
    refused: u64,
    unanswered: u64,
    /// Frames the tenants sent: allocation requests and deallocations.
    /// (The acknowledgements victims send, and the notices they get,
    /// grow with the number of resident caches, which varies from seed
    /// to seed far more than the work does.)
    frames: u64,
    /// Wall time per arrival, µs.
    admit_us: Dist,
    spans: Spans,
    digest: Fnv,
}

impl Churn {
    fn new(seed: u64, trace: bool) -> Churn {
        Churn {
            switch: SwitchNode::new(SWITCH, switch_cfg(), Scheme::WorstFit),
            vt: 0,
            rng: SmallRng::seed_from_u64(seed),
            deck: Vec::new(),
            apps: BTreeMap::new(),
            by_mac: HashMap::new(),
            resident: Vec::new(),
            next_fid: 1_000,
            events: Vec::new(),
            decisions: Vec::new(),
            trace,
            in_window: false,
            ledger: Ledger::default(),
            total_arrivals: 0,
            total_admitted: 0,
            total_refused: 0,
            client_cache: (0, 0),
        }
    }

    fn tracing(&self) -> bool {
        self.trace && self.in_window
    }

    /// Hand a switch emission to the app it is addressed to; its
    /// answers join the queue toward the switch.
    fn deliver(&mut self, dst: [u8; 6], frame: Vec<u8>, q: &mut VecDeque<Vec<u8>>) {
        let Some(&fid) = self.by_mac.get(&dst) else {
            return;
        };
        let response = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..])
            .is_ok_and(|h| h.flags().packet_type() == PacketType::AllocResponse);
        let vt = self.vt;
        let span = self.tracing().then_some(if response {
            &mut self.ledger.spans.synthesize
        } else {
            &mut self.ledger.spans.notice
        });
        let app = self.apps.get_mut(&fid).expect("mapped app");
        let out = timed(span, || app.handle(&frame, vt));
        q.extend(out);
    }

    /// Run the switch until every frame is answered and the controller
    /// is idle.
    fn settle(&mut self, first: Vec<u8>) {
        let mut q = VecDeque::from([first]);
        let mut polls = 0;
        loop {
            while let Some(f) = q.pop_front() {
                let alloc = ActiveHeader::new_checked(&f[ETHERNET_HEADER_LEN..])
                    .is_ok_and(|h| h.flags().packet_type() == PacketType::AllocRequest);
                let vt = self.vt;
                let span = self.tracing().then_some(if alloc {
                    &mut self.ledger.spans.alloc_request
                } else {
                    &mut self.ledger.spans.control
                });
                let switch = &mut self.switch;
                let emissions = timed(span, || switch.handle_frame(vt, f));
                for e in emissions {
                    self.vt = self.vt.max(e.at_ns);
                    self.deliver(e.dst, e.frame, &mut q);
                }
            }
            let ctl = self.switch.controller();
            if (!ctl.busy() && ctl.queue_len() == 0) || polls == POLL_LIMIT {
                return;
            }
            polls += 1;
            self.vt += POLL_NS;
            let vt = self.vt;
            let span = self.tracing().then_some(&mut self.ledger.spans.poll);
            let switch = &mut self.switch;
            let emissions = timed(span, || switch.poll(vt));
            for e in emissions {
                self.vt = self.vt.max(e.at_ns);
                self.deliver(e.dst, e.frame, &mut q);
            }
        }
    }

    fn retire(&mut self, fid: Fid) {
        if let Some(app) = self.apps.remove(&fid) {
            let (hits, _, syntheses) = app.shim().optimizer_cache_stats();
            self.client_cache.0 += hits;
            self.client_cache.1 += syntheses;
        }
        self.by_mac.retain(|_, f| *f != fid);
    }

    fn depart(&mut self) {
        if self.resident.is_empty() {
            return;
        }
        // Tenants leave in arrival order.
        let fid = self.resident.remove(0);
        let frame = self.apps.get_mut(&fid).expect("resident").deallocate();
        self.events.push(Event::Departure(fid));
        if self.in_window {
            self.ledger.frames += 1;
        }
        self.settle(frame);
        self.retire(fid);
        self.ledger.digest.u64(u64::from(fid));
    }

    fn arrive(&mut self) {
        if self.deck.is_empty() {
            for kind in [AppKind::Cache, AppKind::Hh, AppKind::Lb] {
                for policy in POLICY_MIX {
                    self.deck.push((kind, policy));
                }
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        let (kind, policy) = self.deck.pop().expect("refilled");
        let fid = self.next_fid;
        self.next_fid += 1;
        let mac = mac_of(fid);
        let span = self.tracing().then_some(&mut self.ledger.spans.build);
        let mut app = timed(span, || App::new(kind, fid, mac, policy));
        let t0 = Instant::now();
        let vt = self.vt;
        let span = self.tracing().then_some(&mut self.ledger.spans.request);
        let frame = timed(span, || app.request(vt));
        self.events.push(Event::Arrival(fid, frame.clone()));
        self.apps.insert(fid, app);
        self.by_mac.insert(mac, fid);
        self.settle(frame);
        let elapsed = t0.elapsed();
        let state = self.apps[&fid].shim().state();
        self.decisions.push((fid, state == ShimState::Operational));
        self.total_arrivals += 1;
        match state {
            ShimState::Operational => {
                self.total_admitted += 1;
                self.resident.push(fid);
            }
            ShimState::Idle => self.total_refused += 1,
            _ => {}
        }
        if self.in_window {
            self.ledger.frames += 1;
            self.ledger.arrivals += 1;
            self.ledger.admit_us.push(elapsed.as_secs_f64() * 1e6);
            match state {
                ShimState::Operational => self.ledger.admitted += 1,
                ShimState::Idle => self.ledger.refused += 1,
                _ => self.ledger.unanswered += 1,
            }
        }
        if state != ShimState::Operational {
            self.retire(fid);
        }
        self.ledger.digest.u64(u64::from(fid));
        self.ledger
            .digest
            .bytes(format!("{kind:?}{policy:?}{state:?}").as_bytes());
    }
}

/// Per-epoch `(arrivals, departures)` of one block: the block's
/// [`BLOCK_ARRIVALS`] arrivals and [`BLOCK_DEPARTURES`] departures each
/// fall in a uniformly drawn epoch of the block, so an epoch's counts
/// are Binomial — close to Poisson(2) and Poisson(1) — while every
/// seed sees the same totals.
fn block_counts(rng: &mut SmallRng) -> Vec<(u32, u32)> {
    let mut counts = vec![(0, 0); BLOCK_EPOCHS as usize];
    for _ in 0..BLOCK_ARRIVALS {
        counts[rng.gen_range(0..BLOCK_EPOCHS as usize)].0 += 1;
    }
    for _ in 0..BLOCK_DEPARTURES {
        counts[rng.gen_range(0..BLOCK_EPOCHS as usize)].1 += 1;
    }
    counts
}

/// One repetition's measurements.
struct Rep {
    setup: Duration,
    window: Duration,
    /// Wall time, frames and decisions per epoch of the window.
    slices: Slices,
    ledger: Ledger,
    utilization: f64,
    failures: Vec<String>,
}

/// One repetition, checked; the churn state comes back too, for the
/// traced run's mirror replay.
fn rep(seed: u64, trace: bool) -> (Rep, Churn) {
    let t0 = Instant::now();
    let mut c = Churn::new(seed, trace);
    let mut setup = Duration::ZERO;
    let mut w0 = t0;
    let mut util = Vec::new();
    let mut counts = Vec::new();
    // One slice per epoch of the window.
    let mut slices = Slices::default();
    let decided = |c: &Churn| c.ledger.admitted + c.ledger.refused;
    for epoch in 0..WARM_EPOCHS + WINDOW_EPOCHS {
        if epoch == WARM_EPOCHS {
            setup = t0.elapsed();
            c.in_window = true;
            w0 = Instant::now();
            slices.start(0, 0);
        }
        if epoch > WARM_EPOCHS {
            slices.mark(c.ledger.frames, decided(&c));
        }
        if epoch % BLOCK_EPOCHS == 0 {
            counts = block_counts(&mut c.rng);
        }
        let (arrivals, departures) = counts[(epoch % BLOCK_EPOCHS) as usize];
        c.vt += EPOCH_NS;
        for _ in 0..departures {
            c.depart();
        }
        for _ in 0..arrivals {
            c.arrive();
        }
        if c.in_window {
            util.push(c.switch.controller().allocator().utilization());
        }
    }
    slices.mark(c.ledger.frames, decided(&c));
    let window = w0.elapsed();

    let mut failures = Vec::new();
    let ctl = c.switch.controller();
    let alloc = ctl.allocator();
    let (arrivals, admitted, rejected) = alloc.admission_totals();
    // A grant the verifier refuses counts as admitted by the allocator
    // and is answered as a refusal by the controller.
    let (_, verify_rejected) = ctl.verify_counts();
    if c.total_arrivals != c.total_admitted + c.total_refused
        || arrivals != c.total_arrivals
        || admitted != c.total_admitted + verify_rejected
        || rejected + verify_rejected != c.total_refused
    {
        failures.push(format!(
            "churn ledger does not reconcile: tenants {}/{}/{} vs allocator {arrivals}/{admitted}/{rejected} with {verify_rejected} verifier refusals (arrivals/admitted/refused)",
            c.total_arrivals, c.total_admitted, c.total_refused
        ));
    }
    if ctl.busy() || ctl.queue_len() != 0 {
        failures.push("controller left busy".into());
    }
    let mut resident = c.resident.clone();
    resident.sort_unstable();
    let granted: Vec<Fid> = alloc.apps().map(|(f, _)| f).collect();
    if resident != granted {
        failures.push("resident tenants differ from the allocator's grants".into());
    }
    for v in activermt_modelcheck::check_invariants(ctl, c.switch.plane()) {
        failures.push(format!("invariant violation: {v}"));
    }
    let mut ledger = std::mem::take(&mut c.ledger);
    for (fid, g) in mirror::grant_map(alloc) {
        ledger.digest.u64(u64::from(fid));
        ledger.digest.bytes(g.as_bytes());
    }
    for v in [arrivals, admitted, rejected] {
        ledger.digest.u64(v);
    }
    let rep = Rep {
        setup,
        window,
        slices,
        ledger,
        utilization: util.iter().sum::<f64>() / util.len().max(1) as f64,
        failures,
    };
    (rep, c)
}

fn summarize(out: &mut Outcome, reps: &[Rep]) {
    for r in reps {
        out.attempted += r.ledger.arrivals;
        out.failed += r.ledger.unanswered;
        for f in &r.failures {
            out.check(false, f.clone());
        }
        out.check(
            r.ledger.digest == reps[0].ledger.digest,
            "every repetition yields the same outcome digest",
        );
    }
    let l = &reps[0].ledger;
    out.note(format!(
        "outcome digest {:016x}: window arrivals {} = admitted {} + refused {} + unanswered {}; {} tenant frames; utilization {:.4}",
        l.digest.0, l.arrivals, l.admitted, l.refused, l.unanswered, l.frames, reps[0].utilization
    ));
}

/// Run the workload and report.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    if args.trace {
        traced(args, &mut out);
        return out;
    }
    let mut reps = Vec::new();
    let mut budget = Reps::new(args.budget, MIN_REPS);
    while budget.more() {
        let (r, _) = rep(args.seed, false);
        out.note(format!(
            "rep {}: setup {:.3} s, window {:.3} s",
            reps.len(),
            r.setup.as_secs_f64(),
            r.window.as_secs_f64()
        ));
        reps.push(r);
    }
    summarize(&mut out, &reps);
    let window = best(
        &mut out,
        &reps.iter().map(|r| &r.slices).collect::<Vec<_>>(),
    );
    window.report_rates(&mut out);
    // Every repetition makes the same arrivals in the same order: each
    // arrival is costed at its fastest repetition, as the slices are.
    let admit_us: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| r.ledger.admit_us.samples().to_vec())
        .collect();
    let mut lat = Dist::default();
    for v in least_per_index(&admit_us) {
        lat.push(v);
    }
    out.latency("op", &lat);
    let l = &reps[0].ledger;
    out.metric(
        "admit_ratio",
        l.admitted as f64 / l.arrivals.max(1) as f64,
        "ratio",
    );
    out.metric("mem_utilization", reps[0].utilization, "ratio");
    report_setup(&mut out, reps.iter().map(|r| r.setup));
    out.metric("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB");
    out.check(peak_rss_mib().is_some(), "VmHWM readable");
    out
}

fn traced(args: &Args, out: &mut Outcome) {
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layer_sum = Vec::new();
    let mut reps = Vec::new();
    let mut budget = Reps::new(args.budget, 2);
    // Isolated stage timings: the recorded arrivals and departures
    // replayed on a mirror allocator, every admitted program verified.
    let mut admit = Dist::default();
    let mut verify = Dist::default();
    let mut spans = Spans::default();
    let (mut victims, mut admitted, mut feasible, mut considered) = (0, 0, 0, 0);
    let (mut ctl_cache, mut client_cache) = ((0, 0), (0, 0));
    while budget.more() {
        let (plain, _) = rep(args.seed, false);
        plain_walls.push(plain.window.as_secs_f64());
        let (r, c) = rep(args.seed, true);
        out.check(
            r.ledger.digest == plain.ledger.digest,
            "traced outcome digest equals the untraced run's",
        );
        traced_walls.push(r.window.as_secs_f64());
        layer_sum.push(r.ledger.spans.total_ns() / (r.window.as_secs_f64() * 1e9));

        let m = mirror::replay(&switch_cfg(), Scheme::WorstFit, &c.events);
        let ctl = c.switch.controller();
        out.check(m.unparsable == 0, "mirror replay parses every request");
        out.check(
            m.verify_rejections == ctl.verify_counts().1,
            "mirror verifier refuses the grants the controller refused",
        );
        out.check(
            m.decisions == c.decisions,
            "mirror allocator decides every arrival as the switch did",
        );
        out.check(
            m.grants == mirror::grant_map(ctl.allocator()),
            "mirror allocator ends with the switch's grant map",
        );
        admit.merge(&m.admit_ns);
        verify.merge(&m.verify_ns);
        victims += m.victims;
        admitted += m.admitted;
        feasible += m.feasible;
        considered += m.mutants_considered;
        let l = &r.ledger;
        for (into, from) in [
            (&mut spans.request, &l.spans.request),
            (&mut spans.alloc_request, &l.spans.alloc_request),
            (&mut spans.synthesize, &l.spans.synthesize),
            (&mut spans.control, &l.spans.control),
            (&mut spans.poll, &l.spans.poll),
        ] {
            into.merge(from);
        }
        ctl_cache = ctl.optimizer_cache_stats();
        client_cache = c.client_cache;
        for app in c.apps.values() {
            let (h, _, s) = app.shim().optimizer_cache_stats();
            client_cache.0 += h;
            client_cache.1 += s;
        }
        reps.push(r);
    }
    summarize(out, &reps);
    let ((ch, cm), client) = (ctl_cache, client_cache);
    emit_layers(
        out,
        &Layers {
            client_request: spans.request,
            alloc_request: spans.alloc_request,
            admit,
            verify,
            synthesize: spans.synthesize,
            control_frame: spans.control,
            poll: spans.poll,
            victims_per_admit: victims as f64 / admitted.max(1) as f64,
            feasible_per_mutant: feasible as f64 / considered.max(1) as f64,
            controller_cache_hit_ratio: ch as f64 / (ch + cm).max(1) as f64,
            client_cache_hit_ratio: client.0 as f64 / client.1.max(1) as f64,
            overhead_frac: median(&traced_walls) / median(&plain_walls) - 1.0,
            layer_sum_frac: median(&layer_sum),
            ..Layers::default()
        },
    );
}
