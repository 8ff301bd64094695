//! `fabric_migrate`: a 3-member ring `FabricSim` under a `Federation`.
//!
//! [`TENANTS`] cache tenants (MostConstrained, populated, Zipf GETs on
//! an open loop) attach round-robin to the members and the KV server to
//! the last one; the federation places each service. Once every tenant
//! is `Serving` the window opens, and during it the federation
//! live-migrates the tenants round-robin every [`MIGRATE_EVERY_NS`] of
//! virtual time (quiesce, snapshot, re-admission, memsync replay and
//! verification, drain, cutover). This is the only workload that runs
//! `net::fabric`, `crates/fabric` and memsync replay.
//!
//! The untraced run calls `Federation::run_until`. The traced run runs
//! that method's own loop — `FabricSim::run_until` plus
//! `Federation::pump`, both public — so that each is timed, with every
//! host wrapped in a timing probe.

use crate::common::{
    best, emit_layers, median, peak_rss_mib, report_setup, Dist, Fnv, Layers, Outcome, Probe, Reps,
    Slices,
};
use crate::Args;
use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::SwitchConfig;
use activermt_fabric::{Federation, FederationConfig, MigrationAudit};
use activermt_modelcheck::fabric::{check_fabric_invariants, FabricMemberView};
use activermt_net::apphosts::{CacheClientConfig, CacheClientHost, Phase};
use activermt_net::fabric::{FabricSim, FabricTopology, FABRIC_MAC};
use activermt_net::fault::FaultPlan;
use activermt_net::host::KvServerHost;
use activermt_net::NetConfig;
use std::time::{Duration, Instant};

const SERVER: [u8; 6] = [2, 0, 0, 0, 0, 0xEE];
const MEMBERS: usize = 3;
const TENANTS: u8 = 3;
const KEYSPACE: usize = 10_000;
const POPULATE_TOP: usize = 2_000;
const REQ_INTERVAL_NS: u64 = 10_000;
const SETUP_STEP_NS: u64 = 1_000_000;
const SETUP_LIMIT_NS: u64 = 10_000_000_000;
/// The measured window, virtual ns.
const WINDOW_NS: u64 = 1_500_000_000;
/// Virtual time between migration starts.
const MIGRATE_EVERY_NS: u64 = 100_000_000;
/// The window is cut into slices of this much virtual time; each
/// repetition does the same work in each slice, and the window is costed
/// at each slice's fastest repetition (`common::best`).
const SLICE_NS: u64 = 2_000_000;
/// After the window clients stop sending and in-flight requests get
/// this long to complete.
const DRAIN_NS: u64 = 5_000_000;
const MIN_REPS: usize = 3;

fn client_mac(i: u8) -> [u8; 6] {
    [2, 0, 0, 0, 1, i]
}

fn fid_of(i: u8) -> u16 {
    100 + u16::from(i)
}

fn client_cfg(seed: u64, i: u8) -> CacheClientConfig {
    CacheClientConfig {
        mac: client_mac(i),
        switch_mac: FABRIC_MAC,
        server_mac: SERVER,
        fid: fid_of(i),
        start_ns: 0,
        monitor_ns: None,
        populate_top: POPULATE_TOP,
        req_interval_ns: REQ_INTERVAL_NS,
        keyspace: KEYSPACE,
        zipf_alpha: 1.0,
        seed: seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(i)),
        policy: MutantPolicy::MostConstrained,
        num_stages: 20,
        ingress_stages: 10,
        max_extra_recircs: 1,
    }
}

type Client = Probe<CacheClientHost>;
type Server = Probe<KvServerHost>;

/// Wall spans of the traced loop, ns.
#[derive(Debug, Default)]
struct Spans {
    run_until: Dist,
    pump: Dist,
    migrate: Dist,
}

/// The federation plus, when tracing, the spans of its loop.
struct Fed {
    fed: Federation,
    spans: Option<Spans>,
}

impl Fed {
    fn new(seed: u64, trace: bool) -> Fed {
        let switch_cfg = SwitchConfig {
            table_entry_update_ns: 10_000,
            ..SwitchConfig::default()
        };
        let mut fabric = FabricSim::with_faults(
            NetConfig::default(),
            FabricTopology::Ring(MEMBERS),
            switch_cfg,
            Scheme::WorstFit,
            1,
            FaultPlan::none(),
        );
        for i in 1..=TENANTS {
            let mut c = Probe::new(CacheClientHost::new(client_cfg(seed, i)));
            c.timing = trace.then(Default::default);
            fabric.add_host(Box::new(c), usize::from(i - 1) % MEMBERS);
        }
        let mut s = Probe::new(KvServerHost::new(SERVER, KEYSPACE as u64));
        s.timing = trace.then(Default::default);
        fabric.add_host(Box::new(s), MEMBERS - 1);
        Fed {
            fed: Federation::new(fabric, FederationConfig::default()),
            spans: trace.then(Spans::default),
        }
    }

    fn client(&self, i: u8) -> &Client {
        self.fed
            .fabric()
            .host::<Client>(client_mac(i))
            .expect("client host")
    }

    fn completed(&self) -> u64 {
        (1..=TENANTS)
            .map(|i| {
                let c = &self.client(i).inner;
                c.hits + c.misses
            })
            .sum()
    }

    /// `Federation::run_until`, or its own loop with each call timed.
    fn advance(&mut self, t_ns: u64) {
        let Some(spans) = self.spans.as_mut() else {
            self.fed.run_until(t_ns);
            return;
        };
        let fed = &mut self.fed;
        let pump_interval = FederationConfig::default().pump_interval_ns;
        while fed.fabric().now() < t_ns {
            let next = (fed.fabric().now() + pump_interval).min(t_ns);
            let t0 = Instant::now();
            fed.fabric_mut().run_until(next);
            spans.run_until.push_ns(t0.elapsed());
            let t0 = Instant::now();
            fed.pump();
            spans.pump.push_ns(t0.elapsed());
        }
        let t0 = Instant::now();
        fed.pump();
        spans.pump.push_ns(t0.elapsed());
    }

    fn migrate(&mut self, fid: u16) -> bool {
        let t0 = Instant::now();
        let ok = self.fed.migrate(fid).is_ok();
        if let Some(s) = self.spans.as_mut() {
            s.migrate.push_ns(t0.elapsed());
        }
        ok
    }

    /// Restart the host probes' clocks.
    fn reset_host_timing(&mut self) {
        let fabric = self.fed.fabric_mut();
        for i in 1..=TENANTS {
            let c = fabric
                .host_mut::<Client>(client_mac(i))
                .expect("client host");
            if c.timing.is_some() {
                c.timing = Some(Default::default());
            }
        }
        let s = fabric.host_mut::<Server>(SERVER).expect("server host");
        if s.timing.is_some() {
            s.timing = Some(Default::default());
        }
    }

    /// Host callback times since the last reset, ns: client `on_frame`,
    /// client `on_tick`, server `on_frame`.
    fn host_ns(&self) -> (Dist, Dist, Dist) {
        let mut frame = Dist::default();
        let mut tick = Dist::default();
        for i in 1..=TENANTS {
            if let Some(t) = &self.client(i).timing {
                frame.merge(&t.on_frame);
                tick.merge(&t.on_tick);
            }
        }
        let server = self
            .fed
            .fabric()
            .host::<Server>(SERVER)
            .and_then(|s| s.timing.as_ref())
            .map(|t| t.on_frame.clone())
            .unwrap_or_default();
        (frame, tick, server)
    }
}

/// One repetition's measurements.
struct Rep {
    setup: Duration,
    window: Duration,
    delivered: u64,
    slices: Slices,
    sent: u64,
    failed: u64,
    hits: u64,
    started: u64,
    completed_migrations: u64,
    replayed_cells: u64,
    admit_ratio: f64,
    utilization: f64,
    digest: u64,
    failures: Vec<String>,
    /// The traced loop's spans of the window.
    spans: Option<Spans>,
    /// Host callback times of the window (traced run).
    hosts: (Dist, Dist, Dist),
}

fn rep(seed: u64, trace: bool) -> Rep {
    let t0 = Instant::now();
    let mut f = Fed::new(seed, trace);
    let mut failures = Vec::new();
    let mut vt = 0u64;
    let ready = |f: &Fed| {
        f.fed.placements().len() == usize::from(TENANTS)
            && (1..=TENANTS).all(|i| f.client(i).inner.phase() == Phase::Serving)
    };
    while !ready(&f) {
        if vt >= SETUP_LIMIT_NS {
            failures.push("tenants did not all reach Serving".into());
            break;
        }
        vt += SETUP_STEP_NS;
        f.advance(vt);
    }
    let setup = t0.elapsed();
    let end = vt + WINDOW_NS;
    for i in 1..=TENANTS {
        f.fed
            .fabric_mut()
            .host_mut::<Client>(client_mac(i))
            .expect("client host")
            .stop_at = end;
    }
    if let Some(s) = f.spans.as_mut() {
        *s = Spans::default();
    }
    f.reset_host_timing();
    let d0 = f.fed.fabric().delivered();
    let c0 = f.completed();
    let mut slices = Slices::default();
    let mut started = 0u64;
    // The last migration starts a full cadence before the window
    // closes, so every migration completes while clients still run.
    let mut next_migration = vt + MIGRATE_EVERY_NS / 2;
    let w0 = Instant::now();
    slices.start(d0, c0);
    while vt < end {
        if vt >= next_migration && next_migration + MIGRATE_EVERY_NS <= end {
            let fid = fid_of((started % u64::from(TENANTS)) as u8 + 1);
            if f.migrate(fid) {
                started += 1;
            } else {
                failures.push(format!("migration of fid {fid} did not start"));
            }
            next_migration += MIGRATE_EVERY_NS;
        }
        vt += SLICE_NS;
        f.advance(vt);
        slices.mark(f.fed.fabric().delivered(), f.completed());
    }
    let window = w0.elapsed();
    let hosts = f.host_ns();
    if !f.fed.migrations_idle() {
        failures.push("a migration was still running when the window closed".into());
    }
    let delivered = f.fed.fabric().delivered() - d0;
    let spans = f.spans.take();
    f.advance(end + DRAIN_NS);

    let stats = f.fed.stats();
    if stats.migrations_completed != started || stats.migrations_aborted != 0 {
        failures.push(format!(
            "{started} migrations started, {} completed, {} aborted",
            stats.migrations_completed, stats.migrations_aborted
        ));
    }
    if !f.fed.audits().iter().all(MigrationAudit::is_clean) {
        failures.push("a memsync replay audit is not clean".into());
    }
    let fab = f.fed.fabric();
    let views: Vec<FabricMemberView<'_>> = (0..fab.members())
        .map(|i| FabricMemberView {
            id: i as u16,
            controller: fab.switch(i).controller(),
            plane: fab.switch(i).plane(),
        })
        .collect();
    for v in check_fabric_invariants(&views, f.fed.audits()) {
        failures.push(format!("fabric invariant violation: {v}"));
    }

    let mut d = Fnv::default();
    d.u64(fab.delivered());
    let (mut sent, mut done, mut hits) = (0, 0, 0);
    for i in 1..=TENANTS {
        let c = &f.client(i).inner;
        if c.phase() != Phase::Serving || c.value_errors != 0 {
            failures.push(format!(
                "tenant {i} ended in {:?} with {} value errors",
                c.phase(),
                c.value_errors
            ));
        }
        for v in [c.sent, c.hits, c.misses, c.value_errors] {
            d.u64(v);
        }
        sent += c.sent;
        done += c.hits + c.misses;
        hits += c.hits;
    }
    let (mut arrivals, mut admitted, mut util) = (0, 0, 0.0);
    for i in 0..fab.members() {
        let alloc = fab.switch(i).controller().allocator();
        let (a, ad, r) = alloc.admission_totals();
        arrivals += a;
        admitted += ad;
        util += alloc.utilization();
        for v in [a, ad, r] {
            d.u64(v);
        }
        for (fid, g) in crate::mirror::grant_map(alloc) {
            d.u64(u64::from(fid));
            d.bytes(g.as_bytes());
        }
    }
    for (fid, sw) in f.fed.placements() {
        d.u64(u64::from(*fid));
        d.u64(*sw as u64);
    }
    let replayed_cells = f.fed.audits().iter().map(|a| a.expected.len() as u64).sum();
    Rep {
        setup,
        window,
        delivered,
        slices,
        sent,
        failed: sent.saturating_sub(done),
        hits,
        started,
        completed_migrations: stats.migrations_completed,
        replayed_cells,
        admit_ratio: admitted as f64 / arrivals.max(1) as f64,
        utilization: util / fab.members() as f64,
        digest: d.0,
        failures,
        spans,
        hosts,
    }
}

fn summarize(out: &mut Outcome, reps: &[Rep]) {
    for r in reps {
        // Requests, plus migrations: an aborted one is a failure.
        out.attempted += r.sent + r.started;
        out.failed += r.failed + r.started.saturating_sub(r.completed_migrations);
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
        "outcome digest {:016x}: sent {}, failed {}, hits {}, hit_rate {:.4}, migrations {}/{}, admit_ratio {:.4}",
        r.digest,
        r.sent,
        r.failed,
        r.hits,
        hit_rate(r),
        r.completed_migrations,
        r.started,
        r.admit_ratio
    ));
}

fn hit_rate(r: &Rep) -> f64 {
    r.hits as f64 / (r.sent - r.failed).max(1) as f64
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
        let r = rep(args.seed, false);
        out.note(format!(
            "rep {}: setup {:.3} s, window {:.3} s, {} frames",
            reps.len(),
            r.setup.as_secs_f64(),
            r.window.as_secs_f64(),
            r.delivered
        ));
        reps.push(r);
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

fn traced(args: &Args, out: &mut Outcome) {
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut self_per_frame = Vec::new();
    let mut layer_sum = Vec::new();
    let mut spans = Spans::default();
    let (mut client_frame, mut client_tick, mut server) =
        (Dist::default(), Dist::default(), Dist::default());
    let mut reps = Vec::new();
    let mut budget = Reps::new(args.budget, 2);
    while budget.more() {
        let plain = rep(args.seed, false);
        plain_walls.push(plain.window.as_secs_f64());
        let r = rep(args.seed, true);
        out.check(
            r.digest == plain.digest,
            "traced outcome digest equals the untraced run's",
        );
        let s = r.spans.as_ref().expect("traced spans");
        let wall = r.window.as_secs_f64() * 1e9;
        let run_ns = s.run_until.sum();
        let (f, t, sv) = &r.hosts;
        let fabric_self = run_ns - (f.sum() + t.sum() + sv.sum());
        out.check(
            fabric_self >= 0.0,
            "host spans fit inside the FabricSim::run_until spans",
        );
        self_per_frame.push(fabric_self / r.delivered.max(1) as f64);
        layer_sum.push((run_ns + s.pump.sum() + s.migrate.sum()) / wall);
        traced_walls.push(r.window.as_secs_f64());
        spans.pump.merge(&s.pump);
        spans.migrate.merge(&s.migrate);
        client_frame.merge(f);
        client_tick.merge(t);
        server.merge(sv);
        reps.push(r);
    }
    summarize(out, &reps);
    let r = &reps[0];
    emit_layers(
        out,
        &Layers {
            client_frame,
            client_tick,
            kv_frame: server,
            hit_rate: hit_rate(r),
            fabric_self_ns_per_frame: median(&self_per_frame),
            pump: spans.pump,
            migrate: spans.migrate,
            migrations_completed: r.completed_migrations as f64,
            replay_cells_per_migration: r.replayed_cells as f64
                / r.completed_migrations.max(1) as f64,
            overhead_frac: median(&traced_walls) / median(&plain_walls) - 1.0,
            layer_sum_frac: median(&layer_sum),
            ..Layers::default()
        },
    );
}
