//! End-to-end tests of the pooled data plane inside the discrete-event
//! simulator: a [`SwitchNode`] running the shard-by-FID worker pool
//! must reproduce the single-threaded node's host-visible behavior
//! exactly, and must keep every control-plane invariant under
//! the chaos battery (loss bursts, corruption, controller crashes),
//! audited both through the pool's aggregate [`DataPlane`] view and on
//! every shard runtime individually.

use activermt::core::alloc::{MutantPolicy, Scheme};
use activermt::core::SwitchConfig;
use activermt::modelcheck::check_invariants;
use activermt::net::apphosts::{CacheClientConfig, CacheClientHost, Phase};
use activermt::net::host::KvServerHost;
use activermt::net::{CrashPlan, FaultPlan, NetConfig, Simulation, SwitchNode};
use activermt_client::shim::ShimState;

const SWITCH: [u8; 6] = [2, 0, 0, 0, 0, 0xFF];
const SERVER: [u8; 6] = [2, 0, 0, 0, 0, 0xEE];

fn client_mac(i: u8) -> [u8; 6] {
    [2, 0, 0, 0, 1, i]
}

fn client_cfg(i: u8, start_ns: u64) -> CacheClientConfig {
    CacheClientConfig {
        mac: client_mac(i),
        switch_mac: SWITCH,
        server_mac: SERVER,
        fid: 100 + u16::from(i),
        start_ns,
        monitor_ns: None,
        populate_top: 2_000,
        req_interval_ns: 20_000,
        keyspace: 10_000,
        zipf_alpha: 1.0,
        seed: 42 + u64::from(i),
        policy: MutantPolicy::MostConstrained,
        num_stages: 20,
        ingress_stages: 10,
        max_extra_recircs: 1,
    }
}

/// Run the staggered-arrival cache scenario on a node with `workers`
/// workers and summarize everything a host can observe.
fn scenario_trace(workers: usize) -> String {
    let cfg = SwitchConfig {
        table_entry_update_ns: 10_000,
        ..SwitchConfig::default()
    };
    let mut sim = Simulation::new(
        NetConfig::default(),
        SwitchNode::with_workers(SWITCH, cfg, Scheme::WorstFit, workers),
    );
    sim.add_host(Box::new(KvServerHost::new(SERVER, 20_000)));
    sim.add_host(Box::new(CacheClientHost::new(client_cfg(1, 0))));
    sim.run_until(1_000_000_000);
    for i in 2..=4u8 {
        sim.add_host(Box::new(CacheClientHost::new(client_cfg(
            i,
            1_000_000_000 + u64::from(i) * 200_000_000,
        ))));
    }
    sim.run_until(3_000_000_000);
    let mut trace = format!("delivered:{}", sim.delivered());
    for i in 1..=4u8 {
        let c = sim.host::<CacheClientHost>(client_mac(i)).unwrap();
        trace.push_str(&format!(
            " c{i}:{}/{}/{}/{:?}",
            c.sent,
            c.hits,
            c.misses,
            c.phase()
        ));
    }
    let stats = sim.switch().runtime_stats();
    trace.push_str(&format!(
        " frames:{} active:{} drops:{}",
        stats.frames, stats.active_frames, stats.violation_drops
    ));
    trace
}

/// The worker pool is an implementation detail: hosts must see exactly
/// the frames (and therefore hits, misses and phases) they would see
/// against the single-threaded node.
#[test]
fn pooled_sim_matches_single_threaded_outcomes() {
    let single = scenario_trace(1);
    let pooled = scenario_trace(4);
    assert_eq!(
        single, pooled,
        "pooled node diverged from single-threaded node"
    );
}

/// The chaos battery against the pooled node: loss bursts over the
/// admission handshakes, continuous corruption/truncation, and seeded
/// controller kill/restart cycles. The system must converge, the
/// control-plane invariants must hold on the aggregate plane *and* on
/// every shard replica, and the per-worker telemetry must account for
/// every frame.
#[test]
fn pooled_cache_scenario_converges_under_chaos() {
    const WORKERS: usize = 4;
    let plan = FaultPlan::none()
        .with_seed(29)
        .with_burst(1_395_000_000, 1_410_000_000, 300)
        .with_burst(1_598_000_000, 1_605_000_000, 1000)
        .with_corruption(1)
        .with_truncation(1);
    let cfg = SwitchConfig {
        table_entry_update_ns: 10_000,
        ..SwitchConfig::default()
    };
    let mut node = SwitchNode::with_workers(SWITCH, cfg, Scheme::WorstFit, WORKERS);
    node.set_crash_plan(CrashPlan::every_opportunity(7, 2, 60_000_000).with_per_mille(500));
    let mut sim = Simulation::with_faults(NetConfig::default(), node, plan);
    sim.add_host(Box::new(KvServerHost::new(SERVER, 20_000)));
    sim.add_host(Box::new(CacheClientHost::new(client_cfg(1, 0))));
    sim.run_until(1_000_000_000);
    for i in 2..=4u8 {
        sim.add_host(Box::new(CacheClientHost::new(client_cfg(
            i,
            1_000_000_000 + u64::from(i) * 200_000_000,
        ))));
    }
    sim.run_until(5_000_000_000);

    let node = sim.switch();
    assert_eq!(node.workers(), WORKERS);

    // Invariants on the aggregate plane (the protection mirror) ...
    let violations = check_invariants(node.controller(), node.plane());
    assert!(
        violations.is_empty(),
        "aggregate invariants broken after chaos:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>()
    );
    // ... and on every shard runtime individually: each replica's
    // protection tables must independently agree with the controller.
    node.for_each_runtime(|k, rt| {
        let violations = check_invariants(node.controller(), rt);
        assert!(
            violations.is_empty(),
            "shard {k} invariants broken after chaos:\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}\n"))
                .collect::<String>()
        );
    });

    // Convergence: no client wedged mid-protocol.
    let mut serving = 0u32;
    for i in 1..=4u8 {
        let c = sim.host::<CacheClientHost>(client_mac(i)).unwrap();
        let state = c.cache().shim().state();
        assert!(
            matches!(state, ShimState::Operational | ShimState::Degraded),
            "client {i} shim wedged in {state:?}"
        );
        assert!(
            matches!(c.phase(), Phase::Serving | Phase::Degraded),
            "client {i} stuck in {:?}",
            c.phase()
        );
        if c.phase() == Phase::Serving {
            serving += 1;
        }
    }
    assert!(serving >= 3, "only {serving}/4 clients converged");
    let ctl = sim.switch().controller();
    assert!(!ctl.busy(), "a reallocation leaked past the fault windows");
    assert_eq!(ctl.queue_len(), 0, "admissions stuck queued");

    // Per-worker accounting: the shard counters must sum to the global
    // frame total the shared cells report, and the sharded dispatch
    // must actually have spread active traffic.
    let ws = sim.switch().worker_stats();
    assert_eq!(ws.len(), WORKERS);
    let per_worker: u64 = ws.iter().map(|s| s.frames).sum();
    assert_eq!(
        per_worker,
        sim.switch().runtime_stats().frames,
        "per-worker frame counters must sum to the global total"
    );
    assert!(
        ws.iter().filter(|s| s.frames > 0).count() >= 2,
        "active traffic never spread across shards"
    );
    let snap = sim.telemetry_snapshot();
    for (k, s) in ws.iter().enumerate() {
        assert_eq!(
            snap.counter(&format!("worker.{k}.frames")),
            Some(s.frames),
            "worker {k} telemetry must match its counter"
        );
    }
}
