//! Chaos test: the full cache scenario (staggered arrivals forcing
//! reallocations) under a hostile network — burst loss windows over the
//! admission traffic, continuous low-rate corruption and truncation,
//! and a stalled controller in the middle of a reallocation. The system
//! must converge (every shim ends Operational or cleanly Degraded),
//! memory protection must hold throughout, and the recovery machinery
//! must demonstrably have fired (retransmits, malformed-frame drops).

use activermt::core::alloc::{MutantPolicy, Scheme};
use activermt::core::SwitchConfig;
use activermt::modelcheck::check_invariants;
use activermt::net::apphosts::{CacheClientConfig, CacheClientHost, Phase};
use activermt::net::host::KvServerHost;
use activermt::net::{CrashPlan, FaultPlan, NetConfig, Simulation, SwitchNode};
use activermt_client::shim::ShimState;

/// Audit the switch's full control-plane state with the shared
/// invariant engine (the same checks the bounded model checker runs
/// over every reachable state — see crates/modelcheck).
fn assert_invariants(sim: &Simulation, at: &str) {
    let node = sim.switch();
    let violations = check_invariants(node.controller(), node.plane());
    assert!(
        violations.is_empty(),
        "control-plane invariants broken {at}:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>()
    );
}

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

/// Two runs of the same seeded plan must agree event-for-event. This
/// pins the virtual clock against wall-clock leaks: the controller once
/// charged the allocation search's *measured* time into virtual
/// timestamps, which shifted fault-window alignment from run to run.
#[test]
fn chaos_runs_are_reproducible() {
    let run = || {
        let plan = FaultPlan::none()
            .with_seed(29)
            .with_burst(1_395_000_000, 1_410_000_000, 300)
            .with_corruption(1)
            .with_truncation(1)
            .with_controller_stall(1_400_200_000, 1_400_700_000);
        let cfg = SwitchConfig {
            table_entry_update_ns: 10_000,
            ..SwitchConfig::default()
        };
        let mut sim = Simulation::with_faults(
            NetConfig::default(),
            SwitchNode::new(SWITCH, cfg, Scheme::WorstFit),
            plan,
        );
        sim.add_host(Box::new(KvServerHost::new(SERVER, 20_000)));
        sim.add_host(Box::new(CacheClientHost::new(client_cfg(1, 0))));
        sim.run_until(1_000_000_000);
        sim.add_host(Box::new(CacheClientHost::new(client_cfg(2, 1_400_000_000))));
        sim.run_until(2_000_000_000);
        let mut trace = format!("{:?}", sim.fault_stats());
        for i in 1..=2u8 {
            let c = sim.host::<CacheClientHost>(client_mac(i)).unwrap();
            trace.push_str(&format!(
                " c{i}:{}/{}/{}/{:?}",
                c.sent,
                c.hits,
                c.misses,
                c.phase()
            ));
        }
        trace
    };
    assert_eq!(run(), run(), "same plan, same seed, different trace");
}

/// One kill-and-restart battery: the cache scenario (staggered arrivals
/// forcing reallocations) with a seeded crash schedule that kills the
/// controller at protocol crash points — after a grant commits but
/// before the response leaves, mid-quiesce, and after a snapshot lands
/// but before reactivation — and restarts it from the op-log each time.
/// The system must converge anyway, and every cycle must leave an epoch
/// fingerprint.
fn kill_and_restart(seed: u64) {
    let cfg = SwitchConfig {
        table_entry_update_ns: 10_000,
        ..SwitchConfig::default()
    };
    let mut node = SwitchNode::new(SWITCH, cfg, Scheme::WorstFit);
    // Sample 70% of eligible crash opportunities, at most 4 crashes,
    // spaced ≥60 ms so each recovered controller gets to make progress
    // before dying again. Client retransmission keeps generating fresh
    // opportunities, so every seed reaches at least three cycles.
    node.set_crash_plan(CrashPlan::every_opportunity(seed, 4, 60_000_000).with_per_mille(700));
    let mut sim = Simulation::new(NetConfig::default(), node);
    sim.add_host(Box::new(KvServerHost::new(SERVER, 20_000)));
    sim.add_host(Box::new(CacheClientHost::new(client_cfg(1, 0))));
    sim.run_until(1_000_000_000);
    for i in 2..=4u8 {
        sim.add_host(Box::new(CacheClientHost::new(client_cfg(
            i,
            1_000_000_000 + u64::from(i) * 200_000_000,
        ))));
    }
    // Run long past the last possible crash so recovery can drain.
    sim.run_until(6_000_000_000);

    let crashes = sim.switch().crashes();
    assert!(
        crashes >= 3,
        "seed {seed}: only {crashes} kill/restart cycles fired"
    );
    let ctl = sim.switch().controller();
    assert_eq!(
        u64::from(ctl.epoch()),
        crashes,
        "seed {seed}: every crash must recover into a fresh epoch"
    );
    assert_invariants(
        &sim,
        &format!("after {crashes} kill/restart cycles, seed {seed}"),
    );

    // Convergence: nobody wedged mid-protocol, most clients serving.
    let mut serving = 0u32;
    for i in 1..=4u8 {
        let c = sim.host::<CacheClientHost>(client_mac(i)).unwrap();
        let state = c.cache().shim().state();
        assert!(
            matches!(state, ShimState::Operational | ShimState::Degraded),
            "seed {seed}: client {i} shim wedged in {state:?}"
        );
        assert!(
            matches!(c.phase(), Phase::Serving | Phase::Degraded),
            "seed {seed}: client {i} stuck in {:?}",
            c.phase()
        );
        if c.phase() == Phase::Serving {
            serving += 1;
        }
    }
    assert!(
        serving >= 3,
        "seed {seed}: only {serving}/4 clients survived the restarts"
    );

    // The recovered control plane fully drained its protocol state.
    assert!(!ctl.busy(), "seed {seed}: a reallocation leaked");
    assert_eq!(ctl.queue_len(), 0, "seed {seed}: admissions stuck queued");
    assert_eq!(
        ctl.unacked_reactivations(),
        0,
        "seed {seed}: a victim never acked its reactivation"
    );

    // Every layer reports the same crash count, and the recovery
    // telemetry left fingerprints.
    assert_eq!(sim.fault_stats().injected_crashes, crashes);
    let snap = sim.telemetry_snapshot();
    assert_eq!(snap.counter("faults.injected_crashes"), Some(crashes));
    assert_eq!(
        snap.counter("controller.recoveries"),
        Some(crashes),
        "the lineage recovery count must match the injected crashes"
    );
}

/// The CI matrix sets `CHAOS_SEED` to split the battery across jobs; a
/// plain `cargo test` run sweeps all eight seeds.
#[test]
fn kill_and_restart_recovers_across_seeds() {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => kill_and_restart(s.parse().expect("CHAOS_SEED must be a u64")),
        Err(_) => {
            for seed in 1..=8u64 {
                kill_and_restart(seed);
            }
        }
    }
}

#[test]
fn cache_scenario_converges_under_chaos() {
    // 30% burst loss over each new arrival's admission handshake (well
    // past the 10%/1 ms floor), a total-loss window swallowing client
    // 3's first requests to force backoff retransmission, 1 per mille
    // corruption and truncation throughout, and a 500 µs controller
    // stall planted inside client 2's reallocation.
    let plan = FaultPlan::none()
        .with_seed(29)
        .with_burst(1_395_000_000, 1_410_000_000, 300)
        .with_burst(1_598_000_000, 1_605_000_000, 1000)
        .with_burst(1_790_000_000, 1_800_000_000, 300)
        .with_corruption(1)
        .with_truncation(1)
        .with_controller_stall(1_400_200_000, 1_400_700_000);
    let cfg = SwitchConfig {
        table_entry_update_ns: 10_000,
        ..SwitchConfig::default()
    };
    let mut sim = Simulation::with_faults(
        NetConfig::default(),
        SwitchNode::new(SWITCH, cfg, Scheme::WorstFit),
        plan,
    );
    sim.add_host(Box::new(KvServerHost::new(SERVER, 20_000)));
    sim.add_host(Box::new(CacheClientHost::new(client_cfg(1, 0))));
    sim.run_until(1_000_000_000);
    // Quiesce point: client 1 admitted, no faults yet.
    assert_invariants(&sim, "after first admission");
    for i in 2..=4u8 {
        sim.add_host(Box::new(CacheClientHost::new(client_cfg(
            i,
            1_000_000_000 + u64::from(i) * 200_000_000,
        ))));
    }
    // Run well past the last fault window so recovery can complete.
    sim.run_until(5_000_000_000);
    // Quiesce point: every fault window closed and recovery drained —
    // the full invariant suite must hold on the final state.
    assert_invariants(&sim, "after chaos drained");

    // Convergence: every client either serves traffic or has cleanly
    // fallen back to the server path — none may be wedged mid-protocol.
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
            assert!(c.sent > 0 && c.hits > 0, "client {i} serving but idle");
        }
    }
    assert!(
        serving >= 3,
        "only {serving}/4 clients recovered to serving"
    );

    // The reallocation protocol must have fully drained: no client left
    // quiesced, nothing stuck in the admission queue.
    let ctl = sim.switch().controller();
    assert!(!ctl.busy(), "a reallocation leaked past the fault windows");
    assert_eq!(ctl.queue_len(), 0);
    assert_eq!(
        ctl.unacked_reactivations(),
        0,
        "a victim never acked its reactivation"
    );
    assert_eq!(ctl.abandoned_reactivations(), 0, "a victim was abandoned");

    // Protection never broke: per-stage pool invariants hold and no two
    // services' register regions overlap anywhere.
    let alloc = ctl.allocator();
    for (s, pool) in alloc.pools().iter().enumerate() {
        pool.check_invariants()
            .unwrap_or_else(|e| panic!("stage {s}: {e}"));
    }
    let fids: Vec<u16> = (1..=4u8)
        .map(|i| 100 + u16::from(i))
        .filter(|&f| alloc.contains(f))
        .collect();
    assert!(!fids.is_empty(), "someone must still hold memory");
    for (ai, &a) in fids.iter().enumerate() {
        for &b in &fids[ai + 1..] {
            for pa in alloc.placements_of(a) {
                for pb in alloc.placements_of(b) {
                    if pa.stage != pb.stage {
                        continue;
                    }
                    let a_end = pa.range.start + pa.range.len;
                    let b_end = pb.range.start + pb.range.len;
                    assert!(
                        a_end <= pb.range.start || b_end <= pa.range.start,
                        "fids {a} and {b} overlap in stage {}",
                        pa.stage
                    );
                }
            }
        }
    }

    // The chaos actually happened, and every layer of the recovery
    // machinery left fingerprints.
    let fs = sim.fault_stats();
    println!("chaos fault stats: {fs:?}");
    assert!(fs.injected_losses > 0, "bursts must have dropped frames");
    assert!(fs.injected_corruptions > 0, "corruption must have fired");
    assert!(fs.injected_truncations > 0, "truncation must have fired");
    assert!(fs.stalled_polls >= 1, "the controller stall must have hit");
    assert!(
        fs.dropped_malformed() > 0,
        "mangled frames must be counted drops, not crashes: {fs:?}"
    );
    assert!(
        fs.retransmits > 0,
        "the total-loss window must have forced retransmission"
    );
}
