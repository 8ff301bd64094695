//! `obsdump`: run an end-to-end observability scenario and export the
//! switch's [`TelemetrySnapshot`] as JSON and Prometheus text.
//!
//! The scenario is the Figure 10 shape — staggered cache-client
//! arrivals over a key-value server, where a late arrival displaces
//! incumbents (reallocation, snapshot, reactivation) — run under a
//! mild fault plan so the journal also records injected faults. The
//! dump is then *checked*: the run fails unless the snapshot contains
//! per-FID interpreter counters, allocator admission timings, and at
//! least one journal event for each of admission, reallocation start,
//! snapshot completion, reactivation and fault injection. CI runs
//! `obsdump --quick` as a smoke gate.
//!
//! Output: `results/obsdump.json` and `results/obsdump.prom` (the JSON
//! also goes to stdout).

use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::SwitchConfig;
use activermt_isa::wire::{build_alloc_request_with_program, AccessDescriptor};
use activermt_isa::{Opcode, ProgramBuilder};
use activermt_modelcheck::{check_invariants, report_violations};
use activermt_net::apphosts::{CacheClientConfig, CacheClientHost};
use activermt_net::fault::{CrashPlan, FaultPlan};
use activermt_net::host::{Host, KvServerHost};
use activermt_net::{NetConfig, Simulation, SwitchNode};
use activermt_telemetry::{EventKind, TelemetrySnapshot};
use std::any::Any;
use std::path::PathBuf;

const SWITCH: [u8; 6] = [2, 0, 0, 0, 0, 0xFF];
const SERVER: [u8; 6] = [2, 0, 0, 0, 0, 0xEE];

fn client_mac(i: u8) -> [u8; 6] {
    [2, 0, 0, 0, 1, i]
}

struct Scale {
    arrival_spacing_ns: u64,
    run_ns: u64,
    populate_top: usize,
    req_interval_ns: u64,
}

impl Scale {
    fn quick() -> Scale {
        Scale {
            arrival_spacing_ns: 1_500_000_000,
            run_ns: 8_000_000_000,
            populate_top: 4_096,
            req_interval_ns: 200_000,
        }
    }

    fn full() -> Scale {
        Scale {
            arrival_spacing_ns: 5_000_000_000,
            run_ns: 22_000_000_000,
            populate_top: 131_072,
            req_interval_ns: 20_000,
        }
    }
}

/// A client that requests memory for a program the capsule verifier
/// must refuse (an unmasked hashed probe), so the snapshot records the
/// rejection path: the `VerifyRejected` journal event and the
/// controller's `verify_rejected` counter.
struct RogueAllocHost {
    mac: [u8; 6],
    switch: [u8; 6],
    fid: u16,
    sent: bool,
}

impl RogueAllocHost {
    fn request(&self) -> Vec<u8> {
        let program = ProgramBuilder::new()
            .op(Opcode::HASH)
            .op(Opcode::MEM_READ) // raw hash as address: never verifiable
            .op(Opcode::NOP)
            .op(Opcode::CRET)
            .op(Opcode::MEM_READ)
            .op(Opcode::NOP)
            .op(Opcode::CRET)
            .op(Opcode::RTS)
            .op(Opcode::MEM_READ)
            .op(Opcode::NOP)
            .op(Opcode::RETURN)
            .build()
            .expect("probe program builds");
        let accesses = [
            AccessDescriptor {
                min_position: 2,
                min_gap: 2,
                demand: 0,
            },
            AccessDescriptor {
                min_position: 5,
                min_gap: 3,
                demand: 0,
            },
            AccessDescriptor {
                min_position: 9,
                min_gap: 4,
                demand: 0,
            },
        ];
        build_alloc_request_with_program(
            self.switch,
            self.mac,
            self.fid,
            1,
            &accesses,
            11,
            true,
            true,
            8,
            &program.encode_instructions(),
        )
        .expect("request builds")
    }
}

impl Host for RogueAllocHost {
    fn mac(&self) -> [u8; 6] {
        self.mac
    }

    fn on_frame(&mut self, _now_ns: u64, _frame: Vec<u8>) -> Vec<Vec<u8>> {
        Vec::new() // the refusal is the point; nothing to retry
    }

    fn on_tick(&mut self, _now_ns: u64) -> Vec<Vec<u8>> {
        if self.sent {
            return Vec::new();
        }
        self.sent = true;
        vec![self.request()]
    }

    fn tick_interval(&self) -> Option<u64> {
        Some(250_000_000)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn run(scale: &Scale) -> TelemetrySnapshot {
    let cfg = SwitchConfig {
        table_entry_update_ns: 400_000,
        ..SwitchConfig::default()
    };
    // Mild uniform loss: enough injected faults to land in the
    // journal, few enough that the ring keeps the reallocation events.
    let plan = FaultPlan::uniform_loss(1, 7);
    // Run the sharded worker pool so the dump also carries the
    // parallel-plane surface: per-worker frame/batch/handoff counters
    // that verify() below checks sum to the global totals.
    let mut node = SwitchNode::with_workers(SWITCH, cfg, Scheme::WorstFit, 2);
    // Two controller kill/restart cycles mid-run, so the snapshot also
    // carries the crash-recovery surface: recoveries, repairs, the
    // modeled recovery latency, and the Recovered journal event.
    node.set_crash_plan(CrashPlan::every_opportunity(7, 2, 1_000_000_000));
    let mut sim = Simulation::with_faults(NetConfig::default(), node, plan);
    sim.add_host(Box::new(KvServerHost::new(SERVER, 50_000)));
    for i in 1..=4u8 {
        sim.add_host(Box::new(CacheClientHost::new(CacheClientConfig {
            mac: client_mac(i),
            switch_mac: SWITCH,
            server_mac: SERVER,
            fid: 100 + u16::from(i),
            start_ns: u64::from(i - 1) * scale.arrival_spacing_ns,
            monitor_ns: None,
            populate_top: scale.populate_top,
            req_interval_ns: scale.req_interval_ns,
            keyspace: 500_000,
            zipf_alpha: 1.0,
            seed: 40 + u64::from(i),
            policy: MutantPolicy::MostConstrained,
            num_stages: 20,
            ingress_stages: 10,
            max_extra_recircs: 1,
        })));
    }
    sim.add_host(Box::new(RogueAllocHost {
        mac: client_mac(9),
        switch: SWITCH,
        fid: 666,
        sent: false,
    }));
    sim.run_until(scale.run_ns);

    // Quiesce point: audit the final control-plane state with the
    // shared invariant engine and fold the result into the snapshot
    // (counter + journal events), so the dump's own gate below can
    // require a clean bill.
    let node = sim.switch();
    let mut violations = check_invariants(node.controller(), node.plane());
    // Audit every shard replica too: each worker's protection tables
    // must independently agree with the controller.
    node.for_each_runtime(|_, rt| {
        violations.extend(check_invariants(node.controller(), rt));
    });
    report_violations(node.telemetry(), scale.run_ns, &violations);
    for v in &violations {
        eprintln!("# obsdump invariant violation: {v}");
    }
    sim.telemetry_snapshot()
}

/// The checks CI gates on: every layer contributed to the snapshot.
fn verify(snap: &TelemetrySnapshot) -> Result<(), String> {
    let require = |ok: bool, what: &str| -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(format!("snapshot is missing {what}"))
        }
    };
    require(
        snap.fids.iter().any(|r| r.interpreted > 0),
        "per-FID interpreter counters",
    )?;
    require(
        snap.histogram("alloc.admit_ns")
            .is_some_and(|h| h.count > 0),
        "allocator admission timings (alloc.admit_ns)",
    )?;
    for phase in [
        "alloc.enumerate_wall_ns",
        "alloc.rank_wall_ns",
        "alloc.probe_wall_ns",
    ] {
        require(
            snap.histogram(phase).is_some_and(|h| h.count > 0),
            &format!("allocator search-phase timings ({phase})"),
        )?;
    }
    require(
        snap.counter("runtime.frames").unwrap_or(0) > 0,
        "runtime frame counters",
    )?;
    require(
        snap.has_event(|e| matches!(e, EventKind::Admission { accepted: true, .. })),
        "an accepted-admission journal event",
    )?;
    require(
        snap.has_event(|e| matches!(e, EventKind::ReallocationStart { .. })),
        "a reallocation-start journal event",
    )?;
    require(
        snap.has_event(|e| matches!(e, EventKind::SnapshotComplete { .. })),
        "a snapshot-complete journal event",
    )?;
    require(
        snap.has_event(|e| matches!(e, EventKind::Reactivation { .. })),
        "a reactivation journal event",
    )?;
    require(
        snap.has_event(|e| matches!(e, EventKind::FaultInjected { .. })),
        "an injected-fault journal event",
    )?;
    require(
        snap.has_event(|e| matches!(e, EventKind::VerifyRejected { .. })),
        "a verify-rejected journal event",
    )?;
    require(
        snap.counter("controller.verify_rejected").unwrap_or(0) > 0,
        "the controller verify_rejected counter",
    )?;
    require(
        snap.counter("controller.verify_accepted").unwrap_or(0) > 0,
        "the controller verify_accepted counter (clients ship bytecode)",
    )?;
    require(
        snap.fids.iter().any(|r| r.verify_rejected > 0),
        "per-FID verification accounting",
    )?;
    require(
        snap.counter("faults.injected_crashes").unwrap_or(0) > 0,
        "injected controller crashes (faults.injected_crashes)",
    )?;
    require(
        snap.counter("controller.recoveries").unwrap_or(0) > 0,
        "the controller recoveries counter",
    )?;
    require(
        snap.counter("controller.repairs").is_some(),
        "the reconciliation repairs counter",
    )?;
    require(
        snap.counter("controller.stale_epoch_rejects").is_some(),
        "the stale-fence reject counter",
    )?;
    require(
        snap.counter("journal.dropped").is_some(),
        "the journal overflow counter",
    )?;
    require(
        snap.histogram("controller.recovery_ns")
            .is_some_and(|h| h.count > 0),
        "modeled recovery-latency samples (controller.recovery_ns)",
    )?;
    require(
        snap.has_event(|e| matches!(e, EventKind::Recovered { .. })),
        "a crash-recovery journal event",
    )?;
    // The parallel plane's per-worker ledger must balance: every frame
    // the global (shared-cell) counter saw was executed by exactly one
    // worker, so the per-worker counters must sum to it.
    let mut workers = 0usize;
    let mut worker_frames = 0u64;
    while let Some(f) = snap.counter(&format!("worker.{workers}.frames")) {
        worker_frames += f;
        workers += 1;
    }
    require(workers >= 2, "per-worker counters (worker pool enabled)")?;
    let global_frames = snap.counter("runtime.frames").unwrap_or(0);
    if worker_frames != global_frames {
        return Err(format!(
            "per-worker frame counters sum to {worker_frames} but the \
             global runtime.frames counter reads {global_frames}"
        ));
    }
    let violations = snap.counter("modelcheck.invariant_violations");
    require(
        violations.is_some(),
        "the control-plane invariant audit (modelcheck.invariant_violations)",
    )?;
    if violations.unwrap_or(0) > 0 {
        return Err(format!(
            "{} control-plane invariant violation(s) at quiesce — see \
             invariant_violated journal events",
            violations.unwrap_or(0)
        ));
    }
    Ok(())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let snap = run(&scale);

    let json = snap.to_json();
    let prom = snap.to_prometheus();
    println!("{json}");
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join("obsdump.json"), &json);
        let _ = std::fs::write(dir.join("obsdump.prom"), &prom);
    }
    eprintln!(
        "# obsdump: {} metrics, {} fid rows, {} journal events at t={} ms",
        snap.metrics.len(),
        snap.fids.len(),
        snap.events.len(),
        snap.at_ns / 1_000_000
    );
    if let Err(e) = verify(&snap) {
        eprintln!("# obsdump FAILED: {e}");
        std::process::exit(1);
    }
    eprintln!("# obsdump: all observability checks passed");
}
