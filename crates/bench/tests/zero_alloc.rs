//! Regression test for the zero-allocation steady-state frame path:
//! once buffer capacities have settled,
//! processing an active frame must not touch the heap at all.
//!
//! Lives in its own integration-test binary so the counting global
//! allocator sees no other test code, and the tests hold [`SERIAL`]
//! so they never run concurrently with each other: the counter is
//! process-wide, and one test's set-up allocations would otherwise land
//! in another's measured window.

use activermt_bench::hotpath::{
    alloc_count, cache_query, nop_program, CountingAlloc, HotLoop, PooledLoop,
};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// Run alone: block until no other test of this binary is running. A
/// failed test poisons the lock; the others still run.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn steady_state_frames_do_not_allocate() {
    let _serial = serial();
    for (name, program, payload) in [
        ("cache_query", cache_query(), &b"GET k"[..]),
        ("nops_30", nop_program(30), &b""[..]),
    ] {
        let mut hl = HotLoop::new(&program, payload);
        // Warm-up: create the FID's accounting row, grow the output
        // vector and the frame buffer to their steady-state capacities.
        for _ in 0..16 {
            hl.step();
        }
        let before = alloc_count();
        for _ in 0..256 {
            hl.step();
        }
        let allocs = alloc_count() - before;
        assert_eq!(
            allocs, 0,
            "{name}: steady-state frames must be allocation-free, saw {allocs} allocations over 256 frames"
        );
        // The telemetry registry was live the whole time — the counters
        // the snapshot reads are the very cells the hot loop bumped, so
        // the 0-alloc figure above holds with observability enabled.
        let snap = hl.telemetry.snapshot(0);
        assert!(
            snap.counter("runtime.frames").unwrap_or(0) >= 272,
            "{name}: registry must observe the frames the loop processed"
        );
    }
}

/// The parallel path must hold the same bar: once batch containers,
/// outboxes and frame buffers are in circulation, a full
/// enqueue → dispatch → execute → drain → recycle round allocates
/// nothing — on the dispatcher *and* on every worker thread (the
/// counting allocator is process-wide, so worker-side allocations are
/// charged too).
#[test]
fn pooled_steady_state_frames_do_not_allocate() {
    let _serial = serial();
    const WORKERS: usize = 4;
    const ROUND: usize = 1_024;
    let mut pl = PooledLoop::new(WORKERS, 16, &cache_query(), b"GET k");
    // Warm-up: grow the batch-container pool to its in-flight
    // high-water mark and settle capacities.
    // The high-water marks depend on thread scheduling, so after the
    // fixed rounds keep warming until one full round runs
    // allocation-free; a genuine per-frame leak allocates every round
    // and exhausts the cap, so this cannot mask a regression.
    let mut rounds = 0u64;
    for _ in 0..8 {
        pl.round(ROUND);
        rounds += 1;
    }
    for i in 0.. {
        assert!(
            i < 64,
            "pooled warmup never reached an allocation-free round"
        );
        let before = alloc_count();
        pl.round(ROUND);
        rounds += 1;
        if alloc_count() == before {
            break;
        }
    }
    let ws0 = pl.worker_stats();
    let before = alloc_count();
    for _ in 0..8 {
        pl.round(ROUND);
        rounds += 1;
    }
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs,
        0,
        "pooled steady-state frames must be allocation-free, saw {allocs} \
         allocations over {} frames across {WORKERS} workers",
        8 * ROUND
    );
    let ws = pl.worker_stats();
    assert_eq!(ws.len(), WORKERS);
    for (k, s) in ws.iter().enumerate() {
        assert!(s.frames > 0, "worker {k} processed no frames");
        assert!(s.batches > 0, "worker {k} drained no batches");
    }
    let timed: u64 = ws.iter().zip(&ws0).map(|(a, b)| a.frames - b.frames).sum();
    assert_eq!(
        timed,
        8 * ROUND as u64,
        "every frame enqueued in the timed rounds was executed"
    );
    let total: u64 = ws.iter().map(|s| s.frames).sum();
    assert_eq!(
        total,
        rounds * ROUND as u64,
        "every enqueued frame was executed"
    );
    // Telemetry stayed bound throughout: the global and per-worker
    // counters the registry snapshots are the cells the loop bumped.
    let snap = pl.telemetry.snapshot(0);
    assert_eq!(
        snap.counter("runtime.frames").unwrap_or(0),
        total,
        "registry view must match the per-worker sum"
    );
    assert_eq!(snap.counter("worker.0.frames").unwrap_or(0), ws[0].frames);
}

#[test]
fn reference_path_allocates_showing_the_counter_works() {
    let _serial = serial();
    let mut hl = HotLoop::new(&cache_query(), b"GET k");
    for _ in 0..4 {
        hl.step_reference();
    }
    let before = alloc_count();
    for _ in 0..64 {
        hl.step_reference();
    }
    assert!(
        alloc_count() - before >= 64,
        "the reference interpreter decodes into a fresh Vec per frame; \
         a zero here would mean the counter is broken"
    );
}
