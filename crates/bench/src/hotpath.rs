//! The reproducible hot-path benchmark harness behind `BENCH_hotpath.json`.
//!
//! Unlike the Criterion benches under `benches/`, this module is meant
//! to run as a plain binary (`src/bin/hotpath.rs`) in CI quick mode: it
//! measures the optimized interpretation and admission paths against
//! their in-repo reference implementations
//! ([`SwitchRuntime::process_frame_reference_at`],
//! [`Allocator::admit_reference`]) so the speedup is computed inside
//! one process, plus an end-to-end packets/sec scenario and an
//! allocations-per-frame counter backed by [`CountingAlloc`].

use activermt_client::asm::assemble;
use activermt_core::alloc::{AccessPattern, Allocator, AllocatorConfig, MutantPolicy, Scheme};
use activermt_core::runtime::{
    DataPlane, ShardedExecutor, SwitchOutput, SwitchRuntime, TaggedOutput, WorkerStats,
    DEFAULT_BATCH_FRAMES,
};
use activermt_core::SwitchConfig;
use activermt_isa::wire::{build_program_packet, RegionEntry};
use activermt_isa::{Opcode, Program, ProgramBuilder};
use activermt_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::{pattern_of, AppKind};

const CLIENT: [u8; 6] = [2, 0, 0, 0, 0, 1];
const SERVER: [u8; 6] = [2, 0, 0, 0, 0, 2];
const FID: u16 = 7;

/// Heap allocations observed process-wide (see [`CountingAlloc`]).
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator. Binaries (and the
/// zero-alloc regression test) register it as the `#[global_allocator]`
/// to assert the steady-state frame path performs no heap allocation.
pub struct CountingAlloc;

// SAFETY: defers to `System` for every operation; only bumps a counter.
// This is the workspace's sole sanctioned unsafe item — `GlobalAlloc`
// cannot be implemented without it, and the zero-alloc regression test
// needs a counting allocator.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations counted so far (monotonic; diff around a region of
/// interest).
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A latency distribution over `iters` timed iterations.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    /// Timed iterations.
    pub iters: usize,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: f64,
    /// Median, nanoseconds.
    pub p50_ns: f64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: f64,
}

impl Dist {
    /// Iterations per second implied by the mean.
    pub fn throughput(&self) -> f64 {
        if self.mean_ns > 0.0 {
            1e9 / self.mean_ns
        } else {
            0.0
        }
    }
}

/// Time `f` for `iters` iterations (after `warmup` untimed ones) and
/// summarize the per-iteration latency distribution.
pub fn measure<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> Dist {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<u64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    let pct = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize] as f64;
    Dist {
        iters,
        mean_ns: samples.iter().sum::<u64>() as f64 / iters as f64,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
    }
}

/// The paper's cache query (terminates at the first CRET on a miss).
pub fn cache_query() -> Program {
    let mut p = assemble(
        "MAR_LOAD $3\nMEM_READ\nMBR_EQUALS_DATA_1\nCRET\nMEM_READ\nMBR_EQUALS_DATA_2\nCRET\nRTS\nMEM_READ\nMBR_STORE $2\nRETURN",
    )
    .unwrap();
    p.set_arg(3, 42).unwrap();
    p
}

/// A straight-line NOP program of `len` instructions (Figure 8b).
pub fn nop_program(len: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for _ in 0..len - 1 {
        b = b.op(Opcode::NOP);
    }
    b.op(Opcode::RETURN).build().unwrap()
}

/// A runtime with FID 7 granted the whole register space in every
/// stage.
pub fn runtime_with_grants() -> SwitchRuntime {
    let mut rt = SwitchRuntime::new(SwitchConfig::default());
    for s in 0..20 {
        rt.install_region(
            s,
            FID,
            RegionEntry {
                start: 0,
                end: 65_536,
            },
        );
    }
    rt
}

/// Drives one program frame through the runtime repeatedly while
/// recycling every buffer, so steady-state iterations model a switch
/// port at line rate: the frame buffer, the output vector and the
/// decode scratch are all reused across [`HotLoop::step`] calls.
pub struct HotLoop {
    /// The runtime under test.
    pub rt: SwitchRuntime,
    /// Telemetry hub the runtime's counters are registered with. Kept
    /// bound during the loop so the zero-alloc regression test measures
    /// the frame path *with* the registry active, as deployed.
    pub telemetry: Telemetry,
    pristine: Vec<u8>,
    buf: Vec<u8>,
    out: Vec<SwitchOutput>,
}

impl HotLoop {
    /// Build the loop around `program` (frame encoded once up front).
    pub fn new(program: &Program, payload: &[u8]) -> HotLoop {
        let pristine = build_program_packet(SERVER, CLIENT, FID, 1, program, payload);
        let telemetry = Telemetry::new();
        let rt = runtime_with_grants();
        rt.bind_telemetry(&telemetry);
        HotLoop {
            rt,
            telemetry,
            buf: pristine.clone(),
            pristine,
            out: Vec::with_capacity(2),
        }
    }

    fn reset_frame(&mut self) -> Vec<u8> {
        self.buf.clear();
        self.buf.extend_from_slice(&self.pristine);
        std::mem::take(&mut self.buf)
    }

    /// One optimized-path iteration; allocation-free at steady state.
    #[inline]
    pub fn step(&mut self) {
        let frame = self.reset_frame();
        self.rt.process_frame_into(0, frame, &mut self.out);
        self.buf = match self.out.pop() {
            Some(out) => out.frame,
            None => Vec::new(),
        };
        self.out.clear();
    }

    /// One reference-path iteration (the pre-optimization interpreter).
    pub fn step_reference(&mut self) {
        let frame = self.reset_frame();
        let mut outs = self.rt.process_frame_reference_at(0, frame);
        self.buf = match outs.pop() {
            Some(out) => out.frame,
            None => Vec::new(),
        };
    }
}

/// Drives many flows through a [`ShardedExecutor`] while recycling
/// every buffer, the parallel analogue of [`HotLoop`]: `num_fids`
/// active flows (each granted the full register space in every stage,
/// like [`runtime_with_grants`]) are enqueued round-robin, dispatched
/// in batches to the worker pool, and every output frame returns to a
/// freelist. After a few warm-up rounds the batch containers, output
/// vectors and frame buffers all come from recycled capacity, so
/// steady-state rounds perform zero heap allocations on the dispatcher
/// *and* on every worker thread.
pub struct PooledLoop {
    /// The worker pool under test.
    pub ex: ShardedExecutor,
    /// Telemetry hub the pool's counters are registered with (kept
    /// bound during the loop, as deployed).
    pub telemetry: Telemetry,
    pristine: Vec<Vec<u8>>,
    freelist: Vec<Vec<u8>>,
    out: Vec<TaggedOutput>,
    next_fid: usize,
}

impl PooledLoop {
    /// Bring up `workers` workers and `num_fids` flows running
    /// `program` (frames encoded once up front, one per FID).
    pub fn new(workers: usize, num_fids: u16, program: &Program, payload: &[u8]) -> PooledLoop {
        let mut ex = ShardedExecutor::new(SwitchConfig::default(), workers, DEFAULT_BATCH_FRAMES);
        let telemetry = Telemetry::new();
        ex.bind_telemetry(&telemetry);
        let mut pristine = Vec::with_capacity(usize::from(num_fids));
        for i in 0..num_fids {
            let fid = 100 + i;
            for s in 0..20 {
                ex.install_region(
                    s,
                    fid,
                    RegionEntry {
                        start: 0,
                        end: 65_536,
                    },
                );
            }
            pristine.push(build_program_packet(
                SERVER, CLIENT, fid, 1, program, payload,
            ));
        }
        PooledLoop {
            ex,
            telemetry,
            pristine,
            freelist: Vec::new(),
            out: Vec::new(),
            next_fid: 0,
        }
    }

    /// Enqueue `frames` frames (cycling through the FIDs), drain every
    /// output and recycle all buffers. Allocation-free at steady state.
    pub fn round(&mut self, frames: usize) {
        for _ in 0..frames {
            let pristine = &self.pristine[self.next_fid];
            self.next_fid = (self.next_fid + 1) % self.pristine.len();
            let mut buf = self.freelist.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(pristine);
            self.ex.enqueue(0, buf);
        }
        self.ex.drain_into(&mut self.out);
        for t in self.out.drain(..) {
            self.freelist.push(t.output.frame);
        }
    }

    /// Per-worker counter snapshots, in shard order.
    #[must_use]
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.ex.worker_stats()
    }
}

/// An allocator preloaded with 30 mixed residents, matching the
/// Criterion admission benches.
pub fn loaded_allocator(cfg: &SwitchConfig) -> Allocator {
    let mut alloc = Allocator::new(AllocatorConfig::from_switch(cfg, Scheme::WorstFit));
    for i in 0..30u16 {
        let k = AppKind::ALL[i as usize % 3];
        let _ = alloc.admit(i, &pattern_of(k, 1024), MutantPolicy::MostConstrained);
    }
    alloc
}

/// Time a single admission (incremental or reference search) of
/// `pattern` into the loaded allocator; the admitted FID is released
/// outside the timed window so every iteration sees identical state.
pub fn measure_admission(
    alloc: &mut Allocator,
    pattern: &AccessPattern,
    policy: MutantPolicy,
    reference: bool,
    warmup: usize,
    iters: usize,
) -> Dist {
    let mut samples: Vec<u64> = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let t = Instant::now();
        let admitted = if reference {
            alloc.admit_reference(999, pattern, policy)
        } else {
            alloc.admit(999, pattern, policy)
        };
        let ns = t.elapsed().as_nanos() as u64;
        if i >= warmup {
            samples.push(ns);
        }
        if admitted.is_ok() {
            alloc.release(999).unwrap();
        }
    }
    samples.sort_unstable();
    let pct = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize] as f64;
    Dist {
        iters,
        mean_ns: samples.iter().sum::<u64>() as f64 / iters as f64,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_loop_steps_both_paths() {
        let mut hl = HotLoop::new(&cache_query(), b"GET k");
        for _ in 0..4 {
            hl.step();
            hl.step_reference();
        }
        assert_eq!(hl.rt.stats().malformed_drops, 0);
    }

    #[test]
    fn pooled_loop_rounds_and_counters() {
        let mut pl = PooledLoop::new(2, 8, &cache_query(), b"GET k");
        for _ in 0..3 {
            pl.round(256);
        }
        let ws = pl.worker_stats();
        assert_eq!(ws.len(), 2);
        let total: u64 = ws.iter().map(|s| s.frames).sum();
        assert_eq!(total, 3 * 256, "every enqueued frame was executed");
        assert!(ws.iter().all(|s| s.frames > 0), "both shards saw work");
        assert_eq!(pl.ex.stats().malformed_drops, 0);
    }

    #[test]
    fn measured_admission_is_stable() {
        let cfg = SwitchConfig::default();
        let mut alloc = loaded_allocator(&cfg);
        let pattern = pattern_of(AppKind::Cache, 1024);
        let apps_before = alloc.num_apps();
        let d = measure_admission(
            &mut alloc,
            &pattern,
            MutantPolicy::MostConstrained,
            false,
            2,
            8,
        );
        assert_eq!(alloc.num_apps(), apps_before, "admissions were released");
        assert!(d.mean_ns > 0.0);
    }
}
