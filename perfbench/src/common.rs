//! Shared pieces: the counting allocator, repetition control, sample
//! statistics, the outcome record printed as the final JSON line, and
//! the timing/gating host wrapper.

use activermt_net::host::{Host, HostFaultStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator, counting every allocation and reallocation
/// (the `net.sim.allocs_per_frame` layer metric).
pub struct CountingAlloc {
    allocs: AtomicU64,
}

impl CountingAlloc {
    /// A counter at zero.
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            allocs: AtomicU64::new(0),
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments unchanged, so each inherits `System`'s guarantees; the only
// addition is a relaxed counter increment, which publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (including reallocations) made so far.
pub fn allocs() -> u64 {
    crate::GLOBAL.allocs.load(Ordering::Relaxed)
}

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Repetition control: keep repeating until the wall budget is spent,
/// but never fewer than `min` times.
pub struct Reps {
    start: Instant,
    budget: Duration,
    min: usize,
    done: usize,
}

impl Reps {
    /// Start the clock.
    pub fn new(budget: Duration, min: usize) -> Reps {
        Reps {
            start: Instant::now(),
            budget,
            min,
            done: 0,
        }
    }

    /// Should another repetition run?
    pub fn more(&mut self) -> bool {
        let go = self.done < self.min || self.start.elapsed() < self.budget;
        if go {
            self.done += 1;
        }
        go
    }
}

/// FNV-1a, the outcome digest shared by the untraced and traced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold a number into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency distribution (nanoseconds or any unit).
#[derive(Debug, Default, Clone)]
pub struct Dist {
    samples: Vec<f64>,
}

impl Dist {
    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Add one duration in nanoseconds.
    pub fn push_ns(&mut self, d: Duration) {
        self.samples.push(d.as_nanos() as f64);
    }

    /// The samples, in the order they were added.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Absorb another distribution.
    pub fn merge(&mut self, other: &Dist) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Nearest-rank quantile `q` in `[0, 1]`; 0 for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// The highest of p99/p95/p90/p50 with at least ten samples beyond
    /// it, as `(percentile, value)`; `None` below 20 samples.
    pub fn tail(&self) -> Option<(u32, f64)> {
        let n = self.samples.len() as f64;
        [99u32, 95, 90, 50]
            .into_iter()
            .find(|&p| n * f64::from(100 - p) / 100.0 >= 10.0)
            .map(|p| (p, self.quantile(f64::from(p) / 100.0)))
    }
}

/// A measured window cut into fixed slices (of virtual time, or of
/// epochs): for each slice, its wall time and the frames and operations
/// it completed.
///
/// Every repetition of a seed does the same work slice for slice, so
/// the slices of all repetitions line up by index. On a shared machine
/// this code runs at two speeds about 1.8x apart, depending on what
/// else loads the core, and the share of time at each speed changes
/// from run to run; noise only ever adds wall time. The window is
/// therefore costed at each slice's fastest repetition ([`best`]): the
/// sum over slices of the least wall time any repetition took for that
/// slice. A median or a percentile over slices moved with the share of
/// slow time; the per-slice minimum does not.
#[derive(Debug, Default)]
pub struct Slices {
    /// `(wall seconds, frames, operations)` per slice.
    slices: Vec<(f64, u64, u64)>,
    last: Option<(Instant, u64, u64)>,
}

impl Slices {
    /// Open a slice at the given frame and operation totals.
    pub fn start(&mut self, frames: u64, ops: u64) {
        self.last = Some((Instant::now(), frames, ops));
    }

    /// Close the open slice at the given totals and open the next.
    pub fn mark(&mut self, frames: u64, ops: u64) {
        let now = Instant::now();
        let (t0, f0, o0) = self.last.expect("slice started");
        self.slices
            .push(((now - t0).as_secs_f64(), frames - f0, ops - o0));
        self.last = Some((now, frames, ops));
    }
}

/// A window costed at each slice's fastest repetition.
#[derive(Debug, Clone, Copy)]
pub struct Best {
    /// Sum over slices of the least wall time, seconds.
    pub wall_s: f64,
    /// Frames completed in the window.
    pub frames: u64,
    /// Operations completed in the window.
    pub ops: u64,
}

/// Cost the repetitions' windows slice by slice (see [`Slices`]). Every
/// repetition must have completed the same frames and operations in
/// each slice; a mismatch fails the run.
pub fn best(out: &mut Outcome, reps: &[&Slices]) -> Best {
    let first = &reps[0].slices;
    out.check(
        reps.iter().all(|r| {
            r.slices.len() == first.len()
                && r.slices
                    .iter()
                    .zip(first)
                    .all(|(a, b)| (a.1, a.2) == (b.1, b.2))
        }),
        "every repetition completes the same work in every slice",
    );
    let walls: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| r.slices.iter().map(|s| s.0).collect())
        .collect();
    let b = Best {
        wall_s: least_per_index(&walls).iter().sum(),
        frames: first.iter().map(|s| s.1).sum(),
        ops: first.iter().map(|s| s.2).sum(),
    };
    let median_wall = median(&walls.iter().map(|w| w.iter().sum()).collect::<Vec<f64>>());
    out.note(format!(
        "window: {} slices x {} repetitions, best-slice wall {:.4} s, median repetition wall {:.4} s",
        first.len(),
        reps.len(),
        b.wall_s,
        median_wall
    ));
    b
}

/// For each index, the least value any run recorded there (runs of
/// different lengths are cut to the shortest).
pub fn least_per_index(runs: &[Vec<f64>]) -> Vec<f64> {
    let n = runs.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| runs.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

impl Best {
    /// The `frames_per_s` and `requests_per_s` metrics.
    pub fn report_rates(&self, out: &mut Outcome) {
        out.metric("frames_per_s", self.frames as f64 / self.wall_s, "frames/s");
        out.metric("requests_per_s", self.ops as f64 / self.wall_s, "req/s");
    }

    /// Wall µs per operation.
    pub fn us_per_op(&self) -> f64 {
        self.wall_s * 1e6 / self.ops.max(1) as f64
    }
}

/// The `setup_s` metric from the repetitions' set-up times: their third
/// quartile, which lands on the slower of the machine's two speeds (see
/// [`Slices`]) whenever a quarter of the set-ups ran at it.
pub fn report_setup(out: &mut Outcome, setups: impl Iterator<Item = Duration>) {
    let mut d = Dist::default();
    for s in setups {
        d.push(s.as_secs_f64());
    }
    out.note(format!(
        "setup: n={}, p50 {:.4} s, p75 {:.4} s",
        d.len(),
        d.quantile(0.5),
        d.quantile(0.75)
    ));
    out.metric("setup_s", d.quantile(0.75), "s");
}

/// The record printed as the final JSON line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every outcome check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (never completed, unanswered, aborted).
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
}

impl Outcome {
    /// An outcome with no failed checks yet.
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.check(false, format!("metric {name} is not finite"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a span distribution in ns under `<prefix>.p50` and
    /// `<prefix>.p99`; the p99 slot holds the highest percentile the
    /// sample count supports (printed with the count).
    pub fn dist(&mut self, prefix: &str, d: &Dist) {
        self.metric(&format!("{prefix}.p50"), d.quantile(0.5), "ns");
        let (p, v) = d.tail().unwrap_or((50, d.quantile(0.5)));
        self.metric(&format!("{prefix}.p99"), v, "ns");
        self.note(format!("{prefix}: n={} tail=p{p}", d.len()));
    }

    /// The `<name>_us` metric: the mean of a latency distribution in
    /// µs. The median, the highest percentile with at least ten samples
    /// beyond it and the sample count are printed beside it; they are
    /// not metrics. The distribution is broad around its middle, so
    /// which samples land there, and with them the median, moves with
    /// the seed, and its tail moves by a third between runs.
    pub fn latency(&mut self, name: &str, d: &Dist) {
        let mean = d.sum() / d.len().max(1) as f64;
        let median = d.quantile(0.5);
        match d.tail() {
            Some((p, tail)) => self.note(format!(
                "{name}: mean {mean:.3} us, p50 {median:.3} us, p{p} {tail:.3} us, n={}",
                d.len()
            )),
            None => self.note(format!(
                "{name}: mean {mean:.3} us, p50 {median:.3} us, n={}",
                d.len()
            )),
        }
        self.metric(&format!("{name}_us"), mean, "us");
    }

    /// A human-readable line printed before the JSON.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record an outcome check; a false condition fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.failures.push(what.into());
        }
    }

    /// Print the notes, the metrics, and the final JSON line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
            eprintln!("perfbench: check failed: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Wraps a host: stops its timer-driven sending at `stop_at` (so
/// in-flight requests can drain and be counted), optionally folds every
/// frame it receives and emits into a digest, and optionally times its
/// callbacks.
pub struct Probe<H> {
    /// The wrapped host.
    pub inner: H,
    /// Timer callbacks at or after this virtual time send nothing.
    pub stop_at: u64,
    /// Byte digest of every delivery and emission, when enabled.
    pub digest: Option<Fnv>,
    /// Callback wall times, when timing is enabled.
    pub timing: Option<ProbeTimes>,
}

/// Wall time spent in a probed host's callbacks.
#[derive(Debug, Default)]
pub struct ProbeTimes {
    /// `on_frame` durations, ns.
    pub on_frame: Dist,
    /// `on_tick` durations, ns.
    pub on_tick: Dist,
}

impl<H: Host> Probe<H> {
    /// A pass-through probe.
    pub fn new(inner: H) -> Probe<H> {
        Probe {
            inner,
            stop_at: u64::MAX,
            digest: None,
            timing: None,
        }
    }

    fn fold(&mut self, now: u64, dir: u8, frame: &[u8]) {
        if let Some(d) = self.digest.as_mut() {
            d.u64(now);
            d.bytes(&[dir]);
            d.u64(frame.len() as u64);
            d.bytes(frame);
        }
    }
}

impl<H: Host + 'static> Host for Probe<H> {
    fn mac(&self) -> [u8; 6] {
        self.inner.mac()
    }

    fn on_frame(&mut self, now_ns: u64, frame: Vec<u8>) -> Vec<Vec<u8>> {
        self.fold(now_ns, 0, &frame);
        let out = match self.timing.as_mut() {
            None => self.inner.on_frame(now_ns, frame),
            Some(t) => {
                let t0 = Instant::now();
                let out = self.inner.on_frame(now_ns, frame);
                t.on_frame.push_ns(t0.elapsed());
                out
            }
        };
        for f in &out {
            self.fold(now_ns, 1, f);
        }
        out
    }

    fn on_tick(&mut self, now_ns: u64) -> Vec<Vec<u8>> {
        if now_ns >= self.stop_at {
            return Vec::new();
        }
        let out = match self.timing.as_mut() {
            None => self.inner.on_tick(now_ns),
            Some(t) => {
                let t0 = Instant::now();
                let out = self.inner.on_tick(now_ns);
                t.on_tick.push_ns(t0.elapsed());
                out
            }
        };
        for f in &out {
            self.fold(now_ns, 2, f);
        }
        out
    }

    fn tick_interval(&self) -> Option<u64> {
        self.inner.tick_interval()
    }

    fn fault_stats(&self) -> HostFaultStats {
        self.inner.fault_stats()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Time `f` in batches of `batch` calls over `inputs` (cycled), `rounds`
/// batches in all; returns per-call nanoseconds, one sample per batch.
/// Batching keeps the clock's own ~50 ns cost out of sub-100 ns stages.
pub fn batch_time<T>(inputs: &[T], batch: usize, rounds: usize, mut f: impl FnMut(&T)) -> Dist {
    let mut d = Dist::default();
    if inputs.is_empty() {
        return d;
    }
    let mut i = 0usize;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..batch {
            f(&inputs[i]);
            i = (i + 1) % inputs.len();
        }
        d.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    d
}

/// Every per-layer metric, in one place so that each traced workload
/// prints the full set. A layer a workload does not exercise keeps its
/// default: an empty distribution or a zero count, printed as 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub active_frame: Dist,
    pub plain_frame: Dist,
    pub layout: Dist,
    pub decode: Dist,
    pub recirc_per_frame: f64,
    pub decode_cache_hit_ratio: f64,
    pub drops_per_frame: f64,
    pub client_frame: Dist,
    pub client_tick: Dist,
    pub client_setup_s: f64,
    pub kv_frame: Dist,
    pub sim_self_ns_per_frame: f64,
    pub allocs_per_frame: f64,
    pub hit_rate: f64,
    pub client_request: Dist,
    pub alloc_request: Dist,
    pub admit: Dist,
    pub verify: Dist,
    pub synthesize: Dist,
    pub control_frame: Dist,
    pub poll: Dist,
    pub victims_per_admit: f64,
    pub feasible_per_mutant: f64,
    pub controller_cache_hit_ratio: f64,
    pub client_cache_hit_ratio: f64,
    pub fabric_self_ns_per_frame: f64,
    pub pump: Dist,
    pub migrate: Dist,
    pub migrations_completed: f64,
    pub replay_cells_per_migration: f64,
    pub overhead_frac: f64,
    pub layer_sum_frac: f64,
}

/// Print every per-layer metric and check the trace's own sanity: the
/// layer self times add up to the traced wall time within 10%.
pub fn emit_layers(out: &mut Outcome, l: &Layers) {
    let p50 = |out: &mut Outcome, name: &str, d: &Dist| {
        out.metric(name, d.quantile(0.5), "ns");
        out.note(format!("{name}: n={}", d.len()));
    };
    out.dist("net.switch.active_frame_ns", &l.active_frame);
    p50(out, "net.switch.plain_frame_ns.p50", &l.plain_frame);
    p50(out, "isa.wire.layout_ns.p50", &l.layout);
    p50(out, "core.runtime.decode_ns.p50", &l.decode);
    out.metric(
        "core.runtime.recirc_per_frame",
        l.recirc_per_frame,
        "1/frame",
    );
    out.metric(
        "core.runtime.decode_cache_hit_ratio",
        l.decode_cache_hit_ratio,
        "ratio",
    );
    out.metric("core.runtime.drops_per_frame", l.drops_per_frame, "1/frame");
    out.dist("client.host.on_frame_ns", &l.client_frame);
    p50(out, "client.host.on_tick_ns.p50", &l.client_tick);
    out.metric("client.host.setup_s", l.client_setup_s, "s");
    p50(out, "apps.kv_server.on_frame_ns.p50", &l.kv_frame);
    out.metric("net.sim.self_ns_per_frame", l.sim_self_ns_per_frame, "ns");
    out.metric("net.sim.allocs_per_frame", l.allocs_per_frame, "1/frame");
    out.metric("apps.cache.hit_rate", l.hit_rate, "ratio");
    p50(out, "client.request_ns.p50", &l.client_request);
    out.dist("net.switch.alloc_request_ns", &l.alloc_request);
    out.dist("core.alloc.admit_ns", &l.admit);
    p50(out, "analysis.verify_ns.p50", &l.verify);
    p50(out, "client.synthesize_ns.p50", &l.synthesize);
    p50(out, "net.switch.control_frame_ns.p50", &l.control_frame);
    p50(out, "net.switch.poll_ns.p50", &l.poll);
    out.metric(
        "core.alloc.victims_per_admit",
        l.victims_per_admit,
        "1/admit",
    );
    out.metric(
        "core.alloc.feasible_per_mutant",
        l.feasible_per_mutant,
        "ratio",
    );
    out.metric(
        "core.controller.optimizer_cache_hit_ratio",
        l.controller_cache_hit_ratio,
        "ratio",
    );
    out.metric(
        "client.optimizer_cache_hit_ratio",
        l.client_cache_hit_ratio,
        "ratio",
    );
    out.metric(
        "net.fabric.self_ns_per_frame",
        l.fabric_self_ns_per_frame,
        "ns",
    );
    out.dist("fabric.pump_ns", &l.pump);
    p50(out, "fabric.migrate_ns.p50", &l.migrate);
    out.metric(
        "fabric.migrations_completed",
        l.migrations_completed,
        "count",
    );
    out.metric(
        "fabric.replay_cells_per_migration",
        l.replay_cells_per_migration,
        "cells",
    );
    out.metric("trace.overhead_frac", l.overhead_frac, "ratio");
    out.metric("trace.layer_sum_frac", l.layer_sum_frac, "ratio");
    out.check(
        (l.layer_sum_frac - 1.0).abs() <= 0.1,
        format!(
            "layer self times sum to the traced wall time within 10% (got {:.3})",
            l.layer_sum_frac
        ),
    );
}
