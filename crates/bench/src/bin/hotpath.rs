//! Hot-path benchmark runner: optimized vs reference interpretation and
//! admission, an end-to-end packets/sec scenario, and an
//! allocations-per-frame counter. Emits `BENCH_hotpath.json`.
//!
//! `--quick` (or `HOTPATH_QUICK=1`) shrinks iteration counts for CI
//! smoke runs; the JSON schema is identical in both modes.

use activermt_bench::hotpath::{
    alloc_count, cache_query, loaded_allocator, measure, measure_admission, nop_program,
    CountingAlloc, Dist, HotLoop, PooledLoop,
};
use activermt_bench::{pattern_of, AppKind};
use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::SwitchConfig;
use activermt_net::apphosts::{CacheClientConfig, CacheClientHost};
use activermt_net::host::KvServerHost;
use activermt_net::{NetConfig, Simulation, SwitchNode};
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SWITCH: [u8; 6] = [2, 0, 0, 0, 0, 0xFF];
const SERVER: [u8; 6] = [2, 0, 0, 0, 0, 0xEE];
const CLIENT: [u8; 6] = [2, 0, 0, 0, 1, 1];

struct Mode {
    label: &'static str,
    interp_warmup: usize,
    interp_iters: usize,
    alloc_warmup: usize,
    alloc_iters: usize,
    e2e_sim_ns: u64,
    alloc_probe_frames: u64,
    par_round_frames: usize,
    par_warmup_rounds: usize,
    par_rounds: usize,
}

const QUICK: Mode = Mode {
    label: "quick",
    interp_warmup: 200,
    interp_iters: 2_000,
    alloc_warmup: 2,
    alloc_iters: 20,
    e2e_sim_ns: 100_000_000,
    alloc_probe_frames: 1_000,
    par_round_frames: 2_048,
    par_warmup_rounds: 4,
    par_rounds: 8,
};

const FULL: Mode = Mode {
    label: "full",
    interp_warmup: 2_000,
    interp_iters: 50_000,
    alloc_warmup: 5,
    alloc_iters: 200,
    e2e_sim_ns: 1_000_000_000,
    alloc_probe_frames: 10_000,
    par_round_frames: 4_096,
    par_warmup_rounds: 8,
    par_rounds: 32,
};

fn dist_json(d: &Dist) -> String {
    format!(
        "{{\"iters\":{},\"mean_ns\":{:.1},\"p50_ns\":{:.1},\"p99_ns\":{:.1},\"throughput_per_sec\":{:.1}}}",
        d.iters,
        d.mean_ns,
        d.p50_ns,
        d.p99_ns,
        d.throughput()
    )
}

// The speedup is median-based: means are vulnerable to scheduler
// hiccups landing in one arm's window, which would make CI smoke
// numbers flap.
fn pair_json(workload: &str, opt: &Dist, reference: &Dist) -> String {
    format!(
        "{{\"workload\":\"{}\",\"opt\":{},\"ref\":{},\"speedup\":{:.3}}}",
        workload,
        dist_json(opt),
        dist_json(reference),
        reference.p50_ns / opt.p50_ns
    )
}

fn interp_workloads(mode: &Mode) -> Vec<String> {
    let mut rows = Vec::new();
    let programs = [
        ("cache_query_miss", cache_query(), &b"GET k"[..]),
        ("nops_10", nop_program(10), &b""[..]),
        ("nops_20", nop_program(20), &b""[..]),
        ("nops_30", nop_program(30), &b""[..]),
    ];
    for (name, program, payload) in &programs {
        let mut hl = HotLoop::new(program, payload);
        let opt = measure(mode.interp_warmup, mode.interp_iters, || hl.step());
        let mut hl = HotLoop::new(program, payload);
        let reference = measure(mode.interp_warmup, mode.interp_iters, || {
            hl.step_reference();
        });
        eprintln!(
            "interp/{name}: opt {:.0} ns, ref {:.0} ns, speedup {:.2}x",
            opt.p50_ns,
            reference.p50_ns,
            reference.p50_ns / opt.p50_ns
        );
        rows.push(pair_json(name, &opt, &reference));
    }
    rows
}

fn alloc_workloads(mode: &Mode) -> Vec<String> {
    let cfg = SwitchConfig::default();
    let mut rows = Vec::new();
    for (policy, plabel) in [
        (MutantPolicy::MostConstrained, "mc"),
        (MutantPolicy::LeastConstrained, "lc"),
    ] {
        for kind in AppKind::ALL {
            let pattern = pattern_of(kind, 1024);
            let name = format!("{}_{}", plabel, kind.label());
            let mut alloc = loaded_allocator(&cfg);
            let opt = measure_admission(
                &mut alloc,
                &pattern,
                policy,
                false,
                mode.alloc_warmup,
                mode.alloc_iters,
            );
            let mut alloc = loaded_allocator(&cfg);
            let reference = measure_admission(
                &mut alloc,
                &pattern,
                policy,
                true,
                mode.alloc_warmup,
                mode.alloc_iters,
            );
            let speedup = reference.p50_ns / opt.p50_ns;
            eprintln!(
                "alloc/{name}: opt {:.0} ns, ref {:.0} ns, speedup {speedup:.2}x",
                opt.p50_ns, reference.p50_ns,
            );
            // Regression gate: the incremental search must never lose to
            // the reference it memoizes over — this is what caught the
            // mc_hh memo-invalidation regression.
            assert!(
                speedup >= 1.0,
                "alloc workload {name} regressed: incremental speedup {speedup:.3} < 1.0"
            );
            rows.push(pair_json(&name, &opt, &reference));
        }
    }
    rows
}

/// The shard-by-FID worker-pool sweep (`"parallel"` in the JSON). Each
/// worker count pushes the same 32-flow cache workload through a
/// [`PooledLoop`]; throughput is reported two ways:
///
/// * `wall_pps` — frames over dispatcher wall-clock. On a single-CPU
///   runner the workers time-slice one core, so this cannot show
///   parallel speedup and is reported for transparency only.
/// * `critical_path_pps` — frames over the *maximum* per-shard busy
///   time: the rate the pool sustains once shards genuinely overlap
///   (they share no mutable state, so given cores their busy windows
///   run concurrently). This is the scaling headline (DESIGN.md §15).
///
/// Asserts zero heap allocations per steady-state frame at every worker
/// count, and ≥ 3.5× critical-path scaling at 8 workers vs 1 when both
/// are in the sweep (override the sweep with `HOTPATH_WORKERS=1,2`).
fn parallel(mode: &Mode) -> String {
    let sweep: Vec<usize> = std::env::var("HOTPATH_WORKERS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    const FIDS: u16 = 32;
    let mut rows = Vec::new();
    let mut crit: Vec<(usize, f64)> = Vec::new();
    let mut table = String::from(
        "# Worker-pool scaling\n\n\
         | workers | frames | wall pps | critical-path pps | allocs/frame | max shard busy (ms) |\n\
         |---:|---:|---:|---:|---:|---:|\n",
    );
    for &w in &sweep {
        let mut pl = PooledLoop::new(w, FIDS, &cache_query(), b"GET k");
        for _ in 0..mode.par_warmup_rounds {
            pl.round(mode.par_round_frames);
        }
        // The pool's high-water marks (inbox depth, batch containers in
        // flight) depend on thread scheduling, so a fixed warmup can
        // under-fill the freelists on a loaded machine. Keep warming
        // until one full round runs allocation-free; a genuine
        // per-frame leak allocates every round and exhausts the cap,
        // so this cannot mask a regression.
        for i in 0.. {
            assert!(
                i < 64,
                "pooled warmup never reached an allocation-free round at {w} workers"
            );
            let before = alloc_count();
            pl.round(mode.par_round_frames);
            if alloc_count() == before {
                break;
            }
        }
        let ws0 = pl.worker_stats();
        let before = alloc_count();
        let t = Instant::now();
        for _ in 0..mode.par_rounds {
            pl.round(mode.par_round_frames);
        }
        let wall_s = t.elapsed().as_secs_f64();
        let allocs = alloc_count() - before;
        let ws1 = pl.worker_stats();
        let frames: u64 = ws1.iter().zip(&ws0).map(|(a, b)| a.frames - b.frames).sum();
        let max_busy = ws1
            .iter()
            .zip(&ws0)
            .map(|(a, b)| a.busy_ns - b.busy_ns)
            .max()
            .unwrap_or(1)
            .max(1);
        let apf = allocs as f64 / frames as f64;
        let wall_pps = frames as f64 / wall_s;
        let crit_pps = frames as f64 * 1e9 / max_busy as f64;
        let worker_frames: Vec<String> = ws1
            .iter()
            .zip(&ws0)
            .map(|(a, b)| (a.frames - b.frames).to_string())
            .collect();
        eprintln!(
            "parallel/{w}w: {frames} frames, wall {wall_pps:.0} pps, \
             critical-path {crit_pps:.0} pps, allocs/frame {apf:.3}"
        );
        assert!(
            allocs == 0,
            "pooled steady state allocated: {allocs} allocations over {frames} frames at {w} workers"
        );
        let _ = writeln!(
            table,
            "| {w} | {frames} | {wall_pps:.0} | {crit_pps:.0} | {apf:.3} | {:.2} |",
            max_busy as f64 / 1e6
        );
        rows.push(format!(
            "{{\"workers\":{w},\"frames\":{frames},\"wall_s\":{wall_s:.4},\"wall_pps\":{wall_pps:.1},\
             \"critical_path_pps\":{crit_pps:.1},\"allocs_per_frame\":{apf:.3},\
             \"max_shard_busy_ns\":{max_busy},\"worker_frames\":[{}]}}",
            worker_frames.join(",")
        ));
        crit.push((w, crit_pps));
    }
    let one = crit.iter().find(|(w, _)| *w == 1).map(|(_, p)| *p);
    let eight = crit.iter().find(|(w, _)| *w == 8).map(|(_, p)| *p);
    let scaling_json = match (one, eight) {
        (Some(p1), Some(p8)) => {
            let s = p8 / p1;
            eprintln!("parallel: critical-path scaling 8v1 = {s:.2}x");
            assert!(
                s >= 3.5,
                "worker pool scaled only {s:.2}x at 8 workers (target >= 3.5x)"
            );
            let _ = writeln!(table, "\ncritical-path scaling 8 vs 1 workers: **{s:.2}x**");
            format!("{s:.3}")
        }
        _ => "null".to_string(),
    };
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/parallel_scaling.md", &table)
        .expect("write results/parallel_scaling.md");
    format!(
        "{{\"batch_frames\":64,\"fids\":{FIDS},\"sweep\":[\n    {}\n  ],\"scaling_8v1\":{scaling_json}}}",
        rows.join(",\n    ")
    )
}

/// End-to-end: one cache client querying a KV server through the
/// switch; wall-clock packets/sec over the whole simulated window
/// (allocation handshake included).
fn e2e(mode: &Mode) -> String {
    let mut sim = Simulation::new(
        NetConfig::default(),
        SwitchNode::new(SWITCH, SwitchConfig::default(), Scheme::WorstFit),
    );
    sim.add_host(Box::new(KvServerHost::new(SERVER, 50_000)));
    sim.add_host(Box::new(CacheClientHost::new(CacheClientConfig {
        mac: CLIENT,
        switch_mac: SWITCH,
        server_mac: SERVER,
        fid: 50,
        start_ns: 0,
        monitor_ns: None,
        populate_top: 0,
        req_interval_ns: 10_000,
        keyspace: 10_000,
        zipf_alpha: 1.2,
        seed: 7,
        policy: MutantPolicy::MostConstrained,
        num_stages: 20,
        ingress_stages: 10,
        max_extra_recircs: 1,
    })));
    let t = Instant::now();
    sim.run_until(mode.e2e_sim_ns);
    let wall_s = t.elapsed().as_secs_f64();
    let delivered = sim.delivered();
    let pps = delivered as f64 / wall_s;
    eprintln!("e2e: {delivered} frames delivered in {wall_s:.3}s wall -> {pps:.0} packets/s");
    format!(
        "{{\"sim_ns\":{},\"wall_s\":{:.4},\"delivered\":{},\"packets_per_sec\":{:.1}}}",
        mode.e2e_sim_ns, wall_s, delivered, pps
    )
}

/// Heap allocations per steady-state frame on each path.
fn allocs_per_frame(mode: &Mode) -> (f64, f64) {
    let mut hl = HotLoop::new(&cache_query(), b"GET k");
    for _ in 0..16 {
        hl.step(); // settle buffer capacities
    }
    let before = alloc_count();
    for _ in 0..mode.alloc_probe_frames {
        hl.step();
    }
    let opt = (alloc_count() - before) as f64 / mode.alloc_probe_frames as f64;
    for _ in 0..16 {
        hl.step_reference();
    }
    let before = alloc_count();
    for _ in 0..mode.alloc_probe_frames {
        hl.step_reference();
    }
    let reference = (alloc_count() - before) as f64 / mode.alloc_probe_frames as f64;
    eprintln!("allocs/frame: opt {opt:.3}, ref {reference:.3}");
    (opt, reference)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("HOTPATH_QUICK").is_ok_and(|v| v == "1");
    let mode = if quick { QUICK } else { FULL };
    eprintln!("hotpath: {} mode", mode.label);

    let interp = interp_workloads(&mode);
    let alloc = alloc_workloads(&mode);
    let e2e = e2e(&mode);
    let parallel = parallel(&mode);
    let (apf_opt, apf_ref) = allocs_per_frame(&mode);

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"mode\": \"{}\",\n  \"interp\": [\n    {}\n  ],\n  \"alloc\": [\n    {}\n  ],\n  \"e2e\": {},\n  \"parallel\": {},\n  \"allocs_per_frame\": {{\"opt\":{:.3},\"ref\":{:.3}}}\n}}\n",
        mode.label,
        interp.join(",\n    "),
        alloc.join(",\n    "),
        e2e,
        parallel,
        apf_opt,
        apf_ref
    );
    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    print!("{json}");
}
