//! Shard-determinism differential property tests: the sharded worker
//! pool ([`ShardedExecutor`]) must be observationally identical to a
//! single-threaded [`SwitchRuntime`] fed the same frames in the same
//! order — the drained output sequence (restored by the global `(tag,
//! ord)` sort) byte-for-byte, every FID's register end-state on its
//! owner shard, and the folded runtime/traffic statistics — across
//! random programs, worker counts, batch sizes, non-active handoff
//! traffic, and control-plane interleavings (deactivation, regrants)
//! that exercise the executor's fencing.

use activermt_core::runtime::{DataPlane, ShardedExecutor, SwitchOutput, SwitchRuntime};
use activermt_core::SwitchConfig;
use activermt_isa::wire::{build_program_packet, RegionEntry};
use activermt_isa::{Opcode, OperandKind, Program, ProgramBuilder};
use proptest::prelude::*;

const CLIENT: [u8; 6] = [0x02, 0, 0, 0, 0, 1];
const SERVER: [u8; 6] = [0x02, 0, 0, 0, 0, 2];

/// Flows under test. Each gets a disjoint 4096-register slice of every
/// granted stage, mirroring the allocator's no-overlap invariant the
/// sharding correctness argument rests on.
const FIDS: usize = 6;

fn fid_of(i: usize) -> u16 {
    100 + i as u16
}

fn region_of(i: usize) -> RegionEntry {
    RegionEntry {
        start: i as u32 * 4096,
        end: (i as u32 + 1) * 4096,
    }
}

/// Opcodes eligible for random program bodies (as in the
/// single-runtime differential suite).
fn body_opcodes() -> Vec<Opcode> {
    Opcode::ALL
        .iter()
        .copied()
        .filter(|op| *op != Opcode::EOF && op.operand_kind() != OperandKind::Label)
        .collect()
}

fn synth_program(picks: &[(usize, u8)], args: [u32; 4]) -> Option<Program> {
    let pool = body_opcodes();
    let mut b = ProgramBuilder::new();
    for &(i, operand) in picks {
        let op = pool[i % pool.len()];
        b = match op.operand_kind() {
            OperandKind::ArgIndex => b.op_arg(op, operand % 4),
            _ => b.op(op),
        };
    }
    b = b.op(Opcode::RETURN);
    for (i, &a) in args.iter().enumerate() {
        b = b.arg(i, a);
    }
    b.build().ok()
}

/// Bias raw argument values into FID `i`'s granted register slice so
/// memory opcodes mostly hit (violations still occur — and must match —
/// but all-violation runs would leave the register comparison vacuous).
fn args_for(i: usize, raw: [u32; 4]) -> [u32; 4] {
    let r = region_of(i);
    raw.map(|a| r.start + (a % 4096))
}

/// A non-active Ethernet frame (IPv4 ethertype): carries no FID, so
/// the executor routes it round-robin as a handoff.
fn plain_frame(seq: u16) -> Vec<u8> {
    let mut f = vec![0u8; 18];
    f[0..6].copy_from_slice(&CLIENT);
    f[6..12].copy_from_slice(&SERVER);
    f[12] = 0x08;
    f[13] = 0x00;
    f[14..16].copy_from_slice(&seq.to_be_bytes());
    f
}

fn grant_all(rt: &mut SwitchRuntime, ex: &mut ShardedExecutor, stages: &[usize]) {
    for i in 0..FIDS {
        for &s in stages {
            rt.install_region(s, fid_of(i), region_of(i));
            ex.install_region(s, fid_of(i), region_of(i));
        }
    }
}

/// The pooled output sequence (already `(tag, ord)`-sorted by
/// `drain_into`) must equal the single-threaded one on every field.
fn assert_outputs_equal(single: &[SwitchOutput], pooled: &[activermt_core::TaggedOutput]) {
    assert_eq!(
        single.len(),
        pooled.len(),
        "pooled output count diverged from single-threaded"
    );
    for (k, (a, t)) in single.iter().zip(pooled.iter()).enumerate() {
        let b = &t.output;
        assert_eq!(a.frame, b.frame, "output {k}: emitted frame bytes");
        assert_eq!(a.action, b.action, "output {k}: action");
        assert_eq!(a.latency_ns, b.latency_ns, "output {k}: latency");
        assert_eq!(a.passes, b.passes, "output {k}: passes");
        assert_eq!(a.dst_override, b.dst_override, "output {k}: dst");
    }
}

/// Every FID's register end-state in its granted slices, read from the
/// owner shard, must equal the single runtime's.
fn assert_fid_registers(rt: &SwitchRuntime, ex: &ShardedExecutor, stages: &[usize]) {
    for i in 0..FIDS {
        let fid = fid_of(i);
        let r = region_of(i);
        ex.with_runtime(ex.shard_of(fid), |shard_rt| {
            for &s in stages {
                let n = r.end - r.start;
                assert_eq!(
                    rt.pipeline().stage(s).registers.peek_range(r.start, n),
                    shard_rt
                        .pipeline()
                        .stage(s)
                        .registers
                        .peek_range(r.start, n),
                    "fid {fid} stage {s}: register end-state diverged"
                );
            }
        });
    }
}

fn assert_stats_equal(rt: &SwitchRuntime, ex: &ShardedExecutor) {
    assert_eq!(ex.stats(), rt.stats(), "runtime stats diverged");
    let (ts, tp) = (rt.traffic_stats(), ex.traffic_stats());
    assert_eq!(tp.forwarded, ts.forwarded, "forwarded");
    assert_eq!(tp.dropped, ts.dropped, "dropped");
    assert_eq!(tp.recirculations, ts.recirculations, "recirculations");
}

/// One step of a traffic/control interleaving, decoded from sampled
/// integers.
#[derive(Debug, Clone)]
enum Step {
    /// Send program `prog` for FID index `i` (or a plain non-active
    /// frame when `i == FIDS`).
    Frame(usize, usize, u16),
    Deactivate(usize),
    Reactivate(usize),
    /// Tear down FID `i`'s grants and re-install on the new stage set
    /// (its register slice is unchanged, preserving disjointness).
    Regrant(usize, Vec<usize>),
}

fn stage_set(raw: &[usize]) -> Vec<usize> {
    let mut s: Vec<usize> = raw.iter().map(|v| v % 20).collect();
    s.sort_unstable();
    s.dedup();
    s
}

fn decode_step(kind: u32, i: usize, prog: usize, seq: u16, stages: &[usize]) -> Step {
    match kind {
        0..=5 => Step::Frame(i % (FIDS + 1), prog, seq),
        6 => Step::Deactivate(i % FIDS),
        7 => Step::Reactivate(i % FIDS),
        _ => Step::Regrant(i % FIDS, stage_set(stages)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Pure traffic: random frame sequences over 6 FIDs plus handoff
    /// traffic, across worker counts and batch sizes, must reproduce
    /// the single-threaded output sequence, per-FID register end-state
    /// and statistics exactly.
    #[test]
    fn pooled_matches_single_threaded(
        workers in 1usize..5,
        batch in 1usize..65,
        picks1 in prop::collection::vec((0usize..64, 0u8..8), 1..16),
        picks2 in prop::collection::vec((0usize..64, 0u8..8), 1..16),
        raw_args in prop::array::uniform4(any::<u32>()),
        raw_stages in prop::collection::vec(0usize..20, 1..5),
        frames in prop::collection::vec((0usize..7, 0usize..2, 1u16..1000), 1..80),
    ) {
        let programs: Vec<Vec<Program>> = (0..FIDS)
            .map(|i| {
                [&picks1, &picks2]
                    .iter()
                    .filter_map(|p| synth_program(p, args_for(i, raw_args)))
                    .collect()
            })
            .collect();
        if programs[0].is_empty() {
            return;
        }
        let stages = stage_set(&raw_stages);
        let mut rt = SwitchRuntime::new(SwitchConfig::default());
        let mut ex = ShardedExecutor::new(SwitchConfig::default(), workers, batch);
        grant_all(&mut rt, &mut ex, &stages);

        let mut out_single = Vec::new();
        for (t, &(fi, prog, seq)) in frames.iter().enumerate() {
            let fi = fi % (FIDS + 1);
            let frame = if fi == FIDS {
                plain_frame(seq)
            } else {
                let ps = &programs[fi];
                build_program_packet(SERVER, CLIENT, fid_of(fi), seq, &ps[prog % ps.len()], b"x")
            };
            out_single.extend(rt.process_frame_at(t as u64, frame.clone()));
            ex.enqueue(t as u64, frame);
        }
        let mut out_pooled = Vec::new();
        ex.drain_into(&mut out_pooled);

        assert_outputs_equal(&out_single, &out_pooled);
        assert_fid_registers(&rt, &ex, &stages);
        assert_stats_equal(&rt, &ex);
    }

    /// Traffic interleaved with control-plane mutations. Every mutating
    /// call on the executor fences (submits partial batches, waits for
    /// quiescence) before broadcasting, so deactivation and regrants
    /// land between exactly the same frames as on the single-threaded
    /// runtime.
    #[test]
    fn pooled_matches_single_threaded_under_control_interleavings(
        workers in 2usize..5,
        batch in 1usize..33,
        picks1 in prop::collection::vec((0usize..64, 0u8..8), 1..12),
        picks2 in prop::collection::vec((0usize..64, 0u8..8), 1..12),
        raw_args in prop::array::uniform4(any::<u32>()),
        init_raw in prop::collection::vec(0usize..20, 1..5),
        raw_steps in prop::collection::vec(
            (0u32..9, 0usize..8, 0usize..2, 1u16..1000, prop::collection::vec(0usize..20, 1..4)),
            1..48,
        ),
    ) {
        let programs: Vec<Vec<Program>> = (0..FIDS)
            .map(|i| {
                [&picks1, &picks2]
                    .iter()
                    .filter_map(|p| synth_program(p, args_for(i, raw_args)))
                    .collect()
            })
            .collect();
        if programs[0].is_empty() {
            return;
        }
        let init = stage_set(&init_raw);
        let mut rt = SwitchRuntime::new(SwitchConfig::default());
        let mut ex = ShardedExecutor::new(SwitchConfig::default(), workers, batch);
        grant_all(&mut rt, &mut ex, &init);
        let mut granted: Vec<Vec<usize>> = vec![init; FIDS];

        let mut out_single = Vec::new();
        for (t, (kind, i, prog, seq, stages)) in raw_steps.iter().enumerate() {
            match decode_step(*kind, *i, *prog, *seq, stages) {
                Step::Frame(fi, prog, seq) => {
                    let frame = if fi == FIDS {
                        plain_frame(seq)
                    } else {
                        let ps = &programs[fi];
                        build_program_packet(
                            SERVER, CLIENT, fid_of(fi), seq, &ps[prog % ps.len()], b"x",
                        )
                    };
                    out_single.extend(rt.process_frame_at(t as u64, frame.clone()));
                    ex.enqueue(t as u64, frame);
                }
                Step::Deactivate(i) => {
                    rt.deactivate(fid_of(i));
                    ex.deactivate(fid_of(i));
                }
                Step::Reactivate(i) => {
                    rt.reactivate(fid_of(i));
                    ex.reactivate(fid_of(i));
                }
                Step::Regrant(i, stages) => {
                    for s in granted[i].drain(..) {
                        rt.remove_region(s, fid_of(i));
                        ex.remove_region(s, fid_of(i));
                    }
                    for &s in &stages {
                        rt.install_region(s, fid_of(i), region_of(i));
                        ex.install_region(s, fid_of(i), region_of(i));
                    }
                    granted[i] = stages;
                }
            }
        }
        let mut out_pooled = Vec::new();
        ex.drain_into(&mut out_pooled);

        assert_outputs_equal(&out_single, &out_pooled);
        for (i, fid_stages) in granted.iter().enumerate() {
            let fid = fid_of(i);
            let r = region_of(i);
            ex.with_runtime(ex.shard_of(fid), |shard_rt| {
                for &s in fid_stages {
                    let n = r.end - r.start;
                    assert_eq!(
                        rt.pipeline().stage(s).registers.peek_range(r.start, n),
                        shard_rt.pipeline().stage(s).registers.peek_range(r.start, n),
                        "fid {fid} stage {s}: register end-state diverged"
                    );
                }
            });
        }
        assert_eq!(ex.stats(), rt.stats(), "runtime stats diverged");
    }
}
