//! Differential property tests: the optimized interpreter (fixed
//! decode scratch, slot-indexed protection, in-place writeback,
//! caller-owned output buffers) must be byte-identical to the reference
//! implementation ([`SwitchRuntime::process_frame_reference_at`]) on
//! every observable axis — emitted frames, forwarding actions,
//! latency/pass accounting, runtime statistics, and the full register
//! state of every stage — across random programs, recirculation, and
//! deactivation/reallocation interleavings.

use activermt_core::runtime::{SwitchOutput, SwitchRuntime};
use activermt_core::SwitchConfig;
use activermt_isa::wire::{build_program_packet, RegionEntry};
use activermt_isa::{Opcode, OperandKind, Program, ProgramBuilder};
use proptest::prelude::*;

const CLIENT: [u8; 6] = [0x02, 0, 0, 0, 0, 1];
const SERVER: [u8; 6] = [0x02, 0, 0, 0, 0, 2];
const FID: u16 = 7;

/// Opcodes eligible for random program bodies: everything except EOF
/// (the on-wire terminator; the packet builder appends it) and
/// label-operand branches (which need a validated forward target the
/// generator does not construct).
fn body_opcodes() -> Vec<Opcode> {
    Opcode::ALL
        .iter()
        .copied()
        .filter(|op| *op != Opcode::EOF && op.operand_kind() != OperandKind::Label)
        .collect()
}

/// Build a program from `(opcode index, operand)` picks, RETURN-terminated.
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

/// Deduplicated, sorted stage picks (the stub proptest has no set
/// strategy).
fn stage_set(raw: &[usize]) -> Vec<usize> {
    let mut s: Vec<usize> = raw.iter().map(|v| v % 20).collect();
    s.sort_unstable();
    s.dedup();
    s
}

fn grant_stages(rt: &mut SwitchRuntime, stages: &[usize]) {
    for &s in stages {
        rt.install_region(
            s,
            FID,
            RegionEntry {
                start: 0,
                end: 65_536,
            },
        );
    }
}

/// Compare every observable of the two runtimes after identical inputs
/// (panics on divergence, per the stub's assert-based prop macros).
fn assert_equivalent(
    opt: &SwitchRuntime,
    reference: &SwitchRuntime,
    out_opt: &[SwitchOutput],
    out_ref: &[SwitchOutput],
) {
    prop_assert_eq!(out_opt.len(), out_ref.len(), "output count");
    for (a, b) in out_opt.iter().zip(out_ref.iter()) {
        prop_assert_eq!(&a.frame, &b.frame, "emitted frame bytes");
        prop_assert_eq!(a.action, b.action);
        prop_assert_eq!(a.latency_ns, b.latency_ns);
        prop_assert_eq!(a.passes, b.passes);
        prop_assert_eq!(a.dst_override, b.dst_override);
    }
    prop_assert_eq!(opt.stats(), reference.stats(), "runtime stats");
    let (po, pr) = (opt.pipeline(), reference.pipeline());
    prop_assert_eq!(po.num_stages(), pr.num_stages());
    for s in 0..po.num_stages() {
        let (so, sr) = (po.stage(s), pr.stage(s));
        let n = so.registers.len() as u32;
        prop_assert_eq!(sr.registers.len() as u32, n);
        prop_assert_eq!(
            so.registers.peek_range(0, n),
            sr.registers.peek_range(0, n),
            "stage {} register contents",
            s
        );
        prop_assert_eq!(so.stats.instructions, sr.stats.instructions);
        prop_assert_eq!(so.stats.memory_ops, sr.stats.memory_ops);
        prop_assert_eq!(so.stats.violations, sr.stats.violations);
        prop_assert_eq!(so.stats.skipped, sr.stats.skipped);
    }
}

/// One step of a control/data interleaving, decoded from sampled
/// integers (the stub proptest has no `prop_oneof`).
#[derive(Debug, Clone)]
enum Step {
    /// Send program `i % programs.len()` with the given seq.
    Frame(usize, u16),
    /// Quiesce the FID (frames bounce back marked deactivated).
    Deactivate,
    /// Resume the FID.
    Reactivate,
    /// Reallocate: tear down all grants, install `stages` instead.
    Regrant(Vec<usize>),
    /// Toggle FORK/SET_DST privilege.
    Privilege(bool),
}

fn decode_step(kind: u32, prog: usize, seq: u16, stages: &[usize]) -> Step {
    match kind {
        0..=5 => Step::Frame(prog, seq),
        6 => Step::Deactivate,
        7 => Step::Reactivate,
        8 => Step::Regrant(stage_set(stages)),
        _ => Step::Privilege(seq.is_multiple_of(2)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-frame equivalence over random programs and grants.
    #[test]
    fn optimized_matches_reference_per_frame(
        picks in prop::collection::vec((0usize..64, 0u8..8), 1..24),
        args in prop::array::uniform4(any::<u32>()),
        raw_stages in prop::collection::vec(0usize..20, 0..6),
        payload in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let Some(program) = synth_program(&picks, args) else {
            return;
        };
        let mut rt = SwitchRuntime::new(SwitchConfig::default());
        grant_stages(&mut rt, &stage_set(&raw_stages));
        let mut rt_ref = rt.clone();
        let frame = build_program_packet(SERVER, CLIENT, FID, 1, &program, &payload);
        let out_opt = rt.process_frame_at(0, frame.clone());
        let out_ref = rt_ref.process_frame_reference_at(0, frame);
        assert_equivalent(&rt, &rt_ref, &out_opt, &out_ref);
    }

    /// Equivalence across whole interleavings of traffic with
    /// deactivation, reallocation and privilege flips.
    #[test]
    fn optimized_matches_reference_across_interleavings(
        picks1 in prop::collection::vec((0usize..64, 0u8..8), 1..16),
        picks2 in prop::collection::vec((0usize..64, 0u8..8), 1..16),
        args in prop::array::uniform4(any::<u32>()),
        init_raw in prop::collection::vec(0usize..20, 1..5),
        raw_steps in prop::collection::vec(
            (0u32..10, 0usize..8, 1u16..1000, prop::collection::vec(0usize..20, 1..5)),
            1..32,
        ),
    ) {
        let programs: Vec<Program> = [picks1, picks2]
            .iter()
            .filter_map(|p| synth_program(p, args))
            .collect();
        if programs.is_empty() {
            return;
        }
        let mut rt = SwitchRuntime::new(SwitchConfig::default());
        let init = stage_set(&init_raw);
        grant_stages(&mut rt, &init);
        let mut rt_ref = rt.clone();
        let mut granted = init;
        for (t, (kind, prog, seq, stages)) in raw_steps.iter().enumerate() {
            match decode_step(*kind, *prog, *seq, stages) {
                Step::Frame(i, seq) => {
                    let p = &programs[i % programs.len()];
                    let frame =
                        build_program_packet(SERVER, CLIENT, FID, seq, p, b"x");
                    let out_opt = rt.process_frame_at(t as u64, frame.clone());
                    let out_ref = rt_ref.process_frame_reference_at(t as u64, frame);
                    assert_equivalent(&rt, &rt_ref, &out_opt, &out_ref);
                }
                Step::Deactivate => {
                    rt.deactivate(FID);
                    rt_ref.deactivate(FID);
                }
                Step::Reactivate => {
                    rt.reactivate(FID);
                    rt_ref.reactivate(FID);
                }
                Step::Regrant(stages) => {
                    for s in granted.drain(..) {
                        rt.remove_region(s, FID);
                        rt_ref.remove_region(s, FID);
                    }
                    grant_stages(&mut rt, &stages);
                    grant_stages(&mut rt_ref, &stages);
                    granted = stages;
                }
                Step::Privilege(on) => {
                    if on {
                        rt.grant_privilege(FID);
                        rt_ref.grant_privilege(FID);
                    } else {
                        rt.revoke_privilege(FID);
                        rt_ref.revoke_privilege(FID);
                    }
                }
            }
        }
        prop_assert_eq!(rt.stats(), rt_ref.stats());
    }

    /// Malformed instruction streams (truncations, corrupt opcode
    /// bytes) are dropped identically: same malformed count, no
    /// divergence in emitted frames.
    #[test]
    fn malformed_frames_drop_identically(
        picks in prop::collection::vec((0usize..64, 0u8..8), 1..12),
        cut in 0usize..40,
        corrupt in prop::option::of((0usize..20, any::<u8>())),
    ) {
        let Some(program) = synth_program(&picks, [0; 4]) else {
            return;
        };
        let mut frame = build_program_packet(SERVER, CLIENT, FID, 1, &program, b"");
        if let Some((off, byte)) = corrupt {
            let pos = 42 + off; // somewhere in/after the instruction block
            if pos < frame.len() {
                frame[pos] = byte;
            }
        }
        let keep = frame.len().saturating_sub(cut).max(14);
        frame.truncate(keep);
        let mut rt = SwitchRuntime::new(SwitchConfig::default());
        grant_stages(&mut rt, &[1, 4, 8]);
        let mut rt_ref = rt.clone();
        let out_opt = rt.process_frame_at(0, frame.clone());
        let out_ref = rt_ref.process_frame_reference_at(0, frame);
        assert_equivalent(&rt, &rt_ref, &out_opt, &out_ref);
    }
}
