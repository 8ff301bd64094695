//! The reference interpretation path: decode into a fresh `Vec` per frame.
//!
//! [`SwitchRuntime::process_frame_reference_at`] is the pre-optimization
//! execution driver kept verbatim (modulo the malformed-word bugfix,
//! which both paths need for parity): it parses the instruction stream
//! into a fresh `Vec` on every frame, resolves protection through the
//! FID-keyed lookups, and allocates its own output vector. It exists for
//! two reasons:
//!
//! * the differential proptests pin the optimized hot path
//!   (table decode into a fixed scratch + dense protection slots) to be
//!   observationally identical to this one — frames, stats, and
//!   register state;
//! * the bench harness measures the optimized path's speedup against it
//!   (`BENCH_hotpath.json`), which would be impossible against code
//!   that no longer exists.
//!
//! Semantics here must track [`exec`](crate::runtime::exec) exactly;
//! any divergence is a bug in one of the two.

use crate::runtime::decode::{MalformedProgram, MAX_INSTRS};
use crate::runtime::exec::{OutputAction, SwitchOutput, SwitchRuntime};
use crate::runtime::interp;
use activermt_isa::constants::{ACTIVE_ETHERTYPE, ETHERNET_HEADER_LEN, NUM_ARGS};
use activermt_isa::wire::{program_packet_layout, ActiveHeader, EthernetFrame, PacketType};
use activermt_isa::{Instruction, Opcode};
use activermt_rmt::traffic::Verdict;
use activermt_rmt::Phv;

impl SwitchRuntime {
    /// Decode an EOF-terminated stream into a fresh `Vec`, mirroring
    /// the fast path's malformed-stream rules (an undecodable word,
    /// a missing EOF, or an over-long program is an error — never a
    /// compaction).
    fn decode_reference(bytes: &[u8]) -> Result<Vec<Instruction>, MalformedProgram> {
        let mut instrs = Vec::new();
        for chunk in bytes.chunks_exact(2) {
            let ins = Instruction::from_bytes(chunk[0], chunk[1]).map_err(|_| MalformedProgram)?;
            if ins.opcode == Opcode::EOF {
                return Ok(instrs);
            }
            if instrs.len() >= MAX_INSTRS {
                return Err(MalformedProgram);
            }
            instrs.push(ins);
        }
        Err(MalformedProgram)
    }

    /// Process one frame with the reference (allocating)
    /// interpretation path. Observationally identical to
    /// [`SwitchRuntime::process_frame_at`].
    pub fn process_frame_reference_at(
        &mut self,
        now_ns: u64,
        mut frame: Vec<u8>,
    ) -> Vec<SwitchOutput> {
        self.stats.frames.inc();
        let half = self.config.pass_latency_ns;

        let Ok(eth) = EthernetFrame::new_checked(&frame[..]) else {
            self.stats.malformed_drops.inc();
            return Vec::new();
        };
        if eth.ethertype() != ACTIVE_ETHERTYPE {
            self.stats.transparent_forwards.inc();
            self.traffic.account(Verdict::Forward);
            return vec![SwitchOutput {
                frame,
                action: OutputAction::Forward,
                latency_ns: 2 * half,
                passes: 1,
                dst_override: None,
            }];
        }

        let Ok(hdr) = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]) else {
            self.stats.malformed_drops.inc();
            return Vec::new();
        };
        let fid = hdr.fid();
        let ptype = hdr.flags().packet_type();
        if ptype != PacketType::Program {
            self.traffic.account(Verdict::Forward);
            return vec![SwitchOutput {
                frame,
                action: OutputAction::Forward,
                latency_ns: 2 * half,
                passes: 1,
                dst_override: None,
            }];
        }

        self.stats.active_frames.inc();
        if self.deactivated.contains(&fid) {
            self.stats.deactivated_passthroughs.inc();
            let mut h = ActiveHeader::new_unchecked(&mut frame[ETHERNET_HEADER_LEN..]);
            let mut flags = h.flags();
            flags.set_deactivated(true);
            h.set_flags(flags);
            self.traffic.account(Verdict::Forward);
            return vec![SwitchOutput {
                frame,
                action: OutputAction::Forward,
                latency_ns: 2 * half,
                passes: 1,
                dst_override: None,
            }];
        }

        if hdr.flags().complete() {
            self.traffic.account(Verdict::Forward);
            return vec![SwitchOutput {
                frame,
                action: OutputAction::Forward,
                latency_ns: 2 * half,
                passes: 1,
                dst_override: None,
            }];
        }

        let Ok(layout) = program_packet_layout(&frame) else {
            self.stats.malformed_drops.inc();
            self.fid_table.entry(fid).or_default().malformed += 1;
            return Vec::new();
        };

        // Parse instructions and arguments into the PHV — a fresh heap
        // allocation per frame, by design.
        let instrs = match Self::decode_reference(&frame[layout.instr_off..layout.payload_off]) {
            Ok(i) => i,
            Err(MalformedProgram) => {
                self.stats.malformed_drops.inc();
                self.fid_table.entry(fid).or_default().malformed += 1;
                return Vec::new();
            }
        };
        let mut args = [0u32; NUM_ARGS];
        for (i, a) in args.iter_mut().enumerate() {
            let off = layout.args_off + i * 4;
            *a = u32::from_be_bytes([frame[off], frame[off + 1], frame[off + 2], frame[off + 3]]);
        }
        let seq = hdr.seq();
        let mut phv = Phv::new(fid, seq, args);
        phv.recirc_count = hdr.recirc_count();
        let head_start = (layout.payload_off + 1).min(frame.len());
        let head_end = (head_start + 8).min(frame.len());
        phv.five_tuple =
            self.crc.checksum(&frame[..12]) ^ self.crc.checksum(&frame[head_start..head_end]);

        phv.disabled = hdr.flags().disabled();
        phv.rts_done = hdr.flags().rts_done();
        if phv.disabled {
            phv.pending_branch = Some((hdr.aux() & 0x3F) as u8);
        }

        // ----- the pass loop (FID-keyed lookups every instruction) -----
        let n = self.config.num_stages;
        let mut pc = instrs.iter().take_while(|i| i.flags.executed).count();
        let mut passes = 0u32;
        let mut halves = 0u64;
        let mut rts_stage: Option<usize> = None;
        'outer: loop {
            passes += 1;
            let mut last_stage_used = 0usize;
            for stage_idx in 0..n {
                if pc >= instrs.len() || !phv.executing() {
                    break;
                }
                last_stage_used = stage_idx;
                let ins = instrs[pc];
                let prot = if matches!(ins.opcode, Opcode::ADDR_MASK | Opcode::ADDR_OFFSET) {
                    self.protect.translation_for(stage_idx, fid)
                } else {
                    self.protect.lookup(stage_idx, fid).copied()
                };
                if self.config.enforce_privileges
                    && ins.opcode.requires_privilege()
                    && !self.privileged.contains(&fid)
                    && !phv.disabled
                {
                    self.stats.privilege_drops.inc();
                    phv.violation = true;
                    self.pipeline.stage_mut(stage_idx).stats.violations += 1;
                    pc += 1;
                    continue;
                }
                if phv.disabled {
                    if ins.label().is_some() && ins.label() == phv.pending_branch {
                        phv.disabled = false;
                        phv.pending_branch = None;
                        interp::execute(
                            &mut phv,
                            ins,
                            self.pipeline.stage_mut(stage_idx),
                            prot.as_ref(),
                            &self.crc,
                        );
                    } else {
                        self.pipeline.stage_mut(stage_idx).stats.skipped += 1;
                    }
                } else {
                    interp::execute(
                        &mut phv,
                        ins,
                        self.pipeline.stage_mut(stage_idx),
                        prot.as_ref(),
                        &self.crc,
                    );
                }
                if phv.rts && rts_stage.is_none() {
                    rts_stage = Some(stage_idx);
                }
                pc += 1;
            }
            let done = pc >= instrs.len() || !phv.executing();
            let ingress_only = last_stage_used < self.config.ingress_stages;
            let turns_around = phv.rts_done && done;
            halves += if ingress_only && turns_around { 1 } else { 2 };
            if done {
                break 'outer;
            }
            if !self.traffic.may_recirculate(phv.recirc_count) {
                self.traffic.account_cap_drop();
                phv.drop = true;
                break 'outer;
            }
            if let Some(l) = self.recirc_limiter.as_mut() {
                if !l.allow(fid, now_ns) {
                    self.stats.recirc_budget_drops.inc();
                    phv.drop = true;
                    break 'outer;
                }
            }
            phv.recirc_count = phv.recirc_count.saturating_add(1);
            self.traffic.account(Verdict::Recirculate);
        }

        if let Some(s) = rts_stage {
            if s >= self.config.ingress_stages {
                let budget_ok = match self.recirc_limiter.as_mut() {
                    Some(l) => l.allow(fid, now_ns),
                    None => true,
                };
                if !budget_ok {
                    self.stats.recirc_budget_drops.inc();
                    phv.drop = true;
                } else if self.traffic.may_recirculate(phv.recirc_count) {
                    phv.recirc_count = phv.recirc_count.saturating_add(1);
                    self.traffic.account(Verdict::Recirculate);
                    passes += 1;
                    halves += 2;
                } else {
                    self.traffic.account_cap_drop();
                    phv.drop = true;
                }
            }
        }

        if phv.violation {
            self.stats.violation_drops.inc();
        }
        // Per-FID accounting, mirroring the optimized path exactly.
        {
            let f = self.fid_table.entry(fid).or_default();
            f.interpreted += 1;
            f.recirculations += u64::from(passes.saturating_sub(1));
            if phv.violation {
                f.denials += 1;
            }
        }
        if phv.drop || phv.violation {
            self.traffic.account(Verdict::Drop);
            return Vec::new();
        }

        // ----- write results back into the frame -----
        for (i, a) in phv.args.iter().enumerate() {
            frame[layout.args_off + i * 4..layout.args_off + i * 4 + 4]
                .copy_from_slice(&a.to_be_bytes());
        }
        for (k, chunk) in frame[layout.instr_off..layout.payload_off]
            .chunks_exact_mut(2)
            .enumerate()
        {
            if k < pc {
                let mut fl = activermt_isa::InstrFlags::from_byte(chunk[1]);
                fl.executed = true;
                chunk[1] = fl.to_byte();
            }
        }
        {
            let mut h = ActiveHeader::new_unchecked(&mut frame[ETHERNET_HEADER_LEN..]);
            let mut flags = h.flags();
            flags.set_complete(phv.complete);
            flags.set_disabled(phv.disabled);
            flags.set_rts_done(phv.rts_done);
            flags.set_from_switch(phv.rts_done);
            h.set_flags(flags);
            h.set_recirc_count(phv.recirc_count);
            h.set_aux(u16::from(phv.pending_branch.unwrap_or(0)));
        }

        let latency_ns = halves * half;
        let mut outputs = Vec::with_capacity(2);
        if phv.fork {
            self.traffic.account_clone();
            self.traffic.account(Verdict::Recirculate);
            outputs.push(SwitchOutput {
                frame: frame.clone(),
                action: OutputAction::Forward,
                latency_ns: latency_ns + 2 * half,
                passes: passes + 1,
                dst_override: phv.dst_override,
            });
        }
        let action = if phv.rts_done {
            let mut eth = EthernetFrame::new_unchecked(&mut frame[..]);
            eth.swap_addresses();
            self.traffic.account(Verdict::ReturnToSender);
            OutputAction::ToSender
        } else {
            self.traffic.account(Verdict::Forward);
            OutputAction::Forward
        };
        outputs.push(SwitchOutput {
            frame,
            action,
            latency_ns,
            passes,
            dst_override: phv.dst_override,
        });
        outputs
    }
}
