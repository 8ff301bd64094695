//! The execution driver: passes, recirculation and packet rewriting.
//!
//! "In ActiveRMT, program instructions are executed at line-rate
//! directly on RMT stages one-by-one as the packet flows through the
//! switch pipeline: the order of instructions dictates the stage in
//! which each instruction will execute." (Section 1)
//!
//! [`SwitchRuntime::process_frame`] is the whole data plane: parse the
//! active headers into a PHV, run one instruction per logical stage,
//! recirculate while instructions remain (bounded by the recirculation
//! cap), let the traffic manager decide the packet's fate, and write
//! results (args, flags, executed bits) back into the frame.
//!
//! ## Hot-path memory discipline
//!
//! A steady-state active frame costs **zero heap allocations**:
//! instruction words are decoded through the opcode table into a
//! fixed-size scratch (never into a per-frame `Vec`; see
//! [`decode`](crate::runtime::decode)), protection entries are resolved
//! through a dense slot index computed once per frame, results are
//! written back into the frame in place, and outputs go into a
//! caller-owned buffer via [`SwitchRuntime::process_frame_into`]. Only a
//! FID's first packet, FORK clones, and malformed input touch the
//! allocator.
//!
//! ## Latency model
//!
//! Figure 8b: "each pass through a pipeline adds approximately 0.5 µs",
//! where *a pipeline* is one half of the switch (ingress or egress).
//! We count pipeline-halves: a packet that completes within ingress and
//! turns around (RTS) pays one half; a full transit pays two; each
//! recirculation adds two more.

use crate::config::SwitchConfig;
use crate::runtime::decode::{decode_into, new_scratch, DecodeStats, InstrScratch};
use crate::runtime::interp;
use crate::runtime::protect::ProtectionTables;
use crate::runtime::recirc::RecircLimiter;
use crate::types::Fid;
use activermt_isa::constants::{ACTIVE_ETHERTYPE, ETHERNET_HEADER_LEN, NUM_ARGS};
use activermt_isa::wire::{
    program_packet_layout, ActiveHeader, EthernetFrame, PacketType, RegionEntry,
};
use activermt_isa::Opcode;
use activermt_rmt::hash::Crc32;
use activermt_rmt::pipeline::Pipeline;
use activermt_rmt::traffic::{TrafficManager, Verdict};
use activermt_rmt::Phv;
use activermt_telemetry::{Counter, Registry, Telemetry};
use std::collections::{BTreeMap, HashSet};

/// Where an output frame should go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputAction {
    /// Toward the frame's (possibly overridden) destination.
    Forward,
    /// Back to the source (RTS turned the packet around).
    ToSender,
}

/// One frame leaving the switch.
#[derive(Debug, Clone)]
pub struct SwitchOutput {
    /// The rewritten frame.
    pub frame: Vec<u8>,
    /// Forwarding verdict.
    pub action: OutputAction,
    /// Switch-internal latency in nanoseconds (see the latency model).
    pub latency_ns: u64,
    /// Pipeline passes the packet made.
    pub passes: u32,
    /// A SET_DST override, if the program installed one.
    pub dst_override: Option<u32>,
}

/// One frame queued for batched execution: an opaque caller tag (the
/// dispatcher's global sequence number — outputs are re-sorted by it so
/// pooled runs emit in the same order as a single-threaded run), the
/// virtual arrival time, and the frame bytes.
#[derive(Debug)]
pub struct FrameJob {
    /// Caller-chosen ordering tag (global enqueue sequence number).
    pub tag: u64,
    /// Virtual arrival time of the frame, ns.
    pub at_ns: u64,
    /// The raw Ethernet frame.
    pub frame: Vec<u8>,
}

/// One output of a batched run, tagged with the job that produced it.
#[derive(Debug, Clone)]
pub struct TaggedOutput {
    /// The tag of the [`FrameJob`] this output came from.
    pub tag: u64,
    /// Position among the outputs of the same job (a FORK emits two).
    /// Sorting by `(tag, ord)` with a non-allocating unstable sort
    /// restores the exact single-threaded emission order.
    pub ord: u8,
    /// Virtual arrival time of the originating frame, ns.
    pub at_ns: u64,
    /// The switch output itself.
    pub output: SwitchOutput,
}

/// A reusable batch of frames for [`SwitchRuntime::process_frames_into`].
///
/// The batch owns both the job queue and a scratch output buffer, so a
/// warm batch that round-trips between a dispatcher and a worker costs
/// zero heap allocations per frame: `push` reuses the jobs vector's
/// capacity, and per-frame outputs land in the retained scratch before
/// being appended to the caller's tagged-output buffer.
#[derive(Debug, Default)]
pub struct FrameBatch {
    jobs: Vec<FrameJob>,
    scratch: Vec<SwitchOutput>,
}

impl FrameBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> FrameBatch {
        FrameBatch::default()
    }

    /// An empty batch with room for `frames` jobs before reallocating.
    #[must_use]
    pub fn with_capacity(frames: usize) -> FrameBatch {
        FrameBatch {
            jobs: Vec::with_capacity(frames),
            scratch: Vec::with_capacity(4),
        }
    }

    /// Queue one frame.
    pub fn push(&mut self, tag: u64, at_ns: u64, frame: Vec<u8>) {
        self.jobs.push(FrameJob { tag, at_ns, frame });
    }

    /// Frames currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Is the batch empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Drop any queued jobs, keeping capacity.
    pub fn clear(&mut self) {
        self.jobs.clear();
        self.scratch.clear();
    }
}

/// Aggregate runtime statistics (a point-in-time view of the live
/// counter cells in [`RuntimeCounters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Frames processed.
    pub frames: u64,
    /// Frames carrying active programs.
    pub active_frames: u64,
    /// Frames passed through untouched because their FID was quiesced
    /// for reallocation (Section 4.3).
    pub deactivated_passthroughs: u64,
    /// Frames dropped due to protection violations.
    pub violation_drops: u64,
    /// Non-active frames forwarded untouched.
    pub transparent_forwards: u64,
    /// Frames dropped for executing privileged opcodes without
    /// privilege (Section 7.2).
    pub privilege_drops: u64,
    /// Recirculations denied by the per-service budget (Section 7.2's
    /// fairness controller).
    pub recirc_budget_drops: u64,
    /// Frames dropped because they could not be parsed (truncated or
    /// corrupted Ethernet, active header, program layout, or an
    /// undecodable instruction word).
    pub malformed_drops: u64,
}

/// The live counter cells behind [`RuntimeStats`]: lock-free handles a
/// metrics registry can adopt, incremented with single relaxed atomic
/// RMWs on the frame path (no allocation — the zero-alloc steady-state
/// guarantee holds with telemetry bound).
///
/// `Clone` detaches: the differential proptests clone a runtime into an
/// optimized/reference pair and then compare `stats()` across the two,
/// which would be vacuous if both sides shared counter cells.
#[derive(Debug, Default)]
pub(crate) struct RuntimeCounters {
    pub(crate) frames: Counter,
    pub(crate) active_frames: Counter,
    pub(crate) deactivated_passthroughs: Counter,
    pub(crate) violation_drops: Counter,
    pub(crate) transparent_forwards: Counter,
    pub(crate) privilege_drops: Counter,
    pub(crate) recirc_budget_drops: Counter,
    pub(crate) malformed_drops: Counter,
}

impl Clone for RuntimeCounters {
    fn clone(&self) -> RuntimeCounters {
        RuntimeCounters {
            frames: self.frames.detached_copy(),
            active_frames: self.active_frames.detached_copy(),
            deactivated_passthroughs: self.deactivated_passthroughs.detached_copy(),
            violation_drops: self.violation_drops.detached_copy(),
            transparent_forwards: self.transparent_forwards.detached_copy(),
            privilege_drops: self.privilege_drops.detached_copy(),
            recirc_budget_drops: self.recirc_budget_drops.detached_copy(),
            malformed_drops: self.malformed_drops.detached_copy(),
        }
    }
}

impl RuntimeCounters {
    /// A handle onto the *same* counter cells (the opposite of `Clone`,
    /// which detaches). Shard replicas in the parallel executor share
    /// cells so `runtime.*` metrics aggregate across workers for free.
    pub(crate) fn shared_handle(&self) -> RuntimeCounters {
        RuntimeCounters {
            frames: Counter::clone(&self.frames),
            active_frames: Counter::clone(&self.active_frames),
            deactivated_passthroughs: Counter::clone(&self.deactivated_passthroughs),
            violation_drops: Counter::clone(&self.violation_drops),
            transparent_forwards: Counter::clone(&self.transparent_forwards),
            privilege_drops: Counter::clone(&self.privilege_drops),
            recirc_budget_drops: Counter::clone(&self.recirc_budget_drops),
            malformed_drops: Counter::clone(&self.malformed_drops),
        }
    }

    pub(crate) fn view(&self) -> RuntimeStats {
        RuntimeStats {
            frames: self.frames.get(),
            active_frames: self.active_frames.get(),
            deactivated_passthroughs: self.deactivated_passthroughs.get(),
            violation_drops: self.violation_drops.get(),
            transparent_forwards: self.transparent_forwards.get(),
            privilege_drops: self.privilege_drops.get(),
            recirc_budget_drops: self.recirc_budget_drops.get(),
            malformed_drops: self.malformed_drops.get(),
        }
    }

    fn bind(&self, registry: &Registry) {
        registry.register_counter("runtime.frames", &self.frames);
        registry.register_counter("runtime.active_frames", &self.active_frames);
        registry.register_counter(
            "runtime.deactivated_passthroughs",
            &self.deactivated_passthroughs,
        );
        registry.register_counter("runtime.violation_drops", &self.violation_drops);
        registry.register_counter("runtime.transparent_forwards", &self.transparent_forwards);
        registry.register_counter("runtime.privilege_drops", &self.privilege_drops);
        registry.register_counter("runtime.recirc_budget_drops", &self.recirc_budget_drops);
        registry.register_counter("runtime.malformed_drops", &self.malformed_drops);
    }
}

/// Per-FID data-plane accounting, maintained inline by the interpreter
/// (plain integers behind `&mut self` — no atomics needed; the entry is
/// created on a FID's first packet, so steady-state frames never
/// allocate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FidPacketStats {
    /// Program packets interpreted (including ones later dropped).
    pub interpreted: u64,
    /// Recirculation passes beyond each packet's first.
    pub recirculations: u64,
    /// Packets dropped for protection or privilege violations.
    pub denials: u64,
    /// Malformed program packets attributed to this FID.
    pub malformed: u64,
}

/// The data-plane half of the ActiveRMT switch.
///
/// Fields are crate-visible so the reference (allocating) execution path
/// in [`reference`](crate::runtime::reference) can share the exact same
/// state for differential testing.
#[derive(Debug, Clone)]
pub struct SwitchRuntime {
    pub(crate) config: SwitchConfig,
    pub(crate) pipeline: Pipeline,
    pub(crate) protect: ProtectionTables,
    pub(crate) traffic: TrafficManager,
    pub(crate) crc: Crc32,
    pub(crate) deactivated: HashSet<Fid>,
    pub(crate) privileged: HashSet<Fid>,
    pub(crate) recirc_limiter: Option<RecircLimiter>,
    pub(crate) scratch: Box<InstrScratch>,
    pub(crate) stats: RuntimeCounters,
    pub(crate) fid_table: BTreeMap<Fid, FidPacketStats>,
}

impl SwitchRuntime {
    /// Bring up the runtime on a fresh pipeline.
    pub fn new(config: SwitchConfig) -> SwitchRuntime {
        SwitchRuntime {
            pipeline: Pipeline::new(config.pipeline_config()),
            protect: ProtectionTables::new(config.num_stages),
            traffic: TrafficManager::new(config.pass_latency_ns, config.max_recirculations),
            crc: Crc32::new(),
            deactivated: HashSet::new(),
            privileged: HashSet::new(),
            recirc_limiter: config
                .recirc_budget
                .map(|(rate, burst)| RecircLimiter::new(rate, burst)),
            scratch: new_scratch(),
            stats: RuntimeCounters::default(),
            fid_table: BTreeMap::new(),
            config,
        }
    }

    /// Bring up the runtime with its counters adopted into `telemetry`'s
    /// registry.
    pub fn with_telemetry(config: SwitchConfig, telemetry: &Telemetry) -> SwitchRuntime {
        let rt = SwitchRuntime::new(config);
        rt.bind_telemetry(telemetry);
        rt
    }

    /// Adopt the runtime's live frame-accounting counters into
    /// `telemetry`'s registry. The handles are shared, so the registry
    /// observes every subsequent frame.
    pub fn bind_telemetry(&self, telemetry: &Telemetry) {
        self.stats.bind(telemetry.registry());
    }

    /// The switch configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// The underlying pipeline (telemetry, tests).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Runtime statistics.
    pub fn stats(&self) -> RuntimeStats {
        self.stats.view()
    }

    /// Per-FID data-plane accounting rows, sorted by FID.
    pub fn fid_stats(&self) -> impl Iterator<Item = (Fid, &FidPacketStats)> {
        self.fid_table.iter().map(|(&fid, s)| (fid, s))
    }

    /// Traffic-manager statistics.
    pub fn traffic_stats(&self) -> activermt_rmt::traffic::TrafficStats {
        self.traffic.stats()
    }

    /// Always all-zero: the runtime decodes every frame through the
    /// opcode table and keeps no decode cache (see [`DecodeStats`]).
    pub fn decode_stats(&self) -> DecodeStats {
        DecodeStats::default()
    }

    // ----- control-plane hooks (used by the Controller) -----

    /// Install a protection/translation entry; returns
    /// `(entries_removed, entries_installed)`.
    pub fn install_region(
        &mut self,
        stage: usize,
        fid: Fid,
        region: RegionEntry,
    ) -> (usize, usize) {
        let (rm, ins) = self.protect.install(stage, fid, region);
        let tcam = &mut self.pipeline.stage_mut(stage).tcam;
        tcam.remove(rm);
        let ok = tcam.insert(ins);
        debug_assert!(ok, "allocator must not oversubscribe the TCAM");
        (rm, ins)
    }

    /// Remove `fid`'s entry in `stage`; returns entries removed.
    pub fn remove_region(&mut self, stage: usize, fid: Fid) -> usize {
        let rm = self.protect.remove(stage, fid);
        self.pipeline.stage_mut(stage).tcam.remove(rm);
        rm
    }

    /// Zero the registers of a region (allocation-time initialization).
    pub fn clear_region(&mut self, stage: usize, region: RegionEntry) {
        self.pipeline
            .stage_mut(stage)
            .registers
            .clear_range(region.start, region.end);
    }

    /// Control-plane register read (BFRT-style; Section 4.3's
    /// control-plane extraction path).
    pub fn reg_read(&self, stage: usize, index: u32) -> Option<u32> {
        self.pipeline.stage(stage).registers.peek(index)
    }

    /// Control-plane register write.
    pub fn reg_write(&mut self, stage: usize, index: u32, value: u32) -> bool {
        self.pipeline.stage_mut(stage).registers.poke(index, value)
    }

    /// Grant `fid` the privilege level required for FORK / SET_DST
    /// when `SwitchConfig::enforce_privileges` is on (Section 7.2).
    pub fn grant_privilege(&mut self, fid: Fid) {
        self.privileged.insert(fid);
    }

    /// Revoke `fid`'s privilege.
    pub fn revoke_privilege(&mut self, fid: Fid) {
        self.privileged.remove(&fid);
        if let Some(l) = self.recirc_limiter.as_mut() {
            l.forget(fid);
        }
    }

    /// Recirculation-budget denials so far (Section 7.2 limiter).
    pub fn recirc_denials(&self) -> u64 {
        self.recirc_limiter
            .as_ref()
            .map_or(0, super::recirc::RecircLimiter::total_denied)
    }

    /// Quiesce a FID during reallocation: its program packets pass
    /// through unprocessed (Section 4.3).
    pub fn deactivate(&mut self, fid: Fid) {
        self.deactivated.insert(fid);
    }

    /// Resume processing for a FID.
    pub fn reactivate(&mut self, fid: Fid) {
        self.deactivated.remove(&fid);
    }

    /// Is the FID currently quiesced?
    pub fn is_deactivated(&self, fid: Fid) -> bool {
        self.deactivated.contains(&fid)
    }

    /// Every currently quiesced FID, sorted (invariant engine, tests).
    pub fn deactivated_fids(&self) -> Vec<Fid> {
        let mut fids: Vec<Fid> = self.deactivated.iter().copied().collect();
        fids.sort_unstable();
        fids
    }

    /// The protection tables (tests, controller bookkeeping).
    pub fn protection(&self) -> &ProtectionTables {
        &self.protect
    }

    // ----- the data plane -----

    /// Process one frame through the switch, producing zero (dropped),
    /// one, or two (FORK) output frames. Uses virtual time 0 (for
    /// time-dependent policies use [`SwitchRuntime::process_frame_at`]).
    pub fn process_frame(&mut self, frame: Vec<u8>) -> Vec<SwitchOutput> {
        self.process_frame_at(0, frame)
    }

    /// Process one frame at virtual time `now_ns`, allocating a fresh
    /// output vector. Hot paths should hold a reusable buffer and call
    /// [`SwitchRuntime::process_frame_into`] instead.
    pub fn process_frame_at(&mut self, now_ns: u64, frame: Vec<u8>) -> Vec<SwitchOutput> {
        let mut out = Vec::with_capacity(2);
        self.process_frame_into(now_ns, frame, &mut out);
        out
    }

    /// Process one frame at virtual time `now_ns`, appending outputs to
    /// a caller-owned buffer. With a reused `out`, a steady-state active
    /// frame performs no heap allocation.
    pub fn process_frame_into(
        &mut self,
        now_ns: u64,
        mut frame: Vec<u8>,
        out: &mut Vec<SwitchOutput>,
    ) {
        self.stats.frames.inc();
        let half = self.config.pass_latency_ns;

        // Non-active traffic is forwarded untouched: the runtime
        // provides baseline L2 forwarding (Section 7.1).
        let Ok(eth) = EthernetFrame::new_checked(&frame[..]) else {
            self.stats.malformed_drops.inc();
            return;
        };
        if eth.ethertype() != ACTIVE_ETHERTYPE {
            self.stats.transparent_forwards.inc();
            self.traffic.account(Verdict::Forward);
            out.push(SwitchOutput {
                frame,
                action: OutputAction::Forward,
                latency_ns: 2 * half,
                passes: 1,
                dst_override: None,
            });
            return;
        }

        let Ok(hdr) = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]) else {
            self.stats.malformed_drops.inc();
            return; // malformed: drop
        };
        let fid = hdr.fid();
        let ptype = hdr.flags().packet_type();
        if ptype != PacketType::Program {
            // Allocation requests/responses and control packets are not
            // executed in the data plane; the switch node hands them to
            // the controller before calling us. Anything reaching here
            // is simply forwarded (e.g. a response transiting back to
            // the client).
            self.traffic.account(Verdict::Forward);
            out.push(SwitchOutput {
                frame,
                action: OutputAction::Forward,
                latency_ns: 2 * half,
                passes: 1,
                dst_override: None,
            });
            return;
        }

        self.stats.active_frames.inc();
        if self.deactivated.contains(&fid) {
            // Section 4.3: "deactivates their packet programs ... for
            // the duration of the reallocation process".
            self.stats.deactivated_passthroughs.inc();
            let mut h = ActiveHeader::new_unchecked(&mut frame[ETHERNET_HEADER_LEN..]);
            let mut flags = h.flags();
            flags.set_deactivated(true);
            h.set_flags(flags);
            self.traffic.account(Verdict::Forward);
            out.push(SwitchOutput {
                frame,
                action: OutputAction::Forward,
                latency_ns: 2 * half,
                passes: 1,
                dst_override: None,
            });
            return;
        }

        // A program that already ran to completion transits the switch
        // like ordinary traffic (e.g. a server-echoed reply on its way
        // back to the client): the parser sees the `complete` flag and
        // the executed bits and skips interpretation entirely.
        if hdr.flags().complete() {
            self.traffic.account(Verdict::Forward);
            out.push(SwitchOutput {
                frame,
                action: OutputAction::Forward,
                latency_ns: 2 * half,
                passes: 1,
                dst_override: None,
            });
            return;
        }

        let Ok(layout) = program_packet_layout(&frame) else {
            self.stats.malformed_drops.inc();
            self.fid_table.entry(fid).or_default().malformed += 1;
            return; // malformed program packet: drop
        };

        // Decode the instruction stream into the fixed scratch (no
        // per-frame Vec). An undecodable word is a counted malformed
        // drop — never compact the stream around it, which would
        // misalign `pc` against the executed-flags prefix written back
        // into the frame.
        let Ok((count, start_pc)) = decode_into(
            &frame[layout.instr_off..layout.payload_off],
            &mut self.scratch,
        ) else {
            self.stats.malformed_drops.inc();
            self.fid_table.entry(fid).or_default().malformed += 1;
            return;
        };
        let instrs = &self.scratch[..count];

        // Parse the arguments into the PHV.
        let mut args = [0u32; NUM_ARGS];
        for (i, a) in args.iter_mut().enumerate() {
            let off = layout.args_off + i * 4;
            *a = u32::from_be_bytes([frame[off], frame[off + 1], frame[off + 2], frame[off + 3]]);
        }
        let seq = hdr.seq();
        let mut phv = Phv::new(fid, seq, args);
        phv.recirc_count = hdr.recirc_count();
        // The flow ("5-tuple") digest for COPY_HASHDATA_5TUPLE: L2
        // addresses plus the flow-identity bytes of the payload. Like a
        // real parser, it reads fixed header offsets: payload byte 0 is
        // the transport-flags byte (SYN vs. data) and is excluded, so
        // every packet of a flow digests identically — which Cheetah's
        // cookie algebra requires (Appendix B.2).
        let head_start = (layout.payload_off + 1).min(frame.len());
        let head_end = (head_start + 8).min(frame.len());
        phv.five_tuple =
            self.crc.checksum(&frame[..12]) ^ self.crc.checksum(&frame[head_start..head_end]);

        // Resume after any instructions that already executed (a packet
        // re-entering the switch mid-program), restoring the branch
        // state persisted in the header.
        phv.disabled = hdr.flags().disabled();
        phv.rts_done = hdr.flags().rts_done();
        if phv.disabled {
            phv.pending_branch = Some((hdr.aux() & 0x3F) as u8);
        }

        // Per-frame invariants, hoisted out of the instruction loop:
        // the dense protection slot and the privilege bit cannot change
        // mid-frame (control-plane updates happen between frames).
        let slot = self.protect.slot_of(fid);
        let privileged = !self.config.enforce_privileges || self.privileged.contains(&fid);

        // ----- the pass loop -----
        let n = self.config.num_stages;
        let mut pc = start_pc;
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
                // Memory instructions check the *local* region; address
                // translation resolves the next region at or after this
                // stage (Section 3.2; see ProtectionTables).
                let prot = match slot {
                    Some(sl) => {
                        if matches!(ins.opcode, Opcode::ADDR_MASK | Opcode::ADDR_OFFSET) {
                            self.protect.translation_for_slot(stage_idx, sl)
                        } else {
                            self.protect.lookup_slot(stage_idx, sl).copied()
                        }
                    }
                    None => None,
                };
                if !privileged && ins.opcode.requires_privilege() && !phv.disabled {
                    // Unprivileged use of a gated opcode: treat like a
                    // protection violation (Section 7.2).
                    self.stats.privilege_drops.inc();
                    phv.violation = true;
                    self.pipeline.stage_mut(stage_idx).stats.violations += 1;
                    pc += 1;
                    continue;
                }
                if phv.disabled {
                    if ins.label().is_some() && ins.label() == phv.pending_branch {
                        // "The flag is reset once this label is
                        // encountered" — and the target executes.
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
            // Latency for this pass: one half if we never left ingress
            // and will turn around, two otherwise.
            let done = pc >= instrs.len() || !phv.executing();
            let ingress_only = last_stage_used < self.config.ingress_stages;
            let turns_around = phv.rts_done && done;
            halves += if ingress_only && turns_around { 1 } else { 2 };
            if done {
                break 'outer;
            }
            // Recirculate to continue execution.
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

        // RTS fired in egress: ports cannot change there; one extra
        // recirculation brings the packet back to ingress (Section 3.1).
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
        // Per-FID accounting: one map touch per interpreted frame (the
        // entry already exists past the FID's first packet, so the
        // steady state allocates nothing).
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
            return;
        }

        // ----- write results back into the frame, in place -----
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
            // Persist any pending branch label for a future re-entry.
            h.set_aux(u16::from(phv.pending_branch.unwrap_or(0)));
        }

        let latency_ns = halves * half;
        if phv.fork {
            // The clone is forwarded toward the original destination
            // with the state at end of execution (a simplification of
            // the hardware's mid-pipeline clone; see DESIGN.md). Its
            // recirculation is charged to the traffic manager.
            self.traffic.account_clone();
            self.traffic.account(Verdict::Recirculate);
            out.push(SwitchOutput {
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
        out.push(SwitchOutput {
            frame,
            action,
            latency_ns,
            passes,
            dst_override: phv.dst_override,
        });
    }

    /// Process every queued frame of `batch`, appending tagged outputs
    /// to `out`. The batch is drained but keeps its capacity, so a
    /// recycled batch plus a reused `out` preserves the zero-alloc
    /// steady state; batching amortizes the per-dispatch overhead
    /// (locks, branch history for same-FID runs).
    pub fn process_frames_into(&mut self, batch: &mut FrameBatch, out: &mut Vec<TaggedOutput>) {
        let FrameBatch { jobs, scratch } = batch;
        for job in jobs.drain(..) {
            scratch.clear();
            self.process_frame_into(job.at_ns, job.frame, scratch);
            for (ord, output) in scratch.drain(..).enumerate() {
                out.push(TaggedOutput {
                    tag: job.tag,
                    ord: ord as u8,
                    at_ns: job.at_ns,
                    output,
                });
            }
        }
    }

    /// A shard replica for the parallel executor: a full copy of the
    /// runtime whose *counter cells* are shared with `self` (plain
    /// `Clone` detaches them for differential testing). With frames
    /// sharded by FID and per-FID grants disjoint by construction, each
    /// replica owns the register state of exactly the FIDs routed to
    /// it, while `runtime.*` metrics stay global.
    pub(crate) fn shard_replica(&self) -> SwitchRuntime {
        let mut rt = self.clone();
        rt.stats = self.stats.shared_handle();
        rt
    }
}
