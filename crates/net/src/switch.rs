//! The switch node: data plane + control plane behind one set of ports.
//!
//! Couples the [`SwitchRuntime`] with the [`Controller`] the way the
//! paper's prototype couples its P4 pipeline with the Python controller
//! on the switch CPU: allocation requests arriving in the data plane
//! are digested up to the controller (Section 4.3), whose actions come
//! back as timestamped control packets toward the clients.

use crate::fault::{CrashInjector, CrashPlan, CrashPoint};
use activermt_core::alloc::{AccessPattern, MutantPolicy, Scheme};
use activermt_core::controller::{Controller, ControllerAction, ProvisioningReport};
use activermt_core::runtime::{
    DataPlane, OutputAction, ShardedExecutor, SwitchRuntime, TaggedOutput, DEFAULT_BATCH_FRAMES,
};
use activermt_core::types::Fid;
use activermt_core::{CoreError, OpLog, SwitchConfig};
use activermt_isa::constants::{ETHERNET_HEADER_LEN, INITIAL_HEADER_LEN};
use activermt_isa::wire::{
    build_alloc_response, build_control, ActiveHeader, AllocRequest, ControlOp, EthernetFrame,
    PacketType,
};
use activermt_telemetry::{
    Counter, DropLayer, EventKind, FaultKind, FidRow, Telemetry, TelemetrySnapshot,
};
use std::collections::{BTreeMap, HashMap};

/// A frame leaving the switch, with its earliest departure time and
/// destination MAC.
#[derive(Debug, Clone)]
pub struct SwitchEmission {
    /// Virtual time the frame is ready to leave the switch.
    pub at_ns: u64,
    /// Destination MAC.
    pub dst: [u8; 6],
    /// The frame.
    pub frame: Vec<u8>,
}

/// The data plane behind the node's ports: one runtime, or the
/// shard-by-FID worker pool. Control traffic reaches the controller
/// through the [`DataPlane`] trait either way; pooled data frames are
/// enqueued and their emissions collected via
/// [`SwitchNode::flush_data_plane`].
#[derive(Debug)]
enum Plane {
    Single(Box<SwitchRuntime>),
    Pooled(Box<ShardedExecutor>),
}

/// View the plane as the trait object the controller drives.
fn plane_dyn(plane: &mut Plane) -> &mut dyn DataPlane {
    match plane {
        Plane::Single(rt) => &mut **rt,
        Plane::Pooled(ex) => &mut **ex,
    }
}

/// The combined switch.
#[derive(Debug)]
pub struct SwitchNode {
    mac: [u8; 6],
    /// The switch profile and scheme, kept so a crashed controller can
    /// be rebuilt from scratch plus the op-log.
    cfg: SwitchConfig,
    scheme: Scheme,
    plane: Plane,
    controller: Controller,
    /// The controller's write-ahead op-log. The node owns the durable
    /// handle — it survives the controller process the way a file on
    /// the switch CPU survives a daemon restart.
    oplog: OpLog,
    /// Seeded crash process, if a chaos plan is armed.
    crash: Option<CrashInjector>,
    /// Learned client MACs per FID (from allocation requests).
    clients: HashMap<Fid, [u8; 6]>,
    /// SET_DST port-id to MAC resolution.
    ports: HashMap<u32, [u8; 6]>,
    /// Provisioning reports, timestamped (the Figure 8a series).
    reports: Vec<(u64, ProvisioningReport)>,
    /// The switch-wide telemetry hub every component feeds.
    telemetry: Telemetry,
    /// Frames rejected at the switch ports as malformed (truncated or
    /// corrupted beyond parsing), by parse layer.
    malformed_eth: Counter,
    malformed_active: Counter,
    malformed_alloc: Counter,
    malformed_control: Counter,
    /// Reused data-plane output buffer (no per-frame Vec).
    out_buf: Vec<activermt_core::runtime::SwitchOutput>,
    /// Reused pooled-drain buffer (no per-flush Vec).
    tagged_buf: Vec<TaggedOutput>,
}

impl SwitchNode {
    /// Bring up a switch with the given allocation scheme. The node
    /// owns a [`Telemetry`] hub; the runtime, controller and the
    /// node's own port-parser counters are all bound to it.
    pub fn new(mac: [u8; 6], cfg: SwitchConfig, scheme: Scheme) -> SwitchNode {
        SwitchNode::with_workers(mac, cfg, scheme, 1)
    }

    /// Bring up a switch whose data plane is the shard-by-FID worker
    /// pool with `workers` threads (`workers <= 1` keeps the classic
    /// single-threaded runtime). Control traffic behaves identically;
    /// pooled data frames are batched to the workers and their
    /// emissions collected with [`SwitchNode::flush_data_plane`].
    pub fn with_workers(
        mac: [u8; 6],
        cfg: SwitchConfig,
        scheme: Scheme,
        workers: usize,
    ) -> SwitchNode {
        SwitchNode::with_hub(mac, cfg, scheme, workers, Telemetry::new())
    }

    /// Bring up a switch bound to an externally owned telemetry hub.
    /// A fabric passes each member `shared.scoped("switch.{id}.")` so
    /// all switches feed one registry under per-switch namespaces
    /// while a lone switch (the other constructors) keeps the
    /// unscoped single-switch metric names.
    pub fn with_hub(
        mac: [u8; 6],
        cfg: SwitchConfig,
        scheme: Scheme,
        workers: usize,
        telemetry: Telemetry,
    ) -> SwitchNode {
        let reg = telemetry.registry();
        let malformed_eth = Counter::new();
        let malformed_active = Counter::new();
        let malformed_alloc = Counter::new();
        let malformed_control = Counter::new();
        reg.register_counter("switch.malformed_eth", &malformed_eth);
        reg.register_counter("switch.malformed_active", &malformed_active);
        reg.register_counter("switch.malformed_alloc", &malformed_alloc);
        reg.register_counter("switch.malformed_control", &malformed_control);
        let oplog = OpLog::new();
        let mut controller = Controller::with_telemetry(&cfg, scheme, &telemetry);
        controller.attach_oplog(oplog.clone());
        let plane = if workers <= 1 {
            Plane::Single(Box::new(SwitchRuntime::with_telemetry(cfg, &telemetry)))
        } else {
            let ex = ShardedExecutor::new(cfg, workers, DEFAULT_BATCH_FRAMES);
            ex.bind_telemetry(&telemetry);
            Plane::Pooled(Box::new(ex))
        };
        SwitchNode {
            mac,
            cfg,
            scheme,
            plane,
            controller,
            oplog,
            crash: None,
            clients: HashMap::new(),
            ports: HashMap::new(),
            reports: Vec::new(),
            telemetry,
            malformed_eth,
            malformed_active,
            malformed_alloc,
            malformed_control,
            out_buf: Vec::with_capacity(2),
            tagged_buf: Vec::new(),
        }
    }

    /// Worker threads in the data plane (1 = single-threaded).
    pub fn workers(&self) -> usize {
        match &self.plane {
            Plane::Single(_) => 1,
            Plane::Pooled(ex) => ex.workers(),
        }
    }

    /// Run `f` against every data-plane runtime shard in shard order
    /// (a single-threaded plane is shard 0). Invariant audits use this
    /// to check each shard's protection state.
    pub fn for_each_runtime(&self, mut f: impl FnMut(usize, &SwitchRuntime)) {
        match &self.plane {
            Plane::Single(rt) => f(0, rt),
            Plane::Pooled(ex) => ex.for_each_runtime(f),
        }
    }

    /// Per-worker counters, in shard order (empty for a single plane).
    pub fn worker_stats(&self) -> Vec<activermt_core::WorkerStats> {
        match &self.plane {
            Plane::Single(_) => Vec::new(),
            Plane::Pooled(ex) => ex.worker_stats(),
        }
    }

    /// Submit any batched frames to the workers, wait for them, and
    /// return their emissions in global arrival order. A no-op (empty)
    /// for the single-threaded plane, whose emissions leave
    /// [`SwitchNode::handle_frame`] directly.
    pub fn flush_data_plane(&mut self, _now_ns: u64) -> Vec<SwitchEmission> {
        let mut outs = std::mem::take(&mut self.tagged_buf);
        outs.clear();
        match &mut self.plane {
            Plane::Single(_) => {
                self.tagged_buf = outs;
                return Vec::new();
            }
            Plane::Pooled(ex) => ex.drain_into(&mut outs),
        }
        let emissions = outs
            .drain(..)
            .map(|t| {
                let dst = match (t.output.dst_override, t.output.action) {
                    (Some(id), OutputAction::Forward) => self
                        .ports
                        .get(&id)
                        .copied()
                        .unwrap_or_else(|| frame_dst(&t.output.frame)),
                    _ => frame_dst(&t.output.frame),
                };
                SwitchEmission {
                    at_ns: t.at_ns + t.output.latency_ns,
                    dst,
                    frame: t.output.frame,
                }
            })
            .collect();
        self.tagged_buf = outs;
        emissions
    }

    /// The switch-wide telemetry hub (bind injectors, take snapshots).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Export a point-in-time [`TelemetrySnapshot`]: every registered
    /// metric, the retained journal, and per-FID rows merged from the
    /// interpreter, the allocator's admission accounting, and the
    /// current placements.
    pub fn telemetry_snapshot(&self, now_ns: u64) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot(now_ns);
        let mut rows: BTreeMap<Fid, FidRow> = BTreeMap::new();
        let mut fid_row = |fid: Fid, s: &activermt_core::runtime::FidPacketStats| {
            let r = rows.entry(fid).or_insert_with(|| FidRow {
                fid,
                ..FidRow::default()
            });
            r.interpreted = s.interpreted;
            r.recirculations = s.recirculations;
            r.denials = s.denials;
            r.malformed = s.malformed;
        };
        match &self.plane {
            Plane::Single(rt) => {
                for (fid, s) in rt.fid_stats() {
                    fid_row(fid, s);
                }
            }
            Plane::Pooled(ex) => {
                for (fid, s) in &ex.fid_stats_merged() {
                    fid_row(*fid, s);
                }
            }
        }
        let alloc = self.controller.allocator();
        for (fid, a) in alloc.fid_accounting() {
            let r = rows.entry(fid).or_insert_with(|| FidRow {
                fid,
                ..FidRow::default()
            });
            r.arrivals = a.arrivals;
            r.admitted = a.admitted;
            r.rejected = a.rejected;
            r.reallocations = a.victim_events;
        }
        for fid in self.protection().resident_fids() {
            let placements = alloc.placements_of(fid);
            let r = rows.entry(fid).or_insert_with(|| FidRow {
                fid,
                ..FidRow::default()
            });
            r.stages = placements.len() as u32;
            r.blocks = placements.iter().map(|p| p.range.len).sum();
        }
        for (fid, v) in self.controller.verify_stats() {
            let r = rows.entry(fid).or_insert_with(|| FidRow {
                fid,
                ..FidRow::default()
            });
            r.verify_accepted = v.accepted;
            r.verify_rejected = v.rejected;
        }
        snap.fids = rows.into_values().collect();
        snap
    }

    /// The switch's own MAC (clients address control traffic here).
    pub fn mac(&self) -> [u8; 6] {
        self.mac
    }

    /// Register a SET_DST port id (e.g. a Cheetah server id).
    pub fn map_port(&mut self, id: u32, mac: [u8; 6]) {
        self.ports.insert(id, mac);
    }

    /// The data-plane runtime (inspection). Only valid on the
    /// single-threaded plane; pooled nodes expose their shards through
    /// [`SwitchNode::for_each_runtime`].
    ///
    /// # Panics
    /// Panics if the node runs the worker pool.
    pub fn runtime(&self) -> &SwitchRuntime {
        match &self.plane {
            Plane::Single(rt) => rt,
            Plane::Pooled(_) => {
                panic!("SwitchNode::runtime() on a pooled node; use for_each_runtime()")
            }
        }
    }

    /// Mutable runtime access (tests and manual provisioning).
    ///
    /// # Panics
    /// Panics if the node runs the worker pool.
    pub fn runtime_mut(&mut self) -> &mut SwitchRuntime {
        match &mut self.plane {
            Plane::Single(rt) => rt,
            Plane::Pooled(_) => {
                panic!("SwitchNode::runtime_mut() on a pooled node; use for_each_runtime()")
            }
        }
    }

    /// The data plane behind its control-plane trait — works for both
    /// the single runtime and the worker pool (invariant audits,
    /// modelcheck entry points).
    pub fn plane(&self) -> &dyn DataPlane {
        match &self.plane {
            Plane::Single(rt) => &**rt,
            Plane::Pooled(ex) => &**ex,
        }
    }

    /// The data plane's protection tables (either plane).
    pub fn protection(&self) -> &activermt_core::runtime::ProtectionTables {
        match &self.plane {
            Plane::Single(rt) => rt.protection(),
            Plane::Pooled(ex) => DataPlane::protection(&**ex),
        }
    }

    /// Aggregate runtime statistics (either plane).
    pub fn runtime_stats(&self) -> activermt_core::runtime::RuntimeStats {
        match &self.plane {
            Plane::Single(rt) => rt.stats(),
            Plane::Pooled(ex) => ex.stats(),
        }
    }

    /// The controller (inspection).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// The controller's durable write-ahead log (inspection).
    pub fn oplog(&self) -> &OpLog {
        &self.oplog
    }

    /// Arm a seeded crash schedule: at eligible protocol points the
    /// controller process dies *after* committing its transition but
    /// (depending on the point) before its signals leave the CPU, then
    /// restarts from the op-log.
    pub fn set_crash_plan(&mut self, plan: CrashPlan) {
        let inj = CrashInjector::new(plan);
        inj.bind_telemetry(&self.telemetry);
        self.crash = Some(inj);
    }

    /// Crash/recover cycles injected by the armed plan so far.
    pub fn crashes(&self) -> u64 {
        self.crash.as_ref().map_or(0, CrashInjector::crashes)
    }

    /// Kill the controller process and bring up a replacement: replay
    /// the op-log, re-bind telemetry, reconcile against the live data
    /// plane, and emit whatever repair signals reconciliation owes the
    /// clients. The node (ports, learned MACs, runtime, log) survives —
    /// only the controller's in-memory state is lost, exactly as when
    /// the control daemon on the switch CPU is killed and restarted.
    pub fn crash_and_recover(&mut self, now_ns: u64) -> Vec<SwitchEmission> {
        self.telemetry.record_event(
            now_ns,
            EventKind::FaultInjected {
                fault: FaultKind::Crash,
            },
        );
        let mut fresh = Controller::recover(&self.oplog, &self.cfg, self.scheme);
        fresh.bind_telemetry(&self.telemetry);
        self.controller = fresh;
        let actions = self
            .controller
            .reconcile(plane_dyn(&mut self.plane), now_ns);
        self.actions_to_emissions(now_ns, actions)
    }

    /// Collected provisioning reports.
    pub fn reports(&self) -> &[(u64, ProvisioningReport)] {
        &self.reports
    }

    /// Begin migrating `fid` out of this switch (fabric control plane):
    /// the FID is fenced and quiesced exactly as a reallocation victim;
    /// the returned emission carries the DeactivateNotice. Idempotent —
    /// re-entry re-signals under the same fence.
    pub fn migrate_out(
        &mut self,
        now_ns: u64,
        fid: Fid,
        dest: u16,
    ) -> Result<Vec<SwitchEmission>, CoreError> {
        let actions =
            self.controller
                .handle_migrate_out(plane_dyn(&mut self.plane), fid, dest, now_ns)?;
        Ok(self.finish(now_ns, actions))
    }

    /// Abort an in-flight migration out of this switch: the FID is
    /// reactivated in place and the client re-told its (unchanged)
    /// regions. A no-op (empty) if no migration is in flight.
    pub fn migrate_abort(&mut self, now_ns: u64, fid: Fid) -> Vec<SwitchEmission> {
        let actions = self
            .controller
            .handle_migrate_abort(plane_dyn(&mut self.plane), fid, now_ns);
        self.finish(now_ns, actions)
    }

    /// Activate a migrated-in FID on this (destination) switch after
    /// state replay: sends the authoritative Respond (this switch's
    /// regions) plus a fenced ReactivateNotice, re-sent until acked.
    pub fn migrate_in_activate(
        &mut self,
        now_ns: u64,
        fid: Fid,
    ) -> Result<Vec<SwitchEmission>, CoreError> {
        let actions = self.controller.handle_migrate_in_activate(fid, now_ns)?;
        Ok(self.finish(now_ns, actions))
    }

    /// Control-plane-driven deallocation (fabric teardown of the source
    /// copy after cutover). Same path as a client Deallocate control
    /// frame.
    pub fn deallocate_fid(
        &mut self,
        now_ns: u64,
        fid: Fid,
    ) -> Result<Vec<SwitchEmission>, CoreError> {
        let actions = self
            .controller
            .handle_deallocate(plane_dyn(&mut self.plane), fid, now_ns)?;
        Ok(self.finish(now_ns, actions))
    }

    /// Total frames this switch dropped as malformed, across every
    /// parse layer (Ethernet, active header, allocation request body,
    /// control op) plus program packets the runtime rejected.
    pub fn malformed_frames(&self) -> u64 {
        self.malformed_eth.get()
            + self.malformed_active.get()
            + self.malformed_alloc.get()
            + self.malformed_control.get()
            + self.runtime_stats().malformed_drops
    }

    /// Malformed drops broken down by parse layer:
    /// `(ethernet, active_header, alloc_request, control_op)`.
    pub fn malformed_by_layer(&self) -> (u64, u64, u64, u64) {
        (
            self.malformed_eth.get(),
            self.malformed_active.get(),
            self.malformed_alloc.get(),
            self.malformed_control.get(),
        )
    }

    fn malformed_drop(&self, now_ns: u64, counter: &Counter, layer: DropLayer) {
        counter.inc();
        self.telemetry
            .record_event(now_ns, EventKind::MalformedDrop { layer });
    }

    /// Periodic controller poll (timeouts, queued admissions).
    pub fn poll(&mut self, now_ns: u64) -> Vec<SwitchEmission> {
        let actions = self.controller.poll(plane_dyn(&mut self.plane), now_ns);
        self.finish(now_ns, actions)
    }

    /// Process one arriving frame.
    pub fn handle_frame(&mut self, now_ns: u64, frame: Vec<u8>) -> Vec<SwitchEmission> {
        let Ok(eth) = EthernetFrame::new_checked(&frame[..]) else {
            self.malformed_drop(now_ns, &self.malformed_eth, DropLayer::Ethernet);
            return Vec::new();
        };
        if eth.ethertype() != activermt_isa::constants::ACTIVE_ETHERTYPE {
            return self.data_plane(now_ns, frame);
        }
        let src = eth.src();
        let Ok(hdr) = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]) else {
            self.malformed_drop(now_ns, &self.malformed_active, DropLayer::ActiveHeader);
            return Vec::new();
        };
        let fid = hdr.fid();
        match hdr.flags().packet_type() {
            PacketType::AllocRequest => {
                self.clients.insert(fid, src);
                let flags = hdr.flags();
                let prog_len = u16::from(hdr.program_len());
                let ingress = hdr.aux();
                let body = &frame[ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN..];
                let Ok(req) = AllocRequest::new_checked(body) else {
                    self.malformed_drop(now_ns, &self.malformed_alloc, DropLayer::AllocRequest);
                    return Vec::new();
                };
                // Trailing bytes after the 24-byte descriptor header are
                // the compact program bytecode (EOF-terminated) for
                // static verification. Absent bytes mean a legacy
                // descriptor-only request; undecodable bytes are a
                // malformed frame.
                let program_bytes = &body[activermt_isa::constants::ALLOC_REQUEST_LEN..];
                let program = if program_bytes.is_empty() {
                    None
                } else {
                    match activermt_isa::Program::decode_instructions(program_bytes) {
                        Ok(p) => Some(p),
                        Err(_) => {
                            self.malformed_drop(
                                now_ns,
                                &self.malformed_alloc,
                                DropLayer::AllocRequest,
                            );
                            return Vec::new();
                        }
                    }
                };
                let pattern = AccessPattern::from_request(
                    &req.accesses(),
                    prog_len,
                    flags.elastic(),
                    if ingress == 0 { None } else { Some(ingress) },
                );
                let policy = if flags.pinned() {
                    MutantPolicy::MostConstrained
                } else {
                    MutantPolicy::LeastConstrained
                };
                match pattern {
                    Ok(p) => {
                        let actions = self.controller.handle_request_with_program(
                            plane_dyn(&mut self.plane),
                            fid,
                            p,
                            policy,
                            program.as_ref(),
                            now_ns,
                        );
                        self.finish(now_ns, actions)
                    }
                    Err(_) => vec![SwitchEmission {
                        at_ns: now_ns,
                        dst: src,
                        frame: build_alloc_response(src, self.mac, fid, hdr.seq(), None),
                    }],
                }
            }
            PacketType::Control => match hdr.control_op() {
                Ok(ControlOp::SnapshotComplete) => {
                    // The wire `seq` echoes the fence token stamped into
                    // the DeactivateNotice; a stale token (an earlier
                    // round's, or a pre-crash controller's) is rejected.
                    let actions = self.controller.handle_snapshot_complete_fenced(
                        plane_dyn(&mut self.plane),
                        fid,
                        hdr.seq(),
                        now_ns,
                    );
                    self.finish(now_ns, actions)
                }
                Ok(ControlOp::Deallocate) => {
                    match self
                        .controller
                        .handle_deallocate(plane_dyn(&mut self.plane), fid, now_ns)
                    {
                        Ok(actions) => self.finish(now_ns, actions),
                        Err(_) => Vec::new(), // busy: client retries
                    }
                }
                Ok(ControlOp::ReactivateAck) => {
                    self.controller
                        .handle_reactivate_ack_fenced(fid, hdr.seq(), now_ns);
                    Vec::new()
                }
                Ok(_) => Vec::new(),
                Err(_) => {
                    self.malformed_drop(now_ns, &self.malformed_control, DropLayer::Control);
                    Vec::new()
                }
            },
            _ => self.data_plane(now_ns, frame),
        }
    }

    fn data_plane(&mut self, now_ns: u64, mut frame: Vec<u8>) -> Vec<SwitchEmission> {
        // Frames addressed to the switch itself are reflected without
        // active processing (the Figure 8b echo baseline: "the switch
        // echos responses without any (active) processing").
        if frame_dst(&frame) == self.mac
            && EthernetFrame::new_unchecked(&frame[..]).ethertype()
                != activermt_isa::constants::ACTIVE_ETHERTYPE
        {
            let mut eth = EthernetFrame::new_unchecked(&mut frame[..]);
            eth.swap_addresses();
            let dst = eth.dst();
            return vec![SwitchEmission {
                at_ns: now_ns + 2 * self.cfg.pass_latency_ns,
                dst,
                frame,
            }];
        }
        // Pooled plane: queue the frame for its shard; emissions are
        // collected (in arrival order, with arrival-relative latencies)
        // at the next flush or control-plane fence.
        if let Plane::Pooled(ex) = &mut self.plane {
            ex.enqueue(now_ns, frame);
            return Vec::new();
        }
        // The output buffer is a reused field: taken for the borrow,
        // drained into emissions, put back with its capacity intact.
        let mut outs = std::mem::take(&mut self.out_buf);
        let Plane::Single(rt) = &mut self.plane else {
            unreachable!("pooled plane handled above")
        };
        rt.process_frame_into(now_ns, frame, &mut outs);
        let emissions = outs
            .drain(..)
            .map(|out| {
                let dst = match (out.dst_override, out.action) {
                    // SET_DST overrides the L2 destination when the
                    // port id is known.
                    (Some(id), OutputAction::Forward) => self
                        .ports
                        .get(&id)
                        .copied()
                        .unwrap_or_else(|| frame_dst(&out.frame)),
                    _ => frame_dst(&out.frame),
                };
                SwitchEmission {
                    at_ns: now_ns + out.latency_ns,
                    dst,
                    frame: out.frame,
                }
            })
            .collect();
        self.out_buf = outs;
        emissions
    }

    /// Which crash point this batch of controller actions represents an
    /// opportunity for, if any. Classification looks at the *most
    /// advanced* protocol step in the batch: a round completing
    /// (Reactivate) dominates a round opening (Deactivate) dominates a
    /// plain grant (successful Respond).
    fn classify_crash(actions: &[ControllerAction]) -> Option<CrashPoint> {
        let mut point = None;
        for act in actions {
            match act {
                ControllerAction::Reactivate { .. } => {
                    return Some(CrashPoint::PostSnapshotPreReactivate)
                }
                ControllerAction::Deactivate { .. } => point = Some(CrashPoint::MidQuiesce),
                ControllerAction::Respond { failed: false, .. } => {
                    point = point.or(Some(CrashPoint::PostGrantPreSignal));
                }
                _ => {}
            }
        }
        point
    }

    /// Convert controller actions to emissions, interposing the armed
    /// crash plan. The crash fires *between* the controller committing
    /// a transition and its signals leaving the CPU — exactly the
    /// window the write-ahead discipline must cover. `MidQuiesce` lets
    /// the Deactivate signals escape first (victims are already
    /// quiesced when the controller dies); the other points drop the
    /// outgoing signals, so clients only ever see what reconciliation
    /// re-issues or what their own retransmissions re-earn.
    fn finish(&mut self, now_ns: u64, actions: Vec<ControllerAction>) -> Vec<SwitchEmission> {
        let fired = match (Self::classify_crash(&actions), self.crash.as_mut()) {
            (Some(p), Some(inj)) => inj.should_crash(now_ns, p).then_some(p),
            _ => None,
        };
        match fired {
            None => self.actions_to_emissions(now_ns, actions),
            Some(CrashPoint::MidQuiesce) => {
                let mut out = self.actions_to_emissions(now_ns, actions);
                out.extend(self.crash_and_recover(now_ns));
                out
            }
            Some(_) => {
                // The transition (and any Report) is committed; the
                // frames never leave.
                drop(self.actions_to_emissions(now_ns, actions));
                self.crash_and_recover(now_ns)
            }
        }
    }

    fn actions_to_emissions(
        &mut self,
        now_ns: u64,
        actions: Vec<ControllerAction>,
    ) -> Vec<SwitchEmission> {
        let mut out = Vec::new();
        for act in actions {
            match act {
                ControllerAction::Respond {
                    fid,
                    regions,
                    failed,
                    at_ns,
                } => {
                    if let Some(&dst) = self.clients.get(&fid) {
                        let frame = build_alloc_response(
                            dst,
                            self.mac,
                            fid,
                            0,
                            if failed { None } else { Some(&regions) },
                        );
                        out.push(SwitchEmission { at_ns, dst, frame });
                    }
                }
                ControllerAction::Deactivate { fid, at_ns, fence } => {
                    if let Some(&dst) = self.clients.get(&fid) {
                        // The fence token rides the wire `seq` field;
                        // the client echoes it in SnapshotComplete.
                        let frame = build_control(
                            dst,
                            self.mac,
                            fid,
                            fence,
                            ControlOp::DeactivateNotice,
                            true,
                        );
                        out.push(SwitchEmission { at_ns, dst, frame });
                    }
                }
                ControllerAction::Reactivate { fid, at_ns, fence } => {
                    if let Some(&dst) = self.clients.get(&fid) {
                        let frame = build_control(
                            dst,
                            self.mac,
                            fid,
                            fence,
                            ControlOp::ReactivateNotice,
                            true,
                        );
                        out.push(SwitchEmission { at_ns, dst, frame });
                    }
                }
                ControllerAction::Report(r) => {
                    self.reports.push((now_ns, r));
                }
            }
        }
        out
    }
}

fn frame_dst(frame: &[u8]) -> [u8; 6] {
    match EthernetFrame::new_checked(frame) {
        Ok(eth) => eth.dst(),
        Err(_) => [0; 6], // undeliverable: the sim drops unknown MACs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activermt_isa::wire::build_alloc_request;
    use activermt_isa::wire::AccessDescriptor;

    const SWITCH: [u8; 6] = [2, 0, 0, 0, 0, 0xFF];
    const CLIENT: [u8; 6] = [2, 0, 0, 0, 0, 1];

    fn cache_request(fid: u16) -> Vec<u8> {
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
        build_alloc_request(SWITCH, CLIENT, fid, 1, &accesses, 11, true, true, 8).unwrap()
    }

    #[test]
    fn allocation_request_round_trips_through_the_node() {
        let mut sw = SwitchNode::new(SWITCH, SwitchConfig::default(), Scheme::WorstFit);
        let out = sw.handle_frame(1_000, cache_request(7));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, CLIENT);
        let hdr = ActiveHeader::new_checked(&out[0].frame[ETHERNET_HEADER_LEN..]).unwrap();
        assert_eq!(hdr.flags().packet_type(), PacketType::AllocResponse);
        assert!(!hdr.flags().failed());
        assert!(out[0].at_ns >= 1_000);
        // The allocator admitted the app.
        assert!(sw.controller().allocator().contains(7));
        // A provisioning report was recorded.
        assert_eq!(sw.reports().len(), 1);
    }

    #[test]
    fn unverifiable_bytecode_is_refused_and_accounted() {
        use activermt_isa::wire::build_alloc_request_with_program;
        use activermt_isa::{Opcode, ProgramBuilder};
        let mut sw = SwitchNode::new(SWITCH, SwitchConfig::default(), Scheme::WorstFit);
        // The cache shape, but the first access is addressed by a raw
        // hash: statically unverifiable under any allocation.
        let program = ProgramBuilder::new()
            .op(Opcode::HASH)
            .op(Opcode::MEM_READ)
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
            .unwrap();
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
        let frame = build_alloc_request_with_program(
            SWITCH,
            CLIENT,
            7,
            1,
            &accesses,
            11,
            true,
            true,
            8,
            &program.encode_instructions(),
        )
        .unwrap();
        let out = sw.handle_frame(1_000, frame);
        assert_eq!(out.len(), 1);
        let hdr = ActiveHeader::new_checked(&out[0].frame[ETHERNET_HEADER_LEN..]).unwrap();
        assert_eq!(hdr.flags().packet_type(), PacketType::AllocResponse);
        assert!(hdr.flags().failed(), "the grant must be refused");
        // The rollback left no residue...
        assert!(!sw.controller().allocator().contains(7));
        // ...and the snapshot carries the rejection on every surface.
        let snap = sw.telemetry_snapshot(2_000);
        assert_eq!(snap.counter("controller.verify_rejected"), Some(1));
        assert!(snap.has_event(|e| matches!(
            e,
            activermt_telemetry::EventKind::VerifyRejected { fid: 7, .. }
        )));
        assert!(snap
            .fids
            .iter()
            .any(|r| r.fid == 7 && r.verify_rejected == 1));
    }

    #[test]
    fn malformed_requests_get_failure_responses() {
        let mut sw = SwitchNode::new(SWITCH, SwitchConfig::default(), Scheme::WorstFit);
        // Inconsistent gap encoding.
        let bad = [
            AccessDescriptor {
                min_position: 5,
                min_gap: 1,
                demand: 0,
            },
            AccessDescriptor {
                min_position: 6,
                min_gap: 7,
                demand: 0,
            },
        ];
        let frame = build_alloc_request(SWITCH, CLIENT, 9, 1, &bad, 11, true, true, 0).unwrap();
        let out = sw.handle_frame(0, frame);
        assert_eq!(out.len(), 1);
        let hdr = ActiveHeader::new_checked(&out[0].frame[ETHERNET_HEADER_LEN..]).unwrap();
        assert!(hdr.flags().failed());
        assert!(!sw.controller().allocator().contains(9));
    }

    #[test]
    fn deallocate_frees_the_fid() {
        let mut sw = SwitchNode::new(SWITCH, SwitchConfig::default(), Scheme::WorstFit);
        sw.handle_frame(0, cache_request(7));
        let ctl = build_control(SWITCH, CLIENT, 7, 2, ControlOp::Deallocate, false);
        sw.handle_frame(1_000, ctl);
        assert!(!sw.controller().allocator().contains(7));
        // Re-admission works.
        let out = sw.handle_frame(2_000, cache_request(7));
        let hdr = ActiveHeader::new_checked(&out[0].frame[ETHERNET_HEADER_LEN..]).unwrap();
        assert!(!hdr.flags().failed());
    }

    #[test]
    fn non_active_frames_forward_by_mac() {
        let mut sw = SwitchNode::new(SWITCH, SwitchConfig::default(), Scheme::WorstFit);
        let mut frame = vec![0u8; 60];
        {
            let mut eth = EthernetFrame::new_unchecked(&mut frame[..]);
            eth.set_dst([9; 6]);
            eth.set_src(CLIENT);
            eth.set_ethertype(0x0800);
        }
        let out = sw.handle_frame(0, frame);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, [9; 6]);
    }
}
