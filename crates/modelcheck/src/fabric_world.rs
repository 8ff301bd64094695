//! The fabric-scope model: a multi-switch federation driven through
//! its *real* entry points, explored exhaustively.
//!
//! The single-switch [`World`](crate::model::World) audits one
//! controller; the failure modes the paper's story grows into at
//! fabric scale — split-brain placement, a cutover racing in-flight
//! traffic, a recovered federation reissuing route epochs, a migration
//! machine stepping where it must not — live *between* switches. This
//! module lifts the bounded explorer to that scope:
//!
//! * [`ModelFabric`] is a clockless, clonable [`FabricBackend`]: real
//!   member [`Controller`]s and [`SwitchRuntime`]s, a fenced route
//!   table, per-member FIFO frame queues whose every delivery is an
//!   explicit model transition, a fenced control-signal multiset, and
//!   the federation intercept queues (`FabricSim` semantics, minus the
//!   clock).
//! * [`FabricWorld`] wraps a real
//!   [`Federation<ModelFabric>`](Federation) and exposes its
//!   micro-steps — placement pumps, each per-FID migration step,
//!   memsync retransmission, federation crash + recovery, member
//!   controller crash/replay, and data-network faults on replay frames
//!   — as [`FabricEvent`]s under the shared
//!   [`FaultBudget`](crate::model::FaultBudget).
//!
//! ## Temporal invariants F4–F6
//!
//! F1–F3 are state predicates ([`crate::fabric`]); F4–F6 observe
//! *transitions*, so they are staged here, where the before/after pair
//! is visible:
//!
//! * **F4 — route-epoch monotonicity.** Every epoch handed to
//!   `set_route` must exceed the highest epoch ever issued; a
//!   recovered federation that forgets to fence above its predecessor
//!   regresses here.
//! * **F5 — drain-barrier soundness.** A migration may not complete
//!   (cutover + teardown) while frames carrying its FID are still in
//!   flight.
//! * **F6 — migration-machine legality.** Observable migration status
//!   may only move along [`MigrationStatus::may_step`] (the single
//!   source of truth shared with the property tests); additionally no
//!   member may sit quiesced-for-migration while a live federation has
//!   no record of driving it (a stranded migration).
//!
//! ## Fingerprint soundness
//!
//! Canonicalization extends the single-switch argument (see
//! [`crate::model`]): virtual time and monotonic counters are
//! excluded; everything the transition relation or the invariants can
//! observe is included — per-member controller/plane state, the route
//! table and its issue high-water mark, suppressions, queued frame
//! bytes, the fenced signal multiset, federation placements and
//! per-migration briefs (whose `state_digest` covers extracted cell
//! *values*), the audit ledger, the remaining fault budget, and every
//! staged violation. Register files are not hashed wholesale: cell
//! values only enter migrations via the snapshot (digested) and differ
//! between branches only after a corruption event, which is itself
//! fingerprinted through the consumed budget and the corrupted frame
//! bytes. Time-driven federation paths (admission/placement timeouts,
//! the retransmit timer) are disabled by giving the model federation
//! unreachable timeouts; their effects are modeled as explicit events
//! instead, so excluding `now_ns` is sound.

use crate::invariants::{InvariantKind, Violation};
use crate::model::{small_program, FaultBudget, MAX_SIGNAL_COPIES, STEP_NS};
use crate::recovery::{check_recovery, RecoveryFingerprint};
use activermt_core::alloc::{AccessPattern, MutantPolicy, Scheme};
use activermt_core::controller::ControllerAction;
use activermt_core::types::Fid;
use activermt_core::{Controller, CoreError, DataPlane, OpLog, SwitchConfig, SwitchRuntime};
use activermt_fabric::{FabricBackend, FabricBug, Federation, FederationConfig, MigrationStatus};
use activermt_isa::constants::{
    ACTIVE_ETHERTYPE, ALLOC_REQUEST_LEN, ETHERNET_HEADER_LEN, INITIAL_HEADER_LEN,
};
use activermt_isa::wire::{
    build_alloc_request, build_alloc_request_with_program, build_program_packet, AccessDescriptor,
    ActiveHeader, AllocRequest, EthernetFrame, PacketType,
};
use activermt_isa::Program;
use activermt_net::fabric::{PendingAdmission, RouteEntry, SuppressMode, FABRIC_MAC};
use activermt_telemetry::EventKind;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// One modeled fabric application.
#[derive(Debug, Clone)]
pub struct FabricAppSpec {
    /// Its flow identifier.
    pub fid: Fid,
    /// Short name for traces.
    pub name: &'static str,
    /// Per-access demand (0 = elastic minimum).
    pub demand: u8,
    /// Elastic flag on the request.
    pub elastic: bool,
    /// Bytecode shipped with the request (`None` = legacy path).
    pub program: Option<Program>,
    /// Placed through the federation during setup (migration sources
    /// need a resident app to move).
    pub preplaced: bool,
    /// Nonzero: written into the app's first granted cell after
    /// preplacement, so migrations carry observable state.
    pub seed_value: u32,
}

/// The fabric model's dimensions.
#[derive(Debug, Clone)]
pub struct FabricScope {
    /// Scope name for reports.
    pub name: &'static str,
    /// Member switches.
    pub members: usize,
    /// Pipeline stages per member.
    pub stages: usize,
    /// Memory blocks per stage per member.
    pub blocks_per_stage: u32,
    /// The applications driving the model.
    pub apps: Vec<FabricAppSpec>,
}

impl FabricScope {
    /// The default fabric scope: two members, one preplaced app with
    /// seeded state (the migration subject) and one arriving legacy
    /// app (the placement subject).
    pub fn fabric() -> FabricScope {
        FabricScope {
            name: "fabric",
            members: 2,
            stages: 3,
            blocks_per_stage: 4,
            apps: vec![
                FabricAppSpec {
                    fid: 1,
                    name: "alpha",
                    demand: 0,
                    elastic: true,
                    program: Some(small_program()),
                    preplaced: true,
                    seed_value: 0xA1FA,
                },
                FabricAppSpec {
                    fid: 2,
                    name: "beta",
                    demand: 0,
                    elastic: true,
                    program: None,
                    preplaced: false,
                    seed_value: 0,
                },
            ],
        }
    }

    /// Three members and a third, inelastic arriving app.
    pub fn fabric_medium() -> FabricScope {
        let mut s = FabricScope::fabric();
        s.name = "fabric-medium";
        s.members = 3;
        s.apps.push(FabricAppSpec {
            fid: 3,
            name: "gamma",
            demand: 2,
            elastic: false,
            program: None,
            preplaced: false,
            seed_value: 0,
        });
        s
    }

    /// Resolve a fabric scope by name.
    pub fn by_name(name: &str) -> Option<FabricScope> {
        match name {
            "fabric" => Some(FabricScope::fabric()),
            "fabric-medium" => Some(FabricScope::fabric_medium()),
            _ => None,
        }
    }

    /// The per-member switch configuration.
    pub fn switch_config(&self) -> SwitchConfig {
        SwitchConfig {
            num_stages: self.stages,
            ingress_stages: self.stages,
            regs_per_stage: (self.blocks_per_stage * 32) as usize,
            block_regs: 32,
            tcam_entries_per_stage: 64,
            ..SwitchConfig::default()
        }
    }
}

/// Which fenced control signal is in flight toward a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SigKind {
    /// "Quiesce and snapshot" — delivery makes the client snapshot and
    /// answer with a fenced SnapshotComplete.
    Deactivate,
    /// "Resume on your regions" — delivery makes the client send a
    /// fenced ReactivateAck.
    Reactivate,
}

/// One in-flight fenced control signal, identified by issuing member,
/// kind, FID, and fence token (stale fences are rejected on delivery —
/// exactly the wire behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SigId {
    /// Issuing member switch.
    pub member: usize,
    /// Signal kind.
    pub kind: SigKind,
    /// Target application.
    pub fid: Fid,
    /// Fence token stamped into the signal.
    pub fence: u16,
}

impl fmt::Display for SigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            SigKind::Deactivate => "Deactivate",
            SigKind::Reactivate => "Reactivate",
        };
        write!(
            f,
            "{k}(fid {}, fence {}) @sw{}",
            self.fid, self.fence, self.member
        )
    }
}

/// The FID of an active frame, if it parses as one.
fn active_fid(frame: &[u8]) -> Option<Fid> {
    let eth = EthernetFrame::new_checked(frame).ok()?;
    if eth.ethertype() != ACTIVE_ETHERTYPE {
        return None;
    }
    let hdr = ActiveHeader::new_checked(frame.get(ETHERNET_HEADER_LEN..)?).ok()?;
    Some(hdr.fid())
}

/// The packet type of an active frame, if it parses as one.
fn active_packet_type(frame: &[u8]) -> Option<PacketType> {
    let eth = EthernetFrame::new_checked(frame).ok()?;
    if eth.ethertype() != ACTIVE_ETHERTYPE {
        return None;
    }
    let hdr = ActiveHeader::new_checked(frame.get(ETHERNET_HEADER_LEN..)?).ok()?;
    Some(hdr.flags().packet_type())
}

/// Is this a memsync/data frame — active but not an allocation
/// request? (The data-network fault events only target these.)
fn is_data_frame(frame: &[u8]) -> bool {
    active_fid(frame).is_some() && active_packet_type(frame) != Some(PacketType::AllocRequest)
}

#[derive(Debug, Clone)]
struct ModelMember {
    ctl: Controller,
    rt: SwitchRuntime,
}

/// A clockless, clonable fabric substrate for the bounded explorer:
/// the same management surface as `FabricSim`, with every frame
/// delivery an explicit transition. Frame transport is one FIFO queue
/// per member — a documented under-approximation (the real fabric can
/// reorder across links; reordering *within* the replay stream is
/// covered by the drop + retransmit interleavings, which permute
/// effective delivery order).
#[derive(Clone)]
pub struct ModelFabric {
    members: Vec<ModelMember>,
    cfg: SwitchConfig,
    stages: usize,
    now_ns: u64,
    routes: BTreeMap<Fid, RouteEntry>,
    /// Highest epoch ever handed to `set_route` — the F4 reference.
    max_issued_epoch: u32,
    suppressed: BTreeMap<Fid, SuppressMode>,
    /// Per-member FIFO of frames awaiting an explicit delivery event.
    queues: Vec<VecDeque<Vec<u8>>>,
    fed_inbox: Vec<(u64, Vec<u8>)>,
    pending_admissions: Vec<PendingAdmission>,
    placement_failures: Vec<(u64, Fid)>,
    /// In-flight fenced control signals (multiset, counts capped).
    signals: BTreeMap<SigId, u32>,
    /// F4 violations staged by `set_route`.
    staged: Vec<Violation>,
}

impl ModelFabric {
    fn new(scope: &FabricScope) -> ModelFabric {
        let cfg = scope.switch_config();
        let members = (0..scope.members)
            .map(|_| {
                let mut ctl = Controller::new(&cfg, Scheme::WorstFit);
                ctl.attach_oplog(OpLog::new());
                ModelMember {
                    ctl,
                    rt: SwitchRuntime::new(cfg),
                }
            })
            .collect();
        ModelFabric {
            members,
            cfg,
            stages: scope.stages,
            now_ns: 0,
            routes: BTreeMap::new(),
            max_issued_epoch: 0,
            suppressed: BTreeMap::new(),
            queues: vec![VecDeque::new(); scope.members],
            fed_inbox: Vec::new(),
            pending_admissions: Vec::new(),
            placement_failures: Vec::new(),
            signals: BTreeMap::new(),
            staged: Vec::new(),
        }
    }

    /// F4 violations staged so far.
    pub fn staged_violations(&self) -> &[Violation] {
        &self.staged
    }

    /// The frame queue of member `sw` (inspection).
    pub fn queue(&self, sw: usize) -> &VecDeque<Vec<u8>> {
        &self.queues[sw]
    }

    /// In-flight fenced signals (inspection).
    pub fn signals(&self) -> &BTreeMap<SigId, u32> {
        &self.signals
    }

    fn push_signal(&mut self, sig: SigId) {
        let n = self.signals.entry(sig).or_insert(0);
        *n = (*n + 1).min(MAX_SIGNAL_COPIES);
    }

    fn pop_signal(&mut self, sig: SigId) {
        if let Some(n) = self.signals.get_mut(&sig) {
            *n -= 1;
            if *n == 0 {
                self.signals.remove(&sig);
            }
        }
    }

    /// Fold controller actions from member `sw` into the model:
    /// fenced signals enter the in-flight multiset; allocation
    /// responses pass the suppression filter (`FabricSim` semantics),
    /// with withheld failures feeding the placement-failure queue.
    fn absorb(&mut self, sw: usize, acts: Vec<ControllerAction>) {
        for a in acts {
            match a {
                ControllerAction::Deactivate { fid, fence, .. } => self.push_signal(SigId {
                    member: sw,
                    kind: SigKind::Deactivate,
                    fid,
                    fence,
                }),
                ControllerAction::Reactivate { fid, fence, .. } => self.push_signal(SigId {
                    member: sw,
                    kind: SigKind::Reactivate,
                    fid,
                    fence,
                }),
                ControllerAction::Respond { fid, failed, .. } => {
                    if let Some(&mode) = self.suppressed.get(&fid) {
                        let withhold = match mode {
                            SuppressMode::All => true,
                            SuppressMode::FailuresOnly => failed,
                        };
                        if withhold && failed {
                            self.placement_failures.push((self.now_ns, fid));
                        }
                    }
                    // Responses otherwise terminate at the (unmodeled)
                    // client.
                }
                ControllerAction::Report(_) => {}
            }
        }
    }

    /// A client allocation request enters the fabric unrouted: it is
    /// intercepted for the federation, exactly as `FabricSim` does.
    fn client_request(&mut self, fid: Fid, frame: Vec<u8>) {
        self.pending_admissions.push(PendingAdmission {
            at_ns: self.now_ns,
            fid,
            frame,
        });
    }

    /// Deliver the head-of-queue frame at member `sw` — the model's
    /// one frame-consuming transition. Mirrors the switch-port parse
    /// path for allocation requests; all other active frames run the
    /// data plane, with outputs bound for the federation captured into
    /// its inbox.
    fn deliver_at(&mut self, sw: usize) {
        let Some(frame) = self.queues[sw].pop_front() else {
            return;
        };
        match active_packet_type(&frame) {
            Some(PacketType::AllocRequest) => self.deliver_request(sw, &frame),
            Some(_) => {
                let now = self.now_ns;
                let outs = self.members[sw].rt.process_frame_at(now, frame);
                for out in outs {
                    let dst = EthernetFrame::new_checked(&out.frame[..])
                        .map(|e| e.dst())
                        .unwrap_or_default();
                    if dst == activermt_net::fabric::FEDERATION_MAC {
                        self.fed_inbox.push((now, out.frame));
                    }
                    // Client-bound outputs leave the model.
                }
            }
            None => {} // non-active frames have no model-visible effect
        }
    }

    /// The switch-port allocation-request parse path, verbatim from
    /// `SwitchNode::handle_frame` (malformed frames are dropped).
    fn deliver_request(&mut self, sw: usize, frame: &[u8]) {
        let Ok(hdr) = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]) else {
            return;
        };
        let fid = hdr.fid();
        let flags = hdr.flags();
        let prog_len = u16::from(hdr.program_len());
        let ingress = hdr.aux();
        let body = &frame[ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN..];
        let Ok(req) = AllocRequest::new_checked(body) else {
            return;
        };
        let program_bytes = &body[ALLOC_REQUEST_LEN..];
        let program = if program_bytes.is_empty() {
            None
        } else {
            match Program::decode_instructions(program_bytes) {
                Ok(p) => Some(p),
                Err(_) => return,
            }
        };
        let Ok(pattern) = AccessPattern::from_request(
            &req.accesses(),
            prog_len,
            flags.elastic(),
            if ingress == 0 { None } else { Some(ingress) },
        ) else {
            return;
        };
        let policy = if flags.pinned() {
            MutantPolicy::MostConstrained
        } else {
            MutantPolicy::LeastConstrained
        };
        let now = self.now_ns;
        let member = &mut self.members[sw];
        let acts = member.ctl.handle_request_with_program(
            &mut member.rt,
            fid,
            pattern,
            policy,
            program.as_ref(),
            now,
        );
        self.absorb(sw, acts);
    }
}

impl FabricBackend for ModelFabric {
    fn members(&self) -> usize {
        self.members.len()
    }
    fn now(&self) -> u64 {
        self.now_ns
    }
    fn controller(&self, i: usize) -> &Controller {
        &self.members[i].ctl
    }
    fn plane(&self, i: usize) -> &dyn DataPlane {
        &self.members[i].rt
    }
    fn max_route_epoch(&self) -> u32 {
        self.routes.values().map(|r| r.epoch).max().unwrap_or(0)
    }
    /// Fenced route install, staging **F4** when the epoch fails to
    /// exceed the all-time issue high-water mark (a correct federation
    /// mints strictly above it; reissue = a recovered federation that
    /// forgot to fence).
    fn set_route(&mut self, fid: Fid, sw: usize, epoch: u32) -> bool {
        if epoch <= self.max_issued_epoch {
            self.staged.push(Violation {
                kind: InvariantKind::RouteEpochRegression,
                fid: Some(fid),
                detail: format!(
                    "route epoch {epoch} issued at or below the high-water mark {}",
                    self.max_issued_epoch
                ),
            });
        }
        self.max_issued_epoch = self.max_issued_epoch.max(epoch);
        if let Some(r) = self.routes.get(&fid) {
            if epoch <= r.epoch {
                return false;
            }
        }
        self.routes.insert(fid, RouteEntry { switch: sw, epoch });
        true
    }
    fn route_of(&self, fid: Fid) -> Option<RouteEntry> {
        self.routes.get(&fid).copied()
    }
    /// Frames carrying `fid` awaiting delivery anywhere — the drain
    /// barrier's ledger (captured inbox/admission frames have landed).
    fn in_flight(&self, fid: Fid) -> u64 {
        self.queues
            .iter()
            .flatten()
            .filter(|f| active_fid(f) == Some(fid))
            .count() as u64
    }
    fn suppress(&mut self, fid: Fid, mode: SuppressMode) {
        self.suppressed.insert(fid, mode);
    }
    fn unsuppress(&mut self, fid: Fid) {
        self.suppressed.remove(&fid);
    }
    fn clear_suppressions(&mut self) {
        self.suppressed.clear();
    }
    fn inject_at_switch(&mut self, sw: usize, frame: Vec<u8>) {
        self.queues[sw].push_back(frame);
    }
    fn take_federation_inbox(&mut self) -> Vec<(u64, Vec<u8>)> {
        std::mem::take(&mut self.fed_inbox)
    }
    fn take_pending_admissions(&mut self) -> Vec<PendingAdmission> {
        std::mem::take(&mut self.pending_admissions)
    }
    fn defer_admission(&mut self, pa: PendingAdmission) {
        self.pending_admissions.push(pa);
    }
    fn take_placement_failures(&mut self) -> Vec<(u64, Fid)> {
        std::mem::take(&mut self.placement_failures)
    }
    fn migrate_out(&mut self, sw: usize, fid: Fid, dest: u16) -> Result<(), CoreError> {
        let now = self.now_ns;
        let member = &mut self.members[sw];
        let acts = member
            .ctl
            .handle_migrate_out(&mut member.rt, fid, dest, now)?;
        self.absorb(sw, acts);
        Ok(())
    }
    fn migrate_abort(&mut self, sw: usize, fid: Fid) {
        let now = self.now_ns;
        let member = &mut self.members[sw];
        let acts = member.ctl.handle_migrate_abort(&mut member.rt, fid, now);
        self.absorb(sw, acts);
    }
    fn migrate_in_activate(&mut self, sw: usize, fid: Fid) -> Result<(), CoreError> {
        let now = self.now_ns;
        let acts = self.members[sw].ctl.handle_migrate_in_activate(fid, now)?;
        self.absorb(sw, acts);
        Ok(())
    }
    fn deallocate_at(&mut self, sw: usize, fid: Fid) -> Result<(), CoreError> {
        let now = self.now_ns;
        let member = &mut self.members[sw];
        let acts = member.ctl.handle_deallocate(&mut member.rt, fid, now)?;
        self.absorb(sw, acts);
        Ok(())
    }
    fn record_event(&self, _at_ns: u64, _ev: EventKind) {
        // The model runs without a telemetry hub; the journal is
        // observability, never control flow.
    }
}

/// One transition of the fabric model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEvent {
    /// An unplaced application (re)sends its allocation request into
    /// the fabric (intercepted for the federation).
    Arrive(Fid),
    /// A client sends one data packet for a placed application (rides
    /// the route; holds the drain barrier open while queued).
    Packet(Fid),
    /// The federation's non-migration control loop runs (recovery if
    /// crashed, inbox, placements).
    FedPump,
    /// The federation starts migrating the FID to the other-best
    /// member.
    StartMigrate(Fid),
    /// One migration micro-step for the FID.
    MigStep(Fid),
    /// The federation retransmits the FID's unacked memsync frames
    /// (the explicit stand-in for the retransmit timer).
    Retransmit(Fid),
    /// Deliver the head-of-queue frame at member `sw`.
    DeliverFrame(usize),
    /// Drop the head-of-queue data frame at member `sw` (fault,
    /// consumes drop budget).
    DropFrame(usize),
    /// Duplicate the head-of-queue data frame at member `sw` (fault,
    /// consumes duplicate budget).
    DupFrame(usize),
    /// Bit-flip the head-of-queue data frame's argument area at member
    /// `sw` (fault, consumes corruption budget).
    CorruptFrame(usize),
    /// Deliver one in-flight fenced control signal: the client acts on
    /// it and its fenced reply lands synchronously.
    DeliverSignal(SigId),
    /// Drop one in-flight control signal (fault, consumes drop
    /// budget).
    DropSignal(SigId),
    /// Duplicate one in-flight control signal (fault, consumes
    /// duplicate budget).
    DupSignal(SigId),
    /// The federation process dies; all its volatile state is lost
    /// (fault, consumes crash budget). Recovery happens on the next
    /// [`FabricEvent::FedPump`].
    FedCrash,
    /// Member `sw`'s controller dies and is rebuilt from its op-log,
    /// then reconciles its surviving data plane (fault, consumes crash
    /// budget). Recovery invariants I10–I12 are checked and staged.
    SwitchCrash(usize),
    /// Member `sw`'s controller poll runs (signal re-sends, timeouts).
    MemberPoll(usize),
}

impl fmt::Display for FabricEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricEvent::Arrive(fid) => write!(f, "arrive(fid {fid})"),
            FabricEvent::Packet(fid) => write!(f, "data packet(fid {fid})"),
            FabricEvent::FedPump => write!(f, "federation pump"),
            FabricEvent::StartMigrate(fid) => write!(f, "start migration(fid {fid})"),
            FabricEvent::MigStep(fid) => write!(f, "migration step(fid {fid})"),
            FabricEvent::Retransmit(fid) => write!(f, "retransmit memsync(fid {fid})"),
            FabricEvent::DeliverFrame(sw) => write!(f, "deliver frame @sw{sw}"),
            FabricEvent::DropFrame(sw) => write!(f, "DROP frame @sw{sw}"),
            FabricEvent::DupFrame(sw) => write!(f, "DUPLICATE frame @sw{sw}"),
            FabricEvent::CorruptFrame(sw) => write!(f, "CORRUPT frame @sw{sw}"),
            FabricEvent::DeliverSignal(s) => write!(f, "deliver {s}"),
            FabricEvent::DropSignal(s) => write!(f, "DROP {s}"),
            FabricEvent::DupSignal(s) => write!(f, "DUPLICATE {s}"),
            FabricEvent::FedCrash => write!(f, "CRASH federation"),
            FabricEvent::SwitchCrash(sw) => {
                write!(f, "CRASH switch {sw} controller, replay op-log, reconcile")
            }
            FabricEvent::MemberPoll(sw) => write!(f, "poll @sw{sw}"),
        }
    }
}

/// A concrete fabric model state: a real federation over the
/// [`ModelFabric`], the remaining fault budget, and the staged
/// temporal violations.
#[derive(Clone)]
pub struct FabricWorld {
    fed: Federation<ModelFabric>,
    scope: FabricScope,
    budget: FaultBudget,
    seeded: Option<FabricBug>,
    /// F5/F6, shadow-F2, and member-recovery violations staged by
    /// `apply` (F4 is staged inside [`ModelFabric::set_route`]).
    staged: Vec<Violation>,
    /// Pre-migration source cells per migrating FID, region-relative:
    /// the end-to-end F2 shadow compared against the destination at
    /// completion.
    shadow: BTreeMap<Fid, Vec<(usize, u32, u32)>>,
}

/// The deterministic client MAC for a FID.
fn client_mac(fid: Fid) -> [u8; 6] {
    [2, 0, 0, 0, 0xC1, fid as u8]
}

/// Build the app's allocation request frame (to the fabric anycast).
fn request_frame(app: &FabricAppSpec) -> Vec<u8> {
    let accesses = [AccessDescriptor {
        min_position: 2,
        min_gap: 2,
        demand: app.demand,
    }];
    match &app.program {
        None => build_alloc_request(
            FABRIC_MAC,
            client_mac(app.fid),
            app.fid,
            1,
            &accesses,
            3,
            app.elastic,
            false,
            0,
        )
        .expect("model requests build"),
        Some(p) => build_alloc_request_with_program(
            FABRIC_MAC,
            client_mac(app.fid),
            app.fid,
            1,
            &accesses,
            3,
            app.elastic,
            false,
            0,
            &p.encode_instructions(),
        )
        .expect("model requests build"),
    }
}

/// Region-relative nonzero cells of `fid` on member `sw`:
/// `(region index, offset, value)` — the coordinates migration
/// preserves.
fn region_cells(mf: &ModelFabric, sw: usize, fid: Fid) -> Vec<(usize, u32, u32)> {
    let mut regions = mf
        .controller(sw)
        .regions_of(fid)
        .map(<[_]>::to_vec)
        .unwrap_or_default();
    regions.sort_by_key(|&(stage, _)| stage);
    let mut cells = Vec::new();
    for (ri, &(stage, entry)) in regions.iter().enumerate() {
        for offset in 0..entry.end.saturating_sub(entry.start) {
            let v = mf
                .plane(sw)
                .reg_read_for(fid, stage, entry.start + offset)
                .unwrap_or(0);
            if v != 0 {
                cells.push((ri, offset, v));
            }
        }
    }
    cells
}

impl FabricWorld {
    /// Build the initial fabric state: members up, preplaced apps
    /// placed *through the federation* (so it retains their request
    /// frames for migration admission) and their seed values written,
    /// queues empty, full fault budget. `bug` seeds a federation
    /// mutation for refutation runs.
    pub fn new(scope: FabricScope, budget: FaultBudget, bug: Option<FabricBug>) -> FabricWorld {
        let mf = ModelFabric::new(&scope);
        // Time-driven paths (admission/placement timeouts, retransmit
        // timers) are modeled as explicit events; unreachable timeouts
        // keep the clock out of the transition relation.
        let fed_cfg = FederationConfig {
            pump_interval_ns: STEP_NS,
            admit_timeout_ns: u64::MAX / 4,
            sync_retransmit_ns: u64::MAX / 4,
            placement_timeout_ns: u64::MAX / 4,
        };
        let mut fed = Federation::new(mf, fed_cfg);
        if let Some(b) = bug {
            fed.seed_bug(b);
        }
        let mut w = FabricWorld {
            fed,
            scope,
            budget,
            seeded: bug,
            staged: Vec::new(),
            shadow: BTreeMap::new(),
        };
        w.preplace();
        w
    }

    /// Deterministically drive each preplaced app to a completed
    /// federation placement, then write its seed value.
    fn preplace(&mut self) {
        let apps: Vec<FabricAppSpec> = self
            .scope
            .apps
            .iter()
            .filter(|a| a.preplaced)
            .cloned()
            .collect();
        for app in apps {
            let frame = request_frame(&app);
            self.fed.fabric_mut().client_request(app.fid, frame);
            self.fed.control_pump(); // route + inject at best member
            while let Some(sw) =
                (0..self.scope.members).find(|&i| !self.fed.fabric().queues[i].is_empty())
            {
                self.fed.fabric_mut().deliver_at(sw);
            }
            self.fed.control_pump(); // observe the grant, finish placing
            let home = *self
                .fed
                .placements()
                .get(&app.fid)
                .expect("preplaced app must place during setup");
            if app.seed_value != 0 {
                let (stage, entry) = {
                    let regions = self
                        .fed
                        .fabric()
                        .controller(home)
                        .regions_of(app.fid)
                        .expect("placed app has regions");
                    regions[0]
                };
                let mf = self.fed.fabric_mut();
                assert!(
                    mf.members[home]
                        .rt
                        .reg_write_for(app.fid, stage, entry.start, app.seed_value),
                    "seed write must land in the granted region"
                );
            }
            self.fed.fabric_mut().now_ns += STEP_NS;
        }
    }

    /// The scope this world models.
    pub fn scope(&self) -> &FabricScope {
        &self.scope
    }

    /// The federation under test (inspection).
    pub fn federation(&self) -> &Federation<ModelFabric> {
        &self.fed
    }

    fn app(&self, fid: Fid) -> &FabricAppSpec {
        self.scope
            .apps
            .iter()
            .find(|a| a.fid == fid)
            .expect("event references a scoped app")
    }

    fn placed_anywhere(&self, fid: Fid) -> bool {
        (0..self.scope.members).any(|i| self.fed.fabric().controller(i).allocator().contains(fid))
    }

    /// The transitions enabled in this state, in a deterministic order.
    pub fn enabled(&self) -> Vec<FabricEvent> {
        let mut out = Vec::new();
        let mf = self.fed.fabric();
        for app in &self.scope.apps {
            let pending = mf.pending_admissions.iter().any(|p| p.fid == app.fid);
            if !self.placed_anywhere(app.fid) && !pending {
                out.push(FabricEvent::Arrive(app.fid));
            }
            // Data packets need a route and a program; cap the copies
            // in flight (two open the barrier as well as ten).
            if app.program.is_some() && mf.route_of(app.fid).is_some() && mf.in_flight(app.fid) < 2
            {
                out.push(FabricEvent::Packet(app.fid));
            }
        }
        out.push(FabricEvent::FedPump);
        if !self.fed.is_crashed() && self.scope.members >= 2 {
            for app in &self.scope.apps {
                if self.fed.placements().contains_key(&app.fid)
                    && self.fed.migration_status(app.fid).is_none()
                {
                    out.push(FabricEvent::StartMigrate(app.fid));
                }
            }
        }
        if !self.fed.is_crashed() {
            for fid in self.fed.migrating_fids() {
                out.push(FabricEvent::MigStep(fid));
                if let Some(b) = self.fed.migration_brief(fid) {
                    let replaying = matches!(
                        b.status,
                        MigrationStatus::Replaying | MigrationStatus::Verifying
                    );
                    if replaying && b.pending_sync > 0 && mf.in_flight(fid) == 0 {
                        out.push(FabricEvent::Retransmit(fid));
                    }
                }
            }
        }
        for (sw, q) in mf.queues.iter().enumerate() {
            let Some(head) = q.front() else { continue };
            out.push(FabricEvent::DeliverFrame(sw));
            if is_data_frame(head) {
                if self.budget.drops > 0 {
                    out.push(FabricEvent::DropFrame(sw));
                }
                if self.budget.duplicates > 0 {
                    out.push(FabricEvent::DupFrame(sw));
                }
                if self.budget.corruptions > 0 {
                    out.push(FabricEvent::CorruptFrame(sw));
                }
            }
        }
        for &sig in mf.signals.keys() {
            out.push(FabricEvent::DeliverSignal(sig));
            if self.budget.drops > 0 {
                out.push(FabricEvent::DropSignal(sig));
            }
            if self.budget.duplicates > 0 {
                out.push(FabricEvent::DupSignal(sig));
            }
        }
        if self.budget.crashes > 0 {
            if !self.fed.is_crashed() {
                out.push(FabricEvent::FedCrash);
            }
            for sw in 0..self.scope.members {
                out.push(FabricEvent::SwitchCrash(sw));
            }
        }
        for sw in 0..self.scope.members {
            out.push(FabricEvent::MemberPoll(sw));
        }
        out
    }

    /// Apply one transition in place, staging any F5/F6/shadow-F2
    /// violation the before/after pair exposes.
    pub fn apply(&mut self, ev: FabricEvent) {
        self.fed.fabric_mut().now_ns += STEP_NS;

        // F6 reference: observable migration status before the event.
        let pre_status: BTreeMap<Fid, Option<MigrationStatus>> = self
            .scope
            .apps
            .iter()
            .map(|a| (a.fid, self.fed.migration_status(a.fid)))
            .collect();
        let pre_completed = self.fed.stats().migrations_completed;
        let pre_aborted = self.fed.stats().migrations_aborted;
        let pre_in_flight = match ev {
            FabricEvent::MigStep(fid) => self.fed.fabric().in_flight(fid),
            _ => 0,
        };

        match ev {
            FabricEvent::Arrive(fid) => {
                let frame = request_frame(self.app(fid));
                self.fed.fabric_mut().client_request(fid, frame);
            }
            FabricEvent::Packet(fid) => {
                let program = self
                    .app(fid)
                    .program
                    .clone()
                    .expect("packet apps carry programs");
                let Some(route) = self.fed.fabric().route_of(fid) else {
                    return;
                };
                let frame =
                    build_program_packet(FABRIC_MAC, client_mac(fid), fid, 1, &program, b"mc");
                self.fed.fabric_mut().queues[route.switch].push_back(frame);
            }
            FabricEvent::FedPump => self.fed.control_pump(),
            FabricEvent::StartMigrate(fid) => {
                // Shadow the source cells before quiescing: the F2
                // end-to-end reference.
                let src = self.fed.placements()[&fid];
                let cells = region_cells(self.fed.fabric(), src, fid);
                self.shadow.insert(fid, cells);
                let _ = self.fed.migrate(fid);
            }
            FabricEvent::MigStep(fid) => {
                self.fed.migration_step(fid);
            }
            FabricEvent::Retransmit(fid) => {
                self.fed.retransmit_pending(fid);
            }
            FabricEvent::DeliverFrame(sw) => self.fed.fabric_mut().deliver_at(sw),
            FabricEvent::DropFrame(sw) => {
                self.budget.drops -= 1;
                self.fed.fabric_mut().queues[sw].pop_front();
            }
            FabricEvent::DupFrame(sw) => {
                self.budget.duplicates -= 1;
                let mf = self.fed.fabric_mut();
                if let Some(head) = mf.queues[sw].front().cloned() {
                    mf.queues[sw].push_back(head);
                }
            }
            FabricEvent::CorruptFrame(sw) => {
                self.budget.corruptions -= 1;
                // Flip the low bit of args[1] — a memsync write's value
                // slot: the frame still parses, its payload lies.
                let off = ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN + 7;
                if let Some(head) = self.fed.fabric_mut().queues[sw].front_mut() {
                    if let Some(b) = head.get_mut(off) {
                        *b ^= 0x01;
                    }
                }
            }
            FabricEvent::DeliverSignal(sig) => {
                let mf = self.fed.fabric_mut();
                mf.pop_signal(sig);
                let now = mf.now_ns;
                let member = &mut mf.members[sig.member];
                match sig.kind {
                    SigKind::Deactivate => {
                        // The client snapshots and answers with a
                        // fenced SnapshotComplete.
                        let acts = member.ctl.handle_snapshot_complete_fenced(
                            &mut member.rt,
                            sig.fid,
                            sig.fence,
                            now,
                        );
                        mf.absorb(sig.member, acts);
                    }
                    SigKind::Reactivate => {
                        member
                            .ctl
                            .handle_reactivate_ack_fenced(sig.fid, sig.fence, now);
                    }
                }
            }
            FabricEvent::DropSignal(sig) => {
                self.budget.drops -= 1;
                self.fed.fabric_mut().pop_signal(sig);
            }
            FabricEvent::DupSignal(sig) => {
                self.budget.duplicates -= 1;
                self.fed.fabric_mut().push_signal(sig);
            }
            FabricEvent::FedCrash => {
                self.budget.crashes -= 1;
                self.fed.crash();
            }
            FabricEvent::SwitchCrash(sw) => {
                self.budget.crashes -= 1;
                let cfg = self.fed.fabric().cfg;
                let mf = self.fed.fabric_mut();
                let now = mf.now_ns;
                let member = &mut mf.members[sw];
                let pre = RecoveryFingerprint::of(&member.ctl);
                let log = member
                    .ctl
                    .oplog()
                    .expect("model controllers always log")
                    .deep_clone();
                member.ctl = Controller::recover(&log, &cfg, Scheme::WorstFit);
                let acts = member.ctl.reconcile(&mut member.rt, now);
                let found = check_recovery(&pre, &member.ctl, &member.rt);
                mf.absorb(sw, acts);
                for mut v in found {
                    v.detail = format!("switch {sw}: {}", v.detail);
                    self.staged.push(v);
                }
            }
            FabricEvent::MemberPoll(sw) => {
                let mf = self.fed.fabric_mut();
                let now = mf.now_ns;
                let member = &mut mf.members[sw];
                let acts = member.ctl.poll(&mut member.rt, now);
                mf.absorb(sw, acts);
            }
        }

        // ----- F6: the migration machine moved legally -----
        if ev != FabricEvent::FedCrash {
            // (A federation crash wipes every tracked migration —
            // `any → None` — the one documented exception.)
            for app in &self.scope.apps {
                let from = pre_status[&app.fid];
                let to = self.fed.migration_status(app.fid);
                if !MigrationStatus::may_step(from, to) {
                    self.staged.push(Violation {
                        kind: InvariantKind::MigrationMachineBreach,
                        fid: Some(app.fid),
                        detail: format!("undocumented status transition {from:?} -> {to:?}"),
                    });
                }
            }
        }
        // Stranded check: a live federation must be driving every
        // member-side migration (a member quiesced for a migration
        // nobody resumes or aborts is stuck forever).
        if !self.fed.is_crashed() {
            for sw in 0..self.scope.members {
                for fid in self.fed.fabric().controller(sw).migrating_fids() {
                    if self.fed.migration_status(fid).is_none() {
                        self.staged.push(Violation {
                            kind: InvariantKind::MigrationMachineBreach,
                            fid: Some(fid),
                            detail: format!(
                                "member {sw} is migrating fid {fid} out but the live \
                                 federation is not driving it (stranded)"
                            ),
                        });
                    }
                }
            }
        }

        // ----- F5: completion respected the drain barrier -----
        let completed_now = self.fed.stats().migrations_completed > pre_completed;
        if completed_now && pre_in_flight > 0 {
            if let FabricEvent::MigStep(fid) = ev {
                self.staged.push(Violation {
                    kind: InvariantKind::DrainBarrierBreach,
                    fid: Some(fid),
                    detail: format!(
                        "migration completed with {pre_in_flight} frame(s) still in flight"
                    ),
                });
            }
        }

        // ----- shadow F2: completed migrations carried every cell -----
        if completed_now {
            if let FabricEvent::MigStep(fid) = ev {
                if let Some(expected) = self.shadow.remove(&fid) {
                    if let Some(&dst) = self.fed.placements().get(&fid) {
                        let got = region_cells(self.fed.fabric(), dst, fid);
                        if got != expected {
                            self.staged.push(Violation {
                                kind: InvariantKind::MigrationStateLoss,
                                fid: Some(fid),
                                detail: format!(
                                    "post-cutover destination cells {got:?} diverge from \
                                     the pre-migration source {expected:?}"
                                ),
                            });
                        }
                    }
                }
            }
        }
        if self.fed.stats().migrations_aborted > pre_aborted {
            // Aborted-in-place: the source copy is authoritative again;
            // the shadow has nothing left to check. (Gated on the abort
            // counter, not on tracking loss: a federation crash also
            // empties the tracking table, but its migration may resume
            // after recovery and must keep its shadow.)
            let still = self.fed.migrating_fids();
            self.shadow.retain(|fid, _| still.contains(fid));
        }
    }

    /// The mutation seeded into this world's federation, if any.
    pub fn seeded_bug(&self) -> Option<FabricBug> {
        self.seeded
    }

    /// Every violation visible in this state: staged temporal
    /// violations (F4 from the backend, F5/F6/shadow-F2/recovery from
    /// `apply`) plus the state predicates F1–F3 (which lift each
    /// member's structural I1–I7 and I9).
    pub fn check(&self) -> Vec<Violation> {
        let mut out = self.staged.clone();
        out.extend(self.fed.fabric().staged.iter().cloned());
        let mf = self.fed.fabric();
        let views: Vec<crate::fabric::FabricMemberView<'_>> = (0..self.scope.members)
            .map(|i| crate::fabric::FabricMemberView {
                id: i as u16,
                controller: mf.controller(i),
                plane: mf.plane(i),
            })
            .collect();
        out.extend(crate::fabric::check_fabric_invariants(
            &views,
            self.fed.audits(),
        ));
        out
    }

    /// A canonical fingerprint of the fabric-model-relevant state (see
    /// the module docs for the soundness argument).
    pub fn fingerprint(&self) -> u64 {
        let mut bytes: Vec<u8> = Vec::with_capacity(1024);
        let push16 = |bytes: &mut Vec<u8>, v: u16| bytes.extend_from_slice(&v.to_le_bytes());
        let push32 = |bytes: &mut Vec<u8>, v: u32| bytes.extend_from_slice(&v.to_le_bytes());
        let push64 = |bytes: &mut Vec<u8>, v: u64| bytes.extend_from_slice(&v.to_le_bytes());

        let mf = self.fed.fabric();
        for (i, m) in mf.members.iter().enumerate() {
            bytes.push(b'S');
            bytes.push(i as u8);
            let alloc = m.ctl.allocator();
            bytes.push(b'A');
            for (fid, _) in alloc.apps() {
                push16(&mut bytes, fid);
                for p in alloc.placements_of(fid) {
                    push32(&mut bytes, p.stage as u32);
                    push32(&mut bytes, p.range.start);
                    push32(&mut bytes, p.range.len);
                }
            }
            bytes.push(b'P');
            let prot = m.rt.protection();
            for fid in prot.resident_fids() {
                for stage in 0..mf.stages {
                    if let Some(e) = prot.lookup(stage, fid) {
                        push16(&mut bytes, fid);
                        push32(&mut bytes, stage as u32);
                        push32(&mut bytes, e.lo);
                        push32(&mut bytes, e.hi);
                    }
                }
            }
            bytes.push(b'p');
            if let Some(fid) = m.ctl.pending_fid() {
                push16(&mut bytes, fid);
                for v in m.ctl.pending_waiting() {
                    push16(&mut bytes, v);
                }
                bytes.push(b'/');
                for v in m.ctl.pending_victims() {
                    push16(&mut bytes, v);
                }
            }
            bytes.push(b'q');
            for fid in m.ctl.queued_fids() {
                push16(&mut bytes, fid);
            }
            bytes.push(b'u');
            for fid in m.ctl.unacked_fids() {
                push16(&mut bytes, fid);
                push16(&mut bytes, m.ctl.unacked_fence(fid).unwrap_or(0));
            }
            bytes.push(b'd');
            for fid in m.rt.deactivated_fids() {
                push16(&mut bytes, fid);
            }
            bytes.push(b'g');
            for fid in m.ctl.migrating_fids() {
                push16(&mut bytes, fid);
                push16(&mut bytes, m.ctl.migration_dest(fid).unwrap_or(u16::MAX));
                bytes.push(u8::from(m.ctl.migration_snapshot_acked(fid)));
            }
            bytes.push(b'e');
            push32(&mut bytes, m.ctl.epoch());
        }

        bytes.push(b'R');
        for (fid, r) in &mf.routes {
            push16(&mut bytes, *fid);
            push32(&mut bytes, r.switch as u32);
            push32(&mut bytes, r.epoch);
        }
        push32(&mut bytes, mf.max_issued_epoch);
        bytes.push(b'Z');
        for (fid, mode) in &mf.suppressed {
            push16(&mut bytes, *fid);
            bytes.push(match mode {
                SuppressMode::FailuresOnly => 1,
                SuppressMode::All => 2,
            });
        }
        bytes.push(b'Q');
        for q in &mf.queues {
            bytes.push(b'|');
            for frame in q {
                push32(&mut bytes, frame.len() as u32);
                bytes.extend_from_slice(frame);
            }
        }
        bytes.push(b'I');
        for (_, frame) in &mf.fed_inbox {
            push32(&mut bytes, frame.len() as u32);
            bytes.extend_from_slice(frame);
        }
        bytes.push(b'N');
        for pa in &mf.pending_admissions {
            push16(&mut bytes, pa.fid);
            push32(&mut bytes, pa.frame.len() as u32);
            bytes.extend_from_slice(&pa.frame);
        }
        bytes.push(b'F');
        for (_, fid) in &mf.placement_failures {
            push16(&mut bytes, *fid);
        }
        bytes.push(b'm');
        for (sig, &n) in &mf.signals {
            push32(&mut bytes, sig.member as u32);
            bytes.push(match sig.kind {
                SigKind::Deactivate => 1,
                SigKind::Reactivate => 2,
            });
            push16(&mut bytes, sig.fid);
            push16(&mut bytes, sig.fence);
            push32(&mut bytes, n);
        }

        bytes.push(b'G');
        bytes.push(u8::from(self.fed.is_crashed()));
        push32(&mut bytes, self.fed.route_epoch());
        for (fid, sw) in self.fed.placements() {
            push16(&mut bytes, *fid);
            push32(&mut bytes, *sw as u32);
        }
        bytes.push(b'L');
        for (fid, idx, total) in self.fed.placing_detail() {
            push16(&mut bytes, fid);
            push32(&mut bytes, idx as u32);
            push32(&mut bytes, total as u32);
        }
        bytes.push(b'M');
        for fid in self.fed.migrating_fids() {
            if let Some(b) = self.fed.migration_brief(fid) {
                push16(&mut bytes, fid);
                push32(&mut bytes, b.src as u32);
                push32(&mut bytes, b.dst as u32);
                bytes.push(b.status as u8);
                push32(&mut bytes, b.pending_sync as u32);
                push64(&mut bytes, b.state_digest);
            }
        }
        // The audit ledger must distinguish states (a dirty audit is
        // exactly what F2 flags; deduping it against a clean twin
        // would hide the violation).
        bytes.push(b'a');
        for a in self.fed.audits() {
            push16(&mut bytes, a.fid);
            bytes.push(u8::from(a.aborted));
            for &(s, o, v) in a.expected.iter().chain(&a.observed) {
                push32(&mut bytes, s as u32);
                push32(&mut bytes, o);
                push32(&mut bytes, v);
            }
        }
        bytes.push(b'h');
        for (fid, cells) in &self.shadow {
            push16(&mut bytes, *fid);
            for &(ri, off, v) in cells {
                push32(&mut bytes, ri as u32);
                push32(&mut bytes, off);
                push32(&mut bytes, v);
            }
        }
        bytes.push(b'b');
        push32(&mut bytes, self.budget.drops);
        push32(&mut bytes, self.budget.duplicates);
        push32(&mut bytes, self.budget.stalls);
        push32(&mut bytes, self.budget.crashes);
        push32(&mut bytes, self.budget.corruptions);
        bytes.push(b'v');
        for v in self.staged.iter().chain(&mf.staged) {
            push16(&mut bytes, v.kind.code());
        }

        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl crate::explore::ModelWorld for FabricWorld {
    type Event = FabricEvent;
    fn enabled(&self) -> Vec<FabricEvent> {
        FabricWorld::enabled(self)
    }
    fn apply(&mut self, ev: FabricEvent) {
        FabricWorld::apply(self, ev);
    }
    fn fingerprint(&self) -> u64 {
        FabricWorld::fingerprint(self)
    }
    fn check(&self) -> Vec<Violation> {
        FabricWorld::check(self)
    }
}
