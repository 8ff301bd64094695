//! The switch control plane (Section 4.3).
//!
//! "When a switch receives such a request, it communicates the
//! information encoded in the packet to the switch controller running
//! on the switch CPU ... The controller serializes requests to ensure
//! applications are admitted one at a time."
//!
//! The [`Controller`] owns the [`Allocator`] and drives the
//! reallocation protocol against the data-plane [`SwitchRuntime`]:
//!
//! 1. a request arrives; if a reallocation is in flight it is queued;
//! 2. the allocator computes an outcome (measured compute time);
//! 3. victims are *deactivated* and notified; the controller waits for
//!    their snapshot-complete signals (or times them out);
//! 4. tables are updated (modeled cost), victims reactivated with their
//!    new regions, and the requester receives its allocation response.
//!
//! All externally visible effects are returned as timestamped
//! [`ControllerAction`]s so a discrete-event harness can deliver them
//! at the right virtual time.

pub mod tables;

pub use tables::{CostModel, ProvisioningReport};

use crate::alloc::{
    AccessPattern, AllocOutcome, Allocator, AllocatorConfig, CacheKey, MutantCache, MutantPolicy,
    Scheme, DEFAULT_CACHE_CAPACITY,
};
use crate::config::SwitchConfig;
use crate::error::CoreError;
use crate::oplog::{OpLog, OpRecord};
use crate::runtime::{DataPlane, ProtEntry, SwitchRuntime};
use crate::types::Fid;
use activermt_analysis::{
    check_mutant_equivalence, pad_to_positions, verify, AnalysisContext, Assumptions, FindingKind,
};
use activermt_isa::wire::RegionEntry;
use activermt_isa::Program;
use activermt_telemetry::{
    Counter, EventKind, Histogram, Journal, RepairKind, Telemetry, VerifyRejectReason,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A timestamped control-plane effect for the surrounding harness.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerAction {
    /// Deliver an allocation response (initial grant, updated regions
    /// after a reallocation, or a failure notification).
    Respond {
        /// Destination application.
        fid: Fid,
        /// Per-stage register regions (empty on failure).
        regions: Vec<(usize, RegionEntry)>,
        /// No feasible allocation existed.
        failed: bool,
        /// Virtual time at which the response leaves the switch.
        at_ns: u64,
    },
    /// Tell a victim its packets are quiesced and it should snapshot.
    Deactivate {
        /// The victim.
        fid: Fid,
        /// Virtual send time.
        at_ns: u64,
        /// Fence token the victim must echo in its SnapshotComplete
        /// (stamped into the wire `seq` field; see
        /// [`Controller::handle_snapshot_complete_fenced`]).
        fence: u16,
    },
    /// Tell a victim processing has resumed on its new regions.
    Reactivate {
        /// The victim.
        fid: Fid,
        /// Virtual send time.
        at_ns: u64,
        /// Fence token the victim must echo in its ReactivateAck.
        fence: u16,
    },
    /// A provisioning event completed (for the Figure 8a harness).
    Report(ProvisioningReport),
}

/// A deliberately seeded controller bug, used *only* to mutation-test
/// the invariant engine in `activermt-modelcheck`: each variant
/// re-introduces a class of control-plane fault the checker must catch
/// with a counterexample trace. Injection is test-only plumbing; no
/// production path ever sets one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// `finish_pending` installs the newcomer's protection entries one
    /// block wider than the grant (isolation breach / coverage drift).
    OverlappingGrant,
    /// `handle_deallocate` forgets to remove the departing FID's
    /// protection entry in its first stage (leaked table entry).
    DeallocLeaksEntry,
    /// A verify-rejection forgets to roll the grant back: the blocks
    /// stay booked to a FID that was answered "failed" (lost blocks).
    RollbackLeak,
    /// `finish_pending` answers and tracks victims but never resumes
    /// them in the data plane (ack-less reactivation: stuck FIDs).
    AckLessReactivation,
    /// The write-ahead discipline is inverted: each op-log record is
    /// held back until the *next* transition commits, so a crash loses
    /// the last applied transition and replay rebuilds a stale state
    /// (the classic log-write-after-action bug).
    LogAfterAction,
}

#[derive(Debug, Clone)]
struct PendingRealloc {
    outcome: AllocOutcome,
    waiting: BTreeSet<Fid>,
    started_ns: u64,
    deadline_ns: u64,
    alloc_compute_ns: u64,
    snapshot_regs: u64,
    snapshot_stages: usize,
    /// Last time each victim was sent its Deactivate signal; polls
    /// re-send until the snapshot-complete arrives (loss tolerance).
    last_signal_ns: BTreeMap<Fid, u64>,
    /// Fence token stamped into this round's signals; a victim's
    /// SnapshotComplete must echo it or be rejected as stale.
    fence: u16,
}

/// A victim whose reactivation (new regions + resume signal) has not
/// been acknowledged yet; polls re-send both until the client's
/// ReactivateAck arrives or the retry budget runs out.
#[derive(Debug, Clone)]
struct UnackedReactivation {
    last_ns: u64,
    attempts: u32,
    /// Fence token the victim's ReactivateAck must echo.
    fence: u16,
}

#[derive(Debug, Clone)]
struct QueuedRequest {
    fid: Fid,
    pattern: AccessPattern,
    policy: MutantPolicy,
    program: Option<Program>,
    arrived_ns: u64,
}

/// A FID quiesced on this switch while the fabric moves it elsewhere.
/// It stays granted (and deactivated) here until the fabric either
/// deallocates it post-cutover or aborts the migration.
#[derive(Debug, Clone)]
struct MigrationOut {
    /// Fabric-assigned destination switch index (bookkeeping only —
    /// this controller never talks to the destination directly).
    dest: u16,
    /// Fence token the client's snapshot-complete must echo.
    fence: u16,
    /// The fenced snapshot-complete arrived: state extraction may
    /// proceed.
    acked: bool,
    /// Last Deactivate (re-)send, for loss-tolerant re-signalling.
    last_signal_ns: u64,
}

/// Per-FID static-verification tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Programs that passed verification at admission.
    pub accepted: u64,
    /// Programs rejected (and their grants rolled back).
    pub rejected: u64,
}

/// What the post-recovery reconciliation pass repaired, by kind.
/// Accumulates across recoveries of the same controller lineage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Protection-table entries re-installed (missing or divergent).
    pub reinstalled_entries: u64,
    /// Orphaned protection-table entries removed.
    pub scrubbed_entries: u64,
    /// In-flight victims re-quiesced in the data plane.
    pub requiesced: u64,
    /// FIDs found quiesced with no reallocation to blame, resumed.
    pub reactivated_strays: u64,
    /// Deactivate / Respond+Reactivate signals re-issued.
    pub resent_signals: u64,
}

impl RecoveryStats {
    /// Total repairs across all kinds.
    pub fn total(&self) -> u64 {
        self.reinstalled_entries
            + self.scrubbed_entries
            + self.requiesced
            + self.reactivated_strays
            + self.resent_signals
    }
}

/// The ActiveRMT switch controller.
#[derive(Debug)]
pub struct Controller {
    allocator: Allocator,
    cost: CostModel,
    pending: Option<PendingRealloc>,
    queue: VecDeque<QueuedRequest>,
    /// Last known per-app regions, for diffing table updates.
    regions: BTreeMap<Fid, Vec<(usize, RegionEntry)>>,
    /// Victims awaiting a ReactivateAck.
    unacked: BTreeMap<Fid, UnackedReactivation>,
    /// FIDs quiesced here for live cross-switch migration (fabric
    /// layer). New admissions queue behind them exactly as behind a
    /// pending reallocation: both mutate the same placement state.
    migrating_out: BTreeMap<Fid, MigrationOut>,
    /// Minimum spacing between re-sent control signals, ns.
    resend_interval_ns: u64,
    /// How many times a Deactivate/Reactivate is re-sent before the
    /// victim is declared unreachable (counted, not silent).
    max_resends: u32,
    duplicate_requests: u64,
    resent_signals: u64,
    abandoned_reactivations: u64,
    /// Pipeline geometry for the static verifier.
    num_stages: usize,
    ingress_stages: usize,
    max_recirculations: Option<u8>,
    /// Switch-wide static-verification counters (registered with the
    /// telemetry hub when bound).
    verify_accepted: Counter,
    verify_rejected: Counter,
    /// Legacy no-bytecode admissions that bypassed the verifier: not an
    /// error, but observable — an unverified grant should never be
    /// silent.
    verify_skipped: Counter,
    /// Testing-only seeded fault (mutation tests for the invariant
    /// engine); `None` everywhere outside those tests.
    seeded_bug: Option<SeededBug>,
    /// Per-FID verification tallies, for the snapshot's FID rows.
    verify_stats: BTreeMap<Fid, VerifyStats>,
    /// Structured control-plane events (admissions, reallocations,
    /// snapshot completions, departures). `None` until telemetry is
    /// bound; the data path never touches it.
    journal: Option<Journal>,
    /// End-to-end reallocation latency per admission, ns.
    realloc_total_ns: Histogram,
    /// Modeled table-update time per admission, ns.
    table_update_ns: Histogram,
    /// The write-ahead op-log; `None` until attached (tests and the
    /// model checker's clean worlds run without one).
    oplog: Option<OpLog>,
    /// Controller generation: 0 for a fresh boot, bumped by every
    /// [`Controller::recover`].
    epoch: u32,
    /// Monotone fence-token source; each reallocation round takes the
    /// next value and stamps it into its signals.
    fence: u16,
    /// [`SeededBug::LogAfterAction`] plumbing: the record held back
    /// until the next transition commits (lost on crash — the bug).
    deferred_record: Option<OpRecord>,
    /// Stale-fence SnapshotComplete / ReactivateAck messages rejected.
    stale_rejects: Counter,
    /// Completed crash recoveries in this controller lineage.
    recoveries: Counter,
    /// Total reconciliation repairs (see [`RecoveryStats`]).
    repairs: Counter,
    /// Repair breakdown by kind.
    recovery_stats: RecoveryStats,
    /// Modeled recovery latency (replay + reconciliation), ns.
    recovery_ns: Histogram,
    /// Accepted static-verification verdicts, memoized by (program
    /// digest, mutant positions, granted-region geometry). Soft state:
    /// a hit skips re-running the padding, equivalence, and abstract
    /// interpretation for a combination already proven safe. Only
    /// acceptances are cached — a rejection's diagnostics must be
    /// recomputed fresh so the requester sees the full detail.
    verify_cache: MutantCache<()>,
    /// Verify-cache accounting: hits + misses = verified admissions.
    optimizer_cache_hits: Counter,
    optimizer_cache_misses: Counter,
}

/// `Clone` supports the model checker's state-space exploration: the
/// explorer forks a controller per transition. Metric cells detach
/// (deep-copy, like the allocator's accounting) so a branch state never
/// feeds the original's registry; the journal handle — whose own
/// `Clone` shares the ring by design — is dropped instead, because a
/// thousand explored branches interleaving events into one ring would
/// make it meaningless.
impl Clone for Controller {
    fn clone(&self) -> Controller {
        Controller {
            allocator: self.allocator.clone(),
            cost: self.cost,
            pending: self.pending.clone(),
            queue: self.queue.clone(),
            regions: self.regions.clone(),
            unacked: self.unacked.clone(),
            migrating_out: self.migrating_out.clone(),
            resend_interval_ns: self.resend_interval_ns,
            max_resends: self.max_resends,
            duplicate_requests: self.duplicate_requests,
            resent_signals: self.resent_signals,
            abandoned_reactivations: self.abandoned_reactivations,
            num_stages: self.num_stages,
            ingress_stages: self.ingress_stages,
            max_recirculations: self.max_recirculations,
            verify_accepted: self.verify_accepted.detached_copy(),
            verify_rejected: self.verify_rejected.detached_copy(),
            verify_skipped: self.verify_skipped.detached_copy(),
            seeded_bug: self.seeded_bug,
            verify_stats: self.verify_stats.clone(),
            journal: None,
            realloc_total_ns: self.realloc_total_ns.detached_copy(),
            table_update_ns: self.table_update_ns.detached_copy(),
            // Unlike the journal, the op-log must survive the fork with
            // its contents — a branch that crashes replays *its own*
            // history — so it deep-copies instead of being dropped.
            oplog: self.oplog.as_ref().map(OpLog::deep_clone),
            epoch: self.epoch,
            fence: self.fence,
            deferred_record: self.deferred_record.clone(),
            stale_rejects: self.stale_rejects.detached_copy(),
            recoveries: self.recoveries.detached_copy(),
            repairs: self.repairs.detached_copy(),
            recovery_stats: self.recovery_stats,
            recovery_ns: self.recovery_ns.detached_copy(),
            // The verdict memo is sound across forks (verdicts are
            // deterministic in the key), so branches keep the warm
            // cache.
            verify_cache: self.verify_cache.clone(),
            optimizer_cache_hits: self.optimizer_cache_hits.detached_copy(),
            optimizer_cache_misses: self.optimizer_cache_misses.detached_copy(),
        }
    }
}

impl Controller {
    /// Build a controller for a switch with the given scheme.
    pub fn new(cfg: &SwitchConfig, scheme: Scheme) -> Controller {
        Controller {
            allocator: Allocator::new(AllocatorConfig::from_switch(cfg, scheme)),
            cost: CostModel::from_config(cfg),
            pending: None,
            queue: VecDeque::new(),
            regions: BTreeMap::new(),
            unacked: BTreeMap::new(),
            migrating_out: BTreeMap::new(),
            resend_interval_ns: 500_000,
            max_resends: 50,
            duplicate_requests: 0,
            resent_signals: 0,
            abandoned_reactivations: 0,
            num_stages: cfg.num_stages,
            ingress_stages: cfg.ingress_stages,
            max_recirculations: cfg.max_recirculations,
            verify_accepted: Counter::new(),
            verify_rejected: Counter::new(),
            verify_skipped: Counter::new(),
            seeded_bug: None,
            verify_stats: BTreeMap::new(),
            journal: None,
            realloc_total_ns: Histogram::new(),
            table_update_ns: Histogram::new(),
            oplog: None,
            epoch: 0,
            fence: 0,
            deferred_record: None,
            stale_rejects: Counter::new(),
            recoveries: Counter::new(),
            repairs: Counter::new(),
            recovery_stats: RecoveryStats::default(),
            recovery_ns: Histogram::new(),
            verify_cache: MutantCache::new(DEFAULT_CACHE_CAPACITY),
            optimizer_cache_hits: Counter::new(),
            optimizer_cache_misses: Counter::new(),
        }
    }

    /// Build a controller whose allocator accounting, provisioning
    /// histograms, and event journal all feed the given telemetry hub.
    pub fn with_telemetry(cfg: &SwitchConfig, scheme: Scheme, telemetry: &Telemetry) -> Controller {
        let mut c = Controller::new(cfg, scheme);
        c.bind_telemetry(telemetry);
        c
    }

    /// Adopt this controller's metrics into `telemetry`'s registry and
    /// route structured control-plane events to its journal. Safe to
    /// call on a controller built with [`Controller::new`].
    pub fn bind_telemetry(&mut self, telemetry: &Telemetry) {
        self.allocator.bind_telemetry(telemetry);
        let reg = telemetry.registry();
        reg.register_histogram("controller.realloc_total_ns", &self.realloc_total_ns);
        reg.register_histogram("controller.table_update_ns", &self.table_update_ns);
        reg.register_counter("controller.verify_accepted", &self.verify_accepted);
        reg.register_counter("controller.verify_rejected", &self.verify_rejected);
        reg.register_counter("controller.verify_skipped", &self.verify_skipped);
        reg.register_counter(
            "controller.optimizer.cache_hits",
            &self.optimizer_cache_hits,
        );
        reg.register_counter(
            "controller.optimizer.cache_misses",
            &self.optimizer_cache_misses,
        );
        reg.register_counter("controller.stale_epoch_rejects", &self.stale_rejects);
        reg.register_counter("controller.recoveries", &self.recoveries);
        reg.register_counter("controller.repairs", &self.repairs);
        reg.register_histogram("controller.recovery_ns", &self.recovery_ns);
        self.journal = Some(telemetry.journal().clone());
    }

    fn journal_event(&self, at_ns: u64, kind: EventKind) {
        if let Some(j) = &self.journal {
            j.record(at_ns, kind);
        }
    }

    /// Commit a transition to the write-ahead log. Called at each entry
    /// point before the transition's actions are handed back to the
    /// transport, so the log is always at least as new as anything the
    /// outside world has seen. Under [`SeededBug::LogAfterAction`] the
    /// record is instead held until the *next* transition commits —
    /// the ordering bug the model checker's mutation test must refute.
    fn log_record(&mut self, record: OpRecord) {
        let Some(log) = &self.oplog else {
            return;
        };
        if self.has_bug(SeededBug::LogAfterAction) {
            if let Some(prev) = self.deferred_record.replace(record) {
                log.append(prev);
            }
        } else {
            log.append(record);
        }
    }

    /// Attach a write-ahead log; every subsequent transition commits a
    /// record into it. Idiomatically the harness keeps a shared handle
    /// (the log *is* the stable storage) and rebuilds a crashed
    /// controller from it with [`Controller::recover`].
    pub fn attach_oplog(&mut self, log: OpLog) {
        self.oplog = Some(log);
    }

    /// The attached write-ahead log, if any.
    pub fn oplog(&self) -> Option<&OpLog> {
        self.oplog.as_ref()
    }

    /// Controller generation: 0 from a fresh boot, +1 per recovery.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The fence token the in-flight reallocation's signals carry (the
    /// value victims must echo), if a round is pending.
    pub fn pending_fence(&self) -> Option<u16> {
        self.pending.as_ref().map(|p| p.fence)
    }

    /// The fence token `fid`'s pending reactivation carries, if any.
    pub fn unacked_fence(&self, fid: Fid) -> Option<u16> {
        self.unacked.get(&fid).map(|u| u.fence)
    }

    /// Stale-fence control messages rejected.
    pub fn stale_epoch_rejects(&self) -> u64 {
        self.stale_rejects.get()
    }

    /// Completed crash recoveries in this controller lineage.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.get()
    }

    /// Reconciliation repair breakdown (accumulated across recoveries).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// The allocator state (metrics, tests).
    pub fn allocator(&self) -> &Allocator {
        &self.allocator
    }

    /// Is a reallocation protocol in flight?
    pub fn busy(&self) -> bool {
        self.pending.is_some()
    }

    /// Queued requests awaiting serialization.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Duplicate allocation requests answered idempotently.
    pub fn duplicate_requests(&self) -> u64 {
        self.duplicate_requests
    }

    /// Deactivate/Reactivate signals re-sent on poll.
    pub fn resent_signals(&self) -> u64 {
        self.resent_signals
    }

    /// Victims whose reactivation retry budget ran out.
    pub fn abandoned_reactivations(&self) -> u64 {
        self.abandoned_reactivations
    }

    /// Victims still owed a ReactivateAck.
    pub fn unacked_reactivations(&self) -> usize {
        self.unacked.len()
    }

    /// The FIDs still owed a ReactivateAck, sorted.
    pub fn unacked_fids(&self) -> Vec<Fid> {
        self.unacked.keys().copied().collect()
    }

    /// The in-flight requester, if a reallocation is pending.
    pub fn pending_fid(&self) -> Option<Fid> {
        self.pending.as_ref().map(|p| p.outcome.fid)
    }

    /// Every victim of the in-flight reallocation (snapshot-completed
    /// or not), sorted. Empty when idle.
    pub fn pending_victims(&self) -> Vec<Fid> {
        self.pending
            .as_ref()
            .map(|p| p.outcome.victims_by_fid().keys().copied().collect())
            .unwrap_or_default()
    }

    /// Victims of the in-flight reallocation whose snapshot-complete
    /// has not arrived yet, sorted. Empty when idle.
    pub fn pending_waiting(&self) -> Vec<Fid> {
        self.pending
            .as_ref()
            .map(|p| p.waiting.iter().copied().collect())
            .unwrap_or_default()
    }

    /// FIDs of queued (serialized) requests, in arrival order.
    pub fn queued_fids(&self) -> Vec<Fid> {
        self.queue.iter().map(|q| q.fid).collect()
    }

    /// The in-flight reallocation's snapshot deadline, if any (the
    /// model checker's stall transition jumps virtual time here to
    /// force the timeout path).
    pub fn pending_deadline_ns(&self) -> Option<u64> {
        self.pending.as_ref().map(|p| p.deadline_ns)
    }

    /// The per-app regions the controller last pushed to the tables
    /// (what each client was *told*), in FID order.
    pub fn granted_regions(&self) -> impl Iterator<Item = (Fid, &[(usize, RegionEntry)])> {
        self.regions.iter().map(|(&f, r)| (f, r.as_slice()))
    }

    /// The regions last pushed for one FID, if it is granted.
    pub fn regions_of(&self, fid: Fid) -> Option<&[(usize, RegionEntry)]> {
        self.regions.get(&fid).map(Vec::as_slice)
    }

    /// FIDs currently quiesced here for cross-switch migration, sorted.
    pub fn migrating_fids(&self) -> Vec<Fid> {
        self.migrating_out.keys().copied().collect()
    }

    /// Has the migrating FID's client acknowledged the quiesce (a
    /// snapshot-complete echoing the migration's fence)?
    pub fn migration_snapshot_acked(&self, fid: Fid) -> bool {
        self.migrating_out.get(&fid).is_some_and(|m| m.acked)
    }

    /// The fabric-assigned destination recorded when `fid`'s migration
    /// started, if one is in flight.
    pub fn migration_dest(&self, fid: Fid) -> Option<u16> {
        self.migrating_out.get(&fid).map(|m| m.dest)
    }

    /// Testing-only: seed a controller bug for the model checker's
    /// mutation tests (see [`SeededBug`]). Also disables the
    /// debug-assertions invariant hook in [`Controller::poll`], whose
    /// job the full engine takes over in those tests.
    #[doc(hidden)]
    pub fn inject_seeded_bug(&mut self, bug: SeededBug) {
        self.seeded_bug = Some(bug);
    }

    fn has_bug(&self, bug: SeededBug) -> bool {
        self.seeded_bug == Some(bug)
    }

    /// Handle an allocation request (Section 4.3). Returns the actions
    /// to deliver. Requests carrying no program bytecode (the legacy
    /// wire format) are admitted on access-pattern evidence alone; see
    /// [`Controller::handle_request_with_program`] for the verified
    /// path.
    pub fn handle_request(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        pattern: AccessPattern,
        policy: MutantPolicy,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        self.handle_request_with_program(runtime, fid, pattern, policy, None, now_ns)
    }

    /// Handle an allocation request whose packet also carried the
    /// compact program bytecode. After the allocator finds a placement
    /// — but before any victim is disturbed or a grant is sent — the
    /// static verifier checks the NOP-padded mutant against the chosen
    /// regions; a failing program has its grant rolled back and the
    /// request is answered as failed.
    pub fn handle_request_with_program(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        pattern: AccessPattern,
        policy: MutantPolicy,
        program: Option<&Program>,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        if self.pending.is_some() || !self.migrating_out.is_empty() {
            // A retransmit of the in-flight or an already-queued request
            // is absorbed; the original will be answered when the
            // reallocation finishes. This must be checked BEFORE the
            // admitted-fid fast path: during a reallocation the
            // requester is already committed in the allocator but its
            // regions map entry is only written at finish, so answering
            // early would send an empty (unrealizable) grant.
            let in_flight = self
                .pending
                .as_ref()
                .is_some_and(|p| p.outcome.fid == fid || p.waiting.contains(&fid));
            if in_flight || self.queue.iter().any(|q| q.fid == fid) {
                self.duplicate_requests += 1;
                return Vec::new();
            }
        }
        // Duplicate requests are idempotent: an already-admitted app
        // (whose response was presumably lost) gets its current regions
        // re-sent, and its allocation is left untouched. Retransmitting
        // after a timeout is the paper's loss-tolerance story
        // (Section 4.3), so retransmits must never be treated as new
        // admissions.
        if self.allocator.contains(fid) {
            self.duplicate_requests += 1;
            return vec![ControllerAction::Respond {
                fid,
                regions: self.regions.get(&fid).cloned().unwrap_or_default(),
                failed: false,
                at_ns: now_ns + self.cost.control_fixed_ns,
            }];
        }
        // Past the duplicate filters this request will change state
        // (queued or admitted): commit it to the op-log first.
        self.log_record(OpRecord::Request {
            fid,
            pattern: pattern.clone(),
            policy,
            program: program.cloned(),
            now_ns,
        });
        if self.pending.is_some() || !self.migrating_out.is_empty() {
            // "The controller serializes requests to ensure applications
            // are admitted one at a time." A migration holds the same
            // lock: its placement is committed until cutover/abort.
            self.queue.push_back(QueuedRequest {
                fid,
                pattern,
                policy,
                program: program.cloned(),
                arrived_ns: now_ns,
            });
            return Vec::new();
        }
        self.start_admission(runtime, fid, pattern, policy, program, now_ns)
    }

    /// A victim acknowledged its reactivation; stop re-signalling it.
    /// Unfenced entry point: trusts the sender (in-process tests and
    /// the model checker's lossless delivery).
    pub fn handle_reactivate_ack(&mut self, fid: Fid) {
        let fence = self.unacked.get(&fid).map(|u| u.fence);
        if let Some(fence) = fence {
            self.handle_reactivate_ack_fenced(fid, fence, 0);
        }
    }

    /// A victim acknowledged its reactivation, echoing the fence token
    /// from the Reactivate signal it acted on. An ack fenced to an
    /// older round (or an older controller generation) is rejected: it
    /// acknowledges a reactivation this controller no longer owes.
    pub fn handle_reactivate_ack_fenced(&mut self, fid: Fid, fence: u16, now_ns: u64) {
        match self.unacked.get(&fid) {
            Some(u) if u.fence == fence => {
                self.log_record(OpRecord::ReactivateAck { fid, now_ns });
                self.unacked.remove(&fid);
            }
            Some(u) => {
                let want = u.fence;
                self.stale_rejects.inc();
                self.journal_event(
                    now_ns,
                    EventKind::StaleSignalRejected {
                        fid,
                        got: fence,
                        want,
                    },
                );
            }
            // An ack for a FID with nothing outstanding is the normal
            // retransmit tail (the first copy already landed) — not a
            // fencing event.
            None => {}
        }
    }

    /// A victim finished extracting state from the snapshot. Unfenced
    /// entry point: trusts the sender (see
    /// [`Controller::handle_snapshot_complete_fenced`]).
    pub fn handle_snapshot_complete(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        let fence = self
            .migrating_out
            .get(&fid)
            .map(|m| m.fence)
            .or_else(|| self.pending.as_ref().map(|p| p.fence));
        let Some(fence) = fence else {
            return Vec::new();
        };
        self.handle_snapshot_complete_fenced(runtime, fid, fence, now_ns)
    }

    /// A victim finished extracting state, echoing the fence token from
    /// the Deactivate signal that asked for it. A completion fenced to
    /// an older round is rejected rather than applied: after a
    /// snapshot-timeout force-reactivation (or a crash recovery), the
    /// same FID may be a victim of a *new* round, and counting the old
    /// round's completion against it would release the newcomer's
    /// tables before the victim actually quiesced.
    pub fn handle_snapshot_complete_fenced(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        fence: u16,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        // A migrating FID's quiesce ack: record it for the fabric (the
        // state extraction may proceed) — there is no reallocation
        // round to finish here, cutover is the fabric's job.
        if let Some(m) = self.migrating_out.get_mut(&fid) {
            if m.fence == fence {
                if !m.acked {
                    m.acked = true;
                    self.log_record(OpRecord::SnapshotComplete { fid, now_ns });
                    self.journal_event(now_ns, EventKind::SnapshotComplete { fid });
                }
            } else {
                let want = m.fence;
                self.stale_rejects.inc();
                self.journal_event(
                    now_ns,
                    EventKind::StaleSignalRejected {
                        fid,
                        got: fence,
                        want,
                    },
                );
            }
            return Vec::new();
        }
        let (applies, stale_want) = match self.pending.as_ref() {
            Some(p) if p.fence == fence => (p.waiting.contains(&fid), None),
            Some(p) => (false, Some(p.fence)),
            None => return Vec::new(),
        };
        if let Some(want) = stale_want {
            self.stale_rejects.inc();
            self.journal_event(
                now_ns,
                EventKind::StaleSignalRejected {
                    fid,
                    got: fence,
                    want,
                },
            );
            return Vec::new();
        }
        if applies {
            self.log_record(OpRecord::SnapshotComplete { fid, now_ns });
            self.journal_event(now_ns, EventKind::SnapshotComplete { fid });
        }
        let done = match self.pending.as_mut() {
            Some(p) => {
                p.waiting.remove(&fid);
                p.waiting.is_empty()
            }
            None => return Vec::new(),
        };
        if done {
            let mut acts = self.finish_pending(runtime, now_ns);
            acts.extend(self.drain_queue(runtime, now_ns));
            acts
        } else {
            Vec::new()
        }
    }

    /// A client relinquishes its allocation (service departure).
    pub fn handle_deallocate(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        now_ns: u64,
    ) -> Result<Vec<ControllerAction>, CoreError> {
        if self.pending.is_some() {
            // A departure may race the FID's own queued-but-not-started
            // request: purge it so the drain can't resurrect an app
            // that already left. (Without this, the queued request was
            // admitted after the busy period and the departed FID came
            // back as a phantom tenant.)
            if let Some(idx) = self.queue.iter().position(|q| q.fid == fid) {
                self.log_record(OpRecord::Deallocate { fid, now_ns });
                self.queue.remove(idx);
                self.journal_event(now_ns, EventKind::Deallocation { fid });
                return Ok(Vec::new());
            }
            // Other departures during a reallocation would invalidate
            // the computed plan; the client retries after the busy
            // period.
            return Err(CoreError::Busy);
        }
        if !self.allocator.contains(fid) {
            return Err(CoreError::UnknownFid(fid));
        }
        self.log_record(OpRecord::Deallocate { fid, now_ns });
        // The departing FID's per-stage decode entries come out too.
        let mut entries = self.allocator.app(fid).map_or(0, |a| {
            self.cost.decode_entries_per_stage * usize::from(a.mutant.padded_len)
        });
        let victims = self.allocator.release(fid)?;
        self.journal_event(now_ns, EventKind::Deallocation { fid });
        let mut stages = runtime.protection().stages_of(fid);
        if self.has_bug(SeededBug::DeallocLeaksEntry) && !stages.is_empty() {
            stages.remove(0); // "forget" the first stage's table entry
        }
        for stage in stages {
            entries += runtime.remove_region(stage, fid);
        }
        self.regions.remove(&fid);
        self.unacked.remove(&fid);
        if self.migrating_out.remove(&fid).is_some() {
            // Post-cutover teardown: the FID's packets execute on its
            // destination switch now. Clear the quiesce flag the
            // migration left so departure leaves no residue.
            runtime.reactivate(fid);
        }
        let mut acts = Vec::new();
        // Survivors grow into the freed space; update their tables and
        // tell them their new regions.
        let mut grown: BTreeMap<Fid, ()> = BTreeMap::new();
        for v in &victims {
            grown.insert(v.fid, ());
        }
        for &vfid in grown.keys() {
            entries += self.sync_app_tables(runtime, vfid);
        }
        let done_ns = now_ns + self.cost.control_fixed_ns + self.cost.table_update_ns(entries, 0);
        for &vfid in grown.keys() {
            acts.push(ControllerAction::Respond {
                fid: vfid,
                regions: self.regions.get(&vfid).cloned().unwrap_or_default(),
                failed: false,
                at_ns: done_ns,
            });
        }
        acts.extend(self.drain_queue(runtime, now_ns));
        Ok(acts)
    }

    /// Quiesce a resident FID for live migration to another switch.
    ///
    /// The fabric layer drives the cross-switch protocol; this switch's
    /// part generalizes the Section 4.3 reallocation machinery: the FID
    /// is deactivated, its client is sent a fenced Deactivate notice
    /// (re-sent on poll until the snapshot-complete echoes the fence),
    /// and the grant stays committed here until the fabric either
    /// completes the cutover — arriving as a plain
    /// [`Controller::handle_deallocate`] — or abandons the move with
    /// [`Controller::handle_migrate_abort`]. Re-entering for a FID
    /// already migrating is idempotent and just re-signals (the
    /// federation redoes phases after its own crash).
    pub fn handle_migrate_out(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        dest: u16,
        now_ns: u64,
    ) -> Result<Vec<ControllerAction>, CoreError> {
        if let Some(m) = self.migrating_out.get_mut(&fid) {
            m.last_signal_ns = now_ns;
            let fence = m.fence;
            return Ok(vec![ControllerAction::Deactivate {
                fid,
                at_ns: now_ns,
                fence,
            }]);
        }
        if self.pending.is_some() {
            return Err(CoreError::Busy);
        }
        if !self.allocator.contains(fid) {
            return Err(CoreError::UnknownFid(fid));
        }
        self.log_record(OpRecord::MigrateOut { fid, dest, now_ns });
        self.fence = self.fence.wrapping_add(1);
        let fence = self.fence;
        runtime.deactivate(fid);
        self.migrating_out.insert(
            fid,
            MigrationOut {
                dest,
                fence,
                acked: false,
                last_signal_ns: now_ns,
            },
        );
        self.journal_event(now_ns, EventKind::MigrateOut { fid, dest });
        Ok(vec![ControllerAction::Deactivate {
            fid,
            at_ns: now_ns,
            fence,
        }])
    }

    /// Abandon a migration: the FID resumes on this switch with the
    /// regions it already holds. The client is told its (unchanged)
    /// regions and resumed through the unacked machinery, so a lost
    /// Reactivate cannot strand it.
    pub fn handle_migrate_abort(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        if self.migrating_out.remove(&fid).is_none() {
            return Vec::new();
        }
        self.log_record(OpRecord::MigrateAbort { fid, now_ns });
        runtime.reactivate(fid);
        self.fence = self.fence.wrapping_add(1);
        let fence = self.fence;
        self.journal_event(now_ns, EventKind::MigrateAbort { fid });
        self.journal_event(now_ns, EventKind::Reactivation { fid });
        self.unacked.insert(
            fid,
            UnackedReactivation {
                last_ns: now_ns,
                attempts: 0,
                fence,
            },
        );
        let mut acts = vec![
            ControllerAction::Respond {
                fid,
                regions: self.regions.get(&fid).cloned().unwrap_or_default(),
                failed: false,
                at_ns: now_ns,
            },
            ControllerAction::Reactivate {
                fid,
                at_ns: now_ns,
                fence,
            },
        ];
        acts.extend(self.drain_queue(runtime, now_ns));
        acts
    }

    /// Destination-side activation of a migrated FID: after the fabric
    /// has replayed the source snapshot into this switch's registers,
    /// tell the client its new regions and resume it, fenced and
    /// re-signalled until acked (the same unacked machinery as a
    /// reallocation victim). Idempotent — a federation redo simply
    /// re-fences and re-sends. Not logged: the grant itself was
    /// committed by the admission's Request record, and a crashed
    /// destination is re-activated by the recovering federation.
    pub fn handle_migrate_in_activate(
        &mut self,
        fid: Fid,
        now_ns: u64,
    ) -> Result<Vec<ControllerAction>, CoreError> {
        if !self.allocator.contains(fid) || !self.regions.contains_key(&fid) {
            return Err(CoreError::UnknownFid(fid));
        }
        self.fence = self.fence.wrapping_add(1);
        let fence = self.fence;
        self.journal_event(now_ns, EventKind::MigrateIn { fid });
        self.unacked.insert(
            fid,
            UnackedReactivation {
                last_ns: now_ns,
                attempts: 0,
                fence,
            },
        );
        Ok(vec![
            ControllerAction::Respond {
                fid,
                regions: self.regions.get(&fid).cloned().unwrap_or_default(),
                failed: false,
                at_ns: now_ns,
            },
            ControllerAction::Reactivate {
                fid,
                at_ns: now_ns,
                fence,
            },
        ])
    }

    /// Drive the periodic control loop: time out unresponsive victims
    /// so they cannot obstruct new allocations (Section 4.3), re-send
    /// Deactivate signals whose snapshot-complete has not arrived, and
    /// re-send unacknowledged reactivations (new regions + resume
    /// signal) until the client acks. A victim whose snapshot-complete
    /// was lost is thereby force-reactivated with its *new* regions on
    /// timeout — and keeps being told about them — rather than being
    /// silently abandoned; the queued requester is admitted on the same
    /// poll.
    pub fn poll(&mut self, runtime: &mut dyn DataPlane, now_ns: u64) -> Vec<ControllerAction> {
        #[cfg(debug_assertions)]
        self.debug_check_invariants(runtime);
        let mut acts = Vec::new();
        let timed_out = match &self.pending {
            Some(p) => now_ns >= p.deadline_ns,
            None => false,
        };
        if timed_out {
            // The forced completion is a committed transition: replay
            // reproduces it by re-polling at the recorded time.
            self.log_record(OpRecord::Timeout { now_ns });
            acts.extend(self.finish_pending(runtime, now_ns));
            acts.extend(self.drain_queue(runtime, now_ns));
        } else if let Some(p) = self.pending.as_mut() {
            // Victims that have not snapshot-completed may never have
            // seen the Deactivate (lost frame): re-signal on a backoff
            // interval.
            let fence = p.fence;
            for (&vfid, last) in &mut p.last_signal_ns {
                if p.waiting.contains(&vfid)
                    && now_ns >= *last
                    && now_ns - *last >= self.resend_interval_ns
                {
                    *last = now_ns;
                    self.resent_signals += 1;
                    acts.push(ControllerAction::Deactivate {
                        fid: vfid,
                        at_ns: now_ns,
                        fence,
                    });
                }
            }
        }
        // Migration quiesces are re-signalled the same way until the
        // client's fenced snapshot-complete lands.
        for (&mfid, m) in &mut self.migrating_out {
            if !m.acked
                && now_ns >= m.last_signal_ns
                && now_ns - m.last_signal_ns >= self.resend_interval_ns
            {
                m.last_signal_ns = now_ns;
                self.resent_signals += 1;
                acts.push(ControllerAction::Deactivate {
                    fid: mfid,
                    at_ns: now_ns,
                    fence: m.fence,
                });
            }
        }
        // Reactivations are re-sent (regions + resume) until acked.
        let mut give_up = Vec::new();
        for (&vfid, un) in &mut self.unacked {
            if now_ns >= un.last_ns && now_ns - un.last_ns >= self.resend_interval_ns {
                if un.attempts >= self.max_resends {
                    give_up.push(vfid);
                    continue;
                }
                un.last_ns = now_ns;
                un.attempts += 1;
                self.resent_signals += 1;
                acts.push(ControllerAction::Respond {
                    fid: vfid,
                    regions: self.regions.get(&vfid).cloned().unwrap_or_default(),
                    failed: false,
                    at_ns: now_ns,
                });
                acts.push(ControllerAction::Reactivate {
                    fid: vfid,
                    at_ns: now_ns,
                    fence: un.fence,
                });
            }
        }
        for vfid in give_up {
            self.log_record(OpRecord::Abandon { fid: vfid, now_ns });
            self.unacked.remove(&vfid);
            self.abandoned_reactivations += 1;
        }
        acts
    }

    /// Rebuild a crashed controller from its write-ahead log.
    ///
    /// Every entry-point handler is a deterministic function of the
    /// controller state and its input, so replaying the committed
    /// input records in commit order — against a scratch data plane
    /// built from the same configuration — reconstructs the allocator
    /// grants, the admission ledger (`regions`), the serialization
    /// queue, the pending-reallocation state machine, and the unacked
    /// reactivation set exactly as they stood at the last commit. The
    /// scratch runtime is then discarded: the *live* data plane
    /// survived the crash and is reconciled separately with
    /// [`Controller::reconcile`].
    ///
    /// The recovered controller runs in a fresh epoch (one past the
    /// highest the log has seen), which it commits as an
    /// [`OpRecord::EpochOpen`] so epochs keep rising across repeated
    /// crashes of the same log.
    pub fn recover(log: &OpLog, cfg: &SwitchConfig, scheme: Scheme) -> Controller {
        let mut c = Controller::new(cfg, scheme);
        let mut scratch = SwitchRuntime::new(*cfg);
        let mut last_ns = 0u64;
        for record in log.records() {
            match record {
                OpRecord::Request {
                    fid,
                    pattern,
                    policy,
                    program,
                    now_ns,
                } => {
                    last_ns = last_ns.max(now_ns);
                    c.handle_request_with_program(
                        &mut scratch,
                        fid,
                        pattern,
                        policy,
                        program.as_ref(),
                        now_ns,
                    );
                }
                OpRecord::SnapshotComplete { fid, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    c.handle_snapshot_complete(&mut scratch, fid, now_ns);
                }
                OpRecord::ReactivateAck { fid, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    c.handle_reactivate_ack(fid);
                }
                OpRecord::Deallocate { fid, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    let _ = c.handle_deallocate(&mut scratch, fid, now_ns);
                }
                OpRecord::Timeout { now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    c.poll(&mut scratch, now_ns);
                }
                OpRecord::Abandon { fid, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    c.unacked.remove(&fid);
                    c.abandoned_reactivations += 1;
                }
                OpRecord::EpochOpen { epoch, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    c.epoch = c.epoch.max(epoch);
                }
                OpRecord::MigrateOut { fid, dest, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    let _ = c.handle_migrate_out(&mut scratch, fid, dest, now_ns);
                }
                OpRecord::MigrateAbort { fid, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    c.handle_migrate_abort(&mut scratch, fid, now_ns);
                }
            }
        }
        c.epoch = c.epoch.max(log.last_epoch()) + 1;
        // The lineage has completed one recovery per prior epoch; seed
        // the counter so `controller.recoveries` keeps counting across
        // repeated crashes (reconcile adds this cycle's own).
        c.recoveries.add(u64::from(c.epoch) - 1);
        // Attach the log only after replay: the replayed transitions
        // are already committed and must not be re-appended.
        c.oplog = Some(log.clone());
        log.append(OpRecord::EpochOpen {
            epoch: c.epoch,
            now_ns: last_ns,
        });
        c
    }

    /// Reconcile the live data plane against this (freshly recovered)
    /// controller's rebuilt intent, repairing every divergence:
    ///
    /// * protection entries present for FIDs (or stages) the ledger
    ///   does not grant are scrubbed, and granted entries that are
    ///   missing or divergent are re-installed;
    /// * quiesce state is re-asserted — in-flight victims that the
    ///   switch shows active are re-deactivated, and quiesced FIDs no
    ///   reallocation can account for are resumed;
    /// * lost control signals are re-issued (Deactivate for victims
    ///   still owing a snapshot, Respond+Reactivate for unacked
    ///   victims), fenced to their replayed round tokens.
    ///
    /// Every repair is journaled and counted; the whole pass is charged
    /// a modeled latency into `controller.recovery_ns` (replayed
    /// records plus repaired table entries — never wall-clock).
    pub fn reconcile(&mut self, runtime: &mut dyn DataPlane, now_ns: u64) -> Vec<ControllerAction> {
        let mut stats = RecoveryStats::default();
        let mut repaired_entries = 0usize;
        // Scrub protection entries the rebuilt ledger does not grant —
        // whole FIDs first, then stages a granted FID no longer covers.
        for fid in runtime.protection().resident_fids() {
            let granted_stages: BTreeSet<usize> = self
                .regions
                .get(&fid)
                .map(|rs| rs.iter().map(|(s, _)| *s).collect())
                .unwrap_or_default();
            for stage in runtime.protection().stages_of(fid) {
                if !granted_stages.contains(&stage) {
                    repaired_entries += runtime.remove_region(stage, fid);
                    stats.scrubbed_entries += 1;
                    self.journal_event(
                        now_ns,
                        EventKind::RecoveryRepair {
                            fid,
                            repair: RepairKind::ScrubEntry,
                        },
                    );
                }
            }
        }
        // Re-install granted entries that are missing or divergent.
        let intent: Vec<(Fid, usize, RegionEntry)> = self
            .regions
            .iter()
            .flat_map(|(&fid, rs)| rs.iter().map(move |&(stage, region)| (fid, stage, region)))
            .collect();
        for (fid, stage, region) in intent {
            let want = ProtEntry::from_region(region);
            let have = runtime.protection().lookup(stage, fid).copied();
            if have != want {
                let (rm, ins) = runtime.install_region(stage, fid, region);
                repaired_entries += rm + ins;
                stats.reinstalled_entries += 1;
                self.journal_event(
                    now_ns,
                    EventKind::RecoveryRepair {
                        fid,
                        repair: RepairKind::ReinstallEntry,
                    },
                );
            }
        }
        // Quiesce coherence plus re-issued signals. Migrating FIDs are
        // legitimately quiesced with no reallocation to blame: they are
        // re-quiesced if found active, never resumed as strays.
        let mut acts = Vec::new();
        let mut victims: BTreeSet<Fid> = self.pending_victims().into_iter().collect();
        victims.extend(self.migrating_out.keys().copied());
        for &vfid in &victims {
            if !runtime.is_deactivated(vfid) {
                runtime.deactivate(vfid);
                stats.requiesced += 1;
                self.journal_event(
                    now_ns,
                    EventKind::RecoveryRepair {
                        fid: vfid,
                        repair: RepairKind::Requiesce,
                    },
                );
            }
        }
        for fid in runtime.deactivated_fids() {
            if !victims.contains(&fid) {
                runtime.reactivate(fid);
                stats.reactivated_strays += 1;
                self.journal_event(
                    now_ns,
                    EventKind::RecoveryRepair {
                        fid,
                        repair: RepairKind::ReactivateStray,
                    },
                );
            }
        }
        if let Some(p) = self.pending.as_mut() {
            let fence = p.fence;
            let waiting: Vec<Fid> = p.waiting.iter().copied().collect();
            for vfid in waiting {
                p.last_signal_ns.insert(vfid, now_ns);
                stats.resent_signals += 1;
                acts.push(ControllerAction::Deactivate {
                    fid: vfid,
                    at_ns: now_ns,
                    fence,
                });
            }
        }
        // Migrations still owed their quiesce ack lost the Deactivate
        // with the crash; re-signal them under their replayed fences.
        for (&mfid, m) in &mut self.migrating_out {
            if !m.acked {
                m.last_signal_ns = now_ns;
                stats.resent_signals += 1;
                acts.push(ControllerAction::Deactivate {
                    fid: mfid,
                    at_ns: now_ns,
                    fence: m.fence,
                });
            }
        }
        for (&vfid, un) in &mut self.unacked {
            un.last_ns = now_ns;
            stats.resent_signals += 1;
            acts.push(ControllerAction::Respond {
                fid: vfid,
                regions: self.regions.get(&vfid).cloned().unwrap_or_default(),
                failed: false,
                at_ns: now_ns,
            });
            acts.push(ControllerAction::Reactivate {
                fid: vfid,
                at_ns: now_ns,
                fence: un.fence,
            });
        }
        for a in &acts {
            let fid = match a {
                ControllerAction::Deactivate { fid, .. }
                | ControllerAction::Reactivate { fid, .. } => *fid,
                _ => continue,
            };
            self.journal_event(
                now_ns,
                EventKind::RecoveryRepair {
                    fid,
                    repair: RepairKind::ResendSignal,
                },
            );
        }
        // Account the recovery: modeled latency (replayed records at
        // fixed control cost each, plus the repaired table entries),
        // never wall-clock.
        let replayed = self.oplog.as_ref().map_or(0, OpLog::len) as u64;
        let latency = self.cost.control_fixed_ns
            + replayed * self.cost.alloc_compute_per_mutant_ns
            + self.cost.table_update_ns(repaired_entries, 0);
        self.recovery_ns.record(latency);
        self.recoveries.inc();
        self.repairs.add(stats.total());
        self.recovery_stats = RecoveryStats {
            reinstalled_entries: self.recovery_stats.reinstalled_entries
                + stats.reinstalled_entries,
            scrubbed_entries: self.recovery_stats.scrubbed_entries + stats.scrubbed_entries,
            requiesced: self.recovery_stats.requiesced + stats.requiesced,
            reactivated_strays: self.recovery_stats.reactivated_strays + stats.reactivated_strays,
            resent_signals: self.recovery_stats.resent_signals + stats.resent_signals,
        };
        self.journal_event(
            now_ns,
            EventKind::Recovered {
                epoch: self.epoch,
                repairs: stats.total().min(u64::from(u32::MAX)) as u32,
            },
        );
        acts
    }

    // ----- internals -----

    /// A cheap, always-valid subset of the control-plane invariants,
    /// run on every poll in debug builds (the full engine lives in
    /// `activermt-modelcheck`, which cannot be a dependency of this
    /// crate). Disabled while a [`SeededBug`] is injected — the
    /// mutation tests exist precisely to drive the state invalid and
    /// let the full engine catch it.
    #[cfg(debug_assertions)]
    fn debug_check_invariants(&self, runtime: &dyn DataPlane) {
        if self.seeded_bug.is_some() {
            return;
        }
        for (stage, pool) in self.allocator.pools().iter().enumerate() {
            if let Err(e) = pool.check_invariants() {
                panic!("stage {stage} pool invariant violated: {e}");
            }
        }
        // Protection entries only ever cover resident applications.
        for fid in runtime.protection().resident_fids() {
            assert!(
                self.allocator.contains(fid),
                "protection entry for non-resident fid {fid}"
            );
        }
        // Quiesced FIDs exist only during an in-flight reallocation or
        // a cross-switch migration.
        if self.pending.is_none() {
            let stuck: Vec<Fid> = runtime
                .deactivated_fids()
                .into_iter()
                .filter(|f| !self.migrating_out.contains_key(f))
                .collect();
            assert!(
                stuck.is_empty(),
                "idle controller but fids {stuck:?} are still quiesced"
            );
        }
    }

    fn start_admission(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        pattern: AccessPattern,
        policy: MutantPolicy,
        program: Option<&Program>,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        match self.allocator.admit(fid, &pattern, policy) {
            Err(_) => {
                // Failed allocations are brief (Figure 5a: "epochs with
                // failed allocations are quite brief").
                let at_ns = now_ns + self.cost.control_fixed_ns;
                self.journal_event(
                    at_ns,
                    EventKind::Admission {
                        fid,
                        accepted: false,
                    },
                );
                vec![
                    ControllerAction::Respond {
                        fid,
                        regions: Vec::new(),
                        failed: true,
                        at_ns,
                    },
                    ControllerAction::Report(ProvisioningReport {
                        fid,
                        alloc_compute_ns: 0,
                        table_update_ns: 0,
                        snapshot_wait_ns: 0,
                        total_ns: self.cost.control_fixed_ns,
                        victim_count: 0,
                        failed: true,
                    }),
                ]
            }
            Ok(outcome) => {
                // Static verification gate: the program (when the
                // request carried one) must be provably safe on the
                // regions the allocator just chose, BEFORE any victim
                // is quiesced or a grant leaves the switch.
                if let Some(prog) = program {
                    if let Err((reason, detail)) = self.verify_admission(&outcome, prog) {
                        return self.reject_verified(runtime, fid, reason, &detail, now_ns);
                    }
                    self.verify_accepted.inc();
                    self.verify_stats.entry(fid).or_default().accepted += 1;
                } else {
                    // Legacy wire format: no bytecode to check. The
                    // grant proceeds on access-pattern evidence alone,
                    // but never silently — unverified admissions are
                    // counted and journaled.
                    self.verify_skipped.inc();
                    self.journal_event(now_ns, EventKind::VerifySkipped { fid });
                }
                // Charge a modeled search cost, not the measured one:
                // wall-clock time in virtual timestamps would make runs
                // unrepeatable (and shift fault-window alignment).
                let alloc_compute_ns = self.cost.alloc_compute_ns(outcome.mutants_considered);
                let victims = outcome.victims_by_fid();
                self.journal_event(
                    now_ns + alloc_compute_ns,
                    EventKind::Admission {
                        fid,
                        accepted: true,
                    },
                );
                // Every round takes a fresh fence token; victims echo
                // it so signals from a superseded round can't count
                // against this one.
                self.fence = self.fence.wrapping_add(1);
                let fence = self.fence;
                if victims.is_empty() {
                    let pending = PendingRealloc {
                        outcome,
                        waiting: BTreeSet::new(),
                        started_ns: now_ns,
                        deadline_ns: now_ns,
                        alloc_compute_ns,
                        snapshot_regs: 0,
                        snapshot_stages: 0,
                        last_signal_ns: BTreeMap::new(),
                        fence,
                    };
                    self.pending = Some(pending);
                    return self.finish_pending(runtime, now_ns + alloc_compute_ns);
                }
                // Quiesce the victims and ask them to snapshot. The
                // snapshot covers their *old* regions, which stay
                // readable until the tables flip (consistent snapshot,
                // Section 4.3).
                let notify_ns = now_ns + alloc_compute_ns + self.cost.control_fixed_ns;
                self.journal_event(
                    notify_ns,
                    EventKind::ReallocationStart {
                        fid,
                        victims: victims.len().min(usize::from(u16::MAX)) as u16,
                    },
                );
                let mut acts = Vec::new();
                let mut snapshot_regs = 0u64;
                let mut snapshot_stages = 0usize;
                for (&vfid, stage_moves) in &victims {
                    runtime.deactivate(vfid);
                    snapshot_stages = snapshot_stages.max(stage_moves.len());
                    for m in stage_moves {
                        snapshot_regs +=
                            u64::from(m.old.len) * u64::from(self.allocator.config().block_regs);
                    }
                    acts.push(ControllerAction::Deactivate {
                        fid: vfid,
                        at_ns: notify_ns,
                        fence,
                    });
                }
                self.pending = Some(PendingRealloc {
                    waiting: victims.keys().copied().collect(),
                    last_signal_ns: victims.keys().map(|&v| (v, notify_ns)).collect(),
                    outcome,
                    started_ns: now_ns,
                    deadline_ns: notify_ns + self.cost.snapshot_timeout_ns,
                    alloc_compute_ns,
                    snapshot_regs,
                    snapshot_stages,
                    fence,
                });
                acts
            }
        }
    }

    /// Statically verify `program` against the allocation `outcome`:
    /// pad it to the chosen mutant's access positions, prove the
    /// padding semantics-preserving, and run the abstract interpreter
    /// over the granted regions under the admission assumption policy.
    ///
    /// Accepted verdicts are memoized by (program digest, mutant
    /// positions, region geometry): reallocation churn re-admits the
    /// same program onto the same shapes, and the verdict is a pure
    /// function of the key plus this controller's fixed pipeline
    /// geometry, so a repeat admission skips the proof entirely.
    fn verify_admission(
        &mut self,
        outcome: &AllocOutcome,
        program: &Program,
    ) -> Result<(), (VerifyRejectReason, String)> {
        let block_regs = self.allocator.config().block_regs;
        let shape: Vec<(usize, u32, u32)> = outcome
            .placements
            .iter()
            .map(|p| {
                let region = to_region(p.range, block_regs);
                (p.stage, region.start, region.end)
            })
            .collect();
        let key = CacheKey::new(program, &shape).salted(&outcome.mutant.positions);
        if self.verify_cache.get(&key).is_some() {
            self.optimizer_cache_hits.inc();
            return Ok(());
        }
        self.optimizer_cache_misses.inc();
        let padded = pad_to_positions(program, &outcome.mutant.positions)
            .map_err(|e| (VerifyRejectReason::Structure, e))?;
        if let Some(f) = check_mutant_equivalence(program, &padded) {
            return Err((VerifyRejectReason::Structure, f.message));
        }
        let mut ctx = AnalysisContext::new(
            self.num_stages,
            self.ingress_stages,
            self.max_recirculations,
        )
        .with_assumptions(Assumptions::admission());
        for p in &outcome.placements {
            let region = to_region(p.range, block_regs);
            ctx = ctx.with_region(p.stage, region.start, region.end);
        }
        let report = verify(padded.instructions(), &ctx);
        if report.accepted() {
            self.verify_cache.insert(key, ());
            return Ok(());
        }
        let first = report
            .errors()
            .next()
            .expect("rejected report has an error");
        let reason = match first.kind {
            FindingKind::OutOfBounds => VerifyRejectReason::OutOfBounds,
            FindingKind::UnguardedHashedAddress => VerifyRejectReason::UnguardedHash,
            FindingKind::MissingRegion | FindingKind::MissingTranslation => {
                VerifyRejectReason::MissingRegion
            }
            FindingKind::RecircCapExceeded => VerifyRejectReason::RecircCap,
            _ => VerifyRejectReason::Structure,
        };
        let mut detail = first.to_string();
        if let Some(w) = report.witness() {
            detail.push_str(&format!(" (witness args {:?})", w.args));
        }
        Err((reason, detail))
    }

    /// Roll back a grant the verifier refused: release the allocation
    /// (regrowing any victims the admission had shrunk), restore their
    /// tables, journal the event, and answer the requester as failed.
    fn reject_verified(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        reason: VerifyRejectReason,
        detail: &str,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        let _ = detail; // carried in the journal/debug path only
        if !self.has_bug(SeededBug::RollbackLeak) {
            let regrown = self.allocator.release(fid).unwrap_or_default();
            let mut seen = BTreeSet::new();
            for v in &regrown {
                if seen.insert(v.fid) {
                    self.sync_app_tables(runtime, v.fid);
                }
            }
        }
        self.verify_rejected.inc();
        self.verify_stats.entry(fid).or_default().rejected += 1;
        let at_ns = now_ns + self.cost.control_fixed_ns;
        self.journal_event(at_ns, EventKind::VerifyRejected { fid, reason });
        self.journal_event(
            at_ns,
            EventKind::Admission {
                fid,
                accepted: false,
            },
        );
        vec![
            ControllerAction::Respond {
                fid,
                regions: Vec::new(),
                failed: true,
                at_ns,
            },
            ControllerAction::Report(ProvisioningReport {
                fid,
                alloc_compute_ns: 0,
                table_update_ns: 0,
                snapshot_wait_ns: 0,
                total_ns: self.cost.control_fixed_ns,
                victim_count: 0,
                failed: true,
            }),
        ]
    }

    /// Per-FID static-verification tallies (for telemetry snapshots).
    pub fn verify_stats(&self) -> impl Iterator<Item = (Fid, VerifyStats)> + '_ {
        self.verify_stats.iter().map(|(&f, &s)| (f, s))
    }

    /// Switch-wide verification counters `(accepted, rejected)`.
    pub fn verify_counts(&self) -> (u64, u64) {
        (self.verify_accepted.get(), self.verify_rejected.get())
    }

    /// Legacy no-bytecode admissions that skipped verification.
    pub fn verify_skipped(&self) -> u64 {
        self.verify_skipped.get()
    }

    /// Verify-cache accounting `(hits, misses)`: hits + misses equals
    /// the number of bytecode-carrying admissions attempted.
    pub fn optimizer_cache_stats(&self) -> (u64, u64) {
        (
            self.optimizer_cache_hits.get(),
            self.optimizer_cache_misses.get(),
        )
    }

    /// Apply the pending plan: update every affected table, clear the
    /// newcomer's memory, reactivate victims, respond, report.
    fn finish_pending(
        &mut self,
        runtime: &mut dyn DataPlane,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        let Some(pending) = self.pending.take() else {
            return Vec::new();
        };
        let PendingRealloc {
            outcome,
            waiting: _,
            started_ns,
            deadline_ns: _,
            alloc_compute_ns,
            snapshot_regs,
            snapshot_stages,
            last_signal_ns: _,
            fence,
        } = pending;

        // Victim tables go first: "the first application can resume
        // operation immediately after state extraction, while the
        // incoming one has to wait for the allocation to be applied"
        // (Section 6.3 / Figure 10).
        let victims = outcome.victims_by_fid();
        let mut victim_entries = 0usize;
        for &vfid in victims.keys() {
            victim_entries += self.sync_app_tables(runtime, vfid);
        }
        let victims_done_ns = now_ns + self.cost.table_update_ns(victim_entries, 0);

        // Newcomer tables: protection ranges plus the per-stage
        // instruction-decode entries its FID needs in every logical
        // stage its (padded) program traverses — the bulk of the
        // Section 6.2 "time taken to update table entries".
        let mut newcomer_entries =
            self.cost.decode_entries_per_stage * usize::from(outcome.mutant.padded_len);
        for p in &outcome.placements {
            let region = to_region(p.range, self.allocator.config().block_regs);
            let mut installed = region;
            if self.has_bug(SeededBug::OverlappingGrant) {
                // One block wider than granted: the isolation breach
                // the disjointness/coverage invariants must catch.
                installed.end += self.allocator.config().block_regs;
            }
            let (rm, ins) = runtime.install_region(p.stage, outcome.fid, installed);
            runtime.clear_region(p.stage, region);
            newcomer_entries += rm + ins;
        }
        self.regions.insert(
            outcome.fid,
            outcome
                .placements
                .iter()
                .map(|p| {
                    (
                        p.stage,
                        to_region(p.range, self.allocator.config().block_regs),
                    )
                })
                .collect(),
        );

        let table_update_ns = self
            .cost
            .table_update_ns(victim_entries + newcomer_entries, 0);
        let snapshot_wait_ns = self
            .cost
            .snapshot_ns(snapshot_regs, snapshot_stages)
            .max(now_ns.saturating_sub(started_ns + alloc_compute_ns));
        let done_ns = now_ns + table_update_ns;

        let mut acts = Vec::new();
        for &vfid in victims.keys() {
            if !self.has_bug(SeededBug::AckLessReactivation) {
                runtime.reactivate(vfid);
            }
            self.journal_event(victims_done_ns, EventKind::Reactivation { fid: vfid });
            acts.push(ControllerAction::Respond {
                fid: vfid,
                regions: self.regions.get(&vfid).cloned().unwrap_or_default(),
                failed: false,
                at_ns: victims_done_ns,
            });
            acts.push(ControllerAction::Reactivate {
                fid: vfid,
                at_ns: victims_done_ns,
                fence,
            });
            // Keep re-sending regions + resume on poll until the victim
            // acks — a lost control frame must not strand it.
            self.unacked.insert(
                vfid,
                UnackedReactivation {
                    last_ns: victims_done_ns,
                    attempts: 0,
                    fence,
                },
            );
        }
        self.journal_event(
            done_ns,
            EventKind::Placement {
                fid: outcome.fid,
                stages: outcome.placements.len().min(usize::from(u16::MAX)) as u16,
                blocks: outcome
                    .placements
                    .iter()
                    .map(|p| u64::from(p.range.len))
                    .sum::<u64>()
                    .min(u64::from(u16::MAX)) as u16,
            },
        );
        self.realloc_total_ns
            .record(done_ns.saturating_sub(started_ns));
        self.table_update_ns.record(table_update_ns);
        acts.push(ControllerAction::Respond {
            fid: outcome.fid,
            regions: self.regions.get(&outcome.fid).cloned().unwrap_or_default(),
            failed: false,
            at_ns: done_ns,
        });
        acts.push(ControllerAction::Report(ProvisioningReport {
            fid: outcome.fid,
            alloc_compute_ns,
            table_update_ns,
            snapshot_wait_ns,
            total_ns: done_ns.saturating_sub(started_ns),
            victim_count: victims.len(),
            failed: false,
        }));
        acts
    }

    /// Re-install an application's protection entries from the
    /// allocator's current placements; returns table entries touched.
    fn sync_app_tables(&mut self, runtime: &mut dyn DataPlane, fid: Fid) -> usize {
        let block_regs = self.allocator.config().block_regs;
        let placements = self.allocator.placements_of(fid);
        let mut entries = 0usize;
        // Remove entries in stages the app no longer occupies.
        for stage in runtime.protection().stages_of(fid) {
            if !placements.iter().any(|p| p.stage == stage) {
                entries += runtime.remove_region(stage, fid);
            }
        }
        let mut regions = Vec::with_capacity(placements.len());
        for p in &placements {
            let region = to_region(p.range, block_regs);
            let (rm, ins) = runtime.install_region(p.stage, fid, region);
            entries += rm + ins;
            regions.push((p.stage, region));
        }
        self.regions.insert(fid, regions);
        entries
    }

    /// Admit queued requests now that the controller is idle again.
    fn drain_queue(&mut self, runtime: &mut dyn DataPlane, now_ns: u64) -> Vec<ControllerAction> {
        let mut acts = Vec::new();
        while self.pending.is_none() && self.migrating_out.is_empty() {
            let Some(q) = self.queue.pop_front() else {
                break;
            };
            let _ = q.arrived_ns;
            acts.extend(self.start_admission(
                runtime,
                q.fid,
                q.pattern,
                q.policy,
                q.program.as_ref(),
                now_ns,
            ));
        }
        acts
    }
}

fn to_region(range: crate::types::BlockRange, block_regs: u32) -> RegionEntry {
    let (start, end) = range.to_registers(block_regs);
    RegionEntry { start, end }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SwitchRuntime, Controller) {
        let cfg = SwitchConfig::default();
        (
            SwitchRuntime::new(cfg),
            Controller::new(&cfg, Scheme::WorstFit),
        )
    }

    fn cache_pattern() -> AccessPattern {
        AccessPattern {
            min_positions: vec![2, 5, 9],
            demands: vec![0, 0, 0],
            prog_len: 11,
            elastic: true,
            ingress_positions: vec![8],
            aliases: vec![],
        }
    }

    fn respond_of(acts: &[ControllerAction], fid: Fid) -> Option<&ControllerAction> {
        acts.iter()
            .find(|a| matches!(a, ControllerAction::Respond { fid: f, .. } if *f == fid))
    }

    #[test]
    fn undisputed_admission_responds_immediately() {
        let (mut rt, mut ctl) = setup();
        let acts = ctl.handle_request(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        let resp = respond_of(&acts, 1).expect("a response");
        if let ControllerAction::Respond {
            regions, failed, ..
        } = resp
        {
            assert!(!failed);
            assert_eq!(regions.len(), 3);
            // Protection tables are live.
            for (stage, region) in regions {
                assert!(rt.protection().lookup(*stage, 1).is_some());
                assert_eq!(region.len(), 256 * 256);
            }
        }
        assert!(!ctl.busy());
        // A report came with it.
        assert!(acts
            .iter()
            .any(|a| matches!(a, ControllerAction::Report(r) if !r.failed && r.victim_count == 0)));
    }

    #[test]
    fn reallocation_runs_the_snapshot_protocol() {
        let (mut rt, mut ctl) = setup();
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        // The 4th cache shares stages with an incumbent.
        let acts = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            1000,
        );
        let deactivated: Vec<Fid> = acts
            .iter()
            .filter_map(|a| match a {
                ControllerAction::Deactivate { fid, .. } => Some(*fid),
                _ => None,
            })
            .collect();
        assert_eq!(deactivated.len(), 1);
        let victim = deactivated[0];
        assert!(ctl.busy());
        assert!(rt.is_deactivated(victim));
        assert!(respond_of(&acts, 4).is_none(), "no response until snapshot");

        // Victim completes its snapshot.
        let acts2 = ctl.handle_snapshot_complete(&mut rt, victim, 2000);
        assert!(!ctl.busy());
        assert!(!rt.is_deactivated(victim));
        assert!(respond_of(&acts2, 4).is_some());
        assert!(
            respond_of(&acts2, victim).is_some(),
            "victim learns new regions"
        );
        assert!(acts2
            .iter()
            .any(|a| matches!(a, ControllerAction::Reactivate { fid, .. } if *fid == victim)));
        let report = acts2
            .iter()
            .find_map(|a| match a {
                ControllerAction::Report(r) => Some(*r),
                _ => None,
            })
            .unwrap();
        assert_eq!(report.victim_count, 1);
        assert!(report.table_update_ns > 0);
        assert!(!report.failed);
    }

    #[test]
    fn requests_serialize_behind_a_pending_reallocation() {
        let (mut rt, mut ctl) = setup();
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let acts4 = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        let victim = acts4
            .iter()
            .find_map(|a| match a {
                ControllerAction::Deactivate { fid, .. } => Some(*fid),
                _ => None,
            })
            .unwrap();
        // A 5th request arrives while busy: queued, no actions.
        let acts5 = ctl.handle_request(
            &mut rt,
            5,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            10,
        );
        assert!(acts5.is_empty());
        assert_eq!(ctl.queue_len(), 1);
        // Snapshot completes; the queued request is then admitted (it
        // may itself trigger a new reallocation round).
        let acts = ctl.handle_snapshot_complete(&mut rt, victim, 2000);
        assert!(respond_of(&acts, 4).is_some());
        let progressed = respond_of(&acts, 5).is_some()
            || acts
                .iter()
                .any(|a| matches!(a, ControllerAction::Deactivate { .. }));
        assert!(progressed, "queued request must start processing");
        assert_eq!(ctl.queue_len(), 0);
    }

    #[test]
    fn unresponsive_victims_time_out() {
        let (mut rt, mut ctl) = setup();
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let acts = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        assert!(ctl.busy());
        let victim = acts
            .iter()
            .find_map(|a| match a {
                ControllerAction::Deactivate { fid, .. } => Some(*fid),
                _ => None,
            })
            .unwrap();
        // Nothing happens before the deadline.
        assert!(ctl.poll(&mut rt, 1_000_000).is_empty());
        // Past the deadline the controller forces completion.
        let timeout = SwitchConfig::default().snapshot_timeout_ns + 10_000_000_000;
        let acts = ctl.poll(&mut rt, timeout);
        assert!(!ctl.busy());
        assert!(respond_of(&acts, 4).is_some());
        assert!(!rt.is_deactivated(victim));
    }

    #[test]
    fn failed_admission_is_brief_and_reported() {
        let cfg = SwitchConfig {
            regs_per_stage: 512, // 2 blocks per stage
            ..SwitchConfig::default()
        };
        let mut rt = SwitchRuntime::new(cfg);
        let mut ctl = Controller::new(&cfg, Scheme::WorstFit);
        // Fill the pipeline with inelastic tenants until failure.
        let inelastic = AccessPattern {
            min_positions: vec![2, 5, 9],
            demands: vec![1, 1, 1],
            prog_len: 11,
            elastic: false,
            ingress_positions: vec![8],
            aliases: vec![],
        };
        let mut failed = false;
        for fid in 0..100 {
            let acts = ctl.handle_request(
                &mut rt,
                fid,
                inelastic.clone(),
                MutantPolicy::MostConstrained,
                0,
            );
            if let Some(ControllerAction::Respond { failed: f, .. }) = respond_of(&acts, fid) {
                if *f {
                    failed = true;
                    let rep = acts
                        .iter()
                        .find_map(|a| match a {
                            ControllerAction::Report(r) => Some(*r),
                            _ => None,
                        })
                        .unwrap();
                    assert!(rep.failed);
                    assert_eq!(rep.table_update_ns, 0);
                    break;
                }
            }
        }
        assert!(failed, "pool must eventually fill");
    }

    #[test]
    fn deallocation_grows_survivors_and_updates_tables() {
        let (mut rt, mut ctl) = setup();
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let acts4 = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        let victim = acts4
            .iter()
            .find_map(|a| match a {
                ControllerAction::Deactivate { fid, .. } => Some(*fid),
                _ => None,
            })
            .unwrap();
        ctl.handle_snapshot_complete(&mut rt, victim, 100);
        // Now release the 4th; the victim grows back to full stages.
        let acts = ctl.handle_deallocate(&mut rt, 4, 200).unwrap();
        assert!(respond_of(&acts, victim).is_some());
        assert_eq!(ctl.allocator().app_blocks(victim), 3 * 256);
        // FID 4 has no protection entries anywhere.
        assert!(rt.protection().stages_of(4).is_empty());
        // Unknown FID errors.
        assert!(ctl.handle_deallocate(&mut rt, 99, 300).is_err());
    }

    /// Drive three admissions plus a fourth that evicts, returning the
    /// victim's FID and the Deactivate send time.
    fn start_realloc(rt: &mut SwitchRuntime, ctl: &mut Controller) -> (Fid, u64) {
        for fid in 1..=3 {
            ctl.handle_request(rt, fid, cache_pattern(), MutantPolicy::MostConstrained, 0);
        }
        let acts = ctl.handle_request(rt, 4, cache_pattern(), MutantPolicy::MostConstrained, 0);
        acts.iter()
            .find_map(|a| match a {
                ControllerAction::Deactivate { fid, at_ns, .. } => Some((*fid, *at_ns)),
                _ => None,
            })
            .expect("the 4th cache must evict")
    }

    #[test]
    fn duplicate_requests_are_idempotent() {
        let (mut rt, mut ctl) = setup();
        let first = ctl.handle_request(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        let blocks = ctl.allocator().app_blocks(1);
        // The response was "lost"; the client retransmits.
        let dup = ctl.handle_request(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            5_000,
        );
        let Some(ControllerAction::Respond {
            regions, failed, ..
        }) = respond_of(&dup, 1)
        else {
            panic!("duplicate must be re-answered");
        };
        assert!(!failed);
        let orig_regions = match respond_of(&first, 1) {
            Some(ControllerAction::Respond { regions, .. }) => regions.clone(),
            _ => unreachable!(),
        };
        assert_eq!(*regions, orig_regions, "same grant, not a new one");
        assert_eq!(ctl.allocator().app_blocks(1), blocks);
        assert_eq!(ctl.duplicate_requests(), 1);
        // No report: a retransmit is not a provisioning event.
        assert!(!dup.iter().any(|a| matches!(a, ControllerAction::Report(_))));
    }

    #[test]
    fn retransmits_during_a_reallocation_are_absorbed_not_misanswered() {
        let (mut rt, mut ctl) = setup();
        let (victim, _) = start_realloc(&mut rt, &mut ctl);
        // Requester 4 is committed in the allocator but has no regions
        // yet; a retransmit must NOT be answered with an empty grant.
        let dup = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            100,
        );
        assert!(dup.is_empty(), "absorbed, answered when the realloc ends");
        // Same for the victim re-requesting mid-snapshot.
        let dup = ctl.handle_request(
            &mut rt,
            victim,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            200,
        );
        assert!(dup.is_empty());
        assert_eq!(ctl.duplicate_requests(), 2);
        assert!(ctl.busy(), "neither retransmit may perturb the protocol");
    }

    #[test]
    fn deactivates_are_resent_until_snapshot_complete() {
        let (mut rt, mut ctl) = setup();
        let (victim, sent_ns) = start_realloc(&mut rt, &mut ctl);
        // Within the resend interval: silence.
        assert!(ctl.poll(&mut rt, sent_ns + 100_000).is_empty());
        // Past it (and well within the 2 s snapshot deadline): the
        // Deactivate is re-sent in case the first copy was lost.
        let acts = ctl.poll(&mut rt, sent_ns + 600_000);
        assert!(acts
            .iter()
            .any(|a| matches!(a, ControllerAction::Deactivate { fid, .. } if *fid == victim)));
        assert!(ctl.resent_signals() >= 1);
        // Once the snapshot lands, deactivation re-sends stop.
        ctl.handle_snapshot_complete(&mut rt, victim, sent_ns + 700_000);
        assert!(!ctl.busy());
    }

    #[test]
    fn reactivations_resend_until_acked() {
        let (mut rt, mut ctl) = setup();
        let (victim, sent_ns) = start_realloc(&mut rt, &mut ctl);
        ctl.handle_snapshot_complete(&mut rt, victim, sent_ns + 100_000);
        assert_eq!(ctl.unacked_reactivations(), 1);
        // The Respond+Reactivate pair keeps going out until acked.
        let acts = ctl.poll(&mut rt, sent_ns + 100_000_000);
        let resp = respond_of(&acts, victim).expect("regions re-sent");
        if let ControllerAction::Respond {
            regions, failed, ..
        } = resp
        {
            assert!(!failed);
            assert!(!regions.is_empty(), "re-sent grant carries the new regions");
        }
        assert!(acts
            .iter()
            .any(|a| matches!(a, ControllerAction::Reactivate { fid, .. } if *fid == victim)));
        // The ack ends the retry loop.
        ctl.handle_reactivate_ack(victim);
        assert_eq!(ctl.unacked_reactivations(), 0);
        assert!(ctl.poll(&mut rt, sent_ns + 200_000_000).is_empty());
    }

    #[test]
    fn timeout_reactivates_victim_with_new_regions_and_admits_queued() {
        let (mut rt, mut ctl) = setup();
        let (victim, sent_ns) = start_realloc(&mut rt, &mut ctl);
        // A 5th request queues behind the stuck reallocation.
        let acts5 = ctl.handle_request(
            &mut rt,
            5,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            sent_ns,
        );
        assert!(acts5.is_empty());
        // The victim's snapshot-complete is lost forever; the deadline
        // poll must force-reactivate it with its NEW regions and admit
        // the queued requester in the same poll.
        let deadline = sent_ns + SwitchConfig::default().snapshot_timeout_ns + 1;
        let acts = ctl.poll(&mut rt, deadline);
        // (The controller may be busy again: admitting the queued 5th
        // can start its own reallocation round.)
        assert!(acts
            .iter()
            .any(|a| matches!(a, ControllerAction::Reactivate { fid, .. } if *fid == victim)));
        let resp = respond_of(&acts, victim).expect("victim told its new regions");
        if let ControllerAction::Respond {
            regions, failed, ..
        } = resp
        {
            assert!(!failed);
            assert!(!regions.is_empty());
        }
        assert!(
            respond_of(&acts, 4).is_some(),
            "original requester answered"
        );
        let queued_progressed = respond_of(&acts, 5).is_some()
            || acts
                .iter()
                .any(|a| matches!(a, ControllerAction::Deactivate { .. }));
        assert!(
            queued_progressed,
            "queued request admitted on the same poll"
        );
        assert_eq!(ctl.queue_len(), 0);
    }

    /// Listing 1's query program, matching `cache_pattern()` exactly.
    fn cache_program() -> Program {
        use activermt_isa::{Opcode, ProgramBuilder};
        ProgramBuilder::new()
            .op_arg(Opcode::MAR_LOAD, 3)
            .op(Opcode::MEM_READ)
            .op(Opcode::MBR_EQUALS_DATA_1)
            .op(Opcode::CRET)
            .op(Opcode::MEM_READ)
            .op(Opcode::MBR_EQUALS_DATA_2)
            .op(Opcode::CRET)
            .op(Opcode::RTS)
            .op(Opcode::MEM_READ)
            .op_arg(Opcode::MBR_STORE, 2)
            .op(Opcode::RETURN)
            .build()
            .unwrap()
    }

    /// Same shape as `cache_pattern()` but the first access is
    /// addressed by a raw, unmasked hash — the verifier must refuse it.
    fn hashed_probe_program() -> Program {
        use activermt_isa::{Opcode, ProgramBuilder};
        ProgramBuilder::new()
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
            .unwrap()
    }

    #[test]
    fn verified_admission_accepts_and_counts() {
        let (mut rt, mut ctl) = setup();
        let program = cache_program();
        let acts = ctl.handle_request_with_program(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&program),
            0,
        );
        let resp = respond_of(&acts, 1).expect("a response");
        if let ControllerAction::Respond { failed, .. } = resp {
            assert!(!failed, "the canonical query program must verify");
        }
        assert_eq!(ctl.verify_counts(), (1, 0));
        assert_eq!(
            ctl.verify_stats().collect::<Vec<_>>().len(),
            1,
            "per-FID verify accounting recorded"
        );
    }

    #[test]
    fn repeat_admission_hits_the_verify_cache() {
        let (mut rt, mut ctl) = setup();
        let program = cache_program();
        // First admission proves the (program, shape) pair from scratch.
        ctl.handle_request_with_program(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&program),
            0,
        );
        assert_eq!(ctl.optimizer_cache_stats(), (0, 1));
        // Release and re-admit: the deterministic allocator re-derives
        // the same placement, so the cached verdict short-circuits the
        // proof.
        ctl.handle_deallocate(&mut rt, 1, 1_000).unwrap();
        ctl.handle_request_with_program(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&program),
            2_000,
        );
        assert_eq!(ctl.optimizer_cache_stats(), (1, 1));
        assert_eq!(ctl.verify_counts(), (2, 0), "both admissions accepted");
        // A different program over the same shape must miss: the
        // digest half of the key changes with the instruction stream.
        ctl.handle_deallocate(&mut rt, 1, 3_000).unwrap();
        let other = hashed_probe_program();
        ctl.handle_request_with_program(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&other),
            4_000,
        );
        let (hits, misses) = ctl.optimizer_cache_stats();
        assert_eq!((hits, misses), (1, 2), "new digest misses");
        // The rejected probe's verdict is not cached: re-asking re-runs
        // the proof (and is rejected again).
        ctl.handle_request_with_program(
            &mut rt,
            2,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&other),
            5_000,
        );
        assert_eq!(ctl.optimizer_cache_stats(), (1, 3));
        assert_eq!(ctl.verify_counts(), (2, 2));
    }

    #[test]
    fn verifier_rejects_hashed_probe_and_rolls_back() {
        let (mut rt, mut ctl) = setup();
        let program = hashed_probe_program();
        let acts = ctl.handle_request_with_program(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&program),
            0,
        );
        let resp = respond_of(&acts, 1).expect("a response");
        if let ControllerAction::Respond {
            regions, failed, ..
        } = resp
        {
            assert!(failed, "an unmasked hashed probe must be refused");
            assert!(regions.is_empty());
        }
        assert_eq!(ctl.verify_counts(), (0, 1));
        // Rollback: no protection entries survive, the controller is
        // idle, and the same FID can immediately be admitted again.
        assert_eq!(rt.protection().total_entries(), 0);
        assert!(!ctl.busy());
        let acts = ctl.handle_request(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        let resp = respond_of(&acts, 1).expect("a response");
        if let ControllerAction::Respond { failed, .. } = resp {
            assert!(!failed, "the slot is free again after the rollback");
        }
    }

    #[test]
    fn rejected_grant_regrows_its_victims() {
        let (mut rt, mut ctl) = setup();
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let before = rt.protection().total_entries();
        // The 4th cache shares stages with an incumbent, so its grant
        // shrinks victims — all of which must regrow when the verifier
        // refuses the newcomer's program.
        let acts = ctl.handle_request_with_program(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&hashed_probe_program()),
            1000,
        );
        let resp = respond_of(&acts, 4).expect("a response");
        if let ControllerAction::Respond { failed, .. } = resp {
            assert!(failed);
        }
        assert_eq!(ctl.verify_counts(), (0, 1));
        assert!(!ctl.busy(), "no snapshot round for a refused grant");
        assert_eq!(
            rt.protection().total_entries(),
            before,
            "victim regions restored to their pre-request shape"
        );
        for fid in 1..=3u16 {
            assert!(
                !rt.protection().stages_of(fid).is_empty(),
                "incumbent {fid} still resident"
            );
        }
    }

    #[test]
    fn deallocate_purges_a_queued_request_before_it_starts() {
        let (mut rt, mut ctl) = setup();
        let (victim, _) = start_realloc(&mut rt, &mut ctl);
        // FID 5 queues behind the busy reallocation, then departs
        // before its request ever starts.
        ctl.handle_request(
            &mut rt,
            5,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            10,
        );
        assert_eq!(ctl.queue_len(), 1);
        let acts = ctl.handle_deallocate(&mut rt, 5, 20).unwrap();
        assert!(acts.is_empty(), "nothing to tear down: it never started");
        assert_eq!(ctl.queue_len(), 0, "the queued request is purged");
        // Finishing the reallocation must not resurrect the departed
        // FID as a phantom tenant.
        let acts = ctl.handle_snapshot_complete(&mut rt, victim, 2000);
        assert!(
            respond_of(&acts, 5).is_none(),
            "a departed FID must not be admitted from the queue"
        );
        assert!(!ctl.allocator().contains(5));
        assert!(rt.protection().stages_of(5).is_empty());
    }

    #[test]
    fn late_snapshot_complete_after_timeout_is_fenced_out() {
        let (mut rt, mut ctl) = setup();
        let (old_victim, sent_ns) = start_realloc(&mut rt, &mut ctl);
        let old_fence = ctl.pending_fence().unwrap();
        // The victim never answers; the deadline forces completion.
        let deadline = sent_ns + SwitchConfig::default().snapshot_timeout_ns + 1;
        ctl.poll(&mut rt, deadline);
        assert!(!ctl.busy());
        // A new request starts a NEW round (possibly re-victimizing the
        // same FID) under a fresh fence token.
        let acts = ctl.handle_request(
            &mut rt,
            5,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            deadline + 10,
        );
        let new_victims: Vec<(Fid, u16)> = acts
            .iter()
            .filter_map(|a| match a {
                ControllerAction::Deactivate { fid, fence, .. } => Some((*fid, *fence)),
                _ => None,
            })
            .collect();
        assert!(!new_victims.is_empty(), "the 5th cache must evict");
        let new_fence = ctl.pending_fence().unwrap();
        assert_ne!(old_fence, new_fence);
        // The abandoned round's completion finally limps in: it must be
        // rejected, not counted against the round now in flight.
        let acts =
            ctl.handle_snapshot_complete_fenced(&mut rt, old_victim, old_fence, deadline + 20);
        assert!(acts.is_empty());
        assert!(ctl.busy(), "the new round still owes its snapshots");
        assert_eq!(ctl.stale_epoch_rejects(), 1);
        // The new round's own completions proceed normally.
        for (vfid, fence) in new_victims {
            ctl.handle_snapshot_complete_fenced(&mut rt, vfid, fence, deadline + 30);
        }
        assert!(!ctl.busy());
    }

    #[test]
    fn reactivate_ack_with_a_stale_fence_is_rejected() {
        let (mut rt, mut ctl) = setup();
        let (victim, sent_ns) = start_realloc(&mut rt, &mut ctl);
        ctl.handle_snapshot_complete(&mut rt, victim, sent_ns + 100);
        let fence = ctl.unacked_fence(victim).unwrap();
        ctl.handle_reactivate_ack_fenced(victim, fence.wrapping_sub(1), sent_ns + 200);
        assert_eq!(
            ctl.unacked_reactivations(),
            1,
            "a stale ack must not end the reactivation retry loop"
        );
        assert_eq!(ctl.stale_epoch_rejects(), 1);
        ctl.handle_reactivate_ack_fenced(victim, fence, sent_ns + 300);
        assert_eq!(ctl.unacked_reactivations(), 0);
    }

    #[test]
    fn recover_replays_the_oplog_to_an_equivalent_controller() {
        let cfg = SwitchConfig::default();
        let mut rt = SwitchRuntime::new(cfg);
        let mut ctl = Controller::new(&cfg, Scheme::WorstFit);
        let log = OpLog::new();
        ctl.attach_oplog(log.clone());
        // A full history: three admissions, an eviction round carried
        // to completion, a departure, then a round left in flight.
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let acts = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            100,
        );
        let victim = acts
            .iter()
            .find_map(|a| match a {
                ControllerAction::Deactivate { fid, .. } => Some(*fid),
                _ => None,
            })
            .unwrap();
        ctl.handle_snapshot_complete(&mut rt, victim, 1_000);
        ctl.handle_reactivate_ack(victim);
        ctl.handle_deallocate(&mut rt, 2, 2_000).unwrap();
        ctl.handle_request(
            &mut rt,
            5,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            3_000,
        );

        let rec = Controller::recover(&log, &cfg, Scheme::WorstFit);
        for fid in [1u16, 3, 4, 5] {
            assert_eq!(
                rec.allocator().app_blocks(fid),
                ctl.allocator().app_blocks(fid),
                "grant for fid {fid} must survive the crash exactly"
            );
        }
        assert!(!rec.allocator().contains(2), "departures replay too");
        assert_eq!(rec.busy(), ctl.busy());
        assert_eq!(
            rec.pending_fence(),
            ctl.pending_fence(),
            "in-flight round tokens are reproduced, so live clients stay valid"
        );
        assert_eq!(rec.pending_victims(), ctl.pending_victims());
        assert_eq!(rec.queue_len(), ctl.queue_len());
        assert_eq!(rec.unacked_fids(), ctl.unacked_fids());
        let before: Vec<_> = ctl
            .granted_regions()
            .map(|(f, r)| (f, r.to_vec()))
            .collect();
        let after: Vec<_> = rec
            .granted_regions()
            .map(|(f, r)| (f, r.to_vec()))
            .collect();
        assert_eq!(before, after, "the admission ledger replays verbatim");
        // The recovered controller runs one epoch past the log's
        // highest, and commits that so epochs rise across re-crashes.
        assert_eq!(rec.epoch(), 1);
        assert_eq!(log.last_epoch(), 1);
        let rec2 = Controller::recover(&log, &cfg, Scheme::WorstFit);
        assert_eq!(rec2.epoch(), 2);
    }

    #[test]
    fn reconcile_scrubs_orphans_and_reinstalls_missing_entries() {
        let (mut rt, mut ctl) = setup();
        let log = OpLog::new();
        ctl.attach_oplog(log.clone());
        for fid in 1..=2 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let cfg = SwitchConfig::default();
        let mut rec = Controller::recover(&log, &cfg, Scheme::WorstFit);
        // Simulated divergence in the live plane that survived the
        // crash: FID 1 lost a protection entry, departed FID 9 left an
        // orphan behind, and FID 2 is inexplicably quiesced.
        let (stage, region) = rec
            .granted_regions()
            .find(|(f, _)| *f == 1)
            .map(|(_, rs)| rs[0])
            .unwrap();
        rt.remove_region(stage, 1);
        rt.install_region(stage, 9, region);
        rt.deactivate(2);
        let acts = rec.reconcile(&mut rt, 10_000);
        assert!(acts.is_empty(), "no in-flight round, so no re-signalling");
        let stats = rec.recovery_stats();
        assert!(stats.reinstalled_entries >= 1);
        assert!(stats.scrubbed_entries >= 1);
        assert!(stats.reactivated_strays >= 1);
        assert_eq!(stats.requiesced, 0);
        assert!(rt.protection().lookup(stage, 1).is_some(), "entry restored");
        assert!(rt.protection().stages_of(9).is_empty(), "orphan scrubbed");
        assert!(!rt.is_deactivated(2), "stray quiesce resumed");
        assert_eq!(rec.recoveries(), 1);
        // A second pass finds a coherent plane: zero further repairs.
        let repairs_after_first = rec.recovery_stats().total();
        rec.reconcile(&mut rt, 20_000);
        assert_eq!(
            rec.recovery_stats().total(),
            repairs_after_first,
            "reconciliation must be idempotent"
        );
    }

    #[test]
    fn log_after_action_bug_loses_the_last_transition() {
        let (mut rt, mut ctl) = setup();
        let log = OpLog::new();
        ctl.attach_oplog(log.clone());
        ctl.inject_seeded_bug(SeededBug::LogAfterAction);
        ctl.handle_request(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        // The grant escaped to the network, but its record is still
        // buffered: a crash here loses the committed transition.
        assert!(log.is_empty(), "the write-behind bug defers the record");
        // Each later transition flushes the one before it — the log
        // permanently trails reality by one record.
        ctl.handle_request(
            &mut rt,
            2,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            10,
        );
        assert_eq!(log.len(), 1);
        let cfg = SwitchConfig::default();
        let rec = Controller::recover(&log, &cfg, Scheme::WorstFit);
        assert!(
            ctl.allocator().contains(2),
            "the live controller granted it"
        );
        assert!(
            !rec.allocator().contains(2),
            "the recovered controller never heard of the latest grant"
        );
        assert!(rec.allocator().contains(1), "the flushed record did replay");
    }
}
