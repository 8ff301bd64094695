//! Executable control-plane safety invariants.
//!
//! Every property the paper's memory-management story rests on —
//! isolation via TCAM range entries (§4), conservation of the per-stage
//! block pools, and a reallocation protocol that never loses or
//! double-books memory (§5) — is encoded here as a machine-checkable
//! predicate over the *real* [`Controller`] and data-plane
//! ([`DataPlane`]: a single runtime or the sharded worker pool) state. The same engine serves three masters: the bounded explorer
//! (exhaustive, small scope), the end-to-end chaos tests (spot checks
//! at quiesce points), and the property tests (random operation
//! sequences).
//!
//! Two scopes of validity:
//!
//! * **Always** — must hold in every reachable state, including the
//!   middle of a reallocation (where victims' tables intentionally
//!   still show their *old* regions while the pools already hold the
//!   new shares: the tables flip atomically at finish).
//! * **Quiescent** — must hold whenever no reallocation is in flight
//!   (`!Controller::busy()`); checked only then.

use activermt_core::alloc::progressive_filling;
use activermt_core::types::Fid;
use activermt_core::{Controller, DataPlane};
use activermt_telemetry::{EventKind, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Which safety property a [`Violation`] breaks. Codes are stable (they
/// appear in journal events and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InvariantKind {
    /// I1 — per-stage protection entries of live FIDs are pairwise
    /// disjoint (the §4 isolation guarantee).
    StageDisjointness,
    /// I2 — per-stage block conservation: allocations are disjoint,
    /// within capacity, inelastic below the frontier, elastic stacked
    /// contiguously above it; free + granted = pool size.
    BlockConservation,
    /// I3 — at quiesce, protection entries exactly cover the granted
    /// regions: no wider, no narrower, no extra stages, none missing.
    ProtectionCoverage,
    /// I4 — a FID whose table entries disagree with its pool placement
    /// is mid-snapshot (deactivated) or the in-flight requester; no
    /// third state exists.
    StaleTableState,
    /// I5 — departure leaves no residue: every protection entry and
    /// every controller region record belongs to a resident FID.
    DeallocResidue,
    /// I6 — liveness of the snapshot protocol: quiesced FIDs exist only
    /// during an in-flight reallocation and only among its victims;
    /// unacked reactivations refer to resident FIDs.
    StuckQuiesce,
    /// I7 — elastic max-min fairness: each stage's elastic shares equal
    /// progressive filling over the elastic zone, stacked contiguously
    /// from the frontier in ascending FID order.
    ElasticFairness,
    /// I9 — accounting ledger: `arrivals = admitted + rejected` (total
    /// and per FID), and every allocator admission is classified by
    /// exactly one of verify-accepted / verify-skipped /
    /// verify-rejected.
    LedgerConsistency,
    /// I10 — replay-equivalence: a controller rebuilt from its op-log
    /// reproduces the dying controller's externally visible state
    /// machine (ledger, in-flight round + fence, queue, retry
    /// obligations) verbatim.
    ReplayEquivalence,
    /// I11 — grant-continuity: no allocator grant is lost, invented,
    /// or reshaped across a crash/restart.
    GrantContinuity,
    /// I12 — recovery-liveness: after reconciliation no FID is left
    /// permanently stuck (quiesced without a round to blame, retried
    /// without residency, protected without a grant).
    RecoveryLiveness,
    /// F1 — fabric placement uniqueness: a FID is granted on at most
    /// one member switch, except transiently during a migration (then
    /// on exactly two, with the source deactivated and marked
    /// migrating-out).
    FabricDoublePlacement,
    /// F2 — migration never loses state: every register cell extracted
    /// from the source reads back with the same value on the
    /// destination after replay (byte-identical app state).
    MigrationStateLoss,
    /// F3 — conservation across the fabric: every member individually
    /// satisfies the structural single-switch invariants (I1–I7, I9), so
    /// no migration or placement leaks, double-books, or strands
    /// memory anywhere in the fabric.
    FabricConservation,
    /// F4 — route-epoch monotonicity: every route update the
    /// federation issues carries an epoch strictly above everything it
    /// (or any predecessor incarnation) previously issued, so no
    /// member ever serves a frame under a fenced-past route. Raised by
    /// the fabric-scope model backend when an issued epoch regresses
    /// or a federation-issued update is rejected as stale.
    RouteEpochRegression,
    /// F5 — drain-barrier soundness: a migration cutover never fires
    /// while the fabric's in-flight ledger still holds frames for the
    /// migrating FID (they would race the route flip and execute on a
    /// deallocated source).
    DrainBarrierBreach,
    /// F6 — migration-state-machine legality: observable
    /// `MigrationStatus` transitions follow exactly the documented
    /// table (`MigrationStatus::may_step` in `activermt-fabric`), and
    /// every non-terminal status has a live driver — no member is left
    /// quiesced-and-migrating with no federation migration tracking it
    /// (a stranded machine has no enabled recovery path).
    MigrationMachineBreach,
}

impl InvariantKind {
    /// Stable numeric code (journal events, reports).
    pub fn code(self) -> u16 {
        match self {
            InvariantKind::StageDisjointness => 1,
            InvariantKind::BlockConservation => 2,
            InvariantKind::ProtectionCoverage => 3,
            InvariantKind::StaleTableState => 4,
            InvariantKind::DeallocResidue => 5,
            InvariantKind::StuckQuiesce => 6,
            InvariantKind::ElasticFairness => 7,
            InvariantKind::LedgerConsistency => 9,
            InvariantKind::ReplayEquivalence => 10,
            InvariantKind::GrantContinuity => 11,
            InvariantKind::RecoveryLiveness => 12,
            InvariantKind::FabricDoublePlacement => 13,
            InvariantKind::MigrationStateLoss => 14,
            InvariantKind::FabricConservation => 15,
            InvariantKind::RouteEpochRegression => 16,
            InvariantKind::DrainBarrierBreach => 17,
            InvariantKind::MigrationMachineBreach => 18,
        }
    }

    /// Short stable name (reports, CI logs).
    pub fn name(self) -> &'static str {
        match self {
            InvariantKind::StageDisjointness => "stage-disjointness",
            InvariantKind::BlockConservation => "block-conservation",
            InvariantKind::ProtectionCoverage => "protection-coverage",
            InvariantKind::StaleTableState => "stale-table-state",
            InvariantKind::DeallocResidue => "dealloc-residue",
            InvariantKind::StuckQuiesce => "stuck-quiesce",
            InvariantKind::ElasticFairness => "elastic-fairness",
            InvariantKind::LedgerConsistency => "ledger-consistency",
            InvariantKind::ReplayEquivalence => "replay-equivalence",
            InvariantKind::GrantContinuity => "grant-continuity",
            InvariantKind::RecoveryLiveness => "recovery-liveness",
            InvariantKind::FabricDoublePlacement => "fabric-double-placement",
            InvariantKind::MigrationStateLoss => "migration-state-loss",
            InvariantKind::FabricConservation => "fabric-conservation",
            InvariantKind::RouteEpochRegression => "route-epoch-regression",
            InvariantKind::DrainBarrierBreach => "drain-barrier-breach",
            InvariantKind::MigrationMachineBreach => "migration-machine-breach",
        }
    }

    /// Every invariant the engine checks, in code order. I1–I7 and I9 are
    /// structural (checkable against any state in isolation); I10–I12
    /// compare a recovered controller against its pre-crash
    /// fingerprint and are raised by [`crate::recovery::check_recovery`]
    /// (the explorer stages them on its [`crate::model::World`]).
    pub fn all() -> [InvariantKind; 11] {
        [
            InvariantKind::StageDisjointness,
            InvariantKind::BlockConservation,
            InvariantKind::ProtectionCoverage,
            InvariantKind::StaleTableState,
            InvariantKind::DeallocResidue,
            InvariantKind::StuckQuiesce,
            InvariantKind::ElasticFairness,
            InvariantKind::LedgerConsistency,
            InvariantKind::ReplayEquivalence,
            InvariantKind::GrantContinuity,
            InvariantKind::RecoveryLiveness,
        ]
    }

    /// The fabric-level invariants (F1–F6, codes 13–18). F1–F3 are
    /// raised by [`crate::fabric::check_fabric_invariants`] over a
    /// whole multi-switch fabric; F4–F6 are temporal and raised by the
    /// fabric-scope explorer world (`crate::fabric_world`), which
    /// observes transitions, not just states.
    pub fn fabric() -> [InvariantKind; 6] {
        [
            InvariantKind::FabricDoublePlacement,
            InvariantKind::MigrationStateLoss,
            InvariantKind::FabricConservation,
            InvariantKind::RouteEpochRegression,
            InvariantKind::DrainBarrierBreach,
            InvariantKind::MigrationMachineBreach,
        ]
    }
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{} {}", self.code(), self.name())
    }
}

/// One broken invariant in one concrete state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The property that failed.
    pub kind: InvariantKind,
    /// The FID the failure is attributed to, when one exists.
    pub fid: Option<Fid>,
    /// Human-readable specifics (stage, expected vs. actual).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fid {
            Some(fid) => write!(f, "{} (fid {}): {}", self.kind, fid, self.detail),
            None => write!(f, "{}: {}", self.kind, self.detail),
        }
    }
}

/// Check every invariant against a controller/runtime pair. Quiescent
/// invariants are skipped while a reallocation is in flight; the
/// always-invariants hold in every reachable state.
pub fn check_invariants(ctl: &Controller, rt: &dyn DataPlane) -> Vec<Violation> {
    let mut out = Vec::new();
    let alloc = ctl.allocator();
    let prot = rt.protection();
    let block_regs = alloc.config().block_regs;
    let num_stages = alloc.config().num_stages;
    let busy = ctl.busy();

    // The granted regions, in register space, per resident FID:
    // stage → (lo, hi) inclusive, mirroring ProtEntry.
    let mut expected: BTreeMap<Fid, BTreeMap<usize, (u32, u32)>> = BTreeMap::new();
    for (fid, _) in alloc.apps() {
        let mut per_stage = BTreeMap::new();
        for p in alloc.placements_of(fid) {
            let (start, end) = p.range.to_registers(block_regs);
            if end > start {
                per_stage.insert(p.stage, (start, end - 1));
            }
        }
        expected.insert(fid, per_stage);
    }

    // ----- I1: per-stage disjointness of live protection entries -----
    for stage in 0..num_stages {
        let mut entries: Vec<(Fid, u32, u32)> = prot
            .resident_fids()
            .into_iter()
            .filter_map(|fid| prot.lookup(stage, fid).map(|e| (fid, e.lo, e.hi)))
            .collect();
        entries.sort_by_key(|&(_, lo, _)| lo);
        for w in entries.windows(2) {
            let (fa, la, ha) = w[0];
            let (fb, lb, _) = w[1];
            if lb <= ha {
                out.push(Violation {
                    kind: InvariantKind::StageDisjointness,
                    fid: Some(fb),
                    detail: format!(
                        "stage {stage}: fid {fa} [{la},{ha}] overlaps fid {fb} at {lb}"
                    ),
                });
            }
        }
    }

    // ----- I2: per-stage block conservation -----
    for (stage, pool) in alloc.pools().iter().enumerate() {
        if let Err(e) = pool.check_invariants() {
            out.push(Violation {
                kind: InvariantKind::BlockConservation,
                fid: None,
                detail: format!("stage {stage}: {e}"),
            });
        }
        let granted = pool.used();
        if granted > pool.capacity() {
            out.push(Violation {
                kind: InvariantKind::BlockConservation,
                fid: None,
                detail: format!(
                    "stage {stage}: granted {granted} blocks exceed capacity {}",
                    pool.capacity()
                ),
            });
        }
    }

    // ----- I3 (quiescent): protection exactly covers the grants -----
    if !busy {
        for (fid, regions) in &expected {
            for stage in 0..num_stages {
                let want = regions.get(&stage);
                let got = prot.lookup(stage, *fid).map(|e| (e.lo, e.hi));
                match (want, got) {
                    (Some(&w), Some(g)) if w != g => out.push(Violation {
                        kind: InvariantKind::ProtectionCoverage,
                        fid: Some(*fid),
                        detail: format!(
                            "stage {stage}: granted [{},{}] but table holds [{},{}]",
                            w.0, w.1, g.0, g.1
                        ),
                    }),
                    (Some(&w), None) => out.push(Violation {
                        kind: InvariantKind::ProtectionCoverage,
                        fid: Some(*fid),
                        detail: format!(
                            "stage {stage}: granted [{},{}] but no table entry",
                            w.0, w.1
                        ),
                    }),
                    (None, Some(g)) => out.push(Violation {
                        kind: InvariantKind::ProtectionCoverage,
                        fid: Some(*fid),
                        detail: format!(
                            "stage {stage}: no grant but table holds [{},{}]",
                            g.0, g.1
                        ),
                    }),
                    _ => {}
                }
            }
        }
    }

    // ----- I4 (always): table/pool disagreement only in-protocol -----
    let pending_fid = ctl.pending_fid();
    for (fid, regions) in &expected {
        let matches = (0..num_stages).all(|stage| {
            regions.get(&stage).copied() == prot.lookup(stage, *fid).map(|e| (e.lo, e.hi))
        });
        if !matches && !rt.is_deactivated(*fid) && pending_fid != Some(*fid) {
            out.push(Violation {
                kind: InvariantKind::StaleTableState,
                fid: Some(*fid),
                detail: "tables disagree with pools but the fid is neither quiesced \
                         nor the in-flight requester"
                    .into(),
            });
        }
    }

    // ----- I5 (always): no residue after departure -----
    for fid in prot.resident_fids() {
        if !alloc.contains(fid) {
            out.push(Violation {
                kind: InvariantKind::DeallocResidue,
                fid: Some(fid),
                detail: format!(
                    "protection entries in stages {:?} for a departed fid",
                    prot.stages_of(fid)
                ),
            });
        }
    }
    for (fid, _) in ctl.granted_regions() {
        if !alloc.contains(fid) {
            out.push(Violation {
                kind: InvariantKind::DeallocResidue,
                fid: Some(fid),
                detail: "controller region record for a departed fid".into(),
            });
        }
    }

    // ----- I6 (always): quiesce liveness -----
    // A FID migrating out is legitimately quiesced outside any
    // reallocation: it stays deactivated from the migrate-out signal
    // until cutover (or abort), both federation-driven.
    let migrating: BTreeSet<Fid> = ctl.migrating_fids().into_iter().collect();
    let deactivated = rt.deactivated_fids();
    if busy {
        let victims: BTreeSet<Fid> = ctl.pending_victims().into_iter().collect();
        for fid in &deactivated {
            if !victims.contains(fid) && !migrating.contains(fid) {
                out.push(Violation {
                    kind: InvariantKind::StuckQuiesce,
                    fid: Some(*fid),
                    detail: "quiesced but not a victim of the in-flight reallocation".into(),
                });
            }
        }
    } else {
        for fid in &deactivated {
            if !migrating.contains(fid) {
                out.push(Violation {
                    kind: InvariantKind::StuckQuiesce,
                    fid: Some(*fid),
                    detail: "still quiesced with no reallocation in flight".into(),
                });
            }
        }
    }
    for fid in ctl.unacked_fids() {
        if !alloc.contains(fid) {
            out.push(Violation {
                kind: InvariantKind::StuckQuiesce,
                fid: Some(fid),
                detail: "unacked reactivation for a non-resident fid".into(),
            });
        }
    }

    // ----- I7 (always): elastic max-min fairness -----
    for (stage, pool) in alloc.pools().iter().enumerate() {
        let elastic: Vec<_> = pool.elastic_allocations().collect();
        if elastic.is_empty() {
            continue;
        }
        let zone = pool.capacity() - pool.frontier();
        let shares = progressive_filling(zone, &vec![None; elastic.len()]);
        let mut cursor = pool.frontier();
        for (i, ((fid, range), share)) in elastic.iter().zip(&shares).enumerate() {
            if range.len != *share {
                out.push(Violation {
                    kind: InvariantKind::ElasticFairness,
                    fid: Some(*fid),
                    detail: format!(
                        "stage {stage}: elastic #{i} holds {} blocks, max-min share is {share}",
                        range.len
                    ),
                });
            }
            if range.start != cursor {
                out.push(Violation {
                    kind: InvariantKind::ElasticFairness,
                    fid: Some(*fid),
                    detail: format!(
                        "stage {stage}: elastic #{i} starts at {}, expected contiguous {cursor}",
                        range.start
                    ),
                });
            }
            cursor = range.end();
        }
    }

    // ----- I9 (always): accounting ledger -----
    let (arrivals, admitted, rejected) = alloc.admission_totals();
    if arrivals != admitted + rejected {
        out.push(Violation {
            kind: InvariantKind::LedgerConsistency,
            fid: None,
            detail: format!("arrivals {arrivals} != admitted {admitted} + rejected {rejected}"),
        });
    }
    let mut fid_arrivals = 0u64;
    for (fid, s) in alloc.fid_accounting() {
        fid_arrivals += s.arrivals;
        if s.arrivals != s.admitted + s.rejected {
            out.push(Violation {
                kind: InvariantKind::LedgerConsistency,
                fid: Some(fid),
                detail: format!(
                    "arrivals {} != admitted {} + rejected {}",
                    s.arrivals, s.admitted, s.rejected
                ),
            });
        }
    }
    if fid_arrivals != arrivals {
        out.push(Violation {
            kind: InvariantKind::LedgerConsistency,
            fid: None,
            detail: format!("per-fid arrivals sum {fid_arrivals} != total {arrivals}"),
        });
    }
    let (verify_accepted, verify_rejected) = ctl.verify_counts();
    let verify_skipped = ctl.verify_skipped();
    if admitted != verify_accepted + verify_skipped + verify_rejected {
        out.push(Violation {
            kind: InvariantKind::LedgerConsistency,
            fid: None,
            detail: format!(
                "allocator admitted {admitted} but verify ledger accounts \
                 {verify_accepted} accepted + {verify_skipped} skipped + \
                 {verify_rejected} rejected"
            ),
        });
    }

    out
}

/// Feed `violations` into the telemetry hub: one `InvariantViolated`
/// journal event per violation plus a `modelcheck.invariant_violations`
/// counter (registered even when zero, so exporters always show it).
pub fn report_violations(telemetry: &Telemetry, at_ns: u64, violations: &[Violation]) {
    let counter = telemetry
        .registry()
        .counter("modelcheck.invariant_violations");
    counter.add(violations.len() as u64);
    for v in violations {
        telemetry.journal().record(
            at_ns,
            EventKind::InvariantViolated {
                code: v.kind.code(),
                fid: v.fid.unwrap_or(0),
            },
        );
    }
}
