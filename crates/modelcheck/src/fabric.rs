//! Fabric-level invariants (F1–F3) over a multi-switch deployment.
//!
//! The single-switch engine ([`crate::invariants`]) audits one
//! `(Controller, DataPlane)` pair. A federated fabric adds failure
//! modes no member can see alone: the same FID granted on two members
//! with neither migrating (split-brain placement), app state silently
//! diverging across a migration, or a member left structurally
//! inconsistent by a half-finished cross-switch move. This module
//! checks those from a whole-fabric vantage point:
//!
//! * **F1 — placement uniqueness.** A FID's memory grant lives on at
//!   most one member, *except* mid-migration, where exactly two copies
//!   may exist and the extra one must be the migration source: marked
//!   migrating-out and quiesced in its data plane.
//! * **F2 — migration preserves state.** Each completed replay is
//!   audited: every cell extracted from the source must read back
//!   identically from the destination ([`MigrationAudit`]). Audits
//!   whose divergence already *aborted* the migration in place are
//!   diagnostic, not violations: the divergent copy never served.
//! * **F3 — fabric-wide conservation.** Every member individually
//!   passes the structural I1–I7 and I9 checks; a violation anywhere
//!   is lifted to a fabric violation naming the member.
//!
//! The temporal fabric invariants F4–F6 (route-epoch monotonicity,
//! drain-barrier soundness, migration-machine legality) observe
//! *transitions* and live in the fabric-scope explorer world
//! ([`crate::fabric_world`]), not here.

use crate::invariants::{check_invariants, InvariantKind, Violation};
use activermt_core::types::Fid;
use activermt_core::{Controller, DataPlane};
use std::collections::BTreeMap;

pub use activermt_fabric::audit::MigrationAudit;

/// A read-only view of one fabric member for invariant checking.
pub struct FabricMemberView<'a> {
    /// The member's fabric index.
    pub id: u16,
    /// Its controller.
    pub controller: &'a Controller,
    /// Its data plane.
    pub plane: &'a dyn DataPlane,
}

/// Check F1–F3 across `members`, with `audits` the completed-migration
/// records accumulated by the federation.
pub fn check_fabric_invariants(
    members: &[FabricMemberView<'_>],
    audits: &[MigrationAudit],
) -> Vec<Violation> {
    let mut out = Vec::new();

    // ----- F1: each FID granted on at most one member -----
    let mut homes: BTreeMap<Fid, Vec<&FabricMemberView<'_>>> = BTreeMap::new();
    for m in members {
        for (fid, _) in m.controller.allocator().apps() {
            homes.entry(fid).or_default().push(m);
        }
    }
    for (fid, holders) in &homes {
        match holders.len() {
            0 | 1 => {}
            2 => {
                // Legal only mid-migration: one holder is the source
                // (migrating out toward the other, quiesced).
                let legal = holders.iter().any(|src| {
                    src.controller.migration_dest(*fid).is_some_and(|dest| {
                        holders.iter().any(|dst| dst.id == dest && dst.id != src.id)
                    }) && src.plane.is_deactivated(*fid)
                });
                if !legal {
                    out.push(Violation {
                        kind: InvariantKind::FabricDoublePlacement,
                        fid: Some(*fid),
                        detail: format!(
                            "granted on members {:?} with no migration between them",
                            holders.iter().map(|m| m.id).collect::<Vec<_>>()
                        ),
                    });
                }
            }
            n => out.push(Violation {
                kind: InvariantKind::FabricDoublePlacement,
                fid: Some(*fid),
                detail: format!(
                    "granted on {n} members {:?}; at most two (one migrating) allowed",
                    holders.iter().map(|m| m.id).collect::<Vec<_>>()
                ),
            }),
        }
    }

    // ----- F2: completed migrations preserved every cell -----
    for a in audits {
        // A dirty audit that already aborted its migration in place is
        // the audit *working*: the divergent destination copy was torn
        // down before it could serve, so no state was lost.
        if !a.is_clean() && !a.aborted {
            let divergent = a
                .expected
                .iter()
                .zip(&a.observed)
                .find(|(e, o)| e != o)
                .map_or_else(
                    || {
                        format!(
                            "cell count mismatch: wrote {}, read back {}",
                            a.expected.len(),
                            a.observed.len()
                        )
                    },
                    |(e, o)| {
                        format!(
                            "stage {} addr {}: wrote {}, read back {}",
                            e.0, e.1, e.2, o.2
                        )
                    },
                );
            out.push(Violation {
                kind: InvariantKind::MigrationStateLoss,
                fid: Some(a.fid),
                detail: divergent,
            });
        }
    }

    // ----- F3: every member structurally sound on its own -----
    for m in members {
        for v in check_invariants(m.controller, m.plane) {
            out.push(Violation {
                kind: InvariantKind::FabricConservation,
                fid: v.fid,
                detail: format!("switch {}: {v}", m.id),
            });
        }
    }

    out
}
