//! The bounded event journal: a ring buffer of structured control-plane
//! events with monotonic sequence numbers.
//!
//! The journal records *transitions* — admissions, placements, snapshot
//! start/finish, reactivations, fault injections, malformed drops — not
//! per-packet activity, so it is written only on control-plane edges
//! and injected faults. Steady-state forwarding never touches it,
//! which keeps the zero-alloc hot-path guarantee intact. The ring is
//! pre-allocated at construction; once full, the oldest events are
//! overwritten, but sequence numbers keep counting so a reader can
//! detect the gap (`total_recorded() - len()` events have been lost).

use crate::metrics::Counter;
use crate::registry::Registry;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// What kind of fault the injector applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Frame silently dropped.
    Loss,
    /// Payload bytes flipped.
    Corruption,
    /// Frame truncated.
    Truncation,
    /// Frame delivered twice.
    Duplication,
    /// Controller poll stalled.
    Stall,
    /// Controller process killed at a crash point.
    Crash,
}

/// What a post-recovery reconciliation repair did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// A missing or divergent protection entry was re-installed.
    ReinstallEntry,
    /// An orphaned protection entry was removed.
    ScrubEntry,
    /// An in-flight victim was re-quiesced in the data plane.
    Requiesce,
    /// A stray quiesced FID (no reallocation to blame) was resumed.
    ReactivateStray,
    /// A lost Deactivate / Reactivate signal was re-issued.
    ResendSignal,
}

/// Which parser rejected a malformed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropLayer {
    /// Too short for an Ethernet header.
    Ethernet,
    /// Active header failed validation.
    ActiveHeader,
    /// Allocation-request payload unparseable.
    AllocRequest,
    /// Control operation unparseable.
    Control,
    /// Instruction stream undecodable.
    Program,
    /// Runt frame dropped by the link.
    Runt,
}

/// Why the static verifier rejected a program at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyRejectReason {
    /// A memory access provably (or unprovably) escapes its region.
    OutOfBounds,
    /// A memory access is addressed by an unmasked hash value.
    UnguardedHash,
    /// A memory access or address translation has no region to use.
    MissingRegion,
    /// Worst-case passes exceed the recirculation cap.
    RecircCap,
    /// Malformed structure (backward branch, bad argument selector) or
    /// a non-equivalent mutant.
    Structure,
}

/// Which phase boundary a cross-switch migration crossed (the fabric
/// layer's state machine; see `activermt-fabric`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// The FID was quiesced on its source switch.
    Quiesce,
    /// Source-side state was extracted over the control plane.
    Snapshot,
    /// The destination switch admitted the app.
    Admit,
    /// The snapshot was replayed onto the destination via memsync.
    Replay,
    /// In-flight traffic toward the source drained.
    Drain,
    /// Routing cut over to the destination under a fresh epoch.
    Cutover,
    /// The source switch released the old allocation.
    Dealloc,
    /// The migration was abandoned; the FID stayed on its source.
    Abort,
}

/// A structured control-plane event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The controller answered an allocation request.
    Admission {
        /// Requesting FID.
        fid: u16,
        /// Whether memory was granted.
        accepted: bool,
    },
    /// The static verifier refused a program the allocator had room
    /// for; the grant was rolled back.
    VerifyRejected {
        /// Requesting FID.
        fid: u16,
        /// The dominant rejection reason.
        reason: VerifyRejectReason,
    },
    /// A (re)placement materialized in the pipeline tables.
    Placement {
        /// Placed FID.
        fid: u16,
        /// Stages occupied.
        stages: u16,
        /// Memory blocks occupied.
        blocks: u16,
    },
    /// A reallocation began: victims quiesced for state extraction.
    ReallocationStart {
        /// The arriving FID that triggered it.
        fid: u16,
        /// Number of victim FIDs deactivated.
        victims: u16,
    },
    /// A victim acknowledged its snapshot (state extraction finished).
    SnapshotComplete {
        /// Victim FID.
        fid: u16,
    },
    /// A quiesced FID resumed processing.
    Reactivation {
        /// Resumed FID.
        fid: u16,
    },
    /// A FID released its memory.
    Deallocation {
        /// Departing FID.
        fid: u16,
    },
    /// The fault injector perturbed a frame or a poll.
    FaultInjected {
        /// Which perturbation.
        fault: FaultKind,
    },
    /// A parser dropped a malformed frame.
    MalformedDrop {
        /// Which layer rejected it.
        layer: DropLayer,
    },
    /// A legacy no-bytecode request was admitted without static
    /// verification (the program could not be checked before grant).
    VerifySkipped {
        /// Admitted-but-unverified FID.
        fid: u16,
    },
    /// The invariant engine found a control-plane safety violation.
    InvariantViolated {
        /// Stable numeric code of the violated invariant (see
        /// `activermt-modelcheck`'s `InvariantKind::code`).
        code: u16,
        /// FID the violation was attributed to (0 if switch-wide).
        fid: u16,
    },
    /// A control message carrying a stale fence token was rejected
    /// (late SnapshotComplete/ReactivateAck from a superseded round or
    /// a pre-crash controller generation).
    StaleSignalRejected {
        /// Sending FID.
        fid: u16,
        /// The fence token the message carried.
        got: u16,
        /// The fence token the current round expects.
        want: u16,
    },
    /// A crashed controller finished replaying its op-log and
    /// reconciling the data plane.
    Recovered {
        /// The generation the recovered controller runs in.
        epoch: u32,
        /// Repairs the reconciliation pass applied.
        repairs: u32,
    },
    /// One post-recovery reconciliation repair.
    RecoveryRepair {
        /// FID the repair concerned (0 if switch-wide).
        fid: u16,
        /// What the repair did.
        repair: RepairKind,
    },
    /// A FID was quiesced on this switch for live migration elsewhere.
    MigrateOut {
        /// The departing FID.
        fid: u16,
        /// Fabric-assigned destination switch index.
        dest: u16,
    },
    /// A migration was abandoned; the FID resumed on this switch.
    MigrateAbort {
        /// The FID that stayed.
        fid: u16,
    },
    /// A migrated FID was activated on this (destination) switch.
    MigrateIn {
        /// The arriving FID.
        fid: u16,
    },
    /// The federation placed an arriving app on a member switch.
    FabricPlacement {
        /// The placed FID.
        fid: u16,
        /// The chosen member switch index.
        switch: u16,
    },
    /// A cross-switch migration crossed a phase boundary.
    FabricMigration {
        /// The migrating FID.
        fid: u16,
        /// Source switch index.
        src: u16,
        /// Destination switch index.
        dst: u16,
        /// The phase that completed.
        phase: MigrationPhase,
    },
    /// The federation rebuilt its control state from the member
    /// controllers after a crash.
    FederationRecovered {
        /// Migrations resumed (redone idempotently).
        resumed: u16,
        /// Migrations aborted back to their source switch.
        aborted: u16,
    },
    /// A route update carrying a stale per-FID epoch was rejected.
    StaleRouteRejected {
        /// The FID whose route the update named.
        fid: u16,
        /// The epoch the update carried.
        got: u32,
        /// The epoch the fabric expects to supersede.
        want: u32,
    },
}

/// One journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// Monotonic sequence number (never reset, survives ring wrap).
    pub seq: u64,
    /// Virtual timestamp, ns.
    pub at_ns: u64,
    /// The event.
    pub kind: EventKind,
}

struct JournalInner {
    ring: VecDeque<JournalEvent>,
    capacity: usize,
    next_seq: u64,
    /// Events evicted by ring wrap — the loss is visible, not silent.
    dropped: Counter,
}

/// The shared, bounded event journal. `Clone` shares the ring.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<Mutex<JournalInner>>,
}

/// Default ring capacity: ample for any scenario's control-plane
/// timeline while bounding memory to a few tens of KiB.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

impl Default for Journal {
    fn default() -> Journal {
        Journal::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// A journal with the default capacity.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// A journal bounded at `capacity` events (the ring is
    /// pre-allocated; recording never allocates).
    pub fn with_capacity(capacity: usize) -> Journal {
        let capacity = capacity.max(1);
        Journal {
            inner: Arc::new(Mutex::new(JournalInner {
                ring: VecDeque::with_capacity(capacity),
                capacity,
                next_seq: 0,
                dropped: Counter::new(),
            })),
        }
    }

    /// Adopt the journal's drop counter into `registry` as
    /// `journal.dropped`, so ring-wrap losses surface in snapshots even
    /// while zero.
    pub fn bind(&self, registry: &Registry) {
        registry.register_counter("journal.dropped", &self.inner.lock().unwrap().dropped);
    }

    /// Record an event; returns its sequence number.
    pub fn record(&self, at_ns: u64, kind: EventKind) -> u64 {
        let mut j = self.inner.lock().unwrap();
        let seq = j.next_seq;
        j.next_seq += 1;
        if j.ring.len() == j.capacity {
            j.ring.pop_front();
            j.dropped.inc();
        }
        j.ring.push_back(JournalEvent { seq, at_ns, kind });
        seq
    }

    /// Events evicted by ring wrap (== `total_recorded() - len()` once
    /// the ring has wrapped).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped.get()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.inner.lock().unwrap().ring.iter().copied().collect()
    }

    /// Retained event count (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// Is the journal empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().unwrap().capacity
    }

    /// Events ever recorded (including those overwritten by wrap).
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let j = self.inner.lock().unwrap();
        write!(
            f,
            "Journal(len={}, cap={}, total={})",
            j.ring.len(),
            j.capacity,
            j.next_seq
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_monotonic() {
        let j = Journal::with_capacity(8);
        for i in 0..5u64 {
            let seq = j.record(i * 10, EventKind::Reactivation { fid: i as u16 });
            assert_eq!(seq, i);
        }
        let ev = j.events();
        assert_eq!(ev.len(), 5);
        assert!(ev.windows(2).all(|w| w[1].seq == w[0].seq + 1));
    }

    #[test]
    fn ring_wraps_but_sequence_survives() {
        let j = Journal::with_capacity(4);
        for i in 0..10u64 {
            j.record(i, EventKind::SnapshotComplete { fid: 1 });
        }
        let ev = j.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].seq, 6, "oldest retained after wrap");
        assert_eq!(j.total_recorded(), 10);
    }

    #[test]
    fn overflow_is_dropped_visibly_and_sequences_stay_monotone() {
        let j = Journal::new();
        assert_eq!(j.capacity(), DEFAULT_JOURNAL_CAPACITY);
        let total = DEFAULT_JOURNAL_CAPACITY as u64 + 300;
        for i in 0..total {
            j.record(
                i,
                EventKind::Reactivation {
                    fid: (i % 7) as u16,
                },
            );
        }
        // Events beyond the bound are gone, but never silently: the
        // drop counter accounts for every evicted event, and a reader
        // can cross-check via total_recorded() - len().
        assert_eq!(j.len(), DEFAULT_JOURNAL_CAPACITY);
        assert_eq!(j.dropped(), 300);
        assert_eq!(j.total_recorded() - j.len() as u64, j.dropped());
        // Sequence numbers keep counting across the wrap with no gap
        // inside the retained window.
        let ev = j.events();
        assert_eq!(ev[0].seq, 300, "oldest retained is the 301st event");
        assert!(
            ev.windows(2).all(|w| w[1].seq == w[0].seq + 1),
            "retained sequence numbers must be gap-free and monotone"
        );
        assert_eq!(ev.last().unwrap().seq, total - 1);
    }

    #[test]
    fn bound_drop_counter_surfaces_in_a_registry() {
        let reg = Registry::new();
        let j = Journal::with_capacity(2);
        j.bind(&reg);
        let samples = reg.samples();
        assert_eq!(samples.len(), 1, "registered even while zero");
        assert_eq!(samples[0].name, "journal.dropped");
        for i in 0..5u64 {
            j.record(i, EventKind::SnapshotComplete { fid: 1 });
        }
        match reg.samples()[0].value {
            crate::registry::MetricValue::Counter(n) => assert_eq!(n, 3),
            ref other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn clones_share_the_ring() {
        let a = Journal::new();
        let b = a.clone();
        b.record(
            0,
            EventKind::Admission {
                fid: 3,
                accepted: true,
            },
        );
        assert_eq!(a.len(), 1);
    }
}
