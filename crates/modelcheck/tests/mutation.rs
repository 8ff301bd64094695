//! Mutation testing for the model checker: the checker is only worth
//! trusting if it *fails* when the controller is wrong. Each test
//! seeds one known bug into an otherwise-correct world and requires
//! the bounded explorer to produce a counterexample naming the
//! expected invariant; the companion tests require a *clean* pass on
//! the unmutated controller at the same depth, so the suite pins both
//! soundness directions at once.

use activermt_modelcheck::{
    explore, render_trace, ExploreConfig, FaultBudget, InvariantKind, Mutation, Scope, World,
};

fn cfg(depth: usize) -> ExploreConfig {
    ExploreConfig {
        max_depth: depth,
        seed: 1,
        max_states: 250_000,
    }
}

/// Explore a mutated world and return the kinds the counterexample
/// flags, asserting the trace is non-empty and minimal-ish.
fn kinds_caught(m: Mutation, budget: FaultBudget, depth: usize) -> Vec<InvariantKind> {
    let mut world = World::new(Scope::small(), budget);
    world.inject(m);
    let outcome = explore(world, cfg(depth));
    let cx = outcome.counterexample.unwrap_or_else(|| {
        panic!(
            "mutation {:?} not caught within depth {depth} ({} states explored)",
            m, outcome.stats.states
        )
    });
    assert!(
        !cx.trace.is_empty(),
        "mutation {m:?} should need at least one event to surface"
    );
    assert!(cx.trace.len() <= depth, "trace longer than the depth bound");
    println!(
        "mutation {}: minimal trace\n{}",
        m.name(),
        render_trace(&cx)
    );
    cx.violations.iter().map(|v| v.kind).collect()
}

#[test]
fn unmutated_small_scope_is_clean_faultfree() {
    let world = World::new(Scope::small(), FaultBudget::none());
    let outcome = explore(world, cfg(8));
    if let Some(cx) = &outcome.counterexample {
        panic!(
            "unexpected violation on clean controller:\n{}",
            render_trace(cx)
        );
    }
    assert!(
        outcome.stats.states > 50,
        "exploration should be non-trivial"
    );
    assert!(
        !outcome.stats.truncated,
        "small scope must fit the state cap"
    );
}

#[test]
fn unmutated_small_scope_is_clean_with_faults() {
    let world = World::new(Scope::small(), FaultBudget::default_adversary());
    let outcome = explore(world, cfg(5));
    if let Some(cx) = &outcome.counterexample {
        panic!("unexpected violation under faults:\n{}", render_trace(cx));
    }
    assert!(
        !outcome.stats.truncated,
        "small scope must fit the state cap"
    );
}

#[test]
fn catches_overlapping_grant() {
    let kinds = kinds_caught(Mutation::OverlappingGrant, FaultBudget::none(), 4);
    assert!(
        kinds.contains(&InvariantKind::ProtectionCoverage)
            || kinds.contains(&InvariantKind::StageDisjointness),
        "expected a coverage/disjointness violation, got {kinds:?}"
    );
}

#[test]
fn catches_dealloc_leaked_entry() {
    let kinds = kinds_caught(Mutation::DeallocLeaksEntry, FaultBudget::none(), 4);
    assert!(
        kinds.contains(&InvariantKind::DeallocResidue),
        "expected a dealloc-residue violation, got {kinds:?}"
    );
}

#[test]
fn catches_rollback_leak() {
    let kinds = kinds_caught(Mutation::RollbackLeak, FaultBudget::none(), 4);
    assert!(
        kinds.contains(&InvariantKind::ProtectionCoverage)
            || kinds.contains(&InvariantKind::DeallocResidue)
            || kinds.contains(&InvariantKind::LedgerConsistency)
            || kinds.contains(&InvariantKind::BlockConservation),
        "expected rollback residue to break coverage/conservation, got {kinds:?}"
    );
}

#[test]
fn catches_ackless_reactivation() {
    let kinds = kinds_caught(Mutation::AckLessReactivation, FaultBudget::none(), 5);
    assert!(
        kinds.contains(&InvariantKind::StuckQuiesce)
            || kinds.contains(&InvariantKind::StaleTableState),
        "expected a stuck-quiesce/stale-table violation, got {kinds:?}"
    );
}

#[test]
fn catches_log_after_action() {
    // The write-behind-log bug is invisible until a crash consumes it:
    // the last committed transition is missing from the log, so the
    // recovered controller diverges from what clients observed. The
    // explorer needs crash license — and nothing else — to refute it.
    let kinds = kinds_caught(Mutation::LogAfterAction, FaultBudget::crashes_only(1), 4);
    assert!(
        kinds.contains(&InvariantKind::ReplayEquivalence)
            || kinds.contains(&InvariantKind::GrantContinuity),
        "expected a replay-equivalence/grant-continuity violation, got {kinds:?}"
    );
}

#[test]
fn log_after_action_escapes_without_crash_license() {
    // Soundness control: with no crash budget the bug is genuinely
    // unobservable (the log trails reality, but nobody reads it), so a
    // clean pass here pins that the checker's catch above really comes
    // from the crash/recover path.
    let mut world = World::new(Scope::small(), FaultBudget::none());
    world.inject(Mutation::LogAfterAction);
    let outcome = explore(world, cfg(4));
    assert!(
        outcome.clean(),
        "a write-behind log must be invisible without a crash"
    );
}

#[test]
fn every_mutation_is_caught() {
    for m in Mutation::all() {
        let mut world = World::new(Scope::small(), m.minimal_budget());
        world.inject(m);
        let outcome = explore(world, cfg(5));
        assert!(
            outcome.counterexample.is_some(),
            "mutation {m:?} escaped the checker"
        );
    }
}
