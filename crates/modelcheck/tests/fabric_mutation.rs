//! Fabric-scope mutation testing: the fabric explorer is only worth
//! trusting if it *refutes* a broken federation. Each test seeds one
//! [`FabricBug`] into an otherwise-correct federation and requires the
//! bounded explorer to produce a minimal counterexample naming the
//! expected fabric invariant; the companion clean tests require a
//! violation-free pass on the unmutated federation at the same depth,
//! pinning both soundness directions at once.

use activermt_fabric::FabricBug;
use activermt_modelcheck::{
    explore, render_trace, ExploreConfig, FabricScope, FabricWorld, FaultBudget, InvariantKind,
};

fn cfg(depth: usize) -> ExploreConfig {
    ExploreConfig {
        max_depth: depth,
        seed: 1,
        max_states: 250_000,
    }
}

/// Explore a mutated fabric and return the invariant kinds flagged by
/// the counterexample, asserting the trace is non-empty and within the
/// depth bound.
fn kinds_caught(
    scope: FabricScope,
    bug: FabricBug,
    budget: FaultBudget,
    depth: usize,
) -> Vec<InvariantKind> {
    let world = FabricWorld::new(scope, budget, Some(bug));
    let outcome = explore(world, cfg(depth));
    let cx = outcome.counterexample.unwrap_or_else(|| {
        panic!(
            "fabric bug {bug:?} not caught within depth {depth} ({} states explored)",
            outcome.stats.states
        )
    });
    assert!(
        !cx.trace.is_empty(),
        "fabric bug {bug:?} should need at least one event to surface"
    );
    assert!(cx.trace.len() <= depth, "trace longer than the depth bound");
    println!("fabric bug {bug:?}: minimal trace\n{}", render_trace(&cx));
    cx.violations.iter().map(|v| v.kind).collect()
}

/// The default fabric scope with alpha's seeded cell zeroed, so the
/// migration machine takes the no-state `Admitting → Draining`
/// shortcut (nothing to replay). `CutoverBeforeDrain` lives on that
/// path: with seeded state the replay/verify phases mask it.
fn stateless_scope() -> FabricScope {
    let mut scope = FabricScope::fabric();
    scope.name = "fabric-stateless";
    scope.apps[0].seed_value = 0;
    scope
}

// ---------------------------------------------------------------------
// Clean passes: the unmutated federation survives the same searches.
// ---------------------------------------------------------------------

/// The acceptance bar for the fabric scope: the full default-adversary
/// search at the CLI's default depth is clean and non-trivially large.
#[test]
fn unmutated_fabric_scope_is_clean_at_full_depth() {
    let world = FabricWorld::new(
        FabricScope::fabric(),
        FaultBudget::default_adversary(),
        None,
    );
    let outcome = explore(world, cfg(9));
    if let Some(cx) = &outcome.counterexample {
        panic!(
            "unexpected violation on clean federation:\n{}",
            render_trace(cx)
        );
    }
    assert!(
        outcome.stats.states >= 10_000,
        "fabric exploration should reach at least 10k distinct states, got {}",
        outcome.stats.states
    );
    assert!(!outcome.stats.truncated, "state budget must not truncate");
}

/// The stateless scope variant used by the cutover mutation is itself
/// clean — the shortcut path is legal, just not drain-skipping.
#[test]
fn unmutated_stateless_scope_is_clean_faultfree() {
    let world = FabricWorld::new(stateless_scope(), FaultBudget::none(), None);
    let outcome = explore(world, cfg(8));
    if let Some(cx) = &outcome.counterexample {
        panic!(
            "unexpected violation on clean stateless federation:\n{}",
            render_trace(cx)
        );
    }
    assert!(
        outcome.stats.states > 100,
        "exploration should be non-trivial"
    );
}

/// The medium scope (three members, inelastic third app) is clean in
/// the fault-free interleavings at a bounded depth.
#[test]
fn unmutated_medium_scope_is_clean_faultfree() {
    let world = FabricWorld::new(FabricScope::fabric_medium(), FaultBudget::none(), None);
    let outcome = explore(world, cfg(6));
    if let Some(cx) = &outcome.counterexample {
        panic!(
            "unexpected violation on clean medium federation:\n{}",
            render_trace(cx)
        );
    }
    assert!(
        outcome.stats.states > 100,
        "exploration should be non-trivial"
    );
}

// ---------------------------------------------------------------------
// Refutations: each seeded federation bug dies with a minimal trace.
// ---------------------------------------------------------------------

/// F5: flipping the route before the in-flight drain barrier clears
/// lets old-home frames race the cutover.
#[test]
fn cutover_before_drain_breaches_drain_barrier() {
    let kinds = kinds_caught(
        stateless_scope(),
        FabricBug::CutoverBeforeDrain,
        FaultBudget::none(),
        8,
    );
    assert!(
        kinds.contains(&InvariantKind::DrainBarrierBreach),
        "expected F5 drain-barrier-breach, got {kinds:?}"
    );
}

/// F6: jumping `Replaying → Draining` without the read-back verify is
/// an undocumented transition (and silent state loss).
#[test]
fn skip_verify_readback_breaches_migration_machine() {
    let kinds = kinds_caught(
        FabricScope::fabric(),
        FabricBug::SkipVerifyReadback,
        FaultBudget::none(),
        8,
    );
    assert!(
        kinds.contains(&InvariantKind::MigrationMachineBreach),
        "expected F6 migration-machine-breach, got {kinds:?}"
    );
}

/// F4: a recovered federation reissuing route epochs at or below the
/// fabric's high-water mark lets stale updates win.
#[test]
fn epoch_reuse_on_recovery_regresses_route_epochs() {
    let kinds = kinds_caught(
        FabricScope::fabric(),
        FabricBug::EpochReuseOnRecovery,
        FaultBudget::crashes_only(1),
        8,
    );
    assert!(
        kinds.contains(&InvariantKind::RouteEpochRegression),
        "expected F4 route-epoch-regression, got {kinds:?}"
    );
}

/// F1: re-brokering a pending placement while the first admission is
/// still in flight grants the FID on two members.
#[test]
fn double_placement_on_retry_splits_brain() {
    let kinds = kinds_caught(
        FabricScope::fabric(),
        FabricBug::DoublePlacementOnRetry,
        FaultBudget::none(),
        8,
    );
    assert!(
        kinds.contains(&InvariantKind::FabricDoublePlacement),
        "expected F1 fabric-double-placement, got {kinds:?}"
    );
}

/// F6 (stranded): recovery that forgets in-flight migrations leaves
/// the source quiesced forever with no federation driving it.
#[test]
fn recovery_abandoning_migration_strands_the_source() {
    let kinds = kinds_caught(
        FabricScope::fabric(),
        FabricBug::RecoveryAbandonsMigration,
        FaultBudget::crashes_only(1),
        8,
    );
    assert!(
        kinds.contains(&InvariantKind::MigrationMachineBreach),
        "expected F6 stranded-migration breach, got {kinds:?}"
    );
}
