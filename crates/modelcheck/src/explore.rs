//! The bounded explorer: exhaustive interleaving search with state
//! hashing, plus the markdown reports the CLI and CI consume.
//!
//! The search is breadth-first over model states deduplicated by
//! fingerprint, so the first violating state found is at minimal
//! depth — the emitted counterexample trace is a shortest witness.
//! (The classic alternative, depth-first with a visited set, explores
//! the same state space but returns longer traces; since the whole
//! point of a counterexample is a human reading it, we pay BFS's
//! memory for minimality.) Every *discovered* state — not just
//! frontier tips — is checked against the full invariant engine.
//!
//! The explorer is generic over [`ModelWorld`], so the same search
//! drives both the single-switch [`World`](crate::model::World)
//! (scope `small`/`medium`) and the multi-switch
//! [`FabricWorld`](crate::fabric_world::FabricWorld) (scope `fabric`).

use crate::invariants::Violation;
use crate::model::{Event, FaultBudget, Scope};
use std::collections::HashSet;
use std::fmt;

/// What the bounded explorer needs from a model: clonable states,
/// enumerable transitions, a canonical fingerprint for deduplication,
/// and an invariant check. Implementations must keep `enabled` and
/// `apply` deterministic, and `fingerprint` must cover every piece of
/// state that `enabled`, `apply`, or `check` depends on (two states
/// with equal fingerprints are treated as the same node).
pub trait ModelWorld: Clone {
    /// One transition of the model.
    type Event: Clone + fmt::Display;
    /// The transitions enabled in this state, in a deterministic order.
    fn enabled(&self) -> Vec<Self::Event>;
    /// Apply one transition in place.
    fn apply(&mut self, ev: Self::Event);
    /// A canonical fingerprint of the model-relevant state.
    fn fingerprint(&self) -> u64;
    /// Every violation visible in this state.
    fn check(&self) -> Vec<Violation>;
}

/// Explorer limits.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum trace length explored.
    pub max_depth: usize,
    /// Permutes transition enumeration order (trace aesthetics only —
    /// coverage is exhaustive either way).
    pub seed: u64,
    /// Hard cap on distinct states (memory guard); exceeding it marks
    /// the result truncated instead of thrashing.
    pub max_states: usize,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            max_depth: 9,
            seed: 1,
            max_states: 250_000,
        }
    }
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Distinct states discovered (after canonicalization).
    pub states: usize,
    /// Transitions applied.
    pub transitions: u64,
    /// Transitions that landed on an already-visited state.
    pub duplicate_hits: u64,
    /// Deepest level fully explored.
    pub depth_reached: usize,
    /// The state cap stopped the search before the depth bound.
    pub truncated: bool,
}

/// A minimal-length witness for a broken invariant.
#[derive(Debug, Clone)]
pub struct Counterexample<E = Event> {
    /// The events from the initial state to the violating state.
    pub trace: Vec<E>,
    /// Everything the invariant engine flagged in that state.
    pub violations: Vec<Violation>,
}

/// The outcome of one bounded exploration.
#[derive(Debug, Clone)]
pub struct ExploreOutcome<E = Event> {
    /// Search statistics.
    pub stats: ExploreStats,
    /// The first (minimal-depth) violation found, if any.
    pub counterexample: Option<Counterexample<E>>,
}

impl<E> ExploreOutcome<E> {
    /// Did every explored state satisfy every invariant?
    pub fn clean(&self) -> bool {
        self.counterexample.is_none()
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn shuffle<E>(events: &mut [E], seed: u64) {
    if events.len() < 2 {
        return;
    }
    let mut s = seed | 1;
    for i in (1..events.len()).rev() {
        let j = (xorshift(&mut s) % (i as u64 + 1)) as usize;
        events.swap(i, j);
    }
}

/// Exhaustively explore `world` to `cfg.max_depth`, checking every
/// discovered state, and stop at the first (minimal-depth) violation.
pub fn explore<W: ModelWorld>(world: W, cfg: ExploreConfig) -> ExploreOutcome<W::Event> {
    let mut stats = ExploreStats::default();
    let mut visited: HashSet<u64> = HashSet::new();

    let initial_violations = world.check();
    visited.insert(world.fingerprint());
    stats.states = 1;
    if !initial_violations.is_empty() {
        return ExploreOutcome {
            stats,
            counterexample: Some(Counterexample {
                trace: Vec::new(),
                violations: initial_violations,
            }),
        };
    }

    let mut frontier: Vec<(W, Vec<W::Event>)> = vec![(world, Vec::new())];
    for depth in 1..=cfg.max_depth {
        let mut next: Vec<(W, Vec<W::Event>)> = Vec::new();
        for (w, path) in &frontier {
            let mut events = w.enabled();
            shuffle(
                &mut events,
                cfg.seed ^ (depth as u64).wrapping_mul(0x9e37_79b9),
            );
            for ev in events {
                stats.transitions += 1;
                let mut child = w.clone();
                child.apply(ev.clone());
                if !visited.insert(child.fingerprint()) {
                    stats.duplicate_hits += 1;
                    continue;
                }
                stats.states += 1;
                let violations = child.check();
                if !violations.is_empty() {
                    let mut trace = path.clone();
                    trace.push(ev);
                    stats.depth_reached = depth;
                    return ExploreOutcome {
                        stats,
                        counterexample: Some(Counterexample { trace, violations }),
                    };
                }
                if stats.states >= cfg.max_states {
                    stats.truncated = true;
                    stats.depth_reached = depth;
                    return ExploreOutcome {
                        stats,
                        counterexample: None,
                    };
                }
                let mut trace = path.clone();
                trace.push(ev);
                next.push((child, trace));
            }
        }
        stats.depth_reached = depth;
        if next.is_empty() {
            break; // closed the state space before the depth bound
        }
        frontier = next;
    }

    ExploreOutcome {
        stats,
        counterexample: None,
    }
}

/// Render one counterexample as numbered trace lines.
pub fn render_trace<E: fmt::Display>(cx: &Counterexample<E>) -> String {
    let mut out = String::new();
    if cx.trace.is_empty() {
        out.push_str("  (violated in the initial state)\n");
    }
    for (i, ev) in cx.trace.iter().enumerate() {
        out.push_str(&format!("  {}. {ev}\n", i + 1));
    }
    for v in &cx.violations {
        out.push_str(&format!("  => {v}\n"));
    }
    out
}

fn render_result<E: fmt::Display>(
    md: &mut String,
    outcome: &ExploreOutcome<E>,
    invariant_count: usize,
) {
    let s = outcome.stats;
    md.push_str(&format!(
        "| states | transitions | duplicate hits | depth | truncated |\n\
         |---|---|---|---|---|\n\
         | {} | {} | {} | {} | {} |\n\n",
        s.states, s.transitions, s.duplicate_hits, s.depth_reached, s.truncated,
    ));
    match &outcome.counterexample {
        None => {
            md.push_str(&format!(
                "**PASS** — all {} states satisfy all {invariant_count} invariants.\n",
                s.states,
            ));
        }
        Some(cx) => {
            md.push_str(&format!(
                "**FAIL** — invariant violation at depth {} (minimal trace):\n\n```\n{}```\n",
                cx.trace.len(),
                render_trace(cx),
            ));
        }
    }
}

/// Render the markdown report for `results/modelcheck.md`.
pub fn render_report(
    scope: &Scope,
    budget: FaultBudget,
    cfg: ExploreConfig,
    outcome: &ExploreOutcome,
) -> String {
    use crate::invariants::InvariantKind;
    let mut md = String::new();
    md.push_str("# Control-plane model check\n\n");
    md.push_str(
        "Bounded exhaustive exploration of the controller's reachable \
         states under a small-scope model (see DESIGN.md §13). Every \
         discovered state is checked against the full invariant \
         engine; a violation is reported with a minimal event trace.\n\n",
    );
    md.push_str("## Configuration\n\n");
    md.push_str(&format!(
        "| scope | stages | blocks/stage | apps | depth | drops | dups | stalls | crashes | seed |\n\
         |---|---|---|---|---|---|---|---|---|---|\n\
         | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n\n",
        scope.name,
        scope.stages,
        scope.blocks_per_stage,
        scope.apps.len(),
        cfg.max_depth,
        budget.drops,
        budget.duplicates,
        budget.stalls,
        budget.crashes,
        cfg.seed,
    ));
    md.push_str("Applications: ");
    let apps: Vec<String> = scope
        .apps
        .iter()
        .map(|a| {
            let kind = match (&a.program, a.expect_reject) {
                (None, _) => "legacy, unverified",
                (Some(_), false) => "verified bytecode",
                (Some(_), true) => "verifier-rejected probe",
            };
            format!("`{}` (fid {}, {kind})", a.name, a.fid)
        })
        .collect();
    md.push_str(&apps.join(", "));
    md.push_str(".\n\n## Invariants checked\n\n");
    for k in InvariantKind::all() {
        md.push_str(&format!("- **I{} {}**\n", k.code(), k.name()));
    }
    md.push_str("\n## Result\n\n");
    render_result(&mut md, outcome, InvariantKind::all().len());
    md
}

/// Render the markdown report section for a fabric-scope exploration.
pub fn render_fabric_report(
    scope: &crate::fabric_world::FabricScope,
    budget: FaultBudget,
    cfg: ExploreConfig,
    outcome: &ExploreOutcome<crate::fabric_world::FabricEvent>,
) -> String {
    use crate::invariants::InvariantKind;
    let mut md = String::new();
    md.push_str("# Fabric model check\n\n");
    md.push_str(
        "Bounded exhaustive exploration of the *federated* control \
         plane: a multi-switch fabric whose transitions are the real \
         `Federation` and member-controller entry points — placement, \
         every migration micro-step, federation and member crashes, \
         and data-network faults on memsync replay frames (see \
         DESIGN.md §13). Every discovered state is checked against \
         the single-switch engine per member plus the fabric \
         invariants F1–F6.\n\n",
    );
    md.push_str("## Configuration\n\n");
    md.push_str(&format!(
        "| scope | members | stages | blocks/stage | apps | depth | drops | dups | corrupts | crashes | seed |\n\
         |---|---|---|---|---|---|---|---|---|---|---|\n\
         | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n\n",
        scope.name,
        scope.members,
        scope.stages,
        scope.blocks_per_stage,
        scope.apps.len(),
        cfg.max_depth,
        budget.drops,
        budget.duplicates,
        budget.corruptions,
        budget.crashes,
        cfg.seed,
    ));
    md.push_str("Applications: ");
    let apps: Vec<String> = scope
        .apps
        .iter()
        .map(|a| {
            let kind = if a.preplaced {
                "preplaced with seeded state"
            } else {
                "arriving"
            };
            format!("`{}` (fid {}, {kind})", a.name, a.fid)
        })
        .collect();
    md.push_str(&apps.join(", "));
    md.push_str(".\n\n## Invariants checked\n\n");
    md.push_str(
        "Per member, the structural engine I1–I7 and I9; across \
         the fabric:\n\n",
    );
    for k in InvariantKind::fabric() {
        md.push_str(&format!("- **I{} {}**\n", k.code(), k.name()));
    }
    md.push_str("\n## Result\n\n");
    render_result(&mut md, outcome, InvariantKind::fabric().len() + 8);
    md
}
