//! `modelcheck` — bounded exhaustive verification of the control plane.
//!
//! Single-switch scopes (`small`, `medium`) explore every interleaving
//! of allocation requests, deallocations, signal deliveries, faults
//! (drops/duplicates/stalls/crash-recover cycles), polls, and data
//! packets within a small-scope model, checking eleven safety
//! invariants — eight structural (I1–I7, I9) plus three crash-recovery
//! properties — at every reachable state.
//!
//! Fabric scopes (`fabric`, `fabric-medium`) lift the same search to a
//! *federated* multi-switch deployment: transitions are the real
//! `Federation` and member-controller entry points — placement, every
//! migration micro-step, memsync retransmission, federation and member
//! crashes, and data-network faults on replay frames — checked against
//! the per-member engine plus the fabric invariants F1–F6.
//!
//! A violation prints a minimal counterexample trace.
//!
//! ```text
//! modelcheck [--scope small|medium|fabric|fabric-medium] [--depth N]
//!            [--seed N] [--max-states N] [--no-faults]
//!            [--deny-violations] [--report <path>]
//! ```
//!
//! Exit status: 0 clean, 1 usage error, 2 violation found under
//! `--deny-violations`.

use std::process::ExitCode;

use activermt_modelcheck::{
    explore, render_fabric_report, render_report, render_trace, ExploreConfig, FabricScope,
    FabricWorld, FaultBudget, Scope, World,
};

enum AnyScope {
    Switch(Scope),
    Fabric(FabricScope),
}

fn main() -> ExitCode {
    let mut scope = AnyScope::Switch(Scope::small());
    let mut cfg = ExploreConfig {
        max_depth: 10,
        seed: 1,
        max_states: 500_000,
    };
    let mut depth_set = false;
    let mut budget = FaultBudget::default_adversary();
    let mut deny = false;
    let mut report_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scope" => {
                let name = args.next();
                let by_name = |n: &str| {
                    Scope::by_name(n)
                        .map(AnyScope::Switch)
                        .or_else(|| FabricScope::by_name(n).map(AnyScope::Fabric))
                };
                match name.as_deref().and_then(by_name) {
                    Some(s) => scope = s,
                    None => {
                        eprintln!(
                            "--scope requires `small`, `medium`, `fabric`, or `fabric-medium`"
                        );
                        return ExitCode::from(1);
                    }
                }
            }
            "--depth" => match args.next().and_then(|v| v.parse().ok()) {
                Some(d) => {
                    cfg.max_depth = d;
                    depth_set = true;
                }
                None => {
                    eprintln!("--depth requires a number");
                    return ExitCode::from(1);
                }
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => cfg.seed = s,
                None => {
                    eprintln!("--seed requires a number");
                    return ExitCode::from(1);
                }
            },
            "--max-states" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => cfg.max_states = s,
                None => {
                    eprintln!("--max-states requires a number");
                    return ExitCode::from(1);
                }
            },
            "--no-faults" => budget = FaultBudget::none(),
            "--deny-violations" => deny = true,
            "--report" => match args.next() {
                Some(p) => report_path = Some(p),
                None => {
                    eprintln!("--report requires a path");
                    return ExitCode::from(1);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: modelcheck [--scope small|medium|fabric|fabric-medium]\n\
                     \x20                 [--depth N] [--seed N] [--max-states N]\n\
                     \x20                 [--no-faults] [--deny-violations] [--report <path>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(1);
            }
        }
    }

    // Fabric states are an order of magnitude heavier than
    // single-switch ones; the default bound stays CI-friendly.
    if matches!(scope, AnyScope::Fabric(_)) && !depth_set {
        cfg.max_depth = ExploreConfig::default().max_depth;
    }

    let (md, violated) = match &scope {
        AnyScope::Switch(s) => {
            let world = World::new(s.clone(), budget);
            let outcome = explore(world, cfg);
            let md = render_report(s, budget, cfg, &outcome);
            if let Some(cx) = &outcome.counterexample {
                eprintln!("violation found:\n{}", render_trace(cx));
            }
            (md, !outcome.clean())
        }
        AnyScope::Fabric(s) => {
            let world = FabricWorld::new(s.clone(), budget, None);
            let outcome = explore(world, cfg);
            let md = render_fabric_report(s, budget, cfg, &outcome);
            if let Some(cx) = &outcome.counterexample {
                eprintln!("violation found:\n{}", render_trace(cx));
            }
            (md, !outcome.clean())
        }
    };

    print!("{md}");
    if let Some(path) = report_path {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, &md) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    if violated && deny {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
