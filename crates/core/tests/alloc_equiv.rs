//! Equivalence tests for the incremental allocation search: with its
//! cached candidate arena, per-pair score and feasibility tables and
//! lazy winner selection, [`Allocator::admit`] must select exactly the
//! same winning mutant, placements and victims as the literal oracle
//! ([`Allocator::admit_reference`]: materialize, score, sort, probe),
//! and report the same enumeration size — the tables may only skip
//! redundant *work*, never change a *decision*. Runs a Figure 12-style
//! arrival sweep (both policies, every scheme, with departures for
//! fragmentation), the real applications' patterns with their large,
//! tie-heavy least-constrained candidate sets, and random patterns.

use activermt_core::alloc::{
    AccessPattern, AllocOutcome, Allocator, AllocatorConfig, MutantPolicy, Scheme,
};
use activermt_core::error::AdmitError;
use proptest::prelude::*;

fn config(scheme: Scheme) -> AllocatorConfig {
    AllocatorConfig {
        num_stages: 20,
        ingress_stages: 10,
        blocks_per_stage: 64,
        block_regs: 256,
        tcam_entries_per_stage: 256,
        scheme,
        max_extra_recircs: 1,
        literal_fill: false,
    }
}

/// The paper's three application shapes, as access patterns.
fn app_pattern(kind: usize) -> AccessPattern {
    match kind % 3 {
        // Cache: three elastic accesses (Listing 1).
        0 => AccessPattern {
            min_positions: vec![2, 5, 9],
            demands: vec![0, 0, 0],
            prog_len: 11,
            elastic: true,
            ingress_positions: vec![8],
            aliases: vec![],
        },
        // Heavy hitter: two aliased accesses with a fixed demand.
        1 => AccessPattern {
            min_positions: vec![3, 7],
            demands: vec![4, 4],
            prog_len: 10,
            elastic: false,
            ingress_positions: vec![],
            aliases: vec![(0, 1)],
        },
        // Load balancer: one inelastic access.
        _ => AccessPattern {
            min_positions: vec![4],
            demands: vec![2],
            prog_len: 8,
            elastic: false,
            ingress_positions: vec![2],
            aliases: vec![],
        },
    }
}

/// Assert two admission results are decision-identical.
fn assert_same_outcome(
    ctx: &str,
    a: &Result<AllocOutcome, AdmitError>,
    b: &Result<AllocOutcome, AdmitError>,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            prop_assert_eq!(x.fid, y.fid, "{}: fid", ctx);
            prop_assert_eq!(&x.mutant.stages, &y.mutant.stages, "{}: mutant stages", ctx);
            prop_assert_eq!(x.mutant.passes, y.mutant.passes, "{}: passes", ctx);
            prop_assert_eq!(&x.placements, &y.placements, "{}: placements", ctx);
            prop_assert_eq!(&x.victims, &y.victims, "{}: victims", ctx);
            prop_assert_eq!(
                x.feasible_candidates,
                y.feasible_candidates,
                "{}: feasibility counts",
                ctx
            );
            prop_assert_eq!(
                x.mutants_considered,
                y.mutants_considered,
                "{}: enumeration size",
                ctx
            );
        }
        (Err(x), Err(y)) => {
            prop_assert_eq!(
                std::mem::discriminant(x),
                std::mem::discriminant(y),
                "{}: error kind ({:?} vs {:?})",
                ctx,
                x,
                y
            );
        }
        (a, b) => panic!("{ctx}: diverged: incremental={a:?} reference={b:?}"),
    }
}

/// Figure 12-style sweep under every scheme and both policies: keep
/// admitting `pattern(i)` for arrival `i` until the pipeline refuses,
/// with departures so later arrivals see fragmented pools; every
/// arrival is decided independently by both searches on identical
/// allocator states. Returns the refusals and the largest enumeration.
fn sweep(
    pattern: fn(usize) -> AccessPattern,
    blocks_per_stage: u32,
    arrivals: u16,
) -> (u32, usize) {
    let mut total_rejections = 0u32;
    let mut largest = 0usize;
    for scheme in Scheme::ALL {
        for policy in [
            MutantPolicy::MostConstrained,
            MutantPolicy::LeastConstrained,
        ] {
            let mut cfg = config(scheme);
            cfg.blocks_per_stage = blocks_per_stage;
            let mut inc = Allocator::new(cfg);
            let mut oracle = inc.clone();
            let mut admitted: Vec<u16> = Vec::new();
            let mut rejections = 0u32;
            for i in 0..arrivals {
                let pattern = pattern(i as usize);
                let ctx = format!("{scheme:?}/{policy:?}/arrival {i}");
                let a = inc.admit(i, &pattern, policy);
                let b = oracle.admit_reference(i, &pattern, policy);
                assert_same_outcome(&ctx, &a, &b);
                match a {
                    Ok(out) => {
                        largest = largest.max(out.mutants_considered);
                        admitted.push(i);
                    }
                    Err(_) => {
                        rejections += 1;
                        // Departure: free the two oldest residents so
                        // the next arrivals probe fragmented pools.
                        for fid in admitted.drain(..2.min(admitted.len())) {
                            inc.release(fid).unwrap();
                            oracle.release(fid).unwrap();
                        }
                    }
                }
                if rejections > 8 {
                    break;
                }
            }
            total_rejections += rejections;
        }
    }
    (total_rejections, largest)
}

#[test]
fn incremental_search_matches_reference_across_fig12_sweep() {
    let (rejections, _) = sweep(app_pattern, 64, 60);
    assert!(
        rejections > 0,
        "the sweep must reach saturation somewhere to exercise \
         infeasible candidates"
    );
}

/// The real applications' patterns as their client shims compile them
/// (`CacheApp`, `HeavyHitterApp` and `CheetahLb` services). Under the
/// least-constrained policy the heavy hitter enumerates ~10^5 mutants
/// and the load balancer ~4*10^4, with many equal-cost candidates.
fn real_app_pattern(kind: usize) -> AccessPattern {
    match kind % 3 {
        0 => AccessPattern {
            min_positions: vec![2, 5, 9],
            demands: vec![0, 0, 0],
            prog_len: 11,
            elastic: true,
            ingress_positions: vec![8],
            aliases: vec![],
        },
        1 => AccessPattern {
            min_positions: vec![8, 13, 15, 20, 25, 27],
            demands: vec![8, 8, 1, 1, 0, 1],
            prog_len: 28,
            elastic: false,
            ingress_positions: vec![],
            aliases: vec![(2, 4)],
        },
        _ => AccessPattern {
            min_positions: vec![5, 10, 19, 21],
            demands: vec![1, 1, 1, 2],
            prog_len: 30,
            elastic: false,
            ingress_positions: vec![],
            aliases: vec![],
        },
    }
}

/// The real applications on a switch small enough to saturate: the
/// first arrivals see empty pools (every stage scores the same, so ties
/// are broken by passes and enumeration order), later ones see full
/// stages, failed probes and refusals. The reference search
/// materializes every mutant, so this test is slow without
/// optimizations; CI also runs it in release.
#[test]
fn real_app_patterns_match_reference_under_every_scheme() {
    let (rejections, largest) = sweep(real_app_pattern, 16, 24);
    assert!(
        largest > 100_000,
        "the hh least-constrained set must be large"
    );
    assert!(rejections > 0, "the switch must saturate somewhere");
}

/// Random small-but-valid access patterns (mirrors alloc_proptests).
fn arb_pattern() -> impl Strategy<Value = AccessPattern> {
    (
        prop::collection::vec((1u16..5, 0u16..8), 1..4),
        any::<bool>(),
        0u16..4,
    )
        .prop_map(|(gaps_demands, elastic, tail)| {
            let mut pos = 0u16;
            let mut min_positions = Vec::new();
            let mut demands = Vec::new();
            for (gap, demand) in gaps_demands {
                pos += gap;
                min_positions.push(pos);
                demands.push(if elastic { 0 } else { demand.max(1) });
            }
            AccessPattern {
                prog_len: pos + tail,
                min_positions,
                demands,
                elastic,
                ingress_positions: vec![],
                aliases: vec![],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equivalence under arbitrary admission sequences of random
    /// patterns under both policies and every scheme.
    #[test]
    fn incremental_search_matches_reference_on_random_patterns(
        scheme in 0usize..4,
        patterns in prop::collection::vec((arb_pattern(), any::<bool>()), 1..20),
    ) {
        let mut inc = Allocator::new(config(Scheme::ALL[scheme]));
        let mut oracle = inc.clone();
        for (i, (pattern, mc)) in patterns.iter().enumerate() {
            let policy = if *mc {
                MutantPolicy::MostConstrained
            } else {
                MutantPolicy::LeastConstrained
            };
            let fid = i as u16;
            let a = inc.admit(fid, pattern, policy);
            let b = oracle.admit_reference(fid, pattern, policy);
            assert_same_outcome(&format!("random arrival {i}"), &a, &b);
        }
    }
}
