//! Mutant enumeration (Section 4.1).
//!
//! "Because each stage is functionally equivalent, we can place any of
//! the MEM_READ instructions into subsequent stages (and fill gaps with
//! NOP instructions) without altering program semantics. We refer to
//! these adjusted programs as *mutants* and exploit this flexibility
//! when performing allocations."
//!
//! ## Model
//!
//! NOPs are inserted immediately before memory accesses; non-access
//! instructions stay rigidly attached to the *preceding* access (or to
//! program start, before the first access). A mutant is therefore fully
//! described by the access-position vector `x`, subject to
//!
//! * `x[i] >= LB[i]` and `x[i] - x[i-1] >= B[i]` (Section 4.2),
//! * `x[M-1] + tail <= max_len`, where `max_len` is the padded program
//!   length the policy allows,
//! * under [`MutantPolicy::MostConstrained`], every ingress-bound
//!   instruction must land in the ingress half of its pass.
//!
//! Positions beyond the pipeline length wrap onto physical stages
//! (`stage = (pos - 1) % n`): such mutants "push instructions too far
//! ahead [and] require additional packet recirculations".
//!
//! The paper reports mutant counts of 34/1/5 (most-constrained) and
//! 915/587/1149 (least-constrained) for its cache / heavy-hitter /
//! load-balancer programs without specifying the enumeration model; our
//! model is parametric in the extra-recirculation budget and its counts
//! are recorded against the paper's in EXPERIMENTS.md.

use crate::alloc::constraints::AccessPattern;

/// Which mutants the allocator may consider (Section 6.1's two
/// policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutantPolicy {
    /// "considers only mutants that avoid additional recirculations":
    /// the padded program must fit the program's inherent pass count and
    /// ingress-bound instructions must execute in ingress stages.
    MostConstrained,
    /// "enjoys maximum flexibility at the cost of additional passes":
    /// up to `max_extra_recircs` extra passes, and ingress-bound
    /// instructions in the egress half merely cost one more pass.
    LeastConstrained,
}

/// One NOP-padded variant of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutant {
    /// Logical positions of the memory accesses (1-based, may exceed the
    /// pipeline length when recirculating).
    pub positions: Vec<u16>,
    /// Physical stage of each access (0-based).
    pub stages: Vec<usize>,
    /// Total passes through the pipeline this mutant needs (≥ 1),
    /// including any RTS-in-egress penalty pass.
    pub passes: u32,
    /// Padded program length.
    pub padded_len: u16,
}

impl Mutant {
    /// Distinct physical stages touched, ascending, with the demand for
    /// each (the max across accesses mapping there — two accesses in the
    /// same stage on different passes share one region, like Listing 2's
    /// threshold read/write).
    pub fn stage_demands(&self, demands: &[u16]) -> Vec<(usize, u16)> {
        let mut merged = Vec::new();
        merge_stage_demands(&self.stages, demands, &mut merged);
        merged
    }
}

/// A mutant borrowed from the enumerator's scratch buffers; valid only
/// for the duration of one visitor call (see
/// [`MutantSpace::enumerate_with`]).
#[derive(Debug, Clone, Copy)]
pub struct MutantRef<'a> {
    /// Logical access positions (as [`Mutant::positions`]).
    pub positions: &'a [u16],
    /// Physical stage of each access (as [`Mutant::stages`]).
    pub stages: &'a [usize],
    /// Passes through the pipeline (as [`Mutant::passes`]).
    pub passes: u32,
    /// Padded program length (as [`Mutant::padded_len`]).
    pub padded_len: u16,
}

impl MutantRef<'_> {
    /// An owned copy.
    pub fn to_mutant(&self) -> Mutant {
        Mutant {
            positions: self.positions.to_vec(),
            stages: self.stages.to_vec(),
            passes: self.passes,
            padded_len: self.padded_len,
        }
    }
}

/// [`Mutant::stage_demands`] into a caller-owned buffer (cleared
/// first), so a streaming consumer allocates nothing per mutant.
pub(crate) fn merge_stage_demands(stages: &[usize], demands: &[u16], out: &mut Vec<(usize, u16)>) {
    out.clear();
    for (i, &s) in stages.iter().enumerate() {
        let d = demands.get(i).copied().unwrap_or(0);
        match out.iter_mut().find(|(st, _)| *st == s) {
            Some((_, dm)) => *dm = (*dm).max(d),
            None => out.push((s, d)),
        }
    }
    out.sort_unstable_by_key(|&(s, _)| s);
}

/// Enumeration parameters derived from the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct MutantSpace {
    /// Logical stages per pass.
    pub num_stages: usize,
    /// Ingress stages per pass.
    pub ingress_stages: usize,
    /// Extra passes the least-constrained policy may add.
    pub max_extra_recircs: u8,
}

impl MutantSpace {
    /// Passes inherently needed by a program of `len` instructions.
    pub fn inherent_passes(&self, len: u16) -> u32 {
        (u32::from(len)).div_ceil(self.num_stages as u32).max(1)
    }

    /// Is 1-based logical position `p` in the ingress half of its pass?
    pub fn position_is_ingress(&self, p: u16) -> bool {
        ((usize::from(p) - 1) % self.num_stages) < self.ingress_stages
    }

    /// Physical 0-based stage of 1-based logical position `p`.
    pub fn stage_of(&self, p: u16) -> usize {
        (usize::from(p) - 1) % self.num_stages
    }

    /// Enumerate every mutant of `pattern` permitted by `policy`, in the
    /// systematic (lexicographic) order the first-fit scheme relies on.
    /// A collecting wrapper around [`MutantSpace::enumerate_with`].
    pub fn enumerate(&self, pattern: &AccessPattern, policy: MutantPolicy) -> Vec<Mutant> {
        let mut out = Vec::new();
        self.enumerate_with(pattern, policy, |m| out.push(m.to_mutant()));
        out
    }

    /// Stream every mutant of `pattern` permitted by `policy` to `visit`,
    /// in enumeration order, without materializing any of them: the
    /// visitor borrows the enumerator's position and stage buffers.
    pub fn enumerate_with(
        &self,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        mut visit: impl FnMut(MutantRef<'_>),
    ) {
        let inherent = self.inherent_passes(pattern.prog_len);
        let max_passes = match policy {
            MutantPolicy::MostConstrained => inherent,
            MutantPolicy::LeastConstrained => inherent + u32::from(self.max_extra_recircs),
        };
        let max_len = (max_passes as usize * self.num_stages) as u16;
        let m = pattern.num_accesses();

        if m == 0 {
            // Memoryless programs have exactly one "mutant": the compact
            // program itself (padding would be pointless).
            if pattern.prog_len <= max_len {
                if let Some(penalty) = self.ingress_ok(pattern, &[], policy) {
                    visit(MutantRef {
                        positions: &[],
                        stages: &[],
                        passes: inherent + penalty,
                        padded_len: pattern.prog_len,
                    });
                }
            }
            return;
        }

        let mut walk = Walk {
            pattern,
            policy,
            gaps: pattern.min_gaps(),
            tail: pattern.tail_len(),
            max_len,
            x: vec![0u16; m],
            stages: Vec::with_capacity(m),
        };
        self.enumerate_rec(&mut walk, 0, &mut visit);
    }

    fn enumerate_rec(&self, w: &mut Walk<'_>, i: usize, visit: &mut impl FnMut(MutantRef<'_>)) {
        let pattern = w.pattern;
        let m = pattern.num_accesses();
        if i == m {
            let padded_len = w.x[m - 1] + w.tail;
            w.stages.clear();
            w.stages.extend(w.x.iter().map(|&p| self.stage_of(p)));
            if !Self::stage_constraints_ok(pattern, &w.stages) {
                return;
            }
            if let Some(penalty) = self.ingress_ok(pattern, &w.x, w.policy) {
                let base = (u32::from(padded_len)).div_ceil(self.num_stages as u32);
                visit(MutantRef {
                    positions: &w.x,
                    stages: &w.stages,
                    passes: base + penalty,
                    padded_len,
                });
            }
            return;
        }
        // Remaining accesses after i need at least this much room.
        let slack_after: u16 = w.gaps[i + 1..].iter().sum::<u16>() + w.tail;
        let lo = if i == 0 {
            pattern.min_positions[0]
        } else {
            (w.x[i - 1] + w.gaps[i]).max(pattern.min_positions[i])
        };
        let hi = w.max_len.saturating_sub(slack_after);

        // Constraint-aware pruning: an aliased access may only sit at
        // positions mapping to its partner's stage (step = pipeline
        // length), and a non-aliased access must avoid every earlier
        // access's stage. Without this the least-constrained space for
        // multi-access programs explodes combinatorially.
        let alias_of = pattern
            .aliases
            .iter()
            .find(|&&(_, l)| l == i)
            .map(|&(e, _)| e);
        let n = self.num_stages as u16;
        let (mut p, step) = match alias_of {
            Some(e) => {
                let target = self.stage_of(w.x[e]) as u16;
                let mut first = lo;
                let rem = (first - 1) % n;
                first += (target + n - rem) % n;
                (first, n)
            }
            None => (lo, 1),
        };
        while p <= hi {
            let stage = self.stage_of(p);
            let collides = alias_of.is_none()
                && w.x[..i].iter().enumerate().any(|(j, &xp)| {
                    self.stage_of(xp) == stage
                        && !pattern
                            .aliases
                            .iter()
                            .any(|&(e, l)| (e, l) == (j, i) || (e, l) == (i, j))
                });
            if !collides {
                w.x[i] = p;
                self.enumerate_rec(w, i + 1, visit);
            }
            p += step;
        }
        w.x[i] = 0;
    }

    /// Aliasing and distinctness constraints on physical stages:
    /// aliased access pairs must land in the *same* stage (they share
    /// one region across passes); all other pairs must land in
    /// *distinct* stages (an application owns at most one region per
    /// stage — Section 3.2).
    fn stage_constraints_ok(pattern: &AccessPattern, stages: &[usize]) -> bool {
        for i in 0..stages.len() {
            for j in i + 1..stages.len() {
                let aliased = pattern
                    .aliases
                    .iter()
                    .any(|&(e, l)| (e, l) == (i, j) || (e, l) == (j, i));
                if aliased != (stages[i] == stages[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// Check the ingress constraints for access vector `x`.
    ///
    /// Returns `None` if the mutant is infeasible (most-constrained
    /// policy with an ingress-bound instruction landing in egress), or
    /// `Some(penalty)` with the number of extra recirculation passes the
    /// ingress misses cost under the least-constrained policy
    /// (Section 3.1: "Otherwise we recirculate packets to change ports
    /// with a corresponding overhead").
    fn ingress_ok(&self, pattern: &AccessPattern, x: &[u16], policy: MutantPolicy) -> Option<u32> {
        let mut penalty = 0u32;
        for &r in &pattern.ingress_positions {
            let pos = self.instruction_position(pattern, x, r);
            if !self.position_is_ingress(pos) {
                match policy {
                    MutantPolicy::MostConstrained => return None,
                    MutantPolicy::LeastConstrained => penalty += 1,
                }
            }
        }
        Some(penalty)
    }

    /// Logical position of the (non-access) instruction at compact
    /// position `r`, under the rigid-attachment model: NOPs are inserted
    /// immediately *before* each access's segment, so an interstitial
    /// instruction moves with the closest memory access at or after it;
    /// tail instructions (after the last access) move with that access.
    ///
    /// This is the model that reproduces the paper's Section 4.2 bounds:
    /// with RTS one line before the third access, `UB = [4 7 11]` —
    /// i.e. `x[2] <= 11` because `pos(RTS) = x[2] - 1 <= 10`.
    pub fn instruction_position(&self, pattern: &AccessPattern, x: &[u16], r: u16) -> u16 {
        match pattern.min_positions.iter().position(|&lb| lb >= r) {
            Some(j) => x[j] - (pattern.min_positions[j] - r),
            None => match pattern.min_positions.last() {
                Some(&last_lb) => x[x.len() - 1] + (r - last_lb),
                None => r,
            },
        }
    }
}

/// The enumerator's per-call state: the pattern's derived bounds and
/// the scratch buffers every visited mutant borrows.
struct Walk<'a> {
    pattern: &'a AccessPattern,
    policy: MutantPolicy,
    gaps: Vec<u16>,
    tail: u16,
    max_len: u16,
    x: Vec<u16>,
    stages: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> MutantSpace {
        MutantSpace {
            num_stages: 20,
            ingress_stages: 10,
            max_extra_recircs: 1,
        }
    }

    /// The Listing 1 cache pattern: LB = [2 5 9], tail 2, RTS at 8.
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

    #[test]
    fn most_constrained_cache_matches_paper_bounds() {
        // Section 4.2: with RTS restricted to the ingress pipeline the
        // upper bound becomes [4 7 11].
        let muts = space().enumerate(&cache_pattern(), MutantPolicy::MostConstrained);
        assert!(!muts.is_empty());
        for m in &muts {
            assert!(
                m.positions[0] >= 2 && m.positions[0] <= 4,
                "{:?}",
                m.positions
            );
            assert!(m.positions[1] >= 5 && m.positions[1] <= 7);
            assert!(m.positions[2] >= 9 && m.positions[2] <= 11);
            assert!(m.positions[1] - m.positions[0] >= 3);
            assert!(m.positions[2] - m.positions[1] >= 4);
            assert_eq!(m.passes, 1);
        }
        // The compact program itself is the first mutant.
        assert_eq!(muts[0].positions, vec![2, 5, 9]);
        assert_eq!(muts[0].stages, vec![1, 4, 8]);
        // Box+gap constraints admit exactly 10 vectors (the paper counts
        // 34 under its unpublished enumeration; see EXPERIMENTS.md).
        assert_eq!(muts.len(), 10);
    }

    #[test]
    fn without_ingress_pin_bounds_widen_to_paper_ub() {
        // Section 4.2: "When targeting a logical pipeline with n = 20
        // stages, the corresponding upper bounds can be computed as
        // UB = [11 14 18]" (ignoring the RTS constraint).
        let mut p = cache_pattern();
        p.ingress_positions.clear();
        let muts = space().enumerate(&p, MutantPolicy::MostConstrained);
        let max0 = muts.iter().map(|m| m.positions[0]).max().unwrap();
        let max1 = muts.iter().map(|m| m.positions[1]).max().unwrap();
        let max2 = muts.iter().map(|m| m.positions[2]).max().unwrap();
        assert_eq!((max0, max1, max2), (11, 14, 18));
    }

    #[test]
    fn least_constrained_is_a_superset() {
        let mc = space().enumerate(&cache_pattern(), MutantPolicy::MostConstrained);
        let lc = space().enumerate(&cache_pattern(), MutantPolicy::LeastConstrained);
        assert!(lc.len() > mc.len() * 10, "lc={} mc={}", lc.len(), mc.len());
        for m in &mc {
            assert!(lc.iter().any(|l| l.positions == m.positions));
        }
    }

    #[test]
    fn recirculating_mutants_wrap_stages_and_cost_passes() {
        let lc = space().enumerate(&cache_pattern(), MutantPolicy::LeastConstrained);
        let wrapped = lc.iter().find(|m| m.positions[2] > 20).expect("some wrap");
        assert_eq!(
            wrapped.stages[2],
            (usize::from(wrapped.positions[2]) - 1) % 20
        );
        assert!(wrapped.passes >= 2);
    }

    #[test]
    fn rts_in_egress_costs_a_pass_under_lc() {
        let lc = space().enumerate(&cache_pattern(), MutantPolicy::LeastConstrained);
        // Find a mutant whose RTS (1 before access 3) lands in egress of
        // pass 1 (positions 11..=20) while the program fits one pass.
        let m = lc
            .iter()
            .find(|m| {
                let rts = m.positions[2] - 1;
                m.padded_len <= 20 && !(space().position_is_ingress(rts))
            })
            .expect("an egress-RTS single-pass mutant exists");
        assert_eq!(m.passes, 2, "egress RTS must cost one extra pass");
    }

    #[test]
    fn stage_demands_merge_same_stage_accesses() {
        let m = Mutant {
            positions: vec![5, 25],
            stages: vec![4, 4],
            passes: 2,
            padded_len: 26,
        };
        assert_eq!(m.stage_demands(&[3, 8]), vec![(4, 8)]);
        let m2 = Mutant {
            positions: vec![2, 9],
            stages: vec![1, 8],
            passes: 1,
            padded_len: 9,
        };
        assert_eq!(m2.stage_demands(&[3, 8]), vec![(1, 3), (8, 8)]);
    }

    #[test]
    fn memoryless_program_has_one_mutant() {
        let p = AccessPattern {
            min_positions: vec![],
            demands: vec![],
            prog_len: 12,
            elastic: true,
            ingress_positions: vec![3],
            aliases: vec![],
        };
        let muts = space().enumerate(&p, MutantPolicy::MostConstrained);
        assert_eq!(muts.len(), 1);
        assert!(muts[0].stages.is_empty());
        assert_eq!(muts[0].passes, 1);
    }

    #[test]
    fn impossible_ingress_pin_yields_no_mutants() {
        // An ingress-bound instruction at compact position 15 of a
        // memoryless program can never be moved (no accesses to pad),
        // so most-constrained enumeration is empty.
        let p = AccessPattern {
            min_positions: vec![],
            demands: vec![],
            prog_len: 16,
            elastic: true,
            ingress_positions: vec![15],
            aliases: vec![],
        };
        assert!(space()
            .enumerate(&p, MutantPolicy::MostConstrained)
            .is_empty());
        // Least-constrained accepts it, paying a recirculation.
        let lc = space().enumerate(&p, MutantPolicy::LeastConstrained);
        assert_eq!(lc.len(), 1);
        assert_eq!(lc[0].passes, 2);
    }

    #[test]
    fn long_program_needs_multiple_passes() {
        let p = AccessPattern {
            min_positions: vec![25],
            demands: vec![1],
            prog_len: 29,
            elastic: false,
            ingress_positions: vec![],
            aliases: vec![],
        };
        let muts = space().enumerate(&p, MutantPolicy::MostConstrained);
        assert!(!muts.is_empty());
        for m in &muts {
            assert_eq!(m.passes, 2);
            assert!(m.padded_len <= 40);
        }
    }

    #[test]
    fn enumeration_is_lexicographic() {
        let muts = space().enumerate(&cache_pattern(), MutantPolicy::MostConstrained);
        for w in muts.windows(2) {
            assert!(w[0].positions < w[1].positions);
        }
    }
}
