//! The systematic allocation search (Section 4.2).
//!
//! "Because the objective function is non-linear we cannot use standard
//! (I)LP solvers. Fortunately, our online allocation mechanism does not
//! consider relocating existing applications across stages ... Hence, a
//! systematic search over the feasibility region can be performed in
//! polynomial time, O(k) where k is the number of mutants."
//!
//! For each candidate mutant of the arriving application the search
//! checks feasibility against every constrained resource — block pools
//! (with elastic squeezing), and the per-stage protection TCAM, whose
//! range-expansion cost makes it the real admission bottleneck for
//! small-footprint applications (Section 3.1) — then scores survivors
//! with the configured [`Scheme`] and applies the winner, returning the
//! set of reallocation victims.
//!
//! The incremental search ([`Allocator::admit`]) keeps that O(k) with a
//! small constant. A candidate set stores each deduplicated candidate as
//! ids into the set's distinct `(stage, demand)` pairs; the pools do not
//! change while one arrival is searched, so the scheme cost and the
//! feasibility of each pair are computed at most once per arrival and a
//! candidate's score is a sum of table lookups. The winner, the first
//! feasible candidate in `(cost, passes, enumeration order)`, is found
//! by min-scans instead of a full sort. [`Allocator::admit_reference`]
//! keeps the literal path — materialize, score through [`Scheme::cost`],
//! sort, probe in order — as the oracle.

use crate::alloc::constraints::AccessPattern;
use crate::alloc::mutants::{merge_stage_demands, Mutant, MutantPolicy, MutantSpace};
use crate::alloc::plan::{AllocOutcome, Reallocation, StagePlacement};
use crate::alloc::pool::StagePool;
use crate::alloc::schemes::Scheme;
use crate::config::SwitchConfig;
use crate::error::{AdmitError, CoreError};
use crate::types::Fid;
use activermt_isa::constants::MAX_MEMORY_ACCESSES;
use activermt_rmt::tcam::range_prefix_count;
use activermt_telemetry::{Counter, Histogram, Telemetry};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Memos and scratch of the incremental search. Mutants of one arrival
/// differ only in a stage shift, so the same `(stage, demand)` pairs are
/// scored and probed over and over; within one admission the pools do
/// not change, so every per-pair result can be tabulated. A tabulated
/// probe is exactly the "dominated candidate" skip: a candidate whose
/// pairs were already probed (under any earlier candidate) costs
/// nothing.
///
/// Invalidation granularity differs per table. `mem`, `tcam` and
/// `scores` depend on pool state and are valid for exactly one arrival:
/// they are refilled (capacity retained) at the next admission, as is
/// the `keys` buffer. `prefix` memoizes `range_prefix_count` and
/// `candidates` memoizes the whole mutant enumeration + dedup of a
/// `(pattern, policy)` pair — both pure functions of their keys (the
/// pool state never enters them), so they persist across arrivals with
/// **no** invalidation. Enumeration is the most expensive step of a
/// least-constrained search by far, which is why it is cached at the
/// service granularity rather than per arrival.
#[derive(Debug, Default, Clone)]
struct FeasMemo {
    /// Per pair id: does the block pool fit it (`None` = not probed).
    mem: Vec<Option<bool>>,
    /// Per pair id: does the trial-applied TCAM stay in budget.
    tcam: Vec<Option<bool>>,
    /// Per pair id: the scheme's stage cost ([`Scheme::stage_cost`]).
    scores: Vec<i64>,
    /// Per candidate: its packed selection key ([`select_key`]).
    keys: Vec<u128>,
    /// `(lo, hi) → range_prefix_count(lo, hi)` for TCAM pricing.
    prefix: HashMap<(u32, u32), usize>,
    /// `(pattern, policy) → enumerated + deduplicated candidates`.
    /// A switch serves a handful of distinct services, so a short
    /// linear-scanned list beats hashing the whole pattern.
    candidates: Vec<(AccessPattern, MutantPolicy, Arc<CandidateSet>)>,
}

impl FeasMemo {
    /// The enumerated candidate set for `(pattern, policy)`, served
    /// from the persistent memo (FIFO-evicted at
    /// [`CANDIDATE_MEMO_CAP`]).
    fn candidate_set(
        &mut self,
        space: MutantSpace,
        pattern: &AccessPattern,
        policy: MutantPolicy,
    ) -> Arc<CandidateSet> {
        if let Some((_, _, set)) = self
            .candidates
            .iter()
            .find(|(p, pol, _)| *pol == policy && p == pattern)
        {
            return Arc::clone(set);
        }
        let set = Arc::new(CandidateSet::build(space, pattern, policy));
        if self.candidates.len() >= CANDIDATE_MEMO_CAP {
            self.candidates.remove(0);
        }
        self.candidates
            .push((pattern.clone(), policy, Arc::clone(&set)));
        set
    }
}

/// The mutant enumeration of one `(pattern, policy)` pair, with
/// interchangeable paddings deduplicated: distinct paddings that land
/// the accesses in the same stages with the same demands are equivalent
/// for allocation purposes, so only the first (lowest enumeration
/// index) survives. Pure in the pool state, hence cacheable across
/// arrivals.
///
/// Stored as flat arrays (one allocation per field, not per candidate):
/// candidate `c` touches the pairs `pair_ids[offsets[c]..offsets[c + 1]]`
/// (ascending by stage) and its representative mutant has passes
/// `passes[c]`, padded length `padded_len[c]` and access positions
/// `positions[c * width..(c + 1) * width]`. Candidates are in
/// enumeration order, so a lower index is an earlier mutant.
#[derive(Debug)]
struct CandidateSet {
    /// Size of the full enumeration, duplicates included (the controller
    /// charges modeled allocation time for it).
    enumerated: usize,
    /// Accesses per mutant: the row width of `positions`.
    width: usize,
    /// The distinct `(stage, demand)` pairs any candidate touches.
    pairs: Vec<(usize, u16)>,
    pair_ids: Vec<u16>,
    offsets: Vec<u32>,
    passes: Vec<u32>,
    padded_len: Vec<u16>,
    positions: Vec<u16>,
}

impl CandidateSet {
    /// Stream the enumeration into the arena, deduplicating on the flat
    /// `(pair ids, passes)` key.
    fn build(space: MutantSpace, pattern: &AccessPattern, policy: MutantPolicy) -> CandidateSet {
        let width = pattern.num_accesses();
        let mut set = CandidateSet {
            enumerated: 0,
            width,
            pairs: Vec::new(),
            pair_ids: Vec::new(),
            offsets: vec![0],
            passes: Vec::new(),
            padded_len: Vec::new(),
            positions: Vec::new(),
        };
        // Pair interning: per stage, the `(demand, id)` pairs seen so far.
        let mut interned: Vec<Vec<(u16, u16)>> = vec![Vec::new(); space.num_stages];
        // A merged candidate has at most one pair per access; unused
        // slots stay `u16::MAX`.
        let mut seen: HashSet<([u16; MAX_MEMORY_ACCESSES], u32)> = HashSet::new();
        let mut merged = Vec::with_capacity(width);
        space.enumerate_with(pattern, policy, |m| {
            set.enumerated += 1;
            merge_stage_demands(m.stages, &pattern.demands, &mut merged);
            let mut key = [u16::MAX; MAX_MEMORY_ACCESSES];
            for (slot, &(s, d)) in key.iter_mut().zip(&merged) {
                *slot = match interned[s].iter().find(|&&(dd, _)| dd == d) {
                    Some(&(_, id)) => id,
                    None => {
                        let id = u16::try_from(set.pairs.len()).expect("pair ids fit u16");
                        set.pairs.push((s, d));
                        interned[s].push((d, id));
                        id
                    }
                };
            }
            if !seen.insert((key, m.passes)) {
                return;
            }
            set.pair_ids.extend_from_slice(&key[..merged.len()]);
            set.offsets
                .push(u32::try_from(set.pair_ids.len()).expect("arena fits u32"));
            set.passes.push(m.passes);
            set.padded_len.push(m.padded_len);
            set.positions.extend_from_slice(m.positions);
        });
        set
    }

    fn len(&self) -> usize {
        self.passes.len()
    }

    fn pair_ids(&self, c: usize) -> &[u16] {
        &self.pair_ids[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Candidate `c`'s `(stage, demand)` list, as
    /// [`Mutant::stage_demands`] gives it.
    fn stage_demands(&self, c: usize) -> Vec<(usize, u16)> {
        self.pair_ids(c)
            .iter()
            .map(|&id| self.pairs[usize::from(id)])
            .collect()
    }

    /// Candidate `c`'s representative mutant, materialized.
    fn mutant(&self, c: usize, space: MutantSpace) -> Mutant {
        let positions = self.positions[c * self.width..(c + 1) * self.width].to_vec();
        Mutant {
            stages: positions.iter().map(|&p| space.stage_of(p)).collect(),
            positions,
            passes: self.passes[c],
            padded_len: self.padded_len[c],
        }
    }
}

/// The selection key of candidate `c`, packed so that integer order is
/// the lexicographic `(cost, passes, c)` order. `c` is unique, so no two
/// candidates tie; `u128::MAX` (never a real key, as `c < u32::MAX`)
/// marks a candidate already probed.
fn select_key(cost: i64, passes: u32, c: usize) -> u128 {
    let cost = (cost as u64) ^ (1 << 63);
    (u128::from(cost) << 64) | (u128::from(passes) << 32) | c as u128
}

/// Failed probes before the lazy selection stops min-scanning and
/// filters the remaining candidates in one pass.
const MIN_SCANS: usize = 4;

/// The index of the least key (built by [`select_key`]) whose candidate
/// passes `feasible`: the candidate that sorting the keys and probing
/// in order would pick, found without a sort. Usually one of the first
/// few candidates in key order is feasible, so they are taken by
/// min-scans, retiring each failed key to `u128::MAX`. After
/// [`MIN_SCANS`] failures the pools are tight: `feasible` is a fixed
/// predicate, so the winner is the least key among feasible candidates,
/// found in one pass that probes only keys below the best feasible one
/// so far. If no candidate is feasible every one has been probed once,
/// as in the sorted scan.
fn select_lazily(keys: &mut [u128], mut feasible: impl FnMut(usize) -> bool) -> Option<usize> {
    let index = |key: u128| (key & u128::from(u32::MAX)) as usize;
    for _ in 0..MIN_SCANS {
        let best = keys.iter().copied().min().filter(|&k| k != u128::MAX)?;
        let c = index(best);
        if feasible(c) {
            return Some(c);
        }
        keys[c] = u128::MAX;
    }
    let mut least = u128::MAX;
    for (c, &key) in keys.iter().enumerate() {
        if key < least && feasible(c) {
            least = key;
        }
    }
    (least != u128::MAX).then(|| index(least))
}

/// Why the probed candidates failed, for the rejection error.
#[derive(Debug, Default)]
struct Misses {
    memory: bool,
    tcam: bool,
}

impl Misses {
    fn note(&mut self, e: AdmitError) {
        match e {
            AdmitError::OutOfMemory => self.memory = true,
            AdmitError::OutOfTcam => self.tcam = true,
            _ => {}
        }
    }

    fn error(&self) -> AdmitError {
        if self.tcam && !self.memory {
            AdmitError::OutOfTcam
        } else if self.memory {
            AdmitError::OutOfMemory
        } else {
            AdmitError::NoFeasibleMutant
        }
    }
}

/// A search's winner, before it is applied.
struct Found {
    mutant: Mutant,
    stages: Vec<(usize, u16)>,
    mutants_considered: usize,
}

/// Wall-clock laps between the phases of one search.
struct Lap(Instant);

impl Lap {
    /// Nanoseconds since the previous lap.
    fn ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.0).as_nanos();
        self.0 = now;
        ns.min(u128::from(u64::MAX)) as u64
    }
}

/// Bound on the persistent prefix-price memo. Ranges are block-aligned
/// so real workloads stay orders of magnitude below this; the cap only
/// guards pathological churn.
const PREFIX_MEMO_CAP: usize = 65_536;

/// Bound on the persistent candidate-enumeration memo (distinct
/// `(pattern, policy)` pairs — i.e. distinct services — kept).
const CANDIDATE_MEMO_CAP: usize = 16;

/// Allocator dimensions and policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct AllocatorConfig {
    /// Logical stages.
    pub num_stages: usize,
    /// Ingress stages.
    pub ingress_stages: usize,
    /// Blocks per stage at the configured granularity.
    pub blocks_per_stage: u32,
    /// Registers per block.
    pub block_regs: u32,
    /// Protection-TCAM entries per stage.
    pub tcam_entries_per_stage: usize,
    /// Candidate-scoring scheme.
    pub scheme: Scheme,
    /// Extra passes allowed under the least-constrained policy.
    pub max_extra_recircs: u8,
    /// Use the literal O(blocks) progressive-filling algorithm (the
    /// paper's stated mechanism) instead of the closed form. Shares are
    /// identical; only allocation-computation time changes (Figure 12).
    pub literal_fill: bool,
}

impl AllocatorConfig {
    /// Derive from a switch configuration with the given scheme.
    pub fn from_switch(cfg: &SwitchConfig, scheme: Scheme) -> AllocatorConfig {
        AllocatorConfig {
            num_stages: cfg.num_stages,
            ingress_stages: cfg.ingress_stages,
            blocks_per_stage: cfg.blocks_per_stage(),
            block_regs: cfg.block_regs,
            tcam_entries_per_stage: cfg.tcam_entries_per_stage,
            scheme,
            max_extra_recircs: cfg.max_extra_recircs,
            literal_fill: cfg.literal_progressive_filling,
        }
    }

    fn mutant_space(&self) -> MutantSpace {
        MutantSpace {
            num_stages: self.num_stages,
            ingress_stages: self.ingress_stages,
            max_extra_recircs: self.max_extra_recircs,
        }
    }
}

/// A resident application's allocation state.
#[derive(Debug, Clone)]
pub struct AppRecord {
    /// The constraints it was admitted with.
    pub pattern: AccessPattern,
    /// The policy it requested.
    pub policy: MutantPolicy,
    /// The mutant the allocator selected.
    pub mutant: Mutant,
}

/// The online memory allocator: per-stage pools plus the application
/// directory.
///
/// ```
/// use activermt_core::alloc::{AccessPattern, Allocator, AllocatorConfig,
///                             MutantPolicy, Scheme};
/// use activermt_core::SwitchConfig;
///
/// let cfg = SwitchConfig::default();
/// let mut alloc = Allocator::new(AllocatorConfig::from_switch(&cfg, Scheme::WorstFit));
///
/// // Listing 1's cache: elastic, accesses at lines 2, 5 and 9.
/// let cache = AccessPattern {
///     min_positions: vec![2, 5, 9],
///     demands: vec![0, 0, 0],
///     prog_len: 11,
///     elastic: true,
///     ingress_positions: vec![8], // the RTS
///     aliases: vec![],
/// };
/// let out = alloc.admit(1, &cache, MutantPolicy::MostConstrained).unwrap();
/// // The compact mutant lands in stages 1, 4 and 8 and, alone on the
/// // switch, owns each stage fully: 3 x 256 blocks.
/// assert_eq!(out.mutant.stages, vec![1, 4, 8]);
/// assert_eq!(out.granted_blocks(), 3 * 256);
/// assert!(out.victims.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Allocator {
    cfg: AllocatorConfig,
    pools: Vec<StagePool>,
    apps: BTreeMap<Fid, AppRecord>,
    accounting: AllocAccounting,
    /// Reused across admissions: `mem`/`tcam` are cleared per arrival,
    /// `prefix` persists (see [`FeasMemo`]).
    memo: FeasMemo,
}

/// One FID's admission ledger (a row of the allocator's accounting).
///
/// Invariant: `admitted + rejected == arrivals` — every request that
/// reaches the allocator is resolved one way or the other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FidAllocStats {
    /// Admission requests that reached the allocator.
    pub arrivals: u64,
    /// Requests granted memory.
    pub admitted: u64,
    /// Requests denied (no feasible mutant, out of memory/TCAM,
    /// duplicate FID, invalid pattern).
    pub rejected: u64,
    /// Times this FID's placement was repacked as a side effect of
    /// another FID's admission (elastic victim events).
    pub victim_events: u64,
}

/// The allocator's admission accounting: registry-adoptable totals, a
/// compute-time histogram, and the per-FID ledger. `Clone` detaches
/// the counter cells (the bench harness clones allocators to compare
/// the memoized and reference searches side by side).
#[derive(Debug, Default)]
struct AllocAccounting {
    arrivals: Counter,
    admitted: Counter,
    rejected: Counter,
    admit_ns: Histogram,
    /// Per-phase wall time of every search that gets past validation:
    /// candidate enumeration (a memo hit on the incremental path),
    /// ranking, and probing up to the decision.
    enumerate_wall_ns: Histogram,
    rank_wall_ns: Histogram,
    probe_wall_ns: Histogram,
    per_fid: BTreeMap<Fid, FidAllocStats>,
}

impl Clone for AllocAccounting {
    fn clone(&self) -> AllocAccounting {
        AllocAccounting {
            arrivals: self.arrivals.detached_copy(),
            admitted: self.admitted.detached_copy(),
            rejected: self.rejected.detached_copy(),
            admit_ns: self.admit_ns.detached_copy(),
            enumerate_wall_ns: self.enumerate_wall_ns.detached_copy(),
            rank_wall_ns: self.rank_wall_ns.detached_copy(),
            probe_wall_ns: self.probe_wall_ns.detached_copy(),
            per_fid: self.per_fid.clone(),
        }
    }
}

impl Allocator {
    /// A fresh allocator with empty pools.
    pub fn new(cfg: AllocatorConfig) -> Allocator {
        let pools = (0..cfg.num_stages)
            .map(|_| {
                if cfg.literal_fill {
                    StagePool::new_literal(cfg.blocks_per_stage)
                } else {
                    StagePool::new(cfg.blocks_per_stage)
                }
            })
            .collect();
        Allocator {
            cfg,
            pools,
            apps: BTreeMap::new(),
            accounting: AllocAccounting::default(),
            memo: FeasMemo::default(),
        }
    }

    /// Adopt the allocator's admission counters and compute-time
    /// histograms into a metrics registry.
    pub fn bind_telemetry(&self, telemetry: &Telemetry) {
        let reg = telemetry.registry();
        let acc = &self.accounting;
        reg.register_counter("alloc.arrivals", &acc.arrivals);
        reg.register_counter("alloc.admitted", &acc.admitted);
        reg.register_counter("alloc.rejected", &acc.rejected);
        reg.register_histogram("alloc.admit_ns", &acc.admit_ns);
        reg.register_histogram("alloc.enumerate_wall_ns", &acc.enumerate_wall_ns);
        reg.register_histogram("alloc.rank_wall_ns", &acc.rank_wall_ns);
        reg.register_histogram("alloc.probe_wall_ns", &acc.probe_wall_ns);
    }

    /// Totals of the admission ledger: `(arrivals, admitted, rejected)`.
    pub fn admission_totals(&self) -> (u64, u64, u64) {
        (
            self.accounting.arrivals.get(),
            self.accounting.admitted.get(),
            self.accounting.rejected.get(),
        )
    }

    /// The measured admission compute-time histogram (wall-clock ns).
    pub fn admit_time_histogram(&self) -> &Histogram {
        &self.accounting.admit_ns
    }

    /// Per-FID admission ledger rows, sorted by FID.
    pub fn fid_accounting(&self) -> impl Iterator<Item = (Fid, &FidAllocStats)> {
        self.accounting.per_fid.iter().map(|(&f, s)| (f, s))
    }

    /// The configuration in force.
    pub fn config(&self) -> &AllocatorConfig {
        &self.cfg
    }

    /// The per-stage pools (read-only; used by metrics and tests).
    pub fn pools(&self) -> &[StagePool] {
        &self.pools
    }

    /// Resident applications.
    pub fn apps(&self) -> impl Iterator<Item = (Fid, &AppRecord)> {
        self.apps.iter().map(|(f, r)| (*f, r))
    }

    /// Is `fid` resident?
    pub fn contains(&self, fid: Fid) -> bool {
        self.apps.contains_key(&fid)
    }

    /// Number of resident applications.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// The record for a resident application.
    pub fn app(&self, fid: Fid) -> Option<&AppRecord> {
        self.apps.get(&fid)
    }

    /// Overall memory utilization: allocated blocks / total blocks
    /// (the quantity Figures 6, 7a and 11 plot).
    pub fn utilization(&self) -> f64 {
        let total: u64 = self.pools.iter().map(|p| u64::from(p.capacity())).sum();
        let used: u64 = self.pools.iter().map(|p| u64::from(p.used())).sum();
        if total == 0 {
            0.0
        } else {
            used as f64 / total as f64
        }
    }

    /// Total blocks currently held by `fid` across stages.
    pub fn app_blocks(&self, fid: Fid) -> u64 {
        self.pools
            .iter()
            .filter_map(|p| p.allocation_of(fid))
            .map(|r| u64::from(r.len))
            .sum()
    }

    /// Current placements of `fid`, ascending by stage.
    pub fn placements_of(&self, fid: Fid) -> Vec<StagePlacement> {
        self.pools
            .iter()
            .enumerate()
            .filter_map(|(s, p)| {
                p.allocation_of(fid)
                    .map(|range| StagePlacement { stage: s, range })
            })
            .collect()
    }

    /// Protection-TCAM entries a stage's current allocations cost.
    pub fn tcam_used(&self, stage: usize) -> usize {
        Self::stage_tcam_cost(&self.pools[stage], self.cfg.block_regs)
    }

    fn stage_tcam_cost(pool: &StagePool, block_regs: u32) -> usize {
        pool.allocations()
            .filter(|(_, r)| !r.is_empty())
            .map(|(_, r)| {
                let (lo, hi) = r.to_registers(block_regs);
                range_prefix_count(lo, hi - 1)
            })
            .sum()
    }

    /// Enumerate the candidate mutants for a request (exposed for the
    /// `tab_mutants` harness and Figure 5's mutant-count commentary).
    pub fn enumerate_mutants(&self, pattern: &AccessPattern, policy: MutantPolicy) -> Vec<Mutant> {
        self.cfg.mutant_space().enumerate(pattern, policy)
    }

    /// Admit a new application (Section 4.3's allocation process,
    /// control-plane half). Uses the incremental search: the candidate
    /// set is cached per service, and per-pair scheme costs, feasibility
    /// and TCAM range-expansion costs are tabulated across the arrival's
    /// candidates.
    pub fn admit(
        &mut self,
        fid: Fid,
        pattern: &AccessPattern,
        policy: MutantPolicy,
    ) -> Result<AllocOutcome, AdmitError> {
        self.admit_impl(fid, pattern, policy, true)
    }

    /// [`Allocator::admit`] by the literal algorithm: enumerate and
    /// materialize every mutant, deduplicate, score each candidate
    /// through [`Scheme::cost`], sort, and probe in order, re-probing
    /// every stage from scratch. Kept as the equivalence oracle for the
    /// incremental search and as the baseline the bench harness
    /// measures speedup against.
    pub fn admit_reference(
        &mut self,
        fid: Fid,
        pattern: &AccessPattern,
        policy: MutantPolicy,
    ) -> Result<AllocOutcome, AdmitError> {
        self.admit_impl(fid, pattern, policy, false)
    }

    /// Accounting wrapper around the search: every arrival is resolved
    /// into exactly one of admitted/rejected, keeping the ledger
    /// invariant `admitted + rejected == arrivals` per FID and in
    /// total.
    fn admit_impl(
        &mut self,
        fid: Fid,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        incremental: bool,
    ) -> Result<AllocOutcome, AdmitError> {
        self.accounting.arrivals.inc();
        self.accounting.per_fid.entry(fid).or_default().arrivals += 1;
        let result = self.admit_inner(fid, pattern, policy, incremental);
        match &result {
            Ok(out) => {
                self.accounting.admitted.inc();
                self.accounting.per_fid.entry(fid).or_default().admitted += 1;
                self.accounting
                    .admit_ns
                    .record(out.compute_time.as_nanos().min(u128::from(u64::MAX)) as u64);
                let mut vfids: Vec<Fid> = out.victims.iter().map(|v| v.fid).collect();
                vfids.sort_unstable();
                vfids.dedup();
                for v in vfids {
                    self.accounting.per_fid.entry(v).or_default().victim_events += 1;
                }
            }
            Err(_) => {
                self.accounting.rejected.inc();
                self.accounting.per_fid.entry(fid).or_default().rejected += 1;
            }
        }
        result
    }

    fn admit_inner(
        &mut self,
        fid: Fid,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        incremental: bool,
    ) -> Result<AllocOutcome, AdmitError> {
        let start = Instant::now();
        if self.apps.contains_key(&fid) {
            return Err(AdmitError::DuplicateFid(fid));
        }
        pattern.validate()?;

        let mut lap = Lap(start);
        let found = if incremental {
            // Take the allocator-resident memo for the search (a local
            // sidesteps the &self/&mut-field borrow conflict).
            let mut memo = std::mem::take(&mut self.memo);
            let found = self.search_incremental(pattern, policy, &mut memo, &mut lap);
            self.memo = memo;
            found
        } else {
            self.search_reference(pattern, policy, &mut lap)
        }?;

        let victims = self.apply(fid, &found.stages, pattern.elastic);
        self.apps.insert(
            fid,
            AppRecord {
                pattern: pattern.clone(),
                policy,
                mutant: found.mutant.clone(),
            },
        );
        debug_assert!(self.pools.iter().all(|p| p.check_invariants().is_ok()));

        Ok(AllocOutcome {
            fid,
            mutant: found.mutant,
            placements: self.placements_of(fid),
            victims,
            mutants_considered: found.mutants_considered,
            feasible_candidates: 1,
            compute_time: start.elapsed(),
        })
    }

    /// The incremental search: the cached candidate set, per-pair score
    /// tables, and lazy selection of the first feasible candidate in
    /// `(cost, passes, enumeration order)` — exactly the candidate the
    /// reference's exhaustive sort-then-probe selects, because the key
    /// is unique and feasibility is a fixed property of a candidate
    /// while the pools do not change.
    fn search_incremental(
        &self,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        memo: &mut FeasMemo,
        lap: &mut Lap,
    ) -> Result<Found, AdmitError> {
        let space = self.cfg.mutant_space();
        let cset = memo.candidate_set(space, pattern, policy);
        self.accounting.enumerate_wall_ns.record(lap.ns());
        if cset.len() == 0 {
            return Err(AdmitError::NoFeasibleMutant);
        }
        let npairs = cset.pairs.len();
        memo.mem.clear();
        memo.mem.resize(npairs, None);
        memo.tcam.clear();
        memo.tcam.resize(npairs, None);
        if memo.prefix.len() > PREFIX_MEMO_CAP {
            memo.prefix.clear();
        }

        let elastic = pattern.elastic;
        let mut misses = Misses::default();
        let mut probe =
            |c: usize, memo: &mut FeasMemo| match self.probe_pairs(&cset, c, elastic, memo) {
                Ok(()) => true,
                Err(e) => {
                    misses.note(e);
                    false
                }
            };
        let winner = if self.cfg.scheme == Scheme::FirstFit {
            // "Greedily selects the first available memory region in the
            // systematic enumeration sequence": no scores to compute.
            self.accounting.rank_wall_ns.record(lap.ns());
            (0..cset.len()).find(|&c| probe(c, memo))
        } else {
            // Scheme preference dominates; recirculation passes break
            // ties (least-constrained deliberately trades extra passes
            // for better placements — Section 6.1), then the systematic
            // enumeration order.
            let scheme = self.cfg.scheme;
            memo.scores.clear();
            memo.scores.extend(
                cset.pairs
                    .iter()
                    .map(|&(s, d)| scheme.stage_cost(&self.pools[s], d, elastic)),
            );
            let mut keys = std::mem::take(&mut memo.keys);
            keys.clear();
            keys.extend((0..cset.len()).map(|c| {
                let cost: i64 = cset
                    .pair_ids(c)
                    .iter()
                    .map(|&id| memo.scores[usize::from(id)])
                    .sum();
                select_key(cost, cset.passes[c], c)
            }));
            self.accounting.rank_wall_ns.record(lap.ns());
            let winner = select_lazily(&mut keys, |c| probe(c, memo));
            memo.keys = keys;
            winner
        };
        self.accounting.probe_wall_ns.record(lap.ns());
        let c = winner.ok_or_else(|| misses.error())?;
        Ok(Found {
            mutant: cset.mutant(c, space),
            stages: cset.stage_demands(c),
            mutants_considered: cset.enumerated,
        })
    }

    /// The literal search behind [`Allocator::admit_reference`].
    fn search_reference(
        &self,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        lap: &mut Lap,
    ) -> Result<Found, AdmitError> {
        let mutants = self.cfg.mutant_space().enumerate(pattern, policy);
        let mut seen: HashSet<(Vec<(usize, u16)>, u32)> = HashSet::new();
        let mut dedup: Vec<(usize, Vec<(usize, u16)>)> = Vec::new();
        for (idx, mutant) in mutants.iter().enumerate() {
            let stages = mutant.stage_demands(&pattern.demands);
            if seen.insert((stages.clone(), mutant.passes)) {
                dedup.push((idx, stages));
            }
        }
        self.accounting.enumerate_wall_ns.record(lap.ns());
        if mutants.is_empty() {
            return Err(AdmitError::NoFeasibleMutant);
        }

        // (cost, passes, enumeration index, dedup index)
        let mut ranked: Vec<(i64, u32, usize, usize)> = dedup
            .iter()
            .enumerate()
            .map(|(di, (idx, stages))| {
                let cost = self.cfg.scheme.cost(&self.pools, stages, pattern.elastic);
                (cost, mutants[*idx].passes, *idx, di)
            })
            .collect();
        if self.cfg.scheme != Scheme::FirstFit {
            ranked.sort_unstable_by_key(|a| (a.0, a.1, a.2));
        }
        self.accounting.rank_wall_ns.record(lap.ns());

        let mut misses = Misses::default();
        let chosen = ranked.into_iter().find(|&(_, _, _, di)| {
            match self.candidate_feasible(&dedup[di].1, pattern.elastic) {
                Ok(()) => true,
                Err(e) => {
                    misses.note(e);
                    false
                }
            }
        });
        self.accounting.probe_wall_ns.record(lap.ns());
        let (_, _, idx, di) = chosen.ok_or_else(|| misses.error())?;
        Ok(Found {
            mutant: mutants[idx].clone(),
            stages: std::mem::take(&mut dedup[di].1),
            mutants_considered: mutants.len(),
        })
    }

    /// Release an application's allocation (service departure or
    /// Section 4.3 deallocation). Elastic incumbents in the freed stages
    /// expand; their changes are returned as reallocations.
    pub fn release(&mut self, fid: Fid) -> Result<Vec<Reallocation>, CoreError> {
        if self.apps.remove(&fid).is_none() {
            return Err(CoreError::UnknownFid(fid));
        }
        let mut victims = Vec::new();
        for (s, pool) in self.pools.iter_mut().enumerate() {
            if pool.remove(fid).is_some() {
                for (vfid, old, new) in pool.recompute_elastic() {
                    victims.push(Reallocation {
                        fid: vfid,
                        stage: s,
                        old,
                        new,
                    });
                }
            }
        }
        debug_assert!(self.pools.iter().all(|p| p.check_invariants().is_ok()));
        Ok(victims)
    }

    /// [`Allocator::candidate_feasible`] for candidate `c`, with each
    /// pair's memory probe and TCAM price computed once per arrival
    /// however many candidates share it. The pools are immutable during
    /// the search, so a tabulated answer is exact — the two probes are
    /// observationally identical.
    fn probe_pairs(
        &self,
        cset: &CandidateSet,
        c: usize,
        elastic: bool,
        memo: &mut FeasMemo,
    ) -> Result<(), AdmitError> {
        let FeasMemo {
            mem, tcam, prefix, ..
        } = memo;
        let ids = cset.pair_ids(c);
        // Memory first, TCAM second — mirroring the uncached probe so
        // the OutOfMemory/OutOfTcam error priority is preserved.
        for &id in ids {
            let (s, demand) = cset.pairs[usize::from(id)];
            let fits = *mem[usize::from(id)].get_or_insert_with(|| {
                let pool = &self.pools[s];
                if elastic {
                    pool.elastic_fits()
                } else {
                    pool.inelastic_slot(u32::from(demand)).is_some()
                }
            });
            if !fits {
                return Err(AdmitError::OutOfMemory);
            }
        }
        for &id in ids {
            let (s, demand) = cset.pairs[usize::from(id)];
            let fits = *tcam[usize::from(id)].get_or_insert_with(|| {
                let mut trial = self.pools[s].clone();
                if elastic {
                    trial.insert_elastic(u16::MAX); // placeholder fid
                } else {
                    trial.insert_inelastic(u16::MAX, u32::from(demand));
                }
                trial.recompute_elastic();
                let cost: usize = trial
                    .allocations()
                    .filter(|(_, r)| !r.is_empty())
                    .map(|(_, r)| {
                        let (lo, hi) = r.to_registers(self.cfg.block_regs);
                        *prefix
                            .entry((lo, hi - 1))
                            .or_insert_with(|| range_prefix_count(lo, hi - 1))
                    })
                    .sum();
                cost <= self.cfg.tcam_entries_per_stage
            });
            if !fits {
                return Err(AdmitError::OutOfTcam);
            }
        }
        Ok(())
    }

    /// Would placing `stages` succeed on memory and TCAM?
    fn candidate_feasible(&self, stages: &[(usize, u16)], elastic: bool) -> Result<(), AdmitError> {
        // Cheap memory checks first (failed allocations must be brief —
        // Figure 5a), then the trial-apply TCAM pricing.
        for &(s, demand) in stages {
            let pool = &self.pools[s];
            let fits = if elastic {
                pool.elastic_fits()
            } else {
                pool.inelastic_slot(u32::from(demand)).is_some()
            };
            if !fits {
                return Err(AdmitError::OutOfMemory);
            }
        }
        for &(s, demand) in stages {
            let pool = &self.pools[s];
            // Trial-apply on a clone of the single pool to price the
            // protection TCAM exactly (ranges move when elastic shares
            // are recomputed).
            let mut trial = pool.clone();
            if elastic {
                trial.insert_elastic(u16::MAX); // placeholder fid
            } else {
                trial.insert_inelastic(u16::MAX, u32::from(demand));
            }
            trial.recompute_elastic();
            if Self::stage_tcam_cost(&trial, self.cfg.block_regs) > self.cfg.tcam_entries_per_stage
            {
                return Err(AdmitError::OutOfTcam);
            }
        }
        Ok(())
    }

    /// Apply the chosen placement, returning incumbent reallocations.
    fn apply(&mut self, fid: Fid, stages: &[(usize, u16)], elastic: bool) -> Vec<Reallocation> {
        let mut victims = Vec::new();
        for &(s, demand) in stages {
            let pool = &mut self.pools[s];
            if elastic {
                let ok = pool.insert_elastic(fid);
                debug_assert!(ok, "feasibility was checked");
            } else {
                let r = pool.insert_inelastic(fid, u32::from(demand));
                debug_assert!(r.is_some(), "feasibility was checked");
            }
            for (vfid, old, new) in pool.recompute_elastic() {
                if vfid != fid {
                    victims.push(Reallocation {
                        fid: vfid,
                        stage: s,
                        old,
                        new,
                    });
                }
            }
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(scheme: Scheme) -> AllocatorConfig {
        AllocatorConfig {
            num_stages: 20,
            ingress_stages: 10,
            blocks_per_stage: 256,
            block_regs: 256,
            tcam_entries_per_stage: 2048,
            scheme,
            max_extra_recircs: 1,
            literal_fill: false,
        }
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

    /// The paper's stateless load balancer: inelastic, 2 blocks
    /// (Section 6.1), four memory touches (Listing 3).
    fn lb_pattern() -> AccessPattern {
        AccessPattern {
            min_positions: vec![5, 7, 16, 18],
            demands: vec![1, 1, 1, 2],
            prog_len: 27,
            elastic: false,
            // SET_DST at line 19 is not position-constrained (see the
            // opcode table); the LB has no ingress-bound instructions.
            ingress_positions: vec![],
            aliases: vec![],
        }
    }

    #[test]
    fn first_cache_gets_the_compact_mutant_and_full_stages() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        let out = a
            .admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        assert_eq!(out.mutant.stages, vec![1, 4, 8]);
        assert!(out.victims.is_empty());
        // The only elastic tenant owns each stage fully.
        assert_eq!(out.granted_blocks(), 3 * 256);
        assert_eq!(a.app_blocks(1), 3 * 256);
    }

    #[test]
    fn worst_fit_spreads_cache_instances_to_disjoint_stages() {
        // Figure 9b: "The first three instances are able to take
        // advantage of disjoint mutants ... thus obtaining exclusive
        // memory regions (stages) and consequently zero disruption."
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        let o1 = a
            .admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        let o2 = a
            .admit(2, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        let o3 = a
            .admit(3, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        assert!(o2.victims.is_empty());
        assert!(o3.victims.is_empty());
        let mut all: Vec<usize> = [&o1, &o2, &o3]
            .iter()
            .flat_map(|o| o.mutant.stages.clone())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 9, "three instances occupy nine distinct stages");
        // The fourth must share and therefore displaces an incumbent.
        let o4 = a
            .admit(4, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        assert!(!o4.victims.is_empty());
        let victim_fids: HashSet<Fid> = o4.victims.iter().map(|v| v.fid).collect();
        assert_eq!(victim_fids.len(), 1, "exactly one incumbent shares stages");
        // Both co-located instances end with equal shares.
        let shared = *victim_fids.iter().next().unwrap();
        assert_eq!(a.app_blocks(shared), a.app_blocks(4));
        assert_eq!(a.app_blocks(shared), 3 * 128);
    }

    #[test]
    fn inelastic_apps_never_become_victims() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        a.admit(1, &lb_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        for fid in 2..12 {
            let out = a.admit(fid, &cache_pattern(), MutantPolicy::MostConstrained);
            if let Ok(out) = out {
                assert!(out.victims.iter().all(|v| v.fid != 1));
            }
        }
        // The LB's blocks are untouched.
        assert_eq!(a.app_blocks(1), 5); // 1+1+1+2 across four stages
    }

    #[test]
    fn release_returns_memory_and_grows_survivors() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        a.admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        a.admit(2, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        a.admit(3, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        let o4 = a
            .admit(4, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        let shared: Fid = o4.victims[0].fid;
        let before = a.app_blocks(shared);
        let grown = a.release(4).unwrap();
        assert!(grown.iter().all(|v| v.fid == shared));
        assert!(a.app_blocks(shared) > before);
        assert_eq!(a.app_blocks(shared), 3 * 256);
        assert!(a.release(4).is_err(), "double release is an error");
    }

    #[test]
    fn duplicate_fid_is_rejected() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        a.admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        assert_eq!(
            a.admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
                .unwrap_err(),
            AdmitError::DuplicateFid(1)
        );
    }

    #[test]
    fn memory_exhaustion_is_reported() {
        // Tiny pools: 2 blocks per stage. Inelastic LB demands 2 blocks
        // in its last stage; two instances exhaust any stage pair.
        let mut c = cfg(Scheme::WorstFit);
        c.blocks_per_stage = 2;
        let mut a = Allocator::new(c);
        let mut failures = 0;
        for fid in 0..200 {
            match a.admit(fid, &lb_pattern(), MutantPolicy::MostConstrained) {
                Ok(_) => {}
                Err(AdmitError::OutOfMemory) => {
                    failures += 1;
                    break;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert_eq!(failures, 1, "pool exhaustion must surface as OutOfMemory");
    }

    #[test]
    fn elastic_count_is_bounded_by_blocks() {
        // A stage of B blocks can host at most B elastic tenants.
        let mut c = cfg(Scheme::WorstFit);
        c.blocks_per_stage = 4;
        let mut a = Allocator::new(c);
        let mut admitted = 0;
        for fid in 0..100 {
            if a.admit(fid, &cache_pattern(), MutantPolicy::MostConstrained)
                .is_ok()
            {
                admitted += 1;
            } else {
                break;
            }
        }
        // 9 reachable stages, 4 tenants each, 3 stages per instance:
        // 12 instances fill the most-constrained window.
        assert_eq!(admitted, 12);
    }

    #[test]
    fn tcam_exhaustion_is_reported() {
        let mut c = cfg(Scheme::WorstFit);
        c.tcam_entries_per_stage = 8;
        let mut a = Allocator::new(c);
        let mut last_err = None;
        for fid in 0..300 {
            match a.admit(fid, &cache_pattern(), MutantPolicy::MostConstrained) {
                Ok(_) => {}
                Err(e) => {
                    last_err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(last_err, Some(AdmitError::OutOfTcam));
    }

    #[test]
    fn first_fit_takes_the_compact_mutant() {
        let mut a = Allocator::new(cfg(Scheme::FirstFit));
        for fid in 0..5 {
            let out = a
                .admit(fid, &cache_pattern(), MutantPolicy::MostConstrained)
                .unwrap();
            // First-fit always lands on the first feasible candidate —
            // the compact (2, 5, 9) placement — piling instances up.
            assert_eq!(out.mutant.stages, vec![1, 4, 8]);
        }
    }

    #[test]
    fn lazy_selection_picks_what_the_sorted_scan_picks() {
        // A small LCG: tie-heavy costs, a few pass counts, and
        // feasibility densities from none to all.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for trial in 0..500 {
            let n = 1 + next(120) as usize;
            let density = next(11);
            let cands: Vec<(i64, u32, bool)> = (0..n)
                .map(|_| {
                    let cost = next(7) as i64 - 3;
                    (cost, 1 + next(3) as u32, next(10) < density)
                })
                .collect();
            let mut sorted: Vec<usize> = (0..n).collect();
            sorted.sort_by_key(|&c| (cands[c].0, cands[c].1, c));
            let expected = sorted.into_iter().find(|&c| cands[c].2);

            let mut keys: Vec<u128> = cands
                .iter()
                .enumerate()
                .map(|(c, &(cost, passes, _))| select_key(cost, passes, c))
                .collect();
            let mut probed = vec![0u32; n];
            let got = select_lazily(&mut keys, |c| {
                probed[c] += 1;
                cands[c].2
            });
            assert_eq!(got, expected, "trial {trial}");
            if expected.is_none() {
                assert!(probed.iter().all(|&p| p == 1), "trial {trial}: {probed:?}");
            }
        }
    }

    #[test]
    fn cached_and_reference_probes_agree() {
        // Two allocators fed the same arrival sequence, one through the
        // memoized probe and one through the from-scratch probe, must
        // make identical decisions at every step.
        for scheme in Scheme::ALL {
            let mut fast = Allocator::new(cfg(scheme));
            let mut slow = Allocator::new(cfg(scheme));
            for fid in 0..16u16 {
                let (pattern, policy) = if fid % 3 == 0 {
                    (lb_pattern(), MutantPolicy::MostConstrained)
                } else {
                    (cache_pattern(), MutantPolicy::LeastConstrained)
                };
                let a = fast.admit(fid, &pattern, policy);
                let b = slow.admit_reference(fid, &pattern, policy);
                match (a, b) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x.mutant.stages, y.mutant.stages, "fid {fid}");
                        assert_eq!(x.placements, y.placements, "fid {fid}");
                        assert_eq!(x.victims, y.victims, "fid {fid}");
                    }
                    (Err(x), Err(y)) => assert_eq!(x, y, "fid {fid}"),
                    (x, y) => panic!("divergence at fid {fid}: {x:?} vs {y:?}"),
                }
            }
        }
    }

    #[test]
    fn utilization_tracks_admissions() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        assert_eq!(a.utilization(), 0.0);
        a.admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        // 3 of 20 stages fully used.
        assert!((a.utilization() - 3.0 / 20.0).abs() < 1e-9);
        a.admit(2, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        assert!((a.utilization() - 6.0 / 20.0).abs() < 1e-9);
    }

    #[test]
    fn least_constrained_reaches_more_stages() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        for fid in 0..12 {
            a.admit(fid, &cache_pattern(), MutantPolicy::LeastConstrained)
                .unwrap();
        }
        let touched: usize = a.pools().iter().filter(|p| p.elastic_count() > 0).count();
        assert!(
            touched > 9,
            "least-constrained cache must reach beyond the 9 mc stages, got {touched}"
        );
    }

    #[test]
    fn placements_match_response_regions() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        let out = a
            .admit(5, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        for p in &out.placements {
            let (lo, hi) = p.range.to_registers(256);
            assert_eq!(hi - lo, 256 * 256); // full stage in registers
            assert!(out.mutant.stages.contains(&p.stage));
        }
    }
}
