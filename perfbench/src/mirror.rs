//! Isolated control-plane stage timings: a workload's recorded
//! allocation requests and departures are replayed, in order, on a
//! fresh mirror `Allocator`, timing `Allocator::admit` alone, and every
//! admitted program is checked by `analysis::verify` alone against its
//! grant — exactly the proof the controller runs at admission. A grant
//! the verifier refuses is released again, as the controller does.

use crate::common::Dist;
use activermt_analysis::{pad_to_positions, verify, AnalysisContext, Assumptions};
use activermt_core::alloc::{AccessPattern, Allocator, AllocatorConfig, MutantPolicy, Scheme};
use activermt_core::types::Fid;
use activermt_core::SwitchConfig;
use activermt_isa::constants::{ALLOC_REQUEST_LEN, ETHERNET_HEADER_LEN, INITIAL_HEADER_LEN};
use activermt_isa::wire::{ActiveHeader, AllocRequest};
use activermt_isa::Program;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded control-plane input.
#[derive(Debug, Clone)]
pub enum Event {
    /// An allocation request frame, as the switch received it.
    Arrival(Fid, Vec<u8>),
    /// A departure (deallocation) of a FID.
    Departure(Fid),
}

/// What the switch parses out of an allocation request: the access
/// pattern, the mutant policy and the shipped bytecode.
pub fn parse_request(frame: &[u8]) -> Option<(AccessPattern, MutantPolicy, Option<Program>)> {
    let hdr = ActiveHeader::new_checked(frame.get(ETHERNET_HEADER_LEN..)?).ok()?;
    let flags = hdr.flags();
    let ingress = hdr.aux();
    let body = frame.get(ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN..)?;
    let req = AllocRequest::new_checked(body).ok()?;
    let bytes = body.get(ALLOC_REQUEST_LEN..)?;
    let program = if bytes.is_empty() {
        None
    } else {
        Some(Program::decode_instructions(bytes).ok()?)
    };
    let pattern = AccessPattern::from_request(
        &req.accesses(),
        u16::from(hdr.program_len()),
        flags.elastic(),
        (ingress != 0).then_some(ingress),
    )
    .ok()?;
    let policy = if flags.pinned() {
        MutantPolicy::MostConstrained
    } else {
        MutantPolicy::LeastConstrained
    };
    Some((pattern, policy, program))
}

/// The replay's measurements and decisions.
#[derive(Debug, Default)]
pub struct Replay {
    /// `Allocator::admit` wall time per arrival, ns.
    pub admit_ns: Dist,
    /// `verify` wall time per admitted program, ns.
    pub verify_ns: Dist,
    /// Admitted (and verified) or refused, per arrival, in order.
    pub decisions: Vec<(Fid, bool)>,
    /// Reallocated incumbents (by FID) summed over admissions.
    pub victims: u64,
    /// Admissions.
    pub admitted: u64,
    /// Candidate mutants enumerated and found feasible, summed.
    pub mutants_considered: u64,
    pub feasible: u64,
    /// Grants rolled back because the verifier refused the program on
    /// them (the controller refuses the arrival the same way).
    pub verify_rejections: u64,
    /// Arrivals whose request or program could not be parsed or padded
    /// (must stay 0).
    pub unparsable: u64,
    /// The mirror's final per-FID placements.
    pub grants: BTreeMap<Fid, String>,
}

/// Replay `events` on a fresh allocator for a switch configured as
/// `cfg`.
pub fn replay(cfg: &SwitchConfig, scheme: Scheme, events: &[Event]) -> Replay {
    let mut alloc = Allocator::new(AllocatorConfig::from_switch(cfg, scheme));
    let block_regs = alloc.config().block_regs;
    let mut r = Replay::default();
    for ev in events {
        match ev {
            Event::Departure(fid) => {
                let _ = alloc.release(*fid);
            }
            Event::Arrival(fid, frame) => {
                let Some((pattern, policy, program)) = parse_request(frame) else {
                    r.unparsable += 1;
                    continue;
                };
                let t0 = Instant::now();
                let result = alloc.admit(*fid, &pattern, policy);
                r.admit_ns.push_ns(t0.elapsed());
                let Ok(outcome) = result else {
                    r.decisions.push((*fid, false));
                    continue;
                };
                r.decisions.push((*fid, true));
                r.admitted += 1;
                r.victims += outcome.victims_by_fid().len() as u64;
                r.mutants_considered += outcome.mutants_considered as u64;
                r.feasible += outcome.feasible_candidates as u64;
                let Some(program) = program else { continue };
                let Ok(padded) = pad_to_positions(&program, &outcome.mutant.positions) else {
                    r.unparsable += 1;
                    continue;
                };
                let mut ctx = AnalysisContext::new(
                    cfg.num_stages,
                    cfg.ingress_stages,
                    cfg.max_recirculations,
                )
                .with_assumptions(Assumptions::admission());
                for p in &outcome.placements {
                    let (start, end) = p.range.to_registers(block_regs);
                    ctx = ctx.with_region(p.stage, start, end);
                }
                let t0 = Instant::now();
                let report = verify(padded.instructions(), &ctx);
                r.verify_ns.push_ns(t0.elapsed());
                if !report.accepted() {
                    // The controller rolls such a grant back.
                    r.verify_rejections += 1;
                    r.admitted -= 1;
                    r.decisions.last_mut().expect("just pushed").1 = false;
                    let _ = alloc.release(*fid);
                }
            }
        }
    }
    r.grants = grant_map(&alloc);
    r
}

/// Every resident FID's placements, rendered for comparison.
pub fn grant_map(alloc: &Allocator) -> BTreeMap<Fid, String> {
    alloc
        .apps()
        .map(|(fid, _)| (fid, format!("{:?}", alloc.placements_of(fid))))
        .collect()
}
