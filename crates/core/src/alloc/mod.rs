//! Dynamic memory allocation (Section 4).
//!
//! "ActiveRMT instantiates one large register array in each logical
//! stage to be used as a dynamic memory pool. ... At runtime, we
//! accommodate new applications by allocating memory regions from this
//! set of pools." (Section 4.1)
//!
//! The allocator's moving parts, each in its own module:
//!
//! * [`constraints`] — an application's memory-access pattern as the
//!   paper's (LB, B, demand) constraint vectors;
//! * [`mutants`] — enumeration of NOP-padded program variants and the
//!   stage vectors they can reach;
//! * [`placement`] — pass-optimal access placement against a fixed
//!   grant (the inverse of enumeration, used at synthesis time);
//! * [`cache`] — memoization of synthesis artifacts keyed by program
//!   digest × allocation shape;
//! * [`pool`] — per-stage block pools with inelastic pinning and the
//!   fungible-memory metric;
//! * [`fairness`] — progressive filling (approximate max-min over
//!   indivisible blocks) and Jain's index;
//! * [`schemes`] — worst-fit / best-fit / first-fit / realloc-min
//!   candidate costs;
//! * [`plan`] — allocation outcomes and reallocation diffs;
//! * [`search`] — the systematic feasibility search tying it together.

pub mod cache;
pub mod constraints;
pub mod fairness;
pub mod mutants;
pub mod netvrm;
pub mod placement;
pub mod plan;
pub mod pool;
pub mod schemes;
pub mod search;

pub use cache::{program_digest, shape_words, CacheKey, MutantCache, DEFAULT_CACHE_CAPACITY};
pub use constraints::AccessPattern;
pub use fairness::{jain_index, progressive_filling};
pub use mutants::{Mutant, MutantPolicy, MutantRef, MutantSpace};
pub use netvrm::NetVrmAllocator;
pub use placement::place;
pub use plan::{AllocOutcome, Reallocation, StagePlacement};
pub use pool::StagePool;
pub use schemes::Scheme;
pub use search::{Allocator, AllocatorConfig, FidAllocStats};
