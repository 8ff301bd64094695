//! The shared data-plane runtime (Section 3).
//!
//! This is the Rust analogue of the paper's ~10K-line P4 program: a
//! single pre-installed interpreter that every active packet programs at
//! runtime. It parses active headers, enforces per-FID memory
//! protection, executes one instruction per logical stage (recirculating
//! long programs), and hands forwarding verdicts to the traffic manager.
//!
//! * [`protect`] — the per-(FID, stage) protection/translation tables
//!   the controller installs at allocation time;
//! * [`interp`] — the per-instruction semantics over the PHV and the
//!   stage's register ALU;
//! * [`exec`] — the pass/recirculation driver and packet rewriting;
//! * [`decode`] — table-driven program decode into the fixed-size
//!   scratch behind the zero-alloc hot path;
//! * [`reference`] — the allocating decode-into-a-`Vec` path kept for
//!   differential testing and speedup measurement;
//! * [`plane`] — the [`DataPlane`] trait: the control-plane hooks the
//!   controller drives, so a single runtime and the worker pool are
//!   interchangeable behind it;
//! * [`parallel`] — the shard-by-FID batched worker pool
//!   ([`ShardedExecutor`]).

pub mod decode;
pub mod exec;
pub mod interp;
pub mod parallel;
pub mod plane;
pub mod protect;
pub mod recirc;
pub mod reference;

/// Former module name, kept for the benchmark's imports.
pub use decode as decode_cache;
pub use decode::{DecodeStats, MAX_INSTRS};
pub use exec::{
    FidPacketStats, FrameBatch, FrameJob, OutputAction, RuntimeStats, SwitchOutput, SwitchRuntime,
    TaggedOutput,
};
pub use parallel::{ShardedExecutor, WorkerStats, DEFAULT_BATCH_FRAMES};
pub use plane::DataPlane;
pub use protect::{ProtEntry, ProtSlot, ProtectionTables};
pub use recirc::RecircLimiter;
