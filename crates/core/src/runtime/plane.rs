//! The control-plane's view of a data plane.
//!
//! The controller does not care whether frames are executed by a single
//! [`SwitchRuntime`] or by the sharded worker pool in
//! [`parallel`](crate::runtime::parallel): it only installs and removes
//! protection regions and quiesces FIDs. [`DataPlane`] is exactly that
//! surface. `SwitchRuntime` implements it by delegation;
//! [`ShardedExecutor`](crate::runtime::parallel::ShardedExecutor)
//! implements it by fencing in-flight batches and broadcasting the
//! update to every shard, so no frame runs against a half-applied
//! update.

use crate::runtime::exec::SwitchRuntime;
use crate::runtime::protect::ProtectionTables;
use crate::types::Fid;
use activermt_isa::wire::RegionEntry;

/// The control-plane hooks a data plane must expose (the subset of
/// [`SwitchRuntime`]'s surface the [`Controller`](crate::Controller)
/// actually drives). Implementations that execute frames concurrently
/// must make every mutating method a *fence*: no frame observes a
/// half-applied control-plane update.
pub trait DataPlane {
    /// Install a protection/translation entry; returns
    /// `(entries_removed, entries_installed)`.
    fn install_region(&mut self, stage: usize, fid: Fid, region: RegionEntry) -> (usize, usize);

    /// Remove `fid`'s entry in `stage`; returns entries removed.
    fn remove_region(&mut self, stage: usize, fid: Fid) -> usize;

    /// Zero the registers of a region (allocation-time initialization).
    fn clear_region(&mut self, stage: usize, region: RegionEntry);

    /// Quiesce a FID during reallocation (Section 4.3).
    fn deactivate(&mut self, fid: Fid);

    /// Resume processing for a FID.
    fn reactivate(&mut self, fid: Fid);

    /// Is the FID currently quiesced?
    fn is_deactivated(&self, fid: Fid) -> bool;

    /// Every currently quiesced FID, sorted.
    fn deactivated_fids(&self) -> Vec<Fid>;

    /// Control-plane register read on behalf of `fid` (the BFRT-style
    /// extraction path of Section 4.3). Sharded planes route the read
    /// to the shard that owns `fid`'s traffic, so the value observed is
    /// the one the FID's own packets produced.
    fn reg_read_for(&self, fid: Fid, stage: usize, index: u32) -> Option<u32>;

    /// Control-plane register write on behalf of `fid`; returns whether
    /// the index exists. Sharded planes write the owning shard.
    fn reg_write_for(&mut self, fid: Fid, stage: usize, index: u32, value: u32) -> bool;

    /// The protection tables (controller bookkeeping, invariants).
    fn protection(&self) -> &ProtectionTables;
}

impl DataPlane for SwitchRuntime {
    fn install_region(&mut self, stage: usize, fid: Fid, region: RegionEntry) -> (usize, usize) {
        SwitchRuntime::install_region(self, stage, fid, region)
    }

    fn remove_region(&mut self, stage: usize, fid: Fid) -> usize {
        SwitchRuntime::remove_region(self, stage, fid)
    }

    fn clear_region(&mut self, stage: usize, region: RegionEntry) {
        SwitchRuntime::clear_region(self, stage, region);
    }

    fn deactivate(&mut self, fid: Fid) {
        SwitchRuntime::deactivate(self, fid);
    }

    fn reactivate(&mut self, fid: Fid) {
        SwitchRuntime::reactivate(self, fid);
    }

    fn is_deactivated(&self, fid: Fid) -> bool {
        SwitchRuntime::is_deactivated(self, fid)
    }

    fn deactivated_fids(&self) -> Vec<Fid> {
        SwitchRuntime::deactivated_fids(self)
    }

    fn reg_read_for(&self, _fid: Fid, stage: usize, index: u32) -> Option<u32> {
        SwitchRuntime::reg_read(self, stage, index)
    }

    fn reg_write_for(&mut self, _fid: Fid, stage: usize, index: u32, value: u32) -> bool {
        SwitchRuntime::reg_write(self, stage, index, value)
    }

    fn protection(&self) -> &ProtectionTables {
        SwitchRuntime::protection(self)
    }
}
