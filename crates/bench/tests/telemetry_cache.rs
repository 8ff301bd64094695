//! Cache-hit behavior asserted through the telemetry snapshot, not
//! private fields: the packet-template cache inside the client shim
//! publishes its counters into the shared registry, so the snapshot is
//! the contract.

use activermt_apps::cache::CacheApp;
use activermt_client::shim::{Shim, ShimState};
use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::SwitchConfig;
use activermt_net::SwitchNode;
use activermt_telemetry::EventKind;

const SWITCH_MAC: [u8; 6] = [2, 0, 0, 0, 0, 0xFF];
const CLIENT_MAC: [u8; 6] = [2, 0, 0, 0, 0, 1];
const SERVER_MAC: [u8; 6] = [2, 0, 0, 0, 0, 2];
const FID: u16 = 7;

/// Frame-level event loop between one shim and the switch node, enough
/// to complete the allocation handshake.
fn bring_up(switch: &mut SwitchNode, shim: &mut Shim) -> u64 {
    let mut to_switch: Vec<Vec<u8>> = vec![shim.request_allocation(0)];
    let mut to_shim: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut now = 0u64;
    const STEP_NS: u64 = 1_000_000;
    for _ in 0..10_000 {
        now += STEP_NS;
        for frame in std::mem::take(&mut to_switch) {
            for e in switch.handle_frame(now, frame) {
                if e.dst == CLIENT_MAC {
                    to_shim.push((e.at_ns, e.frame));
                }
            }
        }
        for e in switch.poll(now) {
            if e.dst == CLIENT_MAC {
                to_shim.push((e.at_ns, e.frame));
            }
        }
        let (due, later): (Vec<_>, Vec<_>) = to_shim.drain(..).partition(|(at, _)| *at <= now);
        to_shim = later;
        for (_, frame) in due {
            shim.handle_frame(&frame);
        }
        shim.poll(now);
        to_switch.extend(shim.take_outgoing());
        if shim.state() == ShimState::Operational && to_switch.is_empty() && to_shim.is_empty() {
            break;
        }
    }
    now
}

#[test]
fn shim_template_cache_counters_via_snapshot() {
    let mut switch = SwitchNode::new(SWITCH_MAC, SwitchConfig::default(), Scheme::WorstFit);
    let mut shim = Shim::new(
        FID,
        CLIENT_MAC,
        SWITCH_MAC,
        CacheApp::service(),
        MutantPolicy::MostConstrained,
        20,
        10,
        1,
    );
    shim.bind_telemetry(switch.telemetry());

    let now = bring_up(&mut switch, &mut shim);
    assert_eq!(
        shim.state(),
        ShimState::Operational,
        "allocation handshake must complete"
    );

    // First activation builds the template (miss); repeats reuse it.
    for _ in 0..32 {
        assert!(shim.activate(SERVER_MAC, [0, 0, 0, 0], b"x").is_some());
    }
    let snap = switch.telemetry_snapshot(now);
    assert_eq!(snap.counter("shim.fid7.template_misses"), Some(1));
    assert_eq!(snap.counter("shim.fid7.template_hits"), Some(31));
    assert_eq!(snap.counter("shim.fid7.template_invalidations"), Some(0));
    assert!(
        snap.has_event(|e| matches!(
            e,
            EventKind::Admission {
                fid: FID,
                accepted: true
            }
        )),
        "the shim's admission must be journaled"
    );

    // Deallocation drops the cached template: one invalidation.
    let _dealloc_frame = shim.deallocate();
    let snap = switch.telemetry_snapshot(now);
    assert_eq!(snap.counter("shim.fid7.template_invalidations"), Some(1));
    assert_eq!(shim.template_cache_stats(), (31, 1, 1));
}
