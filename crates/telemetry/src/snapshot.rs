//! The exportable telemetry snapshot and its renderers.
//!
//! A [`TelemetrySnapshot`] is the whole observable state of a switch at
//! one instant: every registered metric, the per-FID accounting rows
//! contributed by the runtime and the allocator, and the retained event
//! journal. Two renderers are built in — a hand-rolled JSON encoder
//! (the workspace vendors no serde) and a Prometheus text-exposition
//! writer — so the same snapshot feeds both machine post-processing and
//! scrape-style dashboards.

use crate::journal::{
    DropLayer, EventKind, FaultKind, JournalEvent, MigrationPhase, VerifyRejectReason,
};
use crate::registry::{MetricSample, MetricValue};

/// One FID's accounting row: the union of what the runtime (packet
/// counters), the allocator (admission accounting, occupancy) and the
/// controller (reallocation counts) know about a service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FidRow {
    /// The service FID.
    pub fid: u16,
    /// Active packets interpreted for this FID.
    pub interpreted: u64,
    /// Recirculation passes beyond the first.
    pub recirculations: u64,
    /// Memory accesses denied by the protection tables.
    pub denials: u64,
    /// Malformed frames attributed to this FID.
    pub malformed: u64,
    /// Allocation requests that reached the allocator.
    pub arrivals: u64,
    /// Requests granted memory.
    pub admitted: u64,
    /// Requests denied memory.
    pub rejected: u64,
    /// Times this FID was repacked as a reallocation victim.
    pub reallocations: u64,
    /// Programs that passed static verification at admission.
    pub verify_accepted: u64,
    /// Programs the static verifier rejected (grant rolled back).
    pub verify_rejected: u64,
    /// Stages currently occupied.
    pub stages: u32,
    /// Memory blocks currently occupied.
    pub blocks: u32,
}

/// A point-in-time export of a switch's whole observable state.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Virtual capture time, ns.
    pub at_ns: u64,
    /// Every registered metric, sorted by name.
    pub metrics: Vec<MetricSample>,
    /// Per-FID accounting rows, sorted by FID.
    pub fids: Vec<FidRow>,
    /// The retained event journal, oldest first.
    pub events: Vec<JournalEvent>,
}

impl TelemetrySnapshot {
    /// The counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find(|m| m.name == name).and_then(|m| {
            if let MetricValue::Counter(v) = m.value {
                Some(v)
            } else {
                None
            }
        })
    }

    /// The gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.metrics.iter().find(|m| m.name == name).and_then(|m| {
            if let MetricValue::Gauge(v) = m.value {
                Some(v)
            } else {
                None
            }
        })
    }

    /// The histogram summary named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<crate::metrics::HistogramSummary> {
        self.metrics.iter().find(|m| m.name == name).and_then(|m| {
            if let MetricValue::Histogram(h) = m.value {
                Some(h)
            } else {
                None
            }
        })
    }

    /// The accounting row for `fid`, if present.
    pub fn fid(&self, fid: u16) -> Option<&FidRow> {
        self.fids.iter().find(|r| r.fid == fid)
    }

    /// Does the journal retain at least one event matching `pred`?
    pub fn has_event(&self, pred: impl Fn(&EventKind) -> bool) -> bool {
        self.events.iter().any(|e| pred(&e.kind))
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"at_ns\": {},\n", self.at_ns));
        out.push_str("  \"metrics\": {\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("    {}: {}{}\n", json_str(&m.name), v, comma));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("    {}: {}{}\n", json_str(&m.name), v, comma));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                         \"p50\": {}, \"p90\": {}, \"p99\": {}}}{}\n",
                        json_str(&m.name),
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.p50,
                        h.p90,
                        h.p99,
                        comma
                    ));
                }
            }
        }
        out.push_str("  },\n");
        out.push_str("  \"fids\": [\n");
        for (i, r) in self.fids.iter().enumerate() {
            let comma = if i + 1 < self.fids.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"fid\": {}, \"interpreted\": {}, \"recirculations\": {}, \
                 \"denials\": {}, \"malformed\": {}, \"arrivals\": {}, \"admitted\": {}, \
                 \"rejected\": {}, \"reallocations\": {}, \"verify_accepted\": {}, \
                 \"verify_rejected\": {}, \"stages\": {}, \"blocks\": {}}}{}\n",
                r.fid,
                r.interpreted,
                r.recirculations,
                r.denials,
                r.malformed,
                r.arrivals,
                r.admitted,
                r.rejected,
                r.reallocations,
                r.verify_accepted,
                r.verify_rejected,
                r.stages,
                r.blocks,
                comma
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let comma = if i + 1 < self.events.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"seq\": {}, \"at_ns\": {}, {}}}{}\n",
                e.seq,
                e.at_ns,
                event_fields_json(&e.kind),
                comma
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Render in the Prometheus text exposition format. Metric names
    /// are prefixed `activermt_` with dots mapped to underscores;
    /// histograms render as summaries with `quantile` labels; per-FID
    /// rows become labelled series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for m in &self.metrics {
            let name = prom_name(&m.name);
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    out.push_str(&format!("{name}{{quantile=\"0.5\"}} {}\n", h.p50));
                    out.push_str(&format!("{name}{{quantile=\"0.9\"}} {}\n", h.p90));
                    out.push_str(&format!("{name}{{quantile=\"0.99\"}} {}\n", h.p99));
                    out.push_str(&format!("{name}_sum {}\n", h.sum));
                    out.push_str(&format!("{name}_count {}\n", h.count));
                }
            }
        }
        if !self.fids.is_empty() {
            for (field, get) in FID_FIELDS {
                let name = format!("activermt_fid_{field}");
                out.push_str(&format!("# TYPE {name} counter\n"));
                for r in &self.fids {
                    out.push_str(&format!("{name}{{fid=\"{}\"}} {}\n", r.fid, get(r)));
                }
            }
        }
        out
    }
}

type FidField = (&'static str, fn(&FidRow) -> u64);

const FID_FIELDS: &[FidField] = &[
    ("interpreted", |r| r.interpreted),
    ("recirculations", |r| r.recirculations),
    ("denials", |r| r.denials),
    ("malformed", |r| r.malformed),
    ("arrivals", |r| r.arrivals),
    ("admitted", |r| r.admitted),
    ("rejected", |r| r.rejected),
    ("reallocations", |r| r.reallocations),
    ("verify_accepted", |r| r.verify_accepted),
    ("verify_rejected", |r| r.verify_rejected),
    ("stages", |r| u64::from(r.stages)),
    ("blocks", |r| u64::from(r.blocks)),
];

/// Quote and escape a JSON string (metric names are ASCII identifiers,
/// but escape defensively).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prometheus-legal metric name.
fn prom_name(dotted: &str) -> String {
    let mut out = String::with_capacity(dotted.len() + 10);
    out.push_str("activermt_");
    for c in dotted.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fault_kind_str(f: FaultKind) -> &'static str {
    match f {
        FaultKind::Loss => "loss",
        FaultKind::Corruption => "corruption",
        FaultKind::Truncation => "truncation",
        FaultKind::Duplication => "duplication",
        FaultKind::Stall => "stall",
        FaultKind::Crash => "crash",
    }
}

fn repair_kind_str(r: crate::journal::RepairKind) -> &'static str {
    use crate::journal::RepairKind;
    match r {
        RepairKind::ReinstallEntry => "reinstall_entry",
        RepairKind::ScrubEntry => "scrub_entry",
        RepairKind::Requiesce => "requiesce",
        RepairKind::ReactivateStray => "reactivate_stray",
        RepairKind::ResendSignal => "resend_signal",
    }
}

fn drop_layer_str(l: DropLayer) -> &'static str {
    match l {
        DropLayer::Ethernet => "ethernet",
        DropLayer::ActiveHeader => "active_header",
        DropLayer::AllocRequest => "alloc_request",
        DropLayer::Control => "control",
        DropLayer::Program => "program",
        DropLayer::Runt => "runt",
    }
}

/// The `"type": ..., fields...` portion of one journal event's JSON.
fn verify_reason_str(r: VerifyRejectReason) -> &'static str {
    match r {
        VerifyRejectReason::OutOfBounds => "out_of_bounds",
        VerifyRejectReason::UnguardedHash => "unguarded_hash",
        VerifyRejectReason::MissingRegion => "missing_region",
        VerifyRejectReason::RecircCap => "recirc_cap",
        VerifyRejectReason::Structure => "structure",
    }
}

fn event_fields_json(kind: &EventKind) -> String {
    match kind {
        EventKind::Admission { fid, accepted } => {
            format!("\"type\": \"admission\", \"fid\": {fid}, \"accepted\": {accepted}")
        }
        EventKind::VerifyRejected { fid, reason } => {
            format!(
                "\"type\": \"verify_rejected\", \"fid\": {fid}, \"reason\": \"{}\"",
                verify_reason_str(*reason)
            )
        }
        EventKind::Placement {
            fid,
            stages,
            blocks,
        } => {
            format!("\"type\": \"placement\", \"fid\": {fid}, \"stages\": {stages}, \"blocks\": {blocks}")
        }
        EventKind::ReallocationStart { fid, victims } => {
            format!("\"type\": \"reallocation_start\", \"fid\": {fid}, \"victims\": {victims}")
        }
        EventKind::SnapshotComplete { fid } => {
            format!("\"type\": \"snapshot_complete\", \"fid\": {fid}")
        }
        EventKind::Reactivation { fid } => {
            format!("\"type\": \"reactivation\", \"fid\": {fid}")
        }
        EventKind::Deallocation { fid } => {
            format!("\"type\": \"deallocation\", \"fid\": {fid}")
        }
        EventKind::FaultInjected { fault } => {
            format!(
                "\"type\": \"fault_injected\", \"fault\": \"{}\"",
                fault_kind_str(*fault)
            )
        }
        EventKind::MalformedDrop { layer } => {
            format!(
                "\"type\": \"malformed_drop\", \"layer\": \"{}\"",
                drop_layer_str(*layer)
            )
        }
        EventKind::VerifySkipped { fid } => {
            format!("\"type\": \"verify_skipped\", \"fid\": {fid}")
        }
        EventKind::InvariantViolated { code, fid } => {
            format!("\"type\": \"invariant_violated\", \"code\": {code}, \"fid\": {fid}")
        }
        EventKind::StaleSignalRejected { fid, got, want } => {
            format!("\"type\": \"stale_signal_rejected\", \"fid\": {fid}, \"got\": {got}, \"want\": {want}")
        }
        EventKind::Recovered { epoch, repairs } => {
            format!("\"type\": \"recovered\", \"epoch\": {epoch}, \"repairs\": {repairs}")
        }
        EventKind::RecoveryRepair { fid, repair } => {
            format!(
                "\"type\": \"recovery_repair\", \"fid\": {fid}, \"repair\": \"{}\"",
                repair_kind_str(*repair)
            )
        }
        EventKind::MigrateOut { fid, dest } => {
            format!("\"type\": \"migrate_out\", \"fid\": {fid}, \"dest\": {dest}")
        }
        EventKind::MigrateAbort { fid } => {
            format!("\"type\": \"migrate_abort\", \"fid\": {fid}")
        }
        EventKind::MigrateIn { fid } => {
            format!("\"type\": \"migrate_in\", \"fid\": {fid}")
        }
        EventKind::FabricPlacement { fid, switch } => {
            format!("\"type\": \"fabric_placement\", \"fid\": {fid}, \"switch\": {switch}")
        }
        EventKind::FabricMigration {
            fid,
            src,
            dst,
            phase,
        } => {
            format!(
                "\"type\": \"fabric_migration\", \"fid\": {fid}, \"src\": {src}, \"dst\": {dst}, \"phase\": \"{}\"",
                migration_phase_str(*phase)
            )
        }
        EventKind::FederationRecovered { resumed, aborted } => {
            format!(
                "\"type\": \"federation_recovered\", \"resumed\": {resumed}, \"aborted\": {aborted}"
            )
        }
        EventKind::StaleRouteRejected { fid, got, want } => {
            format!(
                "\"type\": \"stale_route_rejected\", \"fid\": {fid}, \"got\": {got}, \"want\": {want}"
            )
        }
    }
}

fn migration_phase_str(p: MigrationPhase) -> &'static str {
    match p {
        MigrationPhase::Quiesce => "quiesce",
        MigrationPhase::Snapshot => "snapshot",
        MigrationPhase::Admit => "admit",
        MigrationPhase::Replay => "replay",
        MigrationPhase::Drain => "drain",
        MigrationPhase::Cutover => "cutover",
        MigrationPhase::Dealloc => "dealloc",
        MigrationPhase::Abort => "abort",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSummary;
    use crate::registry::MetricSample;

    fn sample_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            at_ns: 1_000,
            metrics: vec![
                MetricSample {
                    name: "runtime.frames".into(),
                    value: MetricValue::Counter(7),
                },
                MetricSample {
                    name: "alloc.admit_ns".into(),
                    value: MetricValue::Histogram(HistogramSummary {
                        count: 2,
                        sum: 30,
                        min: 10,
                        max: 20,
                        p50: 10,
                        p90: 20,
                        p99: 20,
                    }),
                },
            ],
            fids: vec![FidRow {
                fid: 5,
                interpreted: 100,
                admitted: 1,
                arrivals: 1,
                ..FidRow::default()
            }],
            events: vec![JournalEvent {
                seq: 0,
                at_ns: 3,
                kind: EventKind::Admission {
                    fid: 5,
                    accepted: true,
                },
            }],
        }
    }

    #[test]
    fn json_contains_all_sections() {
        let j = sample_snapshot().to_json();
        assert!(j.contains("\"runtime.frames\": 7"));
        assert!(j.contains("\"p99\": 20"));
        assert!(j.contains("\"fid\": 5"));
        assert!(j.contains("\"type\": \"admission\""));
        // Balanced braces (cheap well-formedness check without a parser).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn prometheus_renders_types_and_labels() {
        let p = sample_snapshot().to_prometheus();
        assert!(p.contains("# TYPE activermt_runtime_frames counter"));
        assert!(p.contains("activermt_runtime_frames 7"));
        assert!(p.contains("activermt_alloc_admit_ns{quantile=\"0.99\"} 20"));
        assert!(p.contains("activermt_fid_interpreted{fid=\"5\"} 100"));
    }

    #[test]
    fn lookup_helpers_find_values() {
        let s = sample_snapshot();
        assert_eq!(s.counter("runtime.frames"), Some(7));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.histogram("alloc.admit_ns").unwrap().count, 2);
        assert_eq!(s.fid(5).unwrap().interpreted, 100);
        assert!(s.has_event(|k| matches!(k, EventKind::Admission { accepted: true, .. })));
    }
}
