//! The observability *harness*: turns the simulation's deterministic
//! capture layer ([`btgs_piconet::EngineTrace`],
//! [`btgs_piconet::TelemetryReport`]) into artifacts a human can load.
//!
//! [`perfetto_trace_json`] renders a merged engine trace as Chrome /
//! Perfetto trace-event JSON (`{"traceEvents": [...]}`): track 0 is the
//! coordinator (phase slices and relay injections), track *p + 1* is
//! piconet *p* (island-claim slices, relay stagings and, with
//! [`ObsConfig::fine_events`](btgs_piconet::ObsConfig), per-event
//! instants). Timestamps are *sim-time* microseconds, so the exported
//! bytes are as deterministic as the trace itself. Per-event wall-clock
//! cost lives in the repository benchmark (`perfbench`), whose
//! calibrated per-island meter rides the same
//! [`EventMeter`](btgs_piconet::EventMeter) hook.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use btgs_piconet::{EngineTrace, TraceRecord, TraceRecordKind, EVENT_KIND_NAMES};
use std::fmt::Write as _;

/// Renders a merged [`EngineTrace`] as Chrome/Perfetto trace-event JSON.
///
/// `piconets` names the island tracks up front (`tid` metadata), so a
/// trace with quiet islands still shows every track. Timestamps (`ts`)
/// and durations (`dur`) are sim-time microseconds — integer division
/// of the record's nanoseconds, with spans clamped to at least 1 µs so
/// sub-microsecond slices stay visible.
pub fn perfetto_trace_json(trace: &EngineTrace, piconets: usize) -> String {
    let mut out = String::with_capacity(128 + 160 * trace.records.len());
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: &str, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(s);
    };

    let mut meta = |tid: usize, name: &str, out: &mut String| {
        emit(
            &format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
            out,
        );
    };
    meta(0, "coordinator", &mut out);
    for p in 0..piconets {
        meta(p + 1, &format!("island {p}"), &mut out);
    }

    for r in &trace.records {
        emit(&render_record(r), &mut out);
    }
    out.push_str("\n]}\n");
    out
}

fn render_record(r: &TraceRecord) -> String {
    let ts = r.start_ns / 1_000;
    let mut s = String::with_capacity(160);
    match r.kind {
        TraceRecordKind::Phase | TraceRecordKind::IslandRun => {
            let dur = ((r.end_ns - r.start_ns) / 1_000).max(1);
            let _ = write!(
                s,
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{ts},\"dur\":{dur},\
                 \"name\":\"{}\",\"args\":{{{}}}}}",
                r.track,
                r.kind.name(),
                record_args(r),
            );
        }
        _ => {
            let name = if r.kind == TraceRecordKind::Event {
                EVENT_KIND_NAMES
                    .get(r.arg0 as usize)
                    .copied()
                    .unwrap_or("event")
            } else {
                r.kind.name()
            };
            let _ = write!(
                s,
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{ts},\"s\":\"t\",\
                 \"name\":\"{name}\",\"args\":{{{}}}}}",
                r.track,
                record_args(r),
            );
        }
    }
    s
}

/// The `args` object body for one record, with kind-specific key names
/// (see the [`TraceRecordKind`] per-variant docs).
fn record_args(r: &TraceRecord) -> String {
    match r.kind {
        TraceRecordKind::Phase => {
            format!("\"islands_run\":{},\"relay_pool\":{}", r.arg0, r.arg1)
        }
        TraceRecordKind::IslandRun => {
            format!("\"events\":{},\"wheel_live\":{}", r.arg0, r.arg1)
        }
        TraceRecordKind::RelayStage | TraceRecordKind::RelayInject => {
            format!("\"target\":{},\"seq\":{}", r.arg0, r.arg1)
        }
        TraceRecordKind::Event => format!("\"kind\":{},\"arg\":{}", r.arg0, r.arg1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btgs_piconet::EngineTrace;

    fn record(
        start_ns: u64,
        end_ns: u64,
        seq: u64,
        track: u16,
        kind: TraceRecordKind,
        arg0: u64,
        arg1: u64,
    ) -> TraceRecord {
        TraceRecord {
            start_ns,
            end_ns,
            seq,
            track,
            kind,
            arg0,
            arg1,
        }
    }

    #[test]
    fn perfetto_export_names_every_track_and_clamps_spans() {
        let trace = EngineTrace {
            records: vec![
                record(0, 500, 0, 0, TraceRecordKind::Phase, 2, 0),
                record(0, 20_000, 0, 1, TraceRecordKind::IslandRun, 7, 3),
                record(1_000, 1_000, 1, 1, TraceRecordKind::RelayStage, 1, 42),
                record(20_000, 20_000, 1, 0, TraceRecordKind::RelayInject, 1, 42),
                record(3_000, 3_000, 2, 2, TraceRecordKind::Event, 0, 5),
            ],
            dropped: 0,
        };
        let json = perfetto_trace_json(&trace, 2);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\":\"coordinator\""));
        assert!(json.contains("\"name\":\"island 0\""));
        assert!(json.contains("\"name\":\"island 1\""));
        // The 500 ns phase span clamps to a 1 µs slice.
        assert!(json.contains("\"ts\":0,\"dur\":1,\"name\":\"phase\""));
        assert!(json.contains("\"ts\":0,\"dur\":20,\"name\":\"island_run\""));
        // Fine-grained events are named by their kind tag.
        assert!(json.contains("\"name\":\"arrival\""));
        assert!(json.contains("\"target\":1,\"seq\":42"));
    }
}
