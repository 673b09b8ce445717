//! Chrome trace-event / Perfetto JSON exporter.
//!
//! Converts a merged [`Event`] stream into the Trace Event Format
//! (`chrome://tracing`, <https://ui.perfetto.dev>): one "thread" per
//! [`Track`], duration slices (`B`/`E`) for stalls and stages, instant
//! events (`i`) for arbitration, and counter events (`C`) for buffer
//! occupancy. Timestamps are simulated cycles. Output is rendered through
//! the deterministic vendored serde_json, so identical runs export
//! byte-identical JSON (relied on by the golden-file test).
//!
//! Two entry points: [`chrome_trace_json`] renders one event stream as a
//! single process (pid 0, the single-tile system), and
//! [`chrome_trace_json_tiles`] renders one stream *per fabric tile* as one
//! process per tile ("tile N" lanes side by side in the viewer), plus a
//! scheduler lane per tile when it is given cycle-skip spans.

use crate::{Event, EventKind, SkipSpan, Track};
use serde::{Number, Value};

/// Thread id of the per-tile scheduler lane. The lane is emitted only when
/// [`chrome_trace_json_tiles`] gets spans: cycle-skip spans exist only
/// under the event-driven scheduler, so they live outside the [`Track`]
/// set whose streams are compared across scheduler modes.
const SCHED_TID: u32 = 8;

fn base_event(name: &str, ph: &str, pid: u64, tid: u32) -> Vec<(String, Value)> {
    vec![
        ("name".into(), Value::Str(name.into())),
        ("ph".into(), Value::Str(ph.into())),
        ("pid".into(), Value::Num(Number::U(pid))),
        ("tid".into(), Value::Num(Number::U(tid as u64))),
    ]
}

fn with_ts(mut fields: Vec<(String, Value)>, cycle: u64) -> Vec<(String, Value)> {
    fields.push(("ts".into(), Value::Num(Number::U(cycle))));
    fields
}

/// Append one process worth of trace records: naming metadata (in fixed
/// track order), the event stream, and auto-closes for slices left open at
/// the final cycle.
fn emit_process(trace_events: &mut Vec<Value>, pid: u64, process_name: &str, events: &[Event]) {
    let mut process_meta = base_event("process_name", "M", pid, 0);
    process_meta
        .push(("args".into(), Value::Map(vec![("name".into(), Value::Str(process_name.into()))])));
    trace_events.push(Value::Map(process_meta));
    for track in Track::ALL {
        let mut meta = base_event("thread_name", "M", pid, track.tid());
        meta.push((
            "args".into(),
            Value::Map(vec![("name".into(), Value::Str(track.name().into()))]),
        ));
        trace_events.push(Value::Map(meta));
    }

    // Track open B slices per (tid, name) so the exported trace is always
    // balanced even if the run ended mid-stall.
    let mut open: Vec<(u32, String)> = Vec::new();
    let mut last_cycle = 0u64;

    for event in events {
        last_cycle = last_cycle.max(event.cycle);
        let tid = event.track.tid();
        match event.kind {
            EventKind::StallBegin(cause) => {
                let name = format!("stall:{}", cause.label());
                trace_events.push(slice(&name, "B", pid, tid, event.cycle, "stall"));
                open.push((tid, name));
            }
            EventKind::StallEnd(cause) => {
                let name = format!("stall:{}", cause.label());
                open.retain(|(t, n)| !(*t == tid && *n == name));
                trace_events.push(slice(&name, "E", pid, tid, event.cycle, "stall"));
            }
            EventKind::SliceBegin(name) => {
                trace_events.push(slice(name, "B", pid, tid, event.cycle, "stage"));
                open.push((tid, name.to_string()));
            }
            EventKind::SliceEnd(name) => {
                open.retain(|(t, n)| !(*t == tid && n == name));
                trace_events.push(slice(name, "E", pid, tid, event.cycle, "stage"));
            }
            EventKind::ArbGrant { requester } => {
                let mut fields =
                    with_ts(base_event(&format!("grant:{requester}"), "i", pid, tid), event.cycle);
                fields.push(("cat".into(), Value::Str("arb".into())));
                fields.push(("s".into(), Value::Str("t".into())));
                trace_events.push(Value::Map(fields));
            }
            EventKind::ArbConflict { loser } => {
                let mut fields =
                    with_ts(base_event(&format!("conflict:{loser}"), "i", pid, tid), event.cycle);
                fields.push(("cat".into(), Value::Str("arb".into())));
                fields.push(("s".into(), Value::Str("t".into())));
                trace_events.push(Value::Map(fields));
            }
            EventKind::FaultInject { what } => {
                trace_events.push(instant(
                    &format!("fault:{what}"),
                    pid,
                    tid,
                    event.cycle,
                    "fault",
                ));
            }
            EventKind::FaultDetect { what } => {
                trace_events.push(instant(
                    &format!("detect:{what}"),
                    pid,
                    tid,
                    event.cycle,
                    "fault",
                ));
            }
            EventKind::Recovery { what } => {
                trace_events.push(instant(
                    &format!("recover:{what}"),
                    pid,
                    tid,
                    event.cycle,
                    "fault",
                ));
            }
            EventKind::Quarantine { retries } => {
                trace_events.push(instant(
                    &format!("quarantine:{retries}retries"),
                    pid,
                    tid,
                    event.cycle,
                    "fault",
                ));
            }
            EventKind::Failover { rows } => {
                trace_events.push(instant(
                    &format!("failover:{rows}rows"),
                    pid,
                    tid,
                    event.cycle,
                    "fault",
                ));
            }
            EventKind::RowOpen { bank } => {
                trace_events.push(instant(
                    &format!("row_open:bank{bank}"),
                    pid,
                    tid,
                    event.cycle,
                    "mem",
                ));
            }
            EventKind::BufferLevel { level } => {
                let mut fields =
                    with_ts(base_event(event.track.name(), "C", pid, tid), event.cycle);
                fields.push((
                    "args".into(),
                    Value::Map(vec![("level".into(), Value::Num(Number::U(level as u64)))]),
                ));
                trace_events.push(Value::Map(fields));
            }
        }
    }

    // Close any dangling slices at the final cycle.
    for (tid, name) in open {
        trace_events.push(slice(&name, "E", pid, tid, last_cycle, "stall"));
    }
}

/// Append one process's scheduler lane: a "cycle-skip" thread carrying one
/// `B`/`E` slice per fast-forwarded span plus a counter track stepping to
/// the span length at its start and back to zero at its end.
fn emit_sched_lane(trace_events: &mut Vec<Value>, pid: u64, spans: &[SkipSpan]) {
    let mut meta = base_event("thread_name", "M", pid, SCHED_TID);
    meta.push(("args".into(), Value::Map(vec![("name".into(), Value::Str("cycle-skip".into()))])));
    trace_events.push(Value::Map(meta));
    for s in spans {
        trace_events.push(slice("skip", "B", pid, SCHED_TID, s.start, "sched"));
        trace_events.push(counter("skipped", pid, SCHED_TID, s.start, s.len()));
        trace_events.push(counter("skipped", pid, SCHED_TID, s.end, 0));
        trace_events.push(slice("skip", "E", pid, SCHED_TID, s.end, "sched"));
    }
}

fn counter(name: &str, pid: u64, tid: u32, cycle: u64, value: u64) -> Value {
    let mut fields = with_ts(base_event(name, "C", pid, tid), cycle);
    fields.push(("args".into(), Value::Map(vec![("value".into(), Value::Num(Number::U(value)))])));
    Value::Map(fields)
}

/// Render the records as a compact JSON string, byte-stable per input
/// (the vendored serde_json keeps map order).
fn render(trace_events: Vec<Value>) -> String {
    let trace = Value::Map(vec![
        ("displayTimeUnit".into(), Value::Str("ns".into())),
        (
            "otherData".into(),
            Value::Map(vec![("timestampUnit".into(), Value::Str("cycle".into()))]),
        ),
        ("traceEvents".into(), Value::Seq(trace_events)),
    ]);
    serde_json::to_string(&trace).expect("trace values are always finite")
}

fn slice(name: &str, ph: &str, pid: u64, tid: u32, cycle: u64, cat: &str) -> Value {
    let mut fields = with_ts(base_event(name, ph, pid, tid), cycle);
    fields.push(("cat".into(), Value::Str(cat.into())));
    Value::Map(fields)
}

fn instant(name: &str, pid: u64, tid: u32, cycle: u64, cat: &str) -> Value {
    let mut fields = with_ts(base_event(name, "i", pid, tid), cycle);
    fields.push(("cat".into(), Value::Str(cat.into())));
    fields.push(("s".into(), Value::Str("t".into())));
    Value::Map(fields)
}

/// Render one event stream as a single process (pid 0) in compact JSON
/// (byte-stable per event stream).
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut trace_events: Vec<Value> = Vec::new();
    emit_process(&mut trace_events, 0, "hht simulation", events);
    render(trace_events)
}

/// Render a multi-tile trace in compact JSON: one process per tile (`pid` =
/// tile index, named `tile N`), each with the full per-[`Track`] thread
/// set, so an N-tile fabric run renders as N side-by-side lanes. With
/// `spans` non-empty every tile also gets a scheduler lane carrying the
/// fabric's cycle-skip spans (the fabric skips all tiles together);
/// byte-stable per event streams + span list.
pub fn chrome_trace_json_tiles(tiles: &[Vec<Event>], spans: &[SkipSpan]) -> String {
    let mut trace_events: Vec<Value> = Vec::new();
    for (t, events) in tiles.iter().enumerate() {
        emit_process(&mut trace_events, t as u64, &format!("tile {t}"), events);
        if !spans.is_empty() {
            emit_sched_lane(&mut trace_events, t as u64, spans);
        }
    }
    render(trace_events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StallCause;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                cycle: 1,
                track: Track::CpuPipe,
                kind: EventKind::StallBegin(StallCause::HhtWindowEmpty),
            },
            Event {
                cycle: 4,
                track: Track::CpuPipe,
                kind: EventKind::StallEnd(StallCause::HhtWindowEmpty),
            },
            Event {
                cycle: 2,
                track: Track::SramPort,
                kind: EventKind::ArbGrant { requester: "hht" },
            },
            Event {
                cycle: 3,
                track: Track::BufferPrimary,
                kind: EventKind::BufferLevel { level: 5 },
            },
            Event { cycle: 5, track: Track::HhtBackend, kind: EventKind::SliceBegin("gather") },
            Event {
                cycle: 6,
                track: Track::Fault,
                kind: EventKind::FaultInject { what: "drop_response" },
            },
        ]
    }

    #[test]
    fn export_is_byte_stable() {
        assert_eq!(chrome_trace_json(&sample_events()), chrome_trace_json(&sample_events()));
    }

    #[test]
    fn export_names_all_tracks_and_closes_dangling_slices() {
        let json = chrome_trace_json(&sample_events());
        for track in Track::ALL {
            assert!(json.contains(track.name()), "missing track {:?}", track);
        }
        // The dangling "gather" B-slice is closed at the last cycle.
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends);
        assert!(json.contains("\"stall:hht_window_empty\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"fault:drop_response\""));
    }

    #[test]
    fn export_parses_back_as_json() {
        let json = chrome_trace_json(&sample_events());
        let v: Value = serde_json::from_str(&json).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_seq).unwrap();
        // 1 process + 8 thread metadata records + 6 events + 1 auto-close.
        assert_eq!(events.len(), 16);
    }

    #[test]
    fn tile_export_gives_each_tile_its_own_pid() {
        let tiles = vec![sample_events(), sample_events()];
        let json = chrome_trace_json_tiles(&tiles, &[]);
        assert!(json.contains("\"tile 0\""));
        assert!(json.contains("\"tile 1\""));
        assert!(json.contains("\"pid\":1"));
        let v: Value = serde_json::from_str(&json).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_seq).unwrap();
        // Two full processes worth of records.
        assert_eq!(events.len(), 32);
    }

    #[test]
    fn sched_lane_is_additive_and_balanced() {
        let tiles = vec![sample_events()];
        let spans = [SkipSpan { start: 2, end: 10 }, SkipSpan { start: 12, end: 15 }];
        let plain = chrome_trace_json_tiles(&tiles, &[]);
        assert!(!plain.contains("\"cycle-skip\""));
        let json = chrome_trace_json_tiles(&tiles, &spans);
        assert!(json.contains("\"cycle-skip\""));
        assert_eq!(json.matches("\"skipped\"").count(), 4); // 2 counter pairs
        assert_eq!(json.matches("\"ph\":\"B\"").count(), json.matches("\"ph\":\"E\"").count());
    }

    #[test]
    fn quarantine_and_failover_events_render_as_fault_instants() {
        let events = vec![
            Event { cycle: 7, track: Track::Fault, kind: EventKind::Failover { rows: 12 } },
            Event { cycle: 9, track: Track::Fault, kind: EventKind::Quarantine { retries: 2 } },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"failover:12rows\""));
        assert!(json.contains("\"quarantine:2retries\""));
    }

    #[test]
    fn mem_queue_events_render_on_their_own_track() {
        let events = vec![
            Event { cycle: 3, track: Track::MemQueue, kind: EventKind::RowOpen { bank: 2 } },
            Event { cycle: 3, track: Track::MemQueue, kind: EventKind::BufferLevel { level: 4 } },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"row_open:bank2\""));
        assert!(json.contains("\"mem queue\""));
        assert!(json.contains("\"tid\":10"));
    }

    #[test]
    fn single_tile_export_matches_single_process_export_modulo_name() {
        // The per-tile exporter with one tile differs from the flat
        // exporter only in the process name.
        let flat = chrome_trace_json(&sample_events());
        let tiled = chrome_trace_json_tiles(&[sample_events()], &[]);
        assert_eq!(tiled.replace("tile 0", "hht simulation"), flat);
    }
}
