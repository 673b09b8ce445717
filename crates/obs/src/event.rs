//! Cycle-stamped structured events and the per-component event bus.
//!
//! Each simulated component (CPU core, HHT, SRAM) owns an
//! `Option<Box<EventBus>>`; the simulation stays single-threaded and
//! lock-free, and the exporter merges the per-component streams by cycle at
//! the end of a run. With the sink disabled a component pays exactly one
//! `Option` branch per event site.

use crate::{RingBuffer, StallCause};
use serde::{Deserialize, Serialize};

/// Per-component ring-buffer eviction counters for one run (or one fabric
/// tile). Every observability sink is bounded, so a long run can overflow
/// its rings; these counters make the truncation *detectable* in the
/// exported metrics snapshot instead of silently shortening the timeline.
/// All zero when tracing is off or nothing was evicted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsDrops {
    /// Events evicted from the CPU core's bus.
    pub core_events: u64,
    /// Instruction-trace entries evicted from the core's trace ring.
    pub instr_trace: u64,
    /// Events evicted from the HHT's bus.
    pub hht_events: u64,
    /// Events evicted from the memory port's per-tile bus.
    pub mem_events: u64,
    /// Events evicted from the tile's fault-timeline bus.
    pub fault_events: u64,
}

impl ObsDrops {
    /// Total evicted records across every sink.
    pub fn total(&self) -> u64 {
        let ObsDrops { core_events, instr_trace, hht_events, mem_events, fault_events } = *self;
        core_events + instr_trace + hht_events + mem_events + fault_events
    }

    /// Fold another tile's drop counters into this one.
    pub fn add(&mut self, other: &ObsDrops) {
        let ObsDrops { core_events, instr_trace, hht_events, mem_events, fault_events } = *other;
        self.core_events += core_events;
        self.instr_trace += instr_trace;
        self.hht_events += hht_events;
        self.mem_events += mem_events;
        self.fault_events += fault_events;
    }
}

/// One span of simulated cycles the event-driven scheduler fast-forwarded
/// over (half-open: `[start, end)`). Collected on a dedicated scheduler
/// sink — never on the per-tile event buses, whose streams must stay
/// bit-identical between the per-cycle and cycle-skipping schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipSpan {
    /// First skipped cycle.
    pub start: u64,
    /// First cycle after the span (the scheduler's landing cycle).
    pub end: u64,
}

impl SkipSpan {
    /// Number of cycles the span covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True for a degenerate empty span (never produced by the scheduler).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Timeline track an event belongs to — one per hardware unit, rendered as
/// one row ("thread") in the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// CPU pipeline (stall slices).
    CpuPipe,
    /// HHT back-end engine (busy slices, output stalls).
    HhtBackend,
    /// SRAM port (arbitration grants/conflicts).
    SramPort,
    /// CPU-side primary element buffer occupancy.
    BufferPrimary,
    /// CPU-side secondary element buffer occupancy.
    BufferSecondary,
    /// CPU-side counts (chunk header) buffer occupancy.
    BufferCounts,
    /// Fault-injection timeline: injected faults, detections (parity,
    /// decode, timeout) and recovery actions (retries, fallback).
    Fault,
    /// Memory-system timeline of the DRAM-class backend: row-buffer
    /// transitions ([`EventKind::RowOpen`]) and in-flight transaction
    /// occupancy samples ([`EventKind::BufferLevel`]). Silent on flat
    /// SRAM-class backends, so their event streams are unchanged.
    MemQueue,
}

impl Track {
    pub const ALL: [Track; 8] = [
        Track::CpuPipe,
        Track::HhtBackend,
        Track::SramPort,
        Track::BufferPrimary,
        Track::BufferSecondary,
        Track::BufferCounts,
        Track::Fault,
        Track::MemQueue,
    ];

    /// Human-readable track name (Chrome trace thread name).
    pub fn name(self) -> &'static str {
        match self {
            Track::CpuPipe => "CPU pipe",
            Track::HhtBackend => "HHT BE",
            Track::SramPort => "SRAM port",
            Track::BufferPrimary => "buf primary",
            Track::BufferSecondary => "buf secondary",
            Track::BufferCounts => "buf counts",
            Track::Fault => "faults",
            Track::MemQueue => "mem queue",
        }
    }

    /// Stable thread id for the Chrome trace (1-based, display order).
    /// 8 is reserved for the host-side scheduler lane (`chrome::SCHED_TID`),
    /// which lives outside the [`Track`] set.
    pub fn tid(self) -> u32 {
        match self {
            Track::CpuPipe => 1,
            Track::HhtBackend => 2,
            Track::SramPort => 3,
            Track::BufferPrimary => 4,
            Track::BufferSecondary => 5,
            Track::BufferCounts => 6,
            Track::Fault => 7,
            Track::MemQueue => 10,
        }
    }
}

/// What happened on a track at a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A stall interval opened (closed by the matching `StallEnd`).
    StallBegin(StallCause),
    /// The stall interval for `StallCause` closed.
    StallEnd(StallCause),
    /// A named busy interval opened (e.g. a back-end stage).
    SliceBegin(&'static str),
    /// The busy interval `&str` closed.
    SliceEnd(&'static str),
    /// Port arbitration granted to `requester` this cycle.
    ArbGrant { requester: &'static str },
    /// Port arbitration conflict: `loser` retried while the port was held.
    ArbConflict { loser: &'static str },
    /// Buffer occupancy sample (counter track).
    BufferLevel { level: u32 },
    /// A fault-plan event was injected into the machine (`what` is the
    /// fault-kind label, e.g. `"drop_response"`).
    FaultInject { what: &'static str },
    /// A fault was detected (`"buffer_parity"`, `"mmr_decode"`,
    /// `"hht_timeout"`, `"hht_failed"`).
    FaultDetect { what: &'static str },
    /// A recovery action was taken (`"hht_retry"`, `"software_fallback"`).
    Recovery { what: &'static str },
    /// The fabric's fault-domain policy quarantined this tile after
    /// `retries` failed attempts (0 when a fatal fault skipped the retry
    /// ladder entirely).
    Quarantine { retries: u32 },
    /// This tile's unfinished row shard (`rows` rows) was failed over to
    /// the surviving tiles.
    Failover { rows: u32 },
    /// The DRAM backend opened a new row on `bank` (the previous open row,
    /// if any, was precharged): a row-buffer miss at this cycle's grant.
    RowOpen { bank: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub cycle: u64,
    pub track: Track,
    pub kind: EventKind,
}

/// Bounded sink for [`Event`]s, kept in [`merge_events`] order: by cycle,
/// then track, then emission. Once full it evicts the earliest, so the
/// retained window is the latest `capacity` events whatever order they
/// were emitted in — a scheduler that replays a parked span's events in
/// bulk keeps the same window as one that emits them cycle by cycle.
#[derive(Debug, Clone)]
pub struct EventBus {
    events: RingBuffer<Event>,
}

impl EventBus {
    pub fn new(capacity: usize) -> Self {
        EventBus { events: RingBuffer::new(capacity) }
    }

    #[inline]
    pub fn emit(&mut self, cycle: u64, track: Track, kind: EventKind) {
        self.events.push_ordered_by(Event { cycle, track, kind }, |e| (e.cycle, e.track));
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.events.dropped()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Move the retained window out of the bus.
    pub fn take_events(&mut self) -> Vec<Event> {
        let out: Vec<Event> = self.events.iter().copied().collect();
        self.events.clear();
        out
    }
}

/// Merge per-component event streams into one cycle-ordered timeline.
///
/// Each input stream must itself be cycle-ordered (true for any stream a
/// stepped component emitted). Ties are broken by track, then input order,
/// so the merge is fully deterministic.
pub fn merge_events(streams: Vec<Vec<Event>>) -> Vec<Event> {
    let mut all: Vec<Event> = streams.into_iter().flatten().collect();
    all.sort_by_key(|e| (e.cycle, e.track));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_cycle_ordered_and_deterministic() {
        let a = vec![
            Event {
                cycle: 2,
                track: Track::CpuPipe,
                kind: EventKind::StallEnd(StallCause::LoadLatency),
            },
            Event {
                cycle: 5,
                track: Track::CpuPipe,
                kind: EventKind::StallBegin(StallCause::LoadLatency),
            },
        ];
        let b = vec![
            Event {
                cycle: 2,
                track: Track::SramPort,
                kind: EventKind::ArbGrant { requester: "cpu" },
            },
            Event { cycle: 3, track: Track::HhtBackend, kind: EventKind::SliceBegin("gather") },
        ];
        let merged = merge_events(vec![a.clone(), b.clone()]);
        let cycles: Vec<u64> = merged.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [2, 2, 3, 5]);
        assert_eq!(merged[0].track, Track::CpuPipe);
        assert_eq!(merged, merge_events(vec![a, b]));
    }

    #[test]
    fn bus_is_bounded() {
        let mut bus = EventBus::new(4);
        for cycle in 0..10 {
            bus.emit(cycle, Track::SramPort, EventKind::ArbGrant { requester: "hht" });
        }
        assert_eq!(bus.len(), 4);
        assert_eq!(bus.dropped(), 6);
        assert_eq!(bus.iter().next().unwrap().cycle, 6);
    }
}
