//! # amnt-trace
//!
//! Deterministic, cycle-domain tracing for the secure-memory engine.
//!
//! Every timestamp in this crate is a **simulated cycle** — the crate has no
//! wall clock, no entropy source, and no I/O. That is the repo's determinism
//! contract (enforced by `clippy.toml`): a traced run produces the same trace bytes on
//! every host and at every `AMNT_JOBS` worker count, and enabling tracing
//! never perturbs the simulation itself (instrumentation reads state, it
//! never advances time).
//!
//! Three recording domains live in a [`Tracer`]:
//!
//! * **Events/spans** — a bounded ring of [`TraceEvent`]s (the last
//!   `max_events` survive; older ones are counted, not kept), exportable as
//!   Chrome trace-event JSON for Perfetto (`chrome://tracing`).
//! * **Histograms/counters** — a registry of log2-bucket [`LogHistogram`]s
//!   (deterministic integer p50/p90/p99/max) and named `u64` counters.
//! * **Epoch time-series** — [`EpochRow`]s of counter deltas sampled every
//!   `epoch_cycles` simulated cycles by the component that owns the clock.
//!
//! Leaf components that have no clock of their own (the metadata cache, the
//! NVM device) embed a [`CompTrace`]: plain named counters plus fault-strike
//! records, harvested by the owner into the final [`TraceReport`].
//!
//! ## Example
//!
//! ```
//! use amnt_trace::{TraceConfig, Tracer};
//!
//! let mut tracer = Tracer::new(TraceConfig::default());
//! tracer.span(1_000, 610, "read", "op", &[("addr", 0x40)]);
//! tracer.record("read.wait", 610);
//! let report = tracer.report().expect("tracer is enabled");
//! assert_eq!(report.events.len(), 1);
//! assert_eq!(report.hist("read.wait").unwrap().max(), 610);
//! ```

#![forbid(unsafe_code)]

mod export;
mod hist;

pub use export::{chrome_document, json_str, metrics_document};
pub use hist::LogHistogram;

/// Maximum inline key/value argument pairs per event (no heap allocation on
/// the recording path; unused slots carry an empty name).
pub const MAX_EVENT_ARGS: usize = 3;

/// Maximum nesting depth of the scoped span stack
/// ([`Tracer::push_span`]/[`Tracer::pop_span`]). Frames pushed past this
/// depth are dropped (and counted) rather than grown — the stack is O(1)
/// memory no matter how deep the instrumentation recurses.
pub const MAX_SPAN_DEPTH: usize = 16;

/// Tracing knobs. All units are simulated cycles or element counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Epoch length for the time-series sampler, in simulated cycles.
    pub epoch_cycles: u64,
    /// Ring capacity: the newest `max_events` events are kept, older ones
    /// are dropped (and counted) deterministically.
    pub max_events: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            epoch_cycles: 250_000,
            max_events: 65_536,
        }
    }
}

/// One span (`dur > 0`) or instant event (`dur == 0`), timestamped in
/// simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start time in simulated cycles.
    pub ts: u64,
    /// Duration in simulated cycles; zero for instant events.
    pub dur: u64,
    /// Event name ("read", "amnt.transition", ...).
    pub name: &'static str,
    /// Category ("op", "amnt", "fault", ...).
    pub cat: &'static str,
    /// Span id, unique within one region of interest (ids restart from 1 at
    /// [`Tracer::reset`], so they are stable across resets); 0 when the
    /// event was recorded outside the tracer (absorbed strikes).
    pub id: u64,
    /// Id of the enclosing span on the stack at record time; 0 for roots.
    pub parent: u64,
    /// Inline arguments; slots with an empty name are unused.
    pub args: [(&'static str, u64); MAX_EVENT_ARGS],
}

impl TraceEvent {
    /// The used argument pairs.
    pub fn used_args(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.args.iter().copied().filter(|(k, _)| !k.is_empty())
    }
}

fn pack_args(args: &[(&'static str, u64)]) -> [(&'static str, u64); MAX_EVENT_ARGS] {
    let mut out = [("", 0u64); MAX_EVENT_ARGS];
    for (slot, pair) in out.iter_mut().zip(args.iter()) {
        *slot = *pair;
    }
    out
}

/// One open frame on the scoped span stack: everything needed to emit the
/// completed [`TraceEvent`] at pop time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SpanFrame {
    ts: u64,
    name: &'static str,
    cat: &'static str,
    args: [(&'static str, u64); MAX_EVENT_ARGS],
    id: u64,
}

/// One sampled epoch of the time-series: deltas of every registered field
/// since the previous row. Field names live once in
/// [`TraceReport::epoch_fields`]; `values` is parallel to them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRow {
    /// Epoch index (`end_cycle / epoch_cycles` at sampling time).
    pub epoch: u64,
    /// Simulated cycle the sample was taken at.
    pub end_cycle: u64,
    /// Field deltas, parallel to the registered field names.
    pub values: Vec<u64>,
}

/// A fault strike recorded by the device model: which write ordinal the
/// armed [`FaultPlan`](../amnt_nvm/struct.FaultPlan.html) fired on, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrikeRecord {
    /// Device-write ordinal the fault fired on (the crash-point coordinate).
    pub ordinal: u64,
    /// Strike kind: see [`StrikeRecord::KIND_NAMES`].
    pub kind: u8,
    /// Address of the struck write (for WPQ drops: the group's first write).
    pub addr: u64,
}

impl StrikeRecord {
    /// Human names for [`StrikeRecord::kind`], indexed by the kind code:
    /// clean power-off, torn (first half), torn (last half), WPQ-tail drop.
    pub const KIND_NAMES: [&'static str; 4] = ["power_off", "torn_first", "torn_last", "wpq_drop"];

    /// The name of this strike's kind.
    pub fn kind_name(&self) -> &'static str {
        Self::KIND_NAMES
            .get(self.kind as usize)
            .copied()
            .unwrap_or("unknown")
    }
}

/// A lightweight trace sink for clockless leaf components (caches, the NVM
/// device): named counters and fault-strike records behind one `enabled`
/// branch. The owning component harvests it into the [`Tracer`]'s report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompTrace {
    enabled: bool,
    counters: Vec<(&'static str, u64)>,
    strikes: Vec<StrikeRecord>,
}

impl CompTrace {
    /// Whether recording is on. The disabled path is this one branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (off also keeps the data already recorded).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Adds `n` to counter `name` (registered on first use).
    pub fn add(&mut self, name: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        for (k, v) in &mut self.counters {
            if *k == name {
                *v += n;
                return;
            }
        }
        self.counters.push((name, n));
    }

    /// Increments counter `name`.
    #[inline]
    pub fn bump(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (0 when unregistered).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// All counters, in first-use order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// Records a fault strike.
    pub fn strike(&mut self, ordinal: u64, kind: u8, addr: u64) {
        if !self.enabled {
            return;
        }
        self.strikes.push(StrikeRecord {
            ordinal,
            kind,
            addr,
        });
    }

    /// Fault strikes recorded so far, in strike order.
    pub fn strikes(&self) -> &[StrikeRecord] {
        &self.strikes
    }

    /// Drains the recorded strikes (counters are untouched) so the harvester
    /// can promote them to timestamped events exactly once.
    pub fn take_strikes(&mut self) -> Vec<StrikeRecord> {
        std::mem::take(&mut self.strikes)
    }

    /// Clears recorded data (keeps the enabled flag) — the region-of-interest
    /// boundary.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.strikes.clear();
    }
}

/// The central trace recorder, owned by the component that owns the
/// simulated clock (the secure-memory controller).
///
/// Disabled by default ([`Tracer::default`]); every recording method is a
/// no-op behind a single `enabled` branch, so an untraced run pays one
/// predictable branch per instrumentation site and allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tracer {
    enabled: bool,
    cfg: TraceConfig,
    /// Event ring: `events` has at most `cfg.max_events` entries; once full,
    /// `ring_head` marks the oldest entry and new events overwrite in place.
    events: Vec<TraceEvent>,
    ring_head: usize,
    dropped_events: u64,
    /// Scoped span stack: at most [`MAX_SPAN_DEPTH`] open frames; frames
    /// pushed beyond that are counted in `dropped_frames` and tracked in
    /// `overflow_depth` so the matching pops stay balanced.
    stack: Vec<SpanFrame>,
    overflow_depth: u64,
    dropped_frames: u64,
    next_id: u64,
    hists: Vec<(&'static str, LogHistogram)>,
    counters: Vec<(&'static str, u64)>,
    epoch_fields: Vec<&'static str>,
    epochs: Vec<EpochRow>,
    last_ts: u64,
}

impl Tracer {
    /// An enabled tracer with `cfg` knobs.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            enabled: true,
            cfg,
            ..Tracer::default()
        }
    }

    /// Whether recording is on. The disabled path is this one branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The active knobs.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// The latest timestamp any record carried (0 when nothing recorded).
    pub fn last_ts(&self) -> u64 {
        self.last_ts
    }

    /// Records a span of `dur` simulated cycles starting at `ts`. The span
    /// is parented under the innermost open [`Tracer::push_span`] frame.
    pub fn span(
        &mut self,
        ts: u64,
        dur: u64,
        name: &'static str,
        cat: &'static str,
        args: &[(&'static str, u64)],
    ) {
        if !self.enabled {
            return;
        }
        let parent = self.current_parent();
        let id = self.alloc_id();
        self.push_event(TraceEvent {
            ts,
            dur,
            name,
            cat,
            id,
            parent,
            args: pack_args(args),
        });
    }

    /// Records an instant event at `ts` (parented like [`Tracer::span`]).
    pub fn instant(
        &mut self,
        ts: u64,
        name: &'static str,
        cat: &'static str,
        args: &[(&'static str, u64)],
    ) {
        self.span(ts, 0, name, cat, args);
    }

    /// Id of the innermost open span frame (0 when the stack is empty).
    #[inline]
    fn current_parent(&self) -> u64 {
        self.stack.last().map(|f| f.id).unwrap_or(0)
    }

    fn alloc_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Opens a scoped span at `ts`; the completed event is emitted by the
    /// matching [`Tracer::pop_span`]. Every span or instant recorded while
    /// the frame is open is parented under it. Returns the new span's id,
    /// or 0 when the tracer is disabled or the frame was dropped because
    /// the stack already holds [`MAX_SPAN_DEPTH`] frames (the drop is
    /// counted; the matching pop is still balanced).
    pub fn push_span(
        &mut self,
        ts: u64,
        name: &'static str,
        cat: &'static str,
        args: &[(&'static str, u64)],
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        if self.stack.len() >= MAX_SPAN_DEPTH {
            self.overflow_depth += 1;
            self.dropped_frames += 1;
            return 0;
        }
        let id = self.alloc_id();
        self.stack.push(SpanFrame {
            ts,
            name,
            cat,
            args: pack_args(args),
            id,
        });
        id
    }

    /// Closes the innermost open span at `end_ts`, emitting its completed
    /// event. A pop with no matching push is counted as a dropped frame
    /// rather than panicking (unbalanced instrumentation must never take
    /// the simulation down).
    pub fn pop_span(&mut self, end_ts: u64) {
        self.pop_span_with(end_ts, &[]);
    }

    /// Like [`Tracer::pop_span`], but fills the frame's unused argument
    /// slots with `extra` pairs — for quantities only known at scope exit
    /// (per-phase device writes, hash ops).
    pub fn pop_span_with(&mut self, end_ts: u64, extra: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        if self.overflow_depth > 0 {
            self.overflow_depth -= 1;
            return;
        }
        let Some(frame) = self.stack.pop() else {
            self.dropped_frames += 1;
            return;
        };
        let mut args = frame.args;
        let mut extra_it = extra.iter();
        for slot in args.iter_mut().filter(|(k, _)| k.is_empty()) {
            match extra_it.next() {
                Some(pair) => *slot = *pair,
                None => break,
            }
        }
        let parent = self.current_parent();
        self.push_event(TraceEvent {
            ts: frame.ts,
            dur: end_ts.saturating_sub(frame.ts),
            name: frame.name,
            cat: frame.cat,
            id: frame.id,
            parent,
            args,
        });
    }

    /// Current open depth of the span stack, including dropped overflow
    /// frames.
    pub fn span_depth(&self) -> usize {
        self.stack.len() + self.overflow_depth as usize
    }

    /// Frames lost to stack overflow or unbalanced pops so far.
    pub fn dropped_frames(&self) -> u64 {
        self.dropped_frames
    }

    fn push_event(&mut self, ev: TraceEvent) {
        self.last_ts = self.last_ts.max(ev.ts.saturating_add(ev.dur));
        if self.cfg.max_events == 0 {
            self.dropped_events += 1;
            return;
        }
        if self.events.len() < self.cfg.max_events {
            self.events.push(ev);
        } else {
            // Ring is full: overwrite the oldest slot.
            self.events[self.ring_head] = ev;
            self.ring_head = (self.ring_head + 1) % self.cfg.max_events;
            self.dropped_events += 1;
        }
    }

    /// Records `value` into histogram `name` (registered on first use).
    pub fn record(&mut self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        for (k, h) in &mut self.hists {
            if *k == name {
                h.record(value);
                return;
            }
        }
        let mut h = LogHistogram::default();
        h.record(value);
        self.hists.push((name, h));
    }

    /// Adds `n` to counter `name` (registered on first use).
    pub fn add(&mut self, name: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        for (k, v) in &mut self.counters {
            if *k == name {
                *v += n;
                return;
            }
        }
        self.counters.push((name, n));
    }

    /// Appends one epoch row. `fields` must carry the same names in the same
    /// order on every call (they are registered on the first sample); rows
    /// whose names disagree are dropped rather than silently misaligned.
    pub fn sample_epoch(&mut self, epoch: u64, end_cycle: u64, fields: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        if self.epoch_fields.is_empty() {
            self.epoch_fields = fields.iter().map(|(k, _)| *k).collect();
        } else if self.epoch_fields.len() != fields.len()
            || self
                .epoch_fields
                .iter()
                .zip(fields)
                .any(|(a, (b, _))| a != b)
        {
            return;
        }
        self.last_ts = self.last_ts.max(end_cycle);
        self.epochs.push(EpochRow {
            epoch,
            end_cycle,
            values: fields.iter().map(|(_, v)| *v).collect(),
        });
    }

    /// Clears everything recorded (keeps the enabled flag and knobs) — the
    /// region-of-interest boundary.
    pub fn reset(&mut self) {
        self.events.clear();
        self.ring_head = 0;
        self.dropped_events = 0;
        self.stack.clear();
        self.overflow_depth = 0;
        self.dropped_frames = 0;
        self.next_id = 0;
        self.hists.clear();
        self.counters.clear();
        self.epoch_fields.clear();
        self.epochs.clear();
        self.last_ts = 0;
    }

    /// Snapshots everything recorded into a serialisable [`TraceReport`].
    /// Returns `None` when the tracer is disabled.
    pub fn report(&self) -> Option<TraceReport> {
        if !self.enabled {
            return None;
        }
        // Unroll the ring into chronological order.
        let mut events = Vec::with_capacity(self.events.len());
        events.extend_from_slice(&self.events[self.ring_head..]);
        events.extend_from_slice(&self.events[..self.ring_head]);
        Some(TraceReport {
            events,
            dropped_events: self.dropped_events,
            dropped_frames: self.dropped_frames,
            hists: self
                .hists
                .iter()
                .map(|(k, h)| (k.to_string(), h.clone()))
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            epoch_fields: self.epoch_fields.iter().map(|k| k.to_string()).collect(),
            epochs: self.epochs.clone(),
        })
    }
}

/// Everything one traced run recorded, in owned/serialisable form. This is
/// what rides on a `SimReport` and what the exporters consume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Surviving events in chronological recording order.
    pub events: Vec<TraceEvent>,
    /// Events that fell out of the ring (recorded but not kept).
    pub dropped_events: u64,
    /// Span-stack frames lost to overflow or unbalanced pops.
    pub dropped_frames: u64,
    /// Histograms, in first-use order.
    pub hists: Vec<(String, LogHistogram)>,
    /// Counters, in first-use order.
    pub counters: Vec<(String, u64)>,
    /// Epoch time-series field names (parallel to every row's `values`).
    pub epoch_fields: Vec<String>,
    /// Epoch time-series rows, in sample order.
    pub epochs: Vec<EpochRow>,
}

impl TraceReport {
    /// Looks up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Looks up a counter by name. `None` means the counter was never
    /// registered — deliberately distinct from `Some(0)` so diff and gate
    /// tooling can't mistake a missing instrumentation site for a measured
    /// zero.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Merges a leaf component's [`CompTrace`] counters (prefixed with
    /// `prefix`) and strike records into this report. Strikes become
    /// instant events in category `"fault"` at timestamp `ts`, carrying
    /// `(ordinal, kind, op_index)` so a `fault_sweep` failure can be
    /// replayed from the trace alone.
    pub fn absorb_component(&mut self, prefix: &str, comp: &CompTrace, ts: u64, op_index: u64) {
        for (k, v) in comp.counters() {
            self.counters.push((format!("{prefix}.{k}"), *v));
        }
        for s in comp.strikes() {
            self.events.push(TraceEvent {
                ts,
                dur: 0,
                name: s.kind_name(),
                cat: "fault",
                id: 0,
                parent: 0,
                args: pack_args(&[
                    ("ordinal", s.ordinal),
                    ("kind", s.kind as u64),
                    ("op_index", op_index),
                ]),
            });
        }
    }

    /// Sum of `field` over every epoch row. `None` means the field was
    /// never registered (distinct from a registered field that summed to
    /// zero).
    pub fn epoch_sum(&self, field: &str) -> Option<u64> {
        self.epoch_fields
            .iter()
            .position(|f| f == field)
            .map(|i| self.epochs.iter().map(|r| r.values[i]).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        assert!(!t.enabled());
        t.span(0, 10, "x", "op", &[]);
        t.record("h", 5);
        t.add("c", 1);
        t.sample_epoch(0, 100, &[("a", 1)]);
        assert!(t.report().is_none());
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut t = Tracer::new(TraceConfig {
            epoch_cycles: 1000,
            max_events: 3,
        });
        for i in 0..5u64 {
            t.instant(i, "e", "op", &[("i", i)]);
        }
        let r = t.report().unwrap();
        assert_eq!(r.dropped_events, 2);
        let kept: Vec<u64> = r.events.iter().map(|e| e.ts).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest two fell out, order preserved");
    }

    #[test]
    fn args_pack_and_truncate() {
        let mut t = Tracer::new(TraceConfig::default());
        t.span(1, 2, "s", "op", &[("a", 1), ("b", 2), ("c", 3), ("d", 4)]);
        let r = t.report().unwrap();
        let used: Vec<_> = r.events[0].used_args().collect();
        assert_eq!(used, vec![("a", 1), ("b", 2), ("c", 3)]);
    }

    #[test]
    fn histograms_and_counters_register_on_first_use() {
        let mut t = Tracer::new(TraceConfig::default());
        t.record("read.wait", 100);
        t.record("read.wait", 700);
        t.record("write.wait", 1);
        t.add("ops", 2);
        t.add("ops", 3);
        let r = t.report().unwrap();
        assert_eq!(r.hist("read.wait").unwrap().count(), 2);
        assert_eq!(r.hist("write.wait").unwrap().max(), 1);
        assert_eq!(r.counter("ops"), Some(5));
        assert_eq!(r.counter("missing"), None, "absent is not zero");
        assert!(r.counter("ops").is_some() && r.counter("missing").is_none());
    }

    #[test]
    fn epoch_rows_accumulate_and_sum() {
        let mut t = Tracer::new(TraceConfig::default());
        t.sample_epoch(0, 250_000, &[("reads", 10), ("writes", 4)]);
        t.sample_epoch(1, 500_000, &[("reads", 7), ("writes", 0)]);
        let r = t.report().unwrap();
        assert_eq!(r.epoch_fields, vec!["reads", "writes"]);
        assert_eq!(r.epoch_sum("reads"), Some(17));
        assert_eq!(r.epoch_sum("writes"), Some(4));
        assert_eq!(r.epoch_sum("nonexistent"), None, "absent is not zero");
        assert_eq!(r.epochs[1].epoch, 1);
    }

    #[test]
    fn mismatched_epoch_fields_are_dropped_not_misaligned() {
        let mut t = Tracer::new(TraceConfig::default());
        t.sample_epoch(0, 1, &[("a", 1)]);
        t.sample_epoch(1, 2, &[("b", 2)]);
        assert_eq!(t.report().unwrap().epochs.len(), 1);
    }

    #[test]
    fn reset_clears_measurements_but_stays_enabled() {
        let mut t = Tracer::new(TraceConfig::default());
        t.instant(5, "e", "op", &[]);
        t.record("h", 1);
        t.reset();
        assert!(t.enabled());
        let r = t.report().unwrap();
        assert!(r.events.is_empty() && r.hists.is_empty());
        assert_eq!(t.last_ts(), 0);
    }

    #[test]
    fn comp_trace_counts_and_strikes() {
        let mut c = CompTrace::default();
        c.bump("ignored"); // disabled: no-op
        c.set_enabled(true);
        c.bump("device_writes");
        c.add("device_writes", 2);
        c.strike(7, 1, 0x40);
        assert_eq!(c.get("device_writes"), 3);
        assert_eq!(c.strikes()[0].kind_name(), "torn_first");

        let mut r = TraceReport::default();
        r.absorb_component("nvm", &c, 123, 9);
        assert_eq!(r.counter("nvm.device_writes"), Some(3));
        let strike = &r.events[0];
        assert_eq!(strike.cat, "fault");
        assert_eq!(strike.name, "torn_first");
        let args: Vec<_> = strike.used_args().collect();
        assert_eq!(args, vec![("ordinal", 7), ("kind", 1), ("op_index", 9)]);
    }

    #[test]
    fn nested_spans_carry_parent_ids() {
        let mut t = Tracer::new(TraceConfig::default());
        let read = t.push_span(100, "read", "op", &[("addr", 64)]);
        assert!(read > 0);
        let fetch = t.push_span(110, "meta.fill", "meta", &[]);
        t.instant(120, "verify.enqueue", "verify", &[]);
        t.pop_span(150); // meta.fill
        t.pop_span(200); // read
        t.span(300, 10, "flat", "op", &[]);

        let r = t.report().unwrap();
        assert_eq!(r.dropped_frames, 0);
        let by_name = |n: &str| r.events.iter().find(|e| e.name == n).unwrap();
        let ev_read = by_name("read");
        let ev_fetch = by_name("meta.fill");
        let ev_inst = by_name("verify.enqueue");
        assert_eq!(ev_read.id, read);
        assert_eq!(ev_read.parent, 0, "outermost span is a root");
        assert_eq!((ev_read.ts, ev_read.dur), (100, 100));
        assert_eq!(ev_fetch.id, fetch);
        assert_eq!(ev_fetch.parent, read);
        assert_eq!((ev_fetch.ts, ev_fetch.dur), (110, 40));
        assert_eq!(ev_inst.parent, fetch, "instants nest under the open frame");
        assert_eq!(by_name("flat").parent, 0, "stack is empty again");
    }

    #[test]
    fn span_stack_depth_is_bounded_and_pops_stay_balanced() {
        let mut t = Tracer::new(TraceConfig::default());
        let mut ids = Vec::new();
        for i in 0..(MAX_SPAN_DEPTH as u64 + 4) {
            ids.push(t.push_span(i, "deep", "op", &[]));
        }
        assert_eq!(t.span_depth(), MAX_SPAN_DEPTH + 4);
        assert_eq!(t.dropped_frames(), 4);
        assert!(ids[MAX_SPAN_DEPTH..].iter().all(|&id| id == 0));
        assert!(ids[..MAX_SPAN_DEPTH].iter().all(|&id| id > 0));
        for i in 0..(MAX_SPAN_DEPTH as u64 + 4) {
            t.pop_span(1000 + i);
        }
        assert_eq!(t.span_depth(), 0);
        let r = t.report().unwrap();
        assert_eq!(r.events.len(), MAX_SPAN_DEPTH, "only kept frames emit");
        assert_eq!(r.dropped_frames, 4);
    }

    #[test]
    fn unbalanced_pop_is_counted_not_fatal() {
        let mut t = Tracer::new(TraceConfig::default());
        t.pop_span(10);
        assert_eq!(t.dropped_frames(), 1);
        t.push_span(0, "s", "op", &[]);
        t.pop_span(5);
        let r = t.report().unwrap();
        assert_eq!(r.events.len(), 1, "recording still works after the slip");
        assert_eq!(r.dropped_frames, 1);
    }

    #[test]
    fn span_ids_are_stable_across_reset() {
        let mut t = Tracer::new(TraceConfig::default());
        let a = t.push_span(0, "a", "op", &[]);
        t.instant(1, "i", "op", &[]);
        t.pop_span(2);
        let before: Vec<(u64, u64)> = t
            .report()
            .unwrap()
            .events
            .iter()
            .map(|e| (e.id, e.parent))
            .collect();

        t.reset();
        let a2 = t.push_span(0, "a", "op", &[]);
        t.instant(1, "i", "op", &[]);
        t.pop_span(2);
        let after: Vec<(u64, u64)> = t
            .report()
            .unwrap()
            .events
            .iter()
            .map(|e| (e.id, e.parent))
            .collect();

        assert_eq!(a, a2, "id allocation restarts at reset");
        assert_eq!(before, after, "identical recording => identical id tree");
    }

    #[test]
    fn pop_span_with_fills_unused_arg_slots() {
        let mut t = Tracer::new(TraceConfig::default());
        t.push_span(0, "phase", "recovery", &[("k", 1)]);
        t.pop_span_with(10, &[("writes", 7), ("hashes", 3), ("extra", 9)]);
        let r = t.report().unwrap();
        let args: Vec<_> = r.events[0].used_args().collect();
        assert_eq!(
            args,
            vec![("k", 1), ("writes", 7), ("hashes", 3)],
            "push args keep their slots; extras fill the rest and truncate"
        );
    }
}
