//! The per-track event log: one record of one migration.
//!
//! An [`EventLog`] is a registry of named *tracks*. A track belongs to one
//! logical writer — the engine (`driver`), the collector (`collect`), the
//! chunk sender (`arq.tx`), the fault injector (`fault`), the destination
//! (`restore`, `arq.rx`) — and is a pair of bounded rings sharing one
//! sequence counter:
//!
//! * the **protocol** ring holds the per-chunk / per-phase events (chunk
//!   sent, acked, nacked, CRC failure, injected fault, phase span, rung of
//!   the ladder). It is what a post-mortem reads and is on by default;
//! * the **detail** ring holds the per-search / per-block events
//!   (`msrlt.search`, `collect.block`, `restore.block`, `net.send`). It is
//!   recorded only at [`Level::Detail`], and being a ring of its own, a
//!   hundred thousand searches cannot evict the four phase spans.
//!
//! Both rings keep the last N events and count what they evict; memory
//! never grows past the two capacities per track.
//!
//! ## Levels
//!
//! A log has exactly one setting, fixed when it is built: [`Level::Off`]
//! (every site is a branch on a `None`), [`Level::Protocol`], or
//! [`Level::Detail`] (protocol + detail). A detail site on a log below
//! `Detail` costs one branch on a `bool` field of the handle: no atomic,
//! no lock, no argument vector.
//!
//! ## Determinism
//!
//! [`LogDump::to_jsonl`] of two runs of one seed is byte-identical even
//! though source, wire and destination run on different threads:
//!
//! 1. **The wall-clock stamp stays out of it.** Every event carries
//!    `ts_ns` (nanoseconds since the log was built) for the Chrome export,
//!    but the JSONL dump and [`LogDump::shape`] leave it out. Anything
//!    time-like *inside* an event's arguments is modeled time.
//! 2. **Per-track ordering only.** A track's event order is a pure
//!    function of the seed (the chunk stream, the fault plan, the DFS); the
//!    dump lists tracks sorted by name, events by per-track sequence
//!    number. Cross-track interleaving, which is scheduling-dependent,
//!    never appears.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Default protocol-ring capacity per track: every chunk event of the
/// paper workloads' transfers, while bounding a pathological run.
pub const PROTOCOL_CAPACITY: usize = 512;

/// Default detail-ring capacity per track.
pub const DETAIL_CAPACITY: usize = 1 << 16;

/// How much a log records — its one setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing; tracks handed out are inert.
    Off,
    /// Per-chunk and per-phase events.
    Protocol,
    /// Protocol plus per-search and per-block events.
    Detail,
}

/// What kind of mark an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opens (closed by an `End` of the same name on the track).
    Begin,
    /// A span closes.
    End,
    /// A point event.
    Point,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Per-track sequence number, shared by both rings: the writer's
    /// total order.
    pub seq: u64,
    /// Event name, e.g. `"chunk.sent"`, `"crc.fail"`, `"collect"`.
    pub name: &'static str,
    /// Span edge or point.
    pub kind: EventKind,
    /// Whether the event came from the detail ring.
    pub detail: bool,
    /// Named integer arguments (chunk index, attempt, byte count, modeled
    /// nanoseconds, …) in call-site order. Deterministic quantities only.
    pub args: Vec<(&'static str, u64)>,
    /// Optional free-form text (an error, a reason). Deterministic too.
    pub note: Option<String>,
    /// Nanoseconds since the log was built. Left out of the
    /// deterministic dump.
    pub ts_ns: u64,
}

const PROTOCOL: usize = 0;
const DETAIL: usize = 1;

#[derive(Default)]
struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

#[derive(Default)]
struct TrackState {
    next_seq: u64,
    rings: [Ring; 2],
}

struct TrackShared {
    origin: Instant,
    capacity: [usize; 2],
    state: Mutex<TrackState>,
}

struct LogInner {
    level: Level,
    origin: Instant,
    capacity: [usize; 2],
    tracks: Mutex<BTreeMap<&'static str, Arc<TrackShared>>>,
}

/// A lock that outlives a panicking holder: every update under these
/// locks (a map insert, a counter bump and a ring push) leaves the data
/// valid at each step, and a diagnostic log must not take a migration
/// down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Shared handle to one migration's event log. Clones share state.
#[derive(Clone)]
pub struct EventLog(Option<Arc<LogInner>>);

impl EventLog {
    /// A log recording at `level` with the default ring capacities.
    pub fn new(level: Level) -> Self {
        Self::with_capacity(level, PROTOCOL_CAPACITY, DETAIL_CAPACITY)
    }

    /// A log keeping the last `protocol` / `detail` events per track.
    /// Rings allocate as they fill, not up front.
    fn with_capacity(level: Level, protocol: usize, detail: usize) -> Self {
        if level == Level::Off {
            return EventLog(None);
        }
        EventLog(Some(Arc::new(LogInner {
            level,
            origin: Instant::now(),
            capacity: [protocol.max(1), detail.max(1)],
            tracks: Mutex::new(BTreeMap::new()),
        })))
    }

    /// What this log records.
    pub fn level(&self) -> Level {
        self.0.as_ref().map_or(Level::Off, |l| l.level)
    }

    /// Get-or-create the track named `name`. Two handles to one name
    /// share its rings and sequence numbers; a track should still have one
    /// writer, which is what makes its order reproducible.
    pub fn track(&self, name: &'static str) -> Track {
        let Some(log) = &self.0 else {
            return Track::off();
        };
        let mut tracks = lock(&log.tracks);
        let shared = tracks.entry(name).or_insert_with(|| {
            Arc::new(TrackShared {
                origin: log.origin,
                capacity: log.capacity,
                state: Mutex::default(),
            })
        });
        Track {
            shared: Some(Arc::clone(shared)),
            detail: log.level == Level::Detail,
        }
    }

    /// Snapshot every track: tracks sorted by name, each track's two
    /// rings merged back into the writer's order. The log keeps
    /// recording.
    pub fn dump(&self) -> LogDump {
        let Some(log) = &self.0 else {
            return LogDump::default();
        };
        let tracks = lock(&log.tracks);
        let tracks = tracks
            .iter()
            .map(|(&name, shared)| {
                let st = lock(&shared.state);
                let [protocol, detail] = &st.rings;
                let mut events: Vec<Event> = protocol
                    .events
                    .iter()
                    .chain(&detail.events)
                    .cloned()
                    .collect();
                events.sort_by_key(|e| e.seq);
                TrackDump {
                    name,
                    dropped: protocol.dropped + detail.dropped,
                    events,
                }
            })
            .collect();
        LogDump { tracks }
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EventLog({:?})", self.level())
    }
}

/// Writing handle for one track. The default handle is inert, so a
/// component holds a `Track`, never an `Option` of one.
#[derive(Clone, Default)]
pub struct Track {
    shared: Option<Arc<TrackShared>>,
    /// Whether detail sites record; `false` whenever `shared` is `None`.
    detail: bool,
}

impl std::fmt::Debug for Track {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let level = match (&self.shared, self.detail) {
            (None, _) => Level::Off,
            (Some(_), false) => Level::Protocol,
            (Some(_), true) => Level::Detail,
        };
        write!(f, "Track({level:?})")
    }
}

type Args<'a> = &'a [(&'static str, u64)];

impl Track {
    /// A handle that records nothing.
    pub fn off() -> Self {
        Track::default()
    }

    fn push(&self, ring: usize, kind: EventKind, name: &'static str, args: Args<'_>, note: &str) {
        let Some(shared) = &self.shared else { return };
        let mut st = lock(&shared.state);
        let seq = st.next_seq;
        st.next_seq += 1;
        let ring_state = &mut st.rings[ring];
        if ring_state.events.len() >= shared.capacity[ring] {
            ring_state.events.pop_front();
            ring_state.dropped += 1;
        }
        ring_state.events.push_back(Event {
            seq,
            name,
            kind,
            detail: ring == DETAIL,
            args: args.to_vec(),
            note: (!note.is_empty()).then(|| note.to_string()),
            ts_ns: shared.origin.elapsed().as_nanos() as u64,
        });
    }

    /// Record a protocol point event.
    #[inline]
    pub fn event(&self, name: &'static str, args: Args<'_>) {
        self.push(PROTOCOL, EventKind::Point, name, args, "");
    }

    /// Record a protocol point event carrying a (deterministic!) note.
    #[inline]
    pub fn event_note(&self, name: &'static str, args: Args<'_>, note: &str) {
        self.push(PROTOCOL, EventKind::Point, name, args, note);
    }

    /// Open a protocol span; pair with [`Track::end`] of the same name.
    #[inline]
    pub fn begin(&self, name: &'static str, args: Args<'_>) {
        self.push(PROTOCOL, EventKind::Begin, name, args, "");
    }

    /// Close the innermost open protocol span of `name`.
    #[inline]
    pub fn end(&self, name: &'static str, args: Args<'_>) {
        self.push(PROTOCOL, EventKind::End, name, args, "");
    }

    /// Record a detail point event: one branch below [`Level::Detail`].
    #[inline]
    pub fn detail_event(&self, name: &'static str, args: Args<'_>) {
        if self.detail {
            self.push(DETAIL, EventKind::Point, name, args, "");
        }
    }

    /// Open a detail span: one branch below [`Level::Detail`].
    #[inline]
    pub fn detail_begin(&self, name: &'static str, args: Args<'_>) {
        if self.detail {
            self.push(DETAIL, EventKind::Begin, name, args, "");
        }
    }

    /// Close a detail span: one branch below [`Level::Detail`].
    #[inline]
    pub fn detail_end(&self, name: &'static str, args: Args<'_>) {
        if self.detail {
            self.push(DETAIL, EventKind::End, name, args, "");
        }
    }
}

/// One track's portion of a dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackDump {
    /// Track name.
    pub name: &'static str,
    /// Events evicted from either ring before the dump was taken.
    pub dropped: u64,
    /// Retained events of both rings, in sequence order.
    pub events: Vec<Event>,
}

/// A matched `Begin`/`End` pair, for summaries and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name.
    pub name: &'static str,
    /// Track it ran on.
    pub track: &'static str,
    /// Open stamp (ns since the log was built).
    pub start_ns: u64,
    /// Close stamp; `u64::MAX` if the span never closed.
    pub end_ns: u64,
    /// Nesting depth on its track (0 = outermost).
    pub depth: usize,
}

/// A snapshot of an [`EventLog`]: its events, and nothing else — the
/// run's counters are the typed fields of the report that carries it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogDump {
    /// Per-track dumps, sorted by track name.
    pub tracks: Vec<TrackDump>,
}

impl LogDump {
    /// Total retained events across tracks.
    pub fn len(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// True when no track retained any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted across all tracks.
    pub fn dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// Every event named `name`, with the track it is on.
    pub fn events_of(&self, name: &str) -> Vec<(&'static str, &Event)> {
        self.tracks
            .iter()
            .flat_map(|t| {
                t.events
                    .iter()
                    .filter(move |e| e.name == name)
                    .map(move |e| (t.name, e))
            })
            .collect()
    }

    /// Reconstruct matched spans (per track, stack discipline).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::new();
        for t in &self.tracks {
            let mut open: Vec<usize> = Vec::new();
            for ev in &t.events {
                match ev.kind {
                    EventKind::Begin => {
                        out.push(SpanRecord {
                            name: ev.name,
                            track: t.name,
                            start_ns: ev.ts_ns,
                            end_ns: u64::MAX,
                            depth: open.len(),
                        });
                        open.push(out.len() - 1);
                    }
                    // Close the innermost open span of this name
                    // (tolerates a `Begin` the ring already evicted).
                    EventKind::End => {
                        if let Some(pos) = open.iter().rposition(|&i| out[i].name == ev.name) {
                            out[open.remove(pos)].end_ns = ev.ts_ns;
                        }
                    }
                    EventKind::Point => {}
                }
            }
        }
        out
    }

    /// Whether a closed span of `inner` nests inside a closed span of
    /// `outer` on the same track.
    pub fn has_nested(&self, outer: &str, inner: &str) -> bool {
        let spans = self.spans();
        let closed = |s: &&SpanRecord| s.end_ns != u64::MAX;
        spans
            .iter()
            .filter(|o| o.name == outer)
            .filter(closed)
            .any(|o| {
                spans.iter().filter(closed).any(|i| {
                    i.name == inner
                        && i.track == o.track
                        && i.depth > o.depth
                        && i.start_ns >= o.start_ns
                        && i.end_ns <= o.end_ns
                })
            })
    }

    /// The log's *shape*: every event minus its stamp. Two runs of one
    /// deterministic workload have equal shapes.
    pub fn shape(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len());
        for t in &self.tracks {
            for e in &t.events {
                let kind = match e.kind {
                    EventKind::Begin => 'B',
                    EventKind::End => 'E',
                    EventKind::Point => 'P',
                };
                let args: Vec<String> = e.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
                out.push(format!("{}:{}:{kind}:[{}]", t.name, e.name, args.join(",")));
            }
        }
        out
    }

    /// Render as JSONL, the post-mortem format: per track one header
    /// object (with drop accounting), then one object per event —
    /// `track`, `seq`, `kind` (the event's name), `ph` on a span edge,
    /// `detail` on a detail event, the arguments, `note`. Field order is
    /// fixed and stamps are left out, so the dumps of two runs of one
    /// seed are byte-identical.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.tracks {
            let track = esc(t.name);
            let _ = writeln!(
                out,
                "{{\"track\":\"{track}\",\"events\":{},\"dropped\":{}}}",
                t.events.len(),
                t.dropped
            );
            for e in &t.events {
                let _ = write!(
                    out,
                    "{{\"track\":\"{track}\",\"seq\":{},\"kind\":\"{}\"",
                    e.seq,
                    esc(e.name)
                );
                match e.kind {
                    EventKind::Begin => out.push_str(",\"ph\":\"B\""),
                    EventKind::End => out.push_str(",\"ph\":\"E\""),
                    EventKind::Point => {}
                }
                if e.detail {
                    out.push_str(",\"detail\":true");
                }
                for (k, v) in &e.args {
                    let _ = write!(out, ",\"{}\":{v}", esc(k));
                }
                if let Some(note) = &e.note {
                    let _ = write!(out, ",\"note\":\"{}\"", esc(note));
                }
                out.push_str("}\n");
            }
        }
        out
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a dump as Chrome trace-event JSON (`{"traceEvents":[...]}`),
/// loadable in `chrome://tracing` and Perfetto.
///
/// Track *n* (in name order) becomes `tid` *n+1* under `pid` 1 with a
/// `thread_name` metadata record; `Begin` / `End` / `Point` become `"B"` /
/// `"E"` / `"i"` with the stamp in microseconds and the arguments (and
/// note) as `args`; evictions are reported as a process label.
pub fn chrome_trace_json(dump: &LogDump) -> String {
    let mut records: Vec<String> = Vec::with_capacity(dump.len() + dump.tracks.len() + 4);
    for (i, t) in dump.tracks.iter().enumerate() {
        let tid = i + 1;
        records.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(t.name)
        ));
        for e in &t.events {
            let ph = match e.kind {
                EventKind::Begin => "\"B\"",
                EventKind::End => "\"E\"",
                EventKind::Point => "\"i\",\"s\":\"t\"",
            };
            let mut args: Vec<String> = e
                .args
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
                .collect();
            if let Some(note) = &e.note {
                args.push(format!("\"note\":\"{}\"", esc(note)));
            }
            records.push(format!(
                "{{\"ph\":{ph},\"pid\":1,\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\
                 \"args\":{{{}}}}}",
                e.ts_ns as f64 / 1000.0,
                esc(e.name),
                args.join(",")
            ));
        }
    }
    if dump.dropped() > 0 {
        records.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_labels\",\
             \"args\":{{\"labels\":\"dropped {} events\"}}}}",
            dump.dropped()
        ));
    }
    format!("{{\"traceEvents\":[{}]}}\n", records.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::time::Duration;

    /// Counts this thread's allocations: the instrument for "a detail
    /// site below `Level::Detail` allocates nothing".
    struct CountingAlloc;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; the counter touches no allocator state.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            // SAFETY: the caller's obligations are `System::alloc`'s own.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: as above, for `System::dealloc`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    fn allocs_during(f: impl FnOnce()) -> u64 {
        let before = ALLOCS.with(Cell::get);
        f();
        ALLOCS.with(Cell::get) - before
    }

    #[test]
    fn rings_are_bounded_with_drop_accounting() {
        let log = EventLog::with_capacity(Level::Detail, 4, 2);
        let t = log.track("arq.tx");
        for i in 0..10u64 {
            t.event("chunk.sent", &[("chunk", i)]);
        }
        for i in 0..5u64 {
            t.detail_event("net.send", &[("n", i)]);
        }
        let dump = log.dump();
        assert_eq!(dump.tracks.len(), 1);
        let td = &dump.tracks[0];
        assert_eq!(td.events.len(), 6, "4 protocol + 2 detail survive");
        assert_eq!(td.dropped, 6 + 3);
        assert_eq!(dump.dropped(), 9);
        // Oldest retained protocol event is seq 6 (0..=5 were evicted).
        assert_eq!(td.events[0].seq, 6);
        assert_eq!(td.events[3].args, vec![("chunk", 9)]);
        assert_eq!(td.events[5].seq, 14);
        assert!(td.events[5].detail);
    }

    #[test]
    fn detail_flood_cannot_evict_protocol_events() {
        let log = EventLog::with_capacity(Level::Detail, 8, 16);
        let t = log.track("driver");
        t.begin("collect", &[]);
        for _ in 0..1000 {
            t.detail_begin("msrlt.search", &[]);
            t.detail_end("msrlt.search", &[("group", 2)]);
        }
        t.end("collect", &[("image_bytes", 64)]);
        let dump = log.dump();
        let collect: Vec<_> = dump
            .spans()
            .into_iter()
            .filter(|s| s.name == "collect")
            .collect();
        assert_eq!(collect.len(), 1);
        assert_ne!(collect[0].end_ns, u64::MAX, "both edges survived the flood");
        assert!(dump.has_nested("collect", "msrlt.search"));
        assert!(!dump.has_nested("msrlt.search", "collect"));
    }

    #[test]
    fn dump_sorts_tracks_and_leaves_the_stamp_out() {
        let run = || {
            let log = EventLog::new(Level::Protocol);
            log.track("zeta").event("b", &[]);
            std::thread::sleep(Duration::from_millis(1));
            log.track("alpha").event("a", &[("x", 1)]);
            log.dump()
        };
        let (a, b) = (run(), run());
        assert_ne!(a, b, "the stamps differ");
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.shape(), b.shape());
        let text = a.to_jsonl();
        assert!(text.lines().next().unwrap().contains("\"track\":\"alpha\""));
        assert!(text.find("alpha").unwrap() < text.find("zeta").unwrap());
        assert!(text.contains("\"x\":1"));
        assert!(!text.contains("ts_ns"));
    }

    #[test]
    fn off_log_records_nothing() {
        let log = EventLog::new(Level::Off);
        let t = log.track("driver");
        t.event("phase", &[]);
        t.event_note("phase", &[], "collect");
        t.begin("collect", &[]);
        t.detail_event("collect.block", &[]);
        assert!(log.dump().is_empty());
        assert_eq!(log.level(), Level::Off);
    }

    #[test]
    fn protocol_level_skips_detail_sites() {
        let log = EventLog::new(Level::Protocol);
        let t = log.track("collect");
        t.event("chunk.flush", &[]);
        t.detail_begin("msrlt.search", &[]);
        t.detail_end("msrlt.search", &[]);
        let dump = log.dump();
        assert_eq!(dump.len(), 1);
        assert!(!dump.tracks[0].events[0].detail);
    }

    /// The one-branch property of a detail site below `Level::Detail`:
    /// nothing is allocated (no argument vector) and the track's lock is
    /// not taken — a writer thread runs its sites to completion while
    /// this one holds it.
    #[test]
    fn detail_site_below_detail_allocates_nothing_and_takes_no_lock() {
        for level in [Level::Off, Level::Protocol] {
            let log = EventLog::new(level);
            let (held, t) = (log.track("collect"), log.track("collect"));
            let guard = held.shared.as_ref().map(|s| s.state.lock().unwrap());
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let writer = std::thread::spawn(move || {
                let n = allocs_during(|| {
                    for i in 0..1000u64 {
                        t.detail_begin("msrlt.search", &[]);
                        t.detail_end("msrlt.search", &[("group", 2), ("index", i)]);
                        t.detail_event("collect.block", &[("count", i)]);
                    }
                });
                done_tx.send(n).unwrap();
            });
            let n = done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a detail site blocked on the track's lock");
            drop(guard);
            writer.join().unwrap();
            assert_eq!(n, 0, "{level:?}");
            assert!(log.dump().is_empty());
        }
        // The instrument does see an enabled site allocate.
        let log = EventLog::new(Level::Detail);
        let t = log.track("collect");
        assert!(allocs_during(|| t.detail_event("collect.block", &[("count", 1)])) > 0);
    }

    #[test]
    fn handles_to_one_name_share_sequence_numbers() {
        let log = EventLog::new(Level::Protocol);
        let (a, b) = (log.track("t"), log.track("t"));
        a.event("x", &[]);
        b.event("y", &[]);
        let dump = log.dump();
        assert_eq!(dump.tracks[0].events.len(), 2);
        assert_eq!(dump.tracks[0].events[1].seq, 1);
    }

    #[test]
    fn tracks_are_written_from_their_own_threads() {
        let log = EventLog::new(Level::Protocol);
        let worker = log.track("worker");
        let h = std::thread::spawn(move || (0..10).for_each(|_| worker.event("w", &[])));
        let main = log.track("main");
        (0..10).for_each(|_| main.event("m", &[]));
        h.join().unwrap();
        let dump = log.dump();
        assert_eq!(dump.len(), 20);
        for t in &dump.tracks {
            assert!(t.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        }
    }

    #[test]
    fn spans_nest_and_match() {
        let log = EventLog::new(Level::Protocol);
        let t = log.track("main");
        t.begin("outer", &[]);
        t.begin("inner", &[]);
        t.end("inner", &[]);
        t.end("outer", &[]);
        t.begin("open", &[]);
        let dump = log.dump();
        let spans = dump.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].depth), ("outer", 0));
        assert_eq!((spans[1].name, spans[1].depth), ("inner", 1));
        assert_eq!(spans[2].end_ns, u64::MAX);
        assert!(dump.has_nested("outer", "inner"));
        assert!(!dump.has_nested("inner", "outer"));
        assert!(!dump.has_nested("outer", "outer"));
    }

    /// Minimal structural JSON validity check: balanced brackets outside
    /// strings, valid escapes, non-empty.
    fn json_is_balanced(s: &str) -> bool {
        let mut depth: Vec<char> = Vec::new();
        let (mut in_str, mut escaped) = (false, false);
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth.push('}'),
                '[' => depth.push(']'),
                '}' | ']' if depth.pop() != Some(c) => return false,
                _ => {}
            }
        }
        !s.is_empty() && depth.is_empty() && !in_str
    }

    fn sample_dump() -> LogDump {
        let log = EventLog::new(Level::Detail);
        let src = log.track("src");
        src.begin("collect", &[]);
        src.detail_event("collect.block", &[("bytes", 128)]);
        src.detail_begin("msrlt.search", &[]);
        src.detail_end("msrlt.search", &[]);
        src.end("collect", &[]);
        log.track("driver")
            .event_note("err", &[("chunk", 9)], "a\"quote\" and\nnewline");
        log.dump()
    }

    #[test]
    fn jsonl_is_one_escaped_object_per_line() {
        let dump = sample_dump();
        let found = dump.events_of("err");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, "driver");
        assert_eq!(found[0].1.args[0], ("chunk", 9));
        let text = dump.to_jsonl();
        assert!(text.contains("\\\"quote\\\"") && text.contains("\\n"));
        assert!(text.contains("\"kind\":\"collect\",\"ph\":\"B\""));
        assert!(text.contains("\"kind\":\"collect.block\",\"detail\":true,\"bytes\":128"));
        for line in text.lines() {
            assert!(json_is_balanced(line), "bad line: {line}");
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn chrome_json_is_structurally_valid() {
        let json = chrome_trace_json(&sample_dump());
        assert!(json_is_balanced(&json));
        assert!(json.starts_with("{\"traceEvents\":["));
        for needle in [
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
            "\"ph\":\"M\"",
            "\"ph\":\"i\"",
            "\"name\":\"collect\"",
            "\"name\":\"msrlt.search\"",
            "\"args\":{\"bytes\":128}",
            "\\\"quote\\\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
