//! Exhaustive model check of the chunk stream's protocol — `hpm_net`'s
//! [`SenderCore`] and [`ReceiverCore`] plus the resume handshake — over
//! an ordered pipe that can break. The state is the two cores, the frames
//! in the pipe as real bytes (in order: the pipe never reorders), whether
//! the pipe broke or the connection ended, and the destination's
//! [`RestoreJournal`]. Every protocol decision is a call into the cores;
//! the model only decides what the pipe, the destination process and the
//! degradation ladder do:
//!
//! * the sender offers distinct payloads (the terminator empty, as
//!   `finish` sends it) whenever the pipe is whole; each frame it sends is
//!   delivered, delivered damaged at one of five sites — the low bit of
//!   `seq`, of `flags` and of `raw_len`, one payload byte, and the CRC
//!   word — or breaks the pipe instead. Damage to the magic or the opaque
//!   length is left out: such a frame does not parse and is refused by
//!   name, by design;
//! * the destination reads the pipe in order; on a broken pipe it reads
//!   what is queued, then the end. In the crash scenarios it may die just
//!   before consuming any chunk of the first connection, where the
//!   threaded receiver's injected crash fires;
//! * an ended first connection goes down the ladder as the engine's does:
//!   an empty journal falls back to the source, otherwise a fresh
//!   connection runs the receiver core's resuming start on the real
//!   journal (tampered in `pipe_resume_tampered`) and the sender core's
//!   resume check. A refused handshake, or a resumed connection that ends
//!   too, falls back to the source — a legal terminal, like success.
//!
//! The invariants are the five [`Breach`]es. The search is deterministic,
//! so rerunning this test replays any counterexample; a failing
//! assertion prints the event path that reaches it.

use std::collections::{HashSet, VecDeque};

use hpm_net::{ReceiverCore, ResumeDecision, SenderCore};
use hpm_xdr::{crc32, ChunkRecord, RestoreJournal, RestorePhase};

/// The image both ends of every modelled stream carry.
const IMAGE_ID: u64 = 0x4850_4D4D;

/// Frames in every modelled stream, terminator included.
const TOTAL: u32 = 4;

/// Hard cap on distinct states per scenario. Exceeding it fails the
/// gate: a partial exploration proves nothing.
const STATE_BUDGET: usize = 2_000_000;

/// What the sender offers at `seq`: a distinct byte per chunk, and the
/// empty terminator.
fn payload(seq: u32) -> Vec<u8> {
    if seq == TOTAL - 1 {
        Vec::new()
    } else {
        vec![0xA0 | seq as u8]
    }
}

/// The invariant a transition broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breach {
    /// A non-terminal state with no enabled event, or no successful
    /// terminal reachable at all.
    Deadlock,
    /// A chunk released to the restorer twice in one attempt.
    DoubleRelease,
    /// After a clean resume, a chunk below the resume start released
    /// from the wire instead of the journal.
    ResumeReplay,
    /// The sender accepted a tampered journal, or the resume handshake
    /// failed outright.
    TamperAccepted,
    /// A released chunk is not the payload the sender offered at its
    /// position, or left the sender damaged, or is the terminator when
    /// that one was not (or not when it was), or a frame the sender
    /// framed intact was refused.
    WrongDelivery,
}

/// The explored product state: the production cores, the pipe as bytes,
/// and the destination's journal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    tx: SenderCore,
    rx: ReceiverCore,
    /// Which connection of the ladder this is.
    attempt: Attempt,
    /// Frames in the pipe, oldest first, each with whether it left the
    /// sender intact.
    pipe: VecDeque<(Vec<u8>, bool)>,
    /// The pipe broke: the sender can put nothing more into it.
    broken: bool,
    /// The connection is over: the destination refused a frame, read the
    /// end of a broken pipe, or died.
    ended: bool,
    /// The ladder resumed on the source (rung 3): a legal terminal.
    fell_back: bool,
    /// Every chunk the restorer was handed, in order.
    journal: RestoreJournal,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Attempt {
    /// The first connection; the scenario's crash may still fire.
    First,
    /// The handshake was accepted: chunks below `start` came from the
    /// journal, never from the wire.
    Resumed { start: u32 },
}

impl World {
    /// A fresh first connection.
    fn new() -> Self {
        World {
            tx: SenderCore::default(),
            rx: ReceiverCore::default(),
            attempt: Attempt::First,
            pipe: VecDeque::new(),
            broken: false,
            ended: false,
            fell_back: false,
            journal: RestoreJournal::new(IMAGE_ID),
        }
    }

    fn success(&self) -> bool {
        self.journal.is_complete()
    }

    fn terminal(&self) -> bool {
        self.success() || self.fell_back
    }
}

/// One protocol scenario: the crash/tamper script and the seeded bug.
#[derive(Clone, Copy)]
struct ProtoScenario {
    name: &'static str,
    /// The destination may die before consuming any chunk of the first
    /// connection.
    crash: bool,
    /// Tamper the journal between death and resume (digest mismatch).
    tamper: bool,
    /// The seeded bug that proves detection power: the production
    /// receiver, wrapped so it never checks a frame's CRC — every frame
    /// reaches the core with its CRC restamped over the bytes as they
    /// arrived.
    skip_crc: bool,
}

impl ProtoScenario {
    /// Pipe faults alone: damage and breakage, and the ladder behind them.
    const BASELINE: Self = ProtoScenario {
        name: "pipe_baseline",
        crash: false,
        tamper: false,
        skip_crc: false,
    };

    /// Pipe faults, and the destination dying before any chunk of the
    /// first connection with its journal intact: the clean-resume rung.
    const RESUME: Self = ProtoScenario {
        name: "pipe_resume",
        crash: true,
        ..Self::BASELINE
    };

    /// As [`Self::RESUME`], with the journal tampered before the resume:
    /// the digest check must refuse it.
    const RESUME_TAMPERED: Self = ProtoScenario {
        name: "pipe_resume_tampered",
        tamper: true,
        ..Self::RESUME
    };

    /// The baseline with the receiver skipping the CRC verdict, so a
    /// damaged frame reaches the restorer. The checker must catch it as
    /// a [`Breach::WrongDelivery`].
    const SEEDED_SKIPPED_CRC: Self = ProtoScenario {
        name: "pipe_seeded_skipped_crc",
        skip_crc: true,
        ..Self::BASELINE
    };
}

/// An invariant breach, with the event path that reaches it.
#[derive(Debug)]
struct Violation {
    breach: Breach,
    /// What broke.
    message: String,
    /// Event names from the initial state to the breach: the witness.
    trace: Vec<String>,
}

/// Result of exhausting one protocol scenario's state space.
#[derive(Debug, Default)]
struct Outcome {
    /// Distinct states visited.
    states: u64,
    /// Transitions taken (edges explored).
    transitions: u64,
    /// First violation found, if any.
    violation: Option<Violation>,
    /// A successful terminal state is reachable.
    success_reachable: bool,
    /// A source-resume terminal is reachable (it should be — the pipe can
    /// break before the first chunk).
    fallback_reachable: bool,
    /// The state budget stopped the search early.
    budget_exhausted: bool,
}

impl Outcome {
    /// The gate for a scenario that must hold: no violation, both legal
    /// terminals reachable, and the search ran to completion.
    fn holds(&self) -> Result<(), String> {
        if let Some(v) = &self.violation {
            return Err(format!(
                "{:?}: {} (after {:?})",
                v.breach, v.message, v.trace
            ));
        }
        if self.budget_exhausted {
            return Err(format!(
                "search budget exhausted after {} states: the verdict covers only the \
                 explored prefix",
                self.states
            ));
        }
        if !self.fallback_reachable {
            return Err("no source-fallback terminal is reachable".into());
        }
        Ok(())
    }
}

/// What applying one event yields: the successor state, or the
/// invariant it breached.
type Applied = Result<World, (Breach, String)>;

/// The sender offers its next chunk, and the pipe does each thing it can
/// to the frame: carries it, carries it damaged at one of five sites, or
/// breaks instead.
fn ship(w: &World) -> Vec<(String, Applied)> {
    let mut n = w.clone();
    let seq = n.tx.chunks_sent();
    let frame = n.tx.offer(&payload(seq), seq == TOTAL - 1);
    let mut out = Vec::new();
    let mut fly = |name: String, copy: Option<(Vec<u8>, bool)>| {
        let mut m = n.clone();
        match copy {
            Some(copy) => m.pipe.push_back(copy),
            None => m.broken = true,
        }
        out.push((format!("ship.{name}({seq})"), Ok(m)));
    };
    fly("deliver".into(), Some((frame.clone(), true)));
    let sites = [("seq", 7), ("flags", 11), ("raw_len", 15), ("payload", 20)];
    for (site, at) in sites.into_iter().chain([("crc", frame.len() - 1)]) {
        // An empty payload has no byte to damage.
        if site == "crc" || at + 4 < frame.len() {
            let mut damaged = frame.clone();
            damaged[at] ^= 1;
            fly(format!("corrupt.{site}"), Some((damaged, false)));
        }
    }
    fly("disconnect".into(), None);
    out
}

/// The destination reads the oldest frame in the pipe and applies what
/// the receiver core decides; in a crash scenario it may die instead,
/// just before consuming the chunk the frame carries.
fn deliver(w: &World, sc: &ProtoScenario) -> Vec<(String, Applied)> {
    let mut n = w.clone();
    let (mut frame, intact) = n.pipe.pop_front().expect("a frame in the pipe");
    if sc.skip_crc {
        // The seeded bug: the CRC the core checks is stamped over the
        // bytes as they arrived.
        let body = frame.len() - 4;
        let crc = crc32(&frame[..body]);
        frame[body..].copy_from_slice(&crc.to_be_bytes());
    }
    let (record, bytes) = match n.rx.on_frame(&frame) {
        Ok(released) => released,
        Err(refused) if intact => {
            let why = format!("the receiver refused an intact frame: {refused:?}");
            return vec![("deliver".into(), Err((Breach::WrongDelivery, why)))];
        }
        Err(_) => {
            n.ended = true;
            return vec![("deliver.refused".into(), Ok(n))];
        }
    };
    let mut out = Vec::new();
    if sc.crash && n.attempt == Attempt::First {
        let mut dead = n.clone();
        dead.ended = true;
        out.push((format!("deliver.crash({})", record.index), Ok(dead)));
    }
    let applied = release(&mut n, intact, record, bytes).map(|()| n);
    out.push(("deliver".into(), applied));
    out
}

/// The restorer takes one released chunk into the journal.
fn release(
    w: &mut World,
    intact: bool,
    record: ChunkRecord,
    bytes: Vec<u8>,
) -> Result<(), (Breach, String)> {
    let seq = record.index;
    let start = match w.attempt {
        Attempt::Resumed { start } => start,
        Attempt::First => 0,
    };
    let phase = RestorePhase::for_chunk(seq, seq == TOTAL - 1);
    let (breach, why) = if seq < start {
        let why = format!("chunk {seq}, below the resume start {start}, replayed from the wire");
        (Breach::ResumeReplay, why)
    } else if seq < w.journal.next_chunk() {
        let why = format!("chunk {seq} released to the restorer twice in one attempt");
        (Breach::DoubleRelease, why)
    } else if !intact || seq >= TOTAL || bytes != payload(seq) || record.phase != phase {
        let why = format!(
            "position {seq} released {bytes:?} as the {} from a frame that left the sender {}, \
             not the offered {:?} as the {phase}",
            record.phase,
            if intact { "intact" } else { "damaged" },
            payload(seq)
        );
        (Breach::WrongDelivery, why)
    } else {
        let order = |e| (Breach::WrongDelivery, format!("out of order: {e}"));
        return w.journal.append(record, bytes).map_err(order);
    };
    Err((breach, why))
}

/// The ladder behind an ended connection: the first one resumes from the
/// journal on a fresh connection, when there is a journal to resume
/// from; anything else resumes on the source.
fn ladder(w: &World, sc: &ProtoScenario) -> (String, Applied) {
    let mut journal = w.journal.clone();
    if w.attempt != Attempt::First || journal.next_chunk() == 0 {
        let mut n = w.clone();
        n.fell_back = true;
        return ("fallback".into(), Ok(n));
    }
    if sc.tamper {
        journal.tamper_record(0);
    }
    let mut n = World::new();
    let request = n.rx.resume(&journal);
    match n.tx.on_resume(request, IMAGE_ID, w.tx.records()) {
        Ok(ResumeDecision::Accepted { .. }) if sc.tamper => {
            let why = "the sender accepted a tampered journal — the digest check failed open";
            ("resume".into(), Err((Breach::TamperAccepted, why.into())))
        }
        // Both ends fast-forward to the journal horizon; chunks below
        // it are replayed locally from the journal.
        Ok(ResumeDecision::Accepted { next, .. }) => {
            n.journal = journal;
            n.attempt = Attempt::Resumed { start: next };
            (format!("resume.accepted({next})"), Ok(n))
        }
        // The sender refuses to splice onto an unverified base, and the
        // run resumes on the source.
        Ok(ResumeDecision::Rejected(_)) => {
            let mut n = w.clone();
            n.fell_back = true;
            ("resume.rejected".into(), Ok(n))
        }
        Err(e) => {
            let why = format!("the resume handshake failed: {e}");
            ("resume".into(), Err((Breach::TamperAccepted, why)))
        }
    }
}

/// Enumerate `(event name, applied result)` for every enabled event.
fn successors(w: &World, sc: &ProtoScenario) -> Vec<(String, Applied)> {
    if w.terminal() {
        return Vec::new();
    }
    if w.ended {
        return vec![ladder(w, sc)];
    }
    let mut out = Vec::new();
    if !w.broken && w.tx.chunks_sent() < TOTAL {
        out.extend(ship(w));
    }
    if !w.pipe.is_empty() {
        out.extend(deliver(w, sc));
    } else if w.broken {
        // The destination reads the end of the broken pipe.
        let mut n = w.clone();
        n.ended = true;
        out.push(("eof".into(), Ok(n)));
    }
    out
}

/// Exhaustively explore one protocol scenario by BFS over the product
/// state space, checking every invariant on every transition, and stop
/// once `budget` distinct states are reached.
fn explore(sc: &ProtoScenario, budget: usize) -> Outcome {
    let init = World::new();
    let mut visited: HashSet<World> = HashSet::from([init.clone()]);
    // Per state: its parent's index and the event that reached it.
    let mut parents: Vec<(usize, String)> = vec![(usize::MAX, String::new())];
    let mut queue = VecDeque::from([(0usize, init)]);
    let mut outcome = Outcome::default();

    let trace_to = |mut idx: usize, parents: &[(usize, String)]| {
        let mut path = Vec::new();
        while idx != 0 {
            path.push(parents[idx].1.clone());
            idx = parents[idx].0;
        }
        path.reverse();
        path
    };

    while let Some((idx, w)) = queue.pop_front() {
        outcome.states += 1;
        outcome.success_reachable |= w.success();
        outcome.fallback_reachable |= w.fell_back;
        let succ = successors(&w, sc);
        if succ.is_empty() && !w.terminal() {
            outcome.violation = Some(Violation {
                breach: Breach::Deadlock,
                message: format!("reachable deadlock: no event enabled in {w:?}"),
                trace: trace_to(idx, &parents),
            });
            return outcome;
        }
        for (name, applied) in succ {
            outcome.transitions += 1;
            let n = match applied {
                Ok(n) => n,
                Err((breach, message)) => {
                    outcome.violation = Some(Violation {
                        breach,
                        message,
                        trace: [trace_to(idx, &parents), vec![name]].concat(),
                    });
                    return outcome;
                }
            };
            if !visited.insert(n.clone()) {
                continue;
            }
            let nidx = parents.len();
            if nidx >= budget {
                outcome.budget_exhausted = true;
                return outcome;
            }
            parents.push((idx, name));
            queue.push_back((nidx, n));
        }
    }

    if !outcome.success_reachable {
        outcome.violation = Some(Violation {
            breach: Breach::Deadlock,
            message: format!(
                "no successful terminal state is reachable in {} ({} states explored)",
                sc.name, outcome.states
            ),
            trace: Vec::new(),
        });
    }
    outcome
}

/// The three scenarios that must hold explore exactly these state
/// spaces: a change to either core that moves a count is a change to the
/// protocol, and must say so here.
#[test]
fn full_suite_has_zero_violations_and_catches_the_seeded_race() {
    let pinned = [
        (ProtoScenario::BASELINE, 3_017, 4_949),
        (ProtoScenario::RESUME, 3_601, 5_585),
        (ProtoScenario::RESUME_TAMPERED, 3_196, 4_780),
    ];
    for (sc, states, transitions) in pinned {
        let o = explore(&sc, STATE_BUDGET);
        if let Err(why) = o.holds() {
            panic!("{}: {why}", sc.name);
        }
        assert_eq!(
            (o.states, o.transitions),
            (states, transitions),
            "{}: (states, transitions)",
            sc.name
        );
    }
    let seeded = explore(&ProtoScenario::SEEDED_SKIPPED_CRC, STATE_BUDGET);
    assert!(
        seeded.holds().is_err(),
        "the seeded skipped CRC passed the gate"
    );
}

/// An exhausted search budget fails the gate as a violation does,
/// because a partial exploration proves nothing.
#[test]
fn an_exhausted_budget_fails_the_gate() {
    let sc = ProtoScenario::BASELINE;
    let partial = explore(&sc, 100);
    assert!(partial.budget_exhausted, "{partial:?}");
    assert!(partial.violation.is_none(), "{partial:?}");
    assert!(partial.holds().is_err(), "an incomplete search passed");
    assert_eq!(explore(&sc, STATE_BUDGET).holds(), Ok(()));
}

/// Detection power: with the receiver's CRC check skipped, the checker
/// finds a damaged frame released to the restorer, at a pinned point of
/// the search, and names the path that gets there.
#[test]
fn protocol_checker_detects_a_seeded_skipped_crc() {
    let o = explore(&ProtoScenario::SEEDED_SKIPPED_CRC, STATE_BUDGET);
    let v = o
        .violation
        .expect("seeded CRC-check removal must be caught");
    assert_eq!(v.breach, Breach::WrongDelivery, "{}", v.message);
    assert_eq!((o.states, o.transitions), (4, 31));
    assert!(!o.budget_exhausted);
    assert!(!v.trace.is_empty(), "violation must carry an event path");
    assert!(
        v.trace.iter().any(|e| e.starts_with("ship.corrupt.")),
        "the witness must damage a frame: {:?}",
        v.trace
    );
    assert_eq!(v.trace.last().map(String::as_str), Some("deliver"));
}
