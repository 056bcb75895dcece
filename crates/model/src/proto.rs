//! Exhaustive exploration of the production ARQ — `hpm_net`'s
//! [`SenderCore`] and [`ReceiverCore`] plus the resume handshake — under
//! the full fault alphabet. The state is the two cores, the in-flight
//! data frames as real bytes (a sorted multiset, so every delivery order
//! is explored), the reliable FIFO control path, the intact-deliveries
//! ledger, and the destination's [`RestoreJournal`]. Every protocol
//! decision is a call into the cores; the model only decides what the
//! link and the destination process do:
//!
//! * the sender offers distinct payloads (the terminator empty, as
//!   `finish` sends it) while the core's ledger method says
//!   [`Wait::Ready`], feeds it one control frame on [`Wait::Control`], and
//!   a timeout on [`Wait::Timeout`];
//! * every frame the core sends branches over [`FaultAction::ALL`].
//!   `Corrupt` damages the real frame at five sites — the low bit of
//!   `seq`, of `flags` and of `raw_len`, one payload byte, and the CRC
//!   word — and the receiver core decides what each damage means.
//!   `Reorder` and `Delay` act like `Deliver`: the in-flight multiset
//!   already delivers in every order. Damage to the magic or the opaque
//!   length is left out: such a frame does not parse and is refused by
//!   name, by design;
//! * a destination crash fires where the threaded receiver's does, just
//!   before it consumes chunk *k*; the resume event runs the receiver
//!   core's resuming start, the real journal digest (tampered in
//!   `arq_resume_tampered`) and the sender core's resume check.
//!
//! Invariants: no reachable deadlock, and success reachable (**HPM040**);
//! the sender window never beyond `cfg.window`, and no frame seen at or
//! beyond the receiver's `next + window` (**HPM041**); no chunk released
//! twice in one attempt (**HPM042**); after a clean resume, no chunk below
//! the resume start released from the wire (**HPM043**); a tampered
//! journal always reaching a clean full restart that can complete
//! (**HPM044**); every released chunk the payload the sender offered at
//! its position, byte for byte, and the terminator exactly when that one
//! was (**HPM048**) — the journal takes chunks only in order, so a
//! completed stream released every offered chunk, and a frame the sender
//! framed that the receiver refuses is the same breach. Retries
//! exhausting is a *legal* terminal — the degradation ladder hands the
//! stream back to the planner — never a deadlock.

use std::collections::{HashSet, VecDeque};
use std::time::Duration;

use hpm_lint::LintCode;
use hpm_net::{
    ArqConfig, FaultAction, NetError, ReceiverAction, ReceiverCore, ResumeDecision, SenderAction,
    SenderCore, Wait,
};
use hpm_xdr::{frame_control, ChunkRecord, RestoreJournal, RestorePhase};

/// The image both ends of every modelled stream carry.
const IMAGE_ID: u64 = 0x4850_4D4D;

/// Frames in every modelled stream, terminator included.
const TOTAL: u32 = 4;

/// Window 2 and 2 retries, in a real [`ArqConfig`]: small enough to
/// exhaust.
const CFG: ArqConfig = ArqConfig {
    window: 2,
    max_retries: 2,
    base_backoff: Duration::from_millis(4),
};

/// What the sender offers at `seq`: a distinct byte per chunk, and the
/// empty terminator.
fn payload(seq: u32) -> Vec<u8> {
    if seq == TOTAL - 1 {
        Vec::new()
    } else {
        vec![0xA0 | seq as u8]
    }
}

/// The explored product state: the production cores, the wire as bytes,
/// and the destination's journal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    tx: SenderCore,
    rx: ReceiverCore,
    /// RetriesExhausted: the legal degradation terminal.
    tx_failed: bool,
    /// Where this stream attempt stands on the crash/resume ladder.
    attempt: Attempt,
    /// Data frame copies in flight, as bytes (sorted: a multiset).
    data: Vec<Vec<u8>>,
    /// Control frames on the reliable FIFO reverse path.
    ctrl: VecDeque<Vec<u8>>,
    /// Forward path severed: later data copies are black-holed.
    link_dead: bool,
    /// Intact copies put on the wire: what the sender's ledger reads.
    intact: u64,
    /// Every chunk the restorer was handed, in order. Complete once the
    /// terminator is in: the destination has hung up.
    journal: RestoreJournal,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Attempt {
    /// The first stream; the scenario's crash may still fire.
    First,
    /// The destination died; only the resume handshake can follow.
    Crashed,
    /// The handshake was accepted: chunks below `start` came from the
    /// journal, never from the wire.
    Resumed { start: u32 },
    /// The handshake was rejected and the stream fully restarted.
    Restarted,
}

impl World {
    /// A fresh stream attempt.
    fn new() -> Self {
        World {
            tx: SenderCore::new(CFG),
            rx: ReceiverCore::new(CFG),
            tx_failed: false,
            attempt: Attempt::First,
            data: Vec::new(),
            ctrl: VecDeque::new(),
            link_dead: false,
            intact: 0,
            journal: RestoreJournal::new(IMAGE_ID),
        }
    }

    /// The destination no longer reads the link.
    fn rx_gone(&self) -> bool {
        self.attempt == Attempt::Crashed || self.journal.is_complete()
    }

    fn success(&self) -> bool {
        !self.tx_failed
            && self.tx.chunks_sent() == TOTAL
            && self.tx.window_len() == 0
            && self.journal.is_complete()
    }
}

/// One protocol scenario: bounds plus the crash/tamper script.
#[derive(Debug, Clone, Copy)]
pub struct ProtoScenario {
    /// Stable scenario name.
    pub name: &'static str,
    /// Kill the destination just before it consumes this chunk.
    pub crash_at: Option<u32>,
    /// Tamper the journal between death and resume (digest mismatch).
    pub tamper: bool,
    /// The seeded bug that proves detection power (never part of
    /// [`Self::all`]): the production receiver, wrapped so a copy below
    /// `next` releases its chunk to the restorer a second time.
    pub release_dups: bool,
}

impl ProtoScenario {
    /// Fault-alphabet stream with no crash: the steady-state protocol.
    pub fn baseline() -> Self {
        ProtoScenario {
            name: "arq_baseline",
            crash_at: None,
            tamper: false,
            release_dups: false,
        }
    }

    /// Destination dies at chunk 2, journal intact: the clean-resume rung.
    pub fn resume() -> Self {
        ProtoScenario {
            name: "arq_resume",
            crash_at: Some(2),
            ..Self::baseline()
        }
    }

    /// Destination dies at chunk 2 and its journal is tampered: the
    /// digest check must force a clean full restart.
    pub fn resume_tampered() -> Self {
        ProtoScenario {
            name: "arq_resume_tampered",
            tamper: true,
            ..Self::resume()
        }
    }

    /// Seeded-bug variant of the baseline: the receiver re-releases a
    /// duplicate, so a duplicated or retransmitted frame releases its
    /// chunk twice. The checker must find HPM042: `run_all` runs this as
    /// its expected-catch row; it is never part of [`Self::all`].
    pub fn seeded_double_release() -> Self {
        ProtoScenario {
            name: "arq_seeded_double_release",
            release_dups: true,
            ..Self::baseline()
        }
    }

    /// The three scenarios that must hold with zero violations.
    pub fn all() -> Vec<ProtoScenario> {
        vec![Self::baseline(), Self::resume(), Self::resume_tampered()]
    }
}

/// An invariant breach, with the event path that reaches it.
#[derive(Debug, Clone)]
pub struct ProtoViolation {
    /// Stable diagnostic code (HPM040–HPM044, HPM048).
    pub code: LintCode,
    /// What broke.
    pub message: String,
    /// Event names from the initial state to the breach.
    pub trace: Vec<String>,
}

/// Result of exhausting one protocol scenario's state space.
#[derive(Debug, Clone, Default)]
pub struct ProtoOutcome {
    /// Distinct states visited.
    pub states: u64,
    /// Transitions taken (edges explored).
    pub transitions: u64,
    /// Transitions that landed on an already-visited state.
    pub deduped: u64,
    /// First violation found, if any.
    pub violation: Option<ProtoViolation>,
    /// A successful terminal state is reachable.
    pub success_reachable: bool,
    /// A RetriesExhausted terminal is reachable (it should be — the
    /// fault alphabet contains Disconnect).
    pub failed_reachable: bool,
    /// The state budget stopped the search early (HPM047).
    pub budget_exhausted: bool,
}

/// What applying one event yields: the successor state, or the
/// invariant it breached.
type Applied = Result<World, (LintCode, String)>;

/// Every distinct thing the fault alphabet does to one transmission of
/// `frame` from `n`, named. A dead link black-holes silently; a gone
/// receiver closed the channel, so no copy is counted or delivered.
/// Intact copies feed the sender's ledger.
fn transmissions(n: &World, frame: &[u8]) -> Vec<(String, World)> {
    let mut out = Vec::new();
    let mut fly = |name: String, copies: Vec<Vec<u8>>, sever: bool| {
        let mut m = n.clone();
        m.link_dead |= sever;
        let open = !m.link_dead && !m.rx_gone();
        for copy in copies.into_iter().filter(|_| open) {
            if copy == frame {
                m.intact += 1;
            } else {
                // A copy the receiver core refuses as damage without
                // touching its state is refused the same way whenever it
                // lands — the CRC verdict precedes every state read — so
                // it is absorbed now. A copy the core would take stays in
                // flight, in every order.
                let mut probe = m.rx.clone();
                let refused = matches!(probe.on_frame(&copy)[..], [ReceiverAction::Corrupt { .. }]);
                if refused && probe == m.rx {
                    continue;
                }
            }
            let at = m.data.partition_point(|f| *f < copy);
            m.data.insert(at, copy);
        }
        out.push((name, m));
    };
    for action in FaultAction::ALL {
        let name = action.name().to_string();
        match action {
            FaultAction::Deliver | FaultAction::Reorder | FaultAction::Delay => {
                fly(name, vec![frame.to_vec()], false)
            }
            FaultAction::Drop => fly(name, Vec::new(), false),
            FaultAction::Duplicate => fly(name, vec![frame.to_vec(); 2], false),
            FaultAction::Disconnect => fly(name, Vec::new(), true),
            FaultAction::Corrupt => {
                let sites = [("seq", 7), ("flags", 11), ("raw_len", 15), ("payload", 20)];
                for (site, at) in sites.into_iter().chain([("crc", frame.len() - 1)]) {
                    // An empty payload has no byte to damage.
                    if site == "crc" || at + 4 < frame.len() {
                        let mut damaged = frame.to_vec();
                        damaged[at] ^= 1;
                        fly(format!("corrupt.{site}"), vec![damaged], false);
                    }
                }
            }
        }
    }
    out
}

/// Apply the sender core's actions for one event named `label`. The
/// frame they send, if any, branches over every fault effect.
fn sender_step(mut n: World, actions: Vec<SenderAction>, label: &str) -> Vec<(String, Applied)> {
    let mut name = label.to_string();
    let mut sent = None;
    for action in actions {
        match action {
            SenderAction::Send { seq, frame, .. } => sent = Some((seq, frame)),
            SenderAction::Acked { next, .. } => name = format!("{label}.ack({next})"),
            SenderAction::Nacked => name = format!("{label}.nack"),
            SenderAction::Backoff(_) => {}
            SenderAction::Fail(NetError::RetriesExhausted { chunk, .. }) => {
                n.tx_failed = true;
                name = format!("{label}.exhausted({chunk})");
            }
            SenderAction::Fail(e) => {
                let why = format!("the sender died outside its retry budget: {e}");
                return vec![(name, Err((LintCode::ModelDeadlock, why)))];
            }
        }
    }
    let Some((seq, frame)) = sent else {
        return vec![(name, Ok(n))];
    };
    transmissions(&n, &frame)
        .into_iter()
        .map(|(effect, m)| (format!("{name}.{effect}({seq})"), Ok(m)))
        .collect()
}

/// Deliver one in-flight copy to the destination and apply what the
/// receiver core decides.
fn receive(w: &mut World, frame: &[u8], sc: &ProtoScenario) -> Result<(), (LintCode, String)> {
    if w.rx_gone() {
        // The destination hung up; the copy is discarded at the link.
        return Ok(());
    }
    let mut actions = w.rx.on_frame(frame);
    if let (true, Some(&ReceiverAction::Duplicate { seq })) = (sc.release_dups, actions.first()) {
        // The seeded bug: a copy below `next` is handed to the restorer
        // again.
        let (record, bytes) = (w.journal.records(), w.journal.payloads());
        let (record, payload) = (record[seq as usize], bytes[seq as usize].clone());
        actions.insert(1, ReceiverAction::Release { record, payload });
    }
    for action in actions {
        match action {
            ReceiverAction::Release { record, payload } => {
                release(w, sc, record, payload)?;
                if w.attempt == Attempt::Crashed {
                    // No ack leaves the dead process.
                    return Ok(());
                }
            }
            ReceiverAction::Send(ctrl) => w.ctrl.push_back(frame_control(ctrl)),
            ReceiverAction::Fail(e) => {
                let seq = u32::from_be_bytes(frame[4..8].try_into().expect("a frame header"));
                let beyond = seq >= w.rx.next() + CFG.window;
                let (window, wrong) = (LintCode::ModelWindowOverflow, LintCode::ModelWrongDelivery);
                let code = if beyond { window } else { wrong };
                return Err((code, format!("the receiver refused a frame: {e}")));
            }
            _ => {}
        }
    }
    Ok(())
}

/// The restorer takes one released chunk into the journal — unless the
/// injected crash fires first, as in the threaded receiver.
fn release(
    w: &mut World,
    sc: &ProtoScenario,
    record: ChunkRecord,
    bytes: Vec<u8>,
) -> Result<(), (LintCode, String)> {
    let seq = record.index;
    if sc.crash_at == Some(seq) && w.attempt == Attempt::First {
        w.attempt = Attempt::Crashed;
        // The process is gone: in-flight data is undeliverable and its
        // queued controls will never be read.
        w.data.clear();
        w.ctrl.clear();
        return Ok(());
    }
    let start = match w.attempt {
        Attempt::Resumed { start } => start,
        _ => 0,
    };
    let phase = RestorePhase::for_chunk(seq, seq == TOTAL - 1);
    let (code, why) = if seq < start {
        let why = format!("chunk {seq}, below the resume start {start}, replayed from the wire");
        (LintCode::ModelResumeReplay, why)
    } else if seq < w.journal.next_chunk() {
        let why = format!("chunk {seq} released to the restorer twice in one attempt");
        (LintCode::ModelDoubleRelease, why)
    } else if seq >= TOTAL || bytes != payload(seq) || record.phase != phase {
        let why = format!(
            "position {seq} released {bytes:?} as the {}, not the offered {:?} as the {phase}",
            record.phase,
            payload(seq)
        );
        (LintCode::ModelWrongDelivery, why)
    } else {
        let order = |e| (LintCode::ModelWrongDelivery, format!("out of order: {e}"));
        return w.journal.append(record, bytes).map_err(order);
    };
    Err((code, why))
}

/// The resume handshake, the only event while the destination is down:
/// a rebuilt receiver asks to resume from the journal, and a fresh sender
/// checks the request against the interrupted stream's ledger.
fn resume(w: &World, sc: &ProtoScenario) -> (String, Applied) {
    let mut journal = w.journal.clone();
    if sc.tamper {
        journal.tamper_record(0);
    }
    let mut n = World::new();
    let Some(ReceiverAction::Send(request)) = n.rx.resume(&journal).pop() else {
        unreachable!("a resuming receiver asks to resume");
    };
    match n.tx.on_resume(request, IMAGE_ID, w.tx.records()) {
        // Both ends fast-forward to the journal horizon; chunks below
        // it are replayed locally from the journal.
        Ok(ResumeDecision::Accepted { next, .. }) => {
            n.journal = journal;
            n.attempt = Attempt::Resumed { start: next };
            (format!("resume.accepted({next})"), Ok(n))
        }
        // The sender refuses to splice onto an unverified base, and the
        // driver restarts the stream from scratch.
        Ok(ResumeDecision::Rejected(_)) => {
            n.rx = ReceiverCore::new(CFG);
            n.attempt = Attempt::Restarted;
            ("resume.rejected".into(), Ok(n))
        }
        Err(e) => {
            let why = format!("the resume handshake failed: {e}");
            ("resume".into(), Err((LintCode::ModelRestartMissed, why)))
        }
    }
}

/// Invariants of a state itself: the send window bound, and — once the
/// stream has completed after a tampered journal — the clean restart.
fn checked(w: World, sc: &ProtoScenario) -> Applied {
    let (len, cap) = (w.tx.window_len(), CFG.window);
    if len > cap as usize {
        let why = format!("sender window grew to {len} frames (config window {cap})");
        return Err((LintCode::ModelWindowOverflow, why));
    }
    if sc.tamper && w.attempt != Attempt::Restarted && w.success() {
        let why = "stream completed after a tampered journal without a full restart — \
                   the digest check failed open";
        return Err((LintCode::ModelRestartMissed, why.into()));
    }
    Ok(w)
}

/// Enumerate `(event name, applied result)` for every enabled event.
fn successors(w: &World, sc: &ProtoScenario) -> Vec<(String, Applied)> {
    let mut out = Vec::new();
    if w.tx_failed || w.success() {
        return out;
    }
    if w.attempt == Attempt::Crashed {
        out.push(resume(w, sc));
        return out;
    }
    // The sender does what its ledger says; a control owed but not yet
    // queued blocks it, and only deliveries can move.
    let draining = w.tx.chunks_sent() == TOTAL;
    let mut n = w.clone();
    match w.tx.wait(w.intact, draining) {
        Wait::Ready if !draining => {
            let seq = n.tx.chunks_sent();
            let actions = n.tx.offer(&payload(seq), seq == TOTAL - 1, false);
            out.extend(sender_step(n, actions, "ship"));
        }
        Wait::Control if !w.ctrl.is_empty() => {
            let raw = n.ctrl.pop_front().expect("a control queued");
            let actions = n.tx.on_control(&raw);
            out.extend(sender_step(n, actions, "ctrl"));
        }
        Wait::Timeout => {
            let actions = n.tx.on_timeout();
            out.extend(sender_step(n, actions, "timeout"));
        }
        Wait::Ready | Wait::Control => {}
    }
    // Wire: deliver any in-flight copy (full reordering). Identical
    // copies yield identical successors.
    for (i, frame) in w.data.iter().enumerate() {
        if i > 0 && w.data[i - 1] == *frame {
            continue;
        }
        let mut n = w.clone();
        n.data.remove(i);
        let applied = receive(&mut n, frame, sc).map(|()| n);
        out.push((format!("deliver#{i}"), applied));
    }
    out.into_iter()
        .map(|(name, applied)| (name, applied.and_then(|n| checked(n, sc))))
        .collect()
}

/// Hard cap on distinct states per scenario; exceeding it is HPM047.
pub const STATE_BUDGET: usize = 2_000_000;

/// Exhaustively explore one protocol scenario by BFS over the product
/// state space, checking every invariant on every transition.
pub fn explore_proto(sc: &ProtoScenario) -> ProtoOutcome {
    let init = World::new();
    let mut visited: HashSet<World> = HashSet::from([init.clone()]);
    // Per state: its parent's index and the event that reached it.
    let mut parents: Vec<(usize, String)> = vec![(usize::MAX, String::new())];
    let mut queue = VecDeque::from([(0usize, init)]);
    let mut outcome = ProtoOutcome::default();

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
        outcome.failed_reachable |= w.tx_failed;
        let succ = successors(&w, sc);
        // Terminal states have no successors by construction.
        if succ.is_empty() && !w.success() && !w.tx_failed {
            outcome.violation = Some(ProtoViolation {
                code: LintCode::ModelDeadlock,
                message: format!("reachable deadlock: no event enabled in {w:?}"),
                trace: trace_to(idx, &parents),
            });
            return outcome;
        }
        for (name, applied) in succ {
            outcome.transitions += 1;
            let n = match applied {
                Ok(n) => n,
                Err((code, message)) => {
                    outcome.violation = Some(ProtoViolation {
                        code,
                        message,
                        trace: [trace_to(idx, &parents), vec![name]].concat(),
                    });
                    return outcome;
                }
            };
            if !visited.insert(n.clone()) {
                outcome.deduped += 1;
                continue;
            }
            let nidx = parents.len();
            if nidx >= STATE_BUDGET {
                outcome.budget_exhausted = true;
                return outcome;
            }
            parents.push((idx, name));
            queue.push_back((nidx, n));
        }
    }

    if !outcome.success_reachable {
        let (deadlock, missed) = (LintCode::ModelDeadlock, LintCode::ModelRestartMissed);
        outcome.violation = Some(ProtoViolation {
            code: if sc.tamper { missed } else { deadlock },
            message: format!(
                "no successful terminal state is reachable in {} ({} states explored)",
                sc.name, outcome.states
            ),
            trace: Vec::new(),
        });
    }
    outcome
}

/// Replay a recorded event path from the initial state. Returns the
/// violation it ends in (if any); errors if some event is not enabled
/// where the trace claims it is.
pub fn replay_proto(
    sc: &ProtoScenario,
    trace: &[String],
) -> Result<Option<(LintCode, String)>, String> {
    let mut w = World::new();
    for (i, want) in trace.iter().enumerate() {
        let succ = successors(&w, sc);
        let Some((_, applied)) = succ.into_iter().find(|(name, _)| name == want) else {
            return Err(format!(
                "trace step {i} ({want}) is not enabled in this state"
            ));
        };
        match applied {
            Ok(n) => w = n,
            Err(_) if i + 1 != trace.len() => {
                return Err(format!("trace step {i} breached before the final step"))
            }
            Err(breach) => return Ok(Some(breach)),
        }
    }
    Ok(None)
}
