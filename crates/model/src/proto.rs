//! Exhaustive product-state-machine exploration of the ARQ sender,
//! receiver, and resume handshake under the full fault alphabet.
//!
//! The model is a faithful small-bounds abstraction of
//! `hpm_net::arq::{ReliableChunkSender, ReliableChunkReceiver}`:
//!
//! * the sender ships while `window < cfg.window` and otherwise awaits —
//!   processing exactly one control frame when the intact-deliveries
//!   ledger says one is owed (`intact > acks_processed`), and
//!   retransmitting the window base on the modeled timeout otherwise
//!   (the deterministic gate from `await_progress`);
//! * the receiver re-acks dups below `next` (counting replays below the
//!   resume `start` without releasing them), buffers in-window
//!   out-of-order frames, NACKs each gap once, and hard-stops on frames
//!   beyond `next + window`;
//! * crash/resume follows the degradation ladder: a destination crash at
//!   chunk *k* leaves exactly `0..k` journaled; a clean resume
//!   fast-forwards both ends to *k*; a tampered journal is rejected by
//!   the digest check and falls back to a full restart.
//!
//! Every data transmission branches over [`FaultAction::ALL`] — the same
//! alphabet the runtime's fault injector draws from — so adding a fault
//! variant automatically widens the model. Two faults collapse
//! deliberately: `Corrupt` transitions like `Drop` (a damaged frame is
//! counted then left for the gap-NACK/timeout, touching no protocol
//! state), and `Reorder`/`Delay` transition like `Deliver` (delivery
//! order is already fully nondeterministic in the in-flight multiset, so
//! the held-frame schedules are a subset of the explored ones).
//!
//! Checked invariants, mapped to stable diagnostics:
//!
//! * **HPM040** — no reachable deadlock: every non-terminal state has an
//!   enabled event, and a successful terminal is reachable at all;
//! * **HPM041** — the sender window never exceeds `cfg.window`, and the
//!   receiver never sees a frame at or beyond `next + window`;
//! * **HPM042** — no chunk is released to the restorer twice within one
//!   stream attempt;
//! * **HPM043** — after a clean resume, no chunk below the resume start
//!   is ever released from the wire (verified data is never replayed);
//! * **HPM044** — a tampered journal always reaches a clean full
//!   restart, and that restart can complete.
//!
//! Retries exhausting (`RetriesExhausted`) is a *legal* terminal — the
//! degradation ladder hands the stream back to the planner — so it is
//! never reported as a deadlock.

use std::collections::{HashMap, VecDeque};

use hpm_lint::LintCode;
use hpm_net::{ArqConfig, FaultAction};

/// One control frame on the (reliable, FIFO) reverse path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Ctrl {
    /// Cumulative ack: everything below `next` is verified.
    Ack(u8),
    /// The receiver names a gap exactly once.
    Nack(u8),
}

/// The explored product state: sender × receiver × wire × ledgers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PState {
    // --- sender ---
    /// Next sequence to ship (`total` once everything is out).
    s_next: u8,
    /// Cumulative ack horizon the sender has processed.
    s_acked: u8,
    /// In-flight window: `(seq, retries)` in ship order.
    s_window: Vec<(u8, u8)>,
    /// RetriesExhausted: the legal degradation terminal.
    s_failed: bool,
    // --- receiver ---
    /// Next in-order sequence the receiver will accept.
    r_next: u8,
    /// Resume start: sequences below arrived in a previous attempt.
    r_start: u8,
    /// Bitmask of buffered out-of-order sequences.
    r_ooo: u8,
    /// Bitmask of gaps already NACKed (each named once).
    r_nacked: u8,
    /// LAST frame consumed: the receiver has hung up.
    r_done: bool,
    /// Crashed mid-stream; awaiting the resume handshake.
    r_crashed: bool,
    // --- wire ---
    /// Intact data copies in flight (sorted multiset of seqs).
    data_fly: Vec<u8>,
    /// Reverse-path control queue (reliable FIFO).
    ctrl_fly: VecDeque<Ctrl>,
    /// Forward path severed: later data copies are black-holed.
    link_dead: bool,
    /// Intact deliveries charged to the sender's determinism ledger.
    wire_intact: u8,
    /// Acks the sender has processed (the other side of the ledger).
    acks_processed: u8,
    // --- invariant bookkeeping ---
    /// Bitmask of chunks released to the restorer this attempt.
    released: u16,
    /// Chunks journaled at the moment of the crash.
    journal: u8,
    /// The resume handshake has run.
    resumed: bool,
    /// The handshake was rejected and the stream fully restarted.
    restarted: bool,
}

impl PState {
    fn initial() -> Self {
        PState {
            s_next: 0,
            s_acked: 0,
            s_window: Vec::new(),
            s_failed: false,
            r_next: 0,
            r_start: 0,
            r_ooo: 0,
            r_nacked: 0,
            r_done: false,
            r_crashed: false,
            data_fly: Vec::new(),
            ctrl_fly: VecDeque::new(),
            link_dead: false,
            wire_intact: 0,
            acks_processed: 0,
            released: 0,
            journal: 0,
            resumed: false,
            restarted: false,
        }
    }

    fn success(&self, total: u8) -> bool {
        !self.s_failed && self.s_next == total && self.s_window.is_empty() && self.r_done
    }

    fn terminal(&self, total: u8) -> bool {
        self.s_failed || self.success(total)
    }
}

/// A deliberately seeded protocol bug, used to prove the checker can
/// detect each violation class (never part of [`ProtoScenario::all`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedBug {
    /// Remove the receiver's dup guard: a frame below `next` releases
    /// its chunk to the restorer a second time.
    ReleaseDups,
}

/// One protocol scenario: bounds plus the crash/tamper script.
#[derive(Debug, Clone, Copy)]
pub struct ProtoScenario {
    /// Stable scenario name.
    pub name: &'static str,
    /// Frames in the stream, terminator included.
    pub total: u8,
    /// Send/receive window (from the real [`ArqConfig`]).
    pub window: u8,
    /// Retransmissions per frame before RetriesExhausted.
    pub max_retries: u8,
    /// Kill the destination just before it consumes this chunk.
    pub crash_at: Option<u8>,
    /// Tamper the journal between death and resume (digest mismatch).
    pub tamper: bool,
    /// Seeded bug for detection-power tests.
    pub seed: Option<SeedBug>,
}

impl ProtoScenario {
    /// Model bounds drawn from a real config: small enough to explore
    /// exhaustively, typed so config drift is caught at the source.
    fn bounds() -> ArqConfig {
        ArqConfig {
            window: 2,
            max_retries: 2,
            ..ArqConfig::default()
        }
    }

    /// Fault-alphabet stream with no crash: the steady-state protocol.
    pub fn baseline() -> Self {
        let cfg = Self::bounds();
        ProtoScenario {
            name: "arq_baseline",
            total: 4,
            window: cfg.window as u8,
            max_retries: cfg.max_retries as u8,
            crash_at: None,
            tamper: false,
            seed: None,
        }
    }

    /// Destination dies at chunk 2, journal intact: the clean-resume rung.
    pub fn resume() -> Self {
        let cfg = Self::bounds();
        ProtoScenario {
            name: "arq_resume",
            total: 4,
            window: cfg.window as u8,
            max_retries: cfg.max_retries as u8,
            crash_at: Some(2),
            tamper: false,
            seed: None,
        }
    }

    /// Destination dies at chunk 2 and its journal is tampered: the
    /// digest check must force a clean full restart.
    pub fn resume_tampered() -> Self {
        let cfg = Self::bounds();
        ProtoScenario {
            name: "arq_resume_tampered",
            total: 4,
            window: cfg.window as u8,
            max_retries: cfg.max_retries as u8,
            crash_at: Some(2),
            tamper: true,
            seed: None,
        }
    }

    /// Seeded-bug variant of the baseline: the receiver's dup guard is
    /// removed, so a duplicated or retransmitted frame releases its
    /// chunk twice. The checker must find HPM042: `run_all` runs
    /// this as its expected-catch row; it is never part of [`Self::all`].
    pub fn seeded_double_release() -> Self {
        ProtoScenario {
            name: "arq_seeded_double_release",
            seed: Some(SeedBug::ReleaseDups),
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
    /// Stable diagnostic code (HPM040–HPM044).
    pub code: LintCode,
    /// What broke.
    pub message: String,
    /// Event names from the initial state to the breach.
    pub trace: Vec<String>,
}

/// Result of exhausting one protocol scenario's state space.
#[derive(Debug, Clone)]
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

/// What applying one event yields.
enum Applied {
    /// Successor state.
    Next(PState),
    /// The event itself breached an invariant.
    Breach(LintCode, String),
}

/// Is the sender parked in `await_progress` (window full, or drained of
/// fresh frames with the window still occupied)?
fn sender_awaiting(st: &PState, sc: &ProtoScenario) -> bool {
    if st.s_failed || st.r_crashed {
        return false;
    }
    if !st.s_window.is_empty() && st.s_window.len() >= sc.window as usize {
        return true;
    }
    st.s_next >= sc.total && !st.s_window.is_empty()
}

/// Can the sender ship a fresh frame?
fn sender_shipping(st: &PState, sc: &ProtoScenario) -> bool {
    !st.s_failed && !st.r_crashed && st.s_next < sc.total && st.s_window.len() < sc.window as usize
}

/// The restricted alphabet for retransmissions. `Corrupt` transitions
/// like `Drop` and `Reorder`/`Delay` like `Deliver` (see module docs),
/// so retransmits branch over the four distinct behaviours only.
const RETRANS: [FaultAction; 4] = [
    FaultAction::Deliver,
    FaultAction::Drop,
    FaultAction::Duplicate,
    FaultAction::Disconnect,
];

/// Push one intact copy of `seq` onto the wire, if it can ever arrive.
fn fly(st: &mut PState, seq: u8) {
    st.data_fly.push(seq);
    st.data_fly.sort_unstable();
}

/// Charge intact copies to the sender's ledger and the wire. A dead
/// link black-holes silently; a dead receiver closed the channel, so
/// the copy is neither counted nor delivered.
fn transmit(st: &mut PState, seq: u8, action: FaultAction) {
    if st.link_dead || st.r_done || st.r_crashed {
        if action == FaultAction::Disconnect {
            st.link_dead = true;
        }
        return;
    }
    match action {
        FaultAction::Deliver | FaultAction::Reorder | FaultAction::Delay => {
            st.wire_intact = st.wire_intact.saturating_add(1);
            fly(st, seq);
        }
        FaultAction::Drop | FaultAction::Corrupt => {}
        FaultAction::Duplicate => {
            st.wire_intact = st.wire_intact.saturating_add(2);
            fly(st, seq);
            fly(st, seq);
        }
        FaultAction::Disconnect => {
            st.link_dead = true;
        }
    }
}

/// The receiver consumes one delivered intact frame (`recv_chunk` body).
fn receive(st: &mut PState, seq: u8, sc: &ProtoScenario) -> Result<(), (LintCode, String)> {
    if st.r_done || st.r_crashed {
        // The destination hung up; the copy is discarded at the link.
        return Ok(());
    }
    if seq < st.r_next {
        if sc.seed == Some(SeedBug::ReleaseDups) {
            // Seeded bug: the dup guard is gone, so the copy is handed
            // to the restorer again. The released-mask invariant (or
            // the resume-start invariant, whichever applies) must fire.
            if st.resumed && !st.restarted && seq < st.r_start {
                return Err((
                    LintCode::ModelResumeReplay,
                    format!(
                        "chunk {seq} released from the wire below the resume start {}",
                        st.r_start
                    ),
                ));
            }
            return Err((
                LintCode::ModelDoubleRelease,
                format!("chunk {seq} released to the restorer twice in one attempt"),
            ));
        }
        // Duplicate below next: re-ack so a sender that missed the
        // original ack prunes. A copy below the resume start is a
        // replay of verified data — absorbed, never released.
        st.ctrl_fly.push_back(Ctrl::Ack(st.r_next));
        return Ok(());
    }
    if seq >= st.r_next + sc.window {
        return Err((
            LintCode::ModelWindowOverflow,
            format!(
                "receiver saw sequence {seq} outside the receive window \
                 (next {}, window {})",
                st.r_next, sc.window
            ),
        ));
    }
    if seq == st.r_next {
        accept_chain(st, sc)?;
    } else {
        st.r_ooo |= 1 << seq;
    }
    if st.r_crashed {
        // The crash fired mid-accept: no ack leaves the dead process.
        return Ok(());
    }
    st.ctrl_fly.push_back(Ctrl::Ack(st.r_next));
    if st.r_ooo != 0 && st.r_nacked & (1 << st.r_next) == 0 {
        st.r_nacked |= 1 << st.r_next;
        st.ctrl_fly.push_back(Ctrl::Nack(st.r_next));
    }
    Ok(())
}

/// Accept `r_next` and drain the out-of-order buffer behind it,
/// releasing each chunk to the restorer exactly once (`accept` body,
/// including the injected crash that fires before consumption).
fn accept_chain(st: &mut PState, sc: &ProtoScenario) -> Result<(), (LintCode, String)> {
    loop {
        if sc.crash_at == Some(st.r_next) && !st.resumed {
            st.r_crashed = true;
            st.journal = st.r_next;
            // The process is gone: in-flight data is undeliverable and
            // its queued controls will never be read.
            st.data_fly.clear();
            st.ctrl_fly.clear();
            return Ok(());
        }
        let seq = st.r_next;
        if st.resumed && !st.restarted && seq < st.r_start {
            return Err((
                LintCode::ModelResumeReplay,
                format!(
                    "chunk {seq} released from the wire below the resume start {} — \
                     verified data replayed into the restorer",
                    st.r_start
                ),
            ));
        }
        if st.released & (1 << seq) != 0 {
            return Err((
                LintCode::ModelDoubleRelease,
                format!("chunk {seq} released to the restorer twice in one attempt"),
            ));
        }
        st.released |= 1 << seq;
        st.r_next += 1;
        if seq == sc.total - 1 {
            st.r_done = true;
            return Ok(());
        }
        if st.r_ooo & (1 << st.r_next) == 0 {
            return Ok(());
        }
        st.r_ooo &= !(1 << st.r_next);
    }
}

/// Retransmit `seq`, bumping its retry count; RetriesExhausted on
/// overflow (`handle_control` Nack arm / `await_progress` timeout arm).
fn retransmit(st: &mut PState, seq: u8, action: FaultAction, max_retries: u8) {
    let Some(entry) = st.s_window.iter_mut().find(|(s, _)| *s == seq) else {
        return; // stale NACK: frame already acked and pruned
    };
    entry.1 += 1;
    if entry.1 > max_retries {
        st.s_failed = true;
        return;
    }
    transmit(st, seq, action);
}

/// Enumerate `(event name, applied result)` for every enabled event.
fn successors(st: &PState, sc: &ProtoScenario) -> Vec<(String, Applied)> {
    let mut out = Vec::new();
    if st.terminal(sc.total) {
        return out;
    }

    // Resume handshake: the only events while the destination is down.
    if st.r_crashed && !st.resumed {
        let mut n = st.clone();
        n.resumed = true;
        n.r_crashed = false;
        n.link_dead = false;
        n.s_window.clear();
        n.data_fly.clear();
        n.ctrl_fly.clear();
        n.wire_intact = 0;
        n.acks_processed = 0;
        n.r_ooo = 0;
        n.r_nacked = 0;
        if sc.tamper {
            // Digest mismatch: the sender refuses to splice onto an
            // unverified base and the driver restarts from scratch.
            n.restarted = true;
            n.s_next = 0;
            n.s_acked = 0;
            n.r_next = 0;
            n.r_start = 0;
            n.released = 0;
            out.push(("resume.tampered_restart".into(), Applied::Next(n)));
        } else {
            // Digest ok: both ends fast-forward to the journal horizon;
            // chunks below it are replayed locally from the journal.
            n.s_next = st.journal;
            n.s_acked = st.journal;
            n.r_next = st.journal;
            n.r_start = st.journal;
            n.released = (1u16 << st.journal) - 1;
            out.push(("resume.good".into(), Applied::Next(n)));
        }
        return out;
    }

    // Sender: ship a fresh frame, branching over the full fault alphabet.
    if sender_shipping(st, sc) {
        if st.link_dead {
            // Every action black-holes identically on a severed path.
            let mut n = st.clone();
            let seq = n.s_next;
            n.s_next += 1;
            n.s_window.push((seq, 0));
            out.push((format!("ship.blackholed({seq})"), Applied::Next(n)));
        } else {
            for action in FaultAction::ALL {
                let mut n = st.clone();
                let seq = n.s_next;
                n.s_next += 1;
                n.s_window.push((seq, 0));
                transmit(&mut n, seq, action);
                out.push((format!("ship.{}({seq})", action.name()), Applied::Next(n)));
            }
        }
    }

    // Sender: await progress. The intact-deliveries ledger decides
    // deterministically between taking a control and timing out.
    if sender_awaiting(st, sc) {
        if st.wire_intact > st.acks_processed {
            if let Some(&ctrl) = st.ctrl_fly.front() {
                match ctrl {
                    Ctrl::Ack(next) => {
                        let mut n = st.clone();
                        n.ctrl_fly.pop_front();
                        n.acks_processed = n.acks_processed.saturating_add(1);
                        n.s_acked = n.s_acked.max(next);
                        n.s_window.retain(|(s, _)| *s >= next);
                        out.push((format!("ctrl.ack({next})"), Applied::Next(n)));
                    }
                    Ctrl::Nack(seq) => {
                        let base = st.clone();
                        let needs_branch = {
                            let mut probe = base.clone();
                            probe.ctrl_fly.pop_front();
                            retransmit(&mut probe, seq, FaultAction::Drop, sc.max_retries);
                            !probe.s_failed && !probe.link_dead
                        };
                        let actions: &[FaultAction] = if needs_branch {
                            &RETRANS
                        } else {
                            &RETRANS[..1]
                        };
                        for &action in actions {
                            let mut n = base.clone();
                            n.ctrl_fly.pop_front();
                            retransmit(&mut n, seq, action, sc.max_retries);
                            let label = if n.s_failed {
                                format!("ctrl.nack.exhausted({seq})")
                            } else {
                                format!("ctrl.nack.{}({seq})", action.name())
                            };
                            out.push((label, Applied::Next(n)));
                        }
                    }
                }
            }
            // Ledger owes a control but none queued yet: the sender
            // blocks; only receiver-side events can advance the state.
        } else if let Some(&(base_seq, retries)) = st.s_window.first() {
            // Ledger balanced with the window occupied: the outstanding
            // copies are provably lost — modeled timeout, retransmit.
            if retries + 1 > sc.max_retries {
                let mut n = st.clone();
                n.s_failed = true;
                out.push((format!("timeout.exhausted({base_seq})"), Applied::Next(n)));
            } else if st.link_dead || st.r_done {
                let mut n = st.clone();
                if let Some(e) = n.s_window.first_mut() {
                    e.1 += 1;
                }
                out.push((format!("timeout.blackholed({base_seq})"), Applied::Next(n)));
            } else {
                for action in RETRANS {
                    let mut n = st.clone();
                    if let Some(e) = n.s_window.first_mut() {
                        e.1 += 1;
                    }
                    transmit(&mut n, base_seq, action);
                    out.push((
                        format!("timeout.{}({base_seq})", action.name()),
                        Applied::Next(n),
                    ));
                }
            }
        }
    }

    // Wire: deliver any in-flight intact data copy (full reordering).
    let mut seen = 0u16;
    for &seq in &st.data_fly {
        if seen & (1 << seq) != 0 {
            continue; // identical copies yield identical successors
        }
        seen |= 1 << seq;
        let mut n = st.clone();
        let pos = n
            .data_fly
            .iter()
            .position(|s| *s == seq)
            .expect("copy present");
        n.data_fly.remove(pos);
        let name = format!("data.deliver({seq})");
        match receive(&mut n, seq, sc) {
            Ok(()) => out.push((name, Applied::Next(n))),
            Err((code, msg)) => out.push((name, Applied::Breach(code, msg))),
        }
    }

    out
}

/// Hard cap on distinct states per scenario; exceeding it is HPM047.
pub const STATE_BUDGET: usize = 2_000_000;

/// Exhaustively explore one protocol scenario by BFS over the product
/// state space, checking every invariant on every transition.
pub fn explore_proto(sc: &ProtoScenario) -> ProtoOutcome {
    let init = PState::initial();
    let mut states: Vec<PState> = vec![init.clone()];
    // state -> (index, parent index, event that reached it)
    let mut visited: HashMap<PState, usize> = HashMap::new();
    let mut parents: Vec<(usize, String)> = vec![(usize::MAX, String::new())];
    visited.insert(init, 0);

    let mut outcome = ProtoOutcome {
        states: 0,
        transitions: 0,
        deduped: 0,
        violation: None,
        success_reachable: false,
        failed_reachable: false,
        budget_exhausted: false,
    };

    let trace_to = |idx: usize, parents: &[(usize, String)], tail: Option<String>| {
        let mut path = Vec::new();
        let mut cur = idx;
        while cur != 0 {
            let (p, ref ev) = parents[cur];
            path.push(ev.clone());
            cur = p;
        }
        path.reverse();
        if let Some(t) = tail {
            path.push(t);
        }
        path
    };

    let mut frontier = 0usize;
    while frontier < states.len() {
        let idx = frontier;
        frontier += 1;
        outcome.states += 1;
        let st = states[idx].clone();

        if st.success(sc.total) {
            outcome.success_reachable = true;
            continue;
        }
        if st.s_failed {
            outcome.failed_reachable = true;
            continue;
        }

        let succ = successors(&st, sc);
        if succ.is_empty() {
            outcome.violation = Some(ProtoViolation {
                code: LintCode::ModelDeadlock,
                message: format!(
                    "reachable deadlock: no event enabled in non-terminal state \
                     (s_next {}, window {:?}, r_next {}, data_fly {:?}, ctrl_fly {:?})",
                    st.s_next, st.s_window, st.r_next, st.data_fly, st.ctrl_fly
                ),
                trace: trace_to(idx, &parents, None),
            });
            return outcome;
        }
        for (name, applied) in succ {
            outcome.transitions += 1;
            match applied {
                Applied::Breach(code, message) => {
                    outcome.violation = Some(ProtoViolation {
                        code,
                        message,
                        trace: trace_to(idx, &parents, Some(name)),
                    });
                    return outcome;
                }
                Applied::Next(n) => {
                    if n.s_window.len() > sc.window as usize {
                        outcome.violation = Some(ProtoViolation {
                            code: LintCode::ModelWindowOverflow,
                            message: format!(
                                "sender window grew to {} frames (config window {})",
                                n.s_window.len(),
                                sc.window
                            ),
                            trace: trace_to(idx, &parents, Some(name)),
                        });
                        return outcome;
                    }
                    if visited.contains_key(&n) {
                        outcome.deduped += 1;
                        continue;
                    }
                    let nidx = states.len();
                    if nidx >= STATE_BUDGET {
                        outcome.budget_exhausted = true;
                        return outcome;
                    }
                    visited.insert(n.clone(), nidx);
                    states.push(n);
                    parents.push((idx, name));
                }
            }
        }
    }

    if !outcome.success_reachable {
        let code = if sc.tamper {
            LintCode::ModelRestartMissed
        } else {
            LintCode::ModelDeadlock
        };
        outcome.violation = Some(ProtoViolation {
            code,
            message: format!(
                "no successful terminal state is reachable in {} ({} states explored)",
                sc.name, outcome.states
            ),
            trace: Vec::new(),
        });
        return outcome;
    }

    // The tampered-journal scenario must never complete without having
    // restarted: completing on the resumed splice would mean the digest
    // check failed open.
    if sc.tamper {
        for (st, &idx) in &visited {
            if st.success(sc.total) && !st.restarted {
                outcome.violation = Some(ProtoViolation {
                    code: LintCode::ModelRestartMissed,
                    message: "stream completed after a tampered journal without a full \
                              restart — the digest check failed open"
                        .into(),
                    trace: trace_to(idx, &parents, None),
                });
                return outcome;
            }
        }
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
    let mut st = PState::initial();
    for (i, want) in trace.iter().enumerate() {
        let succ = successors(&st, sc);
        let Some((_, applied)) = succ.into_iter().find(|(name, _)| name == want) else {
            return Err(format!(
                "trace step {i} ({want}) is not enabled in this state"
            ));
        };
        match applied {
            Applied::Next(n) => {
                if n.s_window.len() > sc.window as usize {
                    return Ok(Some((
                        LintCode::ModelWindowOverflow,
                        format!("sender window grew to {} frames", n.s_window.len()),
                    )));
                }
                st = n;
            }
            Applied::Breach(code, msg) => {
                if i + 1 != trace.len() {
                    return Err(format!("trace step {i} breached before the final step"));
                }
                return Ok(Some((code, msg)));
            }
        }
    }
    Ok(None)
}
