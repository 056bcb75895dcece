//! Deterministic fault injection for chunked migration streams.
//!
//! A [`FaultPlan`] is a pure function from a `u64` seed to a sequence of
//! per-frame fault decisions, so any failure observed in a soak sweep is
//! replayable from its seed alone. A [`FaultyEndpoint`] wraps the source
//! side of a [`Channel`] and applies the plan to outgoing data frames;
//! the reverse (control) direction is left clean, modeling a lossy
//! forward path with a reliable acknowledgement path.
//!
//! Determinism does **not** key faults on the wire-send ordinal — the
//! position of a retransmission in the send stream depends on thread
//! timing. Instead each decision is `mix(seed, seq, attempt)` where
//! `attempt` counts how many times this endpoint has shipped that
//! sequence number. The multiset of delivered/faulted copies is then a
//! function of the plan only, which is what makes `RecoveryStats`
//! reproducible run-to-run.

use crate::channel::{Channel, NetError, TransferStats};
use hpm_obs::Track;
use hpm_xdr::peek_chunk_header;
use std::collections::HashMap;
use std::time::Duration;

/// What the injector decides to do with one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass the frame through untouched.
    Deliver,
    /// Silently discard the frame.
    Drop,
    /// Flip one payload byte (headers stay parseable so the receiver
    /// can name the damaged sequence number in its NACK).
    Corrupt,
    /// Deliver the frame twice back-to-back.
    Duplicate,
    /// Hold the frame and release it after the next fresh frame, swapping
    /// two adjacent frames on the wire.
    Reorder,
    /// Deliver, but charge an extra modeled latency against the link.
    Delay,
    /// Sever the forward path: this and every later frame is black-holed
    /// while the link still looks alive to the sender.
    Disconnect,
}

impl FaultAction {
    /// The complete fault alphabet, in injector priority order. The
    /// protocol model checker (`hpm-model`) iterates this constant so a
    /// new fault variant automatically widens the explored event space —
    /// forgetting to model it becomes a compile error, not a blind spot.
    pub const ALL: [FaultAction; 7] = [
        FaultAction::Deliver,
        FaultAction::Drop,
        FaultAction::Corrupt,
        FaultAction::Duplicate,
        FaultAction::Reorder,
        FaultAction::Delay,
        FaultAction::Disconnect,
    ];

    /// Stable lowercase name, used in model-checker event labels.
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Deliver => "deliver",
            FaultAction::Drop => "drop",
            FaultAction::Corrupt => "corrupt",
            FaultAction::Duplicate => "duplicate",
            FaultAction::Reorder => "reorder",
            FaultAction::Delay => "delay",
            FaultAction::Disconnect => "disconnect",
        }
    }
}

/// A seeded, replayable schedule of link faults.
///
/// Rates are per-mille probabilities applied independently per
/// `(sequence, attempt)` pair, in the priority order drop > corrupt >
/// duplicate > reorder > delay. `disconnect_at` fires when the k-th
/// distinct chunk is first transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Per-mille chance a frame copy is dropped.
    pub drop_per_mille: u16,
    /// Per-mille chance a frame copy has a payload byte flipped.
    pub corrupt_per_mille: u16,
    /// Per-mille chance a frame copy is delivered twice.
    pub duplicate_per_mille: u16,
    /// Per-mille chance a first transmission is swapped with its successor.
    pub reorder_per_mille: u16,
    /// Per-mille chance a frame copy is charged an extra modeled delay.
    pub delay_per_mille: u16,
    /// Black-hole the forward path at the k-th distinct chunk, if set.
    pub disconnect_at: Option<u32>,
    /// Kill the destination process just before it consumes chunk k, if
    /// set. Wired to the receiver side by the driver (the link itself
    /// stays healthy — the process behind it dies).
    pub dst_crash_at: Option<u32>,
    /// Kill the source process after it has flushed k chunks into the
    /// stream, if set. Wired to the collection stage by the driver.
    pub src_crash_at: Option<u32>,
    /// Tamper with the destination's journal between death and
    /// resume (flip one record CRC), forcing the resume handshake's digest
    /// check to reject rung 2.
    pub tamper_journal: bool,
}

/// SplitMix64-style avalanche over (seed, seq, attempt).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan that injects nothing — the identity wrapper.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_per_mille: 0,
            corrupt_per_mille: 0,
            duplicate_per_mille: 0,
            reorder_per_mille: 0,
            delay_per_mille: 0,
            disconnect_at: None,
            dst_crash_at: None,
            src_crash_at: None,
            tamper_journal: false,
        }
    }

    /// Derive a complete plan from one seed: each fault class gets a
    /// rate in 0‥60‰ and roughly one seed in eight severs the link at
    /// some early chunk. This is the soak-sweep generator.
    pub fn from_seed(seed: u64) -> Self {
        let rate = |tag: u64| (mix(seed, tag, 0x5EED) % 61) as u16;
        let disconnect_at = if mix(seed, 6, 0x5EED).is_multiple_of(8) {
            Some((mix(seed, 7, 0x5EED) % 48) as u32)
        } else {
            None
        };
        FaultPlan {
            seed,
            drop_per_mille: rate(1),
            corrupt_per_mille: rate(2),
            duplicate_per_mille: rate(3),
            reorder_per_mille: rate(4),
            delay_per_mille: rate(5),
            disconnect_at,
            ..FaultPlan::none()
        }
    }

    /// Derive a crash-soak plan from one seed: mild link noise (rates in
    /// 0‥16‰), a destination crash at an early chunk on most seeds, a
    /// source crash on roughly one seed in six, and a tampered journal on
    /// roughly one in twelve — so one sweep exercises every rung of the
    /// degradation ladder.
    pub fn crash_from_seed(seed: u64) -> Self {
        let rate = |tag: u64| (mix(seed, tag, 0xC4A5) % 17) as u16;
        let dst_crash_at = if mix(seed, 6, 0xC4A5).is_multiple_of(8) {
            None
        } else {
            Some((mix(seed, 7, 0xC4A5) % 40) as u32 + 1)
        };
        let src_crash_at = if mix(seed, 8, 0xC4A5).is_multiple_of(6) {
            Some((mix(seed, 9, 0xC4A5) % 24) as u32 + 1)
        } else {
            None
        };
        let tamper_journal = mix(seed, 10, 0xC4A5).is_multiple_of(12);
        FaultPlan {
            seed,
            drop_per_mille: rate(1),
            corrupt_per_mille: rate(2),
            duplicate_per_mille: rate(3),
            reorder_per_mille: rate(4),
            delay_per_mille: rate(5),
            disconnect_at: None,
            dst_crash_at,
            src_crash_at,
            tamper_journal,
        }
    }

    /// The plan for a resume (rung 2) re-transfer: the same link noise, but
    /// every one-shot fault — disconnect, crashes, journal tampering — has
    /// already fired and is cleared so the resumed attempt can converge.
    pub fn resume_plan(&self) -> Self {
        FaultPlan {
            disconnect_at: None,
            dst_crash_at: None,
            src_crash_at: None,
            tamper_journal: false,
            ..*self
        }
    }

    /// Total per-mille fault pressure (excluding disconnect).
    pub fn pressure_per_mille(&self) -> u32 {
        self.drop_per_mille as u32
            + self.corrupt_per_mille as u32
            + self.duplicate_per_mille as u32
            + self.reorder_per_mille as u32
            + self.delay_per_mille as u32
    }

    /// The decision for the `attempt`-th transmission of chunk `seq`.
    /// Pure: same plan, same arguments, same answer.
    pub fn action_for(&self, seq: u32, attempt: u32) -> FaultAction {
        let r = (mix(self.seed, seq as u64, attempt as u64) % 1000) as u16;
        let mut edge = self.drop_per_mille;
        if r < edge {
            return FaultAction::Drop;
        }
        edge += self.corrupt_per_mille;
        if r < edge {
            return FaultAction::Corrupt;
        }
        edge += self.duplicate_per_mille;
        if r < edge {
            return FaultAction::Duplicate;
        }
        edge += self.reorder_per_mille;
        if r < edge {
            return FaultAction::Reorder;
        }
        edge += self.delay_per_mille;
        if r < edge {
            return FaultAction::Delay;
        }
        FaultAction::Deliver
    }

    /// Byte position (within the payload data region) and XOR mask used
    /// when corrupting a frame, derived from the same seed stream.
    fn corruption(&self, seq: u32, attempt: u32, data_len: usize) -> (usize, u8) {
        let h = mix(self.seed, seq as u64 ^ 0xC0_44_17, attempt as u64);
        let off = (h % data_len as u64) as usize;
        // A zero mask would be a no-op "corruption"; force at least one bit.
        let mask = ((h >> 32) as u8) | 1;
        (off, mask)
    }
}

/// Counters describing what an injector actually did. All fields are a
/// deterministic function of the plan and the chunk stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames passed through untouched.
    pub delivered: u64,
    /// Frames silently discarded.
    pub dropped: u64,
    /// Frames delivered with a flipped payload byte.
    pub corrupted: u64,
    /// Extra copies delivered by duplication.
    pub duplicated: u64,
    /// Frame pairs swapped on the wire.
    pub reordered: u64,
    /// Frames charged an extra modeled delay.
    pub delayed: u64,
    /// Modeled nanoseconds of injected delay (never slept in real time).
    pub modeled_delay_nanos: u64,
    /// Frames black-holed after a disconnect fault.
    pub blackholed: u64,
    /// Whether the forward path was severed.
    pub disconnected: bool,
}

impl FaultStats {
    /// Total injected fault events (the numerator of a fault-rate).
    pub fn faults_injected(&self) -> u64 {
        self.dropped
            + self.corrupted
            + self.duplicated
            + self.reordered
            + self.delayed
            + self.blackholed
    }
}

/// Abstraction over the sender's forward path, so the ARQ sender runs
/// identically over a clean [`Channel`] or a [`FaultyEndpoint`].
pub trait FrameLink {
    /// Ship one data frame toward the peer (possibly faulted).
    fn send_frame(&mut self, frame: Vec<u8>) -> Result<(), NetError>;
    /// Bounded blocking wait on the reverse (control) direction.
    fn recv_control_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError>;
    /// Release any held (reordered) frame. Called once, by the sender's
    /// `finish` after the terminator is shipped, so a held terminator
    /// cannot stall the stream's final wait.
    fn flush(&mut self) -> Result<(), NetError> {
        Ok(())
    }
    /// Cumulative frame copies placed on the wire *intact* — copies the
    /// peer will parse, CRC-verify, and acknowledge. `None` means the
    /// link is lossless: every accepted send was delivered intact. The
    /// ARQ sender compares this against acknowledgements processed to
    /// decide — deterministically, with no wall-clock guesswork — whether
    /// silence means "ack in flight" or "frame lost".
    fn intact_deliveries(&self) -> Option<u64> {
        None
    }
    /// Transfer accounting for the underlying channel, when the link has
    /// one — where the ARQ sender reports raw-vs-wire payload volume.
    fn transfer_stats(&self) -> Option<&TransferStats> {
        None
    }
}

impl FrameLink for Channel {
    fn send_frame(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        self.send(frame)
    }

    fn recv_control_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.recv_timeout(timeout)
    }

    fn transfer_stats(&self) -> Option<&TransferStats> {
        Some(self.stats())
    }
}

/// The source-side channel endpoint with a [`FaultPlan`] applied to its
/// outgoing data frames. Control traffic from the peer is untouched.
pub struct FaultyEndpoint {
    ch: Channel,
    plan: FaultPlan,
    link_delay: Duration,
    /// Times each sequence number has been shipped through this endpoint
    /// (the `attempt` axis of the fault keying).
    sends_per_seq: HashMap<u32, u32>,
    /// Distinct chunks seen, for `disconnect_at`.
    distinct_seen: u32,
    held: Option<Vec<u8>>,
    disconnected: bool,
    /// Copies delivered undamaged — what the peer will acknowledge.
    intact_delivered: u64,
    stats: FaultStats,
    track: Track,
}

impl FaultyEndpoint {
    /// Wrap `ch` with `plan`. Injected delays are charged as one extra
    /// modeled link latency each.
    pub fn new(ch: Channel, plan: FaultPlan) -> Self {
        let link_delay = ch.model().latency.max(Duration::from_micros(100));
        FaultyEndpoint {
            ch,
            plan,
            link_delay,
            sends_per_seq: HashMap::new(),
            distinct_seen: 0,
            held: None,
            disconnected: false,
            intact_delivered: 0,
            stats: FaultStats::default(),
            track: Track::off(),
        }
    }

    /// Record injected faults on `track` (`fault.injected` with the
    /// sequence, attempt, and action code).
    pub fn with_track(mut self, track: Track) -> Self {
        self.track = track;
        self
    }

    fn record_fault(&self, action: &'static str, seq: u32, attempt: u32) {
        self.track.event_note(
            "fault.injected",
            &[("chunk", seq as u64), ("attempt", attempt as u64)],
            action,
        );
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The plan in force.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// The wrapped channel endpoint (e.g. for its transfer accounting).
    pub fn channel(&self) -> &Channel {
        &self.ch
    }

    fn deliver(&mut self, frame: Vec<u8>, intact: bool) -> Result<(), NetError> {
        if intact {
            self.intact_delivered += 1;
        }
        self.ch.send(frame)
    }
}

impl FrameLink for FaultyEndpoint {
    fn send_frame(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        if self.disconnected {
            self.stats.blackholed += 1;
            return Ok(());
        }
        // Frames we cannot parse get no fault treatment — the injector
        // only reasons about well-formed chunk frames.
        let Ok(header) = peek_chunk_header(&frame) else {
            return self.deliver(frame, true);
        };
        let seq = header.seq;
        let attempt = *self.sends_per_seq.get(&seq).unwrap_or(&0);
        self.sends_per_seq.insert(seq, attempt + 1);
        let fresh = attempt == 0;
        if fresh {
            if self.plan.disconnect_at == Some(self.distinct_seen) {
                self.disconnected = true;
                self.stats.disconnected = true;
                self.stats.blackholed += 1;
                self.record_fault("disconnect", seq, attempt);
                return Ok(());
            }
            self.distinct_seen += 1;
        }

        let data_len = header.payload_len;
        let action = self.plan.action_for(seq, attempt);
        let result = match action {
            FaultAction::Drop => {
                self.stats.dropped += 1;
                self.record_fault("drop", seq, attempt);
                Ok(())
            }
            FaultAction::Corrupt if data_len > 0 => {
                let (off, mask) = self.plan.corruption(seq, attempt, data_len);
                let mut damaged = frame;
                // Corrupt real data bytes only: padding must stay zero so
                // the frame still parses and the receiver can NACK `seq`.
                damaged[header.payload_at + off] ^= mask;
                self.stats.corrupted += 1;
                self.record_fault("corrupt", seq, attempt);
                // A damaged copy reaches the peer but earns no ack.
                self.deliver(damaged, false)
            }
            FaultAction::Duplicate => {
                self.stats.duplicated += 1;
                self.record_fault("duplicate", seq, attempt);
                self.deliver(frame.clone(), true)?;
                self.deliver(frame, true)
            }
            FaultAction::Reorder if fresh && self.held.is_none() => {
                self.stats.reordered += 1;
                self.record_fault("reorder", seq, attempt);
                self.held = Some(frame);
                return Ok(()); // flushed after the next fresh frame
            }
            FaultAction::Delay => {
                self.stats.delayed += 1;
                self.stats.modeled_delay_nanos += self.link_delay.as_nanos() as u64;
                self.record_fault("delay", seq, attempt);
                self.deliver(frame, true)
            }
            // Corrupt on an empty payload or Reorder while one frame is
            // already held degrade to plain delivery.
            _ => {
                self.stats.delivered += 1;
                self.deliver(frame, true)
            }
        };
        result?;
        // A held frame is released after the next *fresh* frame so the
        // swap is with its successor regardless of retransmit timing.
        if fresh {
            if let Some(held) = self.held.take() {
                self.deliver(held, true)?;
            }
        }
        Ok(())
    }

    fn recv_control_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.ch.recv_timeout(timeout)
    }

    fn flush(&mut self) -> Result<(), NetError> {
        if self.disconnected {
            self.held = None;
            return Ok(());
        }
        if let Some(held) = self.held.take() {
            self.deliver(held, true)?;
        }
        Ok(())
    }

    fn intact_deliveries(&self) -> Option<u64> {
        Some(self.intact_delivered)
    }

    fn transfer_stats(&self) -> Option<&TransferStats> {
        Some(self.ch.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_pair;
    use crate::model::NetworkModel;

    fn stored(seq: u32, payload: &[u8]) -> Vec<u8> {
        hpm_xdr::frame_chunk(seq, false, payload, false).0
    }

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        for seed in 0..64u64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
            let p = FaultPlan::from_seed(seed);
            for seq in 0..32 {
                for attempt in 0..4 {
                    assert_eq!(p.action_for(seq, attempt), p.action_for(seq, attempt));
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        // Not a tautology for a broken mix(): two arbitrary seeds must
        // disagree on at least one decision across a modest horizon.
        let a = FaultPlan::from_seed(1);
        let b = FaultPlan::from_seed(2);
        assert_ne!(a, b);
    }

    #[test]
    fn none_plan_is_transparent() {
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut ep = FaultyEndpoint::new(src, FaultPlan::none());
        for seq in 0..20u32 {
            ep.send_frame(stored(seq, &[seq as u8; 8])).unwrap();
        }
        for seq in 0..20u32 {
            let f = hpm_xdr::unframe_chunk_any(&dst.recv().unwrap()).unwrap();
            assert_eq!(f.seq, seq);
            assert!(f.verify_crc().is_ok());
        }
        assert_eq!(ep.stats().faults_injected(), 0);
        assert_eq!(ep.stats().delivered, 20);
    }

    #[test]
    fn corruption_keeps_frames_parseable() {
        let plan = FaultPlan {
            corrupt_per_mille: 1000,
            ..FaultPlan::none()
        };
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut ep = FaultyEndpoint::new(src, plan);
        ep.send_frame(stored(0, &[7; 33])).unwrap();
        let f = hpm_xdr::unframe_chunk_any(&dst.recv().unwrap()).unwrap();
        assert_eq!(f.seq, 0);
        assert!(f.verify_crc().is_err(), "payload must fail its CRC");
        assert_eq!(ep.stats().corrupted, 1);
    }

    #[test]
    fn reorder_swaps_adjacent_fresh_frames() {
        let plan = FaultPlan {
            reorder_per_mille: 1000,
            ..FaultPlan::none()
        };
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut ep = FaultyEndpoint::new(src, plan);
        ep.send_frame(stored(0, &[1; 4])).unwrap();
        ep.send_frame(stored(1, &[2; 4])).unwrap();
        ep.flush().unwrap();
        let first = hpm_xdr::unframe_chunk_any(&dst.recv().unwrap()).unwrap();
        let second = hpm_xdr::unframe_chunk_any(&dst.recv().unwrap()).unwrap();
        // Frame 0 was held; frame 1 reordered cannot hold (slot taken),
        // so it goes out first and 0 follows.
        assert_eq!((first.seq, second.seq), (1, 0));
    }

    #[test]
    fn disconnect_black_holes_from_k_onward() {
        let plan = FaultPlan {
            disconnect_at: Some(2),
            ..FaultPlan::none()
        };
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut ep = FaultyEndpoint::new(src, plan);
        for seq in 0..5u32 {
            ep.send_frame(stored(seq, &[0; 4])).unwrap();
        }
        assert!(ep.stats().disconnected);
        assert_eq!(ep.stats().blackholed, 3);
        assert_eq!(
            hpm_xdr::unframe_chunk_any(&dst.recv().unwrap())
                .unwrap()
                .seq,
            0
        );
        assert_eq!(
            hpm_xdr::unframe_chunk_any(&dst.recv().unwrap())
                .unwrap()
                .seq,
            1
        );
        assert!(dst.try_recv().is_none());
    }

    #[test]
    fn retransmissions_get_their_own_fault_decisions() {
        // With a 50% drop plan some (seq, attempt) pairs must disagree,
        // otherwise a dropped frame could never get through on retry.
        let plan = FaultPlan {
            seed: 42,
            drop_per_mille: 500,
            ..FaultPlan::none()
        };
        let mut differs = false;
        for seq in 0..64 {
            if plan.action_for(seq, 0) != plan.action_for(seq, 1) {
                differs = true;
                break;
            }
        }
        assert!(differs);
    }

    #[test]
    fn delay_is_modeled_not_slept() {
        let plan = FaultPlan {
            delay_per_mille: 1000,
            ..FaultPlan::none()
        };
        let (src, dst) = channel_pair(NetworkModel::ethernet_10());
        let mut ep = FaultyEndpoint::new(src, plan);
        let t0 = std::time::Instant::now();
        for seq in 0..50u32 {
            ep.send_frame(stored(seq, &[0; 16])).unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "delay must not sleep"
        );
        assert_eq!(ep.stats().delayed, 50);
        assert!(ep.stats().modeled_delay_nanos > 0);
        for _ in 0..50 {
            dst.recv().unwrap();
        }
    }
}
