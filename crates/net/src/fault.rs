//! Deterministic fault injection for chunked migration streams.
//!
//! The link is an ordered pipe that can break, so its faults are points:
//! the pipe delivers one damaged frame, or it ends. A [`FaultPlan`] names
//! at which frame each fires — and, for the two process faults and the
//! journal tampering the driver wires up, at which chunk — so any failure
//! a soak sweep observes replays from the plan alone. A
//! [`FaultyEndpoint`] wraps the source side of a [`Channel`] and applies
//! the pipe faults to the frames it carries, counted in frames through
//! this endpoint. Every chunk sender sends through one; a clean link is
//! the endpoint under [`FaultPlan::none`], which `From<Channel>` builds.

use crate::channel::{Channel, NetError, TransferSnapshot};
use hpm_obs::Track;

/// A replayable schedule of one-shot faults. Each fires at most once per
/// migration: the driver clears them all ([`FaultPlan::resume_plan`]) for
/// the connection that follows a failed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the damage a corrupted frame takes.
    pub seed: u64,
    /// The pipe delivers the k-th frame of the connection with one byte
    /// damaged, if set.
    pub corrupt_at: Option<u32>,
    /// The pipe breaks instead of carrying the k-th frame, if set: that
    /// frame and every later one are never delivered.
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

/// SplitMix64-style avalanche over (seed, a, b).
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
            corrupt_at: None,
            disconnect_at: None,
            dst_crash_at: None,
            src_crash_at: None,
            tamper_journal: false,
        }
    }

    /// Derive a pipe-fault plan from one seed: seven seeds in eight damage
    /// a frame, and one in four breaks the pipe (a seed may draw both; the
    /// earlier fires). Each point is a frame below 64, log-uniform — as
    /// likely in 0‥1 as in 32‥63 — so a stream of a few frames and one of
    /// dozens both see faults, early and deep. This is the soak generator
    /// for the link.
    pub fn from_seed(seed: u64) -> Self {
        let at = |tag: u64, one_in: u64, fires: bool| {
            let hit = mix(seed, tag, 0x5EED).is_multiple_of(one_in) == fires;
            let h = mix(seed, tag + 1, 0x5EED);
            hit.then(|| ((h >> 8) % (2 << (h % 6))) as u32)
        };
        FaultPlan {
            seed,
            corrupt_at: at(1, 8, false),
            disconnect_at: at(3, 4, true),
            ..FaultPlan::none()
        }
    }

    /// Derive a process-fault plan from one seed: a destination crash at
    /// one of the first 40 chunks on seven seeds in eight, a source crash
    /// at one of the first 24 on roughly one in six, and a tampered
    /// journal on roughly one in twelve — so one sweep exercises every
    /// rung of the degradation ladder.
    pub fn crash_from_seed(seed: u64) -> Self {
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
        FaultPlan {
            seed,
            dst_crash_at,
            src_crash_at,
            tamper_journal: mix(seed, 10, 0xC4A5).is_multiple_of(12),
            ..FaultPlan::none()
        }
    }

    /// The plan for the connection after a failed one: every fault has
    /// already fired, or had its chance, and is cleared.
    pub fn resume_plan(&self) -> Self {
        FaultPlan {
            seed: self.seed,
            ..FaultPlan::none()
        }
    }

    /// Byte position within a `len`-byte frame and the XOR mask a
    /// corrupted frame takes, derived from the seed. Any byte may be hit:
    /// the receiver must refuse the frame whatever word the damage is in.
    fn corruption(&self, len: usize) -> (usize, u8) {
        let h = mix(self.seed, 0xC0_44_17, len as u64);
        // A zero mask would be a no-op "corruption"; force at least one bit.
        ((h % len as u64) as usize, ((h >> 32) as u8) | 1)
    }
}

/// What an injector did. A deterministic function of the plan and the
/// chunk stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames delivered with a damaged byte.
    pub corrupted: u64,
    /// Whether the pipe broke.
    pub disconnected: bool,
}

impl FaultStats {
    /// Total injected fault events.
    pub fn faults_injected(&self) -> u64 {
        self.corrupted + self.disconnected as u64
    }
}

/// The source-side channel endpoint with a [`FaultPlan`]'s pipe faults
/// applied to its outgoing frames: the one link every chunk sender sends
/// through, clean under [`FaultPlan::none`]. Control traffic from the
/// peer is untouched.
pub struct FaultyEndpoint {
    ch: Channel,
    plan: FaultPlan,
    /// Frames offered so far: the k of `corrupt_at` and `disconnect_at`.
    frames: u32,
    stats: FaultStats,
    track: Track,
}

impl FaultyEndpoint {
    /// Wrap `ch` with `plan`.
    pub fn new(ch: Channel, plan: FaultPlan) -> Self {
        FaultyEndpoint {
            ch,
            plan,
            frames: 0,
            stats: FaultStats::default(),
            track: Track::off(),
        }
    }

    /// Record injected faults on `track` (`fault.injected` with the frame
    /// and the fault's name).
    pub fn with_track(mut self, track: Track) -> Self {
        self.track = track;
        self
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// What the wrapped channel end sent.
    pub(crate) fn sent(&self) -> TransferSnapshot {
        self.ch.stats()
    }

    /// Ship one data frame toward the peer, as the plan says.
    pub fn send_frame(&mut self, mut frame: Vec<u8>) -> Result<(), NetError> {
        if self.stats.disconnected {
            return Err(NetError::Disconnected);
        }
        let k = self.frames;
        self.frames += 1;
        if self.plan.disconnect_at == Some(k) {
            self.stats.disconnected = true;
            self.track
                .event_note("fault.injected", &[("chunk", k as u64)], "disconnect");
            return Err(NetError::Disconnected);
        }
        if self.plan.corrupt_at == Some(k) {
            let (at, mask) = self.plan.corruption(frame.len());
            frame[at] ^= mask;
            self.stats.corrupted += 1;
            self.track
                .event_note("fault.injected", &[("chunk", k as u64)], "corrupt");
        }
        self.ch.send(frame)
    }

    /// The control frame the peer queued on the reverse direction, if
    /// any; never blocks.
    pub fn try_recv_control(&self) -> Option<Vec<u8>> {
        self.ch.try_recv()
    }
}

/// A clean link: the endpoint under [`FaultPlan::none`].
impl From<Channel> for FaultyEndpoint {
    fn from(ch: Channel) -> Self {
        FaultyEndpoint::new(ch, FaultPlan::none())
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
            assert_eq!(
                FaultPlan::crash_from_seed(seed),
                FaultPlan::crash_from_seed(seed)
            );
        }
        // Not a tautology for a broken mix(): the sweep draws both kinds.
        let plans: Vec<_> = (0..64).map(FaultPlan::from_seed).collect();
        assert!(plans.iter().any(|p| p.corrupt_at.is_some()));
        assert!(plans.iter().any(|p| p.disconnect_at.is_some()));
        assert!(plans.iter().any(|p| *p
            == FaultPlan {
                seed: p.seed,
                ..FaultPlan::none()
            }));
        // Points reach deep into a stream, not only its first frames.
        assert!(plans.iter().any(|p| p.corrupt_at.is_some_and(|k| k >= 32)));
        let crashes: Vec<_> = (0..64).map(FaultPlan::crash_from_seed).collect();
        assert!(crashes
            .iter()
            .any(|p| p.dst_crash_at.is_some_and(|k| k > 24)));
        assert!(crashes
            .iter()
            .any(|p| p.src_crash_at.is_some_and(|k| k > 8)));
        assert_eq!(
            plans[5].resume_plan(),
            FaultPlan {
                seed: 5,
                ..FaultPlan::none()
            }
        );
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
        assert_eq!(ep.stats(), FaultStats::default());
    }

    #[test]
    fn corruption_damages_exactly_the_kth_frame() {
        let plan = FaultPlan {
            seed: 3,
            corrupt_at: Some(1),
            ..FaultPlan::none()
        };
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut ep = FaultyEndpoint::new(src, plan);
        let frames: Vec<_> = (0..3).map(|seq| stored(seq, &[7; 33])).collect();
        for f in &frames {
            ep.send_frame(f.clone()).unwrap();
        }
        let got: Vec<_> = (0..3).map(|_| dst.recv().unwrap()).collect();
        assert_eq!((&got[0], &got[2]), (&frames[0], &frames[2]));
        let differ = got[1].iter().zip(&frames[1]).filter(|(a, b)| a != b);
        assert_eq!(differ.count(), 1, "one byte of frame 1 is damaged");
        assert_eq!(ep.stats().faults_injected(), 1);
    }

    #[test]
    fn disconnect_ends_the_pipe_at_k() {
        let plan = FaultPlan {
            disconnect_at: Some(2),
            ..FaultPlan::none()
        };
        let (src, dst) = channel_pair(NetworkModel::instant());
        let mut ep = FaultyEndpoint::new(src, plan);
        for seq in 0..5u32 {
            let sent = ep.send_frame(stored(seq, &[0; 4]));
            assert_eq!(sent.is_ok(), seq < 2, "frame {seq}");
        }
        assert!(ep.stats().disconnected);
        for seq in 0..2 {
            let f = hpm_xdr::unframe_chunk_any(&dst.recv().unwrap()).unwrap();
            assert_eq!(f.seq, seq);
        }
        assert!(dst.try_recv().is_none());
    }
}
