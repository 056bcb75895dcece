//! # hpm-net — transport layer for migration images
//!
//! The first software layer of the paper's stack (§4): "Migration
//! information can be sent to the destination machine using either TCP
//! protocol, shared file systems, or remote file transfer." One of the
//! three is modelled — a connection — because the image format above it
//! does not depend on which.
//!
//! The paper's testbed links are simulated by a [`NetworkModel`]: Tx time
//! is computed from message size, bandwidth, and latency — which is how
//! the paper's Table 1 `Tx` column behaves (it is dominated by
//! bytes ÷ link speed, not by protocol details). Actual byte delivery
//! between the two "machines" — one thread each — uses a reliable
//! in-process [`Channel`] built on `std::sync::mpsc`. Its two ends share
//! the pipe and nothing else: each is owned by one machine (no lock) and
//! counts only the messages it sent and their modeled time (no shared
//! counter). Nothing sleeps for the link: the migration driver computes a
//! streamed migration's overlap from stamps instead
//! ([`ReliableChunkReceiver::waits`] is the destination's).
//!
//! A payload crosses a channel whole, as one message, or as the one chunk
//! stream: [`ReliableChunkSender`] → [`ReliableChunkReceiver`], each chunk
//! framed once, compressed when that is smaller, and CRC-checked, in
//! order, over an ordered pipe that can break. The sender always sends
//! through a [`FaultyEndpoint`], which damages one frame or breaks the
//! pipe where a [`FaultPlan`] says (nowhere, under [`FaultPlan::none`]),
//! and counts its payload from its own send ledger. The first frame the
//! receiver cannot take ends the connection with a named [`NetError`].
//! Nothing blocks but the receiver's read of the next frame: a resuming
//! destination queues the resume handshake, the one frame that flows
//! back, before the source runs, and the sender takes it without waiting;
//! the receiver then replays its own journal before its first pipe read.
//! Endpoints can carry an [`hpm_obs::Track`]: the chunk endpoints record
//! every frame sent, received or refused on it, and at detail level
//! every channel message produces a `net.send`/`net.recv` span annotated
//! with the payload size and modeled wire time.

#![forbid(unsafe_code)]

mod channel;
mod fault;
mod model;
mod pipe;
mod pipe_core;

pub use channel::{channel_pair, Channel, NetError, TransferSnapshot};
pub use fault::{FaultPlan, FaultStats, FaultyEndpoint};
pub use model::NetworkModel;
pub use pipe::{
    ArqReceiverSnapshot, ArqSenderStats, ReliableChunkReceiver, ReliableChunkSender, WireCodec,
};
pub use pipe_core::{ArqConfig, ReceiverCore, Refused, ResumeDecision, ResumeReject, SenderCore};

#[cfg(test)]
mod model_tests {
    use super::*;

    /// Deterministic xorshift for seed-driven sweeps (no external RNG).
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Tx time is monotone in message size and inversely related to
    /// bandwidth, across a deterministic sweep of sizes.
    #[test]
    fn tx_time_monotone() {
        let m = NetworkModel::ethernet_10();
        let fast = NetworkModel::ethernet_100();
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..256 {
            let bytes_a = 1 + xorshift(&mut seed) % 10_000_000;
            let extra = 1 + xorshift(&mut seed) % 1_000_000;
            let t1 = m.tx_time(bytes_a);
            let t2 = m.tx_time(bytes_a + extra);
            assert!(t2 > t1, "tx_time not monotone at {bytes_a}+{extra}");
            assert!(
                fast.tx_time(bytes_a) < t1,
                "faster link not faster at {bytes_a}"
            );
        }
    }

    /// Messages arrive intact and in order for varied shapes and counts.
    #[test]
    fn channel_fifo() {
        let mut seed = 0xdeadbeefcafef00du64;
        for _ in 0..32 {
            let n_msgs = 1 + (xorshift(&mut seed) % 20) as usize;
            let msgs: Vec<Vec<u8>> = (0..n_msgs)
                .map(|_| {
                    let len = (xorshift(&mut seed) % 64) as usize;
                    (0..len).map(|_| xorshift(&mut seed) as u8).collect()
                })
                .collect();
            let (a, b) = channel_pair(NetworkModel::instant());
            for m in &msgs {
                a.send(m.clone()).unwrap();
            }
            for m in &msgs {
                assert_eq!(&b.recv().unwrap(), m);
            }
        }
    }
}
