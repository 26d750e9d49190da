//! Wire-identity witness for the gather send path: a message handed to
//! the transport as 1–3 parts, cut at arbitrary boundaries (empty parts,
//! segment and cell edges), must put exactly the bytes on the wire that
//! the same message as one buffer does — every delivered payload, every
//! run image byte including the AAL5 trailer and CRC, and every
//! retransmission over a lossy link. The AAL5 writer is checked on its
//! own too: the pooled gather write against the single-buffer one, with
//! recycled (dirty) pool buffers.

use bytes::Bytes;
use mits_atm::transport::MSS;
use mits_atm::{aal5, AtmNetwork, LinkProfile, ReliableChannel, ServiceClass, TransportEvent};
use mits_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::Arc;

/// Message lengths around the edges the segmenter cares about, plus
/// anything up to a little past 64 KiB.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(MSS - 1),
        Just(MSS),
        Just(MSS + 1),
        Just(8 * MSS),
        Just(8 * MSS + 1),
        Just(48 * 1366),
        0usize..70_000,
    ]
}

/// Up to two cut points, each drawn as (kind, random): the message's
/// ends, a segment edge (MSS−1, MSS, MSS+1), a 48-byte cell multiple, or
/// anywhere.
fn arb_cuts() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..5, any::<u64>()), 0..3)
}

/// The message's parts: `msg` cut at the points `cuts` picks (clamped to
/// its length and sorted), so 1–3 parts, possibly empty.
fn split(msg: &Bytes, cuts: &[(u8, u64)]) -> Vec<Bytes> {
    let len = msg.len();
    let mut at: Vec<usize> = cuts
        .iter()
        .map(|&(kind, r)| match kind {
            0 => 0,
            1 => len,
            2 => MSS - 1 + (r % 3) as usize,
            3 => (r as usize % (len / 48 + 1)) * 48,
            _ => r as usize % (len + 1),
        })
        .map(|c| c.min(len))
        .collect();
    at.sort_unstable();
    let mut parts = Vec::new();
    let mut from = 0;
    for c in at {
        parts.push(msg.slice(from..c));
        from = c;
    }
    parts.push(msg.slice(from..));
    parts
}

fn message(len: usize, seed: u64) -> Bytes {
    let mut x = seed | 1;
    Bytes::from(
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect::<Vec<u8>>(),
    )
}

/// One delivered PDU as the receiver saw it.
#[derive(Debug, PartialEq)]
struct Pdu {
    at_us: u64,
    vc: u16,
    payload: Vec<u8>,
    /// The whole run image the payload views: padding, trailer and CRC.
    image: Vec<u8>,
    /// The payload's window in that image.
    window: (usize, usize),
}

/// Everything observable about one transfer.
#[derive(Debug, PartialEq)]
struct Wire {
    pdus: Vec<Pdu>,
    tx_events: Vec<TransportEvent>,
    rx_events: Vec<TransportEvent>,
    /// Sender and receiver (segments_tx, retransmissions, segments_rx,
    /// duplicates, acks_tx).
    chans: [(u64, u64, u64, u64, u64); 2],
    /// Per VC (cells_sent, cells_delivered, cells_dropped, pdus_sent,
    /// pdus_delivered, pdus_failed, bytes_sent).
    vcs: Vec<(u64, u64, u64, u64, u64, u64, u64)>,
}

/// Send `parts` as one message from a to b over a → switch → b, whose
/// second hop drops cells at `loss_ppm` in both directions, and record
/// the wire until both ends are idle.
fn transfer(parts: &[Bytes], loss_ppm: u32, seed: u64) -> Wire {
    let lossy = LinkProfile {
        loss_rate: f64::from(loss_ppm) / 1e6,
        ..LinkProfile::atm_oc3()
    };
    let mut net = AtmNetwork::new(seed);
    let a = net.add_host("a");
    let s = net.add_switch("s");
    let b = net.add_host("b");
    net.connect(a, s, LinkProfile::atm_oc3());
    net.connect(s, b, lossy);
    let up = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
    let down = net.open_vc(&[b, s, a], ServiceClass::Ubr, None).unwrap();
    let timeout = SimDuration::from_millis(20);
    let mut tx = ReliableChannel::new(up, down, 4, timeout);
    let mut rx = ReliableChannel::new(down, up, 4, timeout);
    tx.send_message(&mut net, parts).unwrap();
    let mut wire = Wire {
        pdus: Vec::new(),
        tx_events: Vec::new(),
        rx_events: Vec::new(),
        chans: [(0, 0, 0, 0, 0); 2],
        vcs: Vec::new(),
    };
    let deadline = SimTime::from_secs(600);
    let mut deliveries = Vec::new();
    while !(net.idle() && tx.send_idle() && rx.send_idle()) && net.now() < deadline {
        let step = net
            .next_event_time()
            .into_iter()
            .chain(tx.next_timeout())
            .chain(rx.next_timeout())
            .min()
            .unwrap_or(deadline)
            .clamp(net.now(), deadline);
        net.advance_until_delivery(step, &mut deliveries);
        for d in deliveries.drain(..) {
            wire.pdus.push(Pdu {
                at_us: d.at.as_micros(),
                vc: d.vc.0,
                payload: d.payload.to_vec(),
                image: d.payload.shared().to_vec(),
                window: d.payload.shared_range(),
            });
            wire.tx_events.extend(tx.on_delivery(&mut net, &d).unwrap());
            wire.rx_events.extend(rx.on_delivery(&mut net, &d).unwrap());
        }
        tx.on_tick(&mut net).unwrap();
        rx.on_tick(&mut net).unwrap();
    }
    for (slot, ch) in wire.chans.iter_mut().zip([&tx, &rx]) {
        let s = ch.stats;
        *slot = (
            s.segments_tx,
            s.retransmissions,
            s.segments_rx,
            s.duplicates,
            s.acks_tx,
        );
    }
    for vc in [up, down] {
        let s = net.vc_stats(vc).unwrap();
        wire.vcs.push((
            s.cells_sent,
            s.cells_delivered,
            s.cells_dropped,
            s.pdus_sent,
            s.pdus_delivered,
            s.pdus_failed,
            s.bytes_sent,
        ));
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A message sent as parts is the message sent whole, on the wire.
    #[test]
    fn parts_put_the_concatenation_on_the_wire(
        len in arb_len(),
        cuts in arb_cuts(),
        loss_ppm in 0u32..3_000,
        seed in any::<u64>(),
    ) {
        let msg = message(len, seed);
        let parts = split(&msg, &cuts);
        prop_assert_eq!(parts.iter().map(Bytes::len).sum::<usize>(), len);
        let gathered = transfer(&parts, loss_ppm, seed);
        let whole = transfer(std::slice::from_ref(&msg), loss_ppm, seed);
        prop_assert_eq!(&gathered.rx_events, &vec![TransportEvent::Message(msg.clone())]);
        prop_assert_eq!(&gathered.tx_events, &vec![TransportEvent::Sent(0)]);
        prop_assert_eq!(gathered, whole);
    }

    /// The pooled gather write of the run image is the single-buffer
    /// write of the concatenation, including into recycled buffers that
    /// still hold an earlier run.
    #[test]
    fn pooled_gather_run_matches_single_buffer_run(
        len in arb_len(),
        cuts in arb_cuts(),
        seed in any::<u64>(),
    ) {
        let mut pool = Vec::new();
        for round in 0..3u64 {
            let msg = message(len, seed.wrapping_add(round));
            let parts = split(&msg, &cuts);
            let pdu: Vec<&[u8]> = parts.iter().map(|p| &p[..]).collect();
            let pooled = aal5::segment_run_pooled(&pdu, &mut pool);
            let fresh = aal5::segment_run(&msg);
            prop_assert_eq!(pooled.ncells, fresh.ncells);
            prop_assert_eq!(&pooled.payload[..], &fresh.payload[..]);
            prop_assert!(!Arc::ptr_eq(pooled.payload.shared(), fresh.payload.shared()));
        }
        // Every round after the first rewrote the first round's buffer.
        prop_assert!(pool.len() <= 1, "pool grew to {} buffers", pool.len());
    }
}
