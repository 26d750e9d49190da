//! Wire-identity witness for the by-reference send path: a message
//! handed to the transport as 1–3 parts, cut at arbitrary boundaries
//! (empty parts, segment and cell edges), must put exactly the bytes on
//! the wire that the same message as one buffer does — every delivered
//! payload, every timer and counter, and every retransmission over a
//! lossy link — and a clean network must hand it up as one view of the
//! sender's buffer. The AAL5 gather run is checked on its own too:
//! against the single-buffer run and the per-cell segmentation, and
//! through a network with and without cell trains.

use bytes::{Bytes, PartList};
use mits_atm::transport::MSS;
use mits_atm::{
    aal5, AtmNetwork, Delivery, LinkProfile, ReliableChannel, ServiceClass, TransportEvent,
};
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

/// Up to `max` cut points, each drawn as (kind, random): the message's
/// ends, a segment edge (MSS−1, MSS, MSS+1), a 48-byte cell multiple,
/// one byte past another cut, or anywhere.
fn arb_cuts(max: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..6, any::<u64>()), 0..max + 1)
}

/// The message's parts: `msg` cut at the points `cuts` picks (clamped to
/// its length and sorted), so one more part than cuts, possibly empty or
/// a single byte.
fn split(msg: &Bytes, cuts: &[(u8, u64)]) -> Vec<Bytes> {
    let len = msg.len();
    let mut at: Vec<usize> = Vec::new();
    for &(kind, r) in cuts {
        let c = match kind {
            0 => 0,
            1 => len,
            2 => MSS - 1 + (r % 3) as usize,
            3 => (r as usize % (len / 48 + 1)) * 48,
            4 => at.last().map_or(1, |&c| c + 1),
            _ => r as usize % (len + 1),
        };
        at.push(c.min(len));
    }
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

/// Everything observable about one transfer.
#[derive(Debug, PartialEq)]
struct Wire {
    /// Every delivered PDU as the receiver saw it: instant, VC and
    /// bytes, however they are cut into parts.
    pdus: Vec<Delivery>,
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
            wire.tx_events.extend(tx.on_delivery(&mut net, &d).unwrap());
            wire.rx_events.extend(rx.on_delivery(&mut net, &d).unwrap());
            wire.pdus.push(d);
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

/// One PDU sent as `parts` over host → switch → host, with cell trains
/// or pinned to the per-cell scheduler; also how many runs went by
/// train.
fn deliver(parts: &[Bytes], per_cell: bool) -> (Vec<Delivery>, u64) {
    let mut net = AtmNetwork::new(9);
    if per_cell {
        net.force_per_cell();
    }
    let a = net.add_host("a");
    let s = net.add_switch("s");
    let b = net.add_host("b");
    net.connect(a, s, LinkProfile::atm_oc3());
    net.connect(s, b, LinkProfile::atm_oc3());
    let vc = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
    net.send(vc, parts).unwrap();
    let delivered = net.drain(SimTime::from_secs(60));
    (delivered, net.train_stats().runs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A message sent as parts is the message sent whole, on the wire.
    #[test]
    fn parts_put_the_concatenation_on_the_wire(
        len in arb_len(),
        cuts in arb_cuts(2),
        loss_ppm in 0u32..3_000,
        seed in any::<u64>(),
    ) {
        let msg = message(len, seed);
        let parts = split(&msg, &cuts);
        prop_assert_eq!(parts.iter().map(Bytes::len).sum::<usize>(), len);
        let gathered = transfer(&parts, loss_ppm, seed);
        let whole = transfer(std::slice::from_ref(&msg), loss_ppm, seed);
        let sent = TransportEvent::Message(PartList::from(msg.clone()));
        prop_assert_eq!(&gathered.rx_events, &vec![sent]);
        prop_assert_eq!(&gathered.tx_events, &vec![TransportEvent::Sent(0)]);
        prop_assert_eq!(gathered, whole);
    }

    /// Over a clean network, a message sent as any split of one buffer
    /// arrives as one view of that buffer: the segments that rode a cell
    /// train are its windows, the receiver joins adjacent windows back
    /// up, and a short last segment, which the per-cell scheduler
    /// copies, joins by comparison.
    #[test]
    fn split_messages_arrive_as_one_view_of_the_sender_buffer(
        len in arb_len(),
        cuts in arb_cuts(2),
        seed in any::<u64>(),
    ) {
        let msg = message(len, seed);
        let wire = transfer(&split(&msg, &cuts), 0, seed);
        let got: Vec<&PartList> = wire
            .rx_events
            .iter()
            .filter_map(|e| match e {
                TransportEvent::Message(m) => Some(m),
                _ => None,
            })
            .collect();
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(got[0].to_vec(), msg.to_vec());
        if len == 0 {
            prop_assert!(got[0].parts().is_empty());
        } else {
            prop_assert_eq!(got[0].parts().len(), 1);
        }
        // A first segment of three cells or fewer (6-byte header and
        // 8-byte trailer included) rides the per-cell scheduler, which
        // copies it; anything longer starts with a train.
        if len > 3 * 48 - 14 {
            let view = &got[0].parts()[0];
            prop_assert!(Arc::ptr_eq(view.shared(), msg.shared()), "a copy, not a view");
            prop_assert_eq!(view.shared_range(), msg.shared_range());
        }
    }

    /// The gather run of any split of a PDU — empty and one-byte parts
    /// included — is the single-buffer run: the same cell count, trailer
    /// and CRC, and the same per-cell payloads as segmenting the
    /// concatenation into cells. It reassembles to the sender's own
    /// views, and a network carries the same bytes with cell trains
    /// (which deliver those views) as pinned to the per-cell scheduler
    /// (which delivers one flattened copy).
    #[test]
    fn gather_run_matches_single_buffer_run(
        len in arb_len(),
        cuts in arb_cuts(5),
        seed in any::<u64>(),
    ) {
        let msg = message(len, seed);
        let parts = split(&msg, &cuts);
        let gathered = aal5::segment_run(&parts);
        let whole = aal5::segment_run(std::slice::from_ref(&msg));
        prop_assert_eq!(gathered.ncells, whole.ncells);
        prop_assert_eq!(gathered.trailer, whole.trailer);
        let cells = aal5::segment(0, 5, 1, &msg);
        prop_assert_eq!(cells.len(), gathered.ncells);
        let flat = gathered.flatten();
        for (k, cell) in cells.iter().enumerate() {
            prop_assert_eq!(&flat[k * 48..(k + 1) * 48], &cell.payload[..], "cell {}", k);
        }
        let back = aal5::reassemble_run(gathered).expect("clean run");
        prop_assert_eq!(back.concat(), msg.to_vec());
        prop_assert!(back.iter().all(|p| Arc::ptr_eq(p.shared(), msg.shared())));

        let (batched, runs) = deliver(&parts, false);
        let (per_cell, _) = deliver(&parts, true);
        prop_assert_eq!(batched.len(), 1);
        prop_assert_eq!(&batched, &per_cell);
        prop_assert_eq!(batched[0].payload.to_vec(), msg.to_vec());
        if runs > 0 {
            let views = batched[0].payload.parts();
            prop_assert!(views.iter().all(|p| Arc::ptr_eq(p.shared(), msg.shared())));
        }
        if len > 0 {
            let copy = &per_cell[0].payload.parts()[0];
            prop_assert!(!Arc::ptr_eq(copy.shared(), msg.shared()));
        }
    }
}
