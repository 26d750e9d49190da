//! Transport over AAL5 — the TCP/UDP role of the prototype
//! ("the implementation makes use of the ATM network and the
//! communication protocols (TCP/IP/UDP) for communication", §5.1.2).
//!
//! Datagram service is the network itself (one `send` = one PDU, lost
//! PDUs are simply gone). [`ReliableChannel`] adds what the courseware
//! database protocol needs: ordered, loss-recovering message delivery
//! using a sliding window with cumulative acks and timeout retransmission.
//!
//! One `ReliableChannel` is one *endpoint*; a connection is two endpoints
//! over a pair of opposed VCs. Both endpoints can send (full duplex).

use crate::network::{AtmNetwork, Delivery, NetError, VcId};
use bytes::{Bytes, PartList};
use mits_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Maximum segment payload (fits comfortably in one AAL5 PDU while
/// keeping retransmission granularity useful).
pub const MSS: usize = 8 * 1024;
/// Frame type tags.
const FT_DATA: u8 = 0;
const FT_ACK: u8 = 1;
/// Per-segment header: type(1) + seq(4) + flags(1).
const HDR: usize = 6;
const FLAG_LAST_FRAG: u8 = 1;
/// Most parts a message may be handed over as
/// ([`ReliableChannel::send_message`]) and is handed up as
/// ([`TransportEvent::Message`]): a database response is a head and the
/// stored media it carries, with room for one more.
pub const MAX_PARTS: usize = 3;

/// One data segment as the wire carries it: its header, then views into
/// the message parts it covers, in order. The header is a window of one
/// buffer that holds every header of the message. No payload byte is
/// copied; a retransmission re-sends the same views.
struct Segment {
    pdu: Vec<Bytes>,
}

impl Segment {
    fn seq(&self) -> u32 {
        u32::from_be_bytes(self.pdu[0][1..5].try_into().expect("4 bytes"))
    }

    fn send(&self, net: &mut AtmNetwork, vc: VcId) -> Result<u64, NetError> {
        net.send(vc, &self.pdu)
    }
}

/// The first `N` bytes of a PDU, gathered across its parts, or `None`
/// when it is shorter.
fn prefix<const N: usize>(pdu: &PartList) -> Option<[u8; N]> {
    let mut out = [0u8; N];
    let mut at = 0;
    for part in pdu.parts() {
        if at == N {
            break;
        }
        let take = (N - at).min(part.len());
        out[at..at + take].copy_from_slice(&part[..take]);
        at += take;
    }
    (at == N).then_some(out)
}

/// A transmitted segment awaiting its cumulative ack.
struct Unacked {
    segment: Segment,
    deadline: SimTime,
    retries: u32,
}

/// Events surfaced to the application.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportEvent {
    /// A complete, ordered message arrived, as at most [`MAX_PARTS`]
    /// parts. When every segment rode the network by reference these are
    /// windows of the sender's own buffers, adjacent windows joined back
    /// into one; otherwise the message is one buffer, copied once.
    Message(PartList),
    /// All segments of the `n`-th message we sent have been acknowledged.
    Sent(u64),
}

/// Statistics for a channel endpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelStats {
    /// Segments transmitted (including retransmissions).
    pub segments_tx: u64,
    /// Retransmissions alone.
    pub retransmissions: u64,
    /// Segments received in order.
    pub segments_rx: u64,
    /// Duplicate segments discarded.
    pub duplicates: u64,
    /// Acks transmitted.
    pub acks_tx: u64,
}

/// One reliable endpoint.
pub struct ReliableChannel {
    /// VC we transmit on (data and acks).
    out_vc: VcId,
    /// VC we expect deliveries from.
    in_vc: VcId,
    window: usize,
    timeout: SimDuration,
    // Sender state.
    next_seq: u32,
    send_buffer: VecDeque<Segment>,     // not yet admitted to window
    unacked: VecDeque<Unacked>,         // in flight, in seq order
    msg_last_seq: VecDeque<(u32, u64)>, // last seq of each message → msg index
    next_msg_id: u64,
    // Receiver state.
    rx_next: u32,
    rx_ooo: BTreeMap<u32, PartList>, // out-of-order frames
    /// The message being received: the bodies of its segments so far,
    /// as views of the delivered PDUs.
    rx_message: PartList,
    /// Counters.
    pub stats: ChannelStats,
}

impl ReliableChannel {
    /// An endpoint sending on `out_vc`, receiving on `in_vc`.
    pub fn new(out_vc: VcId, in_vc: VcId, window: usize, timeout: SimDuration) -> Self {
        assert!(window > 0, "zero window");
        ReliableChannel {
            out_vc,
            in_vc,
            window,
            timeout,
            next_seq: 0,
            send_buffer: VecDeque::new(),
            unacked: VecDeque::new(),
            msg_last_seq: VecDeque::new(),
            next_msg_id: 0,
            rx_next: 0,
            rx_ooo: BTreeMap::new(),
            rx_message: PartList::new(),
            stats: ChannelStats::default(),
        }
    }

    /// Queue a message for reliable delivery. The message is `parts`
    /// concatenated in order (at most [`MAX_PARTS`]; empty parts are
    /// fine); it is cut into the same segments as one buffer would be,
    /// but each segment keeps views into the parts instead of a copy.
    /// Returns its message index (reported back via
    /// [`TransportEvent::Sent`]).
    pub fn send_message(&mut self, net: &mut AtmNetwork, parts: &[Bytes]) -> Result<u64, NetError> {
        assert!(
            parts.len() <= MAX_PARTS,
            "a message is at most {MAX_PARTS} parts"
        );
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let len: usize = parts.iter().map(Bytes::len).sum();
        let nfrags = len.div_ceil(MSS).max(1);
        let first = self.next_seq;
        self.next_seq = first.wrapping_add(nfrags as u32);
        let mut hdrs = Vec::with_capacity(nfrags * HDR);
        for i in 0..nfrags {
            let flags = if i == nfrags - 1 { FLAG_LAST_FRAG } else { 0 };
            hdrs.push(FT_DATA);
            hdrs.extend_from_slice(&first.wrapping_add(i as u32).to_be_bytes());
            hdrs.push(flags);
        }
        let hdrs = Bytes::from(hdrs);
        // Cursor into the parts: part index and offset within it.
        let (mut part, mut off) = (0, 0);
        for i in 0..nfrags {
            let mut pdu = Vec::with_capacity(1 + MAX_PARTS);
            pdu.push(hdrs.slice(i * HDR..(i + 1) * HDR));
            let mut want = MSS.min(len - i * MSS);
            while want > 0 {
                let p = &parts[part];
                let take = (p.len() - off).min(want);
                if take > 0 {
                    pdu.push(p.slice(off..off + take));
                }
                off += take;
                want -= take;
                if off == p.len() {
                    part += 1;
                    off = 0;
                }
            }
            self.send_buffer.push_back(Segment { pdu });
        }
        self.msg_last_seq
            .push_back((self.next_seq.wrapping_sub(1), msg_id));
        self.pump(net)?;
        Ok(msg_id)
    }

    /// Admit buffered segments to the window and transmit them.
    fn pump(&mut self, net: &mut AtmNetwork) -> Result<(), NetError> {
        let now = net.now();
        while self.unacked.len() < self.window {
            let Some(segment) = self.send_buffer.pop_front() else {
                break;
            };
            segment.send(net, self.out_vc)?;
            self.stats.segments_tx += 1;
            self.unacked.push_back(Unacked {
                segment,
                deadline: now + self.timeout,
                retries: 0,
            });
        }
        Ok(())
    }

    /// Handle a network delivery. Returns application events. Deliveries
    /// for other VCs are ignored (returns empty).
    pub fn on_delivery(
        &mut self,
        net: &mut AtmNetwork,
        d: &Delivery,
    ) -> Result<Vec<TransportEvent>, NetError> {
        if d.vc != self.in_vc {
            return Ok(Vec::new());
        }
        match prefix::<1>(&d.payload) {
            Some([FT_ACK]) => self.on_ack(net, &d.payload),
            Some([FT_DATA]) => self.on_data(net, &d.payload),
            _ => Ok(Vec::new()),
        }
    }

    fn on_ack(
        &mut self,
        net: &mut AtmNetwork,
        frame: &PartList,
    ) -> Result<Vec<TransportEvent>, NetError> {
        let Some(ack) = prefix::<5>(frame) else {
            return Ok(Vec::new());
        };
        let cum = u32::from_be_bytes(ack[1..5].try_into().expect("4 bytes"));
        // Cumulative: everything below `cum` is acknowledged.
        while self.unacked.front().is_some_and(|u| u.segment.seq() < cum) {
            self.unacked.pop_front();
        }
        let mut events = Vec::new();
        while let Some((last_seq, msg_id)) = self.msg_last_seq.front().copied() {
            if last_seq < cum {
                events.push(TransportEvent::Sent(msg_id));
                self.msg_last_seq.pop_front();
            } else {
                break;
            }
        }
        self.pump(net)?;
        Ok(events)
    }

    fn on_data(
        &mut self,
        net: &mut AtmNetwork,
        frame: &PartList,
    ) -> Result<Vec<TransportEvent>, NetError> {
        let Some(hdr) = prefix::<HDR>(frame) else {
            return Ok(Vec::new());
        };
        let seq = u32::from_be_bytes(hdr[1..5].try_into().expect("4 bytes"));
        let mut events = Vec::new();
        if seq == self.rx_next {
            self.accept(frame, &mut events);
            // Drain any buffered successors.
            while let Some(f) = self.rx_ooo.remove(&self.rx_next) {
                self.accept(&f, &mut events);
            }
        } else if seq > self.rx_next {
            self.rx_ooo.entry(seq).or_insert_with(|| frame.clone());
        } else {
            self.stats.duplicates += 1;
        }
        // Ack the highest in-order point.
        let mut ack = [FT_ACK, 0, 0, 0, 0];
        ack[1..].copy_from_slice(&self.rx_next.to_be_bytes());
        net.send(self.out_vc, &[Bytes::copy_from_slice(&ack)])?;
        self.stats.acks_tx += 1;
        Ok(events)
    }

    /// Take the next in-order segment `frame`: its body joins the
    /// message being received, as views; the last fragment hands the
    /// message up.
    fn accept(&mut self, frame: &PartList, events: &mut Vec<TransportEvent>) {
        self.stats.segments_rx += 1;
        self.rx_next = self.rx_next.wrapping_add(1);
        let flags = prefix::<HDR>(frame).expect("checked by on_data")[HDR - 1];
        let mut skip = HDR;
        for part in frame.parts() {
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            self.rx_message.push(part.slice(skip..));
            skip = 0;
        }
        if flags & FLAG_LAST_FRAG == 0 {
            return;
        }
        let msg = std::mem::take(&mut self.rx_message);
        // Bodies that are not windows of the sender's buffers (segments
        // flattened into cells on the way) do not join up: copy those
        // into one buffer, once.
        let msg = if msg.parts().len() > MAX_PARTS {
            PartList::from(msg.to_bytes())
        } else {
            msg
        };
        events.push(TransportEvent::Message(msg));
    }

    /// The VC this endpoint receives on — lets a pump loop route a
    /// [`Delivery`] to the one channel that owns it instead of offering
    /// it to every channel in the system.
    pub fn in_vc(&self) -> VcId {
        self.in_vc
    }

    /// Retransmit timed-out segments. Call whenever the clock advances.
    pub fn on_tick(&mut self, net: &mut AtmNetwork) -> Result<(), NetError> {
        let now = net.now();
        for u in self.unacked.iter_mut().filter(|u| u.deadline <= now) {
            u.segment.send(net, self.out_vc)?;
            self.stats.segments_tx += 1;
            self.stats.retransmissions += 1;
            // Exponential backoff on the retransmission timer.
            u.deadline = now + self.timeout * (1u64 << u.retries.min(6));
            u.retries += 1;
        }
        Ok(())
    }

    /// Earliest retransmission deadline (drive your advance loop to it).
    pub fn next_timeout(&self) -> Option<SimTime> {
        self.unacked.iter().map(|u| u.deadline).min()
    }

    /// True when nothing is pending on the send side.
    pub fn send_idle(&self) -> bool {
        self.unacked.is_empty() && self.send_buffer.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkProfile, ServiceClass};
    use crate::network::AtmNetwork;
    use std::sync::Arc;

    struct Pair {
        net: AtmNetwork,
        a: ReliableChannel,
        b: ReliableChannel,
    }

    fn pair_over(profile: LinkProfile, seed: u64) -> Pair {
        let mut net = AtmNetwork::new(seed);
        let ha = net.add_host("A");
        let hb = net.add_host("B");
        net.connect(ha, hb, profile);
        let ab = net.open_vc(&[ha, hb], ServiceClass::Ubr, None).unwrap();
        let ba = net.open_vc(&[hb, ha], ServiceClass::Ubr, None).unwrap();
        let a = ReliableChannel::new(ab, ba, 16, SimDuration::from_millis(50));
        let b = ReliableChannel::new(ba, ab, 16, SimDuration::from_millis(50));
        Pair { net, a, b }
    }

    /// Pump the pair until quiescent; collect events per endpoint.
    fn run(p: &mut Pair, deadline: SimTime) -> (Vec<TransportEvent>, Vec<TransportEvent>) {
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        loop {
            let step_to = p
                .net
                .now()
                .checked_add(SimDuration::from_millis(10))
                .unwrap()
                .min(deadline);
            let deliveries = p.net.advance(step_to);
            for d in &deliveries {
                ea.extend(p.a.on_delivery(&mut p.net, d).unwrap());
                eb.extend(p.b.on_delivery(&mut p.net, d).unwrap());
            }
            p.a.on_tick(&mut p.net).unwrap();
            p.b.on_tick(&mut p.net).unwrap();
            let done = p.net.idle() && p.a.send_idle() && p.b.send_idle();
            if done || p.net.now() >= deadline {
                return (ea, eb);
            }
        }
    }

    #[test]
    fn message_crosses_clean_link() {
        let mut p = pair_over(LinkProfile::atm_oc3(), 1);
        let msg = vec![42u8; 30_000]; // 4 fragments
        let id =
            p.a.send_message(&mut p.net, &[Bytes::from(msg.clone())])
                .unwrap();
        let (ea, eb) = run(&mut p, SimTime::from_secs(10));
        assert!(eb
            .iter()
            .any(|e| matches!(e, TransportEvent::Message(m) if m.to_vec() == msg)));
        assert!(ea.contains(&TransportEvent::Sent(id)));
        assert_eq!(p.a.stats.retransmissions, 0, "clean link needs no ARQ");
    }

    #[test]
    fn segments_view_the_message_parts_instead_of_copying() {
        let mut p = pair_over(LinkProfile::atm_oc3(), 1);
        let head = Bytes::from(vec![1u8; 60]);
        let body = Bytes::from(vec![2u8; 200 * 1024]);
        p.a.send_message(&mut p.net, &[head.clone(), body.clone()])
            .unwrap();
        let queued = p.a.send_buffer.iter();
        let segments: Vec<&Segment> = queued
            .chain(p.a.unacked.iter().map(|u| &u.segment))
            .collect();
        assert_eq!(segments.len(), (60 + 200 * 1024usize).div_ceil(MSS));
        assert!(!p.a.send_buffer.is_empty() && !p.a.unacked.is_empty());
        let is = |v: &Bytes, part: &Bytes| Arc::ptr_eq(v.shared(), part.shared());
        for seg in segments {
            let mut views = seg.pdu[1..].iter();
            assert!(
                views.clone().any(|v| is(v, &body)),
                "segment {} does not view the body",
                seg.seq()
            );
            assert!(views.all(|v| is(v, &body) || is(v, &head)));
        }
        let (_, eb) = run(&mut p, SimTime::from_secs(10));
        let msg = [&head[..], &body[..]].concat();
        assert!(eb
            .iter()
            .any(|e| matches!(e, TransportEvent::Message(m) if m.to_vec() == msg)));
    }

    #[test]
    fn empty_message_round_trips() {
        let mut p = pair_over(LinkProfile::atm_oc3(), 1);
        p.a.send_message(&mut p.net, &[]).unwrap();
        let (_, eb) = run(&mut p, SimTime::from_secs(1));
        assert!(eb
            .iter()
            .any(|e| matches!(e, TransportEvent::Message(m) if m.is_empty())));
    }

    #[test]
    fn recovers_from_heavy_cell_loss() {
        let profile = LinkProfile {
            loss_rate: 0.002, // per cell → several PDU losses across the run
            ..LinkProfile::atm_oc3()
        };
        let mut p = pair_over(profile, 7);
        let msg: Vec<u8> = (0..200_000usize).map(|i| (i % 253) as u8).collect();
        p.a.send_message(&mut p.net, &[Bytes::from(msg.clone())])
            .unwrap();
        let (_, eb) = run(&mut p, SimTime::from_secs(60));
        let delivered = eb.iter().find_map(|e| match e {
            TransportEvent::Message(m) => Some(m.clone()),
            _ => None,
        });
        let delivered = delivered.expect("message must eventually arrive");
        assert_eq!(delivered.to_vec(), msg, "content intact after ARQ");
        assert!(p.a.stats.retransmissions > 0, "loss must have forced ARQ");
    }

    #[test]
    fn ordered_delivery_of_many_messages() {
        let mut p = pair_over(
            LinkProfile {
                loss_rate: 0.001,
                ..LinkProfile::atm_oc3()
            },
            3,
        );
        for i in 0..20u8 {
            p.a.send_message(&mut p.net, &[Bytes::from(vec![i; 2_000])])
                .unwrap();
        }
        let (_, eb) = run(&mut p, SimTime::from_secs(60));
        let messages: Vec<Vec<u8>> = eb
            .into_iter()
            .filter_map(|e| match e {
                TransportEvent::Message(m) => Some(m.to_vec()),
                _ => None,
            })
            .collect();
        assert_eq!(messages.len(), 20);
        for (i, m) in messages.iter().enumerate() {
            assert!(m.iter().all(|&b| b == i as u8), "message {i} in order");
        }
    }

    #[test]
    fn full_duplex() {
        let mut p = pair_over(LinkProfile::atm_oc3(), 5);
        p.a.send_message(&mut p.net, &[Bytes::from_static(b"from A")])
            .unwrap();
        p.b.send_message(&mut p.net, &[Bytes::from_static(b"from B")])
            .unwrap();
        let (ea, eb) = run(&mut p, SimTime::from_secs(5));
        assert!(eb
            .iter()
            .any(|e| matches!(e, TransportEvent::Message(m) if m.to_vec() == b"from A")));
        assert!(ea
            .iter()
            .any(|e| matches!(e, TransportEvent::Message(m) if m.to_vec() == b"from B")));
    }

    #[test]
    fn window_limits_outstanding_segments() {
        let mut net = AtmNetwork::new(1);
        let ha = net.add_host("A");
        let hb = net.add_host("B");
        net.connect(ha, hb, LinkProfile::modem_28_8k());
        let ab = net.open_vc(&[ha, hb], ServiceClass::Ubr, None).unwrap();
        let ba = net.open_vc(&[hb, ha], ServiceClass::Ubr, None).unwrap();
        let mut a = ReliableChannel::new(ab, ba, 2, SimDuration::from_secs(30));
        // 10 fragments, window 2: only 2 transmitted initially.
        a.send_message(&mut net, &[Bytes::from(vec![0u8; MSS * 10])])
            .unwrap();
        assert_eq!(a.stats.segments_tx, 2);
        assert!(!a.send_idle());
    }

    #[test]
    fn duplicate_segments_counted_not_redelivered() {
        // Long ack delay forces sender timeout → duplicate at receiver.
        let profile = LinkProfile {
            prop_delay: SimDuration::from_millis(100),
            ..LinkProfile::atm_oc3()
        };
        let mut p = pair_over(profile, 2);
        // Timeout (50 ms) < RTT (200 ms): every segment retransmits at
        // least once.
        p.a.send_message(&mut p.net, &[Bytes::from_static(b"dup test")])
            .unwrap();
        let (_, eb) = run(&mut p, SimTime::from_secs(10));
        let delivered = eb
            .iter()
            .filter(|e| matches!(e, TransportEvent::Message(_)))
            .count();
        assert_eq!(delivered, 1, "exactly one delivery despite duplicates");
        assert!(p.b.stats.duplicates > 0, "duplicates were seen and dropped");
    }
}
