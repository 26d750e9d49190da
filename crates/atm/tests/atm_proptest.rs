//! Property tests for the ATM substrate: AAL5 segmentation/reassembly
//! identity, cell-sequence integrity through switches, and transport
//! recovery under arbitrary loss rates.

use bytes::Bytes;
use mits_atm::{aal5, AtmNetwork, LinkProfile, ReliableChannel, ServiceClass, TransportEvent};
use mits_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// Bit-serial CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the seed
/// implementation, kept as an independent oracle for the table-driven
/// rewrite in `aal5`.
fn crc32_ref(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Copy-based AAL5 segmentation exactly as the seed implemented it: build
/// the padded trailer-carrying buffer and cut it into owned 48-byte
/// chunks. The zero-copy path must produce byte-identical cell payloads.
fn segment_ref(payload: &[u8]) -> Vec<[u8; 48]> {
    const CELL: usize = 48;
    const TRAILER: usize = 8;
    let body_len = payload.len() + TRAILER;
    let ncells = body_len.div_ceil(CELL).max(1);
    let total = ncells * CELL;
    let mut buf = vec![0u8; total];
    buf[..payload.len()].copy_from_slice(payload);
    buf[total - 6..total - 4].copy_from_slice(&(payload.len() as u16).to_be_bytes());
    let crc = crc32_ref(&buf[..total - 4]);
    buf[total - 4..].copy_from_slice(&crc.to_be_bytes());
    (0..ncells)
        .map(|i| buf[i * CELL..(i + 1) * CELL].try_into().expect("48 bytes"))
        .collect()
}

/// Check the zero-copy segment/reassemble pipeline against the reference
/// for one payload: identical cell payloads, identical round-trip bytes.
fn assert_matches_reference(payload: &[u8]) {
    let cells = aal5::segment(0, 7, 3, payload);
    let reference = segment_ref(payload);
    assert_eq!(
        cells.len(),
        reference.len(),
        "cell count ({})",
        payload.len()
    );
    for (i, (cell, expect)) in cells.iter().zip(&reference).enumerate() {
        assert_eq!(
            &cell.payload[..],
            &expect[..],
            "cell {i} ({})",
            payload.len()
        );
    }
    let back = aal5::reassemble(&cells).expect("reassembly");
    assert_eq!(&back[..], payload, "round trip ({})", payload.len());
}

/// Cell-size and length-field boundaries, including the AAL5 maximum PDU
/// (65535) and a PDU past the 16-bit window (recovered via cell count).
#[test]
fn aal5_zero_copy_matches_seed_reference_at_boundaries() {
    for n in [0usize, 1, 39, 40, 41, 47, 48, 49, 96, 65535, 65536, 70000] {
        let payload: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        assert_matches_reference(&payload);
    }
}

/// `validated_length` boundaries at exact 65536 multiples: PDU lengths
/// whose 16-bit length field wraps to 0 (or near it) must still
/// round-trip — the cell count disambiguates the window.
#[test]
fn aal5_length_field_window_boundaries() {
    for n in [65530usize, 65535, 65536, 65537, 65544, 131072] {
        let payload: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        assert_matches_reference(&payload);
        let run = aal5::segment_run(&[Bytes::from(payload.clone())]);
        let back = aal5::reassemble_run(run).expect("run round trip");
        assert_eq!(back.concat(), payload, "run round trip ({n})");
    }
}

/// Every length 0..=80 at several offsets: each tail the 16-, 8- and
/// 4-byte table steps leave, on both sides of the 64-byte SIMD threshold
/// and at every alignment class, for every tier and for a CRC carried
/// across a split by `crc32_update`, against the bit-serial oracle.
#[test]
fn crc_ragged_edges_match_the_oracle() {
    let buf: Vec<u8> = (0..96u32).map(|i| (i * 97 + 13) as u8).collect();
    for n in 0..=80usize {
        for off in [0usize, 1, 2, 3, 5, 8, 15] {
            let data = &buf[off..off + n];
            let oracle = crc32_ref(data);
            assert_eq!(
                aal5::crc32_slice16(data),
                oracle,
                "slice16 len {n} off {off}"
            );
            assert_eq!(aal5::crc32(data), oracle, "dispatch len {n} off {off}");
            for cut in [0, 1, n / 2, n.saturating_sub(3), n] {
                let (a, b) = data.split_at(cut.min(n));
                let crc = !aal5::crc32_update(aal5::crc32_update(0xFFFF_FFFF, a), b);
                assert_eq!(crc, oracle, "update len {n} off {off} cut {cut}");
            }
        }
    }
}

proptest! {
    // Payloads here run to 200 KB — keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full-window round trip: any length up to 200 000 survives
    /// segment→reassemble through the run-descriptor path, and every
    /// CRC-32 implementation — slice-by-16 and the runtime dispatcher
    /// (which takes the SIMD lane where the host supports it) — agrees
    /// byte-for-byte with the bit-serial oracle.
    #[test]
    fn aal5_crc_impls_agree_across_full_window(
        len in 0usize..=200_000,
        seed in any::<u64>(),
    ) {
        let mult = seed | 1;
        let payload: Vec<u8> = (0..len)
            .map(|i| ((i as u64).wrapping_mul(mult) >> 13) as u8)
            .collect();
        let oracle = crc32_ref(&payload);
        prop_assert_eq!(aal5::crc32_slice16(&payload), oracle, "slice-by-16");
        prop_assert_eq!(aal5::crc32(&payload), oracle, "dispatch");
        let run = aal5::segment_run(&[Bytes::from(payload.clone())]);
        prop_assert_eq!(run.ncells, aal5::cells_for(payload.len()));
        let back = aal5::reassemble_run(run).expect("run round trip");
        prop_assert_eq!(back.concat(), payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The zero-copy segmentation is byte-identical to the seed's
    /// copy-based implementation for arbitrary payloads.
    #[test]
    fn aal5_zero_copy_matches_seed_reference(
        payload in prop::collection::vec(any::<u8>(), 0..4000),
    ) {
        assert_matches_reference(&payload);
    }

    /// AAL5 segmentation followed by reassembly is the identity for every
    /// payload up to (and past) the 16-bit length window.
    #[test]
    fn aal5_round_trip(payload in prop::collection::vec(any::<u8>(), 0..3000)) {
        let cells = aal5::segment(0, 7, 3, &payload);
        prop_assert_eq!(cells.len(), aal5::cells_for(payload.len()));
        let back = aal5::reassemble(&cells).expect("reassembly");
        prop_assert_eq!(&back[..], &payload[..]);
    }

    /// Dropping ANY single cell from a multi-cell PDU makes reassembly
    /// fail (never silently corrupt).
    #[test]
    fn aal5_detects_any_single_loss(
        payload in prop::collection::vec(any::<u8>(), 100..2000),
        drop_frac in 0.0f64..1.0,
    ) {
        let mut cells = aal5::segment(0, 7, 3, &payload);
        let idx = ((cells.len() - 1) as f64 * drop_frac) as usize;
        cells.remove(idx);
        prop_assert!(aal5::reassemble(&cells).is_err());
    }

    /// Corrupting ANY single payload byte is caught by the CRC.
    #[test]
    fn aal5_detects_any_corruption(
        payload in prop::collection::vec(any::<u8>(), 1..1500),
        cell_frac in 0.0f64..1.0,
        byte in 0usize..48,
        flip in 1u8..=255,
    ) {
        let mut cells = aal5::segment(0, 7, 3, &payload);
        let idx = ((cells.len() - 1) as f64 * cell_frac) as usize;
        let mut bad = cells[idx].payload.to_vec();
        bad[byte] ^= flip;
        cells[idx] = cells[idx].clone().with_payload(&bad);
        prop_assert!(aal5::reassemble(&cells).is_err());
    }

    /// Any mix of PDU sizes crosses a clean two-hop network intact and in
    /// order.
    #[test]
    fn network_preserves_order_and_content(
        sizes in prop::collection::vec(1usize..5_000, 1..20),
        seed in any::<u64>(),
    ) {
        let mut net = AtmNetwork::new(seed);
        let a = net.add_host("a");
        let s = net.add_switch("s");
        let b = net.add_host("b");
        net.connect(a, s, LinkProfile::atm_oc3());
        net.connect(s, b, LinkProfile::atm_oc3());
        let vc = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
        let payloads: Vec<Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Bytes::from(vec![(i % 251) as u8; n]))
            .collect();
        for p in &payloads {
            net.send(vc, std::slice::from_ref(p)).unwrap();
        }
        let deliveries = net.drain(SimTime::from_secs(60));
        prop_assert_eq!(deliveries.len(), payloads.len());
        for (d, p) in deliveries.iter().zip(&payloads) {
            prop_assert_eq!(d.payload.to_vec(), p.to_vec());
        }
    }

    /// The reliable transport delivers every message exactly once, in
    /// order, for any loss rate up to 2 %.
    #[test]
    fn transport_survives_random_loss(
        loss_ppm in 0u32..20_000, // 0..2% per cell
        n_msgs in 1usize..8,
        msg_len in 1usize..20_000,
        seed in any::<u64>(),
    ) {
        let profile = LinkProfile {
            loss_rate: loss_ppm as f64 / 1e6,
            ..LinkProfile::atm_oc3()
        };
        let mut net = AtmNetwork::new(seed);
        let a = net.add_host("a");
        let b = net.add_host("b");
        net.connect(a, b, profile);
        let up = net.open_vc(&[a, b], ServiceClass::Ubr, None).unwrap();
        let down = net.open_vc(&[b, a], ServiceClass::Ubr, None).unwrap();
        let timeout = SimDuration::from_millis(20);
        let mut tx = ReliableChannel::new(up, down, 4, timeout);
        let mut rx = ReliableChannel::new(down, up, 4, timeout);
        for i in 0..n_msgs {
            tx.send_message(&mut net, &[Bytes::from(vec![i as u8; msg_len])]).unwrap();
        }
        let mut got: Vec<Vec<u8>> = Vec::new();
        let deadline = SimTime::from_secs(600);
        while got.len() < n_msgs && net.now() < deadline {
            let step = net
                .next_event_time()
                .into_iter()
                .chain(tx.next_timeout())
                .chain(rx.next_timeout())
                .min()
                .unwrap_or(deadline)
                .min(deadline)
                .max(net.now() + SimDuration::from_micros(1));
            let deliveries = net.advance(step);
            for d in &deliveries {
                for ev in tx.on_delivery(&mut net, d).unwrap() {
                    let _ = ev;
                }
                for ev in rx.on_delivery(&mut net, d).unwrap() {
                    if let TransportEvent::Message(m) = ev {
                        got.push(m.to_vec());
                    }
                }
            }
            tx.on_tick(&mut net).unwrap();
            rx.on_tick(&mut net).unwrap();
        }
        prop_assert_eq!(got.len(), n_msgs, "all messages delivered");
        for (i, m) in got.iter().enumerate() {
            prop_assert_eq!(m.len(), msg_len);
            prop_assert!(m.iter().all(|&b| b == i as u8), "message {} in order", i);
        }
    }
}
