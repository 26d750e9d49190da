//! # mits-atm — the broadband substrate of MITS
//!
//! The prototype in the paper ran on OCRInet, "an R&D ATM network in the
//! Ottawa region" (§5.1.1), chosen because "the advancement of B-ISDN and
//! ATM technology has provided a prospective solution to deliver
//! multimedia and hypermedia information through a computer network in a
//! fast and quality manner" (§1.3.3). We have no OCRInet, so this crate
//! *is* the network: a cell-level discrete-event simulator with
//!
//! * 53-byte **cells** (5-byte header carrying VPI/VCI/PTI/CLP) — [`cell`];
//! * **AAL5** segmentation and reassembly with length + CRC-32 trailer —
//!   [`aal5`];
//! * **virtual circuits** routed across output-queued switches with
//!   per-service-class priority queues (CBR > VBR > UBR) and GCRA
//!   (leaky-bucket) policing — [`network`], [`link`];
//! * configurable **link profiles**, including the narrowband baselines
//!   the paper argues against (28.8 kb/s modem, 128 kb/s ISDN, shared
//!   10 Mb/s LAN) and OC-3 ATM at 155.52 Mb/s — [`link`];
//! * a small **transport layer** (datagram + stop-and-wait-window ARQ) that
//!   plays the prototype's TCP/UDP role — [`transport`];
//! * traffic **sources** (CBR, VBR video from MPEG frame models, on-off) —
//!   [`traffic`].
//!
//! Like the MHEG engine, the network is clock-driven and deterministic:
//! callers `send` PDUs, `advance(to)` the clock, and collect
//! [`network::Delivery`] records; QoS statistics (cell transfer delay,
//! delay variation, loss ratio) accumulate per VC for the experiment
//! tables (E-BB, F3.5).

pub mod aal5;
pub mod cell;
pub mod fault;
pub mod link;
pub mod network;
pub mod traffic;
pub mod transport;

pub use aal5::{reassemble, segment, Aal5Error};
pub use cell::{AtmCell, CELL_PAYLOAD, CELL_SIZE};
pub use fault::{
    BurstLoss, CrashEvent, CrashSchedule, FaultKind, FaultPlan, FaultStats, LinkFaults,
};
pub use link::{
    LinkProfile, LinkTelemetry, LinkWindowSample, ServeKind, ServiceClass, TELEMETRY_RING_CAP,
    TELEMETRY_WINDOW_US,
};
pub use network::{AtmNetwork, Delivery, NetError, NetScratch, NodeId, TrainStats, VcId, VcStats};
pub use traffic::{CbrSource, OnOffSource, VbrVideoSource};
pub use transport::{ReliableChannel, TransportEvent};

/// Properties of the shared [`bytes::Bytes`] window that every cell
/// payload is, and that segmentation and reassembly rely on.
#[cfg(test)]
mod payload {
    mod tests {
        use crate::aal5::{reassemble, segment};
        use crate::cell::{AtmCell, CELL_PAYLOAD};
        use bytes::Bytes;
        use std::sync::Arc;

        #[test]
        fn clone_and_slice_share_storage() {
            let p = Bytes::from(vec![1u8, 2, 3, 4, 5, 6]);
            let c = p.clone();
            assert!(Arc::ptr_eq(p.shared(), c.shared()));
            let s = p.slice(2..5);
            assert_eq!(&s[..], &[3, 4, 5]);
            assert!(Arc::ptr_eq(p.shared(), s.shared()));
            assert_eq!(s.shared_range(), (2, 5));
            let ss = s.slice(1..3);
            assert_eq!(&ss[..], &[4, 5]);
            assert_eq!(ss.shared_range(), (3, 5));
        }

        #[test]
        fn contiguity_detects_adjacent_windows() {
            // Reassembly returns a view of the segmentation buffer only while
            // each cell's window ends where the next one's begins; otherwise
            // it copies. Cells 1 and 2 carry identical bytes, so only the
            // windows change, never the CRC.
            let pdu = vec![5u8; 500];
            let cells = segment(0, 5, 1, &pdu);
            let seg = Arc::clone(cells[0].payload.shared());
            let is_view = |cells: &[AtmCell]| {
                let back = reassemble(cells).unwrap();
                assert_eq!(&back[..], &pdu[..]);
                Arc::ptr_eq(back.shared(), &seg)
            };
            assert!(is_view(&cells), "adjacent windows of one buffer");
            let mut swapped = cells.clone();
            swapped[1].payload = cells[2].payload.clone();
            swapped[2].payload = cells[1].payload.clone();
            assert!(!is_view(&swapped), "windows out of order");
            // Same offsets as cell 2's own window, in another allocation.
            let mut moved = cells.clone();
            let other = Bytes::from(vec![5u8; 3 * CELL_PAYLOAD]);
            moved[2].payload = other.slice(2 * CELL_PAYLOAD..);
            assert_eq!(
                moved[2].payload.shared_range(),
                cells[2].payload.shared_range()
            );
            assert!(!is_view(&moved), "different allocations");
        }

        #[test]
        fn equality_is_by_content() {
            let a = Bytes::from(vec![1u8, 2, 3]);
            let b = Bytes::copy_from_slice(&[1, 2, 3]);
            assert_eq!(a, b);
            assert_eq!(a, [1u8, 2, 3][..]);
            let w = Bytes::from(vec![0u8, 1, 2, 3, 0]).slice(1..4);
            assert_eq!(a, w);
            // So a cell viewing a PDU buffer equals one holding a copy.
            let pdu = Bytes::from(vec![7u8; 96]);
            let view = AtmCell::new(0, 1, 0, 0, false).with_payload_view(pdu.slice(48..96));
            let copied = AtmCell::new(0, 1, 0, 0, false).with_payload(&[7u8; 48]);
            assert_eq!(view, copied);
            assert_ne!(view, AtmCell::new(0, 1, 0, 0, false));
        }
    }
}
