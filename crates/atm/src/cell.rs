//! The ATM cell: 53 bytes, 5 of header, 48 of payload.
//!
//! We model the header fields the simulator actually uses — VPI, VCI,
//! payload-type "end of AAL5 PDU" flag, and CLP — plus bookkeeping the
//! real header carries implicitly (which PDU and which position within it,
//! recoverable on real hardware from arrival order).
//!
//! The payload is a [`Bytes`] view, normally a 48-byte window into the
//! PDU-wide buffer built by AAL5 segmentation, so cloning a cell bumps a
//! reference count instead of copying bytes. This is the form
//! [`crate::aal5::segment`] and [`crate::aal5::reassemble`] work in. The
//! network simulator does not carry `AtmCell`s: a cell in flight there is
//! its header alone, since its payload is implicitly the next window of
//! its PDU's flattened run, which only cell 0 carries.

use bytes::Bytes;
use std::sync::{Arc, OnceLock};

/// Total cell size on the wire, bytes.
pub const CELL_SIZE: usize = 53;
/// Payload bytes per cell.
pub const CELL_PAYLOAD: usize = 48;
/// Header bytes per cell.
pub const CELL_HEADER: usize = CELL_SIZE - CELL_PAYLOAD;
/// Bits serialized per cell.
pub const CELL_BITS: u64 = (CELL_SIZE as u64) * 8;

/// All-zero 48-byte payload, shared by every freshly built cell.
fn zero_payload() -> Bytes {
    static ZERO: OnceLock<Arc<[u8]>> = OnceLock::new();
    let arc = ZERO.get_or_init(|| Arc::from([0u8; CELL_PAYLOAD].as_slice()));
    Bytes::from_shared(Arc::clone(arc))
}

/// One ATM cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtmCell {
    /// Virtual path identifier.
    pub vpi: u8,
    /// Virtual channel identifier (we use one global VC number space).
    pub vci: u16,
    /// Payload-type indicator bit 0: last cell of an AAL5 PDU.
    pub pdu_end: bool,
    /// Cell loss priority: `true` = eligible for early discard (tagged by
    /// the policer for non-conforming traffic).
    pub clp: bool,
    /// Which PDU this cell belongs to (sender-scoped sequence number).
    pub pdu_seq: u64,
    /// Cell index within its PDU.
    pub cell_index: u32,
    /// Payload (always [`CELL_PAYLOAD`] bytes; final cell is padded).
    pub payload: Bytes,
}

impl AtmCell {
    /// Build a cell.
    pub fn new(vpi: u8, vci: u16, pdu_seq: u64, cell_index: u32, pdu_end: bool) -> Self {
        AtmCell {
            vpi,
            vci,
            pdu_end,
            clp: false,
            pdu_seq,
            cell_index,
            payload: zero_payload(),
        }
    }

    /// Copy payload bytes in (`data.len()` ≤ 48; the rest stays zero).
    pub fn with_payload(mut self, data: &[u8]) -> Self {
        assert!(data.len() <= CELL_PAYLOAD, "payload too large for a cell");
        let mut buf = [0u8; CELL_PAYLOAD];
        buf[..data.len()].copy_from_slice(data);
        self.payload = Bytes::copy_from_slice(&buf);
        self
    }

    /// Adopt a 48-byte shared view as the payload — no copy. This is how
    /// AAL5 segmentation hands every cell a window into one PDU buffer.
    ///
    /// # Panics
    /// Panics unless `view` is exactly [`CELL_PAYLOAD`] bytes.
    pub fn with_payload_view(mut self, view: Bytes) -> Self {
        assert!(view.len() == CELL_PAYLOAD, "cell view must be 48 bytes");
        self.payload = view;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_atm_sizes() {
        assert_eq!(CELL_SIZE, 53);
        assert_eq!(CELL_PAYLOAD, 48);
        assert_eq!(CELL_HEADER, 5);
        assert_eq!(CELL_BITS, 424);
    }

    #[test]
    fn payload_is_padded() {
        let c = AtmCell::new(0, 1, 0, 0, true).with_payload(b"abc");
        assert_eq!(&c.payload[..3], b"abc");
        assert!(c.payload[3..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversize_payload_panics() {
        let _ = AtmCell::new(0, 1, 0, 0, false).with_payload(&[0u8; 49]);
    }

    #[test]
    fn payload_view_shares_storage() {
        let pdu = Bytes::from(vec![7u8; 96]);
        let c = AtmCell::new(0, 1, 0, 0, false).with_payload_view(pdu.slice(48..96));
        assert!(Arc::ptr_eq(c.payload.shared(), pdu.shared()));
        assert_eq!(c.payload.shared_range(), (48, 96));
        let clone = c.clone();
        assert!(
            Arc::ptr_eq(clone.payload.shared(), pdu.shared()),
            "clone is a view too"
        );
    }

    #[test]
    #[should_panic(expected = "48 bytes")]
    fn short_view_panics() {
        let pdu = Bytes::from(vec![0u8; 10]);
        let _ = AtmCell::new(0, 1, 0, 0, false).with_payload_view(pdu);
    }
}
