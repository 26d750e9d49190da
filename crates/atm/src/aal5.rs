//! AAL5 segmentation and reassembly.
//!
//! AAL5 appends an 8-byte trailer (2 reserved, 2 length, 4 CRC-32) to the
//! PDU, pads to a multiple of 48, and marks the final cell with the
//! PTI end-of-PDU bit. Reassembly collects cells until the end bit, then
//! validates length and CRC — a single lost cell corrupts the whole PDU,
//! which is exactly the behaviour that makes cell loss so expensive for
//! courseware delivery and shows up in experiment E-BB.
//!
//! A PDU on the cell-train fast path is never copied: its *run image*
//! ([`RunImage`]) is a gather — the PDU's parts as shared [`Bytes`]
//! views, plus the trailer computed over them — and reassembly checks the
//! CRC over those same parts and hands them back as the delivered PDU
//! ([`reassemble_run`]). Cells exist only where something acts cell by
//! cell (the per-cell scheduler, fault injection): there the run is
//! flattened once into a padded buffer ([`RunImage::flatten`]) and every
//! cell is a 48-byte window into it. Reassembly from cells detects when
//! they are still consecutive windows of one buffer (the common
//! clean-delivery case) and returns a view of it; only cells stitched
//! from several buffers fall back to a copy.
//!
//! The CRC-32 kernel runs over every PDU twice (segment + reassemble); it
//! is [`mits_sim::crc`]'s runtime-dispatched slice-by-16 / PCLMULQDQ /
//! aarch64 CRC-instruction kernel, re-exported here under its AAL5 names,
//! and [`mits_sim::crc::crc32_update`] carries it across a run's parts.

use crate::cell::{AtmCell, CELL_PAYLOAD};
use bytes::Bytes;
use std::sync::Arc;

/// Errors from AAL5 reassembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Aal5Error {
    /// Fewer cells than the trailer's length implies / no end cell.
    Incomplete,
    /// Cell sequence had a gap (lost cell).
    MissingCell {
        /// Index of the first missing cell.
        index: u32,
    },
    /// CRC mismatch after reassembly.
    BadCrc,
    /// Trailer length field inconsistent with the cell count.
    BadLength,
}

impl std::fmt::Display for Aal5Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Aal5Error::Incomplete => write!(f, "incomplete PDU"),
            Aal5Error::MissingCell { index } => write!(f, "missing cell {index}"),
            Aal5Error::BadCrc => write!(f, "CRC-32 mismatch"),
            Aal5Error::BadLength => write!(f, "length field mismatch"),
        }
    }
}

impl std::error::Error for Aal5Error {}

// ---- CRC-32 (IEEE 802.3 polynomial, bit-reflected) ----

// The kernel lives in `mits-sim` (the WAL checksums with it too); the
// AAL5 names stay valid for every caller.
#[cfg(target_arch = "aarch64")]
pub use mits_sim::crc::crc32_hwcrc;
#[cfg(target_arch = "x86_64")]
pub use mits_sim::crc::crc32_pclmul;
pub use mits_sim::crc::{crc32, crc32_is_hw_accelerated, crc32_slice16, crc32_update};

// ---- segmentation ----

const TRAILER: usize = 8;

/// A segmented PDU as a gather: the PDU's parts, in order, as shared
/// views of the sender's buffers, plus the AAL5 trailer computed over
/// them — the *run image* the cell-train fast path ships across the
/// network. No byte of the PDU is copied to build it; the padding
/// between the parts and the trailer is implicit zeros. Cell `i`'s wire
/// payload is bytes `[i*48, (i+1)*48)` of [`RunImage::flatten`].
#[derive(Debug, Clone)]
pub struct RunImage {
    /// The PDU's parts, concatenated in order.
    pub parts: Vec<Bytes>,
    /// The trailer: 2 reserved bytes, the 16-bit length field, then the
    /// CRC-32 over the parts, the padding and the first four trailer
    /// bytes.
    pub trailer: [u8; TRAILER],
    /// Number of 48-byte cells in the run.
    pub ncells: usize,
}

impl RunImage {
    /// The PDU length: the parts' total.
    pub fn len(&self) -> usize {
        self.parts.iter().map(Bytes::len).sum()
    }

    /// Whether the PDU is empty (it still takes one cell).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The padded body in one fresh buffer — parts, zero padding and the
    /// trailer as carried — which is what cells are windows of. This is
    /// the run's one copy, made only where cells must exist.
    ///
    /// # Panics
    /// Panics when `ncells` does not fit the PDU.
    pub fn flatten(&self) -> Bytes {
        let len = self.len();
        let ncells = self.ncells;
        let pad = padding(len, ncells).unwrap_or_else(|| {
            panic!("run window out of bounds: {ncells} cells for a {len}-byte PDU")
        });
        let body = self.parts.iter().map(|p| &p[..]);
        Bytes::concat(body.chain([&[0u8; CELL_PAYLOAD][..pad], &self.trailer[..]]))
    }
}

/// The run image of the PDU whose parts, concatenated in order, are
/// `pdu`: views of the parts and the trailer, with the CRC computed
/// across them. Copies no payload byte.
pub fn segment_run(pdu: &[Bytes]) -> RunImage {
    let len = pdu.iter().map(Bytes::len).sum();
    let ncells = cells_for(len);
    let mut trailer = [0u8; TRAILER];
    // (16-bit length like real AAL5; PDUs > 65535 carry length mod 2^16
    // and rely on the cell count check, as real AAL5 caps PDUs at 65535.)
    trailer[2..4].copy_from_slice(&(len as u16).to_be_bytes());
    let pad = padding(len, ncells).expect("cells_for fits the PDU");
    let crc = gather_crc(pdu, pad, &trailer);
    trailer[4..].copy_from_slice(&crc.to_be_bytes());
    RunImage {
        parts: pdu.to_vec(),
        trailer,
        ncells,
    }
}

/// Zero padding between a PDU of `len` bytes and the trailer in
/// `ncells` cells, or `None` when the cells cannot hold the PDU or hold
/// a whole spare cell.
fn padding(len: usize, ncells: usize) -> Option<usize> {
    (ncells * CELL_PAYLOAD)
        .checked_sub(len + TRAILER)
        .filter(|&pad| pad < CELL_PAYLOAD)
}

/// CRC-32 of a run's body up to the CRC field: the parts, `pad` zero
/// bytes, then the trailer's reserved and length bytes.
fn gather_crc(parts: &[Bytes], pad: usize, trailer: &[u8; TRAILER]) -> u32 {
    let mut crc = 0xFFFF_FFFF;
    for part in parts {
        crc = crc32_update(crc, part);
    }
    let mut tail = [0u8; CELL_PAYLOAD + 4];
    tail[pad..pad + 4].copy_from_slice(&trailer[..4]);
    !crc32_update(crc, &tail[..pad + 4])
}

/// Cell `k` of a flattened run `flat` (see [`RunImage::flatten`]): a
/// 48-byte view into it, with the end-of-PDU bit on the last cell.
fn cell_of(vpi: u8, vci: u16, pdu_seq: u64, flat: &Bytes, k: usize) -> AtmCell {
    let ncells = flat.len() / CELL_PAYLOAD;
    AtmCell {
        vpi,
        vci,
        pdu_end: k + 1 == ncells,
        clp: false,
        pdu_seq,
        cell_index: k as u32,
        payload: flat.slice(k * CELL_PAYLOAD..(k + 1) * CELL_PAYLOAD),
    }
}

/// Materialize the per-cell form of a run image into `out` (cleared
/// first): the run is flattened once and the cells are 48-byte views
/// into that buffer.
pub fn cells_from_run(vpi: u8, vci: u16, pdu_seq: u64, run: &RunImage, out: &mut Vec<AtmCell>) {
    let flat = run.flatten();
    out.clear();
    out.reserve(run.ncells);
    out.extend((0..run.ncells).map(|k| cell_of(vpi, vci, pdu_seq, &flat, k)));
}

/// Segment a PDU into cells, reusing `out`'s allocation (cleared first).
/// The payload is copied into a buffer of its own, then flattened once
/// into a padded trailer-carrying buffer; the cells are zero-copy
/// 48-byte views into that.
pub fn segment_into(vpi: u8, vci: u16, pdu_seq: u64, payload: &[u8], out: &mut Vec<AtmCell>) {
    let run = segment_run(&[Bytes::copy_from_slice(payload)]);
    cells_from_run(vpi, vci, pdu_seq, &run, out);
}

/// Segment a PDU into freshly allocated cells for the given VC
/// identifiers (see [`segment_into`] for the allocation-reusing form).
pub fn segment(vpi: u8, vci: u16, pdu_seq: u64, payload: &[u8]) -> Vec<AtmCell> {
    let mut out = Vec::new();
    segment_into(vpi, vci, pdu_seq, payload, &mut out);
    out
}

/// Validate the CRC and the length field of the padded body `buf`,
/// returning the true PDU length.
fn validated_length(buf: &[u8]) -> Result<usize, Aal5Error> {
    let total = buf.len();
    let crc_stored = u32::from_be_bytes(buf[total - 4..].try_into().expect("4 bytes"));
    if crc32(&buf[..total - 4]) != crc_stored {
        return Err(Aal5Error::BadCrc);
    }
    let len_field = u16::from_be_bytes(buf[total - 6..total - 4].try_into().expect("2 bytes"));
    field_length(len_field, total)
}

/// Recover the true PDU length from the 16-bit length field and the
/// padded body size `total`.
fn field_length(len_field: u16, total: usize) -> Result<usize, Aal5Error> {
    let len_field = len_field as usize;
    // Recover the true length: it is congruent to the 16-bit field mod
    // 65536, and the cell count pins it to the single candidate whose
    // padding fits inside the final cell. Lifting to the highest window
    // that still fits keeps exact-65536-multiple PDUs (len_field == 0)
    // on the maximal candidate instead of the empty one.
    let max_payload = total - TRAILER;
    if len_field > max_payload {
        return Err(Aal5Error::BadLength);
    }
    let length = len_field + (max_payload - len_field) / 65536 * 65536;
    // Padding must fit within the final cell (+ trailer).
    if total - (length + TRAILER) >= CELL_PAYLOAD {
        return Err(Aal5Error::BadLength);
    }
    Ok(length)
}

/// Reassemble a PDU from cells (in order, same `pdu_seq`). Validates the
/// sequence, length field and CRC.
pub fn reassemble(cells: &[AtmCell]) -> Result<Bytes, Aal5Error> {
    if cells.is_empty() {
        return Err(Aal5Error::Incomplete);
    }
    if !cells.last().expect("non-empty").pdu_end {
        return Err(Aal5Error::Incomplete);
    }
    for (i, c) in cells.iter().enumerate() {
        if c.cell_index != i as u32 {
            return Err(Aal5Error::MissingCell { index: i as u32 });
        }
        if c.pdu_end && i != cells.len() - 1 {
            return Err(Aal5Error::BadLength);
        }
    }
    let total = cells.len() * CELL_PAYLOAD;
    // Fast path: all payloads are still consecutive windows of the single
    // buffer segmentation built — validate in place and return a zero-copy
    // view of the original bytes.
    if cells.windows(2).all(|w| {
        Arc::ptr_eq(w[0].payload.shared(), w[1].payload.shared())
            && w[0].payload.shared_range().1 == w[1].payload.shared_range().0
    }) {
        let (base, _) = cells[0].payload.shared_range();
        let arc = Arc::clone(cells[0].payload.shared());
        return reassemble_flat(Bytes::from_shared_range(arc, base, base + total));
    }
    // Slow path: stitch the payloads together, then validate the copy.
    let mut buf = Vec::with_capacity(total);
    for c in cells {
        buf.extend_from_slice(&c.payload);
    }
    let length = validated_length(&buf)?;
    buf.truncate(length);
    Ok(Bytes::from(buf))
}

/// Reassemble a run of cells held as one buffer — their 48-byte
/// payloads back to back, the trailer last, as [`RunImage::flatten`]
/// lays them out — with the CRC and length check a receiver of the cells
/// makes. The PDU is returned as a view of that buffer.
pub(crate) fn reassemble_flat(run: Bytes) -> Result<Bytes, Aal5Error> {
    let length = validated_length(&run)?;
    Ok(run.slice(..length))
}

/// Reassemble straight from a run image, as the cell-train fast path
/// delivers it: check the CRC across the parts and the padding, and the
/// length field against the cell count and the parts, exactly as a
/// receiver of the cells would, then hand the parts back as the PDU — the
/// sender's views, not a copy.
pub fn reassemble_run(run: RunImage) -> Result<Vec<Bytes>, Aal5Error> {
    let len = run.len();
    let pad = padding(len, run.ncells).ok_or(Aal5Error::BadLength)?;
    let crc_stored = u32::from_be_bytes(run.trailer[4..].try_into().expect("4 bytes"));
    if gather_crc(&run.parts, pad, &run.trailer) != crc_stored {
        return Err(Aal5Error::BadCrc);
    }
    let len_field = u16::from_be_bytes([run.trailer[2], run.trailer[3]]);
    if field_length(len_field, run.ncells * CELL_PAYLOAD)? != len {
        return Err(Aal5Error::BadLength);
    }
    Ok(run.parts)
}

/// Number of cells a PDU of `len` bytes occupies.
pub fn cells_for(len: usize) -> usize {
    (len + TRAILER).div_ceil(CELL_PAYLOAD).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-serial CRC-32: the oracle every table and hardware tier is
    /// checked against.
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

    #[test]
    fn round_trip_various_sizes() {
        for size in [0usize, 1, 39, 40, 41, 47, 48, 95, 96, 1000, 65_535] {
            let payload: Vec<u8> = (0..size).map(|i| (i * 7) as u8).collect();
            let cells = segment(0, 5, 1, &payload);
            assert_eq!(cells.len(), cells_for(size));
            let back = reassemble(&cells).unwrap_or_else(|e| panic!("size {size}: {e}"));
            assert_eq!(&back[..], &payload[..], "size {size}");
        }
    }

    #[test]
    fn trailer_boundary_sizes() {
        // 40 bytes + 8 trailer = exactly one cell; 41 spills to two.
        assert_eq!(cells_for(40), 1);
        assert_eq!(cells_for(41), 2);
        assert_eq!(cells_for(0), 1);
        assert_eq!(cells_for(88), 2);
    }

    #[test]
    fn length_window_boundaries_round_trip() {
        // The 16-bit length field wraps at 65536: 65530 (just below),
        // 65536 and 131072 (exact multiples, field reads zero), 65544
        // (just past) — all recovered via the cell count, per cell AND
        // via the run descriptor.
        for size in [65_530usize, 65_536, 65_544, 131_072] {
            let payload: Vec<u8> = (0..size).map(|i| (i % 249) as u8).collect();
            let cells = segment(0, 5, 1, &payload);
            assert_eq!(cells.len(), cells_for(size), "size {size}");
            let back = reassemble(&cells).unwrap_or_else(|e| panic!("size {size}: {e}"));
            assert_eq!(&back[..], &payload[..], "size {size}");
            let run = segment_run(&[Bytes::from(payload.clone())]);
            let back = reassemble_run(run).unwrap();
            assert_eq!(back.concat(), payload, "run size {size}");
        }
    }

    #[test]
    fn lost_cell_detected() {
        let payload = vec![9u8; 500];
        let mut cells = segment(0, 5, 1, &payload);
        cells.remove(3);
        assert_eq!(reassemble(&cells), Err(Aal5Error::MissingCell { index: 3 }));
    }

    #[test]
    fn lost_last_cell_detected() {
        let payload = vec![9u8; 500];
        let mut cells = segment(0, 5, 1, &payload);
        cells.pop();
        assert_eq!(reassemble(&cells), Err(Aal5Error::Incomplete));
    }

    #[test]
    fn corruption_detected_by_crc() {
        let payload = vec![1u8; 200];
        let mut cells = segment(0, 5, 1, &payload);
        let mut bad = cells[1].payload.to_vec();
        bad[10] ^= 0xFF;
        cells[1] = cells[1].clone().with_payload(&bad);
        assert_eq!(reassemble(&cells), Err(Aal5Error::BadCrc));
    }

    #[test]
    fn empty_input_incomplete() {
        assert_eq!(reassemble(&[]), Err(Aal5Error::Incomplete));
    }

    #[test]
    fn end_bit_only_on_last_cell() {
        let cells = segment(0, 5, 1, &[0u8; 500]);
        let ends: Vec<bool> = cells.iter().map(|c| c.pdu_end).collect();
        assert!(ends[..ends.len() - 1].iter().all(|&e| !e));
        assert!(*ends.last().unwrap());
    }

    #[test]
    fn large_pdu_over_64k_window() {
        // 70 000 bytes: length field wraps mod 2^16; cell count recovers it.
        let payload: Vec<u8> = (0..70_000).map(|i| (i % 251) as u8).collect();
        let cells = segment(0, 5, 9, &payload);
        let back = reassemble(&cells).unwrap();
        assert_eq!(&back[..], &payload[..]);
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (standard check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_slice16(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_implementations_agree() {
        let mut buf = vec![0u8; 4096 + 16];
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for b in &mut buf {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }
        // Every length up to 80 covers each tail the 16-, 8- and 4-byte
        // steps leave, on both sides of the 64-byte SIMD threshold; the
        // offsets vary the input's alignment.
        let lengths = (0..=80).chain([100, 1023, 4096]);
        for n in lengths {
            for off in [0usize, 1, 3, 8, 13] {
                let data = &buf[off..off + n];
                let expect = crc32_ref(data);
                assert_eq!(crc32_slice16(data), expect, "slice16 len {n} off {off}");
                assert_eq!(crc32(data), expect, "dispatch len {n} off {off}");
                #[cfg(target_arch = "x86_64")]
                assert_eq!(crc32_pclmul(data), expect, "pclmul len {n} off {off}");
                #[cfg(target_arch = "aarch64")]
                assert_eq!(crc32_hwcrc(data), expect, "hwcrc len {n} off {off}");
                let (a, b) = data.split_at(n / 3);
                let split = !crc32_update(crc32_update(0xFFFF_FFFF, a), b);
                assert_eq!(split, expect, "update len {n} off {off}");
            }
        }
    }

    #[test]
    fn segment_into_reuses_and_matches() {
        let mut out = Vec::new();
        for size in [0usize, 40, 41, 1000] {
            let payload: Vec<u8> = (0..size).map(|i| (i % 253) as u8).collect();
            segment_into(0, 5, 2, &payload, &mut out);
            let fresh = segment(0, 5, 2, &payload);
            assert_eq!(out.len(), fresh.len());
            for (a, b) in out.iter().zip(&fresh) {
                assert_eq!(&a.payload[..], &b.payload[..]);
                assert_eq!(a.pdu_end, b.pdu_end);
                assert_eq!(a.cell_index, b.cell_index);
            }
        }
    }

    #[test]
    fn run_image_matches_cells_and_reassembles() {
        let payload: Vec<u8> = (0..5_000).map(|i| (i % 251) as u8).collect();
        let stored = Bytes::from(payload.clone());
        let run = segment_run(&[stored.slice(..60), stored.slice(60..)]);
        assert_eq!(run.ncells, cells_for(payload.len()));
        let mut cells = Vec::new();
        cells_from_run(0, 5, 3, &run, &mut cells);
        let via_cells = reassemble(&cells).unwrap();
        assert_eq!(&via_cells[..], &payload[..]);
        let via_run = reassemble_run(run).unwrap();
        assert_eq!(via_run.concat(), payload);
        // The run delivers the sender's own views, not copies.
        assert!(via_run
            .iter()
            .all(|p| Arc::ptr_eq(p.shared(), stored.shared())));
    }

    #[test]
    fn clean_reassembly_is_zero_copy() {
        let payload: Vec<u8> = (0..5_000).map(|i| (i % 256) as u8).collect();
        let cells = segment(0, 5, 3, &payload);
        let seg_arc = Arc::clone(cells[0].payload.shared());
        let back = reassemble(&cells).unwrap();
        assert_eq!(&back[..], &payload[..]);
        assert!(
            Arc::ptr_eq(back.shared(), &seg_arc),
            "clean delivery reuses the segmentation buffer"
        );
    }

    #[test]
    fn mutated_cell_falls_back_to_copy_path() {
        // A cell rewritten into its own buffer breaks contiguity;
        // reassembly must still work when the bytes are unchanged (copy
        // path, valid CRC).
        let payload = vec![5u8; 500];
        let mut cells = segment(0, 5, 1, &payload);
        let seg_arc = Arc::clone(cells[0].payload.shared());
        cells[2] = cells[2].clone().with_payload(&cells[2].payload);
        let back = reassemble(&cells).unwrap();
        assert_eq!(&back[..], &payload[..]);
        assert!(!Arc::ptr_eq(back.shared(), &seg_arc), "copied, not a view");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn run_window_past_the_image_panics() {
        let mut run = segment_run(&[Bytes::from(vec![0u8; 40])]);
        run.ncells = 2;
        cells_from_run(0, 5, 1, &run, &mut Vec::new());
    }

    #[test]
    fn corrupted_run_rejected() {
        let payload = Bytes::from(vec![3u8; 500]);
        let mut run = segment_run(&[payload.slice(..100), payload.slice(100..)]);
        let mut raw = run.parts[1].to_vec();
        raw[17] ^= 0x40;
        run.parts[1] = Bytes::from(raw);
        assert_eq!(reassemble_run(run.clone()), Err(Aal5Error::BadCrc));
        // Flattening carries the trailer as sent, so the cells fail too.
        let mut cells = Vec::new();
        cells_from_run(0, 5, 1, &run, &mut cells);
        assert_eq!(reassemble(&cells), Err(Aal5Error::BadCrc));
        // A part lost from the run no longer fits its length field.
        let mut short = segment_run(&[payload.slice(..100), payload.slice(100..)]);
        short.parts.pop();
        assert_eq!(reassemble_run(short), Err(Aal5Error::BadLength));
    }

    #[test]
    fn flattened_run_is_the_segmented_pdu() {
        for size in [0usize, 1, 39, 40, 41, 47, 48, 95, 96, 1000, 65_536] {
            let payload: Vec<u8> = (0..size).map(|i| (i * 13) as u8).collect();
            let stored = Bytes::from(payload.clone());
            let cut = size / 3;
            let run = segment_run(&[stored.slice(..cut), Bytes::new(), stored.slice(cut..)]);
            let whole = segment(0, 5, 1, &payload);
            let flat = run.flatten();
            assert_eq!(flat.len(), whole.len() * CELL_PAYLOAD, "size {size}");
            for (k, cell) in whole.iter().enumerate() {
                let window = &flat[k * CELL_PAYLOAD..(k + 1) * CELL_PAYLOAD];
                assert_eq!(&cell.payload[..], window, "size {size} cell {k}");
            }
            assert_eq!(&flat[flat.len() - TRAILER..], &run.trailer[..]);
        }
    }
}
