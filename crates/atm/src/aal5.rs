//! AAL5 segmentation and reassembly.
//!
//! AAL5 appends an 8-byte trailer (2 reserved, 2 length, 4 CRC-32) to the
//! PDU, pads to a multiple of 48, and marks the final cell with the
//! PTI end-of-PDU bit. Reassembly collects cells until the end bit, then
//! validates length and CRC — a single lost cell corrupts the whole PDU,
//! which is exactly the behaviour that makes cell loss so expensive for
//! courseware delivery and shows up in experiment E-BB.
//!
//! Segmentation writes the PDU **once** into a padded shared buffer (the
//! *run image*) and hands every cell a 48-byte [`Bytes`] window into it.
//! Reassembly detects when the arriving cells are still consecutive
//! windows of one buffer (the common clean-delivery case) and returns a
//! zero-copy view of it; the cell-train fast path skips the per-cell form
//! entirely and validates the run image directly ([`reassemble_run`]).
//! Only cells that were individually mutated in flight (fault injection)
//! or stitched from multiple sources fall back to a copying path.
//!
//! The CRC-32 kernel runs over every PDU twice (segment + reassemble); it
//! is [`mits_sim::crc`]'s runtime-dispatched slice-by-16 / PCLMULQDQ /
//! aarch64 CRC-instruction kernel, re-exported here under its AAL5 names.

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
pub use mits_sim::crc::{crc32, crc32_is_hw_accelerated, crc32_slice16};

// ---- segmentation ----

const TRAILER: usize = 8;

/// A segmented PDU held as one padded, trailer-carrying buffer — the
/// *run image* the cell-train fast path ships across the network without
/// ever materializing per-cell structs. `payload` spans the whole padded
/// body (`ncells * 48` bytes); cell `i`'s wire payload is bytes
/// `[i*48, (i+1)*48)`.
#[derive(Debug, Clone)]
pub struct RunImage {
    /// The padded body, trailer included, as a shared view.
    pub payload: Bytes,
    /// Number of 48-byte cells in the run.
    pub ncells: usize,
}

/// Build the padded run image for a PDU: one allocation, written in
/// place (payload bytes, zero padding, length field, CRC) — no
/// `vec![0; total]` pre-zeroing and no second copy into the shared
/// buffer.
pub fn segment_run(payload: &[u8]) -> RunImage {
    fresh_run(&[payload])
}

/// Total payload length of a gather list (the PDU is its parts
/// concatenated in order).
fn pdu_len(pdu: &[&[u8]]) -> usize {
    pdu.iter().map(|p| p.len()).sum()
}

/// Write the run image of the PDU `pdu` (its parts in order, zero
/// padding, the length field, then the CRC over all of it) into `dst`.
/// Each payload byte is copied exactly once.
///
/// # Safety
/// `dst` must be valid for writes of `total` bytes, where `total` is the
/// padded body size for `len = pdu_len(pdu)` (a multiple of 48, at least
/// `len + TRAILER`), and must not overlap any part of `pdu`.
#[allow(unsafe_code)] // raw writes so a fresh uninit allocation needs no pre-zeroing
unsafe fn write_run(dst: *mut u8, pdu: &[&[u8]], len: usize, total: usize) {
    let mut at = 0;
    for part in pdu {
        // SAFETY: the parts sum to `len`, so `[at, at + part.len())`
        // stays inside `[0, len)` of `dst`, which cannot overlap `part`.
        unsafe { std::ptr::copy_nonoverlapping(part.as_ptr(), dst.add(at), part.len()) };
        at += part.len();
    }
    // SAFETY: `[len, total)` is inside `dst`; after these writes every
    // byte of `[0, total - 4)` is initialized (payload, zeroed padding
    // and reserved trailer bytes, length field), so the CRC may read it.
    let crc = unsafe {
        std::ptr::write_bytes(dst.add(len), 0, total - 6 - len);
        // (16-bit length like real AAL5; PDUs > 65535 carry length mod
        // 2^16 and rely on the cell count check, as real AAL5 caps PDUs
        // at 65535.)
        let len_be = (len as u16).to_be_bytes();
        std::ptr::copy_nonoverlapping(len_be.as_ptr(), dst.add(total - 6), 2);
        crc32(std::slice::from_raw_parts(dst, total - 4))
    };
    // SAFETY: the last 4 bytes of `dst`.
    unsafe { std::ptr::copy_nonoverlapping(crc.to_be_bytes().as_ptr(), dst.add(total - 4), 4) };
}

/// Run image of `pdu` in a freshly allocated buffer.
#[allow(unsafe_code)] // single-pass init of an uninit Arc slice, fully written before use
fn fresh_run(pdu: &[&[u8]]) -> RunImage {
    let len = pdu_len(pdu);
    let ncells = cells_for(len);
    let total = ncells * CELL_PAYLOAD;
    let mut arc: Arc<[std::mem::MaybeUninit<u8>]> = Arc::new_uninit_slice(total);
    let buf = Arc::get_mut(&mut arc).expect("freshly allocated");
    // SAFETY: `buf` is `total` writable bytes of a new allocation, so it
    // overlaps no part of `pdu`.
    unsafe { write_run(buf.as_mut_ptr().cast::<u8>(), pdu, len, total) };
    // SAFETY: `write_run` initialized every byte of the slice.
    let arc: Arc<[u8]> = unsafe { arc.assume_init() };
    RunImage {
        payload: Bytes::from_shared(arc),
        ncells,
    }
}

/// Pool bounds for [`segment_run_pooled`]: small control PDUs (acks)
/// churn too fast to be worth pooling, and the pool itself must stay a
/// bounded scratch, not a cache.
const POOL_MAX: usize = 16;
const POOL_MIN_BYTES: usize = 1024;

/// The run image of the PDU `pdu` — a gather list, whose parts
/// concatenated in order are the PDU — with buffer recycling through
/// `pool` (typically the network's `NetScratch`). The parts are written
/// once, straight into the run image, and the image is bit-identical to
/// [`segment_run`] over their concatenation. When the pool holds a
/// retired buffer of exactly the right size whose only remaining owner
/// is the pool itself, the run is rewritten into it in place — zero
/// allocations on the steady-state send path. Every byte is overwritten
/// (payload, padding, length field, CRC), so a recycled run is
/// bit-identical to a fresh one. The buffer stays registered in the
/// pool and becomes reusable again once the network and its deliveries
/// drop their views.
#[allow(unsafe_code)] // the shared writer takes a raw destination
pub fn segment_run_pooled(pdu: &[&[u8]], pool: &mut Vec<Arc<[u8]>>) -> RunImage {
    let len = pdu_len(pdu);
    let ncells = cells_for(len);
    let total = ncells * CELL_PAYLOAD;
    if total < POOL_MIN_BYTES {
        return fresh_run(pdu);
    }
    let reusable = pool
        .iter()
        .position(|a| a.len() == total && Arc::strong_count(a) == 1);
    let Some(i) = reusable else {
        let run = fresh_run(pdu);
        if pool.len() >= POOL_MAX {
            pool.swap_remove(0);
        }
        pool.push(Arc::clone(run.payload.shared()));
        return run;
    };
    let mut arc = pool.swap_remove(i);
    let buf = Arc::get_mut(&mut arc).expect("uniquely owned");
    // SAFETY: `buf` is `total` bytes, uniquely owned here (no `Bytes`
    // views it, so no part of `pdu` can alias it).
    unsafe { write_run(buf.as_mut_ptr(), pdu, len, total) };
    let view = Bytes::from_shared(Arc::clone(&arc));
    pool.push(arc);
    RunImage {
        payload: view,
        ncells,
    }
}

/// Materialize the per-cell form of a run image into `out` (cleared
/// first): zero-copy 48-byte views into the run buffer.
pub fn cells_from_run(vpi: u8, vci: u16, pdu_seq: u64, run: &RunImage, out: &mut Vec<AtmCell>) {
    out.clear();
    out.reserve(run.ncells);
    for i in 0..run.ncells {
        out.push(
            AtmCell::new(vpi, vci, pdu_seq, i as u32, i == run.ncells - 1)
                .with_payload_view(run.payload.slice(i * CELL_PAYLOAD..(i + 1) * CELL_PAYLOAD)),
        );
    }
}

/// Segment a PDU into cells, reusing `out`'s allocation (cleared first).
/// The PDU is written once into a padded trailer-carrying buffer; the
/// cells are zero-copy 48-byte views into it.
pub fn segment_into(vpi: u8, vci: u16, pdu_seq: u64, payload: &[u8], out: &mut Vec<AtmCell>) {
    let run = segment_run(payload);
    cells_from_run(vpi, vci, pdu_seq, &run, out);
}

/// Segment a PDU into freshly allocated cells for the given VC
/// identifiers (see [`segment_into`] for the allocation-reusing form).
pub fn segment(vpi: u8, vci: u16, pdu_seq: u64, payload: &[u8]) -> Vec<AtmCell> {
    let mut out = Vec::new();
    segment_into(vpi, vci, pdu_seq, payload, &mut out);
    out
}

/// Validate trailer length against the cell count, returning the true PDU
/// length within the padded body `buf`.
fn validated_length(buf: &[u8]) -> Result<usize, Aal5Error> {
    let total = buf.len();
    let crc_stored = u32::from_be_bytes(buf[total - 4..].try_into().expect("4 bytes"));
    if crc32(&buf[..total - 4]) != crc_stored {
        return Err(Aal5Error::BadCrc);
    }
    let len_field =
        u16::from_be_bytes(buf[total - 6..total - 4].try_into().expect("2 bytes")) as usize;
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
        let length = validated_length(&arc[base..base + total])?;
        return Ok(Bytes::from_shared_range(arc, base, base + length));
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

/// Reassemble straight from a run descriptor: the contiguity fast path of
/// [`reassemble`] without the per-cell walk. `run` must span the whole
/// padded body (as built by [`segment_run`]); the CRC and length field
/// are still validated honestly, so a corrupted buffer is caught exactly
/// as it would be cell-by-cell.
pub fn reassemble_run(run: &Bytes) -> Result<Bytes, Aal5Error> {
    let (start, end) = run.shared_range();
    if (end - start) % CELL_PAYLOAD != 0 || end == start {
        return Err(Aal5Error::BadLength);
    }
    let arc = Arc::clone(run.shared());
    let length = validated_length(&arc[start..end])?;
    Ok(Bytes::from_shared_range(arc, start, start + length))
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
            let run = segment_run(&payload);
            let back = reassemble_run(&run.payload).unwrap();
            assert_eq!(&back[..], &payload[..], "run size {size}");
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
        let mut buf = vec![0u8; 4096];
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for b in &mut buf {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }
        for n in [0usize, 1, 7, 8, 15, 16, 47, 48, 63, 64, 65, 100, 1023, 4096] {
            let expect = crc32_ref(&buf[..n]);
            assert_eq!(crc32_slice16(&buf[..n]), expect, "slice16 len {n}");
            assert_eq!(crc32(&buf[..n]), expect, "dispatch len {n}");
            #[cfg(target_arch = "x86_64")]
            assert_eq!(crc32_pclmul(&buf[..n]), expect, "pclmul len {n}");
            #[cfg(target_arch = "aarch64")]
            assert_eq!(crc32_hwcrc(&buf[..n]), expect, "hwcrc len {n}");
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
        let run = segment_run(&payload);
        assert_eq!(run.ncells, cells_for(payload.len()));
        let mut cells = Vec::new();
        cells_from_run(0, 5, 3, &run, &mut cells);
        let via_cells = reassemble(&cells).unwrap();
        let via_run = reassemble_run(&run.payload).unwrap();
        assert_eq!(&via_cells[..], &payload[..]);
        assert_eq!(&via_run[..], &payload[..]);
        // Both are zero-copy views of the same run buffer.
        assert!(Arc::ptr_eq(via_run.shared(), run.payload.shared()));
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
        let mut run = segment_run(&[0u8; 40]);
        run.ncells = 2;
        cells_from_run(0, 5, 1, &run, &mut Vec::new());
    }

    #[test]
    fn corrupted_run_rejected() {
        let payload = vec![3u8; 500];
        let run = segment_run(&payload);
        let mut raw: Vec<u8> = run.payload.to_vec();
        raw[17] ^= 0x40;
        let corrupted = Bytes::from(raw);
        assert_eq!(reassemble_run(&corrupted), Err(Aal5Error::BadCrc));
    }
}
