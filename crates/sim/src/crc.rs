//! CRC-32 (IEEE 802.3 polynomial, bit-reflected): the one checksum
//! kernel of the stack. AAL5 trailers and write-ahead-log frames both use
//! it, so it lives here rather than in either layer.
//!
//! It runs over every AAL5 PDU twice (segment + reassemble) and over
//! every WAL frame on append and on replay, so it gets three
//! implementations: a slice-by-16 table walk as the portable baseline, a
//! carryless-multiply fold on x86_64 (PCLMULQDQ), and the dedicated CRC
//! instructions on aarch64 — both detected at runtime and self-checked
//! against the table path before being trusted. [`crc32_update`]
//! continues a CRC across buffers, so a PDU held as several parts is
//! checked without first being copied into one.

/// CRC-32, dispatching to the fastest implementation the host supports:
/// PCLMULQDQ folding on x86_64, the CRC instructions on aarch64,
/// slice-by-16 tables everywhere else. Hardware paths are
/// runtime-detected and verified against the table path once at first
/// use; a failed self-check (wrong microcode, exotic core) permanently
/// falls back to the tables, so the answer is always the IEEE CRC.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// Continue a CRC-32 over `data` from the raw (pre-inverted) state
/// `crc`, on the same dispatched implementation as [`crc32`]. Start from
/// `0xFFFF_FFFF` and invert at the end: for any split of a message into
/// `a` then `b`, `crc32(ab) == !crc32_update(crc32_update(!0, a), b)`.
#[allow(unsafe_code)] // calls the hardware paths the dispatcher detected
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    match crc_impl() {
        // SAFETY: the dispatcher picks this path only after detecting
        // pclmulqdq and sse4.1.
        #[cfg(target_arch = "x86_64")]
        CrcImpl::Pclmul => unsafe { pclmul_update(crc, data) },
        // SAFETY: the dispatcher picks this path only after detecting
        // the `crc` feature.
        #[cfg(target_arch = "aarch64")]
        CrcImpl::HwCrc => unsafe { crc32_hwcrc_inner(crc, data) },
        CrcImpl::Slice16 => crc32_slice16_update(crc, data),
    }
}

/// Slice-by-16 table implementation: folds 16 message bytes per
/// iteration. The portable fallback for [`crc32`].
pub fn crc32_slice16(data: &[u8]) -> u32 {
    !crc32_slice16_update(0xFFFF_FFFF, data)
}

/// Slice-by-16 continuation on a raw (pre-inverted) CRC state — lets the
/// SIMD path hand its sub-16-byte tail over without re-finalizing. A
/// ragged tail takes one 8-byte and one 4-byte step through the same
/// tables before the byte loop, so at most 3 bytes go one at a time.
fn crc32_slice16_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        let a = u32::from_le_bytes(c[..4].try_into().expect("4 bytes")) ^ crc;
        let b = u32::from_le_bytes(c[4..8].try_into().expect("4 bytes"));
        let d = u32::from_le_bytes(c[8..12].try_into().expect("4 bytes"));
        let e = u32::from_le_bytes(c[12..16].try_into().expect("4 bytes"));
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(d & 0xFF) as usize]
            ^ t[6][((d >> 8) & 0xFF) as usize]
            ^ t[5][((d >> 16) & 0xFF) as usize]
            ^ t[4][(d >> 24) as usize]
            ^ t[3][(e & 0xFF) as usize]
            ^ t[2][((e >> 8) & 0xFF) as usize]
            ^ t[1][((e >> 16) & 0xFF) as usize]
            ^ t[0][(e >> 24) as usize];
    }
    let mut tail = chunks.remainder();
    if let Some((c, rest)) = tail.split_first_chunk::<8>() {
        let a = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let b = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(a & 0xFF) as usize]
            ^ t[6][((a >> 8) & 0xFF) as usize]
            ^ t[5][((a >> 16) & 0xFF) as usize]
            ^ t[4][(a >> 24) as usize]
            ^ t[3][(b & 0xFF) as usize]
            ^ t[2][((b >> 8) & 0xFF) as usize]
            ^ t[1][((b >> 16) & 0xFF) as usize]
            ^ t[0][(b >> 24) as usize];
        tail = rest;
    }
    if let Some((c, rest)) = tail.split_first_chunk::<4>() {
        let a = u32::from_le_bytes(*c) ^ crc;
        crc = t[3][(a & 0xFF) as usize]
            ^ t[2][((a >> 8) & 0xFF) as usize]
            ^ t[1][((a >> 16) & 0xFF) as usize]
            ^ t[0][(a >> 24) as usize];
        tail = rest;
    }
    for &b in tail {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// table `k` advances a byte `k` positions further into the message,
/// letting the slice-by-16 loop fold 16 bytes per iteration.
static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (c & 1).wrapping_neg();
            c = (c >> 1) ^ (0xEDB8_8320 & mask);
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CrcImpl {
    Slice16,
    #[cfg(target_arch = "x86_64")]
    Pclmul,
    #[cfg(target_arch = "aarch64")]
    HwCrc,
}

fn crc_impl() -> CrcImpl {
    static IMPL: std::sync::OnceLock<CrcImpl> = std::sync::OnceLock::new();
    *IMPL.get_or_init(detect_crc_impl)
}

/// Runtime detection with a self-check: the hardware path must agree with
/// slice-by-16 on a spread of lengths (covering the fold loop, the 4→1
/// reduction, 16-byte folds and odd tails) before it is trusted.
fn detect_crc_impl() -> CrcImpl {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
            && hw_agrees_with_tables(crc32_pclmul)
        {
            return CrcImpl::Pclmul;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("crc") && hw_agrees_with_tables(crc32_hwcrc) {
            return CrcImpl::HwCrc;
        }
    }
    CrcImpl::Slice16
}

#[allow(dead_code)] // unused on targets without a hardware CRC path
fn hw_agrees_with_tables(hw: fn(&[u8]) -> u32) -> bool {
    let mut buf = [0u8; 259];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for b in &mut buf {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
    [0usize, 1, 9, 15, 16, 63, 64, 65, 80, 127, 128, 193, 259]
        .iter()
        .all(|&n| hw(&buf[..n]) == crc32_slice16(&buf[..n]))
}

/// True when [`crc32`] dispatches to a hardware (SIMD / CRC-instruction)
/// implementation on this host.
pub fn crc32_is_hw_accelerated() -> bool {
    crc_impl() != CrcImpl::Slice16
}

/// PCLMULQDQ-folded CRC-32 (x86_64). Safe wrapper: feature presence is
/// guaranteed by the dispatcher, and short or ragged inputs run through
/// the table path. Public so benches and tests can pin this path.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // std::arch intrinsics; guarded by runtime detection
pub fn crc32_pclmul(data: &[u8]) -> u32 {
    if !std::arch::is_x86_feature_detected!("pclmulqdq")
        || !std::arch::is_x86_feature_detected!("sse4.1")
    {
        return crc32_slice16(data);
    }
    // SAFETY: pclmulqdq and sse4.1 presence checked just above.
    !unsafe { pclmul_update(0xFFFF_FFFF, data) }
}

/// PCLMULQDQ continuation on a raw CRC state: the 16-byte-aligned
/// prefix of an input of 64 bytes or more is folded, everything else
/// runs through the tables.
///
/// # Safety
///
/// The host must support `pclmulqdq` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // std::arch intrinsics; guarded by runtime detection
unsafe fn pclmul_update(crc: u32, data: &[u8]) -> u32 {
    if data.len() < 64 {
        return crc32_slice16_update(crc, data);
    }
    let split = data.len() & !15;
    // SAFETY: the caller guarantees pclmulqdq and sse4.1; `split` is
    // ≥ 64 and a multiple of 16.
    let crc = unsafe { crc32_fold_pclmul(crc, &data[..split]) };
    crc32_slice16_update(crc, &data[split..])
}

/// The 128-bit carryless-multiply fold (reflected CRC-32, IEEE poly).
/// Constants are the standard reflected folding set: k1/k2 fold 64 bytes,
/// k3/k4 fold 16, k5 reduces 128→64 bits, and (P', μ) drive the final
/// Barrett reduction.
///
/// # Safety
///
/// The host must support `pclmulqdq` and `sse4.1`, and `data.len()` must
/// be at least 64 and a multiple of 16.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // std::arch intrinsics; guarded by runtime detection
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
unsafe fn crc32_fold_pclmul(crc: u32, data: &[u8]) -> u32 {
    use core::arch::x86_64::*;
    debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
    let k1k2 = _mm_set_epi64x(0x0001_c6e4_1596, 0x0001_5444_2bd4);
    let k3k4 = _mm_set_epi64x(0x0000_ccaa_009e, 0x0001_7519_97d0);
    let k5 = _mm_set_epi64x(0, 0x0001_63cd_6124);
    let poly_mu = _mm_set_epi64x(0x0001_f701_1641, 0x0001_db71_0641);
    let mask32 = _mm_set_epi32(0, -1, 0, -1);

    let mut buf = data.as_ptr();
    let mut len = data.len();
    let mut x1 = _mm_loadu_si128(buf.cast());
    let mut x2 = _mm_loadu_si128(buf.add(16).cast());
    let mut x3 = _mm_loadu_si128(buf.add(32).cast());
    let mut x4 = _mm_loadu_si128(buf.add(48).cast());
    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(crc as i32));
    buf = buf.add(64);
    len -= 64;

    while len >= 64 {
        let y1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
        let y2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
        let y3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
        let y4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
        x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
        x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
        x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, y1), _mm_loadu_si128(buf.cast()));
        x2 = _mm_xor_si128(_mm_xor_si128(x2, y2), _mm_loadu_si128(buf.add(16).cast()));
        x3 = _mm_xor_si128(_mm_xor_si128(x3, y3), _mm_loadu_si128(buf.add(32).cast()));
        x4 = _mm_xor_si128(_mm_xor_si128(x4, y4), _mm_loadu_si128(buf.add(48).cast()));
        buf = buf.add(64);
        len -= 64;
    }

    // Fold the four 128-bit lanes into one.
    let mut y = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), y);
    y = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), y);
    y = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), y);

    while len >= 16 {
        y = _mm_clmulepi64_si128(x1, k3k4, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, _mm_loadu_si128(buf.cast())), y);
        buf = buf.add(16);
        len -= 16;
    }

    // 128 → 64 bits.
    y = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_srli_si128(x1, 8);
    x1 = _mm_xor_si128(x1, y);
    let upper = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, mask32);
    x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
    x1 = _mm_xor_si128(x1, upper);

    // Barrett reduction 64 → 32 bits.
    let mut t = _mm_and_si128(x1, mask32);
    t = _mm_clmulepi64_si128(t, poly_mu, 0x10);
    t = _mm_and_si128(t, mask32);
    t = _mm_clmulepi64_si128(t, poly_mu, 0x00);
    x1 = _mm_xor_si128(x1, t);
    _mm_extract_epi32(x1, 1) as u32
}

/// CRC-instruction implementation (aarch64). Safe wrapper; feature
/// presence is guaranteed by the dispatcher's detection + self-check.
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)] // std::arch intrinsics; guarded by runtime detection
pub fn crc32_hwcrc(data: &[u8]) -> u32 {
    if !std::arch::is_aarch64_feature_detected!("crc") {
        return crc32_slice16(data);
    }
    // SAFETY: the `crc` feature was just detected.
    !unsafe { crc32_hwcrc_inner(0xFFFF_FFFF, data) }
}

/// CRC-instruction continuation on a raw CRC state.
///
/// # Safety
///
/// The host must support the aarch64 `crc` feature.
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)] // std::arch intrinsics; guarded by runtime detection
#[target_feature(enable = "crc")]
unsafe fn crc32_hwcrc_inner(mut crc: u32, data: &[u8]) -> u32 {
    use core::arch::aarch64::{__crc32b, __crc32d};
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        crc = __crc32d(crc, u64::from_le_bytes(c.try_into().expect("8 bytes")));
    }
    for &b in chunks.remainder() {
        crc = __crc32b(crc, b);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tier_gives_the_check_value() {
        // CRC-32("123456789") = 0xCBF43926 (the standard check value).
        for crc in [crc32, crc32_slice16] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
    }

    #[test]
    fn update_continues_across_any_split() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 151 % 256) as u8).collect();
        for n in [0usize, 1, 3, 4, 7, 8, 12, 15, 16, 63, 64, 65, 130, 300] {
            let whole = crc32(&data[..n]);
            for cut in [0, 1.min(n), n / 3, n / 2, n.saturating_sub(5), n] {
                let head = crc32_update(0xFFFF_FFFF, &data[..cut]);
                assert_eq!(
                    !crc32_update(head, &data[cut..n]),
                    whole,
                    "len {n} cut {cut}"
                );
            }
        }
    }
}
