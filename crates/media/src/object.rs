//! Media objects — the mono-media units produced by the production center,
//! referenced by MHEG content objects, and stored in the content database.
//!
//! In MITS the *content data* is deliberately stored "separately from the
//! scenario" (§3.4.2) so that a scenario fetch does not drag megabytes of
//! video across the network. A [`MediaObject`] therefore carries its full
//! payload, while the MHEG layer holds only a [`MediaId`] plus presentation
//! parameters.

use crate::format::{MediaFormat, MediaKind};
use bytes::Bytes;
use mits_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of a media object within a MITS installation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct MediaId(pub u64);

impl fmt::Display for MediaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "media:{}", self.0)
    }
}

/// Pixel dimensions of visible media.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct VideoDims {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl VideoDims {
    /// Convenience constructor.
    pub const fn new(width: u32, height: u32) -> Self {
        VideoDims { width, height }
    }

    /// Pixel count.
    pub fn pixels(self) -> u64 {
        self.width as u64 * self.height as u64
    }
}

impl fmt::Display for VideoDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// 64-bit content fingerprint of a media payload ([`MediaObject::checksum`]).
/// The wire carries no checksum — the AAL5 CRC already guards every PDU
/// — so nothing computes it on the fetch path; it exists to compare
/// payloads. The value is only ever compared against a checksum produced
/// by this same function, so the construction is free to favour speed:
/// four independent multiply-mix lanes each consume one 64-bit
/// word per round (the byte-at-a-time FNV-1a this replaces serialised a
/// multiply behind every single byte), the tail runs plain FNV-1a, and a
/// murmur-style finalizer folds in the length and avalanches the result
/// so single-bit corruption, reordering, and length changes all move the
/// checksum.
pub fn checksum64(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut lanes: [u64; 4] = [
        0xcbf2_9ce4_8422_2325,
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
    ];
    let mut chunks = data.chunks_exact(32);
    for block in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(PRIME).rotate_left(29);
        }
    }
    let mut hash = lanes[0];
    for &lane in &lanes[1..] {
        hash = (hash ^ lane).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        hash = (hash ^ b as u64).wrapping_mul(PRIME);
    }
    hash ^= data.len() as u64;
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    hash
}

/// A complete mono-media object: identification, coding parameters, and
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaObject {
    /// Installation-unique id.
    pub id: MediaId,
    /// Human-readable name, e.g. `"Paris.mpg"` (the paper's own example).
    pub name: String,
    /// Coding method.
    pub format: MediaFormat,
    /// Intrinsic duration; zero for static media.
    pub duration: SimDuration,
    /// Display dimensions; zeroed for audio.
    pub dims: VideoDims,
    /// The (synthetic) coded payload.
    pub data: Bytes,
}

impl MediaObject {
    /// Build an object. `data` is kept as given (a view, not a copy).
    pub fn new(
        id: MediaId,
        name: impl Into<String>,
        format: MediaFormat,
        duration: SimDuration,
        dims: VideoDims,
        data: Bytes,
    ) -> Self {
        MediaObject {
            id,
            name: name.into(),
            format,
            duration,
            dims,
            data,
        }
    }

    /// Perceptual kind (video/audio/text/image/graphics).
    pub fn kind(&self) -> MediaKind {
        self.format.kind()
    }

    /// Payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Average coded bit-rate; `None` for static media.
    pub fn bit_rate(&self) -> Option<f64> {
        let secs = self.duration.as_secs_f64();
        (secs > 0.0).then(|| self.data.len() as f64 * 8.0 / secs)
    }

    /// Fingerprint of the payload ([`checksum64`]), computed on demand.
    pub fn checksum(&self) -> u64 {
        checksum64(&self.data)
    }

    /// Summary line for catalogues and logs.
    pub fn describe(&self) -> String {
        let dur = if self.duration.is_zero() {
            "static".to_string()
        } else {
            format!("{}", self.duration)
        };
        format!(
            "{} [{}] {} {} {} bytes",
            self.name,
            self.format,
            self.dims,
            dur,
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MediaObject {
        MediaObject::new(
            MediaId(7),
            "Paris.mpg",
            MediaFormat::Mpeg,
            SimDuration::from_secs(6),
            VideoDims::new(64, 128),
            Bytes::from(vec![1, 2, 3, 4]),
        )
    }

    #[test]
    fn checksum_detects_corruption() {
        let m = sample();
        let mut flipped = m.data.to_vec();
        flipped[2] ^= 0xFF;
        let corrupted = MediaObject {
            data: Bytes::from(flipped),
            ..m.clone()
        };
        assert_ne!(corrupted.checksum(), m.checksum());
        assert_eq!(m.clone().checksum(), m.checksum());
    }

    #[test]
    fn checksum64_is_order_sensitive() {
        assert_ne!(checksum64(&[1, 2]), checksum64(&[2, 1]));
        assert_ne!(checksum64(&[]), checksum64(&[0]));
        assert_eq!(checksum64(b"abc"), checksum64(b"abc"));
    }

    #[test]
    fn bit_rate_for_timed_media() {
        let m = sample();
        // 4 bytes over 6 s = 32 bits / 6 s.
        let r = m.bit_rate().unwrap();
        assert!((r - 32.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn bit_rate_none_for_static() {
        let m = MediaObject::new(
            MediaId(1),
            "page.html",
            MediaFormat::Html,
            SimDuration::ZERO,
            VideoDims::default(),
            Bytes::from_static(b"<html></html>"),
        );
        assert_eq!(m.bit_rate(), None);
        assert_eq!(m.kind(), MediaKind::Text);
    }

    #[test]
    fn describe_contains_key_facts() {
        let d = sample().describe();
        assert!(d.contains("Paris.mpg"));
        assert!(d.contains("MPEG"));
        assert!(d.contains("64x128"));
        assert!(d.contains("4 bytes"));
    }

    #[test]
    fn dims_pixels() {
        assert_eq!(VideoDims::new(640, 480).pixels(), 307_200);
    }
}
