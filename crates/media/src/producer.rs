//! The media production center (Fig 3.1, §3.4.1).
//!
//! "A media production center is responsible for capturing information from
//! the real world and coding them into different media objects such as
//! text, image, audio, and video." Our center captures from *synthetic*
//! sources: each [`CaptureSpec`] deterministically produces the payload a
//! studio capture of that length/size would have produced, so courseware
//! built on top is reproducible.

use crate::codec::CodecModel;
use crate::format::MediaFormat;
use crate::object::{MediaId, MediaObject, VideoDims};
use bytes::Bytes;
use mits_sim::SimDuration;

/// What to capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureSpec {
    /// Output object name (`"Paris.mpg"`).
    pub name: String,
    /// Target format.
    pub format: MediaFormat,
    /// Capture length (time-based media).
    pub duration: SimDuration,
    /// Capture dimensions (visible media).
    pub dims: VideoDims,
    /// Character count (text media).
    pub chars: u64,
}

impl CaptureSpec {
    /// A video capture.
    pub fn video(
        name: impl Into<String>,
        format: MediaFormat,
        duration: SimDuration,
        dims: VideoDims,
    ) -> Self {
        CaptureSpec {
            name: name.into(),
            format,
            duration,
            dims,
            chars: 0,
        }
    }

    /// An audio capture.
    pub fn audio(name: impl Into<String>, format: MediaFormat, duration: SimDuration) -> Self {
        CaptureSpec {
            name: name.into(),
            format,
            duration,
            dims: VideoDims::default(),
            chars: 0,
        }
    }

    /// A text document of `chars` characters.
    pub fn text(name: impl Into<String>, format: MediaFormat, chars: u64) -> Self {
        CaptureSpec {
            name: name.into(),
            format,
            duration: SimDuration::ZERO,
            dims: VideoDims::default(),
            chars,
        }
    }

    /// A still image.
    pub fn image(name: impl Into<String>, format: MediaFormat, dims: VideoDims) -> Self {
        CaptureSpec {
            name: name.into(),
            format,
            duration: SimDuration::ZERO,
            dims,
            chars: 0,
        }
    }
}

/// The production center: allocates media ids and performs captures.
#[derive(Debug, Default)]
pub struct ProductionCenter {
    next_id: u64,
    seed: u64,
    produced: Vec<MediaObject>,
}

impl ProductionCenter {
    /// A center whose captures are derived from `seed`.
    pub fn new(seed: u64) -> Self {
        ProductionCenter {
            next_id: 1,
            seed,
            produced: Vec::new(),
        }
    }

    /// Capture one media object according to `spec`.
    pub fn capture(&mut self, spec: &CaptureSpec) -> MediaObject {
        let id = MediaId(self.next_id);
        self.next_id += 1;
        let model = CodecModel::for_format(spec.format);
        let data = if spec.chars > 0 {
            // Text payload: deterministic readable filler so library
            // browsing and keyword extraction have something to chew on.
            let size = model.static_size(spec.chars) as usize;
            synth_text(&spec.name, size)
        } else {
            model.generate_payload(spec.duration, spec.dims, self.seed ^ id.0)
        };
        let obj = MediaObject::new(
            id,
            spec.name.clone(),
            spec.format,
            spec.duration,
            spec.dims,
            Bytes::from(data),
        );
        self.produced.push(obj.clone());
        obj
    }

    /// Capture a batch of specs in order.
    pub fn capture_all(&mut self, specs: &[CaptureSpec]) -> Vec<MediaObject> {
        specs.iter().map(|s| self.capture(s)).collect()
    }

    /// Everything produced so far (the production-center catalogue).
    pub fn catalogue(&self) -> &[MediaObject] {
        &self.produced
    }

    /// Total bytes produced.
    pub fn total_bytes(&self) -> u64 {
        self.produced.iter().map(|m| m.data.len() as u64).sum()
    }
}

/// Deterministic readable filler text of exactly `size` bytes, themed on
/// the object name so text payloads differ between documents.
fn synth_text(name: &str, size: usize) -> Vec<u8> {
    const LOREM: &str = "the broadband multimedia telelearning system delivers course on demand \
over an atm network using mheg coded objects for realtime reusable interchange ";
    let mut out = Vec::with_capacity(size);
    let header = format!("[{name}] ");
    out.extend_from_slice(header.as_bytes());
    let body = LOREM.as_bytes();
    while out.len() < size {
        let take = (size - out.len()).min(body.len());
        out.extend_from_slice(&body[..take]);
    }
    out.truncate(size);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WAV_BYTES_PER_SEC;

    #[test]
    fn capture_allocates_sequential_ids() {
        let mut pc = ProductionCenter::new(1);
        let a = pc.capture(&CaptureSpec::audio(
            "a.wav",
            MediaFormat::Wav,
            SimDuration::from_secs(1),
        ));
        let b = pc.capture(&CaptureSpec::audio(
            "b.wav",
            MediaFormat::Wav,
            SimDuration::from_secs(1),
        ));
        assert_eq!(a.id, MediaId(1));
        assert_eq!(b.id, MediaId(2));
        assert_eq!(pc.catalogue().len(), 2);
    }

    #[test]
    fn audio_capture_has_calibrated_size() {
        let mut pc = ProductionCenter::new(1);
        let a = pc.capture(&CaptureSpec::audio(
            "a.wav",
            MediaFormat::Wav,
            SimDuration::from_secs(3),
        ));
        assert_eq!(a.size_bytes() as u64, 3 * WAV_BYTES_PER_SEC);
    }

    #[test]
    fn text_capture_exact_size_and_name_stamp() {
        let mut pc = ProductionCenter::new(1);
        let t = pc.capture(&CaptureSpec::text("intro.html", MediaFormat::Html, 1000));
        assert_eq!(t.size_bytes(), 1300, "30% HTML markup overhead");
        assert!(t.data.starts_with(b"[intro.html] "));
    }

    #[test]
    fn captures_are_reproducible_across_centers() {
        let mut pc1 = ProductionCenter::new(99);
        let mut pc2 = ProductionCenter::new(99);
        let spec = CaptureSpec::video(
            "Paris.mpg",
            MediaFormat::Mpeg,
            SimDuration::from_millis(500),
            VideoDims::new(64, 128),
        );
        assert_eq!(pc1.capture(&spec).data, pc2.capture(&spec).data);
    }

    #[test]
    fn different_seed_different_payload() {
        let mut pc1 = ProductionCenter::new(1);
        let mut pc2 = ProductionCenter::new(2);
        let spec = CaptureSpec::audio("a.wav", MediaFormat::Wav, SimDuration::from_secs(1));
        assert_ne!(pc1.capture(&spec).data, pc2.capture(&spec).data);
    }

    #[test]
    fn capture_all_and_totals() {
        let mut pc = ProductionCenter::new(5);
        let objs = pc.capture_all(&[
            CaptureSpec::image("fig1.gif", MediaFormat::Gif, VideoDims::new(100, 80)),
            CaptureSpec::text("notes.txt", MediaFormat::Ascii, 400),
        ]);
        assert_eq!(objs.len(), 2);
        assert_eq!(
            pc.total_bytes(),
            objs.iter().map(|o| o.size_bytes() as u64).sum::<u64>()
        );
    }
}
