//! Streamed video delivery across link profiles — experiment E-BB.
//!
//! The paper's central infrastructure claim (§1.3.3): narrowband networks
//! cannot deliver "real multimedia information"; "the advancement of
//! B-ISDN and ATM technology has provided a prospective solution ... in a
//! fast and quality manner". Here we stream a modelled MPEG course clip
//! over each candidate link and measure what a student would see: frames
//! arriving after their presentation deadlines.

use bytes::{BufMut, BytesMut};
use mits_atm::{AtmNetwork, CbrSource, LinkProfile, ServiceClass, VbrVideoSource};
use mits_sim::{OnlineStats, SimDuration, SimTime};
use std::collections::HashMap;

/// Result of one streaming run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Frames offered by the source.
    pub frames: u64,
    /// Frames that arrived intact.
    pub delivered: u64,
    /// Frames lost (cell loss / overflow killed their PDU).
    pub lost: u64,
    /// Frames that arrived after their presentation deadline.
    pub late: u64,
    /// Lateness of late frames, seconds.
    pub lateness: OnlineStats,
    /// Cell loss ratio on the circuit.
    pub clr: f64,
    /// Mean cell transfer delay, seconds.
    pub mean_ctd: f64,
    /// Playable fraction: frames on time / frames offered.
    pub playable: f64,
}

/// Stream `duration` of video at `bits_per_sec` over `profile` with a
/// `prebuffer` startup delay before playback begins; frame `i`'s deadline
/// is `prebuffer + pts(i)`.
pub fn stream_video_over(
    profile: LinkProfile,
    duration: SimDuration,
    bits_per_sec: u64,
    prebuffer: SimDuration,
    seed: u64,
) -> StreamReport {
    let mut net = AtmNetwork::new(seed);
    let server = net.add_host("video-server");
    let switch = net.add_switch("switch");
    let student = net.add_host("student");
    net.connect(server, switch, LinkProfile::atm_oc3());
    net.connect(switch, student, profile);
    let vc = net
        .open_vc(&[server, switch, student], ServiceClass::Vbr, None)
        .expect("topology is connected");

    let source = VbrVideoSource {
        duration,
        bits_per_sec,
        seed,
    };
    let schedule = source.schedule();
    let frames = schedule.len() as u64;
    // Send each frame at its PTS, stamping the frame index into the
    // payload so arrivals can be matched to deadlines.
    let mut deadline_of: HashMap<u64, SimTime> = HashMap::new();
    // Emissions are already time-ordered; drive the network between them.
    let mut deliveries = Vec::new();
    for (i, e) in schedule.iter().enumerate() {
        let at = SimTime::ZERO + e.at;
        deliveries.extend(net.advance(at));
        let mut payload = BytesMut::with_capacity(e.bytes.max(8));
        payload.put_u64(i as u64);
        payload.resize(e.bytes.max(8), 0);
        net.send(vc, &[payload.freeze()]).expect("vc open");
        deadline_of.insert(i as u64, SimTime::ZERO + prebuffer + e.at);
    }
    deliveries.extend(net.drain(SimTime::ZERO + duration + SimDuration::from_secs(3600)));

    let mut delivered = 0u64;
    let mut late = 0u64;
    let mut lateness = OnlineStats::new();
    for d in deliveries {
        let frame = d.payload.to_bytes();
        if frame.len() < 8 {
            continue;
        }
        let idx = u64::from_be_bytes(frame[..8].try_into().expect("8 bytes"));
        delivered += 1;
        if let Some(deadline) = deadline_of.get(&idx) {
            if d.at > *deadline {
                late += 1;
                lateness.record(d.at.since(*deadline).as_secs_f64());
            }
        }
    }
    let stats = net.vc_stats(vc).expect("vc exists");
    let lost = frames.saturating_sub(delivered);
    let on_time = delivered - late;
    StreamReport {
        frames,
        delivered,
        lost,
        late,
        lateness,
        clr: stats.clr(),
        mean_ctd: stats.ctd.mean(),
        playable: if frames == 0 {
            0.0
        } else {
            on_time as f64 / frames as f64
        },
    }
}

/// Stream constant-rate audio the same way (the audio row of E-BB).
pub fn stream_audio_over(
    profile: LinkProfile,
    duration: SimDuration,
    bits_per_sec: u64,
    prebuffer: SimDuration,
    seed: u64,
) -> StreamReport {
    let mut net = AtmNetwork::new(seed);
    let server = net.add_host("audio-server");
    let student = net.add_host("student");
    net.connect(server, student, profile);
    let vc = net
        .open_vc(&[server, student], ServiceClass::Cbr, None)
        .expect("topology is connected");
    let source = CbrSource {
        rate_bps: bits_per_sec,
        pdu_bytes: 1_024,
    };
    let schedule = source.schedule(duration);
    let frames = schedule.len() as u64;
    let mut deadline_of: HashMap<u64, SimTime> = HashMap::new();
    let mut deliveries = Vec::new();
    for (i, e) in schedule.iter().enumerate() {
        let at = SimTime::ZERO + e.at;
        deliveries.extend(net.advance(at));
        let mut payload = BytesMut::with_capacity(e.bytes.max(8));
        payload.put_u64(i as u64);
        payload.resize(e.bytes.max(8), 0);
        net.send(vc, &[payload.freeze()]).expect("vc open");
        deadline_of.insert(i as u64, at + prebuffer);
    }
    deliveries.extend(net.drain(SimTime::ZERO + duration + SimDuration::from_secs(3600)));
    let mut delivered = 0u64;
    let mut late = 0u64;
    let mut lateness = OnlineStats::new();
    for d in deliveries {
        let frame = d.payload.to_bytes();
        if frame.len() < 8 {
            continue;
        }
        let idx = u64::from_be_bytes(frame[..8].try_into().expect("8 bytes"));
        delivered += 1;
        if let Some(deadline) = deadline_of.get(&idx) {
            if d.at > *deadline {
                late += 1;
                lateness.record(d.at.since(*deadline).as_secs_f64());
            }
        }
    }
    let stats = net.vc_stats(vc).expect("vc exists");
    StreamReport {
        frames,
        delivered,
        lost: frames.saturating_sub(delivered),
        late,
        lateness,
        clr: stats.clr(),
        mean_ctd: stats.ctd.mean(),
        playable: if frames == 0 {
            0.0
        } else {
            (delivered - late) as f64 / frames as f64
        },
    }
}

/// One byte-stream marker so the report can be tagged with its scenario.
pub fn profile_name(p: &LinkProfile) -> &'static str {
    match p.rate_bps {
        155_520_000 => "ATM OC-3 155M",
        6_000_000 => "shared LAN 10M",
        128_000 => "ISDN 128k",
        28_800 => "modem 28.8k",
        _ => "custom",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MPEG_RATE: u64 = 1_500_000;

    #[test]
    fn broadband_plays_mpeg_cleanly() {
        let r = stream_video_over(
            LinkProfile::atm_oc3(),
            SimDuration::from_secs(10),
            MPEG_RATE,
            SimDuration::from_secs(1),
            1,
        );
        assert_eq!(r.frames, 300);
        assert!(r.playable > 0.99, "playable {}", r.playable);
        assert_eq!(r.lost, 0);
    }

    #[test]
    fn modem_cannot_play_mpeg() {
        let r = stream_video_over(
            LinkProfile::modem_28_8k(),
            SimDuration::from_secs(10),
            MPEG_RATE,
            SimDuration::from_secs(1),
            1,
        );
        // 1.5 Mb/s into 28.8 kb/s: essentially nothing plays on time.
        assert!(r.playable < 0.05, "playable {}", r.playable);
    }

    #[test]
    fn isdn_marginal_lan_mostly_ok() {
        let isdn = stream_video_over(
            LinkProfile::isdn_128k(),
            SimDuration::from_secs(5),
            MPEG_RATE,
            SimDuration::from_secs(1),
            1,
        );
        let lan = stream_video_over(
            LinkProfile::lan_10m(),
            SimDuration::from_secs(5),
            MPEG_RATE,
            SimDuration::from_secs(1),
            1,
        );
        assert!(isdn.playable < 0.2, "ISDN playable {}", isdn.playable);
        assert!(lan.playable > 0.9, "LAN playable {}", lan.playable);
        assert!(
            lan.playable
                <= stream_video_over(
                    LinkProfile::atm_oc3(),
                    SimDuration::from_secs(5),
                    MPEG_RATE,
                    SimDuration::from_secs(1),
                    1,
                )
                .playable
                    + 1e-12
        );
    }

    #[test]
    fn audio_fits_even_isdn() {
        // WAV-rate audio ≈ 90 kb/s fits in 128 kb/s.
        let r = stream_audio_over(
            LinkProfile::isdn_128k(),
            SimDuration::from_secs(10),
            90_112,
            SimDuration::from_secs(1),
            2,
        );
        assert!(r.playable > 0.99, "playable {}", r.playable);
    }

    #[test]
    fn bigger_prebuffer_reduces_lateness() {
        let small = stream_video_over(
            LinkProfile::lan_10m(),
            SimDuration::from_secs(5),
            4_000_000, // above the LAN's effective 6 Mb/s? close to it
            SimDuration::from_millis(100),
            3,
        );
        let big = stream_video_over(
            LinkProfile::lan_10m(),
            SimDuration::from_secs(5),
            4_000_000,
            SimDuration::from_secs(3),
            3,
        );
        assert!(big.late <= small.late, "{} vs {}", big.late, small.late);
    }

    #[test]
    fn profile_names() {
        assert_eq!(profile_name(&LinkProfile::atm_oc3()), "ATM OC-3 155M");
        assert_eq!(profile_name(&LinkProfile::modem_28_8k()), "modem 28.8k");
    }
}
