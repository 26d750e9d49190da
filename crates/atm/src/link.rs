//! Link profiles and service classes.
//!
//! The paper's argument for broadband (§1.3.3) is quantitative at heart:
//! MPEG-rate courseware cannot ride a modem or ISDN line. These profiles
//! pin the four infrastructures experiment E-BB compares, and
//! [`ServiceClass`] carries the ATM service architecture the switch's
//! priority queues implement.

use mits_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// ATM service class, mapped to switch queue priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ServiceClass {
    /// Constant bit rate — highest priority (live audio/video).
    Cbr,
    /// Variable bit rate — middle priority (stored video).
    Vbr,
    /// Unspecified bit rate — best effort (bulk object transfer, control).
    Ubr,
}

impl ServiceClass {
    /// Queue index: 0 is served first.
    pub fn priority(self) -> usize {
        match self {
            ServiceClass::Cbr => 0,
            ServiceClass::Vbr => 1,
            ServiceClass::Ubr => 2,
        }
    }

    /// Number of priority levels.
    pub const LEVELS: usize = 3;
}

/// A unidirectional link's physical characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Serialization rate, bits per second.
    pub rate_bps: u64,
    /// Propagation delay.
    pub prop_delay: SimDuration,
    /// Independent random cell-loss probability (line noise).
    pub loss_rate: f64,
    /// Output buffer capacity in cells (per priority level).
    pub queue_cells: usize,
}

impl LinkProfile {
    /// OC-3 ATM at 155.52 Mb/s — the OCRInet class of link.
    pub fn atm_oc3() -> Self {
        LinkProfile {
            rate_bps: 155_520_000,
            prop_delay: SimDuration::from_micros(100), // metro distance
            loss_rate: 1e-9,
            queue_cells: 1024,
        }
    }

    /// OC-3 with a longer haul (inter-city).
    pub fn atm_oc3_wan() -> Self {
        LinkProfile {
            prop_delay: SimDuration::from_millis(5),
            ..Self::atm_oc3()
        }
    }

    /// Shared 10 Mb/s LAN (effective throughput derated for contention).
    pub fn lan_10m() -> Self {
        LinkProfile {
            rate_bps: 6_000_000, // ~60 % effective under load
            prop_delay: SimDuration::from_micros(50),
            loss_rate: 1e-7,
            queue_cells: 256,
        }
    }

    /// ISDN basic rate bonding, 128 kb/s.
    pub fn isdn_128k() -> Self {
        LinkProfile {
            rate_bps: 128_000,
            prop_delay: SimDuration::from_millis(2),
            loss_rate: 1e-6,
            queue_cells: 512,
        }
    }

    /// V.34 modem, 28.8 kb/s.
    pub fn modem_28_8k() -> Self {
        LinkProfile {
            rate_bps: 28_800,
            prop_delay: SimDuration::from_millis(5),
            loss_rate: 1e-5,
            queue_cells: 512,
        }
    }

    /// Time to serialize one 53-byte cell on this link.
    pub fn cell_time(&self) -> SimDuration {
        SimDuration::for_bits(crate::cell::CELL_BITS, self.rate_bps)
    }

    /// Wall time to move `bytes` of raw payload (ignoring cell overhead) —
    /// the back-of-envelope number experiments quote as "line rate".
    pub fn raw_transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::for_bits(bytes * 8, self.rate_bps)
    }

    /// Time to serialize `cells` back-to-back cells — the wire length of a
    /// cell train. Deliberately `cells × cell_time()` (whole microseconds
    /// per cell) rather than `for_bits` over the total bit count, so a
    /// train lands on exactly the cumulative per-cell schedule it
    /// replaces.
    pub fn train_time(&self, cells: u64) -> SimDuration {
        SimDuration::from_micros(self.cell_time().as_micros() * cells)
    }
}

/// Width of one weathermap sample window. Five milliseconds spans a
/// couple of thousand OC-3 cell times — wide enough that a whole cell
/// train usually lands in one window, narrow enough to see a fault
/// window open and close.
pub const TELEMETRY_WINDOW_US: u64 = 5_000;

/// Windows retained per link. With 5 ms windows, 64 slots cover the
/// most recent ~320 ms of virtual time — the active tail of a session.
pub const TELEMETRY_RING_CAP: usize = 64;

/// How a batch of cells crossed a hop, as the weathermap counts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Served analytically as one whole cell train (the O(1) fast path).
    Trained,
    /// Served cell-by-cell through the priority queues (fault windows,
    /// contended links).
    PerCell,
    /// Parked at an idle host egress awaiting pull (counted once, when
    /// the train parks).
    Parked,
}

/// One `SimDuration`-window of per-link weather: how deep the queues
/// got, how long the transmitter was busy, how the cells that moved
/// were served, and whether an injected fault window covered any of
/// it. Samples are taken only at run/cell-train boundaries — the same
/// instants the simulator already visits — so a quiet link costs
/// nothing and a busy link stays O(1) events per hop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkWindowSample {
    /// Window index (`start_us = window * TELEMETRY_WINDOW_US`).
    pub window: u64,
    /// Deepest any priority queue got during the window, in cells.
    pub queue_high_water: u64,
    /// Microseconds of serialization of the cells that started
    /// serializing in this window.
    pub busy_us: u64,
    /// Cells served as whole trains.
    pub cells_trained: u64,
    /// Cells served one at a time.
    pub cells_per_cell: u64,
    /// Cells parked at a host egress awaiting pull.
    pub cells_parked: u64,
    /// Whether an injected fault window was open at any sample instant.
    pub faulted: bool,
}

/// Bounded ring of [`LinkWindowSample`]s for one link, plus lifetime
/// serve-mode totals. Observation-only: it draws no randomness and
/// schedules no events, so recording is digest-neutral by
/// construction.
#[derive(Debug, Clone, Default)]
pub struct LinkTelemetry {
    ring: Vec<LinkWindowSample>,
    cur: Option<LinkWindowSample>,
    /// Windows evicted from the full ring.
    pub dropped_windows: u64,
    /// Lifetime cells served as whole trains.
    pub total_trained: u64,
    /// Lifetime cells served one at a time.
    pub total_per_cell: u64,
    /// Lifetime cells parked at a host egress.
    pub total_parked: u64,
}

impl LinkTelemetry {
    /// Record `cells` cells served in mode `kind` at `now`. They
    /// serialize back to back, cell k from `now + k·cell_time`, and each
    /// cell's busy time and count land in the window it starts in, as
    /// one note per cell would book them; a whole train thus costs
    /// O(windows it spans). Parked cells are not serializing yet: pass a
    /// zero `cell_time` and they all land in `now`'s window with no busy
    /// time. `queue_cells` (queue depth) and `faulted` (an injected
    /// fault window is open) are samples at `now`.
    pub fn note(
        &mut self,
        now: SimTime,
        kind: ServeKind,
        cells: u64,
        queue_cells: u64,
        cell_time: SimDuration,
        faulted: bool,
    ) {
        match kind {
            ServeKind::Trained => self.total_trained += cells,
            ServeKind::PerCell => self.total_per_cell += cells,
            ServeKind::Parked => self.total_parked += cells,
        }
        let (start, ct) = (now.as_micros(), cell_time.as_micros());
        let mut booked = 0;
        loop {
            let window = (start + booked * ct) / TELEMETRY_WINDOW_US;
            // Cells k ≥ booked that start before the next window opens:
            // at least one while any remain, since cell `booked` does.
            let next = (window + 1) * TELEMETRY_WINDOW_US;
            let here = match ct {
                0 => cells - booked,
                // A single cell starts in the window it is noted in.
                _ if cells == 1 => 1,
                _ => (next - start).div_ceil(ct).min(cells) - booked,
            };
            let first = booked == 0;
            self.update(window, |w| {
                if first {
                    w.queue_high_water = w.queue_high_water.max(queue_cells);
                    w.faulted |= faulted;
                }
                w.busy_us += here * ct;
                match kind {
                    ServeKind::Trained => w.cells_trained += here,
                    ServeKind::PerCell => w.cells_per_cell += here,
                    ServeKind::Parked => w.cells_parked += here,
                }
            });
            booked += here;
            if booked >= cells {
                return;
            }
        }
    }

    /// Apply `f` to the sample of `window`, creating it if needed. Notes
    /// usually arrive in time order, but a run parked while a train is
    /// still serializing is noted behind the windows the train already
    /// booked ahead; it lands in its own window, kept in order.
    fn update(&mut self, window: u64, f: impl FnOnce(&mut LinkWindowSample)) {
        let fresh = LinkWindowSample {
            window,
            ..LinkWindowSample::default()
        };
        match self.cur.map(|c| c.window) {
            Some(cur) if cur == window => f(self.cur.as_mut().expect("current window")),
            Some(cur) if cur > window => {
                let i = match self.ring.binary_search_by_key(&window, |w| w.window) {
                    Ok(i) => i,
                    Err(i) => {
                        self.ring.insert(i, fresh);
                        i
                    }
                };
                f(&mut self.ring[i]);
                self.trim();
            }
            _ => {
                if let Some(c) = self.cur.take() {
                    self.ring.push(c);
                    self.trim();
                }
                f(self.cur.insert(fresh));
            }
        }
    }

    /// Evict the oldest samples beyond the ring's capacity.
    fn trim(&mut self) {
        let excess = self.ring.len().saturating_sub(TELEMETRY_RING_CAP);
        self.ring.drain(..excess);
        self.dropped_windows += excess as u64;
    }

    /// Lifetime cells observed in any serve mode.
    pub fn total_cells(&self) -> u64 {
        self.total_trained + self.total_per_cell + self.total_parked
    }

    /// Retained windows oldest-first, including the in-progress one.
    pub fn windows(&self) -> Vec<LinkWindowSample> {
        let mut v = self.ring.clone();
        if let Some(c) = self.cur {
            v.push(c);
        }
        v
    }

    /// Forget everything (scratch reuse across sessions).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.cur = None;
        self.dropped_windows = 0;
        self.total_trained = 0;
        self.total_per_cell = 0;
        self.total_parked = 0;
    }
}

/// A traffic contract for policing: peak cell rate and a burst tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficContract {
    /// Peak cell rate, cells per second.
    pub pcr_cells_per_sec: f64,
    /// Burst tolerance, cells.
    pub burst_cells: f64,
}

impl TrafficContract {
    /// Contract admitting `bits_per_sec` of payload throughput with the
    /// given burst allowance.
    pub fn for_bit_rate(bits_per_sec: u64, burst_cells: f64) -> Self {
        let cells = bits_per_sec as f64 / (crate::cell::CELL_PAYLOAD as f64 * 8.0);
        TrafficContract {
            pcr_cells_per_sec: cells.max(1.0),
            burst_cells: burst_cells.max(1.0),
        }
    }
}

/// GCRA policer state (token bucket formulation).
#[derive(Debug, Clone)]
pub struct Policer {
    bucket: mits_sim::TokenBucket,
}

impl Policer {
    /// Policer for a contract.
    pub fn new(contract: TrafficContract) -> Self {
        Policer {
            bucket: mits_sim::TokenBucket::new(contract.pcr_cells_per_sec, contract.burst_cells),
        }
    }

    /// Does a cell arriving at `now` conform? Non-conforming cells are
    /// tagged CLP=1 by the caller.
    pub fn conforms(&mut self, now: SimTime) -> bool {
        self.bucket.try_take(now, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering() {
        assert!(ServiceClass::Cbr.priority() < ServiceClass::Vbr.priority());
        assert!(ServiceClass::Vbr.priority() < ServiceClass::Ubr.priority());
        assert!(ServiceClass::Ubr.priority() < ServiceClass::LEVELS);
    }

    #[test]
    fn cell_time_on_oc3() {
        // 424 bits / 155.52 Mb/s ≈ 2.7 µs → ceil 3 µs.
        assert_eq!(LinkProfile::atm_oc3().cell_time().as_micros(), 3);
        // Modem: 424 / 28 800 ≈ 14.7 ms.
        let t = LinkProfile::modem_28_8k().cell_time();
        assert!((14_000..15_000).contains(&t.as_micros()), "{t}");
    }

    #[test]
    fn transfer_time_sanity() {
        // 1 MB over ISDN 128k ≈ 65.5 s; over OC-3 ≈ 54 ms.
        let isdn = LinkProfile::isdn_128k().raw_transfer_time(1_048_576);
        assert!((60.0..70.0).contains(&isdn.as_secs_f64()), "{isdn}");
        let oc3 = LinkProfile::atm_oc3().raw_transfer_time(1_048_576);
        assert!(oc3.as_secs_f64() < 0.06, "{oc3}");
    }

    #[test]
    fn policer_enforces_pcr() {
        use mits_sim::SimTime;
        // 1000 cells/s, burst 2.
        let mut p = Policer::new(TrafficContract {
            pcr_cells_per_sec: 1000.0,
            burst_cells: 2.0,
        });
        let t = SimTime::from_secs(1);
        assert!(p.conforms(t));
        assert!(p.conforms(t));
        assert!(!p.conforms(t), "burst exhausted");
        assert!(p.conforms(t + SimDuration::from_millis(1)), "refilled");
    }

    #[test]
    fn contract_from_bit_rate() {
        let c = TrafficContract::for_bit_rate(1_500_000, 32.0);
        // 1.5 Mb/s over 384-bit payloads ≈ 3906 cells/s.
        assert!((3_900.0..3_910.0).contains(&c.pcr_cells_per_sec));
    }

    #[test]
    fn telemetry_windows_and_totals() {
        use mits_sim::SimTime;
        let mut t = LinkTelemetry::default();
        let busy = SimDuration::from_micros(3);
        t.note(
            SimTime::from_micros(10),
            ServeKind::Trained,
            40,
            2,
            busy,
            false,
        );
        t.note(
            SimTime::from_micros(20),
            ServeKind::PerCell,
            1,
            5,
            busy,
            true,
        );
        // Next window: the first one must flush into the ring.
        t.note(
            SimTime::from_micros(TELEMETRY_WINDOW_US + 1),
            ServeKind::Parked,
            8,
            0,
            SimDuration::ZERO,
            false,
        );
        let w = t.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].window, 0);
        assert_eq!(w[0].cells_trained, 40);
        assert_eq!(w[0].cells_per_cell, 1);
        assert_eq!(w[0].queue_high_water, 5);
        // 40 trained cells of 3 µs each plus one per-cell cell.
        assert_eq!(w[0].busy_us, 123);
        assert!(w[0].faulted, "fault flag is sticky within a window");
        assert_eq!(w[1].window, 1);
        assert_eq!(w[1].cells_parked, 8);
        assert!(!w[1].faulted);
        assert_eq!(t.total_cells(), 49);
        assert_eq!(t.dropped_windows, 0);
    }

    #[test]
    fn train_books_each_cell_into_the_window_it_starts_in() {
        use mits_sim::SimTime;
        let mut t = LinkTelemetry::default();
        let ct = SimDuration::from_micros(3);
        // 2,000 cells from 4,000 µs: cells 0..=333 start before 5,000 µs,
        // 334..=1999 between 5,002 and 9,997 µs.
        let start = SimTime::from_micros(4_000);
        t.note(start, ServeKind::Trained, 2_000, 7, ct, true);
        // A run parked mid-train, noted behind the window the train
        // already booked ahead, still lands in its own window.
        t.note(
            SimTime::from_micros(4_500),
            ServeKind::Parked,
            50,
            9,
            SimDuration::ZERO,
            false,
        );
        let w = t.windows();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].window, w[1].window), (0, 1));
        assert_eq!((w[0].cells_trained, w[1].cells_trained), (334, 1_666));
        assert_eq!((w[0].busy_us, w[1].busy_us), (1_002, 4_998));
        assert!(w.iter().all(|w| w.busy_us <= TELEMETRY_WINDOW_US));
        assert_eq!((w[0].cells_parked, w[0].queue_high_water), (50, 9));
        assert!(
            w[0].faulted && !w[1].faulted,
            "samples stay at their instant"
        );
        assert_eq!(t.total_cells(), 2_050);

        // A slow link's train skips a window; a run parked in the gap is
        // inserted between the windows the train booked.
        let mut slow = LinkTelemetry::default();
        let slow_ct = SimDuration::from_micros(12_000);
        slow.note(SimTime::ZERO, ServeKind::Trained, 2, 0, slow_ct, false);
        slow.note(
            SimTime::from_micros(6_000),
            ServeKind::Parked,
            4,
            1,
            SimDuration::ZERO,
            false,
        );
        let got: Vec<(u64, u64, u64)> = slow
            .windows()
            .iter()
            .map(|w| (w.window, w.busy_us, w.cells_parked))
            .collect();
        assert_eq!(got, vec![(0, 12_000, 0), (1, 0, 4), (2, 12_000, 0)]);
    }

    #[test]
    fn telemetry_ring_evicts_oldest_and_counts() {
        use mits_sim::SimTime;
        let mut t = LinkTelemetry::default();
        let n = (TELEMETRY_RING_CAP as u64) + 5;
        for w in 0..=n {
            t.note(
                SimTime::from_micros(w * TELEMETRY_WINDOW_US),
                ServeKind::Trained,
                1,
                0,
                SimDuration::ZERO,
                false,
            );
        }
        let windows = t.windows();
        assert_eq!(
            windows.len(),
            TELEMETRY_RING_CAP + 1,
            "ring plus in-progress"
        );
        assert_eq!(t.dropped_windows, n - TELEMETRY_RING_CAP as u64);
        assert_eq!(windows[0].window, t.dropped_windows, "oldest were evicted");
        assert_eq!(t.total_trained, n + 1, "totals survive eviction");
        t.clear();
        assert!(t.windows().is_empty());
        assert_eq!(t.total_cells(), 0);
    }
}
