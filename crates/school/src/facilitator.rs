//! On-demand facilitation vs the SIDL telephone baseline (§1.3.1,
//! experiment E-SIDL).
//!
//! The paper's critique of broadcast TeleLearning is concrete: in the
//! Satellite Interactive Distance Learning system "only three calls can
//! be taken at a time, others will be put into a queue. This could be
//! frustrating for a distant student trying to get a word in" — and
//! questions can only be asked *during the broadcast*. MITS instead keeps
//! facilitators on-line on demand.
//!
//! Both services are modelled as multi-server queues driven by a
//! [`TimerQueue`] of question, answer and reopening events; the SIDL
//! model adds the broadcast window: questions arising outside
//! the window wait for the next scheduled session before they can even
//! join the telephone queue.

use mits_sim::{Histogram, OnlineStats, SimDuration, SimRng, SimTime, TimerQueue};
use std::collections::VecDeque;

/// Which facilitation service to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FacilitationModel {
    /// MITS: `facilitators` teachers on-line whenever students study.
    MitsOnline {
        /// Number of on-line facilitators.
        facilitators: usize,
    },
    /// SIDL: `lines` telephone lines, usable only during a broadcast
    /// window of `window` every `period` (e.g. 1 h window daily).
    SidlBroadcast {
        /// Telephone lines (the paper: 3).
        lines: usize,
        /// Broadcast window length.
        window: SimDuration,
        /// Schedule period (window starts every `period`).
        period: SimDuration,
    },
}

/// Waiting-time report from a facilitation simulation.
#[derive(Debug, Clone)]
pub struct WaitReport {
    /// Questions asked.
    pub questions: u64,
    /// Questions answered within the horizon.
    pub answered: u64,
    /// Waiting time question-formed → answer-started (seconds).
    pub wait: OnlineStats,
    /// Waiting-time histogram (seconds, 0..24 h, 30 s bins).
    pub histogram: Histogram,
}

/// What happens at an instant of the model.
enum Event {
    /// A student forms a question.
    Ask,
    /// A facilitator finishes an answer.
    Done,
    /// The service opens with questions waiting.
    Reopen,
}

struct World {
    model: FacilitationModel,
    busy: usize,
    /// When each waiting question was formed, oldest first.
    queue: VecDeque<SimTime>,
    service_mean_s: f64,
    rng: SimRng,
    wait: OnlineStats,
    histogram: Histogram,
    answered: u64,
}

impl World {
    fn capacity(&self) -> usize {
        match self.model {
            FacilitationModel::MitsOnline { facilitators } => facilitators,
            FacilitationModel::SidlBroadcast { lines, .. } => lines,
        }
    }

    /// Is the service open at `t`?
    fn open_at(&self, t: SimTime) -> bool {
        match self.model {
            FacilitationModel::MitsOnline { .. } => true,
            FacilitationModel::SidlBroadcast { window, period, .. } => {
                let phase = t.as_micros() % period.as_micros().max(1);
                phase < window.as_micros()
            }
        }
    }

    /// Next instant ≥ `t` when the service is open.
    fn next_open(&self, t: SimTime) -> SimTime {
        if self.open_at(t) {
            return t;
        }
        match self.model {
            FacilitationModel::MitsOnline { .. } => t,
            FacilitationModel::SidlBroadcast { period, .. } => {
                let p = period.as_micros().max(1);
                let cycles = t.as_micros() / p + 1;
                SimTime::from_micros(cycles * p)
            }
        }
    }

    /// Start answering waiting questions while facilitators are free and
    /// the service is open; if it is closed with questions waiting, wake
    /// at the next opening.
    fn try_serve(&mut self, now: SimTime, events: &mut TimerQueue<Event>) {
        while self.busy < self.capacity() && self.open_at(now) {
            let Some(formed) = self.queue.pop_front() else {
                break;
            };
            let waited = now.since(formed).as_secs_f64();
            self.wait.record(waited);
            self.histogram.record(waited);
            self.answered += 1;
            self.busy += 1;
            let service = SimDuration::from_secs_f64(self.rng.exponential(self.service_mean_s));
            events.push(now + service, Event::Done);
        }
        if !self.queue.is_empty() && !self.open_at(now) {
            events.push(self.next_open(now), Event::Reopen);
        }
    }
}

/// Simulate `n_questions` Poisson question arrivals (mean interarrival
/// `arrival_mean`) served with exponential service times (`service_mean`).
pub fn simulate_facilitation(
    model: FacilitationModel,
    arrival_mean: SimDuration,
    service_mean: SimDuration,
    n_questions: u64,
    seed: u64,
) -> WaitReport {
    let mut arrival_rng = SimRng::seed_from_u64(seed ^ 0xFAC1_11A7);
    let mut world = World {
        model,
        busy: 0,
        queue: VecDeque::new(),
        service_mean_s: service_mean.as_secs_f64(),
        rng: SimRng::seed_from_u64(seed ^ 0x5E2C_1CE5),
        wait: OnlineStats::new(),
        histogram: Histogram::new(0.0, 24.0 * 3600.0, 2880),
        answered: 0,
    };
    let mut events = TimerQueue::new();
    let mut t = SimTime::ZERO;
    for _ in 0..n_questions {
        t += SimDuration::from_secs_f64(arrival_rng.exponential(arrival_mean.as_secs_f64()));
        events.push(t, Event::Ask);
    }
    while let Some((now, _, event)) = events.pop() {
        match event {
            Event::Ask => world.queue.push_back(now),
            Event::Done => world.busy -= 1,
            Event::Reopen => {}
        }
        world.try_serve(now, &mut events);
    }
    WaitReport {
        questions: n_questions,
        answered: world.answered,
        wait: world.wait,
        histogram: world.histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mits(n: usize) -> FacilitationModel {
        FacilitationModel::MitsOnline { facilitators: n }
    }

    fn sidl() -> FacilitationModel {
        // 3 lines, 1-hour broadcast every 24 hours.
        FacilitationModel::SidlBroadcast {
            lines: 3,
            window: SimDuration::from_secs(3600),
            period: SimDuration::from_secs(24 * 3600),
        }
    }

    #[test]
    fn lightly_loaded_mits_answers_immediately() {
        // One question every 10 min, 2-min answers, 3 facilitators.
        let report = simulate_facilitation(
            mits(3),
            SimDuration::from_secs(600),
            SimDuration::from_secs(120),
            500,
            1,
        );
        assert_eq!(report.answered, 500);
        assert!(
            report.wait.mean() < 30.0,
            "mean wait {}s",
            report.wait.mean()
        );
    }

    #[test]
    fn sidl_waits_dwarf_mits_waits() {
        // Same question load against both services.
        let arrival = SimDuration::from_secs(600);
        let service = SimDuration::from_secs(120);
        let m = simulate_facilitation(mits(3), arrival, service, 400, 7);
        let s = simulate_facilitation(sidl(), arrival, service, 400, 7);
        assert_eq!(m.answered, 400);
        assert_eq!(s.answered, 400);
        // SIDL: most questions form outside the 1 h window and wait hours.
        assert!(
            s.wait.mean() > 100.0 * m.wait.mean().max(1.0),
            "SIDL {:.0}s vs MITS {:.0}s",
            s.wait.mean(),
            m.wait.mean()
        );
    }

    #[test]
    fn more_facilitators_cut_waits_under_load() {
        // Heavy load: questions every 30 s, 2-min answers.
        let arrival = SimDuration::from_secs(30);
        let service = SimDuration::from_secs(120);
        let few = simulate_facilitation(mits(2), arrival, service, 1000, 3);
        let many = simulate_facilitation(mits(8), arrival, service, 1000, 3);
        assert!(
            few.wait.mean() > 3.0 * many.wait.mean().max(0.5),
            "2 facilitators {:.0}s vs 8 facilitators {:.0}s",
            few.wait.mean(),
            many.wait.mean()
        );
    }

    #[test]
    fn sidl_serves_during_window_without_extra_delay() {
        // All questions arrive in the first minutes of the window,
        // fewer than the line capacity can't-queue scenario.
        let report = simulate_facilitation(
            FacilitationModel::SidlBroadcast {
                lines: 3,
                window: SimDuration::from_secs(3600),
                period: SimDuration::from_secs(24 * 3600),
            },
            SimDuration::from_secs(400), // ~9 questions in the window
            SimDuration::from_secs(60),
            8,
            11,
        );
        assert_eq!(report.answered, 8);
        // Served either immediately or behind ≤ 2 callers.
        assert!(report.wait.mean() < 600.0, "{}", report.wait.mean());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = simulate_facilitation(
            mits(3),
            SimDuration::from_secs(60),
            SimDuration::from_secs(120),
            200,
            5,
        );
        let b = simulate_facilitation(
            mits(3),
            SimDuration::from_secs(60),
            SimDuration::from_secs(120),
            200,
            5,
        );
        assert_eq!(a.wait.mean(), b.wait.mean());
        assert_eq!(a.wait.std_dev(), b.wait.std_dev());
    }

    /// The three `tables --exp e_sidl` rows, folded into one FNV-1a
    /// digest: any change to the event order moves some wait.
    #[test]
    fn e_sidl_rows_are_pinned() {
        fn fnv(mut h: u64, word: u64) -> u64 {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            h
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        for model in [mits(2), mits(4), sidl()] {
            let r = simulate_facilitation(
                model,
                SimDuration::from_secs(1200),
                SimDuration::from_secs(120),
                2000,
                1996,
            );
            h = fnv(h, r.answered);
            h = fnv(h, r.wait.mean().to_bits());
            h = fnv(h, r.wait.std_dev().to_bits());
            h = fnv(h, r.histogram.quantile(0.95).map_or(u64::MAX, f64::to_bits));
            for (bin, n) in r.histogram.occupied_bins() {
                h = fnv(fnv(h, bin as u64), n);
            }
        }
        assert_eq!(h, 0x9435_59bc_2adb_b625, "E-SIDL digest {h:#018x}");
    }

    #[test]
    fn histogram_populated() {
        let r = simulate_facilitation(
            mits(1),
            SimDuration::from_secs(60),
            SimDuration::from_secs(90),
            300,
            9,
        );
        assert_eq!(r.histogram.count(), 300);
        assert!(r.histogram.median().is_some());
    }
}
