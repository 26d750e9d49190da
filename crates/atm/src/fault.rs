//! Configurable fault injection for the cell network.
//!
//! The paper's broadband argument is made under *ideal* line conditions;
//! a production telelearning deployment sees the opposite — noisy access
//! loops, congested backbones, and links that flap. A [`FaultPlan`]
//! describes those pathologies per link (or uniformly), and the network
//! weaves them into the cell pipeline:
//!
//! - **extra cell loss** — independent per-cell loss added on top of the
//!   profile's line-noise rate;
//! - **burst loss** — a two-state Gilbert process: cells entering the
//!   burst state are lost until the burst ends;
//! - **latency jitter** — uniform extra propagation delay per cell;
//! - **up/down schedule** — wall-clock windows during which every cell
//!   on the link is lost.
//!
//! All randomness comes from a dedicated fault RNG stream split off the
//! network seed, and is only consulted for links that actually carry
//! faults — a network with an empty plan is *bit-identical* to one built
//! before fault injection existed, which is what lets the zero-loss
//! regression suite pin exact byte counts.

use crate::network::NodeId;
use mits_sim::{SimDuration, SimTime};
use std::collections::HashMap;

/// Two-state (Gilbert) burst-loss process parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Probability that a cell *enters* a loss burst.
    pub enter: f64,
    /// Mean burst length in cells (geometric exit, `1/mean_len` per cell).
    pub mean_len: f64,
}

/// Faults applied to one directed link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFaults {
    /// Extra independent per-cell loss probability.
    pub extra_loss: f64,
    /// Optional burst-loss process.
    pub burst: Option<BurstLoss>,
    /// Maximum extra per-cell latency (uniform in `[0, jitter]`).
    pub jitter: Option<SimDuration>,
    /// Half-open `[from, until)` windows during which the link is down.
    pub down: Vec<(SimTime, SimTime)>,
}

impl LinkFaults {
    /// Independent cell loss only.
    pub fn loss(p: f64) -> Self {
        LinkFaults {
            extra_loss: p,
            ..Default::default()
        }
    }

    /// Builder: add a burst-loss process.
    pub fn with_burst(mut self, enter: f64, mean_len: f64) -> Self {
        self.burst = Some(BurstLoss { enter, mean_len });
        self
    }

    /// Builder: add latency jitter.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// Builder: add a down window `[from, until)`.
    pub fn with_down(mut self, from: SimTime, until: SimTime) -> Self {
        self.down.push((from, until));
        self
    }

    /// Is the link down at `now` per the schedule?
    pub fn is_down(&self, now: SimTime) -> bool {
        self.down
            .iter()
            .any(|&(from, until)| now >= from && now < until)
    }

    /// Does this entry inject anything at all?
    pub fn is_active(&self) -> bool {
        self.extra_loss > 0.0
            || self.burst.is_some()
            || self.jitter.is_some()
            || !self.down.is_empty()
    }

    /// True when the only faults here are down windows — the one fault
    /// kind whose outcome is a pure function of the clock, so cell
    /// trains may be served on the link as whole runs. RNG-coupled
    /// faults (extra loss, bursts, jitter) consume the fault RNG per
    /// cell, so a train crossing such a link streams through it cell by
    /// cell, one `TxDone` and one set of draws per cell, in the per-cell
    /// scheduler's order.
    pub fn is_down_only(&self) -> bool {
        self.extra_loss == 0.0 && self.burst.is_none() && self.jitter.is_none_or(|j| j.is_zero())
    }
}

/// A reproducible description of every fault in a simulation run.
///
/// `default` applies to every directed link; `per_link` entries override
/// it for specific `(from, to)` pairs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    default: Option<LinkFaults>,
    per_link: HashMap<(NodeId, NodeId), LinkFaults>,
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan applying `faults` to every directed link.
    pub fn uniform(faults: LinkFaults) -> Self {
        FaultPlan {
            default: Some(faults),
            per_link: HashMap::new(),
        }
    }

    /// Builder: override the plan for the directed link `from → to`.
    pub fn with_link(mut self, from: NodeId, to: NodeId, faults: LinkFaults) -> Self {
        self.per_link.insert((from, to), faults);
        self
    }

    /// Faults for the directed link `from → to`, if any are active.
    pub fn for_link(&self, from: NodeId, to: NodeId) -> Option<&LinkFaults> {
        self.per_link
            .get(&(from, to))
            .or(self.default.as_ref())
            .filter(|f| f.is_active())
    }

    /// Does the plan inject anything anywhere?
    pub fn is_empty(&self) -> bool {
        !self.default.as_ref().is_some_and(LinkFaults::is_active)
            && !self.per_link.values().any(LinkFaults::is_active)
    }
}

/// What a scheduled server-lifecycle event does to its target.
///
/// These extend fault injection beyond the network: where [`LinkFaults`]
/// kill cells in flight, a crash schedule kills *endpoints* — the
/// durability layer (`mits-db`'s WAL + snapshots) is what makes the
/// restart meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The target process dies instantly: volatile state (queues,
    /// in-flight responses, ARQ windows) is lost; only its log devices
    /// survive.
    ServerCrash,
    /// The target comes back up and recovers from its devices; recovery
    /// latency is charged from the bytes it replays.
    ServerRestart,
}

/// One scheduled crash or restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// When it happens.
    pub at: SimTime,
    /// Which server (index into the system's server list).
    pub target: u32,
    /// Crash or restart.
    pub kind: FaultKind,
}

/// A reproducible schedule of server crashes and restarts, kept sorted
/// by time (ties break crash-before-restart so a crash and restart at
/// the same instant net out to a bounce).
#[derive(Debug, Clone, Default)]
pub struct CrashSchedule {
    events: Vec<CrashEvent>,
}

impl CrashSchedule {
    /// An empty schedule.
    pub fn none() -> Self {
        CrashSchedule::default()
    }

    fn push(&mut self, ev: CrashEvent) {
        self.events.push(ev);
        self.events
            .sort_by_key(|e| (e.at, matches!(e.kind, FaultKind::ServerRestart), e.target));
    }

    /// Builder: crash server `target` at `at`.
    pub fn with_crash(mut self, at: SimTime, target: u32) -> Self {
        self.push(CrashEvent {
            at,
            target,
            kind: FaultKind::ServerCrash,
        });
        self
    }

    /// Builder: restart server `target` at `at`.
    pub fn with_restart(mut self, at: SimTime, target: u32) -> Self {
        self.push(CrashEvent {
            at,
            target,
            kind: FaultKind::ServerRestart,
        });
        self
    }

    /// The next event strictly after `now`, if any (for wakeup timers).
    pub fn next_event_after(&self, now: SimTime) -> Option<SimTime> {
        self.events.iter().map(|e| e.at).find(|&at| at > now)
    }

    /// Drain every event due in `(after, upto]`, in order.
    pub fn due(&self, after: SimTime, upto: SimTime) -> Vec<CrashEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.at > after && e.at <= upto)
            .collect()
    }

    /// Does the schedule contain anything?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events, sorted.
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }
}

/// Per-link runtime state for the burst and jitter processes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FaultState {
    pub in_burst: bool,
    /// Latest scheduled arrival on this link: jittered cells are clamped
    /// to it so jitter never reorders cells (ATM preserves cell order
    /// within a VC).
    pub last_arrival: SimTime,
}

/// Counters for what the plan actually did — exposed for tests and
/// experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Cells lost to the extra independent loss process.
    pub random_losses: u64,
    /// Cells lost inside bursts.
    pub burst_losses: u64,
    /// Cells lost to down windows.
    pub downtime_losses: u64,
    /// Cells delayed by jitter.
    pub jittered: u64,
    /// Cells that traversed a link carrying active faults (lost or not);
    /// the denominator for the loss counters above.
    pub faulted_cells: u64,
}

impl FaultStats {
    /// All cells the plan destroyed.
    pub fn total_losses(&self) -> u64 {
        self.random_losses + self.burst_losses + self.downtime_losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn down_windows_are_half_open() {
        let f = LinkFaults::default().with_down(SimTime::from_secs(1), SimTime::from_secs(2));
        assert!(!f.is_down(SimTime::from_micros(999_999)));
        assert!(f.is_down(SimTime::from_secs(1)));
        assert!(!f.is_down(SimTime::from_secs(2)));
    }

    #[test]
    fn empty_plans_are_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::uniform(LinkFaults::default()).is_empty());
        assert!(!FaultPlan::uniform(LinkFaults::loss(0.05)).is_empty());
        let keyed = FaultPlan::none().with_link(NodeId(0), NodeId(1), LinkFaults::loss(0.1));
        assert!(!keyed.is_empty());
    }

    #[test]
    fn crash_schedule_sorts_and_drains_in_order() {
        let sched = CrashSchedule::none()
            .with_restart(SimTime::from_secs(5), 0)
            .with_crash(SimTime::from_secs(2), 0)
            .with_crash(SimTime::from_secs(5), 1);
        assert_eq!(sched.events().len(), 3);
        // Sorted by time; at t=5 the crash (of server 1) precedes the
        // restart (of server 0).
        assert_eq!(sched.events()[0].kind, FaultKind::ServerCrash);
        assert_eq!(sched.events()[0].at, SimTime::from_secs(2));
        assert_eq!(sched.events()[1].kind, FaultKind::ServerCrash);
        assert_eq!(sched.events()[1].target, 1);
        assert_eq!(sched.events()[2].kind, FaultKind::ServerRestart);
        assert_eq!(
            sched.next_event_after(SimTime::from_secs(2)),
            Some(SimTime::from_secs(5))
        );
        let due = sched.due(SimTime::from_secs(2), SimTime::from_secs(5));
        assert_eq!(due.len(), 2, "half-open (after, upto]");
        assert!(CrashSchedule::none().is_empty());
        assert!(!sched.is_empty());
    }

    #[test]
    fn per_link_overrides_default() {
        let plan = FaultPlan::uniform(LinkFaults::loss(0.01)).with_link(
            NodeId(0),
            NodeId(1),
            LinkFaults::loss(0.5),
        );
        assert_eq!(plan.for_link(NodeId(0), NodeId(1)).unwrap().extra_loss, 0.5);
        assert_eq!(
            plan.for_link(NodeId(1), NodeId(0)).unwrap().extra_loss,
            0.01
        );
    }
}
