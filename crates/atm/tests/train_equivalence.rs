//! Determinism witness for the cell-train fast path.
//!
//! The batched scheduler must be *observationally invisible*: for any
//! workload and any fault plan, a network running cell trains and the
//! same network pinned to per-cell dispatch via `force_per_cell()` must
//! produce byte-identical `Delivery` sequences, identical `VcStats`
//! (cell transfer delay as exact integer moments), identical
//! `FaultStats`, and the same weathermap busy time in every window of
//! every link.
//!
//! Trains may use every link whose faults are absent or down windows
//! only. Down windows are one interesting case: trains stay engaged and
//! expand around the windows. Links with RNG-coupled faults (extra
//! loss, bursts, jitter) are the other: a train never forms on, cuts
//! through to or parks at one, but rides the clean hops around it and
//! streams across the faulted hop, where each cell still draws the
//! fault RNG at its own `TxDone`, in exactly the per-cell order; a cell
//! of another VC entering that hop splits the stream back into queued
//! cells.
//!
//! `force_per_cell` is only an oracle while no two VCs of one service
//! class share a hop: there a cut-through train holds the transmitter
//! for its whole run, which per-cell dispatch does not. The topology
//! here pairs a VBR VC with a UBR one; the lossy grid at the end pins
//! the train-mode outcomes of two UBR VCs instead.

use bytes::Bytes;
use mits_atm::{
    AtmNetwork, Delivery, FaultPlan, FaultStats, LinkFaults, LinkProfile, NodeId, ServiceClass,
    TrainStats, VcId, VcStats,
};
use mits_sim::{DelayMoments, OnlineStats, SimDuration, SimTime};
use proptest::prelude::*;

/// Node ids of the test topology, in the order `build` adds them.
const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);
const S: NodeId = NodeId(2);
const DST: NodeId = NodeId(3);

/// The directed links the two VCs use: each VC's first hop, then the
/// shared hop into the destination.
const HOPS: [(NodeId, NodeId); 3] = [(A, S), (B, S), (S, DST)];

/// One traffic step: wait `gap_us`, then send `size` bytes on VC `vc_ix`.
#[derive(Debug, Clone)]
struct SendStep {
    vc_ix: usize,
    size: usize,
    gap_us: u64,
}

/// Everything observable about a finished run, in comparable form.
#[derive(Debug, PartialEq)]
struct Observed {
    deliveries: Vec<Delivery>,
    vc_stats: Vec<ComparableVcStats>,
    fault_stats: FaultStats,
}

/// `VcStats` flattened to exactly-comparable fields (`OnlineStats` holds
/// f64 accumulators — compare their bit patterns, not rounded views;
/// the delay moments are integers and compare as they are).
#[derive(Debug, PartialEq)]
struct ComparableVcStats {
    cells_sent: u64,
    cells_delivered: u64,
    cells_dropped: u64,
    pdus_sent: u64,
    pdus_delivered: u64,
    pdus_failed: u64,
    bytes_sent: u64,
    bytes_delivered: u64,
    ctd: DelayMoments,
    pdu_latency: (u64, u64, Option<u64>, Option<u64>),
}

fn flatten_online(s: &OnlineStats) -> (u64, u64, Option<u64>, Option<u64>) {
    (
        s.count(),
        s.mean().to_bits(),
        s.min().map(f64::to_bits),
        s.max().map(f64::to_bits),
    )
}

fn flatten(s: &VcStats) -> ComparableVcStats {
    ComparableVcStats {
        cells_sent: s.cells_sent,
        cells_delivered: s.cells_delivered,
        cells_dropped: s.cells_dropped,
        pdus_sent: s.pdus_sent,
        pdus_delivered: s.pdus_delivered,
        pdus_failed: s.pdus_failed,
        bytes_sent: s.bytes_sent,
        bytes_delivered: s.bytes_delivered,
        ctd: s.ctd,
        pdu_latency: flatten_online(&s.pdu_latency),
    }
}

/// Two hosts feeding one switch that fans into a third host: the shared
/// downstream link is where class contention and cut-through decisions
/// happen.
fn build(seed: u64, plan: &FaultPlan, per_cell: bool) -> (AtmNetwork, Vec<VcId>, NodeId) {
    let mut net = AtmNetwork::new(seed);
    let a = net.add_host("a");
    let b = net.add_host("b");
    let s = net.add_switch("s");
    let dst = net.add_host("dst");
    assert_eq!([a, b, s, dst], [A, B, S, DST]);
    net.connect(a, s, LinkProfile::atm_oc3());
    net.connect(b, s, LinkProfile::atm_oc3());
    net.connect(s, dst, LinkProfile::atm_oc3());
    net.set_fault_plan(plan.clone());
    if per_cell {
        net.force_per_cell();
    }
    let vcs = vec![
        net.open_vc(&[a, s, dst], ServiceClass::Vbr, None).unwrap(),
        net.open_vc(&[b, s, dst], ServiceClass::Ubr, None).unwrap(),
        // The reverse direction of the shared hop, for single-cell
        // replies.
        net.open_vc(&[dst, s, a], ServiceClass::Ubr, None).unwrap(),
    ];
    (net, vcs, dst)
}

/// Weathermap busy time per link: `(window, busy_us)` for every
/// retained window that saw serialization, plus the first retained
/// window (older ones were evicted from the ring).
type Busy = Vec<(u64, Vec<(u64, u64)>)>;

fn busy_windows(net: &AtmNetwork) -> Busy {
    HOPS.iter()
        .map(|&(from, to)| {
            let windows = net.link_telemetry(from, to).expect("link").windows();
            let first = windows.first().map_or(0, |w| w.window);
            let busy = windows
                .iter()
                .filter(|w| w.busy_us > 0)
                .map(|w| (w.window, w.busy_us))
                .collect();
            (first, busy)
        })
        .collect()
}

/// Per-link, per-window busy time must agree. A parked train notes a
/// window with no busy time that the per-cell run never opens, which
/// can evict one more old window from a full ring, so only windows both
/// rings still hold are compared.
fn same_busy(batched: &Busy, per_cell: &Busy) -> Result<(), String> {
    for (hop, ((fa, a), (fb, b))) in HOPS.iter().zip(batched.iter().zip(per_cell)) {
        let from = (*fa).max(*fb);
        let keep = |v: &Vec<(u64, u64)>| -> Vec<(u64, u64)> {
            v.iter().copied().filter(|w| w.0 >= from).collect()
        };
        if keep(a) != keep(b) {
            return Err(format!(
                "busy windows diverge on {hop:?}: {:?} vs {:?}",
                keep(a),
                keep(b)
            ));
        }
    }
    Ok(())
}

/// Drive one network through the send schedule; return the observables,
/// what the train fast path did, and the weathermap busy windows.
fn run_one(
    seed: u64,
    plan: &FaultPlan,
    steps: &[SendStep],
    per_cell: bool,
) -> (Observed, TrainStats, Busy) {
    let (mut net, vcs, _dst) = build(seed, plan, per_cell);
    let mut deliveries = Vec::new();
    for st in steps {
        let to = net.now() + SimDuration::from_micros(st.gap_us);
        deliveries.extend(net.advance(to));
        let payload: Vec<u8> = (0..st.size)
            .map(|i| ((i as u64).wrapping_mul(2 * st.vc_ix as u64 + 1) % 251) as u8)
            .collect();
        net.send(vcs[st.vc_ix], &[Bytes::from(payload)]).unwrap();
    }
    deliveries.extend(net.drain(SimTime::from_secs(120)));
    let vc_stats = vcs
        .iter()
        .map(|&vc| flatten(net.vc_stats(vc).expect("vc stats")))
        .collect();
    (
        Observed {
            deliveries,
            vc_stats,
            fault_stats: net.fault_stats(),
        },
        net.train_stats(),
        busy_windows(&net),
    )
}

/// Run the schedule both ways and assert observational equality. Returns
/// what the batched network's fast path did, so callers can assert it
/// actually engaged (or stayed out).
fn assert_equivalent(seed: u64, plan: &FaultPlan, steps: &[SendStep]) -> TrainStats {
    let (batched, stats, busy) = run_one(seed, plan, steps, false);
    let (per_cell, pinned, pinned_busy) = run_one(seed, plan, steps, true);
    assert_eq!(
        batched, per_cell,
        "train path diverged from per-cell path (seed {seed})"
    );
    same_busy(&busy, &pinned_busy).unwrap();
    assert_eq!(pinned.runs, 0, "force_per_cell must disable trains");
    stats
}

fn big_steps() -> Vec<SendStep> {
    // Large PDUs with gaps long enough to drain: the pure fast path.
    (0..6)
        .map(|i| SendStep {
            vc_ix: i % 2,
            size: 40_000 + i * 7_001,
            gap_us: 30_000,
        })
        .collect()
}

#[test]
fn clean_network_trains_match_per_cell_exactly() {
    let stats = assert_equivalent(11, &FaultPlan::none(), &big_steps());
    assert!(stats.runs > 0, "fast path must engage on a clean network");
}

#[test]
fn contending_sends_match_per_cell_exactly() {
    // Zero gap: both VCs dump PDUs at once, forcing contention at the
    // switch's shared output link and exercising the expansion path.
    let steps: Vec<SendStep> = (0..8)
        .map(|i| SendStep {
            vc_ix: i % 2,
            size: 10_000 + i * 3_777,
            gap_us: if i % 3 == 0 { 0 } else { 200 },
        })
        .collect();
    assert_equivalent(23, &FaultPlan::none(), &steps);
}

#[test]
fn down_windows_match_per_cell_exactly() {
    // Windows chosen to cut through the middle of several runs.
    let plan = FaultPlan::uniform(
        LinkFaults::default()
            .with_down(SimTime::from_millis(5), SimTime::from_millis(9))
            .with_down(SimTime::from_millis(40), SimTime::from_millis(41)),
    );
    let stats = assert_equivalent(42, &plan, &big_steps());
    // Down-only plans keep trains allowed; runs land outside the windows.
    assert!(stats.runs > 0, "down-only plan must not disable trains");
}

#[test]
fn rng_coupled_faults_pin_per_cell_and_match() {
    // Extra loss + jitter consume the fault RNG per cell, so no train
    // may use a link carrying them. A uniform plan puts them on every
    // hop: no hop is eligible, no train forms, and both runs are
    // trivially identical — verify both the exclusion and the equality.
    let plan = FaultPlan::uniform(LinkFaults::loss(0.01).with_jitter(SimDuration::from_micros(40)));
    let stats = assert_equivalent(7, &plan, &big_steps());
    assert_eq!(
        stats.runs, 0,
        "RNG-coupled plans must disable the fast path"
    );
}

/// RNG-coupled faults on both directions of the shared `s`–`dst` hop.
fn lossy_hop(faults: LinkFaults) -> FaultPlan {
    FaultPlan::none()
        .with_link(S, DST, faults.clone())
        .with_link(DST, S, faults)
}

/// The PDU sizes the stream tests send back to back: trains of 188, 84,
/// 15 and 251 cells.
const BACK_TO_BACK: [usize; 4] = [9_000, 4_000, 700, 12_000];

fn back_to_back(vc_ix: usize) -> Vec<SendStep> {
    BACK_TO_BACK
        .iter()
        .map(|&size| SendStep {
            vc_ix,
            size,
            gap_us: 0,
        })
        .collect()
}

#[test]
fn back_to_back_trains_stream_across_a_lossy_hop() {
    // Each train's head reaches the switch as the previous one's last
    // cell finishes on the lossy hop, so every one streams behind it.
    for (seed, vc_ix) in [(1, 0), (2, 1), (3, 1)] {
        let plan = lossy_hop(LinkFaults::loss(0.002));
        let stats = assert_equivalent(seed, &plan, &back_to_back(vc_ix));
        assert_eq!(stats.streamed, 4, "seed {seed}");
        assert_eq!(stats.stream_splits, 0, "seed {seed}");
    }
}

#[test]
fn a_vbr_cell_entering_mid_stream_splits_it() {
    // A UBR train streams across the lossy hop; one VBR cell enters the
    // hop at a different point of the run in every case, before or
    // after the stream cell that arrives at the same instant, and must
    // overtake the rest of the run exactly as per-cell priority would.
    let plan = lossy_hop(LinkFaults::loss(0.005));
    let mut splits = 0;
    for gap_us in (0..700).step_by(7) {
        let mut steps = back_to_back(1);
        steps.push(SendStep {
            vc_ix: 0,
            size: 40,
            gap_us,
        });
        let stats = assert_equivalent(gap_us, &plan, &steps);
        assert!(stats.streamed > 0, "gap {gap_us}");
        splits += stats.stream_splits;
    }
    assert!(splits >= 90, "{splits} of 100 runs split a stream");
}

#[test]
fn bursts_jitter_and_down_windows_on_the_stream_hop_match_per_cell() {
    let down = |f: LinkFaults| {
        f.with_down(SimTime::from_micros(400), SimTime::from_micros(900))
            .with_down(SimTime::from_micros(1_500), SimTime::from_micros(1_510))
    };
    let plans = [
        LinkFaults::default().with_burst(0.004, 6.0),
        LinkFaults::loss(0.001).with_jitter(SimDuration::from_micros(9)),
        down(LinkFaults::loss(0.003)),
        down(
            LinkFaults::loss(0.001)
                .with_burst(0.002, 3.0)
                .with_jitter(SimDuration::from_micros(4)),
        ),
    ];
    for (i, faults) in plans.into_iter().enumerate() {
        let plan = lossy_hop(faults);
        for seed in 0..8 {
            let mut steps = back_to_back(seed as usize % 2);
            steps.push(SendStep {
                vc_ix: 1 - seed as usize % 2,
                size: 1_000 + seed as usize * 900,
                gap_us: 150 + seed * 61,
            });
            let stats = assert_equivalent(seed, &plan, &steps);
            assert!(stats.streamed > 0, "plan {i} seed {seed}");
        }
    }
}

#[test]
fn single_cell_replies_on_the_lossy_reverse_hop_match_per_cell() {
    // Replies on `dst → s` draw the shared fault RNG between the
    // stream's own draws on `s → dst`.
    let plan = lossy_hop(LinkFaults::loss(0.01).with_burst(0.003, 4.0));
    for seed in 0..8 {
        let mut steps = back_to_back(1);
        for k in 0..12 {
            steps.push(SendStep {
                vc_ix: 2,
                size: 10,
                gap_us: 20 + (seed * 7 + k * 13) % 90,
            });
        }
        let stats = assert_equivalent(seed, &plan, &steps);
        assert!(stats.streamed > 0, "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seed-matrix witness: random schedules and random down windows
    /// never let the two schedulers diverge.
    #[test]
    fn train_equivalence_random(
        seed in any::<u64>(),
        sizes in prop::collection::vec(1usize..60_000, 1..8),
        gaps in prop::collection::vec(0u64..40_000, 1..8),
        windows in prop::collection::vec((0u64..80u64, 1u64..15u64), 0..3),
    ) {
        let steps: Vec<SendStep> = sizes
            .iter()
            .zip(gaps.iter().cycle())
            .enumerate()
            .map(|(i, (&size, &gap_us))| SendStep { vc_ix: i % 2, size, gap_us })
            .collect();
        let mut faults = LinkFaults::default();
        for &(from_ms, len_ms) in &windows {
            faults = faults.with_down(
                SimTime::from_millis(from_ms),
                SimTime::from_millis(from_ms + len_ms),
            );
        }
        let plan = if faults.down.is_empty() {
            FaultPlan::none()
        } else {
            FaultPlan::uniform(faults)
        };
        let (batched, _, busy) = run_one(seed, &plan, &steps, false);
        let (per_cell, _, pinned_busy) = run_one(seed, &plan, &steps, true);
        prop_assert_eq!(batched, per_cell);
        prop_assert_eq!(same_busy(&busy, &pinned_busy), Ok(()));
    }
}

/// RNG-coupled faults for one link, by kind: independent loss, a burst
/// process, jitter, or loss plus a down window.
fn coupled_faults(kind: u8, p: f64, ms: u64) -> LinkFaults {
    match kind {
        0 => LinkFaults::loss(p),
        1 => LinkFaults::default().with_burst(p, 1.0 + p * 1_000.0),
        2 => LinkFaults::default().with_jitter(SimDuration::from_micros(1 + (p * 1e4) as u64)),
        _ => LinkFaults::loss(p).with_down(SimTime::from_millis(ms), SimTime::from_millis(ms + 3)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Per-link trains: one or two random hops carry RNG-coupled faults,
    /// the others are clean or down-only. Trains ride the eligible hops
    /// and expand into cells where they enter a faulted one; the two
    /// schedulers must still agree on every observable, and trains must
    /// engage whenever a VC's first hop is clean.
    #[test]
    fn per_link_trains_match_per_cell_with_rng_coupled_hops(
        seed in any::<u64>(),
        sizes in prop::collection::vec(1usize..60_000, 1..8),
        gaps in prop::collection::vec(0u64..40_000, 1..8),
        coupled in prop::sample::select(vec![
            vec![0usize],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
        ]),
        kinds in prop::collection::vec((0u8..4, 1e-4f64..0.02, 0u64..60), 3),
        down in prop::collection::vec(prop::option::of((0u64..80, 1u64..15)), 3),
    ) {
        let steps: Vec<SendStep> = sizes
            .iter()
            .zip(gaps.iter().cycle())
            .enumerate()
            .map(|(i, (&size, &gap_us))| SendStep { vc_ix: i % 2, size, gap_us })
            .collect();
        let mut plan = FaultPlan::none();
        let mut clean = [true; 3];
        for (i, &(from, to)) in HOPS.iter().enumerate() {
            let faults = if coupled.contains(&i) {
                let (kind, p, ms) = kinds[i];
                coupled_faults(kind, p, ms)
            } else if let Some((from_ms, len_ms)) = down[i] {
                LinkFaults::default().with_down(
                    SimTime::from_millis(from_ms),
                    SimTime::from_millis(from_ms + len_ms),
                )
            } else {
                continue;
            };
            clean[i] = false;
            plan = plan.with_link(from, to, faults);
        }
        let (batched, stats, busy) = run_one(seed, &plan, &steps, false);
        let (per_cell, _, pinned_busy) = run_one(seed, &plan, &steps, true);
        prop_assert_eq!(batched, per_cell);
        prop_assert_eq!(same_busy(&busy, &pinned_busy), Ok(()));
        // A PDU of 200+ bytes is at least 4 cells: it forms a train on a
        // clean first hop (HOPS[vc] is VC vc's first hop).
        if steps.iter().any(|st| clean[st.vc_ix] && st.size >= 200) {
            prop_assert!(stats.runs > 0, "no train engaged on a clean first hop");
        }
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One run of the lossy grid: UBR VC 0 (`a → s → dst`) sends four
/// back-to-back PDUs at 0 µs; `gap_us` later VC 1 (`b → s → dst`, of
/// class `second`) sends one cell, the reverse UBR VC 2 (`dst → s → a`)
/// one cell, and VC 0 a 3,000 B PDU. `faults` sits on both directions of
/// the `s`–`dst` hop. Folds every delivery, every VC's stats, the fault
/// counters, the train counters the scheduler kept before streams
/// existed, and the weathermap into `h`.
fn grid_run(h: u64, seed: u64, faults: &LinkFaults, second: ServiceClass, gap_us: u64) -> u64 {
    let mut net = AtmNetwork::new(seed);
    let a = net.add_host("a");
    let b = net.add_host("b");
    let s = net.add_switch("s");
    let dst = net.add_host("dst");
    for host in [a, b, dst] {
        net.connect(host, s, LinkProfile::atm_oc3());
    }
    net.set_fault_plan(
        FaultPlan::none()
            .with_link(s, dst, faults.clone())
            .with_link(dst, s, faults.clone()),
    );
    let vcs = [
        net.open_vc(&[a, s, dst], ServiceClass::Ubr, None).unwrap(),
        net.open_vc(&[b, s, dst], second, None).unwrap(),
        net.open_vc(&[dst, s, a], ServiceClass::Ubr, None).unwrap(),
    ];
    let pdu = |len: usize, tag: u8| Bytes::from(vec![tag; len]);
    for (i, len) in [9_000, 4_000, 700, 12_000].into_iter().enumerate() {
        net.send(vcs[0], &[pdu(len, i as u8)]).unwrap();
    }
    let mut deliveries = net.advance(SimTime::from_micros(gap_us));
    net.send(vcs[1], &[pdu(40, 0xB0)]).unwrap();
    net.send(vcs[2], &[pdu(10, 0xD0)]).unwrap();
    net.send(vcs[0], &[pdu(3_000, 0xA5)]).unwrap();
    deliveries.extend(net.drain(SimTime::from_secs(1)));
    let mut h = h;
    for d in &deliveries {
        h = fnv(h, &d.at.as_micros().to_le_bytes());
        h = fnv(h, &d.vc.0.to_le_bytes());
        h = fnv(h, &d.node.0.to_le_bytes());
        h = fnv(h, &d.payload.to_vec());
    }
    for &vc in &vcs {
        let stats = flatten(net.vc_stats(vc).expect("vc stats"));
        h = fnv(h, format!("{stats:?}").as_bytes());
    }
    h = fnv(h, format!("{:?}", net.fault_stats()).as_bytes());
    let t = net.train_stats();
    let pinned = [
        t.runs,
        t.cells_batched,
        t.per_cell_pdus,
        t.expanded_contention,
        t.parked,
        t.expanded_fault_window,
        t.line_loss_fallbacks,
    ];
    for counter in pinned {
        h = fnv(h, &counter.to_le_bytes());
    }
    fnv(h, net.weathermap_json().as_bytes())
}

/// Digest of the lossy grid as the scheduler produced it before cell
/// trains could stream across an RNG-faulted hop.
const LOSSY_GRID_DIGEST: u64 = 0x2ccc_c90f_df1d_3f3f;

/// The stream across a lossy hop reproduces the train-mode scheduler it
/// replaced on every run of a grid: four lossy plans on the `s`–`dst`
/// hop × a UBR or VBR second VC × seeds 0–5 × gaps 0–897 µs in 13 µs
/// steps (3,360 runs). `force_per_cell` is no oracle here: two UBR VCs
/// sharing the hop serve differently with and without trains (a
/// cut-through train holds the transmitter for its run), so the grid
/// pins the train-mode outcomes themselves.
#[test]
fn lossy_grid_matches_the_pinned_train_mode_digest() {
    let plans = [
        LinkFaults::loss(0.01),
        LinkFaults::loss(0.002).with_burst(0.001, 5.0),
        LinkFaults::loss(0.005).with_jitter(SimDuration::from_micros(7)),
        LinkFaults::loss(0.01).with_down(SimTime::from_micros(300), SimTime::from_micros(500)),
    ];
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut runs = 0;
    for faults in &plans {
        for second in [ServiceClass::Ubr, ServiceClass::Vbr] {
            for seed in 0..6 {
                for gap_us in (0..=900).step_by(13) {
                    h = grid_run(h, seed, faults, second, gap_us);
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 3_360);
    assert_eq!(h, LOSSY_GRID_DIGEST, "lossy grid digest {h:#018x}");
}
