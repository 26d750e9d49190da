//! The `lecture` workload: one warm four-seat installation whose seats
//! fetch a catalogue larger than their client caches, one fetch at a
//! time, so every fetch crosses client → ATM → server → ATM → client.

use crate::inputs::{self, LECTURE_CLIPS};
use crate::report::{self, Counts, Round, RunResult, Timed, Traced};
use crate::spans::Spans;
use mits_core::system::SystemError;
use mits_core::{ClientId, MitsSystem, SystemConfig};
use std::time::{Duration, Instant};

const SEATS: usize = 4;
/// Passes of every seat over the catalogue per round (1,152 fetches).
const PASSES: usize = 3;
/// Set-ups before the first round; one more follows every
/// `ROUNDS_PER_SETUP` rounds, as it costs about a third of a round.
const SETUP_REPEATS: usize = 5;
const ROUNDS_PER_SETUP: usize = 3;

struct Lecture {
    sys: MitsSystem,
    inputs: inputs::Lecture,
}

impl Lecture {
    /// Generate the catalogue, build the installation and load it.
    fn new(seed: u64) -> Result<Self, SystemError> {
        let inputs = inputs::lecture(seed);
        let config = SystemConfig::broadband(SEATS).with_seed(inputs.net_seed);
        let mut sys = MitsSystem::build(&config)?;
        let c = &inputs.course;
        sys.load_doc(&c.objects, &c.media, c.root);
        Ok(Lecture { sys, inputs })
    }

    /// One round: the seats fetch the whole catalogue in turn, `PASSES`
    /// times. Each fetch is timed alone; its bytes are checked after the
    /// clock stops.
    fn round(&mut self, timed: &mut Timed, spans: &mut Spans) -> Round {
        let mut round = Round::default();
        for seat in (0..PASSES).flat_map(|_| 0..SEATS) {
            for &i in &self.inputs.order {
                let src = &self.inputs.course.media[i];
                let trace = timed.attempted;
                let sys = &mut self.sys;
                let t0 = Instant::now();
                let got = spans.time("core.fetch_content", trace, || {
                    sys.fetch_content(ClientId(seat), src.id)
                });
                let wall_s = t0.elapsed().as_secs_f64();
                round.ops += 1;
                round.wall_s += wall_s;
                timed.attempted += 1;
                round.op_wall_s.push(wall_s);
                match got {
                    Ok((m, virt)) if m.id == src.id && m.data == src.data => {
                        round.payload += m.data.len() as u64;
                        timed.op_virt_s.push(virt.as_secs_f64());
                    }
                    _ => timed.failed += 1,
                }
            }
        }
        round
    }
}

fn snapshot_counts(sys: &MitsSystem) -> Counts {
    sys.export_metrics();
    Counts::from_snapshot(&sys.metrics.snapshot())
}

pub fn run(
    seed: u64,
    budget: Duration,
    traced: bool,
    spans_out: Option<&str>,
) -> Result<RunResult, SystemError> {
    let (mut lec, setup_s) = report::repeated_setup(SETUP_REPEATS, || Lecture::new(seed))?;
    let media_loaded = (LECTURE_CLIPS * inputs::LECTURE_CLIP_BYTES) as u64;
    let mut timed = Timed {
        setup_s,
        ..Timed::default()
    };

    // The traced run alternates untraced and traced rounds, so drift in
    // the host's speed touches both sides alike.
    let mut untraced = Spans::new(false);
    let mut spans = Spans::new(true);
    let (mut traced_wall, mut traced_ops) = (0.0, 0);
    let mut counts = None;
    let started = Instant::now();
    while counts.is_none() || started.elapsed() < budget {
        let round = lec.round(&mut timed, &mut untraced);
        timed.rounds.push(round);
        if counts.is_none() {
            timed.peak_rss_mb = report::peak_rss_mb();
            counts = Some(snapshot_counts(&lec.sys));
        }
        if timed.rounds.len().is_multiple_of(ROUNDS_PER_SETUP) {
            timed
                .setup_s
                .push(report::extra_setup_s(|| Lecture::new(seed))?);
        }
        if traced {
            let round = lec.round(&mut timed, &mut spans);
            traced_wall += round.wall_s;
            traced_ops += round.ops;
        }
    }
    let counts = counts.expect("one round ran");
    drop(lec);

    // Rounds do not repeat each other exactly: the network's line-noise
    // process runs on across them. A twin installation from the same
    // seed must reproduce the first round's program counts exactly.
    let mut twin = Lecture::new(seed)?;
    let mut twin_timed = Timed::default();
    twin.round(&mut twin_timed, &mut untraced);
    let consistent = twin_timed.failed == 0 && snapshot_counts(&twin.sys) == counts;
    drop(twin);

    if !traced {
        return Ok(RunResult {
            attempted: timed.attempted,
            failed: timed.failed,
            consistent,
            metrics: timed.end_to_end(),
        });
    }

    let untraced_wall: f64 = timed.rounds.iter().map(|r| r.wall_s).sum();
    let untraced_ops: u64 = timed.rounds.iter().map(|r| r.ops).sum();
    let traced = Traced {
        spans: &spans,
        wall_s: traced_wall,
        overhead: (traced_wall / traced_ops as f64) / (untraced_wall / untraced_ops as f64) - 1.0,
        merge_s: 0.0,
    };
    let metrics = report::per_layer(traced, &timed, counts.metrics(media_loaded, 0), spans_out)
        .map_err(|e| SystemError::Protocol(format!("writing spans: {e}")))?;
    Ok(RunResult {
        attempted: timed.attempted,
        failed: timed.failed,
        consistent,
        metrics,
    })
}
