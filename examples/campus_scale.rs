//! Campus at scale: stream a whole student population through the
//! memory-bounded `Campus` runner with a custom `ReportSink`.
//!
//! The paper's TeleSchool serves a campus, not a seat — so the runner
//! runs one session per worker thread, retires each as it finishes, and
//! streams every outcome to the sink in deterministic student-index
//! order. Live memory is bounded by the thread count, not by the
//! population: 512 students here cost the same RSS as 50.
//!
//! Run with: `cargo run --release --example campus_scale`

use bytes::Bytes;
use mits::core::{Campus, CampusRollup, CampusWorkload, ReportSink, SessionReport, ShardTrace};
use mits::media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits::mheg::{ClassLibrary, GenericValue};
use mits::sim::SimDuration;

/// A sink that watches the stream go by: a progress line every 128
/// retired sessions, plus a tally of anomalies and sampled traces. It
/// keeps counters, not sessions — memory stays flat no matter how large
/// the campus grows.
#[derive(Default)]
struct ProgressSink {
    retired: usize,
    bytes: u64,
    anomalous: usize,
    traces: usize,
}

impl ReportSink for ProgressSink {
    fn session(&mut self, report: &SessionReport) {
        self.retired += 1;
        self.bytes += report.bytes;
        self.anomalous += usize::from(report.anomalous);
        if self.retired.is_multiple_of(128) {
            println!(
                "  retired {:>4} sessions, {:>6.1} MB simulated",
                self.retired,
                self.bytes as f64 / (1024.0 * 1024.0)
            );
        }
    }

    fn trace(&mut self, trace: &ShardTrace) {
        self.traces += 1;
        println!(
            "  trace kept for student {:>4} ({})",
            trace.student,
            trace.reason.as_str()
        );
    }

    fn rollup(&mut self, rollup: &CampusRollup) {
        println!(
            "campus of {} students on {} threads: digest 0x{:016x}, \
             {} failed, {} SLO breaches, {:.1}s wall",
            rollup.students,
            rollup.threads,
            rollup.digest,
            rollup.sessions_failed,
            rollup.slo.breaches(),
            rollup.wall_secs
        );
    }
}

fn main() {
    // One scenario closure plus a single 8 KB MPEG clip per student.
    let mut lib = ClassLibrary::new(1);
    let v = lib.value_content("v", GenericValue::Int(1));
    let root = lib.container("Course", vec![v]);
    let clip: Vec<u8> = (0..8 * 1024).map(|j| (j % 251) as u8).collect();
    let workload = CampusWorkload {
        objects: lib.into_objects(),
        media: vec![MediaObject::new(
            MediaId(700),
            String::from("clip.mpg"),
            MediaFormat::Mpeg,
            SimDuration::from_secs(1),
            VideoDims::new(160, 120),
            Bytes::from(clip),
        )],
        root,
    };

    let mut sink = ProgressSink::default();
    Campus::new(512, 42)
        .threads(2)
        .trace_sample_rate(0.01)
        .workload(workload)
        .run_with(&mut sink)
        .expect("campus run");
    println!(
        "sink saw {} sessions, {} anomalous, {} traces",
        sink.retired, sink.anomalous, sink.traces
    );
}
