//! Regenerate every table and figure of the MITS evaluation
//! (`DESIGN.md` §4, recorded in `EXPERIMENTS.md`).
//!
//! ```text
//! cargo run -p mits-bench --bin tables --release -- [--exp NAME] [FLAG VALUE]...
//!
//! --exp NAME           run one experiment; without it, every paper table
//!                      (t5_1 .. obs). The scale experiments campus, slo,
//!                      shards, forensics, replay and media run only by name.
//! --students N         campus sessions        [campus 10000, slo 16, storm 9]
//! --threads N          campus worker threads  [campus max(cores, 2), slo 4, storm 2]
//!                      (1-thread reference legs stay at 1)
//! --clips N            clips per courseware   [2]
//! --clip-bytes N       bytes per clip         [campus, slo 65536; storm 300000]
//! --shards N           storm shards, >= 2     [3]
//! --victim N           storm victim shard     [1]
//! --flight-ring N      flight-recorder ring cap, 0 = default  [0]
//! --flash-clients N    shards flash-crowd clients  [8]
//! --out FILE           JSON output  [BENCH_<exp>.json; slo writes none]
//! ```
//!
//! "storm" is shards, forensics and replay: the seeded fault storm on
//! one shard of a partitioned store. Every flag applies to whichever
//! experiment runs. An unknown experiment or flag, a missing or
//! unparsable value, fewer than 2 shards or a victim outside them exits
//! with status 2 and the usage line.

use bytes::Bytes;
use mits_atm::{FaultPlan, LinkFaults, LinkProfile};
use mits_author::compile_hyperdoc;
use mits_bench::{atm_course, one_of_each_class, reuse_course};
use mits_core::models::{compare_delivery_models, reuse_ablation};
use mits_core::stack::layer_breakdown;
use mits_core::stream::{profile_name, stream_audio_over, stream_video_over};
use mits_core::{
    fault_storm_slos, host_cores, sharded_workloads, Campus, CampusRollup, CampusWorkload,
    ClientId, CodSession, FaultStorm, MitsSystem, ReportSink, SessionReport, SystemConfig,
};
use mits_db::RetryPolicy;
use mits_media::codec::{
    CodecModel, AVI_BITS_PER_SEC, MIDI_BYTES_PER_MIN, MPEG_BITS_PER_SEC, WAV_BYTES_PER_SEC,
};
use mits_media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits_mheg::{encode_object, MhegEngine, PresentationEvent, WireFormat};
use mits_navigator::PresentationSession;
use mits_school::{simulate_facilitation, FacilitationModel};
use mits_sim::{SimDuration, SimTime};
use std::process::ExitCode;

/// The paper's tables and figures, in run order. They are
/// deterministic, and a run without `--exp` runs all of them.
static TABLES: [(&str, fn()); 14] = [
    ("t5_1", t5_1),
    ("f2_4", f2_4),
    ("f2_6", f2_6),
    ("f2_9", f2_9),
    ("f3_2", f3_2),
    ("f3_5", f3_5),
    ("f4_3", f4_3),
    ("f4_4", f4_4),
    ("f5_x", f5_x),
    ("e_bb", e_bb),
    ("e_sidl", e_sidl),
    ("e_model", e_model),
    ("e_reuse", e_reuse),
    ("obs", obs),
];

/// A scale experiment, sized by the command line.
type ScaleRun = fn(&Options);

/// The scale experiments, run only by name: campus and media report
/// host wall-clock numbers, which would make the default output
/// machine-dependent, and the rest run whole campuses.
static SCALE: [(&str, ScaleRun); 6] = [
    ("campus", campus),
    ("slo", slo),
    ("shards", shards),
    ("forensics", forensics),
    ("replay", replay),
    ("media", media),
];

/// Every `--exp` name, tables first.
fn experiment_names() -> impl Iterator<Item = &'static str> {
    TABLES
        .iter()
        .map(|(n, _)| *n)
        .chain(SCALE.iter().map(|(n, _)| *n))
}

/// The base seed of every campus run.
const SEED: u64 = 42;

/// The command line, parsed once in `main`. A size left unset takes the
/// running experiment's default (see the module doc).
#[derive(Debug, PartialEq)]
struct Options {
    /// One experiment by name; `None` runs every table.
    exp: Option<&'static str>,
    students: Option<usize>,
    threads: Option<usize>,
    clips: usize,
    clip_bytes: Option<usize>,
    shards: usize,
    victim: usize,
    flight_ring: usize,
    flash_clients: usize,
    out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            exp: None,
            students: None,
            threads: None,
            clips: 2,
            clip_bytes: None,
            shards: 3,
            victim: 1,
            flight_ring: 0,
            flash_clients: 8,
            out: None,
        }
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next();
        let value = || value.as_deref().ok_or(format!("{flag} needs a value"));
        let number = || {
            let v = value()?;
            v.parse::<usize>().map_err(|e| format!("{flag} {v}: {e}"))
        };
        match flag.as_str() {
            "--exp" => {
                let name = value()?;
                o.exp = Some(
                    experiment_names()
                        .find(|n| *n == name)
                        .ok_or(format!("unknown experiment {name}"))?,
                );
            }
            "--students" => o.students = Some(number()?),
            "--threads" => o.threads = Some(number()?),
            "--clips" => o.clips = number()?,
            "--clip-bytes" => o.clip_bytes = Some(number()?),
            "--shards" => o.shards = number()?,
            "--victim" => o.victim = number()?,
            "--flight-ring" => o.flight_ring = number()?,
            "--flash-clients" => o.flash_clients = number()?,
            "--out" => o.out = Some(value()?.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if o.shards < 2 {
        return Err(format!("--shards {}: the storm needs at least 2", o.shards));
    }
    if o.victim >= o.shards {
        return Err(format!(
            "--victim {}: not one of the {} shards",
            o.victim, o.shards
        ));
    }
    Ok(o)
}

fn usage() -> String {
    let names: Vec<&str> = experiment_names().collect();
    format!(
        "usage: tables [--exp {}] [--students N] [--threads N] [--clips N] \
         [--clip-bytes N] [--shards N] [--victim N] [--flight-ring N] \
         [--flash-clients N] [--out FILE]",
        names.join("|")
    )
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tables: {e}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    for (name, run) in &TABLES {
        if opts.exp.is_none_or(|e| e == *name) {
            run();
        }
    }
    for (name, run) in &SCALE {
        if opts.exp == Some(*name) {
            run(&opts);
        }
    }
    ExitCode::SUCCESS
}

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Table 5.1 + §5.2.2 prose: media formats and measured storage densities.
fn t5_1() {
    header("T5.1", "multimedia file formats and storage densities");
    println!(
        "{:<14} {:<6} {:<8} {:>18} {:>22}",
        "format", "ext", "kind", "model rate", "measured density"
    );
    let minute = SimDuration::from_secs(60);
    for f in MediaFormat::ALL {
        let model = CodecModel::for_format(f);
        let rate = model
            .nominal_bit_rate()
            .map(|r| format!("{:.1} kb/s", r as f64 / 1e3))
            .unwrap_or_else(|| "static".into());
        let density = match f {
            MediaFormat::Wav => {
                let per_sec = model.coded_size(SimDuration::from_secs(1), VideoDims::default());
                format!("{:.1} KB per second", per_sec as f64 / 1024.0)
            }
            MediaFormat::Midi => {
                let per_min = model.coded_size(minute, VideoDims::default());
                format!("{:.1} KB per minute", per_min as f64 / 1024.0)
            }
            MediaFormat::Mpeg | MediaFormat::Avi => {
                let per_min = model.coded_size(minute, VideoDims::new(320, 240));
                format!("{:.1} MB per minute", per_min as f64 / 1048576.0)
            }
            MediaFormat::Gif | MediaFormat::Jpeg => {
                let sz = model.coded_size(SimDuration::ZERO, VideoDims::new(640, 480));
                format!("{:.1} KB per 640x480", sz as f64 / 1024.0)
            }
            _ => "n/a".into(),
        };
        println!(
            "{:<14} .{:<5} {:<8} {:>18} {:>22}",
            f.to_string(),
            f.extension(),
            format!("{:?}", f.kind()),
            rate,
            density
        );
    }
    println!(
        "paper calibration: WAV 11 KB/s = {} B/s model; MIDI 5 KB/min = {} B/min; \
         MPEG {} b/s; AVI {} b/s",
        WAV_BYTES_PER_SEC, MIDI_BYTES_PER_MIN, MPEG_BITS_PER_SEC, AVI_BITS_PER_SEC
    );
}

/// Figure 2.4: the object life cycle — encode(a) → decode(b) → new(c).
fn f2_4() {
    header("F2.4", "MHEG object life cycle: form (a) → (b) → (c)");
    let objects = one_of_each_class(24);
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>8}",
        "class", "wire B", "enc+dec µs", "new(c) µs", "rt?"
    );
    for obj in &objects {
        let reps = 200u32;
        let t0 = std::time::Instant::now();
        let mut wire_len = 0;
        for _ in 0..reps {
            let wire = encode_object(obj, WireFormat::Tlv);
            wire_len = wire.len();
            std::hint::black_box(
                mits_mheg::decode_object(&wire, WireFormat::Tlv).expect("round trip"),
            );
        }
        let codec_us = t0.elapsed().as_micros() as f64 / reps as f64;
        // Form (c): measure `new` on model classes.
        let (new_us, has_rt) = if obj.is_model() {
            let t1 = std::time::Instant::now();
            let mut count = 0u32;
            for _ in 0..reps {
                let mut eng = MhegEngine::new();
                for o in &objects {
                    eng.ingest(o.clone());
                }
                eng.new_rt(obj.id).expect("model object");
                count += 1;
            }
            (t1.elapsed().as_micros() as f64 / count as f64, true)
        } else {
            (0.0, false)
        };
        println!(
            "{:<22} {:>10} {:>12.1} {:>12.1} {:>8}",
            obj.class().to_string(),
            wire_len,
            codec_us,
            new_us,
            if has_rt { "yes" } else { "-" }
        );
    }
}

/// Figure 2.6: the four synchronization mechanisms — scheduled vs actual.
fn f2_6() {
    header(
        "F2.6",
        "synchronization mechanisms: scheduled vs actual start times",
    );
    use mits_media::{CaptureSpec, ProductionCenter};
    use mits_mheg::action::{ActionEntry, ElementaryAction, TargetRef};
    use mits_mheg::sync::{AtomicRelation, SyncMechanism, SyncSpec};
    use mits_mheg::ClassLibrary;

    let mut studio = ProductionCenter::new(26);
    let a_media = studio.capture(&CaptureSpec::audio(
        "a.wav",
        MediaFormat::Wav,
        SimDuration::from_secs(2),
    ));
    let b_media = studio.capture(&CaptureSpec::audio(
        "b.wav",
        MediaFormat::Wav,
        SimDuration::from_secs(2),
    ));

    type SyncCase = (&'static str, SyncMechanism, Vec<(&'static str, u64)>);
    let cases: Vec<SyncCase> = vec![
        (
            "atomic parallel",
            SyncMechanism::Atomic {
                a: TargetRef::Model(mits_mheg::MhegId::new(0, 0)), // patched below
                b: TargetRef::Model(mits_mheg::MhegId::new(0, 0)),
                relation: AtomicRelation::Parallel,
            },
            vec![("a", 0), ("b", 0)],
        ),
        (
            "atomic serial",
            SyncMechanism::Atomic {
                a: TargetRef::Model(mits_mheg::MhegId::new(0, 0)),
                b: TargetRef::Model(mits_mheg::MhegId::new(0, 0)),
                relation: AtomicRelation::Serial,
            },
            vec![("a", 0), ("b", 2_000_000)],
        ),
        (
            "elementary T1=0.5s T2=1.5s",
            SyncMechanism::Elementary {
                a: TargetRef::Model(mits_mheg::MhegId::new(0, 0)),
                t1: SimDuration::from_millis(500),
                b: TargetRef::Model(mits_mheg::MhegId::new(0, 0)),
                t2: SimDuration::from_millis(1500),
            },
            vec![("a", 500_000), ("b", 1_500_000)],
        ),
        (
            "chained a→b",
            SyncMechanism::Chained { sequence: vec![] },
            vec![("a", 0), ("b", 2_000_000)],
        ),
    ];

    println!(
        "{:<28} {:<8} {:>14} {:>14} {:>8}",
        "mechanism", "object", "scheduled µs", "actual µs", "skew µs"
    );
    for (name, mech, expected) in cases {
        let mut lib = ClassLibrary::new(260);
        let a = lib.media_content(&a_media, (0, 0));
        let b = lib.media_content(&b_media, (0, 0));
        let mech = match mech {
            SyncMechanism::Atomic { relation, .. } => SyncMechanism::Atomic {
                a: TargetRef::Model(a),
                b: TargetRef::Model(b),
                relation,
            },
            SyncMechanism::Elementary { t1, t2, .. } => SyncMechanism::Elementary {
                a: TargetRef::Model(a),
                t1,
                b: TargetRef::Model(b),
                t2,
            },
            SyncMechanism::Chained { .. } => SyncMechanism::Chained {
                sequence: vec![TargetRef::Model(a), TargetRef::Model(b)],
            },
            other => other,
        };
        let scene = lib.composite("scene", vec![a, b], vec![], vec![SyncSpec::new(mech)]);
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        eng.new_rt(scene).unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Model(scene),
            vec![ElementaryAction::Run],
        ))
        .unwrap();
        eng.advance(SimTime::from_secs(10)).unwrap();
        let a_rt = eng.rt_of_model(a);
        let b_rt = eng.rt_of_model(b);
        let events = eng.take_events();
        for (label, model_rt, (_, scheduled)) in
            [("a", a_rt, expected[0]), ("b", b_rt, expected[1])]
        {
            let actual = events.iter().find_map(|e| match e {
                PresentationEvent::Started { rt, at } if Some(*rt) == model_rt => {
                    Some(at.as_micros())
                }
                _ => None,
            });
            match actual {
                Some(at) => println!(
                    "{:<28} {:<8} {:>14} {:>14} {:>8}",
                    name,
                    label,
                    scheduled,
                    at,
                    at as i64 - scheduled as i64
                ),
                None => println!("{name:<28} {label:<8} {scheduled:>14} {:>14}", "never"),
            }
        }
    }
    // Cyclic separately: repetition instants.
    let mut lib = mits_mheg::ClassLibrary::new(261);
    let a = lib.media_content(&a_media, (0, 0));
    let scene = lib.composite(
        "loop",
        vec![a],
        vec![],
        vec![SyncSpec::new(SyncMechanism::Cyclic {
            target: TargetRef::Model(a),
            period: SimDuration::from_secs(3),
            repetitions: Some(3),
        })],
    );
    let mut eng = MhegEngine::new();
    for o in lib.into_objects() {
        eng.ingest(o);
    }
    eng.new_rt(scene).unwrap();
    eng.apply_entry(&ActionEntry::now(
        TargetRef::Model(scene),
        vec![ElementaryAction::Run],
    ))
    .unwrap();
    eng.advance(SimTime::from_secs(20)).unwrap();
    let starts: Vec<u64> = eng
        .take_events()
        .iter()
        .filter_map(|e| match e {
            PresentationEvent::Started { rt, at } if Some(*rt) == eng.rt_of_model(a) => {
                Some(at.as_micros())
            }
            _ => None,
        })
        .collect();
    println!("cyclic period=3s reps=3          starts at µs: {starts:?} (scheduled 0, 3e6, 6e6)");
}

/// Figure 2.9: interchange codecs — size and speed, TLV vs SGML.
fn f2_9() {
    header("F2.9", "interchange codecs: TLV (ASN.1 role) vs SGML");
    let objects = one_of_each_class(29);
    println!(
        "{:<22} {:>9} {:>9} {:>8} {:>12} {:>12}",
        "class", "TLV B", "SGML B", "ratio", "TLV µs", "SGML µs"
    );
    for obj in &objects {
        let tlv = encode_object(obj, WireFormat::Tlv);
        let sgml = encode_object(obj, WireFormat::Sgml);
        let reps = 200;
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(mits_mheg::decode_object(
                &encode_object(obj, WireFormat::Tlv),
                WireFormat::Tlv,
            ))
            .unwrap();
        }
        let tlv_us = t0.elapsed().as_micros() as f64 / reps as f64;
        let t1 = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(mits_mheg::decode_object(
                &encode_object(obj, WireFormat::Sgml),
                WireFormat::Sgml,
            ))
            .unwrap();
        }
        let sgml_us = t1.elapsed().as_micros() as f64 / reps as f64;
        println!(
            "{:<22} {:>9} {:>9} {:>8.2} {:>12.1} {:>12.1}",
            obj.class().to_string(),
            tlv.len(),
            sgml.len(),
            sgml.len() as f64 / tlv.len() as f64,
            tlv_us,
            sgml_us
        );
    }
}

/// Figure 3.2: per-layer cost of one object interchange.
fn f3_2() {
    header("F3.2", "layered interchange model: where the time goes");
    let (compiled, media, _) = atm_course(32);
    let container = compiled
        .objects
        .iter()
        .find(|o| o.id == compiled.root)
        .expect("container exists");
    let content_bytes: u64 = media.iter().map(|m| m.data.len() as u64).sum();
    for profile in [LinkProfile::atm_oc3(), LinkProfile::isdn_128k()] {
        println!("-- access link: {} --", profile_name(&profile));
        let rows = layer_breakdown(container, content_bytes, &profile);
        for r in &rows {
            println!(
                "  {:<32} {:>14} ({})",
                r.layer,
                r.cost.to_string(),
                r.method
            );
        }
    }
}

/// Figure 3.5: client-server scalability sweep — all clients fetch the
/// courseware *simultaneously*; the single server and shared backbone
/// serialize them.
fn f3_5() {
    header(
        "F3.5",
        "client-server model: fetch latency vs concurrent clients",
    );
    let (compiled, media, _) = atm_course(35);
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>12}",
        "clients", "mean latency", "min", "max", "server reqs"
    );
    for &n in &[1usize, 2, 4, 8, 16, 32] {
        let mut sys = MitsSystem::build(&SystemConfig::broadband(n)).unwrap();
        sys.load_directly(compiled.objects.clone(), media.clone());
        let clients: Vec<ClientId> = (0..n).map(ClientId).collect();
        let latencies = sys
            .concurrent_fetch_courseware(&clients, compiled.root)
            .unwrap();
        let mean: f64 = latencies.iter().map(|d| d.as_secs_f64()).sum::<f64>() / n as f64;
        let min = latencies.iter().min().unwrap();
        let max = latencies.iter().max().unwrap();
        println!(
            "{:<10} {:>12.2}ms {:>14} {:>14} {:>12}",
            n,
            mean * 1e3,
            min.to_string(),
            max.to_string(),
            *sys.db().requests_served.read()
        );
    }
}

/// Figure 4.3: hypermedia navigation trace.
fn f4_3() {
    header("F4.3", "hypermedia document model: navigation trace");
    let doc = mits_author::HyperDocument::figure_4_3_example();
    let compiled = compile_hyperdoc(43, &doc);
    let mut p =
        PresentationSession::load(compiled.objects.clone(), "Fig 4.3 navigation example").unwrap();
    p.start().unwrap();
    let script = [
        ("(start)", None),
        ("Test Your Knowledge", Some("Test Your Knowledge")),
        ("48 bytes (wrong)", Some("48 bytes")),
        ("Try again", Some("Try again")),
        ("53 bytes (right)", Some("53 bytes")),
        ("Continue", Some("Continue")),
    ];
    println!("{:<26} {:>6} {:<20}", "action", "page", "page title");
    for (label, click) in script {
        if let Some(c) = click {
            p.click(c).unwrap();
        }
        let unit = p.current_unit().unwrap();
        println!("{:<26} {:>6} {:<20}", label, unit, compiled.units[unit].0);
    }
}

/// Figure 4.4: the interactive multimedia document timeline.
fn f4_4() {
    header(
        "F4.4",
        "interactive multimedia document: timeline with preemption",
    );
    let (compiled, media, name) = atm_course(44);
    let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
    sys.load_directly(compiled.objects.clone(), media);
    let mut session = CodSession::open(&mut sys, ClientId(0), compiled.root, name).unwrap();
    session.start().unwrap();
    println!("t=0.0s  scene1 starts; visible: {:?}", names(&session));
    session.play(SimDuration::from_secs(1)).unwrap();
    session.click("show image now").unwrap();
    println!(
        "t=1.0s  choice1 clicked (before t2=4s): {:?}",
        names(&session)
    );
    session.play(SimDuration::from_millis(500)).unwrap();
    session.click("stop").unwrap();
    println!(
        "t=1.5s  stop clicked → audio1/text1/image1 stopped, unit {:?}",
        session.current_unit()
    );
    session.auto_play(SimDuration::from_secs(10)).unwrap();
    println!(
        "course completed={} startup={} stalls={}",
        session.report.completed,
        session.report.startup(),
        session.report.stalls.len()
    );
}

fn names(session: &CodSession<'_>) -> Vec<String> {
    session
        .presentation()
        .visible()
        .into_iter()
        .map(|v| v.name)
        .collect()
}

/// Figures 5.3–5.7: the sample learning session step trace.
fn f5_x() {
    header("F5.3-5.7", "sample learning session step trace");
    use mits_navigator::{NavigatorUi, UiEvent, UiOutcome};
    use mits_school::{Course, CourseCode, StudentRegistry};
    let (compiled, media, name) = atm_course(55);
    let mut school = StudentRegistry::new();
    school.add_program("Telecommunications");
    school
        .add_course(Course {
            code: CourseCode("TEL101".into()),
            name: name.into(),
            program: "Telecommunications".into(),
            planned_sessions: 3,
            courseware: Some(compiled.root),
        })
        .unwrap();
    let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
    sys.load_directly(compiled.objects.clone(), media);
    let mut ui = NavigatorUi::new();
    ui.handle(UiEvent::ClickRegister, &mut school);
    ui.handle(
        UiEvent::SubmitGeneralInfo {
            name: "Sample Student".into(),
            address: "Ottawa".into(),
            email: "s@uottawa.ca".into(),
        },
        &mut school,
    );
    ui.handle(
        UiEvent::SelectCourse(CourseCode("TEL101".into())),
        &mut school,
    );
    let UiOutcome::Registered(number) = ui.handle(UiEvent::FinishRegistration, &mut school) else {
        panic!()
    };
    ui.handle(
        UiEvent::OpenClassroom(CourseCode("TEL101".into())),
        &mut school,
    );
    let mut session = CodSession::open(&mut sys, ClientId(0), compiled.root, name).unwrap();
    session.start().unwrap();
    session.play(SimDuration::from_secs(1)).unwrap();
    let stop_unit = session.current_unit().unwrap() as u32;
    school
        .record_session(number, &CourseCode("TEL101".into()), Some(stop_unit))
        .unwrap();
    ui.handle(UiEvent::Back, &mut school);
    ui.handle(UiEvent::OpenAdministration, &mut school);
    ui.handle(
        UiEvent::SubmitProfile {
            address: Some("75 Laurier Ave E".into()),
            email: None,
        },
        &mut school,
    );
    ui.handle(UiEvent::OpenLibrary, &mut school);
    ui.handle(UiEvent::Back, &mut school);
    ui.handle(UiEvent::Exit, &mut school);
    for (i, line) in ui.log.iter().enumerate() {
        println!("{i:>3}. {line}");
    }
    println!(
        "resume position saved: unit {:?}",
        school
            .resume_position(number, &CourseCode("TEL101".into()))
            .unwrap()
    );
}

/// E-BB: courseware streaming over the four infrastructures.
fn e_bb() {
    header(
        "E-BB",
        "broadband vs narrowband: streamed MPEG course clip (30 s, 1.5 Mb/s, 1 s prebuffer)",
    );
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>10} {:>12} {:>10}",
        "link", "frames", "lost", "late", "playable", "mean CTD ms", "CLR"
    );
    let profiles = [
        LinkProfile::atm_oc3(),
        LinkProfile::lan_10m(),
        LinkProfile::isdn_128k(),
        LinkProfile::modem_28_8k(),
    ];
    for p in profiles {
        let r = stream_video_over(
            p,
            SimDuration::from_secs(30),
            1_500_000,
            SimDuration::from_secs(1),
            1996,
        );
        println!(
            "{:<18} {:>8} {:>8} {:>8} {:>9.1}% {:>12.3} {:>10.2e}",
            profile_name(&p),
            r.frames,
            r.lost,
            r.late,
            r.playable * 100.0,
            r.mean_ctd * 1e3,
            r.clr
        );
    }
    println!("\naudio row (WAV-rate 90 kb/s, 1 s prebuffer):");
    for p in [LinkProfile::isdn_128k(), LinkProfile::modem_28_8k()] {
        let r = stream_audio_over(
            p,
            SimDuration::from_secs(30),
            90_112,
            SimDuration::from_secs(1),
            1996,
        );
        println!(
            "{:<18} playable {:>6.1}%  (audio fits ISDN but not a modem)",
            profile_name(&p),
            r.playable * 100.0
        );
    }
}

/// E-SIDL: facilitation waiting times.
fn e_sidl() {
    header("E-SIDL", "on-demand facilitation vs SIDL telephone queue");
    let arrival = SimDuration::from_secs(1200);
    let service = SimDuration::from_secs(120);
    let n = 2000;
    println!("load: one question per {arrival}, {service} answers, n={n}");
    println!(
        "{:<36} {:>12} {:>12} {:>10}",
        "model", "mean wait", "p95", "answered"
    );
    let models: [(&str, FacilitationModel); 3] = [
        (
            "MITS on-line, 2 facilitators",
            FacilitationModel::MitsOnline { facilitators: 2 },
        ),
        (
            "MITS on-line, 4 facilitators",
            FacilitationModel::MitsOnline { facilitators: 4 },
        ),
        (
            "SIDL 3 lines, 1 h/day broadcast",
            FacilitationModel::SidlBroadcast {
                lines: 3,
                window: SimDuration::from_secs(3600),
                period: SimDuration::from_secs(24 * 3600),
            },
        ),
    ];
    for (name, model) in models {
        let r = simulate_facilitation(model, arrival, service, n, 1996);
        println!(
            "{:<36} {:>11.0}s {:>11.0}s {:>10}",
            name,
            r.wait.mean(),
            r.histogram.quantile(0.95).unwrap_or(0.0),
            r.answered
        );
    }
}

/// E-MODEL: the three delivery infrastructures.
fn e_model() {
    header("E-MODEL", "broadcast vs CD-ROM vs network COD");
    // Measure the real COD fetch on the broadband system.
    let (compiled, media, name) = atm_course(57);
    let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
    sys.load_directly(compiled.objects.clone(), media);
    let mut session = CodSession::open(&mut sys, ClientId(0), compiled.root, name).unwrap();
    session.start().unwrap();
    let cod_fetch = session.report.startup();
    let rows = compare_delivery_models(
        SimDuration::from_secs(7 * 24 * 3600),
        SimDuration::from_secs(3 * 24 * 3600),
        cod_fetch,
        1996,
    );
    println!(
        "{:<22} {:>18} {:>14} {:>12} {:>10}",
        "model", "time to content", "interaction", "staleness", "learner-led"
    );
    for r in rows {
        println!(
            "{:<22} {:>18} {:>14} {:>9} d {:>10}",
            r.model,
            r.time_to_content.to_string(),
            r.interaction
                .map(|d| d.to_string())
                .unwrap_or_else(|| "none".into()),
            r.freshness_days,
            if r.learner_controlled { "yes" } else { "no" }
        );
    }
}

/// OBS: the observability subsystem — one lossy Course-On-Demand
/// session's latency waterfall, and the metrics every layer registered.
fn obs() {
    header("OBS", "CodSession latency waterfall + metrics registry");
    let (compiled, media, name) = atm_course(61);
    let cfg = SystemConfig::broadband(1)
        .with_retry(RetryPolicy::interactive().with_deadline(SimDuration::from_secs(60)));
    let mut sys = MitsSystem::build(&cfg).unwrap();
    let student = sys.client_host(ClientId(0));
    sys.net.set_fault_plan(FaultPlan::none().with_link(
        student,
        sys.switch(),
        LinkFaults::loss(0.20),
    ));
    sys.load_directly(compiled.objects.clone(), media);
    let mut session = CodSession::open(&mut sys, ClientId(0), compiled.root, name).unwrap();
    session.start().unwrap();
    session.auto_play(SimDuration::from_secs(10)).unwrap();
    session.finish();
    let root = session.root_span();
    drop(session);
    println!("-- waterfall (offset, duration, span) --");
    print!("{}", sys.tracer.waterfall(root));
    println!("-- profile (self-time fold of the span tree) --");
    print!("{}", mits_sim::profile_tracer(&sys.tracer).render_top(10));
    println!("-- metrics --");
    print!("{}", sys.metrics.to_text());
}

/// E-REUSE: the content-storage ablation.
fn e_reuse() {
    header(
        "E-REUSE",
        "separate content + reuse vs embedded content (2 sessions, shared media)",
    );
    let (compiled, media, name) = reuse_course(58);
    let reports = reuse_ablation(
        &compiled.objects,
        &media,
        compiled.root,
        name,
        LinkProfile::atm_oc3(),
        2,
    )
    .unwrap();
    println!(
        "{:<34} {:>14} {:>14}",
        "policy", "bytes to user", "fetch time"
    );
    let baseline = reports[0].bytes.max(1);
    for r in &reports {
        println!(
            "{:<34} {:>14} {:>14}   ({:.2}x)",
            r.policy.name(),
            r.bytes,
            r.fetch_time.to_string(),
            r.bytes as f64 / baseline as f64
        );
    }
}

/// Seed-tree throughput of the 200 KB fetch microbench (KB/s), measured
/// with `fetch_microbench` below on the pre-zero-copy code at the same
/// commit this experiment was introduced. Kept as the "before" figure in
/// `BENCH_campus.json` so the speedup is visible without rebuilding the
/// old tree.
const FETCH200K_KBPS_SEED: f64 = 27_104.7;

/// A campus courseware: one tiny scenario closure plus `clips` MPEG
/// objects of `clip_bytes` each — the "content objects of large size"
/// (§3.4.2) that dominate the wire.
fn campus_workload(clips: usize, clip_bytes: usize) -> CampusWorkload {
    use mits_mheg::{ClassLibrary, GenericValue};
    let mut lib = ClassLibrary::new(1);
    let v = lib.value_content("v", GenericValue::Int(1));
    let root = lib.container("Course", vec![v]);
    let media = (0..clips)
        .map(|i| {
            let data: Vec<u8> = (0..clip_bytes)
                .map(|j| ((i * 31 + j * 7) % 251) as u8)
                .collect();
            MediaObject::new(
                MediaId(1000 + i as u64),
                format!("clip{i}.mpg"),
                MediaFormat::Mpeg,
                SimDuration::from_secs(1),
                VideoDims::new(320, 240),
                Bytes::from(data),
            )
        })
        .collect();
    CampusWorkload {
        objects: lib.into_objects(),
        media,
        root,
    }
}

/// Repeated host timings: the median, which the `check.sh` gates
/// compare, and the spread.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut xs: Vec<f64>) -> Spread {
        xs.sort_by(f64::total_cmp);
        Spread {
            median: xs[xs.len() / 2],
            min: xs[0],
            max: xs[xs.len() - 1],
        }
    }
}

/// Timed windows per fetch microbench: one ~200 ms window swung by up to
/// 40% on a shared host, so the median of several is what gets compared.
const FETCH_WINDOWS: usize = 5;

/// Timed legs per thread count of the campus experiment: on a shared
/// 2-vCPU host three single legs of 10,000 students read 7,187, 11,010
/// and 11,020 students/s, so the median of several is what gets
/// compared. Odd, so the median leg's rate is the median rate.
const CAMPUS_LEGS: usize = 5;

/// Wall-clock throughput of single-seat 200 KB media fetches through the
/// full client → ATM → server → ATM → client stack, in KB/s per window.
///
/// One round of 31 timed fetches takes only a few milliseconds, so each
/// window repeats rounds until ~200 ms of fetching has been timed, as
/// [`stage_mbps`] does. Each round fetches from a fresh installation
/// (built untimed, so its client cache starts cold).
fn fetch_microbench() -> Spread {
    let w = campus_workload(32, 200 * 1024);
    let windows: Vec<f64> = (0..FETCH_WINDOWS)
        .map(|_| {
            let mut timed = std::time::Duration::ZERO;
            let mut total = 0usize;
            while timed < std::time::Duration::from_millis(200) {
                let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
                sys.load_shared(&w.objects, &w.media);
                // Warmup fetch excluded from timing (first fetch pays
                // setup costs).
                let _ = sys.fetch_content(ClientId(0), MediaId(1000)).unwrap();
                let t0 = std::time::Instant::now();
                for i in 1..32u64 {
                    let (m, _) = sys.fetch_content(ClientId(0), MediaId(1000 + i)).unwrap();
                    total += m.data.len();
                }
                timed += t0.elapsed();
            }
            total as f64 / 1024.0 / timed.as_secs_f64()
        })
        .collect();
    Spread::of(windows)
}

/// Wall-clock throughput of `f` in MB/s: warm up once, then repeat for
/// ~200 ms of wall time.
fn stage_mbps(bytes_per_iter: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = std::time::Instant::now();
    let mut iters = 0usize;
    while t0.elapsed() < std::time::Duration::from_millis(200) {
        f();
        iters += 1;
    }
    (bytes_per_iter * iters) as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// How the network stage's 200 KB PDU crosses host → switch → host.
#[derive(Clone, Copy)]
enum NetStage {
    /// Cell trains on both hops.
    Train,
    /// `force_per_cell`: every cell on its own.
    PerCell,
    /// A train on the first hop streaming across a second hop whose
    /// `LinkFaults::loss(1e-12)` keeps it off the train path but loses
    /// nothing.
    Lossy,
}

/// Throughput of a 200 KB PDU crossing host → switch → host on OC-3,
/// in MB/s, in the given mode, and the timer events one crossing
/// handles per cell (a count: the same on every run).
fn net_stage(stage: NetStage) -> (f64, f64) {
    use mits_atm::{aal5, AtmNetwork, FaultPlan, LinkFaults, ServiceClass};
    const BYTES: usize = 200 * 1024;
    let payload = Bytes::from(vec![7u8; BYTES]);
    let mut scratch = mits_atm::NetScratch::default();
    let mut events_per_cell = 0.0;
    let mbps = stage_mbps(BYTES, || {
        let mut net = AtmNetwork::with_scratch(1, std::mem::take(&mut scratch));
        let a = net.add_host("A");
        let s = net.add_switch("S");
        let b = net.add_host("B");
        net.connect(a, s, LinkProfile::atm_oc3());
        net.connect(s, b, LinkProfile::atm_oc3());
        match stage {
            NetStage::Train => {}
            NetStage::PerCell => net.force_per_cell(),
            NetStage::Lossy => {
                net.set_fault_plan(FaultPlan::none().with_link(s, b, LinkFaults::loss(1e-12)))
            }
        }
        let vc = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
        net.send(vc, std::slice::from_ref(&payload)).unwrap();
        let d = net.drain(SimTime::from_secs(60));
        assert_eq!(d.len(), 1, "200 KB PDU must cross");
        events_per_cell = net.timer_events() as f64 / aal5::cells_for(BYTES) as f64;
        scratch = net.into_scratch();
    });
    (mbps, events_per_cell)
}

/// MEDIA: per-stage throughput of the media path — the CRC kernels, AAL5
/// segmentation/reassembly, the cell-train network fast path against the
/// per-cell scheduler, and the end-to-end 200 KB fetch. Writes
/// `BENCH_media.json` so `check.sh` can validate the stage names the
/// flame profiler attributes time to.
fn media(opts: &Options) {
    use mits_atm::aal5;
    header("MEDIA", "media-path stage throughput");
    let out = opts.out.as_deref().unwrap_or("BENCH_media.json");
    let buf: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
    let crc_slice16 = stage_mbps(buf.len(), || {
        std::hint::black_box(aal5::crc32_slice16(std::hint::black_box(&buf)));
    });
    // The dispatching entry point: the SIMD path when the host supports
    // it (and its self-check passed), slice-by-16 otherwise.
    let crc_dispatch = stage_mbps(buf.len(), || {
        std::hint::black_box(aal5::crc32(std::hint::black_box(&buf)));
    });
    // The gather run image a 200 KB PDU rides as: segmenting is a CRC
    // across its parts (no copy), reassembling the checking pass.
    let payload = Bytes::from(vec![3u8; 200 * 1024]);
    let segment = stage_mbps(payload.len(), || {
        std::hint::black_box(aal5::segment_run(std::slice::from_ref(&payload)));
    });
    let reassemble = {
        let run = aal5::segment_run(std::slice::from_ref(&payload));
        stage_mbps(payload.len(), || {
            std::hint::black_box(aal5::reassemble_run(run.clone()).unwrap());
        })
    };
    let (net_train, _) = net_stage(NetStage::Train);
    let (net_per_cell, _) = net_stage(NetStage::PerCell);
    let (net_lossy, lossy_events_per_cell) = net_stage(NetStage::Lossy);
    let fetch = fetch_microbench();
    let json = format!(
        "{{\n  \"experiment\": \"media\",\n  \"crc_hw_accelerated\": {},\n  \"crc_slice16_mbps\": {:.1},\n  \"crc_dispatch_mbps\": {:.1},\n  \"segment_mbps\": {:.1},\n  \"reassemble_mbps\": {:.1},\n  \"net_train_mbps\": {:.1},\n  \"net_per_cell_mbps\": {:.1},\n  \"train_speedup\": {:.2},\n  \"net_lossy_mbps\": {:.1},\n  \"lossy_speedup\": {:.2},\n  \"lossy_events_per_cell\": {:.3},\n  \"fetch200k_kbps\": {:.1},\n  \"fetch200k_kbps_min\": {:.1},\n  \"fetch200k_kbps_max\": {:.1}\n}}\n",
        aal5::crc32_is_hw_accelerated(),
        crc_slice16,
        crc_dispatch,
        segment,
        reassemble,
        net_train,
        net_per_cell,
        net_train / net_per_cell.max(1e-9),
        net_lossy,
        net_lossy / net_per_cell.max(1e-9),
        lossy_events_per_cell,
        fetch.median,
        fetch.min,
        fetch.max,
    );
    std::fs::write(out, &json).expect("write BENCH_media.json");
    print!("{json}");
    println!("wrote {out}");
}

/// Resident-set high-water mark of this process, in MB (0.0 when
/// `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn campus(opts: &Options) {
    header(
        "CAMPUS",
        "memory-bounded campus: streaming session lifecycle over in-order batch claims",
    );
    let cores = host_cores();
    let students = opts.students.unwrap_or(10_000);
    // On a single-core host the parallel leg still runs 2 threads so the
    // determinism claim ("1 vs N") is exercised for real.
    let threads = opts.threads.unwrap_or(cores.max(2));
    let clips = opts.clips;
    let clip_bytes = opts.clip_bytes.unwrap_or(64 * 1024);
    // The flight-recorder ring never reaches the digest, so its cap is
    // safe to vary per run.
    let flight_ring = opts.flight_ring;
    let out = opts.out.as_deref().unwrap_or("BENCH_campus.json");

    let fetch = fetch_microbench();
    println!(
        "200KB fetch:  {FETCH200K_KBPS_SEED:.1} KB/s seed -> {:.1} KB/s now, median of \
         {FETCH_WINDOWS} windows [{:.1}, {:.1}] ({:.2}x)",
        fetch.median,
        fetch.min,
        fetch.max,
        fetch.median / FETCH200K_KBPS_SEED
    );

    let workload = campus_workload(clips, clip_bytes);
    let run_leg = |threads: usize| {
        Campus::new(students, SEED)
            .threads(threads)
            .flight_ring(flight_ring)
            .workload(workload.clone())
            .run()
            .unwrap()
    };
    // Legs alternate between 1 and N threads, so a slow phase of the
    // host lands on both; every leg must reproduce the first.
    let serial = run_leg(1);
    let serial_metrics = serial.metrics.to_json();
    let (mut digest_match, mut metrics_match) = (true, true);
    let mut walls = (vec![serial.wall_secs], Vec::new());
    let mut parallel = None;
    for leg in 1..2 * CAMPUS_LEGS {
        let serial_leg = leg % 2 == 0;
        let r = run_leg(if serial_leg { 1 } else { threads });
        digest_match &= r.digest == serial.digest;
        metrics_match &= r.metrics.to_json() == serial_metrics;
        if serial_leg {
            walls.0.push(r.wall_secs);
        } else {
            walls.1.push(r.wall_secs);
            parallel = Some(r);
        }
    }
    let parallel = parallel.expect("at least one N-thread leg");
    let (wall_1, wall_n) = (Spread::of(walls.0), Spread::of(walls.1));
    let speedup = wall_1.median / wall_n.median.max(1e-9);
    let per_sec = |x: f64, wall: f64| x / wall.max(1e-9);
    let students_f = students as f64;
    let json = format!(
        "{{\n  \"experiment\": \"campus\",\n  \"students\": {},\n  \"threads\": {},\n  \"host_cores\": {},\n  \"peak_rss_mb\": {:.1},\n  \"base_seed\": 42,\n  \"clips_per_student\": {},\n  \"clip_bytes\": {},\n  \"digest\": \"0x{:016x}\",\n  \"digest_match_1_vs_n_threads\": {},\n  \"metrics_match_1_vs_n_threads\": {},\n  \"traces_sampled\": {},\n  \"slo_breaches\": {},\n  \"bytes_simulated\": {},\n  \"wall_secs_1_thread\": {:.4},\n  \"wall_secs_n_threads\": {:.4},\n  \"speedup_n_over_1\": {:.3},\n  \"students_per_sec\": {:.2},\n  \"students_per_sec_min\": {:.2},\n  \"students_per_sec_max\": {:.2},\n  \"bytes_per_sec\": {:.1},\n  \"session_ms_p50\": {:.3},\n  \"session_ms_p99\": {:.3},\n  \"shard_wall_ms_p50\": {:.3},\n  \"shard_wall_ms_p99\": {:.3},\n  \"fetch200k_kbps_seed\": {:.1},\n  \"fetch200k_kbps_now\": {:.1},\n  \"fetch200k_kbps_min\": {:.1},\n  \"fetch200k_kbps_max\": {:.1},\n  \"fetch200k_speedup\": {:.2}\n}}\n",
        parallel.students,
        parallel.threads,
        cores,
        peak_rss_mb(),
        clips,
        clip_bytes,
        parallel.digest,
        digest_match,
        metrics_match,
        parallel.traces.len(),
        parallel.slo.breaches(),
        parallel.bytes,
        wall_1.median,
        wall_n.median,
        speedup,
        per_sec(students_f, wall_n.median),
        per_sec(students_f, wall_n.max),
        per_sec(students_f, wall_n.min),
        per_sec(parallel.bytes as f64, wall_n.median),
        parallel.session_percentile(0.50) * 1e3,
        parallel.session_percentile(0.99) * 1e3,
        parallel.wall_percentile(0.50) * 1e3,
        parallel.wall_percentile(0.99) * 1e3,
        FETCH200K_KBPS_SEED,
        fetch.median,
        fetch.min,
        fetch.max,
        fetch.median / FETCH200K_KBPS_SEED
    );
    std::fs::write(out, json).expect("write campus bench json");
    assert!(
        digest_match,
        "campus digest must not depend on thread count"
    );
    assert!(
        metrics_match,
        "merged metrics rollup must not depend on thread count"
    );

    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>10}",
        "run", "threads", "wall", "students/s", "MB/s"
    );
    for (n, wall) in [(1, &wall_1), (parallel.threads, &wall_n)] {
        println!(
            "{:<22} {:>10} {:>10.3}s {:>12.1} {:>10.1}  students/s [{:.1}, {:.1}]",
            format!("{students} students"),
            n,
            wall.median,
            per_sec(students_f, wall.median),
            per_sec(parallel.bytes as f64, wall.median) / (1024.0 * 1024.0),
            per_sec(students_f, wall.max),
            per_sec(students_f, wall.min),
        );
    }
    println!(
        "digest 0x{:016x} identical on 1 and {} threads over {CAMPUS_LEGS} legs each; \
         {speedup:.2}x on {} core(s) (median walls); peak RSS {:.1} MB",
        parallel.digest,
        parallel.threads,
        cores,
        peak_rss_mb()
    );
    println!("wrote {out}");
}

/// SLO: run a small campus, judge the merged metrics rollup against the
/// default objectives, and emit the machine-readable verdicts. Opt-in
/// (`--exp slo`). The last stdout line is the verdict JSON; `--out`
/// also writes it to a file for CI parsing.
fn slo(opts: &Options) {
    header(
        "SLO",
        "campus objectives judged on the merged metrics rollup",
    );
    let workload = campus_workload(opts.clips, opts.clip_bytes.unwrap_or(64 * 1024));
    let report = Campus::new(opts.students.unwrap_or(16), SEED)
        .threads(opts.threads.unwrap_or(4))
        .flight_ring(opts.flight_ring)
        .workload(workload)
        .run()
        .unwrap();
    println!(
        "{:<22} {:>12} {:>10} {:>10}  verdict",
        "objective", "observed", "warn", "breach"
    );
    for o in &report.slo.outcomes {
        println!(
            "{:<22} {:>12.6} {:>10.3} {:>10.3}  {}",
            o.name,
            o.observed,
            o.warn,
            o.breach,
            o.verdict.as_str()
        );
    }
    println!(
        "traces sampled: {} of {} students ({} anomalous)",
        report.traces.len(),
        report.students,
        report.sessions_anomalous
    );
    let json = report.slo.to_json();
    if let Some(out) = &opts.out {
        std::fs::write(out, format!("{json}\n")).expect("write slo json");
        println!("wrote {out}");
    }
    println!("{json}");
}

/// The seeded fault-storm campaign that `shards`, `forensics` and
/// `replay` share: one courseware per shard, a storm that crashes the
/// victim shard's primary and replica mid-session behind a shard-wide
/// link outage, and the campus that runs it.
struct StormCampaign {
    students: usize,
    threads: usize,
    flight_ring: usize,
    workloads: Vec<CampusWorkload>,
    storm: FaultStorm,
    /// Sessions on the victim shard. Every session is keyed to
    /// `workloads[student % shards]`, so the storm's failure budget is
    /// exactly this residue class's share.
    on_victim: usize,
}

impl StormCampaign {
    fn new(opts: &Options) -> Self {
        let students = opts.students.unwrap_or(9);
        StormCampaign {
            students,
            threads: opts.threads.unwrap_or(2),
            flight_ring: opts.flight_ring,
            workloads: sharded_workloads(
                opts.shards,
                opts.clips,
                opts.clip_bytes.unwrap_or(300_000),
            ),
            storm: FaultStorm::new(
                opts.shards,
                opts.victim,
                SimTime::from_millis(2),
                SimTime::from_secs(120),
            ),
            on_victim: (0..students)
                .filter(|s| s % opts.shards == opts.victim)
                .count(),
        }
    }

    /// The storm campus on `threads` workers, or its storm-free twin
    /// when `stormy` is false. A stormy campus declares its fault
    /// schedule, so its forensic bundles can name the injected fault.
    fn campus(&self, threads: usize, stormy: bool) -> Campus {
        let storm = self.storm.clone();
        let campus = Campus::new(self.students, SEED)
            .threads(threads)
            .flight_ring(self.flight_ring)
            .workloads(self.workloads.clone())
            .slos(fault_storm_slos(
                self.on_victim as f64 / self.students as f64,
            ))
            .configure_sessions(move |_, base| {
                if stormy {
                    storm.apply(base)
                } else {
                    storm.apply_calm(base)
                }
            });
        if stormy {
            campus.fault_schedule(self.storm.schedule())
        } else {
            campus
        }
    }
}

/// SHARDS: the partitioned store's survival gate. Runs a seeded fault
/// storm (victim shard's primary + replica crash mid-session behind a
/// shard-wide link outage) against its storm-free twin and checks the
/// blast radius — only victim-keyed sessions degrade, healthy sessions
/// stay byte-identical — plus seed determinism and the storm SLOs.
/// Then measures a hot-document flash crowd with and without the
/// campus-edge cache to bound origin load. Opt-in (`--exp shards`);
/// writes `BENCH_shards.json` (or `--out`).
fn shards(opts: &Options) {
    header(
        "SHARDS",
        "partitioned store: fault-storm blast radius + edge-cached flash crowd",
    );
    let (shards, victim, flash_clients) = (opts.shards, opts.victim, opts.flash_clients);
    let out = opts.out.as_deref().unwrap_or("BENCH_shards.json");
    let campaign = StormCampaign::new(opts);
    let (students, on_victim) = (campaign.students, campaign.on_victim);

    /// Per-session outcomes in student order plus the rollup verdicts.
    #[derive(Default)]
    struct StormSink {
        outcomes: Vec<(usize, u64, bool)>,
        breaches: usize,
        digest: u64,
        metrics_json: String,
        slo_json: String,
    }
    impl ReportSink for StormSink {
        fn session(&mut self, r: &SessionReport) {
            self.outcomes
                .push((r.student, r.digest, r.failed || r.anomalous));
        }
        fn rollup(&mut self, rollup: &CampusRollup) {
            self.breaches = rollup.slo.breaches();
            self.digest = rollup.digest;
            self.metrics_json = rollup.metrics.to_json();
            self.slo_json = rollup.slo.to_json();
        }
    }

    let run = |stormy: bool| {
        let mut sink = StormSink::default();
        campaign
            .campus(campaign.threads, stormy)
            .run_with(&mut sink)
            .unwrap();
        sink
    };
    let hit = run(true);
    let replay = run(true);
    let twin = run(false);

    let mut degraded_on_victim = 0usize;
    let mut healthy_clean = true;
    let mut healthy_digest_match = true;
    for (&(s, d, bad), &(_, td, _)) in hit.outcomes.iter().zip(&twin.outcomes) {
        if s % shards == victim {
            degraded_on_victim += usize::from(bad);
        } else {
            healthy_clean &= !bad;
            healthy_digest_match &= d == td;
        }
    }
    let storm_deterministic =
        hit.digest == replay.digest && hit.metrics_json == replay.metrics_json;
    let slo_breaches = hit.breaches + twin.breaches;

    println!(
        "storm seed {SEED}: {degraded_on_victim}/{on_victim} victim sessions degraded; \
         healthy clean {healthy_clean}, digests match twin {healthy_digest_match}, \
         deterministic {storm_deterministic}, SLO breaches {slo_breaches}"
    );
    println!("{}", hit.slo_json);

    // The flash crowd: every client fetches the same hot clip. With the
    // edge tier the origin serves it once; without, every client pays.
    let flash = |edge_bytes: usize| {
        let cfg = SystemConfig::broadband(flash_clients)
            .with_shards(shards)
            .with_edge_cache(edge_bytes);
        let mut sys = MitsSystem::build(&cfg).unwrap();
        for w in &campaign.workloads {
            sys.load_doc(&w.objects, &w.media, w.root);
        }
        let hot = campaign.workloads[0].media[0].id;
        for c in 0..flash_clients {
            sys.fetch_content(ClientId(c), hot).unwrap();
        }
        sys
    };
    let warm = flash(4 << 20);
    let cold = flash(0);
    let edge = warm.edge_cache().expect("edge tier configured");
    let cache_hit_rate = edge.hits as f64 / edge.lookups().max(1) as f64;
    let origin_bound_ok = edge.origin_requests <= edge.misses + edge.invalidations;
    println!(
        "flash crowd of {flash_clients}: origin {} -> {} requests with the edge \
         ({:.1}% hit rate; bound origin <= misses + invalidations: {origin_bound_ok})",
        cold.requests_sent,
        edge.origin_requests,
        cache_hit_rate * 100.0
    );

    let json = format!(
        "{{\n  \"experiment\": \"shards\",\n  \"shards\": {shards},\n  \"victim_shard\": {victim},\n  \"students\": {students},\n  \"sessions_on_victim\": {on_victim},\n  \"degraded_on_victim\": {degraded_on_victim},\n  \"healthy_clean\": {healthy_clean},\n  \"healthy_digest_match\": {healthy_digest_match},\n  \"storm_deterministic\": {storm_deterministic},\n  \"slo_breaches\": {slo_breaches},\n  \"flash_clients\": {flash_clients},\n  \"origin_no_cache\": {},\n  \"origin_with_cache\": {},\n  \"cache_hit_rate\": {cache_hit_rate:.4},\n  \"origin_bound_ok\": {origin_bound_ok},\n  \"edge_hits\": {},\n  \"edge_misses\": {},\n  \"edge_invalidations\": {}\n}}\n",
        cold.requests_sent,
        edge.origin_requests,
        edge.hits,
        edge.misses,
        edge.invalidations
    );
    std::fs::write(out, json).expect("write shards bench json");
    println!("wrote {out}");
}

/// FORENSICS: the flight-recorder + breach-forensics gate. Replays the
/// seeded fault storm with its schedule declared to the campus, checks
/// that the campaign auto-produces incident bundles whose causal chain
/// names the injected fault, that bundles and timeline are byte-
/// identical across thread counts, that every exemplar a bundle cites
/// resolves to a sampled trace, and that the calm twin produces zero
/// bundles. Opt-in (`--exp forensics`); writes `BENCH_forensics.json`
/// (or `--out`).
fn forensics(opts: &Options) {
    header(
        "FORENSICS",
        "flight recorder + breach forensics: storm campaign incident bundles",
    );
    let (shards, victim) = (opts.shards, opts.victim);
    let out = opts.out.as_deref().unwrap_or("BENCH_forensics.json");
    let campaign = StormCampaign::new(opts);
    let students = campaign.students;

    let run = |threads: usize, stormy: bool| campaign.campus(threads, stormy).run().unwrap();
    let hit = run(campaign.threads, true);
    let serial = run(1, true);
    let calm = run(campaign.threads, false);

    let bundles_json = hit.forensics_json();
    let timeline_json = hit.timeline_json();
    let forensics_match =
        bundles_json == serial.forensics_json() && timeline_json == serial.timeline_json();
    let chain_names_victim = !hit.forensics.is_empty()
        && hit.forensics.iter().all(|b| {
            b.chain
                .first()
                .is_some_and(|l| l.stage == "fault" && l.label.contains(&format!("shard{victim}")))
        });
    // Every exemplar a bundle cites must resolve to a sampled trace
    // (anomalous sessions are tail-sampled, so this closes the loop
    // from histogram bucket to concrete span tree).
    let sampled: Vec<u64> = hit.traces.iter().map(|t| t.student as u64).collect();
    let exemplars_resolvable = hit
        .forensics
        .iter()
        .flat_map(|b| &b.exemplars)
        .all(|e| sampled.contains(&e.trace_id));

    print!(
        "{}",
        mits_sim::forensics::render_report(&hit.timeline, &hit.forensics)
    );
    println!(
        "storm bundles {} (calm twin {}); chain names victim: {chain_names_victim}; \
         exemplar traces resolvable: {exemplars_resolvable}; \
         1-vs-2-thread bundles identical: {forensics_match}",
        hit.forensics.len(),
        calm.forensics.len(),
    );

    let json = format!(
        "{{\n  \"experiment\": \"forensics\",\n  \"shards\": {shards},\n  \"victim_shard\": {victim},\n  \"students\": {students},\n  \"seed\": {SEED},\n  \"storm_bundles\": {},\n  \"calm_bundles\": {},\n  \"forensics_match_1_vs_n_threads\": {forensics_match},\n  \"chain_names_victim\": {chain_names_victim},\n  \"exemplar_trace_resolvable\": {exemplars_resolvable},\n  \"timeline\": {timeline_json},\n  \"bundles\": {bundles_json}\n}}\n",
        hit.forensics.len(),
        calm.forensics.len(),
    );
    std::fs::write(out, json).expect("write forensics bench json");
    println!("wrote {out}");
}

/// Replay observatory: run the same fault-storm campaign as
/// `--exp forensics`, take the victim session's ready-to-run replay
/// handle from the incident bundle, and re-run that one session
/// standalone with instrumentation forced to maximum. Faithfulness is
/// the hard gate — the replayed digest must equal the campus digest
/// layer by layer — and the per-hop weathermap covers the victim's
/// route. Opt-in (`--exp replay`); writes `BENCH_replay.json` (or
/// `--out`).
fn replay(opts: &Options) {
    header(
        "REPLAY",
        "extract-and-replay the storm victim with max instrumentation",
    );
    let (shards, victim) = (opts.shards, opts.victim);
    let out = opts.out.as_deref().unwrap_or("BENCH_replay.json");
    let campaign = StormCampaign::new(opts);
    let students = campaign.students;
    let campus = campaign.campus(campaign.threads, true);

    // Run the storm campaign once; the session to replay comes from an
    // incident bundle's replay handle, closing the forensics loop.
    let report = campus.run().unwrap();
    let (student, handle_seed) = report
        .forensics
        .iter()
        .flat_map(|b| &b.replays)
        .next()
        .copied()
        .map(|(s, h)| (s as usize, h))
        .unwrap_or_else(|| {
            (
                (0..students)
                    .find(|s| s % shards == victim)
                    .unwrap_or(victim),
                0,
            )
        });

    let r = campus.replay(student).expect("replay the storm victim");
    let handle_agrees = handle_seed == 0 || handle_seed == r.bundle.seed;

    print!("{}", r.waterfall);
    print!("{}", r.profile_top);
    println!(
        "replayed student {student} (seed {:#018x}): digest_match {}, breach_reproduced {}, \
         handle agrees: {handle_agrees}, route hops {}",
        r.bundle.seed,
        r.digest_match,
        r.breach_reproduced,
        r.route.len(),
    );

    let route_json = r
        .route
        .iter()
        .map(|(from, to)| format!("{{\"from\":\"{from}\",\"to\":\"{to}\"}}"))
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\n  \"experiment\": \"replay\",\n  \"shards\": {shards},\n  \"victim_shard\": {victim},\n  \"students\": {students},\n  \"seed\": {SEED},\n  \"student\": {student},\n  \"session_seed\": {},\n  \"digest\": {},\n  \"digest_match\": {},\n  \"breach_reproduced\": {},\n  \"handle_agrees\": {handle_agrees},\n  \"bundle\": {},\n  \"route\": [{route_json}],\n  \"weathermap\": {}\n}}\n",
        r.bundle.seed,
        r.bundle.digest,
        r.digest_match,
        r.breach_reproduced,
        r.bundle.to_json(),
        r.weathermap,
    );
    std::fs::write(out, json).expect("write replay bench json");
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn every_flag_sets_its_option() {
        assert_eq!(parse("").unwrap(), Options::default());
        let o = parse(
            "--exp shards --students 6 --threads 2 --clips 3 --clip-bytes 100000 --shards 4 \
             --victim 3 --flight-ring 64 --flash-clients 7 --out x.json",
        );
        let want = Options {
            exp: Some("shards"),
            students: Some(6),
            threads: Some(2),
            clips: 3,
            clip_bytes: Some(100_000),
            shards: 4,
            victim: 3,
            flight_ring: 64,
            flash_clients: 7,
            out: Some("x.json".into()),
        };
        assert_eq!(o.unwrap(), want);
        for name in experiment_names() {
            assert_eq!(parse(&format!("--exp {name}")).unwrap().exp, Some(name));
        }
    }

    #[test]
    fn what_cannot_run_is_rejected() {
        for bad in [
            "--exp campsu",
            "--exp",
            "--studnets 6",
            "campus",
            "--students",
            "--students 10k",
            "--threads -1",
            "--clip-bytes 1e5",
            "--shards 1",
            "--victim 3",
            "--shards 2 --victim 2",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        // The shard checks run after every flag, so order does not matter.
        assert_eq!(parse("--victim 3 --shards 4").unwrap().victim, 3);
    }
}
