//! Regenerate every table and figure of the MITS evaluation
//! (`DESIGN.md` §4, recorded in `EXPERIMENTS.md`).
//!
//! Usage:
//!   cargo run -p mits-bench --bin tables            # all experiments
//!   cargo run -p mits-bench --bin tables -- --exp e_bb
//!   cargo run -p mits-bench --bin tables -- --exp campus   # scale run,
//!       writes BENCH_campus.json (override path with MITS_CAMPUS_OUT;
//!       size with MITS_CAMPUS_STUDENTS / MITS_CAMPUS_THREADS)
//!   cargo run -p mits-bench --bin tables -- --exp slo      # campus SLO
//!       verdicts (size with MITS_SLO_STUDENTS / MITS_SLO_THREADS;
//!       MITS_SLO_OUT writes the verdict JSON to a file)
//!   cargo run -p mits-bench --bin tables -- --exp shards   # fault-storm
//!       survival gate + edge-cached flash crowd, writes
//!       BENCH_shards.json (override with MITS_SHARDS_OUT; size with
//!       MITS_SHARDS / MITS_SHARDS_STUDENTS / MITS_SHARDS_VICTIM)
//!   cargo run -p mits-bench --bin tables -- --exp forensics # storm
//!       campaign incident bundles + timeline render, writes
//!       BENCH_forensics.json (override with MITS_FORENSICS_OUT; size
//!       with MITS_FORENSICS_STUDENTS / MITS_FORENSICS_SHARDS)
//!   cargo run -p mits-bench --bin tables -- --exp media     # media-path
//!       stage throughput (CRC kernels, AAL5, cell trains vs per-cell,
//!       end-to-end fetch), writes BENCH_media.json (override with
//!       MITS_MEDIA_OUT)

use bytes::Bytes;
use mits_atm::{FaultPlan, LinkFaults, LinkProfile};
use mits_author::compile_hyperdoc;
use mits_bench::{atm_course, one_of_each_class, reuse_course};
use mits_core::models::{compare_delivery_models, reuse_ablation};
use mits_core::stack::layer_breakdown;
use mits_core::stream::{profile_name, stream_audio_over, stream_video_over};
use mits_core::{
    host_cores, Campus, CampusReport, CampusRollup, CampusWorkload, ClientId, CodSession,
    MitsSystem, ReportSink, SessionReport, ShardTrace, SystemConfig,
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let filter = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let want = |name: &str| filter.as_deref().is_none_or(|f| f == name);

    if want("t5_1") {
        t5_1();
    }
    if want("f2_4") {
        f2_4();
    }
    if want("f2_6") {
        f2_6();
    }
    if want("f2_9") {
        f2_9();
    }
    if want("f3_2") {
        f3_2();
    }
    if want("f3_5") {
        f3_5();
    }
    if want("f4_3") {
        f4_3();
    }
    if want("f4_4") {
        f4_4();
    }
    if want("f5_x") {
        f5_x();
    }
    if want("e_bb") {
        e_bb();
    }
    if want("e_sidl") {
        e_sidl();
    }
    if want("e_model") {
        e_model();
    }
    if want("e_reuse") {
        e_reuse();
    }
    if want("obs") {
        obs();
    }
    // Scale experiments: opt-in only — campus reports host wall-clock
    // numbers, which would make the default (deterministic) output
    // machine-dependent, and slo runs a whole campus.
    if filter.as_deref() == Some("campus") {
        campus();
    }
    if filter.as_deref() == Some("slo") {
        slo();
    }
    if filter.as_deref() == Some("shards") {
        shards();
    }
    if filter.as_deref() == Some("forensics") {
        forensics();
    }
    if filter.as_deref() == Some("replay") {
        replay();
    }
    if filter.as_deref() == Some("media") {
        media();
    }
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

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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

/// Wall-clock throughput of single-seat 200 KB media fetches through the
/// full client → ATM → server → ATM → client stack. Returns KB/s.
///
/// One round of 31 timed fetches takes only a few milliseconds, so
/// rounds repeat until ~200 ms of fetching has been timed, as
/// [`stage_mbps`] does. Each round fetches from a fresh installation
/// (built untimed, so its client cache starts cold).
fn fetch_microbench() -> f64 {
    let w = campus_workload(32, 200 * 1024);
    let mut timed = std::time::Duration::ZERO;
    let mut total = 0usize;
    while timed < std::time::Duration::from_millis(200) {
        let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
        sys.load_shared(&w.objects, &w.media);
        // Warmup fetch excluded from timing (first fetch pays setup costs).
        let _ = sys.fetch_content(ClientId(0), MediaId(1000)).unwrap();
        let t0 = std::time::Instant::now();
        for i in 1..32u64 {
            let (m, _) = sys.fetch_content(ClientId(0), MediaId(1000 + i)).unwrap();
            total += m.data.len();
        }
        timed += t0.elapsed();
    }
    total as f64 / 1024.0 / timed.as_secs_f64()
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

/// Throughput of a 200 KB PDU crossing host → switch → host on OC-3,
/// with the cell-train fast path either engaged or forced off.
fn net_stage_mbps(per_cell: bool) -> f64 {
    use mits_atm::{AtmNetwork, ServiceClass};
    const BYTES: usize = 200 * 1024;
    let payload = Bytes::from(vec![7u8; BYTES]);
    let mut scratch = mits_atm::NetScratch::default();
    stage_mbps(BYTES, || {
        let mut net = AtmNetwork::with_scratch(1, std::mem::take(&mut scratch));
        if per_cell {
            net.force_per_cell();
        }
        let a = net.add_host("A");
        let s = net.add_switch("S");
        let b = net.add_host("B");
        net.connect(a, s, LinkProfile::atm_oc3());
        net.connect(s, b, LinkProfile::atm_oc3());
        let vc = net.open_vc(&[a, s, b], ServiceClass::Ubr, None).unwrap();
        net.send(vc, &[&payload]).unwrap();
        let d = net.drain(SimTime::from_secs(60));
        assert_eq!(d.len(), 1, "200 KB PDU must cross");
        scratch = net.into_scratch();
    })
}

/// MEDIA: per-stage throughput of the media path — the CRC kernels, AAL5
/// segmentation/reassembly, the cell-train network fast path against the
/// per-cell scheduler, and the end-to-end 200 KB fetch. Writes
/// `BENCH_media.json` so `check.sh` can validate the stage names the
/// flame profiler attributes time to.
fn media() {
    use mits_atm::aal5;
    header("MEDIA", "media-path stage throughput");
    let out = std::env::var("MITS_MEDIA_OUT").unwrap_or_else(|_| "BENCH_media.json".into());
    let buf: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
    let crc_slice8 = stage_mbps(buf.len(), || {
        std::hint::black_box(aal5::crc32_slice8(std::hint::black_box(&buf)));
    });
    let crc_slice16 = stage_mbps(buf.len(), || {
        std::hint::black_box(aal5::crc32_slice16(std::hint::black_box(&buf)));
    });
    // The dispatching entry point: the SIMD path when the host supports
    // it (and its self-check passed), slice-by-16 otherwise.
    let crc_dispatch = stage_mbps(buf.len(), || {
        std::hint::black_box(aal5::crc32(std::hint::black_box(&buf)));
    });
    let segment = {
        let payload = vec![3u8; 200 * 1024];
        let mut pool = Vec::new();
        stage_mbps(payload.len(), || {
            std::hint::black_box(aal5::segment_run_pooled(&[&payload], &mut pool));
        })
    };
    let reassemble = {
        let payload = vec![3u8; 200 * 1024];
        let run = aal5::segment_run(&payload);
        stage_mbps(payload.len(), || {
            std::hint::black_box(aal5::reassemble_run(&run.payload).unwrap());
        })
    };
    let net_train = net_stage_mbps(false);
    let net_per_cell = net_stage_mbps(true);
    let fetch_kbps = fetch_microbench();
    let json = format!(
        "{{\n  \"experiment\": \"media\",\n  \"crc_hw_accelerated\": {},\n  \"crc_slice8_mbps\": {:.1},\n  \"crc_slice16_mbps\": {:.1},\n  \"crc_dispatch_mbps\": {:.1},\n  \"segment_mbps\": {:.1},\n  \"reassemble_mbps\": {:.1},\n  \"net_train_mbps\": {:.1},\n  \"net_per_cell_mbps\": {:.1},\n  \"train_speedup\": {:.2},\n  \"fetch200k_kbps\": {:.1}\n}}\n",
        aal5::crc32_is_hw_accelerated(),
        crc_slice8,
        crc_slice16,
        crc_dispatch,
        segment,
        reassemble,
        net_train,
        net_per_cell,
        net_train / net_per_cell.max(1e-9),
        fetch_kbps,
    );
    std::fs::write(&out, &json).expect("write BENCH_media.json");
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

/// The bench's [`ReportSink`]: folds the streaming campus output into a
/// [`CampusReport`] and writes `BENCH_campus.json` from the rollup
/// callback — the JSON is produced by the stream, not plucked out of a
/// buffered report afterwards.
struct BenchJsonSink {
    report: CampusReport,
    out: String,
    clips: usize,
    clip_bytes: usize,
    serial: CampusReport,
    fetch_kbps: f64,
    host_cores: usize,
}

impl ReportSink for BenchJsonSink {
    fn session(&mut self, report: &SessionReport) {
        self.report.session(report);
    }

    fn trace(&mut self, trace: &ShardTrace) {
        self.report.trace(trace);
    }

    fn rollup(&mut self, rollup: &CampusRollup) {
        self.report.rollup(rollup);
        let speedup = self.serial.wall_secs / rollup.wall_secs.max(1e-9);
        let json = format!(
            "{{\n  \"experiment\": \"campus\",\n  \"students\": {},\n  \"threads\": {},\n  \"host_cores\": {},\n  \"max_concurrent\": {},\n  \"peak_rss_mb\": {:.1},\n  \"base_seed\": 42,\n  \"clips_per_student\": {},\n  \"clip_bytes\": {},\n  \"digest\": \"0x{:016x}\",\n  \"digest_match_1_vs_n_threads\": {},\n  \"metrics_match_1_vs_n_threads\": {},\n  \"traces_sampled\": {},\n  \"slo_breaches\": {},\n  \"bytes_simulated\": {},\n  \"wall_secs_1_thread\": {:.4},\n  \"wall_secs_n_threads\": {:.4},\n  \"speedup_n_over_1\": {:.3},\n  \"students_per_sec\": {:.2},\n  \"bytes_per_sec\": {:.1},\n  \"session_ms_p50\": {:.3},\n  \"session_ms_p99\": {:.3},\n  \"shard_wall_ms_p50\": {:.3},\n  \"shard_wall_ms_p99\": {:.3},\n  \"fetch200k_kbps_seed\": {:.1},\n  \"fetch200k_kbps_now\": {:.1},\n  \"fetch200k_speedup\": {:.2}\n}}\n",
            rollup.students,
            rollup.threads,
            self.host_cores,
            rollup.max_concurrent,
            peak_rss_mb(),
            self.clips,
            self.clip_bytes,
            rollup.digest,
            self.serial.digest == rollup.digest,
            self.serial.metrics.to_json() == rollup.metrics.to_json(),
            self.report.traces.len(),
            rollup.slo.breaches(),
            rollup.bytes,
            self.serial.wall_secs,
            rollup.wall_secs,
            speedup,
            rollup.students as f64 / rollup.wall_secs.max(1e-9),
            rollup.bytes as f64 / rollup.wall_secs.max(1e-9),
            self.report.session_percentile(0.50) * 1e3,
            self.report.session_percentile(0.99) * 1e3,
            self.report.wall_percentile(0.50) * 1e3,
            self.report.wall_percentile(0.99) * 1e3,
            FETCH200K_KBPS_SEED,
            self.fetch_kbps,
            self.fetch_kbps / FETCH200K_KBPS_SEED
        );
        std::fs::write(&self.out, json).expect("write campus bench json");
    }
}

fn campus() {
    header(
        "CAMPUS",
        "memory-bounded campus: streaming session lifecycle over work-stealing shards",
    );
    let cores = host_cores();
    let students = env_usize("MITS_CAMPUS_STUDENTS", 10_000);
    // On a single-core host the parallel leg still runs 2 threads so the
    // determinism claim ("1 vs N") is exercised for real.
    let threads = env_usize("MITS_CAMPUS_THREADS", cores.max(2));
    let clips = env_usize("MITS_CAMPUS_CLIPS", 2);
    let clip_bytes = env_usize("MITS_CAMPUS_CLIP_BYTES", 64 * 1024);
    let max_concurrent = env_usize("MITS_CAMPUS_MAX_CONCURRENT", 0);
    // Flight-recorder ring cap; 0 keeps the library default. The ring
    // never reaches the digest, so this is safe to vary per run.
    let flight_ring = env_usize("MITS_FLIGHT_RING", 0);
    let out = std::env::var("MITS_CAMPUS_OUT").unwrap_or_else(|_| "BENCH_campus.json".into());

    let fetch_kbps = fetch_microbench();
    println!(
        "200KB fetch:  {FETCH200K_KBPS_SEED:.1} KB/s seed -> {:.1} KB/s now ({:.2}x)",
        fetch_kbps,
        fetch_kbps / FETCH200K_KBPS_SEED
    );

    let workload = campus_workload(clips, clip_bytes);
    let serial = Campus::new(students, 42)
        .threads(1)
        .max_concurrent(max_concurrent)
        .flight_ring(flight_ring)
        .workload(workload.clone())
        .run()
        .unwrap();
    let mut sink = BenchJsonSink {
        report: CampusReport::new(),
        out: out.clone(),
        clips,
        clip_bytes,
        serial,
        fetch_kbps,
        host_cores: cores,
    };
    Campus::new(students, 42)
        .threads(threads)
        .max_concurrent(max_concurrent)
        .flight_ring(flight_ring)
        .workload(workload)
        .run_with(&mut sink)
        .unwrap();
    let (serial, parallel) = (&sink.serial, &sink.report);
    assert_eq!(
        serial.digest, parallel.digest,
        "campus digest must not depend on thread count"
    );
    assert_eq!(
        serial.metrics.to_json(),
        parallel.metrics.to_json(),
        "merged metrics rollup must not depend on thread count"
    );

    let speedup = serial.wall_secs / parallel.wall_secs.max(1e-9);
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>10}",
        "run", "threads", "wall", "students/s", "MB/s"
    );
    for r in [serial, parallel] {
        println!(
            "{:<22} {:>10} {:>10.3}s {:>12.1} {:>10.1}",
            format!("{} students", r.students),
            r.threads,
            r.wall_secs,
            r.students_per_sec(),
            r.bytes_per_sec() / (1024.0 * 1024.0)
        );
    }
    println!(
        "digest 0x{:016x} identical on 1 and {} threads; {speedup:.2}x on {} core(s); \
         window {}; peak RSS {:.1} MB",
        parallel.digest,
        parallel.threads,
        cores,
        parallel.max_concurrent,
        peak_rss_mb()
    );
    println!("wrote {out}");
}

/// SLO: run a small campus, judge the merged metrics rollup against the
/// default objectives, and emit the machine-readable verdicts. Opt-in
/// (`--exp slo`). The last stdout line is the verdict JSON; set
/// `MITS_SLO_OUT` to also write it to a file for CI parsing.
fn slo() {
    header(
        "SLO",
        "campus objectives judged on the merged metrics rollup",
    );
    let students = env_usize("MITS_SLO_STUDENTS", 16);
    let threads = env_usize("MITS_SLO_THREADS", 4);
    let clips = env_usize("MITS_SLO_CLIPS", 2);
    let workload = campus_workload(clips, 64 * 1024);
    let report = Campus::new(students, 42)
        .threads(threads)
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
    if let Ok(out) = std::env::var("MITS_SLO_OUT") {
        std::fs::write(&out, format!("{json}\n")).expect("write slo json");
        println!("wrote {out}");
    }
    println!("{json}");
}

/// SHARDS: the partitioned store's survival gate. Runs a seeded fault
/// storm (victim shard's primary + replica crash mid-session behind a
/// shard-wide link outage) against its storm-free twin and checks the
/// blast radius — only victim-keyed sessions degrade, healthy sessions
/// stay byte-identical — plus seed determinism and the storm SLOs.
/// Then measures a hot-document flash crowd with and without the
/// campus-edge cache to bound origin load. Opt-in (`--exp shards`);
/// writes `BENCH_shards.json` (override with `MITS_SHARDS_OUT`).
fn shards() {
    use mits_core::{fault_storm_slos, sharded_workloads, FaultStorm};

    header(
        "SHARDS",
        "partitioned store: fault-storm blast radius + edge-cached flash crowd",
    );
    let shards = env_usize("MITS_SHARDS", 3).max(2);
    let students = env_usize("MITS_SHARDS_STUDENTS", 9);
    let victim = env_usize("MITS_SHARDS_VICTIM", 1) % shards;
    let clip_bytes = env_usize("MITS_SHARDS_CLIP_BYTES", 300_000);
    let flash_clients = env_usize("MITS_SHARDS_FLASH_CLIENTS", 8);
    let seed = env_usize("MITS_SHARDS_SEED", 42) as u64;
    let out = std::env::var("MITS_SHARDS_OUT").unwrap_or_else(|_| "BENCH_shards.json".into());

    let workloads = sharded_workloads(shards, 2, clip_bytes);
    let storm = FaultStorm::new(
        shards,
        victim,
        SimTime::from_millis(2),
        SimTime::from_secs(120),
    );
    // Every session is keyed to workloads[student % shards]; the storm's
    // failure budget is exactly the victim residue class's share.
    let on_victim = (0..students).filter(|s| s % shards == victim).count();

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

    let run = |seed: u64, stormy: bool| {
        let s = storm.clone();
        let mut sink = StormSink::default();
        Campus::new(students, seed)
            .threads(2)
            .workloads(workloads.clone())
            .slos(fault_storm_slos(on_victim as f64 / students as f64))
            .configure_sessions(move |_, base| {
                if stormy {
                    s.apply(base)
                } else {
                    s.apply_calm(base)
                }
            })
            .run_with(&mut sink)
            .unwrap();
        sink
    };
    let hit = run(seed, true);
    let replay = run(seed, true);
    let twin = run(seed, false);

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
        "storm seed {seed}: {degraded_on_victim}/{on_victim} victim sessions degraded; \
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
        for w in &workloads {
            sys.load_doc(&w.objects, &w.media, w.root);
        }
        let hot = workloads[0].media[0].id;
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
    std::fs::write(&out, json).expect("write shards bench json");
    println!("wrote {out}");
}

/// FORENSICS: the flight-recorder + breach-forensics gate. Replays the
/// seeded fault storm with its schedule declared to the campus, checks
/// that the campaign auto-produces incident bundles whose causal chain
/// names the injected fault, that bundles and timeline are byte-
/// identical across thread counts, that every exemplar a bundle cites
/// resolves to a sampled trace, and that the calm twin produces zero
/// bundles. Opt-in (`--exp forensics`); writes `BENCH_forensics.json`
/// (override with `MITS_FORENSICS_OUT`).
fn forensics() {
    use mits_core::{fault_storm_slos, sharded_workloads, FaultStorm};

    header(
        "FORENSICS",
        "flight recorder + breach forensics: storm campaign incident bundles",
    );
    let shards = env_usize("MITS_FORENSICS_SHARDS", 3).max(2);
    let students = env_usize("MITS_FORENSICS_STUDENTS", 9);
    let victim = env_usize("MITS_FORENSICS_VICTIM", 1) % shards;
    let clip_bytes = env_usize("MITS_FORENSICS_CLIP_BYTES", 300_000);
    let seed = env_usize("MITS_FORENSICS_SEED", 42) as u64;
    let out = std::env::var("MITS_FORENSICS_OUT").unwrap_or_else(|_| "BENCH_forensics.json".into());

    let workloads = sharded_workloads(shards, 2, clip_bytes);
    let storm = FaultStorm::new(
        shards,
        victim,
        SimTime::from_millis(2),
        SimTime::from_secs(120),
    );
    let on_victim = (0..students).filter(|s| s % shards == victim).count();

    let run = |threads: usize, stormy: bool| {
        let s = storm.clone();
        let mut c = Campus::new(students, seed)
            .threads(threads)
            .workloads(workloads.clone())
            .slos(fault_storm_slos(on_victim as f64 / students as f64))
            .configure_sessions(move |_, base| {
                if stormy {
                    s.apply(base)
                } else {
                    s.apply_calm(base)
                }
            });
        if stormy {
            c = c.fault_schedule(storm.schedule());
        }
        c.run().unwrap()
    };
    let hit = run(2, true);
    let serial = run(1, true);
    let calm = run(2, false);

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
        "{{\n  \"experiment\": \"forensics\",\n  \"shards\": {shards},\n  \"victim_shard\": {victim},\n  \"students\": {students},\n  \"seed\": {seed},\n  \"storm_bundles\": {},\n  \"calm_bundles\": {},\n  \"forensics_match_1_vs_n_threads\": {forensics_match},\n  \"chain_names_victim\": {chain_names_victim},\n  \"exemplar_trace_resolvable\": {exemplars_resolvable},\n  \"timeline\": {timeline_json},\n  \"bundles\": {bundles_json}\n}}\n",
        hit.forensics.len(),
        calm.forensics.len(),
    );
    std::fs::write(&out, json).expect("write forensics bench json");
    println!("wrote {out}");
}

/// Replay observatory (ISSUE 10): run the same fault-storm campaign as
/// `--exp forensics`, take the victim session's ready-to-run replay
/// handle from the incident bundle, and re-run that one session
/// standalone with instrumentation forced to maximum. Faithfulness is
/// the hard gate — the replayed digest must equal the campus digest
/// layer by layer — and the per-hop weathermap covers the victim's
/// route. Opt-in (`--exp replay`); writes `BENCH_replay.json`
/// (override with `MITS_REPLAY_OUT`).
fn replay() {
    use mits_core::{fault_storm_slos, sharded_workloads, FaultStorm};

    header(
        "REPLAY",
        "extract-and-replay the storm victim with max instrumentation",
    );
    let shards = env_usize("MITS_FORENSICS_SHARDS", 3).max(2);
    let students = env_usize("MITS_FORENSICS_STUDENTS", 9);
    let victim = env_usize("MITS_FORENSICS_VICTIM", 1) % shards;
    let clip_bytes = env_usize("MITS_FORENSICS_CLIP_BYTES", 300_000);
    let seed = env_usize("MITS_FORENSICS_SEED", 42) as u64;
    let flight_ring = env_usize("MITS_FLIGHT_RING", 0);
    let out = std::env::var("MITS_REPLAY_OUT").unwrap_or_else(|_| "BENCH_replay.json".into());

    let workloads = sharded_workloads(shards, 2, clip_bytes);
    let storm = FaultStorm::new(
        shards,
        victim,
        SimTime::from_millis(2),
        SimTime::from_secs(120),
    );
    let on_victim = (0..students).filter(|s| s % shards == victim).count();

    let campus = || {
        let s = storm.clone();
        Campus::new(students, seed)
            .threads(2)
            .flight_ring(flight_ring)
            .workloads(workloads.clone())
            .slos(fault_storm_slos(on_victim as f64 / students as f64))
            .configure_sessions(move |_, base| s.apply(base))
            .fault_schedule(storm.schedule())
    };

    // Run the storm campaign once; the session to replay comes from an
    // incident bundle's replay handle, closing the forensics loop.
    let campaign = campus().run().unwrap();
    let (student, handle_seed) = campaign
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

    let r = campus().replay(student).expect("replay the storm victim");
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
        "{{\n  \"experiment\": \"replay\",\n  \"shards\": {shards},\n  \"victim_shard\": {victim},\n  \"students\": {students},\n  \"seed\": {seed},\n  \"student\": {student},\n  \"session_seed\": {},\n  \"digest\": {},\n  \"digest_match\": {},\n  \"breach_reproduced\": {},\n  \"handle_agrees\": {handle_agrees},\n  \"bundle\": {},\n  \"route\": [{route_json}],\n  \"weathermap\": {}\n}}\n",
        r.bundle.seed,
        r.bundle.digest,
        r.digest_match,
        r.breach_reproduced,
        r.bundle.to_json(),
        r.weathermap,
    );
    std::fs::write(&out, json).expect("write replay bench json");
    println!("wrote {out}");
}
