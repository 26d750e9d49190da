//! Shared fixtures for the `tables` binary, which regenerates the MITS
//! evaluation.
//!
//! Every `tables` experiment builds its workload from these constructors,
//! so results are comparable across experiments and runs.

use mits_author::{
    compile_imd, Behavior, BehaviorAction, BehaviorCondition, CompiledCourseware, ElementKind,
    ImDocument, Scene, Section, Subsection, TimelineEntry,
};
use mits_media::{CaptureSpec, MediaFormat, MediaObject, ProductionCenter, VideoDims};
use mits_mheg::MhegObject;
use mits_sim::SimDuration;

/// The canonical "ATM Technology" course of Figure 4.4: one interactive
/// scene (audio + text + image + choice + stop) and one video scene.
pub fn atm_course(seed: u64) -> (CompiledCourseware, Vec<MediaObject>, &'static str) {
    let mut studio = ProductionCenter::new(seed);
    let audio1 = studio.capture(&CaptureSpec::audio(
        "audio1.wav",
        MediaFormat::Wav,
        SimDuration::from_secs(4),
    ));
    let image1 = studio.capture(&CaptureSpec::image(
        "image1.gif",
        MediaFormat::Gif,
        VideoDims::new(320, 240),
    ));
    let lecture = studio.capture(&CaptureSpec::video(
        "atm-switching.mpg",
        MediaFormat::Mpeg,
        SimDuration::from_secs(3),
        VideoDims::new(320, 240),
    ));
    let mut doc = ImDocument::new("ATM Technology");
    doc.keywords = vec!["telecom/atm".into()];
    doc.sections.push(Section {
        title: "ATM basics".into(),
        subsections: vec![Subsection {
            title: "Cells".into(),
            scenes: vec![
                Scene::new("scene1")
                    .element("audio1", ElementKind::Media((&audio1).into()))
                    .element(
                        "text1",
                        ElementKind::Caption("ATM multiplexes cells.".into()),
                    )
                    .element("image1", ElementKind::Media((&image1).into()))
                    .element("choice1", ElementKind::Button("show image now".into()))
                    .element("stop", ElementKind::Button("stop".into()))
                    .entry(TimelineEntry::at_start("audio1"))
                    .entry(TimelineEntry::at_start("text1").for_duration(SimDuration::from_secs(4)))
                    .entry(TimelineEntry::at_start("choice1").at(10, 200))
                    .entry(TimelineEntry::at_start("stop").at(120, 200))
                    .behavior(Behavior::when(
                        BehaviorCondition::Clicked("choice1".into()),
                        vec![
                            BehaviorAction::Stop("text1".into()),
                            BehaviorAction::Start("image1".into()),
                        ],
                    ))
                    .behavior(Behavior::when(
                        BehaviorCondition::Finished("text1".into()),
                        vec![BehaviorAction::Start("image1".into())],
                    ))
                    .behavior(Behavior::when(
                        BehaviorCondition::Clicked("stop".into()),
                        vec![
                            BehaviorAction::Stop("audio1".into()),
                            BehaviorAction::Stop("text1".into()),
                            BehaviorAction::Stop("image1".into()),
                            BehaviorAction::NextScene,
                        ],
                    )),
                Scene::new("scene2")
                    .element("video", ElementKind::Media((&lecture).into()))
                    .entry(TimelineEntry::at_start("video")),
            ],
        }],
    });
    (
        compile_imd(1000, &doc),
        studio.catalogue().to_vec(),
        "ATM Technology",
    )
}

/// The E-REUSE course: three scenes sharing one video jingle plus a
/// unique image per scene.
pub fn reuse_course(seed: u64) -> (CompiledCourseware, Vec<MediaObject>, &'static str) {
    let mut studio = ProductionCenter::new(seed);
    let shared = studio.capture(&CaptureSpec::video(
        "jingle.mpg",
        MediaFormat::Mpeg,
        SimDuration::from_millis(400),
        VideoDims::new(160, 120),
    ));
    let mut scenes = Vec::new();
    for i in 0..3 {
        let img = studio.capture(&CaptureSpec::image(
            format!("fig{i}.gif"),
            MediaFormat::Gif,
            VideoDims::new(200, 150),
        ));
        scenes.push(
            Scene::new(&format!("scene{i}"))
                .element("jingle", ElementKind::Media((&shared).into()))
                .element("fig", ElementKind::Media((&img).into()))
                .entry(TimelineEntry::at_start("jingle"))
                .entry(
                    TimelineEntry::at_start("fig")
                        .at(200, 0)
                        .for_duration(SimDuration::from_millis(400)),
                ),
        );
    }
    let mut doc = ImDocument::new("Reuse Course");
    doc.sections.push(Section {
        title: "s".into(),
        subsections: vec![Subsection {
            title: "ss".into(),
            scenes,
        }],
    });
    (
        compile_imd(2000, &doc),
        studio.catalogue().to_vec(),
        "Reuse Course",
    )
}

/// One representative object of each concrete MHEG class, for codec and
/// life-cycle benches.
pub fn one_of_each_class(seed: u64) -> Vec<MhegObject> {
    use mits_mheg::action::{ActionEntry, ElementaryAction, TargetRef};
    use mits_mheg::link::Condition;
    use mits_mheg::object::StreamDesc;
    use mits_mheg::sync::{AtomicRelation, SyncMechanism, SyncSpec};
    use mits_mheg::{ClassLibrary, GenericValue};

    let mut studio = ProductionCenter::new(seed);
    let clip = studio.capture(&CaptureSpec::video(
        "bench.mpg",
        MediaFormat::Mpeg,
        SimDuration::from_secs(2),
        VideoDims::new(320, 240),
    ));
    let mut lib = ClassLibrary::new(3000);
    let content = lib.media_content(&clip, (0, 0));
    let mux = lib.multiplexed_content(
        &clip,
        vec![
            StreamDesc {
                stream_id: 1,
                format: MediaFormat::Mpeg,
                enabled: true,
            },
            StreamDesc {
                stream_id: 2,
                format: MediaFormat::Wav,
                enabled: true,
            },
        ],
    );
    let button = lib.value_content("btn", GenericValue::Bool(false));
    let composite = lib.composite(
        "scene",
        vec![content, button],
        vec![ActionEntry::now(
            TargetRef::Model(content),
            vec![ElementaryAction::Run],
        )],
        vec![SyncSpec::new(SyncMechanism::Atomic {
            a: TargetRef::Model(content),
            b: TargetRef::Model(button),
            relation: AtomicRelation::Parallel,
        })],
    );
    let action = lib.action(
        "stop-all",
        vec![ActionEntry::now(
            TargetRef::Model(content),
            vec![
                ElementaryAction::Stop,
                ElementaryAction::SetVisibility(false),
            ],
        )],
    );
    lib.link_to_action(
        "on-click",
        Condition::selected(TargetRef::Model(button)),
        vec![],
        action,
    );
    lib.script("quiz", "mits-expr", "score > 60 && attempts < 3");
    lib.descriptor_for_media(content, &clip);
    let ids: Vec<_> = lib.objects().iter().map(|o| o.id).collect();
    lib.container("shipment", ids);
    let _ = (mux, composite);
    lib.into_objects()
}
