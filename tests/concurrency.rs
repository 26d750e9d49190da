//! Concurrency integration: the courseware database server is shared
//! state ("all the information stored digitally can be shared by a big
//! amount of users at a specific time", §2.1.2). These tests hammer one
//! server from many OS threads — the in-process analog of many navigator
//! processes — and check nothing tears.

use mits::author::{
    compile_imd, ElementKind, ImDocument, Scene, Section, Subsection, TimelineEntry,
};
use mits::db::{DbServer, Request, Response};
use mits::media::{CaptureSpec, MediaFormat, ProductionCenter, VideoDims};
use mits::mheg::MhegId;
use mits::navigator::PresentationSession;
use mits::sim::{SimDuration, SimTime};
use std::sync::Arc;

fn loaded_server() -> (Arc<DbServer>, MhegId, String) {
    let mut studio = ProductionCenter::new(21);
    let clip = studio.capture(&CaptureSpec::video(
        "clip.mpg",
        MediaFormat::Mpeg,
        SimDuration::from_millis(300),
        VideoDims::new(160, 120),
    ));
    let mut doc = ImDocument::new("Concurrent Course");
    doc.keywords = vec!["telecom/atm".into()];
    doc.sections.push(Section {
        title: "s".into(),
        subsections: vec![Subsection {
            title: "ss".into(),
            scenes: vec![Scene::new("only")
                .element("v", ElementKind::Media((&clip).into()))
                .entry(TimelineEntry::at_start("v"))],
        }],
    });
    let compiled = compile_imd(99, &doc);
    let server = DbServer::default();
    server.load_objects(compiled.objects);
    server.load_media(studio.catalogue().to_vec());
    (
        Arc::new(server),
        compiled.root,
        "Concurrent Course".to_string(),
    )
}

#[test]
fn many_threads_fetch_and_present() {
    let (server, root, name) = loaded_server();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let server = server.clone();
            let name = name.clone();
            scope.spawn(move || {
                for _ in 0..20 {
                    let (resp, _) = server.handle(&Request::GetCourseware { root });
                    let Response::Objects(objects) = resp else {
                        panic!("thread {t}: bad response")
                    };
                    let mut p = PresentationSession::load(objects, &name).unwrap();
                    p.start().unwrap();
                    p.advance(SimTime::from_secs(2)).unwrap();
                    assert!(p.completed(), "thread {t}");
                }
            });
        }
    });
    assert_eq!(*server.requests_served.read(), 8 * 20);
}

#[test]
fn concurrent_reads_with_author_updates() {
    let (server, root, _) = loaded_server();
    std::thread::scope(|scope| {
        // Readers.
        for _ in 0..4 {
            let server = server.clone();
            scope.spawn(move || {
                for _ in 0..200 {
                    let (resp, _) = server.handle(&Request::GetCourseware { root });
                    match resp {
                        Response::Objects(objs) => assert!(!objs.is_empty()),
                        other => panic!("{other:?}"),
                    }
                    let (resp, _) = server.handle(&Request::ListDocs);
                    assert!(matches!(resp, Response::DocList(_)));
                }
            });
        }
        // An author republishing the container object repeatedly
        // ("updated in both the content and the scenario at anytime").
        let server2 = server.clone();
        scope.spawn(move || {
            let (resp, _) = server2.handle(&Request::GetObject { id: root });
            let Response::Objects(mut objs) = resp else {
                panic!()
            };
            let obj = objs.pop().unwrap();
            for _ in 0..200 {
                let (resp, _) = server2.handle(&Request::PutObject {
                    object: obj.clone(),
                });
                assert_eq!(resp, Response::Ack);
            }
        });
    });
    // The container's version advanced under concurrent readers.
    let (resp, _) = server.handle(&Request::GetObject { id: root });
    let Response::Objects(objs) = resp else {
        panic!()
    };
    assert_eq!(objs[0].info.version, 200);
}

#[test]
fn concurrent_keyword_queries() {
    let (server, root, _) = loaded_server();
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let server = server.clone();
            scope.spawn(move || {
                for _ in 0..300 {
                    let (resp, _) = server.handle(&Request::QueryKeyword {
                        keyword: "telecom".into(),
                        subtree: true,
                    });
                    assert_eq!(resp, Response::DocIds(vec![root]));
                }
            });
        }
    });
}
