//! Course-On-Demand sessions (§3.1.1): the end-to-end service the whole
//! system exists for. "Courseware is stored in a database after being
//! created, and is provided on demand for the presentation on an end-user
//! system."
//!
//! A [`CodSession`] fetches a courseware's scenario objects, loads them
//! into the navigator's presentation engine, and prefetches each unit's
//! bulk content *when the unit is entered* — the MITS storage strategy
//! (§3.4.2). The presentation clock freezes while content is in flight,
//! so fetch time is observable as **startup latency** (first unit) or
//! **stall** (later units): the exact quantities experiment E-BB and the
//! pipeline experiment F3.3 report.

use crate::system::{ClientId, MitsSystem, SystemError};
use mits_media::MediaId;
use mits_mheg::{MhegId, ObjectBody};
use mits_navigator::{NavError, PresentationSession};
use mits_sim::{SimDuration, SimTime, SpanId};
use std::collections::HashMap;

/// Outcome of a full course playback.
#[derive(Debug, Clone, Default)]
pub struct CodReport {
    /// Time to fetch the scenario object closure.
    pub scenario_fetch: SimDuration,
    /// Time to prefetch the first unit's content (completes "startup").
    pub first_unit_fetch: SimDuration,
    /// Stall per later unit entered: (unit, fetch time).
    pub stalls: Vec<(usize, SimDuration)>,
    /// Presentation (media) time played.
    pub played: SimDuration,
    /// Scenario bytes + content bytes that crossed the network.
    pub bytes_transferred: u64,
    /// Did the course run to completion?
    pub completed: bool,
    /// Media whose content never arrived: `(unit, media)`. The session
    /// keeps playing with placeholders instead of aborting.
    pub degraded: Vec<(usize, MediaId)>,
}

impl CodReport {
    /// Startup latency: scenario + first-unit content.
    pub fn startup(&self) -> SimDuration {
        self.scenario_fetch + self.first_unit_fetch
    }

    /// Total stall time after startup.
    pub fn total_stall(&self) -> SimDuration {
        self.stalls
            .iter()
            .fold(SimDuration::ZERO, |acc, (_, d)| acc + *d)
    }

    /// Did any content fail to arrive (placeholder playback)?
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }
}

/// One student's Course-On-Demand session.
pub struct CodSession<'a> {
    system: &'a mut MitsSystem,
    client: ClientId,
    presentation: PresentationSession,
    /// Media referenced by each unit (unit index → media ids).
    unit_media: Vec<Vec<MediaId>>,
    /// Element name presenting each media id (for degradation marks).
    media_names: HashMap<MediaId, String>,
    fetched_units: Vec<bool>,
    /// The session's root trace span: stage spans (`cod.open`,
    /// `cod.prefetch`) and every database request issued on the
    /// session's behalf nest under it.
    session_span: SpanId,
    finished: bool,
    /// Accumulating report.
    pub report: CodReport,
}

impl<'a> CodSession<'a> {
    /// Open a session: fetch the scenario closure of `root` and prepare
    /// the presentation for `course_name`.
    pub fn open(
        system: &'a mut MitsSystem,
        client: ClientId,
        root: MhegId,
        course_name: &str,
    ) -> Result<Self, SystemError> {
        let tr = system.tracer.clone();
        let now = system.now();
        let session_span = tr.root_span("cod.session", now);
        tr.attr(session_span, "course", course_name);
        tr.attr_u64(session_span, "client", client.0 as u64);
        tr.push_context(session_span);
        let stage = tr.child(session_span, "cod.open", now);
        tr.push_context(stage);
        let bytes_before = system.bytes_to_client(client);
        let fetched = system.fetch_courseware(client, root);
        let opened_at = system.now();
        tr.pop_context();
        tr.end(stage, opened_at);
        let (objects, scenario_fetch) = match fetched {
            Ok(v) => v,
            Err(e) => {
                tr.pop_context();
                tr.end(session_span, opened_at);
                return Err(e);
            }
        };

        // Map units to the media their content objects reference.
        let mut by_id: HashMap<MhegId, &mits_mheg::MhegObject> = HashMap::new();
        let mut media_names = HashMap::new();
        for o in &objects {
            by_id.insert(o.id, o);
            if let Some(m) = o.referenced_media() {
                media_names.insert(m, o.info.name.clone());
            }
        }
        let entry = match objects
            .iter()
            .find(|o| matches!(o.body, ObjectBody::Composite(_)) && o.info.name == course_name)
        {
            Some(e) => e,
            None => {
                tr.pop_context();
                tr.end(session_span, opened_at);
                return Err(SystemError::Protocol(format!(
                    "no entry composite '{course_name}'"
                )));
            }
        };
        let units: Vec<MhegId> = match &entry.body {
            ObjectBody::Composite(c) => c.components.clone(),
            _ => unreachable!("matched composite above"),
        };
        let unit_media: Vec<Vec<MediaId>> = units
            .iter()
            .map(|u| {
                let mut media = Vec::new();
                let mut stack = vec![*u];
                let mut seen = std::collections::HashSet::new();
                while let Some(id) = stack.pop() {
                    if !seen.insert(id) {
                        continue;
                    }
                    if let Some(obj) = by_id.get(&id) {
                        if let Some(m) = obj.referenced_media() {
                            media.push(m);
                        }
                        stack.extend(obj.referenced_objects());
                    }
                }
                media
            })
            .collect();

        let presentation = match PresentationSession::load(objects, course_name) {
            Ok(p) => p,
            Err(e) => {
                tr.pop_context();
                tr.end(session_span, opened_at);
                return Err(SystemError::Protocol(e.to_string()));
            }
        };
        let fetched_units = vec![false; unit_media.len()];
        let mut report = CodReport {
            scenario_fetch,
            ..Default::default()
        };
        report.bytes_transferred = system.bytes_to_client(client) - bytes_before;
        Ok(CodSession {
            system,
            client,
            presentation,
            unit_media,
            media_names,
            fetched_units,
            session_span,
            finished: false,
            report,
        })
    }

    /// Prefetch the content of `unit` (idempotent). Returns fetch time.
    fn prefetch_unit(&mut self, unit: usize) -> Result<SimDuration, SystemError> {
        if self.fetched_units.get(unit).copied().unwrap_or(true) {
            return Ok(SimDuration::ZERO);
        }
        let tr = self.system.tracer.clone();
        let stage = tr.child(self.session_span, "cod.prefetch", self.system.now());
        tr.attr_u64(stage, "unit", unit as u64);
        tr.push_context(stage);
        let res = self.prefetch_unit_inner(unit);
        tr.pop_context();
        tr.end(stage, self.system.now());
        res
    }

    /// The fetch loop behind [`CodSession::prefetch_unit`] — split out so
    /// the stage span closes on every exit path.
    fn prefetch_unit_inner(&mut self, unit: usize) -> Result<SimDuration, SystemError> {
        let bytes_before = self.system.bytes_to_client(self.client);
        let mut total = SimDuration::ZERO;
        for media in self.unit_media[unit].clone() {
            match self.system.fetch_content(self.client, media) {
                Ok((_, t)) => total += t,
                // Graceful degradation: a missing or unreachable content
                // object downgrades its element to a placeholder instead
                // of killing the whole session. Anything else (protocol
                // breakage, VC failure) still aborts.
                Err(SystemError::Timeout) => {
                    self.report.degraded.push((unit, media));
                    if let Some(name) = self.media_names.get(&media) {
                        self.presentation.mark_degraded(name);
                    }
                }
                Err(SystemError::Db(e))
                    if e.is_retryable() || matches!(e, mits_db::DbError::NotFound(_)) =>
                {
                    self.report.degraded.push((unit, media));
                    if let Some(name) = self.media_names.get(&media) {
                        self.presentation.mark_degraded(name);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        self.fetched_units[unit] = true;
        self.report.bytes_transferred += self.system.bytes_to_client(self.client) - bytes_before;
        Ok(total)
    }

    /// Begin presentation (startup: prefetch unit 0, then start).
    pub fn start(&mut self) -> Result<(), SystemError> {
        self.report.first_unit_fetch = self.prefetch_unit(0)?;
        self.presentation
            .start()
            .map_err(|e| SystemError::Protocol(e.to_string()))?;
        Ok(())
    }

    /// Resume at a saved unit (§5.4).
    pub fn resume(&mut self, unit: usize) -> Result<(), SystemError> {
        self.report.first_unit_fetch = self.prefetch_unit(unit)?;
        self.presentation
            .resume(unit)
            .map_err(|e| SystemError::Protocol(e.to_string()))?;
        Ok(())
    }

    /// Play forward by `step`, prefetching (and recording stalls) when a
    /// new unit is entered. Returns the current unit.
    pub fn play(&mut self, step: SimDuration) -> Result<Option<usize>, SystemError> {
        let before = self.presentation.current_unit();
        let target = self.presentation.now() + step;
        self.presentation
            .advance(target)
            .map_err(|e| SystemError::Protocol(e.to_string()))?;
        self.report.played += step;
        let after = self.presentation.current_unit();
        if after != before {
            if let Some(u) = after {
                let stall = self.prefetch_unit(u)?;
                if !stall.is_zero() {
                    self.system.tracer.event_with(
                        Some(self.session_span),
                        "cod.stall",
                        self.system.now(),
                        &[("unit", u.to_string()), ("stall", stall.to_string())],
                    );
                    self.report.stalls.push((u, stall));
                }
            }
        }
        if self.presentation.completed() {
            self.report.completed = true;
        }
        Ok(after)
    }

    /// Auto-play until completion or `max` presentation time, in 100 ms
    /// ticks (serial playback; no interaction).
    pub fn auto_play(&mut self, max: SimDuration) -> Result<(), SystemError> {
        let tick = SimDuration::from_millis(100);
        let mut played = SimDuration::ZERO;
        while !self.presentation.completed() && played < max {
            self.play(tick)?;
            played += tick;
        }
        if self.presentation.completed() {
            self.report.completed = true;
        }
        Ok(())
    }

    /// Click a named element (interactive courses).
    pub fn click(&mut self, name: &str) -> Result<(), NavError> {
        let res = self.presentation.click(name);
        if res.is_ok() {
            // A click may have jumped units: prefetch the new one.
            if let Some(u) = self.presentation.current_unit() {
                if let Ok(stall) = self.prefetch_unit(u) {
                    if !stall.is_zero() {
                        self.report.stalls.push((u, stall));
                    }
                }
            }
        }
        res
    }

    /// Current unit.
    pub fn current_unit(&self) -> Option<usize> {
        self.presentation.current_unit()
    }

    /// Completed?
    pub fn completed(&self) -> bool {
        self.presentation.completed()
    }

    /// Presentation clock.
    pub fn presentation_now(&self) -> SimTime {
        self.presentation.now()
    }

    /// Borrow the presentation (rendering, assertions).
    pub fn presentation(&self) -> &PresentationSession {
        &self.presentation
    }

    /// The session's root trace span — feed it to
    /// [`mits_sim::Tracer::waterfall`] for the latency breakdown.
    pub fn root_span(&self) -> SpanId {
        self.session_span
    }

    /// Close the session's root span and export every layer's counters
    /// (network, servers, clients, MHEG engine, presentation) into the
    /// system's [`mits_sim::MetricsRegistry`]. Idempotent; call it when
    /// playback is over.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let now = self.system.now();
        let tr = self.system.tracer.clone();
        tr.pop_context();
        tr.attr(
            self.session_span,
            "completed",
            if self.report.completed {
                "true"
            } else {
                "false"
            },
        );
        tr.attr_u64(
            self.session_span,
            "bytes_transferred",
            self.report.bytes_transferred,
        );
        tr.attr_u64(
            self.session_span,
            "degraded",
            self.report.degraded.len() as u64,
        );
        tr.end(self.session_span, now);
        self.presentation.export_metrics(&self.system.metrics);
        self.system.export_metrics();
        // Session-outcome counters, so a campus rollup can compute the
        // degraded fraction and stall totals without keeping CodReports.
        let m = &self.system.metrics;
        m.counter_set("cod.sessions", 1);
        m.counter_set(
            "cod.sessions_degraded",
            u64::from(self.report.is_degraded()),
        );
        m.counter_set("cod.sessions_completed", u64::from(self.report.completed));
        m.counter_set("cod.stalls", self.report.stalls.len() as u64);
        m.counter_set("cod.degraded_units", self.report.degraded.len() as u64);
        m.counter_set("cod.stall_time_us", self.report.total_stall().as_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use mits_atm::LinkProfile;
    use mits_author::{
        compile_imd, Behavior, BehaviorAction, BehaviorCondition, ElementKind, ImDocument, Scene,
        Section, Subsection, TimelineEntry,
    };
    use mits_media::{CaptureSpec, MediaFormat, MediaObject, ProductionCenter, VideoDims};
    use mits_mheg::MhegObject;

    /// Two-scene course: 1 s video then 1 s caption, plus a skip button.
    fn course() -> (Vec<MhegObject>, Vec<MediaObject>, MhegId, &'static str) {
        let mut pc = ProductionCenter::new(3);
        let clip = pc.capture(&CaptureSpec::video(
            "intro.mpg",
            MediaFormat::Mpeg,
            SimDuration::from_secs(1),
            VideoDims::new(160, 120),
        ));
        let img = pc.capture(&CaptureSpec::image(
            "diagram.gif",
            MediaFormat::Gif,
            VideoDims::new(320, 240),
        ));
        let mut doc = ImDocument::new("COD Course");
        doc.sections.push(Section {
            title: "s".into(),
            subsections: vec![Subsection {
                title: "ss".into(),
                scenes: vec![
                    Scene::new("video-scene")
                        .element("v", ElementKind::Media((&clip).into()))
                        .element("skip", ElementKind::Button("Skip".into()))
                        .entry(TimelineEntry::at_start("v"))
                        .entry(TimelineEntry::at_start("skip"))
                        .behavior(Behavior::when(
                            BehaviorCondition::Clicked("skip".into()),
                            vec![BehaviorAction::NextScene],
                        )),
                    Scene::new("image-scene")
                        .element("d", ElementKind::Media((&img).into()))
                        .element("t", ElementKind::Caption("the end".into()))
                        .entry(TimelineEntry::at_start("d").for_duration(SimDuration::from_secs(1)))
                        .entry(
                            TimelineEntry::at_start("t").for_duration(SimDuration::from_secs(1)),
                        ),
                ],
            }],
        });
        let compiled = compile_imd(60, &doc);
        (
            compiled.objects,
            vec![clip, img],
            compiled.root,
            "COD Course",
        )
    }

    #[test]
    fn full_cod_pipeline_completes() {
        let (objects, media, root, name) = course();
        let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
        sys.publish(&objects, &media).unwrap();
        let mut session = CodSession::open(&mut sys, ClientId(0), root, name).unwrap();
        session.start().unwrap();
        session.auto_play(SimDuration::from_secs(10)).unwrap();
        let r = &session.report;
        assert!(r.completed, "course finished");
        assert!(r.scenario_fetch > SimDuration::ZERO);
        assert!(r.first_unit_fetch > SimDuration::ZERO, "video prefetched");
        assert_eq!(r.stalls.len(), 1, "image fetched entering scene 2");
        assert!(r.bytes_transferred > 150_000, "~190 kB video crossed");
    }

    #[test]
    fn narrowband_startup_dwarfs_broadband() {
        let (objects, media, root, name) = course();
        let mut startups = Vec::new();
        for profile in [LinkProfile::atm_oc3(), LinkProfile::modem_28_8k()] {
            let mut sys =
                MitsSystem::build(&SystemConfig::broadband(1).with_access(profile)).unwrap();
            sys.load_directly(objects.clone(), media.clone());
            let mut session = CodSession::open(&mut sys, ClientId(0), root, name).unwrap();
            session.start().unwrap();
            startups.push(session.report.startup());
        }
        // 1 s of MPEG ≈ 190 kB ≈ 53 s over a modem vs ~10 ms over OC-3.
        assert!(
            startups[1].as_secs_f64() > 100.0 * startups[0].as_secs_f64(),
            "modem {} vs oc3 {}",
            startups[1],
            startups[0]
        );
    }

    #[test]
    fn click_driven_session() {
        let (objects, media, root, name) = course();
        let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
        sys.load_directly(objects, media);
        let mut session = CodSession::open(&mut sys, ClientId(0), root, name).unwrap();
        session.start().unwrap();
        session.play(SimDuration::from_millis(200)).unwrap();
        session.click("Skip").unwrap();
        assert_eq!(session.current_unit(), Some(1));
        // The image scene's media was prefetched on the jump.
        assert_eq!(session.report.stalls.len(), 1);
    }

    #[test]
    fn missing_content_degrades_instead_of_aborting() {
        let (objects, media, root, name) = course();
        let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
        // Publish the scenario and the intro video, but "lose" the
        // image: entering scene 2 must not kill the session.
        let lost = media[1].id;
        sys.load_directly(objects, vec![media[0].clone()]);
        let mut session = CodSession::open(&mut sys, ClientId(0), root, name).unwrap();
        session.start().unwrap();
        session.auto_play(SimDuration::from_secs(10)).unwrap();
        assert!(
            session.report.completed,
            "placeholder playback still finishes"
        );
        assert_eq!(session.report.degraded, vec![(1, lost)]);
        assert!(session.report.is_degraded());
        assert!(session.presentation().is_degraded());
        assert_eq!(
            session
                .presentation()
                .degraded_elements()
                .collect::<Vec<_>>(),
            vec!["diagram.gif"]
        );
    }

    #[test]
    fn resume_skips_first_unit_content() {
        let (objects, media, root, name) = course();
        let mut sys = MitsSystem::build(&SystemConfig::broadband(1)).unwrap();
        sys.load_directly(objects.clone(), media.clone());
        let mut session = CodSession::open(&mut sys, ClientId(0), root, name).unwrap();
        session.resume(1).unwrap();
        assert_eq!(session.current_unit(), Some(1));
        // Only the image-scene media was fetched (the video clip wasn't).
        let fetched = session.report.first_unit_fetch;
        assert!(fetched > SimDuration::ZERO);
        session.auto_play(SimDuration::from_secs(5)).unwrap();
        assert!(session.completed());
    }
}
