//! The MHEG engine (§3.4: "a set of software modules designed ... to
//! encode, decode, handle or interpret the MHEG objects").
//!
//! One engine instance lives at each presentation site. The using
//! application (the courseware navigator) feeds it decoded form-(b)
//! objects, asks for run-time objects, advances the virtual clock, and
//! injects user input; the engine fires links, applies elementary actions,
//! and emits [`PresentationEvent`]s that the application renders.
//!
//! Determinism contract: given the same object set, the same clock
//! advances and the same input sequence, the engine produces the same
//! event log — this is what makes every experiment in `EXPERIMENTS.md`
//! reproducible.
//!
//! ## Target resolution
//!
//! Authors write links and actions against *model* ids. At run time the
//! engine resolves `TargetRef::Model(id)` to the most recently created
//! run-time object of that model; presentation actions on a model with no
//! live run-time object implicitly create one (`new` + the action), which
//! keeps hand-authored courseware concise. Events are matched against
//! conditions through both the run-time id and its model id.

use crate::action::{ActionEntry, ElementaryAction, TargetRef, ValueAttribute};
use crate::codec::{decode_object, CodecError, WireFormat};
use crate::ids::{MhegId, RtId};
use crate::link::{Condition, StatusKind};
use crate::object::{ContentBody, LinkBody, LinkEffect, MhegObject, ObjectBody};
use crate::runtime::{RtKind, RtObject, RtState, Socket, SocketKind};
use crate::sync::CyclicTask;
use crate::value::GenericValue;
use mits_sim::{SimDuration, SimTime, TimerQueue};
use std::collections::{HashMap, VecDeque};

/// Cap on cascaded link firings from a single stimulus; a cycle of links
/// (button → run → link → run …) beyond this depth is reported as an
/// error rather than looping forever.
pub const MAX_CASCADE: usize = 256;

/// Errors from engine operations.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Referenced model object is not in the engine's pool.
    UnknownObject(MhegId),
    /// Referenced run-time object does not exist.
    UnknownRt(RtId),
    /// `new` applied to a non-model class (link, action, container,
    /// descriptor).
    NotAModel(MhegId),
    /// Decode failure when ingesting wire form.
    Codec(CodecError),
    /// Link cascade exceeded [`MAX_CASCADE`].
    CascadeOverflow,
    /// Action applied to an incompatible target (e.g. `Activate` on
    /// content).
    BadTarget(String),
    /// A script failed to parse or evaluate.
    Script(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownObject(id) => write!(f, "unknown object {id}"),
            EngineError::UnknownRt(id) => write!(f, "unknown run-time object {id}"),
            EngineError::NotAModel(id) => write!(f, "{id} is not a model object"),
            EngineError::Codec(e) => write!(f, "codec: {e}"),
            EngineError::CascadeOverflow => write!(f, "link cascade exceeded {MAX_CASCADE}"),
            EngineError::BadTarget(s) => write!(f, "bad target: {s}"),
            EngineError::Script(s) => write!(f, "script: {s}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CodecError> for EngineError {
    fn from(e: CodecError) -> Self {
        EngineError::Codec(e)
    }
}

/// Events the engine emits toward the using application.
#[derive(Debug, Clone, PartialEq)]
pub enum PresentationEvent {
    /// A model object became available (prepared).
    Prepared(MhegId),
    /// A run-time object was created from a model.
    Created {
        /// The new run-time object.
        rt: RtId,
        /// Its model.
        model: MhegId,
    },
    /// A run-time object started running at `at`.
    Started {
        /// The object.
        rt: RtId,
        /// Start instant.
        at: SimTime,
    },
    /// A run-time object stopped (explicitly) at `at`.
    Stopped {
        /// The object.
        rt: RtId,
        /// Stop instant.
        at: SimTime,
    },
    /// A time-based run-time object reached the end of its medium.
    Completed {
        /// The object.
        rt: RtId,
        /// Completion instant.
        at: SimTime,
    },
    /// An attribute changed (position/size/speed/volume/visibility/
    /// interaction/data).
    AttributeChanged {
        /// The object.
        rt: RtId,
        /// Attribute name.
        attr: &'static str,
    },
    /// Reply to a Getting-Value action.
    ValueReport {
        /// The queried object.
        rt: RtId,
        /// Queried attribute.
        attr: ValueAttribute,
        /// The value read.
        value: GenericValue,
    },
    /// A link fired.
    LinkFired {
        /// The link object (None for links lowered from sync specs).
        link: Option<MhegId>,
        /// Firing instant.
        at: SimTime,
    },
    /// A run-time object was deleted.
    Deleted(RtId),
    /// A script instance was activated/deactivated.
    ScriptActivation {
        /// The script run-time object.
        rt: RtId,
        /// New activation state.
        active: bool,
    },
}

/// Counters for the experiment tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Objects ingested into the form-(b) pool.
    pub ingested: u64,
    /// Run-time objects created.
    pub rt_created: u64,
    /// Links fired.
    pub links_fired: u64,
    /// Elementary actions applied.
    pub actions_applied: u64,
    /// Presentation events emitted.
    pub events_emitted: u64,
}

impl EngineStats {
    /// Snapshot the counters into `reg` under `prefix` (e.g. `mheg`).
    pub fn export_metrics(&self, reg: &mits_sim::MetricsRegistry, prefix: &str) {
        reg.counter_set(&format!("{prefix}.ingested"), self.ingested);
        reg.counter_set(&format!("{prefix}.rt_created"), self.rt_created);
        reg.counter_set(&format!("{prefix}.links_fired"), self.links_fired);
        reg.counter_set(&format!("{prefix}.actions_applied"), self.actions_applied);
        reg.counter_set(&format!("{prefix}.events_emitted"), self.events_emitted);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkOrigin {
    /// From an interchanged link object.
    Object(MhegId),
    /// Lowered from a composite's sync specs; owned by that composite rt.
    Sync(RtId),
}

#[derive(Debug, Clone)]
struct ActiveLink {
    origin: LinkOrigin,
    body: LinkBody,
}

enum TimerKind {
    /// Run a (possibly delayed) action entry.
    Action(ActionEntry),
    /// Completion check for a running rt; `generation` guards staleness.
    Completion { rt: RtId, generation: u64 },
    /// Cyclic re-run.
    Cyclic { index: usize },
}

#[derive(Debug, Clone)]
struct CyclicState {
    task: CyclicTask,
    owner: RtId,
    active: bool,
}

/// Internal status-change event (carries both addressing forms).
#[derive(Debug, Clone)]
struct InternalEvent {
    rt: RtId,
    model: MhegId,
    status: StatusKind,
    value: GenericValue,
}

/// The MHEG engine.
pub struct MhegEngine {
    objects: HashMap<MhegId, MhegObject>,
    prepared: HashMap<MhegId, bool>,
    rt: HashMap<RtId, RtObject>,
    model_rt: HashMap<MhegId, RtId>,
    generations: HashMap<RtId, u64>,
    links: Vec<ActiveLink>,
    cyclic: Vec<CyclicState>,
    timers: TimerQueue<TimerKind>,
    next_rt: u64,
    now: SimTime,
    out: Vec<PresentationEvent>,
    /// Statistics.
    pub stats: EngineStats,
}

impl Default for MhegEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MhegEngine {
    /// An empty engine with the clock at zero.
    pub fn new() -> Self {
        MhegEngine {
            objects: HashMap::new(),
            prepared: HashMap::new(),
            rt: HashMap::new(),
            model_rt: HashMap::new(),
            generations: HashMap::new(),
            links: Vec::new(),
            cyclic: Vec::new(),
            timers: TimerQueue::new(),
            next_rt: 1,
            now: SimTime::ZERO,
            out: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Current engine clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Drain the pending presentation events.
    pub fn take_events(&mut self) -> Vec<PresentationEvent> {
        std::mem::take(&mut self.out)
    }

    /// Look at a run-time object.
    pub fn rt(&self, id: RtId) -> Option<&RtObject> {
        self.rt.get(&id)
    }

    /// Look at a form-(b) object.
    pub fn object(&self, id: MhegId) -> Option<&MhegObject> {
        self.objects.get(&id)
    }

    /// The run-time object most recently created from `model`.
    pub fn rt_of_model(&self, model: MhegId) -> Option<RtId> {
        self.model_rt.get(&model).copied()
    }

    /// Number of live run-time objects.
    pub fn rt_count(&self) -> usize {
        self.rt.len()
    }

    // ---------- life cycle: form (a) → (b) → (c) ----------

    /// Ingest a decoded form-(b) object. Link objects become active
    /// immediately; everything else waits for `prepare` / `new`.
    pub fn ingest(&mut self, obj: MhegObject) {
        self.stats.ingested += 1;
        if let ObjectBody::Link(body) = &obj.body {
            self.links.push(ActiveLink {
                origin: LinkOrigin::Object(obj.id),
                body: body.clone(),
            });
        }
        self.objects.insert(obj.id, obj);
    }

    /// Decode an interchanged form-(a) stream and ingest it.
    pub fn ingest_wire(&mut self, data: &[u8], format: WireFormat) -> Result<MhegId, EngineError> {
        let obj = decode_object(data, format)?;
        let id = obj.id;
        self.ingest(obj);
        Ok(id)
    }

    /// Prepare a model object (availability, resource checks upstream).
    pub fn prepare(&mut self, id: MhegId) -> Result<(), EngineError> {
        if !self.objects.contains_key(&id) {
            return Err(EngineError::UnknownObject(id));
        }
        self.prepared.insert(id, true);
        self.emit(PresentationEvent::Prepared(id));
        Ok(())
    }

    /// Whether a model object is prepared.
    pub fn is_prepared(&self, id: MhegId) -> bool {
        self.prepared.get(&id).copied().unwrap_or(false)
    }

    /// Create a run-time object from a model object (`new`).
    ///
    /// Composites recursively create run-time objects for their
    /// components and plug them into sockets; components that are
    /// themselves composites become structural sockets.
    pub fn new_rt(&mut self, model: MhegId) -> Result<RtId, EngineError> {
        let obj = self
            .objects
            .get(&model)
            .ok_or(EngineError::UnknownObject(model))?
            .clone();
        if !obj.is_model() {
            return Err(EngineError::NotAModel(model));
        }
        let kind = match &obj.body {
            ObjectBody::Content(c) => Self::content_kind(c, &[]),
            ObjectBody::MultiplexedContent { base, streams } => {
                let enabled: Vec<u32> = streams
                    .iter()
                    .filter(|s| s.enabled)
                    .map(|s| s.stream_id)
                    .collect();
                Self::content_kind(base, &enabled)
            }
            ObjectBody::Script { .. } => RtKind::Script { active: false },
            ObjectBody::Composite(c) => {
                // Recursively instantiate components.
                let mut sockets = Vec::with_capacity(c.components.len());
                for comp in &c.components {
                    let child = self.new_rt(*comp)?;
                    let plugged = if self
                        .rt
                        .get(&child)
                        .is_some_and(|r| matches!(r.kind, RtKind::Composite { .. }))
                    {
                        SocketKind::Structural(child)
                    } else {
                        SocketKind::Presentable(child)
                    };
                    sockets.push(Socket {
                        model: *comp,
                        plugged,
                    });
                }
                RtKind::Composite { sockets }
            }
            _ => return Err(EngineError::NotAModel(model)),
        };
        let id = RtId(self.next_rt);
        self.next_rt += 1;
        let mut rt = RtObject::new(id, model, kind);
        // Content rt inherits original presentation parameters; a
        // Generic-Value content seeds the data slot with its stored value
        // (Fig 4.5b: "a value may be stored in the data").
        if let ObjectBody::Content(c) | ObjectBody::MultiplexedContent { base: c, .. } = &obj.body {
            rt.attrs.position = c.original_position;
            rt.attrs.size = (c.original_size.width, c.original_size.height);
            rt.attrs.volume = c.original_volume;
            if let crate::object::ContentData::Value(v) = &c.data {
                rt.attrs.data = v.clone();
            }
        }
        self.rt.insert(id, rt);
        self.model_rt.insert(model, id);
        self.generations.insert(id, 0);
        self.stats.rt_created += 1;
        self.emit(PresentationEvent::Created { rt: id, model });
        Ok(id)
    }

    fn content_kind(c: &ContentBody, enabled: &[u32]) -> RtKind {
        RtKind::Content {
            format: c.format,
            duration: c.original_duration,
            enabled_streams: enabled.to_vec(),
        }
    }

    /// Delete a run-time object (`delete`). Deleting a composite deletes
    /// its socket components and unregisters its sync artefacts.
    pub fn delete_rt(&mut self, id: RtId) -> Result<(), EngineError> {
        let rt = self.rt.remove(&id).ok_or(EngineError::UnknownRt(id))?;
        if let RtKind::Composite { sockets } = &rt.kind {
            for s in sockets {
                match s.plugged {
                    SocketKind::Presentable(c) | SocketKind::Structural(c) => {
                        // Ignore already-deleted children.
                        let _ = self.delete_rt(c);
                    }
                    SocketKind::Empty => {}
                }
            }
        }
        self.links.retain(|l| l.origin != LinkOrigin::Sync(id));
        for c in &mut self.cyclic {
            if c.owner == id {
                c.active = false;
            }
        }
        if self.model_rt.get(&rt.model) == Some(&id) {
            self.model_rt.remove(&rt.model);
        }
        self.generations.remove(&id);
        self.emit(PresentationEvent::Deleted(id));
        Ok(())
    }

    // ---------- clock ----------

    /// Advance the engine clock to `to`, firing due timers in order.
    pub fn advance(&mut self, to: SimTime) -> Result<(), EngineError> {
        assert!(to >= self.now, "engine clock cannot go backwards");
        while self.timers.peek().is_some_and(|(at, ..)| at <= to) {
            let (at, _, kind) = self.timers.pop().expect("peeked timer vanished");
            self.now = at;
            match kind {
                TimerKind::Action(entry) => self.apply_entry_now(&entry)?,
                TimerKind::Completion { rt, generation } => {
                    self.handle_completion(rt, generation)?;
                }
                TimerKind::Cyclic { index } => self.handle_cyclic(index)?,
            }
        }
        self.now = to;
        Ok(())
    }

    // ---------- user interaction ----------

    /// The user selected (clicked) a run-time object. Ignored unless the
    /// object currently has interaction enabled — this is the MHEG
    /// "generic selection behaviour".
    pub fn user_select(&mut self, id: RtId) -> Result<bool, EngineError> {
        let rt = self.rt.get(&id).ok_or(EngineError::UnknownRt(id))?;
        if !rt.attrs.interactive {
            return Ok(false);
        }
        let ev = InternalEvent {
            rt: id,
            model: rt.model,
            status: StatusKind::Selection,
            value: GenericValue::Bool(true),
        };
        self.process_events(vec![ev])?;
        Ok(true)
    }

    /// The user typed data into an interactible (entry fields of §4.4.2).
    pub fn user_input(&mut self, id: RtId, data: GenericValue) -> Result<bool, EngineError> {
        let rt = self.rt.get_mut(&id).ok_or(EngineError::UnknownRt(id))?;
        if !rt.attrs.interactive {
            return Ok(false);
        }
        rt.attrs.data = data.clone();
        let model = rt.model;
        self.emit(PresentationEvent::AttributeChanged {
            rt: id,
            attr: "data",
        });
        let ev = InternalEvent {
            rt: id,
            model,
            status: StatusKind::Data,
            value: data,
        };
        self.process_events(vec![ev])?;
        Ok(true)
    }

    // ---------- actions ----------

    /// Apply an action entry (public face: immediate, honouring its delay
    /// relative to *now*).
    pub fn apply_entry(&mut self, entry: &ActionEntry) -> Result<(), EngineError> {
        if entry.delay.is_zero() {
            self.apply_entry_now(entry)
        } else {
            self.timers.push(
                self.now + entry.delay,
                TimerKind::Action(ActionEntry {
                    target: entry.target,
                    delay: SimDuration::ZERO,
                    actions: entry.actions.clone(),
                }),
            );
            Ok(())
        }
    }

    fn apply_entry_now(&mut self, entry: &ActionEntry) -> Result<(), EngineError> {
        let mut events = Vec::new();
        for action in &entry.actions {
            self.apply_action(entry.target, action, &mut events)?;
        }
        self.process_events(events)
    }

    /// Resolve a target to a live rt, implicitly creating one for model
    /// targets when a presentation action needs it.
    fn resolve_rt(&mut self, target: TargetRef, create: bool) -> Result<RtId, EngineError> {
        match target {
            TargetRef::Rt(id) => {
                if self.rt.contains_key(&id) {
                    Ok(id)
                } else {
                    Err(EngineError::UnknownRt(id))
                }
            }
            TargetRef::Model(m) => {
                if let Some(id) = self.model_rt.get(&m) {
                    return Ok(*id);
                }
                if create {
                    self.new_rt(m)
                } else {
                    Err(EngineError::UnknownObject(m))
                }
            }
        }
    }

    fn apply_action(
        &mut self,
        target: TargetRef,
        action: &ElementaryAction,
        events: &mut Vec<InternalEvent>,
    ) -> Result<(), EngineError> {
        use ElementaryAction::*;
        self.stats.actions_applied += 1;
        match action {
            Prepare => {
                let id = match target {
                    TargetRef::Model(m) => m,
                    TargetRef::Rt(_) => {
                        return Err(EngineError::BadTarget(
                            "prepare needs a model target".into(),
                        ))
                    }
                };
                self.prepare(id)?;
                events.push(InternalEvent {
                    rt: RtId(0),
                    model: id,
                    status: StatusKind::Preparation,
                    value: GenericValue::Bool(true),
                });
            }
            Destroy => {
                let id = match target {
                    TargetRef::Model(m) => m,
                    TargetRef::Rt(_) => {
                        return Err(EngineError::BadTarget(
                            "destroy needs a model target".into(),
                        ))
                    }
                };
                self.prepared.insert(id, false);
            }
            New => {
                let id = match target {
                    TargetRef::Model(m) => m,
                    TargetRef::Rt(_) => {
                        return Err(EngineError::BadTarget("new needs a model target".into()))
                    }
                };
                self.new_rt(id)?;
            }
            DeleteRt => {
                let id = self.resolve_rt(target, false)?;
                self.delete_rt(id)?;
            }
            Run => {
                let id = self.resolve_rt(target, true)?;
                self.run_rt(id, events)?;
            }
            Stop => {
                // Stopping a model with no live run-time object is a no-op
                // (compiled timelines may schedule stops past a scene's
                // life); stopping a dangling RtId is still an error.
                match target {
                    TargetRef::Model(m) if !self.model_rt.contains_key(&m) => {}
                    _ => {
                        let id = self.resolve_rt(target, false)?;
                        self.stop_rt(id, events, false)?;
                    }
                }
            }
            SetPosition { x, y } => {
                let id = self.resolve_rt(target, true)?;
                let rt = self.rt.get_mut(&id).expect("resolved");
                rt.attrs.position = (*x, *y);
                self.emit(PresentationEvent::AttributeChanged {
                    rt: id,
                    attr: "position",
                });
            }
            SetVisibility(v) => {
                let id = self.resolve_rt(target, true)?;
                let rt = self.rt.get_mut(&id).expect("resolved");
                if rt.attrs.visible != *v {
                    rt.attrs.visible = *v;
                    let model = rt.model;
                    self.emit(PresentationEvent::AttributeChanged {
                        rt: id,
                        attr: "visibility",
                    });
                    events.push(InternalEvent {
                        rt: id,
                        model,
                        status: StatusKind::Visibility,
                        value: GenericValue::Bool(*v),
                    });
                }
            }
            SetSize { w, h } => {
                let id = self.resolve_rt(target, true)?;
                self.rt.get_mut(&id).expect("resolved").attrs.size = (*w, *h);
                self.emit(PresentationEvent::AttributeChanged {
                    rt: id,
                    attr: "size",
                });
            }
            SetSpeed(s) => {
                let id = self.resolve_rt(target, true)?;
                let rt = self.rt.get_mut(&id).expect("resolved");
                // Re-anchor progress so the speed change applies from now.
                if rt.state == RtState::Running {
                    let now = self.now;
                    rt.accumulated = rt.progress(now);
                    rt.started_at = now;
                }
                rt.attrs.speed = *s;
                self.emit(PresentationEvent::AttributeChanged {
                    rt: id,
                    attr: "speed",
                });
                // Reschedule completion under the new speed.
                self.reschedule_completion(id);
            }
            SetVolume(v) => {
                let id = self.resolve_rt(target, true)?;
                self.rt.get_mut(&id).expect("resolved").attrs.volume = *v;
                self.emit(PresentationEvent::AttributeChanged {
                    rt: id,
                    attr: "volume",
                });
            }
            Activate | Deactivate => {
                let id = self.resolve_rt(target, true)?;
                let is_script = matches!(
                    self.rt.get(&id).map(|r| &r.kind),
                    Some(RtKind::Script { .. })
                );
                if !is_script {
                    return Err(EngineError::BadTarget(
                        "activate/deactivate applies to scripts".into(),
                    ));
                }
                let activating = matches!(action, Activate);
                if activating {
                    // Part-III support: activation evaluates the script's
                    // `mits-expr` source against the data slots of
                    // like-named run-time objects and stores the result in
                    // the script instance's own data slot.
                    let model = self.rt.get(&id).expect("checked").model;
                    let source = match self.objects.get(&model).map(|o| &o.body) {
                        Some(ObjectBody::Script(s)) if s.language == "mits-expr" => {
                            Some(s.source.clone())
                        }
                        _ => None,
                    };
                    if let Some(src) = source {
                        let vars = self.data_slots_by_name();
                        let result = crate::script::run(&src, &|name| vars.get(name).cloned())
                            .map_err(|e| EngineError::Script(e.to_string()))?;
                        let rt = self.rt.get_mut(&id).expect("checked");
                        rt.attrs.data = result.clone();
                        let script_model = rt.model;
                        self.emit(PresentationEvent::AttributeChanged {
                            rt: id,
                            attr: "data",
                        });
                        events.push(InternalEvent {
                            rt: id,
                            model: script_model,
                            status: StatusKind::Data,
                            value: result,
                        });
                    }
                }
                if let Some(RtKind::Script { active }) = self.rt.get_mut(&id).map(|r| &mut r.kind) {
                    *active = activating;
                }
                self.emit(PresentationEvent::ScriptActivation {
                    rt: id,
                    active: activating,
                });
            }
            SetInteraction(v) => {
                let id = self.resolve_rt(target, true)?;
                self.rt.get_mut(&id).expect("resolved").attrs.interactive = *v;
                self.emit(PresentationEvent::AttributeChanged {
                    rt: id,
                    attr: "interaction",
                });
            }
            SetData(value) => {
                let id = self.resolve_rt(target, true)?;
                let rt = self.rt.get_mut(&id).expect("resolved");
                rt.attrs.data = value.clone();
                let model = rt.model;
                self.emit(PresentationEvent::AttributeChanged {
                    rt: id,
                    attr: "data",
                });
                events.push(InternalEvent {
                    rt: id,
                    model,
                    status: StatusKind::Data,
                    value: value.clone(),
                });
            }
            SetStreamEnabled { stream_id, enabled } => {
                let id = self.resolve_rt(target, true)?;
                let rt = self.rt.get_mut(&id).expect("resolved");
                match &mut rt.kind {
                    RtKind::Content {
                        enabled_streams, ..
                    } => {
                        if *enabled {
                            if !enabled_streams.contains(stream_id) {
                                enabled_streams.push(*stream_id);
                                enabled_streams.sort_unstable();
                            }
                        } else {
                            enabled_streams.retain(|s| s != stream_id);
                        }
                        self.emit(PresentationEvent::AttributeChanged {
                            rt: id,
                            attr: "streams",
                        });
                    }
                    _ => {
                        return Err(EngineError::BadTarget(
                            "stream control applies to content objects".into(),
                        ))
                    }
                }
            }
            GetValue(attr) => {
                let id = self.resolve_rt(target, false)?;
                let rt = self.rt.get(&id).expect("resolved");
                let value = match attr {
                    ValueAttribute::Position => GenericValue::Int(rt.attrs.position.0 as i64),
                    ValueAttribute::Size => GenericValue::Int(rt.attrs.size.0 as i64),
                    ValueAttribute::Speed => GenericValue::Milli(rt.attrs.speed),
                    ValueAttribute::Volume => GenericValue::Milli(rt.attrs.volume),
                    ValueAttribute::Visibility => GenericValue::Bool(rt.attrs.visible),
                    ValueAttribute::State => GenericValue::Str(rt.state.as_str().into()),
                    ValueAttribute::Data => rt.attrs.data.clone(),
                };
                self.emit(PresentationEvent::ValueReport {
                    rt: id,
                    attr: *attr,
                    value,
                });
            }
        }
        Ok(())
    }

    fn run_rt(&mut self, id: RtId, events: &mut Vec<InternalEvent>) -> Result<(), EngineError> {
        let now = self.now;
        let rt = self.rt.get_mut(&id).ok_or(EngineError::UnknownRt(id))?;
        if rt.state == RtState::Running {
            return Ok(());
        }
        // A re-run restarts from the beginning (MHEG run semantics);
        // resume is modelled by speed/stop bookkeeping upstream.
        rt.accumulated = SimDuration::ZERO;
        rt.start(now);
        let model = rt.model;
        let generation = {
            let g = self.generations.entry(id).or_insert(0);
            *g += 1;
            *g
        };
        self.emit(PresentationEvent::Started { rt: id, at: now });
        events.push(InternalEvent {
            rt: id,
            model,
            status: StatusKind::RunState,
            value: GenericValue::Str("running".into()),
        });
        // Schedule completion for time-based content.
        if let Some(done) = self.rt.get(&id).and_then(|r| r.completion_time()) {
            self.timers
                .push(done, TimerKind::Completion { rt: id, generation });
        }
        // Composites: execute start-up actions and lower sync specs.
        let composite_body = match &self.rt.get(&id).expect("exists").kind {
            RtKind::Composite { .. } => {
                match &self.objects.get(&model).expect("model exists").body {
                    ObjectBody::Composite(c) => Some(c.clone()),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(body) = composite_body {
            // A re-run must not leave duplicate sync artefacts behind.
            self.links.retain(|l| l.origin != LinkOrigin::Sync(id));
            for c in &mut self.cyclic {
                if c.owner == id {
                    c.active = false;
                }
            }
            for entry in &body.on_start {
                self.apply_entry(entry)?;
            }
            for spec in &body.sync {
                let lowered = spec.lower();
                for (offset, entry) in lowered.timed {
                    if offset.is_zero() {
                        // Zero-offset starts happen synchronously with the
                        // composite's own start (atomic-parallel semantics).
                        self.apply_entry(&entry)?;
                    } else {
                        self.timers.push(now + offset, TimerKind::Action(entry));
                    }
                }
                for link in lowered.links {
                    self.links.push(ActiveLink {
                        origin: LinkOrigin::Sync(id),
                        body: link,
                    });
                }
                for task in lowered.cyclic {
                    let index = self.cyclic.len();
                    self.cyclic.push(CyclicState {
                        task: task.clone(),
                        owner: id,
                        active: true,
                    });
                    self.timers.push(now, TimerKind::Cyclic { index });
                }
            }
        }
        Ok(())
    }

    fn stop_rt(
        &mut self,
        id: RtId,
        events: &mut Vec<InternalEvent>,
        completed: bool,
    ) -> Result<(), EngineError> {
        let now = self.now;
        let rt = self.rt.get_mut(&id).ok_or(EngineError::UnknownRt(id))?;
        if rt.state != RtState::Running {
            return Ok(());
        }
        rt.stop(now);
        let model = rt.model;
        *self.generations.entry(id).or_insert(0) += 1;
        if completed {
            self.emit(PresentationEvent::Completed { rt: id, at: now });
            events.push(InternalEvent {
                rt: id,
                model,
                status: StatusKind::Completion,
                value: GenericValue::Bool(true),
            });
        } else {
            self.emit(PresentationEvent::Stopped { rt: id, at: now });
        }
        events.push(InternalEvent {
            rt: id,
            model,
            status: StatusKind::RunState,
            value: GenericValue::Str("stopped".into()),
        });
        // Stopping a composite deactivates its cyclic tasks and stops its
        // socket components — a stopped scene takes its presentation (and
        // its buttons) off the screen.
        if let Some(RtKind::Composite { sockets }) = self.rt.get(&id).map(|r| r.kind.clone()) {
            for c in &mut self.cyclic {
                if c.owner == id {
                    c.active = false;
                }
            }
            for s in &sockets {
                match s.plugged {
                    SocketKind::Presentable(child) | SocketKind::Structural(child) => {
                        self.stop_rt(child, events, false)?;
                        if let Some(rt) = self.rt.get_mut(&child) {
                            rt.attrs.interactive = false;
                        }
                    }
                    SocketKind::Empty => {}
                }
            }
        }
        Ok(())
    }

    fn reschedule_completion(&mut self, id: RtId) {
        if let Some(done) = self.rt.get(&id).and_then(|r| r.completion_time()) {
            let generation = *self.generations.get(&id).unwrap_or(&0);
            self.timers
                .push(done, TimerKind::Completion { rt: id, generation });
        }
    }

    fn handle_completion(&mut self, id: RtId, generation: u64) -> Result<(), EngineError> {
        // Stale if the object restarted/stopped since this timer was set.
        if self.generations.get(&id) != Some(&generation) {
            return Ok(());
        }
        let Some(rt) = self.rt.get(&id) else {
            return Ok(());
        };
        if rt.state != RtState::Running {
            return Ok(());
        }
        // Verify the medium has actually elapsed (speed changes reschedule,
        // but a slower speed leaves the old timer early → re-arm).
        if let Some(done) = rt.completion_time() {
            if done > self.now {
                self.timers
                    .push(done, TimerKind::Completion { rt: id, generation });
                return Ok(());
            }
        }
        let mut events = Vec::new();
        self.stop_rt(id, &mut events, true)?;
        self.process_events(events)
    }

    fn handle_cyclic(&mut self, index: usize) -> Result<(), EngineError> {
        let Some(state) = self.cyclic.get_mut(index) else {
            return Ok(());
        };
        if !state.active {
            return Ok(());
        }
        if let Some(0) = state.task.remaining {
            state.active = false;
            return Ok(());
        }
        if let Some(r) = &mut state.task.remaining {
            *r -= 1;
        }
        let target = state.task.target;
        let period = state.task.period;
        // Re-arm before running so a Run failure doesn't wedge the cycle.
        self.timers
            .push(self.now + period, TimerKind::Cyclic { index });
        let entry = ActionEntry::now(target, vec![ElementaryAction::Run]);
        self.apply_entry_now(&entry)
    }

    /// Snapshot of every live run-time object's data slot, keyed by its
    /// model object's name — the variable environment for scripts.
    fn data_slots_by_name(&self) -> HashMap<String, GenericValue> {
        let mut vars = HashMap::new();
        for rt in self.rt.values() {
            if let Some(obj) = self.objects.get(&rt.model) {
                vars.insert(obj.info.name.clone(), rt.attrs.data.clone());
            }
        }
        vars
    }

    // ---------- link processing ----------

    fn emit(&mut self, ev: PresentationEvent) {
        self.stats.events_emitted += 1;
        self.out.push(ev);
    }

    /// Current value of a status for additional-condition evaluation.
    fn query_status(&self, target: TargetRef, status: StatusKind) -> GenericValue {
        let rt = match target {
            TargetRef::Rt(id) => self.rt.get(&id),
            TargetRef::Model(m) => self.model_rt.get(&m).and_then(|id| self.rt.get(id)),
        };
        match status {
            StatusKind::RunState => GenericValue::Str(
                rt.map(|r| r.state.as_str())
                    .unwrap_or("inactive")
                    .to_string(),
            ),
            StatusKind::Visibility => GenericValue::Bool(rt.is_some_and(|r| r.attrs.visible)),
            StatusKind::Data => rt
                .map(|r| r.attrs.data.clone())
                .unwrap_or(GenericValue::Int(0)),
            StatusKind::Preparation => {
                let prepared = match target {
                    TargetRef::Model(m) => self.is_prepared(m),
                    TargetRef::Rt(_) => rt.is_some(),
                };
                GenericValue::Bool(prepared)
            }
            // Pulses: current value is always false.
            StatusKind::Selection | StatusKind::Completion => GenericValue::Bool(false),
        }
    }

    fn condition_matches_event(&self, cond: &Condition, ev: &InternalEvent) -> bool {
        let addressed = match cond.source {
            TargetRef::Rt(id) => id == ev.rt,
            TargetRef::Model(m) => m == ev.model,
        };
        addressed && cond.status == ev.status && cond.cmp.eval(&ev.value, &cond.value)
    }

    fn additional_hold(&self, conds: &[Condition]) -> bool {
        conds.iter().all(|c| {
            let current = self.query_status(c.source, c.status);
            c.cmp.eval(&current, &c.value)
        })
    }

    /// Feed internal status events through the link table until quiescent.
    fn process_events(&mut self, seed: Vec<InternalEvent>) -> Result<(), EngineError> {
        let mut queue: VecDeque<InternalEvent> = seed.into();
        let mut depth = 0usize;
        while let Some(ev) = queue.pop_front() {
            depth += 1;
            if depth > MAX_CASCADE {
                return Err(EngineError::CascadeOverflow);
            }
            // Collect fired effects first (borrow discipline), then apply.
            let mut fired: Vec<(Option<MhegId>, LinkEffect)> = Vec::new();
            for link in &self.links {
                if self.condition_matches_event(&link.body.trigger, &ev)
                    && self.additional_hold(&link.body.additional)
                {
                    let id = match link.origin {
                        LinkOrigin::Object(id) => Some(id),
                        LinkOrigin::Sync(_) => None,
                    };
                    fired.push((id, link.body.effect.clone()));
                }
            }
            for (link_id, effect) in fired {
                self.stats.links_fired += 1;
                self.emit(PresentationEvent::LinkFired {
                    link: link_id,
                    at: self.now,
                });
                let entries = match effect {
                    LinkEffect::Inline(e) => e,
                    LinkEffect::ActionRef(aid) => match self.objects.get(&aid).map(|o| &o.body) {
                        Some(ObjectBody::Action(a)) => a.entries.clone(),
                        _ => return Err(EngineError::UnknownObject(aid)),
                    },
                };
                for entry in &entries {
                    if entry.delay.is_zero() {
                        // Inline execution: collect its events into the queue.
                        let mut sub = Vec::new();
                        for action in &entry.actions {
                            self.apply_action(entry.target, action, &mut sub)?;
                        }
                        queue.extend(sub);
                    } else {
                        self.apply_entry(entry)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::ClassLibrary;
    use crate::value::GenericValue;
    use bytes::Bytes;
    use mits_media::{MediaFormat, MediaId, MediaObject, VideoDims};

    fn clip(id: u64, secs: u64) -> MediaObject {
        MediaObject::new(
            MediaId(id),
            format!("clip{id}.mpg"),
            MediaFormat::Mpeg,
            SimDuration::from_secs(secs),
            VideoDims::new(320, 240),
            Bytes::from_static(b"x"),
        )
    }

    /// Engine pre-loaded with one 5 s video and one button.
    fn engine_with_video_and_button() -> (MhegEngine, MhegId, MhegId) {
        let mut lib = ClassLibrary::new(1);
        let video = lib.media_content(&clip(1, 5), (0, 0));
        let button = lib.value_content("stop-btn", GenericValue::Bool(false));
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        (eng, video, button)
    }

    #[test]
    fn lifecycle_prepare_new_run_complete() {
        let (mut eng, video, _) = engine_with_video_and_button();
        eng.prepare(video).unwrap();
        assert!(eng.is_prepared(video));
        let rt = eng.new_rt(video).unwrap();
        assert_eq!(eng.rt(rt).unwrap().state, RtState::Inactive);
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(rt),
            vec![ElementaryAction::Run],
        ))
        .unwrap();
        assert_eq!(eng.rt(rt).unwrap().state, RtState::Running);
        // Advance past the 5 s duration: auto-completes.
        eng.advance(SimTime::from_secs(6)).unwrap();
        assert_eq!(eng.rt(rt).unwrap().state, RtState::Stopped);
        let events = eng.take_events();
        assert!(events.iter().any(|e| matches!(e,
            PresentationEvent::Completed { rt: r, at } if *r == rt && *at == SimTime::from_secs(5))));
    }

    #[test]
    fn new_on_non_model_rejected() {
        let mut lib = ClassLibrary::new(1);
        let a = lib.action("a", vec![]);
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        assert_eq!(eng.new_rt(a), Err(EngineError::NotAModel(a)));
    }

    #[test]
    fn run_on_model_target_implicitly_creates_rt() {
        let (mut eng, video, _) = engine_with_video_and_button();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Model(video),
            vec![ElementaryAction::Run],
        ))
        .unwrap();
        let rt = eng.rt_of_model(video).expect("rt auto-created");
        assert_eq!(eng.rt(rt).unwrap().state, RtState::Running);
    }

    #[test]
    fn button_link_stops_video() {
        // The paper's push-button example: audio plays when a button is
        // activated — here inverted: the stop button stops the video.
        let mut lib = ClassLibrary::new(1);
        let video = lib.media_content(&clip(1, 60), (0, 0));
        let button = lib.value_content("stop", GenericValue::Bool(false));
        lib.link(
            "on-stop",
            Condition::selected(TargetRef::Model(button)),
            vec![],
            vec![ActionEntry::now(
                TargetRef::Model(video),
                vec![ElementaryAction::Stop],
            )],
        );
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        let v_rt = eng.new_rt(video).unwrap();
        let b_rt = eng.new_rt(button).unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(v_rt),
            vec![ElementaryAction::Run],
        ))
        .unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(b_rt),
            vec![ElementaryAction::SetInteraction(true)],
        ))
        .unwrap();
        eng.advance(SimTime::from_secs(10)).unwrap();
        assert!(eng.user_select(b_rt).unwrap());
        assert_eq!(eng.rt(v_rt).unwrap().state, RtState::Stopped);
        assert_eq!(eng.stats.links_fired, 1);
    }

    #[test]
    fn selection_ignored_when_interaction_disabled() {
        let (mut eng, _, button) = engine_with_video_and_button();
        let b_rt = eng.new_rt(button).unwrap();
        assert!(!eng.user_select(b_rt).unwrap(), "not interactive yet");
        assert_eq!(eng.stats.links_fired, 0);
    }

    #[test]
    fn completion_link_chains_presentations() {
        // "When the audio has finished, display the image" (§2.2.2.3).
        let mut lib = ClassLibrary::new(1);
        let audio = lib.media_content(
            &MediaObject::new(
                MediaId(1),
                "speech.wav",
                MediaFormat::Wav,
                SimDuration::from_secs(3),
                VideoDims::default(),
                Bytes::from_static(b"a"),
            ),
            (0, 0),
        );
        let image = lib.media_content(
            &MediaObject::new(
                MediaId(2),
                "pic.gif",
                MediaFormat::Gif,
                SimDuration::ZERO,
                VideoDims::new(100, 100),
                Bytes::from_static(b"i"),
            ),
            (0, 0),
        );
        lib.link(
            "audio-then-image",
            Condition::completed(TargetRef::Model(audio)),
            vec![],
            vec![ActionEntry::now(
                TargetRef::Model(image),
                vec![ElementaryAction::Run],
            )],
        );
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Model(audio),
            vec![ElementaryAction::Run],
        ))
        .unwrap();
        eng.advance(SimTime::from_secs(2)).unwrap();
        assert!(eng.rt_of_model(image).is_none(), "image not yet shown");
        eng.advance(SimTime::from_secs(4)).unwrap();
        let img_rt = eng.rt_of_model(image).expect("image created by link");
        assert_eq!(eng.rt(img_rt).unwrap().state, RtState::Running);
    }

    #[test]
    fn additional_conditions_gate_firing() {
        let mut lib = ClassLibrary::new(1);
        let video = lib.media_content(&clip(1, 60), (0, 0));
        let button = lib.value_content("btn", GenericValue::Bool(false));
        let gate = lib.value_content("gate", GenericValue::Int(0));
        lib.link(
            "guarded",
            Condition::selected(TargetRef::Model(button)),
            vec![Condition::equals(
                TargetRef::Model(gate),
                StatusKind::Data,
                GenericValue::Int(1),
            )],
            vec![ActionEntry::now(
                TargetRef::Model(video),
                vec![ElementaryAction::Run],
            )],
        );
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        let b_rt = eng.new_rt(button).unwrap();
        let g_rt = eng.new_rt(gate).unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(b_rt),
            vec![ElementaryAction::SetInteraction(true)],
        ))
        .unwrap();
        eng.user_select(b_rt).unwrap();
        assert!(eng.rt_of_model(video).is_none(), "gate closed");
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(g_rt),
            vec![ElementaryAction::SetData(GenericValue::Int(1))],
        ))
        .unwrap();
        eng.user_select(b_rt).unwrap();
        assert!(eng.rt_of_model(video).is_some(), "gate open");
    }

    #[test]
    fn delayed_actions_fire_on_advance() {
        let (mut eng, video, _) = engine_with_video_and_button();
        eng.apply_entry(&ActionEntry::after(
            TargetRef::Model(video),
            SimDuration::from_secs(2),
            vec![ElementaryAction::Run],
        ))
        .unwrap();
        eng.advance(SimTime::from_secs(1)).unwrap();
        assert!(eng.rt_of_model(video).is_none());
        eng.advance(SimTime::from_secs(3)).unwrap();
        let rt = eng.rt_of_model(video).unwrap();
        assert_eq!(eng.rt(rt).unwrap().started_at, SimTime::from_secs(2));
    }

    #[test]
    fn composite_runs_components_via_sync() {
        use crate::sync::{SyncMechanism, SyncSpec};
        let mut lib = ClassLibrary::new(1);
        let a = lib.media_content(&clip(1, 2), (0, 0));
        let b = lib.media_content(&clip(2, 2), (0, 0));
        let scene = lib.composite(
            "scene",
            vec![a, b],
            vec![],
            vec![SyncSpec::new(SyncMechanism::Chained {
                sequence: vec![TargetRef::Model(a), TargetRef::Model(b)],
            })],
        );
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        let scene_rt = eng.new_rt(scene).unwrap();
        assert_eq!(eng.rt(scene_rt).unwrap().sockets().unwrap().len(), 2);
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(scene_rt),
            vec![ElementaryAction::Run],
        ))
        .unwrap();
        // a runs immediately; b after a completes at t=2.
        let a_rt = eng.rt_of_model(a).unwrap();
        assert_eq!(eng.rt(a_rt).unwrap().state, RtState::Running);
        eng.advance(SimTime::from_secs(1)).unwrap();
        let b_state = eng.rt_of_model(b).map(|r| eng.rt(r).unwrap().state);
        assert_ne!(b_state, Some(RtState::Running), "b waits for a");
        eng.advance(SimTime::from_secs(3)).unwrap();
        let b_rt = eng.rt_of_model(b).expect("b started by chain");
        assert_eq!(eng.rt(b_rt).unwrap().state, RtState::Running);
        // b completes at 2+2=4 < 5.
        eng.advance(SimTime::from_secs(5)).unwrap();
        assert_eq!(eng.rt(b_rt).unwrap().state, RtState::Stopped);
    }

    #[test]
    fn cyclic_sync_repeats_bounded() {
        use crate::sync::{SyncMechanism, SyncSpec};
        let mut lib = ClassLibrary::new(1);
        let a = lib.media_content(&clip(1, 1), (0, 0));
        let scene = lib.composite(
            "loop",
            vec![a],
            vec![],
            vec![SyncSpec::new(SyncMechanism::Cyclic {
                target: TargetRef::Model(a),
                period: SimDuration::from_secs(2),
                repetitions: Some(3),
            })],
        );
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        let rt = eng.new_rt(scene).unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(rt),
            vec![ElementaryAction::Run],
        ))
        .unwrap();
        eng.advance(SimTime::from_secs(10)).unwrap();
        let starts = eng
            .take_events()
            .iter()
            .filter(|e| {
                matches!(e, PresentationEvent::Started { rt: r, .. }
                    if Some(*r) == eng.rt_of_model(a))
            })
            .count();
        assert_eq!(starts, 3, "exactly three repetitions");
    }

    #[test]
    fn speed_change_rescales_completion() {
        let (mut eng, video, _) = engine_with_video_and_button();
        let rt = eng.new_rt(video).unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(rt),
            vec![ElementaryAction::Run],
        ))
        .unwrap();
        // At t=1 switch to double speed: remaining 4 s of media plays in 2 s.
        eng.advance(SimTime::from_secs(1)).unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(rt),
            vec![ElementaryAction::SetSpeed(2000)],
        ))
        .unwrap();
        eng.advance(SimTime::from_secs(10)).unwrap();
        let completed_at = eng.take_events().iter().find_map(|e| match e {
            PresentationEvent::Completed { rt: r, at } if *r == rt => Some(*at),
            _ => None,
        });
        assert_eq!(completed_at, Some(SimTime::from_secs(3)), "1 s + 4 s/2");
    }

    #[test]
    fn get_value_reports() {
        let (mut eng, video, _) = engine_with_video_and_button();
        let rt = eng.new_rt(video).unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(rt),
            vec![ElementaryAction::GetValue(ValueAttribute::State)],
        ))
        .unwrap();
        let events = eng.take_events();
        assert!(events.iter().any(|e| matches!(e,
            PresentationEvent::ValueReport { rt: r, attr: ValueAttribute::State, value }
                if *r == rt && *value == GenericValue::Str("inactive".into()))));
    }

    #[test]
    fn delete_composite_deletes_children_and_sync_links() {
        use crate::sync::{AtomicRelation, SyncMechanism, SyncSpec};
        let mut lib = ClassLibrary::new(1);
        let a = lib.media_content(&clip(1, 2), (0, 0));
        let b = lib.media_content(&clip(2, 2), (0, 0));
        let scene = lib.composite(
            "scene",
            vec![a, b],
            vec![],
            vec![SyncSpec::new(SyncMechanism::Atomic {
                a: TargetRef::Model(a),
                b: TargetRef::Model(b),
                relation: AtomicRelation::Serial,
            })],
        );
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        let rt = eng.new_rt(scene).unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(rt),
            vec![ElementaryAction::Run],
        ))
        .unwrap();
        let before = eng.rt_count();
        assert_eq!(before, 3, "composite + two children");
        eng.delete_rt(rt).unwrap();
        assert_eq!(eng.rt_count(), 0);
        assert!(eng.links.iter().all(|l| l.origin != LinkOrigin::Sync(rt)));
    }

    #[test]
    fn cascade_overflow_detected() {
        // Two links ping-ponging visibility forever.
        let mut lib = ClassLibrary::new(1);
        let x = lib.value_content("x", GenericValue::Int(0));
        lib.link(
            "on",
            Condition::equals(TargetRef::Model(x), StatusKind::Visibility, true),
            vec![],
            vec![ActionEntry::now(
                TargetRef::Model(x),
                vec![ElementaryAction::SetVisibility(false)],
            )],
        );
        lib.link(
            "off",
            Condition::equals(TargetRef::Model(x), StatusKind::Visibility, false),
            vec![],
            vec![ActionEntry::now(
                TargetRef::Model(x),
                vec![ElementaryAction::SetVisibility(true)],
            )],
        );
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        let rt = eng.new_rt(x).unwrap();
        let result = eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(rt),
            vec![ElementaryAction::SetVisibility(false)],
        ));
        assert_eq!(result, Err(EngineError::CascadeOverflow));
    }

    #[test]
    fn ingest_wire_round_trip() {
        let mut lib = ClassLibrary::new(1);
        let v = lib.media_content(&clip(1, 5), (0, 0));
        let obj = lib.get(v).unwrap().clone();
        let wire = crate::codec::encode_object(&obj, WireFormat::Tlv);
        let mut eng = MhegEngine::new();
        let id = eng.ingest_wire(&wire, WireFormat::Tlv).unwrap();
        assert_eq!(id, v);
        assert_eq!(eng.object(v), Some(&obj));
        assert!(eng.ingest_wire(b"garbage", WireFormat::Tlv).is_err());
    }

    #[test]
    fn script_activation_evaluates_quiz_expression() {
        let mut lib = ClassLibrary::new(1);
        let score = lib.value_content("score", GenericValue::Int(0));
        let attempts = lib.value_content("attempts", GenericValue::Int(0));
        let quiz = lib.script("quiz-pass", "mits-expr", "score > 60 && attempts < 3");
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        let score_rt = eng.new_rt(score).unwrap();
        let attempts_rt = eng.new_rt(attempts).unwrap();
        let quiz_rt = eng.new_rt(quiz).unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(score_rt),
            vec![ElementaryAction::SetData(GenericValue::Int(72))],
        ))
        .unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(attempts_rt),
            vec![ElementaryAction::SetData(GenericValue::Int(2))],
        ))
        .unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(quiz_rt),
            vec![ElementaryAction::Activate],
        ))
        .unwrap();
        assert_eq!(
            eng.rt(quiz_rt).unwrap().attrs.data,
            GenericValue::Bool(true)
        );
        // Failing score re-evaluates to false.
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(score_rt),
            vec![ElementaryAction::SetData(GenericValue::Int(40))],
        ))
        .unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(quiz_rt),
            vec![ElementaryAction::Activate],
        ))
        .unwrap();
        assert_eq!(
            eng.rt(quiz_rt).unwrap().attrs.data,
            GenericValue::Bool(false)
        );
    }

    #[test]
    fn script_result_can_fire_links() {
        // Link: when the quiz script's data becomes true, run the reward.
        let mut lib = ClassLibrary::new(1);
        let score = lib.value_content("score", GenericValue::Int(99));
        let reward = lib.media_content(&clip(5, 2), (0, 0));
        let quiz = lib.script("gate", "mits-expr", "score > 60");
        lib.link(
            "pass-link",
            Condition::equals(TargetRef::Model(quiz), StatusKind::Data, true),
            vec![],
            vec![ActionEntry::now(
                TargetRef::Model(reward),
                vec![ElementaryAction::Run],
            )],
        );
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        eng.new_rt(score).unwrap();
        let quiz_rt = eng.new_rt(quiz).unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(quiz_rt),
            vec![ElementaryAction::Activate],
        ))
        .unwrap();
        let reward_rt = eng.rt_of_model(reward).expect("reward launched by script");
        assert_eq!(eng.rt(reward_rt).unwrap().state, RtState::Running);
    }

    #[test]
    fn bad_script_reports_error() {
        let mut lib = ClassLibrary::new(1);
        let broken = lib.script("broken", "mits-expr", "1 +");
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        let rt = eng.new_rt(broken).unwrap();
        let err = eng
            .apply_entry(&ActionEntry::now(
                TargetRef::Rt(rt),
                vec![ElementaryAction::Activate],
            ))
            .unwrap_err();
        assert!(matches!(err, EngineError::Script(_)));
    }

    #[test]
    fn stream_toggle_on_multiplexed_content() {
        use crate::object::StreamDesc;
        let mut lib = ClassLibrary::new(1);
        let media = clip(9, 10);
        let mux = lib.multiplexed_content(
            &media,
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
        let mut eng = MhegEngine::new();
        for o in lib.into_objects() {
            eng.ingest(o);
        }
        let rt = eng.new_rt(mux).unwrap();
        let streams = |eng: &MhegEngine| match &eng.rt(rt).unwrap().kind {
            RtKind::Content {
                enabled_streams, ..
            } => enabled_streams.clone(),
            _ => panic!("not content"),
        };
        assert_eq!(streams(&eng), vec![1, 2]);
        // "Turn audio off in an MPEG system stream."
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(rt),
            vec![ElementaryAction::SetStreamEnabled {
                stream_id: 2,
                enabled: false,
            }],
        ))
        .unwrap();
        assert_eq!(streams(&eng), vec![1]);
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(rt),
            vec![ElementaryAction::SetStreamEnabled {
                stream_id: 2,
                enabled: true,
            }],
        ))
        .unwrap();
        assert_eq!(streams(&eng), vec![1, 2]);
        // Idempotent re-enable.
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(rt),
            vec![ElementaryAction::SetStreamEnabled {
                stream_id: 2,
                enabled: true,
            }],
        ))
        .unwrap();
        assert_eq!(streams(&eng), vec![1, 2]);
        // Stream control on a non-content target errors.
        let script = {
            let mut lib2 = ClassLibrary::new(2);
            let s = lib2.script("s", "mits-expr", "1");
            let objs = lib2.into_objects();
            for o in objs {
                eng.ingest(o);
            }
            s
        };
        let s_rt = eng.new_rt(script).unwrap();
        assert!(matches!(
            eng.apply_entry(&ActionEntry::now(
                TargetRef::Rt(s_rt),
                vec![ElementaryAction::SetStreamEnabled {
                    stream_id: 1,
                    enabled: false
                }],
            )),
            Err(EngineError::BadTarget(_))
        ));
    }

    #[test]
    fn stats_count_activity() {
        let (mut eng, video, _) = engine_with_video_and_button();
        eng.prepare(video).unwrap();
        let rt = eng.new_rt(video).unwrap();
        eng.apply_entry(&ActionEntry::now(
            TargetRef::Rt(rt),
            vec![ElementaryAction::Run],
        ))
        .unwrap();
        assert_eq!(eng.stats.ingested, 2);
        assert_eq!(eng.stats.rt_created, 1);
        assert_eq!(eng.stats.actions_applied, 1);
        assert!(eng.stats.events_emitted >= 3);
    }
}
