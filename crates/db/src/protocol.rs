//! The client-server wire protocol (Fig 3.5).
//!
//! "A database server waits and listens for a service request from a
//! client. When such a request is received, the server retrieves objects
//! in the database according to the information provided by the client.
//! Then it establishes connections to the client and transmits the MHEG
//! objects or the content data through the network."
//!
//! Requests and responses travel as framed binary messages over the
//! reliable transport. MHEG objects ride in their own interchange (TLV)
//! encoding — the protocol never re-describes them; that is the whole
//! point of an interchange format.

use crate::index::KeywordTree;
use bytes::{BufMut, Bytes, BytesMut};
use mits_media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits_mheg::{decode_object, encode_object, MhegId, MhegObject, WireFormat};
use mits_sim::SimDuration;
use std::borrow::Cow;
use std::fmt;

/// Errors a server can return / decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The named thing does not exist.
    NotFound(String),
    /// The message could not be decoded.
    Malformed(String),
    /// The server is shedding load (queue past its overload threshold);
    /// the request is safe to retry after a backoff.
    Unavailable(String),
    /// The expected response did not have this shape (typed extraction
    /// on the wrong variant). Never travels on the wire.
    UnexpectedResponse(&'static str),
}

impl DbError {
    /// May an identical re-issue of the request succeed later?
    pub fn is_retryable(&self) -> bool {
        matches!(self, DbError::Unavailable(_))
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NotFound(s) => write!(f, "not found: {s}"),
            DbError::Malformed(s) => write!(f, "malformed message: {s}"),
            DbError::Unavailable(s) => write!(f, "server unavailable: {s}"),
            DbError::UnexpectedResponse(want) => write!(f, "expected {want} response"),
        }
    }
}

impl std::error::Error for DbError {}

/// The shape of a [`Request`], for per-operation accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RequestKind {
    ListDocs,
    GetDoc,
    GetObject,
    GetCourseware,
    GetContent,
    GetKeywordTree,
    QueryKeyword,
    PutObject,
    PutContent,
}

impl RequestKind {
    /// Stable human-readable name (paper spelling where one exists).
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::ListDocs => "get_list_doc",
            RequestKind::GetDoc => "get_selected_doc",
            RequestKind::GetObject => "get_object",
            RequestKind::GetCourseware => "get_courseware",
            RequestKind::GetContent => "get_content",
            RequestKind::GetKeywordTree => "get_keyword_tree",
            RequestKind::QueryKeyword => "get_doc_by_keyword",
            RequestKind::PutObject => "put_object",
            RequestKind::PutContent => "put_content",
        }
    }

    /// All kinds, for iteration in reports.
    pub const ALL: [RequestKind; 9] = [
        RequestKind::ListDocs,
        RequestKind::GetDoc,
        RequestKind::GetObject,
        RequestKind::GetCourseware,
        RequestKind::GetContent,
        RequestKind::GetKeywordTree,
        RequestKind::QueryKeyword,
        RequestKind::PutObject,
        RequestKind::PutContent,
    ];
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `Get_List_Doc()`: list all documents (containers).
    ListDocs,
    /// `Get_Selected_Doc(name)`: fetch a document's object closure by name.
    GetDoc {
        /// Document (container) name.
        name: String,
    },
    /// Fetch one object by id.
    GetObject {
        /// Object id.
        id: MhegId,
    },
    /// Fetch the full object closure of a courseware root.
    GetCourseware {
        /// Root (container or composite) id.
        root: MhegId,
    },
    /// Fetch bulk content data.
    GetContent {
        /// Media id.
        media: MediaId,
    },
    /// `GetKeywordTree()`.
    GetKeywordTree,
    /// `GetDocByKeyword(keyword)`; `subtree` widens to descendants.
    QueryKeyword {
        /// Keyword path.
        keyword: String,
        /// Include descendant keywords.
        subtree: bool,
    },
    /// Author site: store an object.
    PutObject {
        /// The object.
        object: MhegObject,
    },
    /// Production center: store a media object.
    PutContent {
        /// The media object.
        media: MediaObject,
    },
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Document list: (id, name) pairs.
    DocList(Vec<(MhegId, String)>),
    /// One or more MHEG objects.
    Objects(Vec<MhegObject>),
    /// A media object with payload.
    Content(MediaObject),
    /// The keyword taxonomy.
    KeywordTree(KeywordTree),
    /// Document ids matching a query.
    DocIds(Vec<MhegId>),
    /// Write acknowledged.
    Ack,
    /// Failure.
    Err(DbError),
}

impl Request {
    /// The request's shape.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::ListDocs => RequestKind::ListDocs,
            Request::GetDoc { .. } => RequestKind::GetDoc,
            Request::GetObject { .. } => RequestKind::GetObject,
            Request::GetCourseware { .. } => RequestKind::GetCourseware,
            Request::GetContent { .. } => RequestKind::GetContent,
            Request::GetKeywordTree => RequestKind::GetKeywordTree,
            Request::QueryKeyword { .. } => RequestKind::QueryKeyword,
            Request::PutObject { .. } => RequestKind::PutObject,
            Request::PutContent { .. } => RequestKind::PutContent,
        }
    }
}

impl Response {
    /// Typed extraction: document list.
    pub fn into_doc_list(self) -> Result<Vec<(MhegId, String)>, DbError> {
        match self {
            Response::DocList(list) => Ok(list),
            Response::Err(e) => Err(e),
            _ => Err(DbError::UnexpectedResponse("doc list")),
        }
    }

    /// Typed extraction: object set.
    pub fn into_objects(self) -> Result<Vec<MhegObject>, DbError> {
        match self {
            Response::Objects(objs) => Ok(objs),
            Response::Err(e) => Err(e),
            _ => Err(DbError::UnexpectedResponse("objects")),
        }
    }

    /// Typed extraction: media content.
    pub fn into_content(self) -> Result<MediaObject, DbError> {
        match self {
            Response::Content(m) => Ok(m),
            Response::Err(e) => Err(e),
            _ => Err(DbError::UnexpectedResponse("content")),
        }
    }

    /// Typed extraction: keyword taxonomy.
    pub fn into_keyword_tree(self) -> Result<KeywordTree, DbError> {
        match self {
            Response::KeywordTree(t) => Ok(t),
            Response::Err(e) => Err(e),
            _ => Err(DbError::UnexpectedResponse("keyword tree")),
        }
    }

    /// Typed extraction: matching document ids.
    pub fn into_doc_ids(self) -> Result<Vec<MhegId>, DbError> {
        match self {
            Response::DocIds(ids) => Ok(ids),
            Response::Err(e) => Err(e),
            _ => Err(DbError::UnexpectedResponse("doc ids")),
        }
    }

    /// Typed extraction: write acknowledgement.
    pub fn into_ack(self) -> Result<(), DbError> {
        match self {
            Response::Ack => Ok(()),
            Response::Err(e) => Err(e),
            _ => Err(DbError::UnexpectedResponse("ack")),
        }
    }
}

/// Read the correlation id off a frame (its parts, in order) without
/// decoding the body.
///
/// The `req_id` is always the first big-endian `u64` on the wire, so a
/// client can still correlate (and fail) a pending request whose response
/// body arrives corrupted.
pub fn peek_req_id(frame: &[Bytes]) -> Option<u64> {
    R::new(frame).u64().ok()
}

/// Read a response's trace context off a frame (its parts, in order)
/// without decoding the body. Returns the raw span id (0 = untraced); the
/// trace rides right after the correlation id and epoch.
pub fn peek_response_trace(frame: &[Bytes]) -> Option<u64> {
    let mut r = R::new(frame);
    r.take(16).ok()?;
    r.u64().ok()
}

/// A correlated protocol message (request or response share the id).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<T> {
    /// Correlation id chosen by the client.
    pub req_id: u64,
    /// Trace context: the client-side request span id, or 0 when the
    /// issuer is not tracing. Echoed verbatim by the server so every
    /// hop of a query — including retries and failovers — lands under
    /// one span tree.
    pub trace: u64,
    /// Payload.
    pub body: T,
}

// ---------- wire helpers ----------

struct W(BytesMut);

impl W {
    fn new() -> Self {
        W(BytesMut::with_capacity(128))
    }
    fn u8(&mut self, v: u8) {
        self.0.put_u8(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.put_u32(v);
    }
    fn u64(&mut self, v: u64) {
        self.0.put_u64(v);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.put_slice(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.0.put_slice(b);
    }
    fn id(&mut self, id: MhegId) {
        self.u32(id.app);
        self.u64(id.num);
    }
    fn fin(self) -> Bytes {
        self.0.freeze()
    }
}

/// Reader over a frame held as parts (their concatenation, in order).
/// Fields inside one part are read in place, and byte fields come back
/// as views of it; only a field that straddles two parts is copied,
/// once.
struct R<'a> {
    parts: &'a [Bytes],
    /// The part being read and the offset within it.
    i: usize,
    p: usize,
}

type DR<T> = Result<T, DbError>;

impl<'a> R<'a> {
    fn new(parts: &'a [Bytes]) -> Self {
        R { parts, i: 0, p: 0 }
    }

    /// Skip the parts already read to their end.
    fn settle(&mut self) {
        while self
            .parts
            .get(self.i)
            .is_some_and(|part| self.p == part.len())
        {
            self.i += 1;
            self.p = 0;
        }
    }

    /// The next `n` bytes, as a view when they lie in one part, else
    /// copied once into a buffer of their own.
    fn view(&mut self, n: usize) -> DR<Bytes> {
        self.settle();
        match self.parts.get(self.i) {
            Some(part) if part.len() - self.p >= n => {
                let v = part.slice(self.p..self.p + n);
                self.p += n;
                Ok(v)
            }
            _ => Ok(Bytes::concat(self.pieces(n)?)),
        }
    }

    /// The next `n` bytes, borrowed when they lie in one part.
    fn take(&mut self, n: usize) -> DR<Cow<'a, [u8]>> {
        self.settle();
        if let Some(part) = self.parts.get(self.i) {
            if part.len() - self.p >= n {
                let s = &part[self.p..self.p + n];
                self.p += n;
                return Ok(Cow::Borrowed(s));
            }
        }
        Ok(Cow::Owned(self.pieces(n)?.concat()))
    }

    /// The next `n` bytes as the pieces of the parts they lie in. Fails
    /// before anything is copied when the frame is shorter.
    fn pieces(&mut self, mut n: usize) -> DR<Vec<&'a [u8]>> {
        let parts = self.parts;
        let mut out = Vec::new();
        while n > 0 {
            self.settle();
            let part = parts.get(self.i).ok_or_else(truncated)?;
            let k = (part.len() - self.p).min(n);
            out.push(&part[self.p..self.p + k]);
            self.p += k;
            n -= k;
        }
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> DR<[u8; N]> {
        Ok(self.take(N)?.as_ref().try_into().expect("N bytes"))
    }
    fn u8(&mut self) -> DR<u8> {
        Ok(self.array::<1>()?[0])
    }
    fn u32(&mut self) -> DR<u32> {
        Ok(u32::from_be_bytes(self.array()?))
    }
    fn u64(&mut self) -> DR<u64> {
        Ok(u64::from_be_bytes(self.array()?))
    }
    fn str(&mut self) -> DR<String> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?.into_owned();
        String::from_utf8(raw).map_err(|e| DbError::Malformed(e.to_string()))
    }
    fn bytes(&mut self) -> DR<Bytes> {
        let n = self.u32()? as usize;
        self.view(n)
    }
    fn id(&mut self) -> DR<MhegId> {
        Ok(MhegId::new(self.u32()?, self.u64()?))
    }
    fn done(&mut self) -> DR<()> {
        self.settle();
        if self.i == self.parts.len() {
            Ok(())
        } else {
            Err(DbError::Malformed("trailing bytes".into()))
        }
    }
}

fn truncated() -> DbError {
    DbError::Malformed("truncated".into())
}

/// Every media field up to and including the data's length prefix: the
/// data itself follows on the wire.
fn write_media_head(w: &mut W, m: &MediaObject) {
    w.u64(m.id.0);
    w.str(&m.name);
    w.u8(m.format.wire_tag());
    w.u64(m.duration.as_micros());
    w.u32(m.dims.width);
    w.u32(m.dims.height);
    w.u32(m.data.len() as u32);
}

fn write_media(w: &mut W, m: &MediaObject) {
    write_media_head(w, m);
    w.0.put_slice(&m.data);
}

fn read_media(r: &mut R<'_>) -> DR<MediaObject> {
    let id = MediaId(r.u64()?);
    let name = r.str()?;
    let format = MediaFormat::from_wire_tag(r.u8()?)
        .ok_or_else(|| DbError::Malformed("bad media format".into()))?;
    let duration = SimDuration::from_micros(r.u64()?);
    let dims = VideoDims::new(r.u32()?, r.u32()?);
    let data = r.bytes()?;
    Ok(MediaObject::new(id, name, format, duration, dims, data))
}

fn write_object(w: &mut W, o: &MhegObject) {
    let enc = encode_object(o, WireFormat::Tlv);
    w.bytes(&enc);
}

fn read_object(r: &mut R<'_>) -> DR<MhegObject> {
    let n = r.u32()? as usize;
    let raw = r.take(n)?;
    decode_object(&raw, WireFormat::Tlv).map_err(|e| DbError::Malformed(e.to_string()))
}

fn write_tree_node(w: &mut W, node: &crate::index::KeywordNode) {
    w.u32(node.documents.len() as u32);
    for d in &node.documents {
        w.id(*d);
    }
    w.u32(node.children.len() as u32);
    for (name, child) in &node.children {
        w.str(name);
        write_tree_node(w, child);
    }
}

fn read_tree_into(r: &mut R<'_>, tree: &mut KeywordTree, path: &str) -> DR<()> {
    let ndocs = r.u32()? as usize;
    for _ in 0..ndocs {
        let d = r.id()?;
        tree.insert(path, d);
    }
    let nchildren = r.u32()? as usize;
    for _ in 0..nchildren {
        let name = r.str()?;
        let sub = if path.is_empty() {
            name.clone()
        } else {
            format!("{path}/{name}")
        };
        read_tree_into(r, tree, &sub)?;
    }
    Ok(())
}

// ---------- request codec ----------

impl Request {
    /// Encode an enveloped request with no trace context.
    pub fn encode(&self, req_id: u64) -> Bytes {
        self.encode_traced(req_id, 0)
    }

    /// Encode an enveloped request carrying a trace context (the
    /// client's request span id; 0 = untraced). The trace rides right
    /// after the correlation id, before the operation tag.
    pub fn encode_traced(&self, req_id: u64, trace: u64) -> Bytes {
        let mut w = W::new();
        w.u64(req_id);
        w.u64(trace);
        match self {
            Request::ListDocs => w.u8(1),
            Request::GetDoc { name } => {
                w.u8(2);
                w.str(name);
            }
            Request::GetObject { id } => {
                w.u8(3);
                w.id(*id);
            }
            Request::GetCourseware { root } => {
                w.u8(4);
                w.id(*root);
            }
            Request::GetContent { media } => {
                w.u8(5);
                w.u64(media.0);
            }
            Request::GetKeywordTree => w.u8(6),
            Request::QueryKeyword { keyword, subtree } => {
                w.u8(7);
                w.str(keyword);
                w.u8(*subtree as u8);
            }
            Request::PutObject { object } => {
                w.u8(8);
                write_object(&mut w, object);
            }
            Request::PutContent { media } => {
                w.u8(9);
                write_media(&mut w, media);
            }
        }
        w.fin()
    }

    /// Decode an enveloped request from one buffer (copied first).
    pub fn decode(data: &[u8]) -> DR<Envelope<Request>> {
        Self::decode_parts(&[Bytes::copy_from_slice(data)])
    }

    /// Decode an enveloped request from its frame's parts; media bodies
    /// are views of the parts unless they straddle two.
    pub fn decode_parts(frame: &[Bytes]) -> DR<Envelope<Request>> {
        let mut r = R::new(frame);
        let req_id = r.u64()?;
        let trace = r.u64()?;
        let body = match r.u8()? {
            1 => Request::ListDocs,
            2 => Request::GetDoc { name: r.str()? },
            3 => Request::GetObject { id: r.id()? },
            4 => Request::GetCourseware { root: r.id()? },
            5 => Request::GetContent {
                media: MediaId(r.u64()?),
            },
            6 => Request::GetKeywordTree,
            7 => Request::QueryKeyword {
                keyword: r.str()?,
                subtree: r.u8()? != 0,
            },
            8 => Request::PutObject {
                object: read_object(&mut r)?,
            },
            9 => Request::PutContent {
                media: read_media(&mut r)?,
            },
            t => return Err(DbError::Malformed(format!("unknown request tag {t}"))),
        };
        r.done()?;
        Ok(Envelope {
            req_id,
            trace,
            body,
        })
    }
}

// ---------- response codec ----------

impl Response {
    /// Encode an enveloped response at failover epoch 0 (single-server
    /// deployments and tests).
    pub fn encode(&self, req_id: u64) -> Bytes {
        self.encode_with_epoch(req_id, 0)
    }

    /// Encode an enveloped response stamped with the answering server's
    /// failover `epoch`. The epoch rides right after the correlation id,
    /// so clients can reject a stale primary's answer without decoding
    /// the body.
    pub fn encode_with_epoch(&self, req_id: u64, epoch: u64) -> Bytes {
        self.encode_with_epoch_traced(req_id, epoch, 0)
    }

    /// Encode an enveloped response stamped with the failover `epoch`
    /// and echoing the request's trace context (0 = untraced), as one
    /// buffer: the concatenation of [`Response::encode_parts`].
    pub fn encode_with_epoch_traced(&self, req_id: u64, epoch: u64, trace: u64) -> Bytes {
        match self.encode_parts(req_id, epoch, trace) {
            (head, None) => head,
            (head, Some(body)) => Bytes::concat([&head[..], &body[..]]),
        }
    }

    /// Encode an enveloped response stamped with the failover `epoch`
    /// and echoing the request's trace context (0 = untraced). The
    /// trace rides after the epoch so [`peek_response_trace`] can read
    /// it without decoding the body.
    ///
    /// The frame comes back in two parts that the wire carries in order:
    /// a small head and, for [`Response::Content`], a body that is the
    /// stored media itself — a view of [`MediaObject::data`], so serving
    /// a clip copies none of it. Every other response is all head.
    pub fn encode_parts(&self, req_id: u64, epoch: u64, trace: u64) -> (Bytes, Option<Bytes>) {
        let mut w = W::new();
        w.u64(req_id);
        w.u64(epoch);
        w.u64(trace);
        let mut body = None;
        match self {
            Response::DocList(list) => {
                w.u8(1);
                w.u32(list.len() as u32);
                for (id, name) in list {
                    w.id(*id);
                    w.str(name);
                }
            }
            Response::Objects(objs) => {
                w.u8(2);
                w.u32(objs.len() as u32);
                for o in objs {
                    write_object(&mut w, o);
                }
            }
            Response::Content(m) => {
                w.u8(3);
                write_media_head(&mut w, m);
                body = Some(m.data.clone());
            }
            Response::KeywordTree(t) => {
                w.u8(4);
                write_tree_node(&mut w, t.root());
            }
            Response::DocIds(ids) => {
                w.u8(5);
                w.u32(ids.len() as u32);
                for id in ids {
                    w.id(*id);
                }
            }
            Response::Ack => w.u8(6),
            Response::Err(e) => {
                w.u8(7);
                match e {
                    DbError::NotFound(s) => {
                        w.u8(1);
                        w.str(s);
                    }
                    DbError::Malformed(s) => {
                        w.u8(2);
                        w.str(s);
                    }
                    DbError::Unavailable(s) => {
                        w.u8(3);
                        w.str(s);
                    }
                    // Local-only error; degrade to a malformed report if it
                    // somehow reaches the wire.
                    DbError::UnexpectedResponse(want) => {
                        w.u8(2);
                        w.str(want);
                    }
                }
            }
        }
        (w.fin(), body)
    }

    /// Decode an enveloped response, discarding the epoch stamp.
    pub fn decode(data: &[u8]) -> DR<Envelope<Response>> {
        Ok(Self::decode_with_epoch(data)?.0)
    }

    /// Decode an enveloped response from one buffer (copied first), along
    /// with the server's failover epoch.
    pub fn decode_with_epoch(data: &[u8]) -> DR<(Envelope<Response>, u64)> {
        Self::decode_parts(&[Bytes::copy_from_slice(data)])
    }

    /// Decode an enveloped response from its frame's parts, along with
    /// the server's failover epoch. A `Content` body that lies in one part
    /// — on a clean path, the window of the server's stored media that
    /// [`Response::encode_parts`] sent — comes back as a view of it.
    pub fn decode_parts(frame: &[Bytes]) -> DR<(Envelope<Response>, u64)> {
        let mut r = R::new(frame);
        let req_id = r.u64()?;
        let epoch = r.u64()?;
        let trace = r.u64()?;
        let body = match r.u8()? {
            1 => {
                let n = r.u32()? as usize;
                let mut list = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let id = r.id()?;
                    let name = r.str()?;
                    list.push((id, name));
                }
                Response::DocList(list)
            }
            2 => {
                let n = r.u32()? as usize;
                let mut objs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    objs.push(read_object(&mut r)?);
                }
                Response::Objects(objs)
            }
            3 => Response::Content(read_media(&mut r)?),
            4 => {
                let mut tree = KeywordTree::new();
                read_tree_into(&mut r, &mut tree, "")?;
                Response::KeywordTree(tree)
            }
            5 => {
                let n = r.u32()? as usize;
                let mut ids = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    ids.push(r.id()?);
                }
                Response::DocIds(ids)
            }
            6 => Response::Ack,
            7 => {
                let kind = r.u8()?;
                let msg = r.str()?;
                Response::Err(match kind {
                    1 => DbError::NotFound(msg),
                    3 => DbError::Unavailable(msg),
                    _ => DbError::Malformed(msg),
                })
            }
            t => return Err(DbError::Malformed(format!("unknown response tag {t}"))),
        };
        r.done()?;
        Ok((
            Envelope {
                req_id,
                trace,
                body,
            },
            epoch,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mits_mheg::{ClassLibrary, GenericValue};
    use std::sync::Arc;

    fn sample_object() -> MhegObject {
        let mut lib = ClassLibrary::new(4);
        let id = lib.value_content("v", GenericValue::Str("x<y>&\"".into()));
        lib.get(id).unwrap().clone()
    }

    fn sample_media() -> MediaObject {
        MediaObject::new(
            MediaId(12),
            "intro.mpg",
            MediaFormat::Mpeg,
            SimDuration::from_secs(30),
            VideoDims::new(320, 240),
            Bytes::from(vec![1, 2, 3, 4, 5]),
        )
    }

    #[test]
    fn all_requests_round_trip() {
        let reqs = vec![
            Request::ListDocs,
            Request::GetDoc {
                name: "ATM Course".into(),
            },
            Request::GetObject {
                id: MhegId::new(3, 9),
            },
            Request::GetCourseware {
                root: MhegId::new(3, 1),
            },
            Request::GetContent { media: MediaId(42) },
            Request::GetKeywordTree,
            Request::QueryKeyword {
                keyword: "telecom/atm".into(),
                subtree: true,
            },
            Request::PutObject {
                object: sample_object(),
            },
            Request::PutContent {
                media: sample_media(),
            },
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let wire = req.encode(i as u64);
            let env = Request::decode(&wire).unwrap_or_else(|e| panic!("{req:?}: {e}"));
            assert_eq!(env.req_id, i as u64);
            assert_eq!(env.body, req);
        }
    }

    #[test]
    fn all_responses_round_trip() {
        let mut tree = KeywordTree::new();
        tree.insert("telecom/atm", MhegId::new(1, 1));
        tree.insert("telecom", MhegId::new(1, 2));
        let resps = vec![
            Response::DocList(vec![
                (MhegId::new(1, 1), "A".into()),
                (MhegId::new(1, 2), "B".into()),
            ]),
            Response::Objects(vec![sample_object()]),
            Response::Content(sample_media()),
            Response::KeywordTree(tree),
            Response::DocIds(vec![MhegId::new(1, 1)]),
            Response::Ack,
            Response::Err(DbError::NotFound("nope".into())),
            Response::Err(DbError::Malformed("bad".into())),
            Response::Err(DbError::Unavailable("queue full".into())),
        ];
        for (i, resp) in resps.into_iter().enumerate() {
            let wire = resp.encode(100 + i as u64);
            let env = Response::decode(&wire).unwrap_or_else(|e| panic!("{resp:?}: {e}"));
            assert_eq!(env.req_id, 100 + i as u64);
            assert_eq!(env.body, resp);
        }
    }

    #[test]
    fn content_body_is_the_stored_media() {
        let media = MediaObject::new(
            MediaId(7),
            "lecture.mpg",
            MediaFormat::Mpeg,
            SimDuration::from_secs(30),
            VideoDims::new(320, 240),
            Bytes::from(vec![9u8; 200 * 1024]),
        );
        let resp = Response::Content(media.clone());
        let (head, body) = resp.encode_parts(1, 2, 3);
        let body = body.expect("content carries a body");
        assert!(Arc::ptr_eq(body.shared(), media.data.shared()));
        assert_eq!(body.shared_range(), media.data.shared_range());
        assert!(head.len() < 128, "head is {} bytes", head.len());
        assert_eq!(Response::Ack.encode_parts(1, 2, 3).1, None);
        // Decoded from those parts, the data is the stored media again.
        let (env, epoch) = Response::decode_parts(&[head.clone(), body.clone()]).unwrap();
        assert_eq!((env.req_id, epoch, env.trace), (1, 2, 3));
        let got = env.body.into_content().unwrap();
        assert!(Arc::ptr_eq(got.data.shared(), media.data.shared()));
        assert_eq!(got, media);
    }

    #[test]
    fn any_cut_of_a_frame_decodes_alike() {
        let media = sample_media();
        let req = Request::PutContent {
            media: media.clone(),
        };
        let resps = [
            Response::Content(media),
            Response::Objects(vec![sample_object(), sample_object()]),
            Response::Err(DbError::NotFound("gone".into())),
        ];
        for resp in resps {
            let wire = resp.encode_with_epoch_traced(9, 4, 6);
            for a in 0..=wire.len() {
                for b in (a..=wire.len()).step_by(7) {
                    let cut = [wire.slice(..a), wire.slice(a..b), wire.slice(b..)];
                    let (env, epoch) = Response::decode_parts(&cut).unwrap();
                    assert_eq!((env.req_id, epoch, env.trace), (9, 4, 6));
                    assert_eq!(env.body, resp, "cut at {a}, {b}");
                }
                let short = [wire.slice(..a.min(wire.len() - 1)), Bytes::new()];
                assert!(Response::decode_parts(&short).is_err(), "cut {a}");
            }
        }
        let wire = req.encode_traced(3, 8);
        for a in 0..=wire.len() {
            let env = Request::decode_parts(&[wire.slice(..a), wire.slice(a..)]).unwrap();
            assert_eq!((env.req_id, env.trace, &env.body), (3, 8, &req));
        }
    }

    #[test]
    fn truncation_rejected() {
        let wire = Request::GetDoc {
            name: "hello".into(),
        }
        .encode(1);
        for cut in 0..wire.len() {
            assert!(Request::decode(&wire[..cut]).is_err(), "cut {cut}");
        }
        let wire = Response::Content(sample_media()).encode(1);
        for cut in 0..wire.len() {
            assert!(Response::decode(&wire[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut wire = Request::ListDocs.encode(1).to_vec();
        wire.push(0);
        assert!(Request::decode(&wire).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        let mut w = W::new();
        w.u64(1);
        w.u64(0); // trace
        w.u8(200);
        assert!(Request::decode(&w.fin()).is_err());
    }

    #[test]
    fn trace_context_round_trips_on_both_directions() {
        let wire = Request::ListDocs.encode_traced(5, 77);
        let env = Request::decode(&wire).unwrap();
        assert_eq!((env.req_id, env.trace), (5, 77));
        // The untraced shim stamps 0.
        assert_eq!(
            Request::decode(&Request::ListDocs.encode(5)).unwrap().trace,
            0
        );

        let wire = Response::Ack.encode_with_epoch_traced(5, 3, 77);
        assert_eq!(peek_req_id(std::slice::from_ref(&wire)), Some(5));
        assert_eq!(peek_response_trace(std::slice::from_ref(&wire)), Some(77));
        let (env, epoch) = Response::decode_with_epoch(&wire).unwrap();
        assert_eq!((env.req_id, epoch, env.trace), (5, 3, 77));
        assert_eq!(peek_response_trace(&[wire.slice(..20)]), None);
        // The envelope may straddle parts.
        let cut = [wire.slice(..3), wire.slice(3..19), wire.slice(19..)];
        assert_eq!(peek_req_id(&cut), Some(5));
        assert_eq!(peek_response_trace(&cut), Some(77));
    }

    #[test]
    fn epoch_rides_after_the_correlation_id() {
        let wire = Response::Ack.encode_with_epoch(7, 42);
        assert_eq!(peek_req_id(std::slice::from_ref(&wire)), Some(7));
        let (env, epoch) = Response::decode_with_epoch(&wire).unwrap();
        assert_eq!((env.req_id, epoch), (7, 42));
        assert_eq!(env.body, Response::Ack);
        // The epoch-less shims agree: encode stamps 0, decode discards.
        let (env, epoch) = Response::decode_with_epoch(&Response::Ack.encode(9)).unwrap();
        assert_eq!((env.req_id, epoch), (9, 0));
        assert_eq!(Response::decode(&wire).unwrap().req_id, 7);
    }
}
