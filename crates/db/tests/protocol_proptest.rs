//! Property tests for the client-server protocol: every request and
//! response round-trips the wire exactly; the decoder never panics on
//! noise; the keyword tree survives its wire form.

use bytes::Bytes;
use mits_db::index::KeywordNode;
use mits_db::{peek_req_id, DbError, KeywordTree, Request, Response};
use mits_media::{MediaFormat, MediaId, MediaObject, VideoDims};
use mits_mheg::{encode_object, ClassLibrary, GenericValue, MhegId, WireFormat};
use mits_sim::SimDuration;
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = MhegId> {
    (0u32..500, 0u64..10_000).prop_map(|(a, n)| MhegId::new(a, n))
}

fn arb_media() -> impl Strategy<Value = MediaObject> {
    (
        0u64..10_000,
        "[ -~]{0,30}",
        prop::sample::select(MediaFormat::ALL.to_vec()),
        0u64..100_000_000,
        (0u32..2000, 0u32..2000),
        prop::collection::vec(any::<u8>(), 0..500),
    )
        .prop_map(|(id, name, format, dur, (w, h), data)| {
            MediaObject::new(
                MediaId(id),
                name,
                format,
                SimDuration::from_micros(dur),
                VideoDims::new(w, h),
                Bytes::from(data),
            )
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::ListDocs),
        "[ -~]{0,40}".prop_map(|name| Request::GetDoc { name }),
        arb_id().prop_map(|id| Request::GetObject { id }),
        arb_id().prop_map(|root| Request::GetCourseware { root }),
        (0u64..10_000).prop_map(|m| Request::GetContent { media: MediaId(m) }),
        Just(Request::GetKeywordTree),
        ("[a-z/]{0,20}", any::<bool>())
            .prop_map(|(keyword, subtree)| Request::QueryKeyword { keyword, subtree }),
        arb_media().prop_map(|media| Request::PutContent { media }),
    ]
}

fn arb_tree() -> impl Strategy<Value = KeywordTree> {
    prop::collection::vec(("[a-z]{1,6}(/[a-z]{1,6}){0,2}", arb_id()), 0..12).prop_map(|pairs| {
        let mut t = KeywordTree::new();
        for (kw, id) in pairs {
            t.insert(&kw, id);
        }
        t
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        prop::collection::vec((arb_id(), "[ -~]{0,24}"), 0..10).prop_map(Response::DocList),
        arb_media().prop_map(Response::Content),
        arb_tree().prop_map(Response::KeywordTree),
        prop::collection::vec(arb_id(), 0..20).prop_map(Response::DocIds),
        Just(Response::Ack),
        "[ -~]{0,30}".prop_map(|s| Response::Err(DbError::NotFound(s))),
        "[ -~]{0,30}".prop_map(|s| Response::Err(DbError::Malformed(s))),
        "[ -~]{0,30}".prop_map(|s| Response::Err(DbError::Unavailable(s))),
    ]
}

fn arb_objects() -> impl Strategy<Value = Response> {
    prop::collection::vec(("[ -~]{0,12}", any::<i64>()), 0..4).prop_map(|values| {
        let mut lib = ClassLibrary::new(1);
        let objects = values
            .into_iter()
            .map(|(name, v)| {
                let id = lib.value_content(&name, GenericValue::Int(v));
                lib.get(id).unwrap().clone()
            })
            .collect();
        Response::Objects(objects)
    })
}

/// The single-buffer response encoding, written out field by field from
/// the wire format: the reference that [`Response::encode_parts`] must
/// reproduce as head followed by body.
fn encode_ref(resp: &Response, req_id: u64, epoch: u64, trace: u64) -> Vec<u8> {
    fn bytes(w: &mut Vec<u8>, b: &[u8]) {
        w.extend((b.len() as u32).to_be_bytes());
        w.extend(b);
    }
    fn id(w: &mut Vec<u8>, id: MhegId) {
        w.extend(id.app.to_be_bytes());
        w.extend(id.num.to_be_bytes());
    }
    fn node(w: &mut Vec<u8>, n: &KeywordNode) {
        w.extend((n.documents.len() as u32).to_be_bytes());
        for d in &n.documents {
            id(w, *d);
        }
        w.extend((n.children.len() as u32).to_be_bytes());
        for (name, child) in &n.children {
            bytes(w, name.as_bytes());
            node(w, child);
        }
    }
    let mut w = Vec::new();
    for v in [req_id, epoch, trace] {
        w.extend(v.to_be_bytes());
    }
    match resp {
        Response::DocList(list) => {
            w.push(1);
            w.extend((list.len() as u32).to_be_bytes());
            for (d, name) in list {
                id(&mut w, *d);
                bytes(&mut w, name.as_bytes());
            }
        }
        Response::Objects(objs) => {
            w.push(2);
            w.extend((objs.len() as u32).to_be_bytes());
            for o in objs {
                bytes(&mut w, &encode_object(o, WireFormat::Tlv));
            }
        }
        Response::Content(m) => {
            w.push(3);
            w.extend(m.id.0.to_be_bytes());
            bytes(&mut w, m.name.as_bytes());
            w.push(m.format.wire_tag());
            w.extend(m.duration.as_micros().to_be_bytes());
            w.extend(m.dims.width.to_be_bytes());
            w.extend(m.dims.height.to_be_bytes());
            bytes(&mut w, &m.data);
        }
        Response::KeywordTree(t) => {
            w.push(4);
            node(&mut w, t.root());
        }
        Response::DocIds(ids) => {
            w.push(5);
            w.extend((ids.len() as u32).to_be_bytes());
            for d in ids {
                id(&mut w, *d);
            }
        }
        Response::Ack => w.push(6),
        Response::Err(e) => {
            w.push(7);
            let (kind, msg) = match e {
                DbError::NotFound(s) => (1, s.as_str()),
                DbError::Malformed(s) => (2, s.as_str()),
                DbError::Unavailable(s) => (3, s.as_str()),
                DbError::UnexpectedResponse(want) => (2, *want),
            };
            w.push(kind);
            bytes(&mut w, msg.as_bytes());
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Head then body is the single-buffer encoding, byte for byte, for
    /// every response variant; only `Content` has a body; and the frame
    /// decodes back to the response.
    #[test]
    fn response_parts_are_the_single_buffer_encoding(
        resp in prop_oneof![arb_response(), arb_objects()],
        req_id in any::<u64>(),
        epoch in any::<u64>(),
        trace in any::<u64>(),
    ) {
        let (head, body) = resp.encode_parts(req_id, epoch, trace);
        prop_assert_eq!(body.is_some(), matches!(resp, Response::Content(_)));
        let mut wire = head.to_vec();
        wire.extend_from_slice(body.as_deref().unwrap_or_default());
        prop_assert_eq!(&wire, &encode_ref(&resp, req_id, epoch, trace));
        prop_assert_eq!(&resp.encode_with_epoch_traced(req_id, epoch, trace)[..], &wire[..]);
        let (env, got_epoch) = Response::decode_with_epoch(&wire).expect("decode");
        prop_assert_eq!((env.req_id, env.trace, got_epoch), (req_id, trace, epoch));
        prop_assert_eq!(env.body, resp);
    }

    #[test]
    fn requests_round_trip(req in arb_request(), req_id in any::<u64>()) {
        let wire = req.encode(req_id);
        let env = Request::decode(&wire).expect("decode");
        prop_assert_eq!(env.req_id, req_id);
        prop_assert_eq!(env.body, req);
    }

    #[test]
    fn responses_round_trip(resp in arb_response(), req_id in any::<u64>()) {
        let wire = resp.encode(req_id);
        let env = Response::decode(&wire).expect("decode");
        prop_assert_eq!(env.req_id, req_id);
        prop_assert_eq!(env.body, resp);
    }

    #[test]
    fn put_object_round_trips(value in any::<i64>(), name in "[ -~]{0,20}") {
        let mut lib = ClassLibrary::new(1);
        let id = lib.value_content(&name, GenericValue::Int(value));
        let object = lib.get(id).unwrap().clone();
        let req = Request::PutObject { object };
        let env = Request::decode(&req.encode(9)).expect("decode");
        prop_assert_eq!(env.body, req);
    }

    #[test]
    fn decoder_never_panics(noise in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&noise);
        let _ = Response::decode(&noise);
    }

    #[test]
    fn truncation_always_errors(resp in arb_response(), frac in 0.0f64..1.0) {
        let wire = resp.encode(1);
        let cut = ((wire.len().saturating_sub(1)) as f64 * frac) as usize;
        prop_assert!(Response::decode(&wire[..cut]).is_err());
    }

    // The retry machinery correlates corrupted frames by the id prefix;
    // that only works if every frame really leads with its req_id.
    #[test]
    fn peeked_id_matches_decoded_id(resp in arb_response(), req in arb_request(), req_id in any::<u64>()) {
        prop_assert_eq!(peek_req_id(&[resp.encode(req_id)]), Some(req_id));
        prop_assert_eq!(peek_req_id(&[req.encode(req_id)]), Some(req_id));
    }

    // A corrupted body must never decode into a *different* correlation
    // id: flip any byte past the id prefix — either the decode fails or
    // the id is intact.
    #[test]
    fn corruption_preserves_correlation(resp in arb_response(), pos in 8usize..4096, bit in 0u8..8) {
        let wire = resp.encode(77);
        let mut bent = wire.to_vec();
        if pos < bent.len() {
            bent[pos] ^= 1 << bit;
            if let Ok(env) = Response::decode(&bent) {
                prop_assert_eq!(env.req_id, 77);
            }
            prop_assert_eq!(peek_req_id(&[Bytes::from(bent)]), Some(77));
        }
    }
}
