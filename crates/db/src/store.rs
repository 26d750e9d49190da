//! MEDIASTORE / MEDIAFILE — the object and content stores (§5.1.1).
//!
//! Thread-safe (parking_lot RwLocks) so integration tests can hammer one
//! server from many client threads, as the real multi-student deployment
//! would.

use bytes::Bytes;
use mits_media::{MediaId, MediaObject};
use mits_mheg::{MhegId, MhegObject, ObjectBody};
use parking_lot::RwLock;
use std::collections::HashMap;

/// The MHEG object store (scenario database).
#[derive(Default)]
pub struct ObjectStore {
    objects: RwLock<HashMap<MhegId, MhegObject>>,
}

/// A consistent copy of the map; values share payloads through `Bytes`.
impl Clone for ObjectStore {
    fn clone(&self) -> Self {
        ObjectStore {
            objects: RwLock::new(self.objects.read().clone()),
        }
    }
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or update an object. Updating bumps the stored version so
    /// "course content can be updated at anytime" (§3.2) is observable.
    pub fn put(&self, mut obj: MhegObject) -> u32 {
        let mut map = self.objects.write();
        if let Some(prev) = map.get(&obj.id) {
            obj.info.version = prev.info.version + 1;
        }
        let v = obj.info.version;
        map.insert(obj.id, obj);
        v
    }

    /// The stored version of an object, without copying it.
    pub fn version_of(&self, id: MhegId) -> Option<u32> {
        self.objects.read().get(&id).map(|o| o.info.version)
    }

    /// Compare-and-set put: succeeds only when the stored version still
    /// equals `expected` (`None` = not stored yet), in which case the
    /// object is stored at `expected + 1` (or 0 for a fresh insert) and
    /// that version is returned. On a mismatch nothing changes and the
    /// *current* version is returned as the error — the caller can see
    /// exactly what raced it. Replica replay uses this so a re-applied
    /// record can never double-bump a version.
    pub fn put_if_version(
        &self,
        mut obj: MhegObject,
        expected: Option<u32>,
    ) -> Result<u32, Option<u32>> {
        let mut map = self.objects.write();
        let current = map.get(&obj.id).map(|o| o.info.version);
        if current != expected {
            return Err(current);
        }
        obj.info.version = match expected {
            Some(v) => v + 1,
            None => 0,
        };
        let v = obj.info.version;
        map.insert(obj.id, obj);
        Ok(v)
    }

    /// Store an object exactly as given, version included — the
    /// snapshot/replay bootstrap path, which must reproduce recorded
    /// versions rather than re-derive them.
    pub fn put_exact(&self, obj: MhegObject) {
        self.objects.write().insert(obj.id, obj);
    }

    /// Fetch a copy of an object.
    pub fn get(&self, id: MhegId) -> Option<MhegObject> {
        self.objects.read().get(&id).cloned()
    }

    /// Remove an object.
    pub fn remove(&self, id: MhegId) -> bool {
        self.objects.write().remove(&id).is_some()
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.objects.read().is_empty()
    }

    /// Ids of all container objects — the "documents" the list API shows.
    pub fn list_containers(&self) -> Vec<(MhegId, String)> {
        let map = self.objects.read();
        let mut out: Vec<(MhegId, String)> = map
            .values()
            .filter(|o| matches!(o.body, ObjectBody::Container(_)))
            .map(|o| (o.id, o.info.name.clone()))
            .collect();
        out.sort();
        out
    }

    /// Transitive closure of object references from `root` (the shipment
    /// set for a courseware fetch). The root is included; unknown
    /// references are skipped.
    pub fn closure(&self, root: MhegId) -> Vec<MhegObject> {
        let map = self.objects.read();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            if let Some(obj) = map.get(&id) {
                stack.extend(obj.referenced_objects());
                out.push(obj.clone());
            }
        }
        // Deterministic order for the wire.
        out.sort_by_key(|o| o.id);
        out
    }

    /// Media ids referenced by the closure of `root`.
    pub fn media_closure(&self, root: MhegId) -> Vec<MediaId> {
        let mut media: Vec<MediaId> = self
            .closure(root)
            .iter()
            .filter_map(|o| o.referenced_media())
            .collect();
        media.sort();
        media.dedup();
        media
    }

    /// Visit every object (index building).
    pub fn for_each(&self, mut f: impl FnMut(&MhegObject)) {
        for obj in self.objects.read().values() {
            f(obj);
        }
    }
}

/// The bulk content store (MEDIAFILE).
#[derive(Default)]
pub struct ContentStore {
    media: RwLock<HashMap<MediaId, MediaObject>>,
}

/// A consistent copy of the map; payloads are shared, not copied.
impl Clone for ContentStore {
    fn clone(&self) -> Self {
        ContentStore {
            media: RwLock::new(self.media.read().clone()),
        }
    }
}

impl ContentStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a media object.
    pub fn put(&self, obj: MediaObject) {
        self.media.write().insert(obj.id, obj);
    }

    /// Fetch a media object.
    pub fn get(&self, id: MediaId) -> Option<MediaObject> {
        self.media.read().get(&id).cloned()
    }

    /// Fetch only the payload bytes.
    pub fn get_data(&self, id: MediaId) -> Option<Bytes> {
        self.media.read().get(&id).map(|m| m.data.clone())
    }

    /// Payload size without fetching.
    pub fn size_of(&self, id: MediaId) -> Option<usize> {
        self.media.read().get(&id).map(|m| m.data.len())
    }

    /// Number of stored media objects.
    pub fn len(&self) -> usize {
        self.media.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.media.read().is_empty()
    }

    /// Total stored payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.media
            .read()
            .values()
            .map(|m| m.data.len() as u64)
            .sum()
    }

    /// Visit every media object (checkpointing).
    pub fn for_each(&self, mut f: impl FnMut(&MediaObject)) {
        for m in self.media.read().values() {
            f(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mits_mheg::{ClassLibrary, GenericValue};

    fn store_with_course() -> (ObjectStore, MhegId, Vec<MhegId>) {
        let mut lib = ClassLibrary::new(1);
        let a = lib.value_content("a", GenericValue::Int(1));
        let b = lib.value_content("b", GenericValue::Int(2));
        let scene = lib.composite("scene", vec![a, b], vec![], vec![]);
        let course = lib.container("course", vec![scene]);
        let store = ObjectStore::new();
        for o in lib.into_objects() {
            store.put(o);
        }
        (store, course, vec![a, b, scene])
    }

    #[test]
    fn put_get_round_trip() {
        let (store, course, _) = store_with_course();
        let obj = store.get(course).expect("stored");
        assert_eq!(obj.id, course);
        assert_eq!(store.len(), 4);
        assert!(store.get(MhegId::new(9, 9)).is_none());
    }

    #[test]
    fn update_bumps_version() {
        let (store, course, _) = store_with_course();
        let obj = store.get(course).unwrap();
        assert_eq!(obj.info.version, 0);
        let v1 = store.put(obj.clone());
        assert_eq!(v1, 1);
        let v2 = store.put(obj);
        assert_eq!(v2, 2);
        assert_eq!(store.get(course).unwrap().info.version, 2);
    }

    #[test]
    fn put_if_version_is_compare_and_set() {
        let (store, course, _) = store_with_course();
        let obj = store.get(course).unwrap();
        assert_eq!(store.version_of(course), Some(0));
        // Matching expectation: stored at expected + 1.
        assert_eq!(store.put_if_version(obj.clone(), Some(0)), Ok(1));
        assert_eq!(store.version_of(course), Some(1));
        // Stale expectation: rejected, current version reported, state
        // untouched — a re-applied replica record cannot double-bump.
        assert_eq!(store.put_if_version(obj.clone(), Some(0)), Err(Some(1)));
        assert_eq!(store.version_of(course), Some(1));
        // Expecting absence of a present object also fails.
        assert_eq!(store.put_if_version(obj.clone(), None), Err(Some(1)));
        // Fresh insert via CAS lands at version 0.
        let mut fresh = obj.clone();
        fresh.id = MhegId::new(8, 8);
        fresh.info.version = 99; // ignored: CAS derives the version
        assert_eq!(store.put_if_version(fresh, None), Ok(0));
        assert_eq!(store.version_of(MhegId::new(8, 8)), Some(0));
    }

    #[test]
    fn put_exact_preserves_recorded_version() {
        let (store, course, _) = store_with_course();
        let mut obj = store.get(course).unwrap();
        obj.info.version = 41;
        store.put_exact(obj);
        assert_eq!(store.version_of(course), Some(41));
        // A normal put still bumps from the exact version.
        let obj = store.get(course).unwrap();
        assert_eq!(store.put(obj), 42);
    }

    #[test]
    fn closure_walks_references() {
        let (store, course, members) = store_with_course();
        let closure = store.closure(course);
        assert_eq!(closure.len(), 4, "course + scene + a + b");
        for m in members {
            assert!(closure.iter().any(|o| o.id == m), "{m} in closure");
        }
    }

    #[test]
    fn closure_handles_cycles_and_dangling() {
        let mut lib = ClassLibrary::new(2);
        let a = lib.value_content("a", GenericValue::Int(1));
        // Composite referencing itself and a dangling id.
        let weird = lib.composite("weird", vec![a, MhegId::new(2, 999)], vec![], vec![]);
        let store = ObjectStore::new();
        let mut objs = lib.into_objects();
        // Introduce a cycle: make the composite include itself.
        if let ObjectBody::Composite(c) = &mut objs[1].body {
            c.components.push(weird);
        }
        for o in objs {
            store.put(o);
        }
        let closure = store.closure(weird);
        assert_eq!(closure.len(), 2, "self-cycle and dangling ref tolerated");
    }

    #[test]
    fn list_containers_only() {
        let (store, course, _) = store_with_course();
        let list = store.list_containers();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0], (course, "course".to_string()));
    }

    #[test]
    fn media_closure_dedups() {
        use bytes::Bytes;
        use mits_media::{MediaFormat, MediaObject, VideoDims};
        use mits_sim::SimDuration;
        let m = MediaObject::new(
            MediaId(5),
            "x.mpg",
            MediaFormat::Mpeg,
            SimDuration::from_secs(1),
            VideoDims::new(1, 1),
            Bytes::from_static(b"z"),
        );
        let mut lib = ClassLibrary::new(3);
        let c1 = lib.media_content(&m, (0, 0));
        let c2 = lib.media_content(&m, (5, 5)); // same media, reused!
        let scene = lib.composite("s", vec![c1, c2], vec![], vec![]);
        let store = ObjectStore::new();
        for o in lib.into_objects() {
            store.put(o);
        }
        assert_eq!(store.media_closure(scene), vec![MediaId(5)], "deduplicated");
    }

    #[test]
    fn content_store_basics() {
        use bytes::Bytes;
        use mits_media::{MediaFormat, MediaObject, VideoDims};
        use mits_sim::SimDuration;
        let cs = ContentStore::new();
        assert!(cs.is_empty());
        let m = MediaObject::new(
            MediaId(1),
            "a.wav",
            MediaFormat::Wav,
            SimDuration::from_secs(1),
            VideoDims::default(),
            Bytes::from(vec![1, 2, 3]),
        );
        cs.put(m.clone());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.get(MediaId(1)), Some(m));
        assert_eq!(cs.get_data(MediaId(1)).unwrap().len(), 3);
        assert_eq!(cs.size_of(MediaId(1)), Some(3));
        assert_eq!(cs.total_bytes(), 3);
        assert!(cs.get(MediaId(2)).is_none());
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let (store, course, _) = store_with_course();
        let store = std::sync::Arc::new(store);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let st = store.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        let _ = st.get(course);
                        let _ = st.list_containers();
                    }
                });
            }
            let st = store.clone();
            s.spawn(move || {
                for _ in 0..1000 {
                    let obj = st.get(course).unwrap();
                    st.put(obj);
                }
            });
        });
        assert_eq!(store.get(course).unwrap().info.version, 1000);
    }
}
