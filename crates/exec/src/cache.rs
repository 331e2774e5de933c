//! Build-once cache of benchmark cases, keyed by `(scene, scale,
//! viewport)`: the artifact store's view for scenes and BVHs.
//!
//! On disk a case is a RIPA v2 scene plus a BVH artifact, decoded in
//! place, so later processes skip synthesis and BVH construction. File
//! names carry both format versions, so v1 files are simply invisible.
//! Counters and events land in `exec.cache.*`.

use crate::case::{Case, CaseKey};
use crate::store::{CacheStats, Names, Recipe, Rejection, Store};
use rip_obs::Obs;
use rip_pod::Bytes;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const NAMES: Names = Names {
    ns: "exec.cache",
    key_arg: "case",
    noun: "artifact",
    build: "build",
    recovery: "rebuilding from source",
};

/// Process-wide build-once cache of benchmark cases.
#[derive(Debug)]
pub struct CaseCache {
    store: Store<CaseKey, Case>,
}

impl CaseCache {
    /// A cache persisting in `disk_dir` (`None` = in-memory only).
    pub fn with_disk_dir(disk_dir: Option<PathBuf>) -> Self {
        CaseCache {
            store: Store::new(&NAMES, disk_dir),
        }
    }

    /// A cache with no disk tier.
    pub fn in_memory_only() -> Self {
        CaseCache::with_disk_dir(None)
    }

    /// Routes this cache's `exec.cache.*` counters and events to `obs`
    /// instead of the process-wide default instance.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.store = self.store.with_obs(obs);
        self
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// The case for `key`, built at most once per cache, else loaded from
    /// disk. A bad artifact is quarantined and rebuilt; only a panic in
    /// the build itself unwinds (to the caller's unit boundary).
    pub fn get_or_build(&self, key: CaseKey) -> Arc<Case> {
        self.store.get_or_build(key, &key)
    }

    /// Drops the in-process entry for `key` (not its artifacts) so the
    /// next `get_or_build` re-resolves it; returns whether there was one.
    /// `rip-serve`'s reload hook: holders of the old `Arc` keep it.
    pub fn invalidate(&self, key: CaseKey) -> bool {
        self.store.invalidate(&key)
    }

    /// The already-built case for `key`, if any; never builds or counts a
    /// hit. Snapshots the current epoch before a risky rebuild.
    pub fn peek(&self, key: CaseKey) -> Option<Arc<Case>> {
        self.store.peek(&key)
    }

    /// Makes `case` the in-process entry for `key` again: the reload
    /// circuit breaker's undo after a failed rebuild.
    pub fn restore(&self, key: CaseKey, case: Arc<Case>) {
        self.store.restore(key, case);
    }
}

/// A case is two files, `<stem>.scene` and `<stem>.bvh`, valid only when
/// the scene matches the key and the BVH the scene.
impl Recipe for CaseKey {
    type Value = Case;

    fn label(&self) -> String {
        CaseKey::label(self)
    }

    fn file_names(&self) -> Vec<String> {
        let (scene, bvh) = (
            rip_scene::serial::FORMAT_VERSION,
            rip_bvh::serial::FORMAT_VERSION,
        );
        let stem = format!("{}_s{scene}b{bvh}", CaseKey::label(self));
        vec![format!("{stem}.scene"), format!("{stem}.bvh")]
    }

    fn decode(&self, files: &[Bytes]) -> Result<Case, Rejection> {
        let scene = rip_scene::serial::decode_shared(files[0].clone())
            .map_err(|e| Rejection::Corrupt(0, e))?;
        let bvh = rip_bvh::serial::decode_shared(files[1].clone())
            .map_err(|e| Rejection::Corrupt(1, e))?;
        if scene.id != self.id
            || scene.camera.width() != self.width
            || scene.camera.height() != self.height
            || bvh.triangle_count() != scene.mesh.triangle_count()
        {
            return Err(Rejection::Mismatch);
        }
        Ok(Case::from_parts(scene.id, scene, bvh))
    }

    fn build(&self) -> Case {
        Case::build(*self)
    }

    fn encode(&self, case: &Case) -> Vec<Vec<u8>> {
        let scene = rip_scene::serial::encode(&case.scene);
        vec![scene, rip_bvh::serial::encode(&case.bvh)]
    }

    fn hit_line(&self, _: &Case, load_ms: u64, backend: &str) -> String {
        let label = CaseKey::label(self);
        format!("[rip-exec] artifact cache hit: {label} (scene+BVH loaded in {load_ms} ms via {backend}, 0 rebuilds)")
    }

    fn build_line(&self, _: &Case, built_ms: u64, dir: Option<&Path>) -> String {
        let stored = dir.map_or("disk cache disabled".into(), |dir| {
            format!("artifacts cached to {}", dir.display())
        });
        let label = CaseKey::label(self);
        format!("[rip-exec] built case {label} in {built_ms} ms ({stored})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::JobPool;
    use rip_scene::{SceneId, SceneScale};

    fn tiny_key(viewport: u32) -> CaseKey {
        CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, viewport)
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rip-exec-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_tier_shares_one_build() {
        let cache = CaseCache::in_memory_only();
        let a = cache.get_or_build(tiny_key(16));
        let b = cache.get_or_build(tiny_key(16));
        assert!(
            Arc::ptr_eq(&a, &b),
            "second request must reuse the built case"
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                memory_hits: 1,
                disk_hits: 0,
                builds: 1,
                quarantines: 0
            }
        );
    }

    #[test]
    fn concurrent_requests_build_once() {
        let cache = CaseCache::in_memory_only();
        let pool = JobPool::new(4);
        let keys = [tiny_key(18); 8];
        let cases = pool.map(&keys, |&key| cache.get_or_build(key));
        for case in &cases[1..] {
            assert!(Arc::ptr_eq(&cases[0], case));
        }
        assert_eq!(cache.stats().builds, 1);
        assert_eq!(cache.stats().memory_hits, 7);
    }

    #[test]
    fn disk_tier_round_trips_and_validates() {
        let dir = temp_store("roundtrip");
        let built = {
            let cache = CaseCache::with_disk_dir(Some(dir.clone()));
            cache.get_or_build(tiny_key(20))
        };
        // A fresh cache (fresh process stand-in) must hit the disk tier.
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let loaded = cache.get_or_build(tiny_key(20));
        assert_eq!(
            cache.stats(),
            CacheStats {
                memory_hits: 0,
                disk_hits: 1,
                builds: 0,
                quarantines: 0
            }
        );
        loaded.bvh.validate().unwrap();
        assert_eq!(
            rip_bvh::serial::encode(&loaded.bvh),
            rip_bvh::serial::encode(&built.bvh),
            "cached BVH must match the fresh build byte-for-byte",
        );
        assert_eq!(loaded.scene.mesh.positions(), built.scene.mesh.positions());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifacts_fall_back_to_rebuild() {
        let dir = temp_store("corrupt");
        {
            let cache = CaseCache::with_disk_dir(Some(dir.clone()));
            cache.get_or_build(tiny_key(22));
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "bvh") {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xA5;
                std::fs::write(&path, bytes).unwrap();
            }
        }
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let case = cache.get_or_build(tiny_key(22));
        assert_eq!(cache.stats().builds, 1, "corruption must force a rebuild");
        assert_eq!(
            cache.stats().quarantines,
            1,
            "the corrupt artifact must be quarantined"
        );
        case.bvh.validate().unwrap();
        let quarantined: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "quarantine"))
            .collect();
        assert_eq!(quarantined.len(), 1, "expected one .quarantine file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = CaseCache::in_memory_only();
        let a = cache.get_or_build(tiny_key(16));
        let b = cache.get_or_build(CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 24));
        assert_eq!(cache.stats().builds, 2);
        assert_ne!(a.scene.camera.width(), b.scene.camera.width());
    }

    #[test]
    fn concurrent_writers_on_one_dir_never_lose_a_file() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 10;
        let obs = Arc::new(Obs::new(rip_obs::ClockMode::Logical));
        let key = tiny_key(14);
        let root = temp_store("writers");
        for round in 0..ROUNDS {
            // Each round starts cold, so all eight caches build and write
            // the same two files at once.
            let dir = root.join(round.to_string());
            let barrier = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        let cache =
                            CaseCache::with_disk_dir(Some(dir.clone())).with_obs(Arc::clone(&obs));
                        barrier.wait();
                        cache.get_or_build(key);
                    });
                }
            });
            let failed: Vec<_> = obs
                .log()
                .recent()
                .into_iter()
                .filter(|event| event.name == "store_failed")
                .map(|event| event.stderr_text)
                .collect();
            assert!(failed.is_empty(), "round {round}: {failed:?}");
            let cache = CaseCache::with_disk_dir(Some(dir));
            cache.get_or_build(key);
            assert_eq!(
                (cache.stats().disk_hits, cache.stats().quarantines),
                (1, 0),
                "round {round}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
