//! Capture-once store of recorded RIPT ray-trace sets ([`rip_bvh::ript`]),
//! the artifact store's view for trace-driven replay (DESIGN.md §12).
//!
//! Keyed by `(label, kind)`, so a sweep over one workload — or eight
//! threads asking at once — pays for one traversal pass. A trace on disk
//! is served only if it [`attach`](RayTraceSet::attach)es to the live
//! BVH and rays; a stale or corrupt one is quarantined and recaptured.
//! Counters live in `exec.trace.*`, outside `gpusim.*`, so simulator
//! registry diffs stay clean.

use crate::store::{CacheStats, Names, Recipe, Rejection, Store};
use rip_bvh::ript::RayTraceSet;
use rip_bvh::{Bvh, RayBatch, TraversalKind};
use rip_obs::Obs;
use rip_pod::Bytes;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const NAMES: Names = Names {
    ns: "exec.trace",
    key_arg: "trace",
    noun: "trace",
    build: "capture",
    recovery: "recapturing",
};

/// Process-wide capture-once store of recorded ray-trace sets.
#[derive(Debug)]
pub struct TraceStore {
    store: Store<(String, TraversalKind), RayTraceSet>,
    parallelism: usize,
}

impl TraceStore {
    /// A store persisting traces in `dir` (`None` = in-memory only).
    pub fn with_dir(dir: Option<PathBuf>) -> Self {
        TraceStore {
            store: Store::new(&NAMES, dir),
            parallelism: 1,
        }
    }

    /// A store with no disk tier.
    pub fn in_memory_only() -> Self {
        TraceStore::with_dir(None)
    }

    /// Routes this store's `exec.trace.*` counters and events to `obs`
    /// instead of the process-wide default instance.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.store = self.store.with_obs(obs);
        self
    }

    /// Shards capture passes over up to `threads` worker threads
    /// (`RayTraceSet::capture_parallel`). Captured bytes are identical at
    /// every thread count; only the capture wall-clock changes.
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// Counters since construction (`builds` counts captures).
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// The trace of `kind` for the workload `(bvh, batch)` named `label`,
    /// captured at most once per store, else loaded from disk. Never
    /// fails: the worst case is one functional traversal pass.
    pub fn get_or_capture(
        &self,
        label: &str,
        bvh: &Bvh,
        batch: &RayBatch,
        kind: TraversalKind,
    ) -> Arc<RayTraceSet> {
        let capture = Capture {
            label,
            bvh,
            batch,
            kind,
            threads: self.parallelism,
        };
        self.store.get_or_build((label.to_string(), kind), &capture)
    }
}

/// One trace request: a single `<label>_<kind>_t<version>.ript` file.
struct Capture<'a> {
    label: &'a str,
    bvh: &'a Bvh,
    batch: &'a RayBatch,
    kind: TraversalKind,
    threads: usize,
}

impl Recipe for Capture<'_> {
    type Value = RayTraceSet;

    fn label(&self) -> String {
        self.label.to_string()
    }

    fn file_names(&self) -> Vec<String> {
        let tag = match self.kind {
            TraversalKind::AnyHit => "any",
            TraversalKind::ClosestHit => "closest",
        };
        let version = rip_bvh::ript::FORMAT_VERSION;
        vec![format!("{}_{tag}_t{version}.ript", self.label)]
    }

    /// A set of another kind, or one that does not attach to the live
    /// workload (a label collision, a changed scene or ray generator), is
    /// a key mismatch — never a silent wrong replay.
    fn decode(&self, files: &[Bytes]) -> Result<RayTraceSet, Rejection> {
        let set =
            RayTraceSet::decode_shared(files[0].clone()).map_err(|e| Rejection::Corrupt(0, e))?;
        if set.kind() != self.kind || set.attach(self.bvh, self.batch).is_err() {
            return Err(Rejection::Mismatch);
        }
        Ok(set)
    }

    fn build(&self) -> RayTraceSet {
        RayTraceSet::capture_parallel(self.bvh, self.batch, self.kind, self.threads)
    }

    fn encode(&self, set: &RayTraceSet) -> Vec<Vec<u8>> {
        vec![set.encode()]
    }

    fn hit_line(&self, set: &RayTraceSet, load_ms: u64, backend: &str) -> String {
        let (label, rays) = (self.label, set.len());
        format!("[rip-exec] trace hit: {label} ({rays} rays loaded in {load_ms} ms via {backend}, 0 traversals)")
    }

    fn build_line(&self, set: &RayTraceSet, built_ms: u64, dir: Option<&Path>) -> String {
        let stored = dir.map_or("disk store disabled".into(), |dir| {
            format!("cached to {}", dir.display())
        });
        let (label, rays) = (self.label, set.len());
        format!("[rip-exec] captured trace {label} ({rays} rays in {built_ms} ms, {stored})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_math::{Ray, Triangle, Vec3};

    fn workload() -> (Bvh, RayBatch) {
        let mut tris = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let o = Vec3::new(i as f32, 0.0, j as f32);
                tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
                tris.push(Triangle::new(
                    o + Vec3::X,
                    o + Vec3::X + Vec3::Z,
                    o + Vec3::Z,
                ));
            }
        }
        let bvh = Bvh::build(&tris);
        let mut batch = RayBatch::with_capacity(64);
        for i in 0..64 {
            let x = 0.3 + (i % 8) as f32 * 0.9;
            let z = 0.4 + (i / 8) as f32 * 0.9;
            batch.push(Ray::segment(Vec3::new(x, 1.5, z), -Vec3::Y, 4.0));
        }
        (bvh, batch)
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rip-trace-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_tier_captures_once() {
        let (bvh, batch) = workload();
        let store = TraceStore::in_memory_only();
        let a = store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        let b = store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            store.stats(),
            CacheStats {
                memory_hits: 1,
                disk_hits: 0,
                builds: 1,
                quarantines: 0
            }
        );
        // Distinct kinds are distinct traces.
        let c = store.get_or_capture("w", &bvh, &batch, TraversalKind::ClosestHit);
        assert_eq!(c.kind(), TraversalKind::ClosestHit);
        assert_eq!(store.stats().builds, 2);
    }

    #[test]
    fn disk_tier_round_trips_bit_exactly() {
        let (bvh, batch) = workload();
        let dir = temp_store("roundtrip");
        let captured = {
            let store = TraceStore::with_dir(Some(dir.clone()));
            store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit)
        };
        let store = TraceStore::with_dir(Some(dir.clone()));
        let loaded = store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        assert_eq!(
            store.stats(),
            CacheStats {
                memory_hits: 0,
                disk_hits: 1,
                builds: 0,
                quarantines: 0
            }
        );
        assert_eq!(
            captured.encode(),
            loaded.encode(),
            "round trip must be bit-exact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_trace_is_quarantined_and_recaptured() {
        let (bvh, batch) = workload();
        let dir = temp_store("corrupt");
        {
            let store = TraceStore::with_dir(Some(dir.clone()));
            store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "ript") {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xA5;
                std::fs::write(&path, bytes).unwrap();
            }
        }
        let store = TraceStore::with_dir(Some(dir.clone()));
        let set = store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        assert_eq!(store.stats().builds, 1, "corruption must force recapture");
        assert_eq!(store.stats().quarantines, 1);
        set.attach(&bvh, &batch).unwrap();
        let quarantined = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "quarantine"))
            .count();
        assert_eq!(quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_trace_for_changed_workload_is_rejected() {
        let (bvh, batch) = workload();
        let dir = temp_store("stale");
        {
            let store = TraceStore::with_dir(Some(dir.clone()));
            store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        }
        // Same label, different rays: the on-disk digest no longer
        // matches, so the store must quarantine and recapture rather than
        // replay the wrong streams.
        let mut other = RayBatch::with_capacity(batch.len());
        for i in 0..batch.len() {
            let mut ray = batch.ray(i);
            ray.origin.x += 0.125;
            other.push(ray);
        }
        let store = TraceStore::with_dir(Some(dir.clone()));
        let set = store.get_or_capture("w", &bvh, &other, TraversalKind::AnyHit);
        assert_eq!(
            store.stats().quarantines,
            1,
            "stale trace must be quarantined"
        );
        assert_eq!(store.stats().builds, 1);
        set.attach(&bvh, &other).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_requests_capture_once() {
        const THREADS: usize = 8;
        let (bvh, small) = workload();
        // A larger batch keeps the capture running while all eight
        // requests arrive.
        let mut batch = RayBatch::with_capacity(64 * small.len());
        for _ in 0..64 {
            for i in 0..small.len() {
                batch.push(small.ray(i));
            }
        }
        let store = TraceStore::in_memory_only();
        let barrier = std::sync::Barrier::new(THREADS);
        let sets: Vec<Arc<RayTraceSet>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(store.stats().builds, 1, "one label, one capture");
        assert_eq!(store.stats().memory_hits, THREADS as u64 - 1);
        for set in &sets[1..] {
            assert!(Arc::ptr_eq(&sets[0], set));
        }
    }
}
