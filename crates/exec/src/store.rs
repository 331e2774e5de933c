//! The two-tier artifact store behind [`CaseCache`](crate::CaseCache)
//! and [`TraceStore`](crate::TraceStore).
//!
//! 1. **In-process**: one `OnceLock` per key, so concurrent requests for
//!    a key block on a single build instead of duplicating it.
//! 2. **On-disk** (optional): the key's files, mapped through
//!    [`MappedArtifact`] and decoded in place by the view's [`Recipe`].
//!    Every file is derived data, so clearing the directory is safe.
//!
//! A failed load is classified as a typed [`CacheError`] and degrades to
//! a build from source. A corrupt file — or, on a key mismatch, every
//! file of the key — is renamed to `<name>.quarantine`: kept for
//! diagnosis, never decoded again. Writes go through a per-writer temp
//! file and an atomic rename, so no file is ever seen half-written.
//!
//! Diagnostics are [`rip_obs`] events under the view's namespace whose
//! stderr lines print verbatim, so stdout stays byte-deterministic.

use crate::artifact::MappedArtifact;
use rip_obs::Obs;
use rip_pod::Bytes;
use std::collections::HashMap;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Why an artifact could not be served from the disk tier. Every
/// variant degrades to a rebuild; the distinction drives telemetry and
/// quarantine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// No artifact on disk (a plain miss — the expected cold-start path).
    Miss,
    /// The artifact exists but cannot be read (permissions, transient IO).
    Io {
        /// Offending file.
        path: PathBuf,
        /// OS-level error description.
        detail: String,
    },
    /// The artifact fails decoding or post-decode validation.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// Decoder diagnostic.
        detail: String,
    },
    /// The artifact decodes but describes a different key.
    KeyMismatch {
        /// The key whose lookup found the imposter.
        label: String,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Miss => f.write_str("artifact not present"),
            CacheError::Io { path, detail } => {
                write!(f, "cannot read {}: {detail}", path.display())
            }
            CacheError::Corrupt { path, detail } => {
                write!(f, "corrupt artifact {}: {detail}", path.display())
            }
            CacheError::KeyMismatch { label } => write!(f, "artifact does not match key {label}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// Counters describing how a store served its requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the in-process map.
    pub memory_hits: u64,
    /// Requests served by decoding on-disk artifacts.
    pub disk_hits: u64,
    /// Requests that built the value from source (traces: captured it).
    pub builds: u64,
    /// Artifacts quarantined after failing decode or key validation.
    pub quarantines: u64,
}

/// The words a view uses in its counters, events and stderr lines. For
/// cases: namespace `exec.cache`, key argument `case`, event prefix
/// `artifact` (`artifact_hit`, `artifact_rejected`, …), build step
/// `build` (counter, span and event) and recovery `rebuilding from source`.
pub(crate) struct Names {
    pub ns: &'static str,
    pub key_arg: &'static str,
    pub noun: &'static str,
    pub build: &'static str,
    pub recovery: &'static str,
}

/// Why a [`Recipe`] refused the bytes it was given.
pub(crate) enum Rejection {
    /// File `.0` (in [`Recipe::file_names`] order) fails decoding.
    Corrupt(usize, String),
    /// The files decode but describe a different key.
    Mismatch,
}

/// What a view supplies for one request: its files, codec and build —
/// nothing about tiers, quarantine or writes.
pub(crate) trait Recipe {
    /// What the store hands out.
    type Value;
    /// The key's label in events and stderr lines.
    fn label(&self) -> String;
    /// The artifact's file names in the store directory.
    fn file_names(&self) -> Vec<String>;
    /// Decodes and validates the files' bytes, in `file_names` order.
    fn decode(&self, files: &[Bytes]) -> Result<Self::Value, Rejection>;
    /// Builds the value from source.
    fn build(&self) -> Self::Value;
    /// Encodes `value`, one buffer per file in `file_names` order.
    fn encode(&self, value: &Self::Value) -> Vec<Vec<u8>>;
    /// The stderr line of a disk hit.
    fn hit_line(&self, value: &Self::Value, load_ms: u64, backend: &str) -> String;
    /// The stderr line of a build persisted to `dir` (`None`: not stored).
    fn build_line(&self, value: &Self::Value, built_ms: u64, dir: Option<&Path>) -> String;
}

type Cell<V> = Arc<OnceLock<Arc<V>>>;

/// A build-once memory tier over an optional quarantining disk tier.
pub(crate) struct Store<K, V> {
    names: &'static Names,
    dir: Option<PathBuf>,
    obs: Arc<Obs>,
    cells: Mutex<HashMap<K, Cell<V>>>,
    stats: Mutex<CacheStats>,
}

impl<K: Hash + Eq, V> Store<K, V> {
    /// A store persisting under `dir` (`None` = in-memory only).
    pub fn new(names: &'static Names, dir: Option<PathBuf>) -> Self {
        Store {
            names,
            dir,
            obs: Arc::clone(Obs::global()),
            cells: Mutex::default(),
            stats: Mutex::default(),
        }
    }

    /// Routes counters and events to `obs`.
    pub fn with_obs(self, obs: Arc<Obs>) -> Self {
        Store { obs, ..self }
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        *lock(&self.stats)
    }

    /// The value for `key`, resolved at most once per store: decoded
    /// from the disk tier when it holds a valid artifact, else built by
    /// `recipe` and persisted.
    pub fn get_or_build<R: Recipe<Value = V>>(&self, key: K, recipe: &R) -> Arc<V> {
        let cell = Arc::clone(lock(&self.cells).entry(key).or_default());
        let mut built_here = false;
        let value = cell.get_or_init(|| {
            built_here = true;
            Arc::new(self.load_or_build(recipe))
        });
        if !built_here {
            // Resolved earlier, or by a thread that raced us to the
            // build: for this request an in-memory hit.
            self.tally(|s| &mut s.memory_hits, "memory_hit");
        }
        Arc::clone(value)
    }

    /// Drops the in-process entry for `key`; returns whether there was
    /// one. Files on disk are untouched.
    pub fn invalidate(&self, key: &K) -> bool {
        lock(&self.cells).remove(key).is_some()
    }

    /// The already-resolved value for `key`, if any. Never builds and
    /// never counts a hit.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        let cell = lock(&self.cells).get(key).cloned();
        cell.and_then(|cell| cell.get().cloned())
    }

    /// Makes `value` the in-process entry for `key`, replacing any other.
    pub fn restore(&self, key: K, value: Arc<V>) {
        lock(&self.cells).insert(key, Arc::new(OnceLock::from(value)));
    }

    /// Bumps one [`CacheStats`] field and its `<ns>.<counter>` mirror.
    fn tally(&self, field: fn(&mut CacheStats) -> &mut u64, counter: &str) {
        *field(&mut lock(&self.stats)) += 1;
        self.count(counter);
    }

    fn count(&self, counter: &str) {
        self.obs.add(&format!("{}.{counter}", self.names.ns), 1);
    }

    /// Emits event `name` with string `args` and its stderr `line`.
    fn note(&self, name: &str, args: &[(&str, &str)], line: String) {
        let event = self.obs.event(self.names.ns, name);
        let event = (args.iter()).fold(event, |e, &(key, value)| e.arg(key, value));
        event.stderr(line).emit();
    }

    fn load_or_build<R: Recipe<Value = V>>(&self, recipe: &R) -> V {
        let n = self.names;
        let label = recipe.label();
        let names = recipe.file_names();
        let paths: Option<Vec<PathBuf>> =
            (self.dir.as_deref()).map(|dir| names.iter().map(|name| dir.join(name)).collect());
        if let Some(paths) = &paths {
            match self.load(recipe, &label, paths) {
                Ok(value) => {
                    self.tally(|s| &mut s.disk_hits, "disk_hit");
                    return value;
                }
                Err(CacheError::Miss) => {}
                Err(error @ CacheError::Io { .. }) => {
                    let line = format!("[rip-exec] {error}; {}", n.recovery);
                    self.note(
                        &format!("{}_io_error", n.noun),
                        &[(n.key_arg, &label)],
                        line,
                    );
                }
                Err(error) => {
                    let line = format!("[rip-exec] {error}; quarantining and {}", n.recovery);
                    let args = [(n.key_arg, label.as_str()), ("error", &error.to_string())];
                    self.note(&format!("{}_rejected", n.noun), &args, line);
                    self.quarantine(&label, paths, &error);
                }
            }
        }
        self.tally(|s| &mut s.builds, n.build);
        let span = self.obs.span(n.ns, n.build).arg(n.key_arg, label.as_str());
        let start = Instant::now();
        let value = recipe.build();
        let built_ms = start.elapsed().as_millis() as u64;
        drop(span);
        let stored = paths.and_then(|paths| self.persist(recipe, &value, &paths));
        self.obs
            .event(n.ns, n.build)
            .arg(n.key_arg, label)
            .arg_u64("built_ms", built_ms)
            .arg("store", if stored.is_some() { "disk" } else { "none" })
            .stderr(recipe.build_line(&value, built_ms, stored))
            .emit();
        value
    }

    /// Serves `recipe` from its files, classifying every failure so the
    /// caller can log, quarantine, and rebuild.
    fn load<R: Recipe<Value = V>>(
        &self,
        recipe: &R,
        label: &str,
        paths: &[PathBuf],
    ) -> Result<V, CacheError> {
        let files = (paths.iter())
            .map(|path| MappedArtifact::open(path).map(|map| map.bytes()))
            .collect::<Result<Vec<Bytes>, CacheError>>()?;
        let backend = files.first().map_or("owned", Bytes::backend);
        if backend == "mmap" {
            self.count("mmap_load");
        }
        let start = Instant::now();
        let value = recipe.decode(&files).map_err(|rejection| match rejection {
            Rejection::Corrupt(index, detail) => {
                let path = paths[index].clone();
                CacheError::Corrupt { path, detail }
            }
            Rejection::Mismatch => CacheError::KeyMismatch {
                label: label.into(),
            },
        })?;
        let load_ms = start.elapsed().as_millis() as u64;
        self.obs
            .event(self.names.ns, &format!("{}_hit", self.names.noun))
            .arg(self.names.key_arg, label)
            .arg("backend", backend)
            .arg_u64("load_ms", load_ms)
            .stderr(recipe.hit_line(&value, load_ms, backend))
            .emit();
        Ok(value)
    }

    /// Moves the file named by a [`CacheError::Corrupt`] — or, on a key
    /// mismatch, every file of the key — aside as `<name>.quarantine`.
    fn quarantine(&self, label: &str, paths: &[PathBuf], error: &CacheError) {
        let targets = match error {
            CacheError::Corrupt { path, .. } => std::slice::from_ref(path),
            _ => paths,
        };
        for path in targets {
            let mut quarantined = path.as_os_str().to_owned();
            quarantined.push(".quarantine");
            let shown = path.display().to_string();
            let args = [(self.names.key_arg, label), ("path", shown.as_str())];
            match std::fs::rename(path, &quarantined) {
                Ok(()) => {
                    self.tally(|s| &mut s.quarantines, "quarantine");
                    let to = Path::new(&quarantined).display();
                    let line = format!("[rip-exec] quarantined {shown} -> {to}");
                    self.note("quarantine", &args, line);
                }
                Err(e) => {
                    // Last resort: make sure the bad bytes cannot be
                    // decoded again even if we cannot preserve them.
                    let line =
                        format!("[rip-exec] cannot quarantine {shown} ({e}); removing instead");
                    self.note("quarantine_failed", &args, line);
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }

    /// Writes every file of `value`; the store directory if all landed.
    fn persist<R: Recipe<Value = V>>(
        &self,
        recipe: &R,
        value: &V,
        paths: &[PathBuf],
    ) -> Option<&Path> {
        let dir = self.dir.as_deref()?;
        if let Err(e) = std::fs::create_dir_all(dir) {
            let (noun, shown) = (self.names.noun, dir.display().to_string());
            let line = format!("[rip-exec] cannot create {noun} dir {shown}: {e}");
            self.note("store_failed", &[("path", &shown)], line);
            return None;
        }
        let files = recipe.encode(value);
        let mut writes = paths.iter().zip(&files);
        writes
            .all(|(path, bytes)| self.write_atomic(path, bytes))
            .then_some(dir)
    }

    /// Writes via a temp file + atomic rename, so readers see either the
    /// old complete file or the new one. The temp name is the whole file
    /// name plus the process and thread ids, so no two concurrent writers
    /// (processes, stores, sibling files of a key) ever share one.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> bool {
        let mut tmp = path.as_os_str().to_owned();
        let thread = std::thread::current().id();
        tmp.push(format!(".tmp.{}.{thread:?}", std::process::id()));
        let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = &result {
            let shown = path.display().to_string();
            let line = format!("[rip-exec] cannot persist artifact {shown}: {e}");
            self.note("store_failed", &[("path", &shown)], line);
            let _ = std::fs::remove_file(&tmp);
        }
        result.is_ok()
    }
}

/// Locks `mutex`; a panic elsewhere leaves its map or counters sound.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

impl<K: Hash + Eq, V> std::fmt::Debug for Store<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(self.names.ns)
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}
