//! Hierarchical counter registry.
//!
//! Counters are addressed by dotted paths (`exec.cache.hit`,
//! `gpusim.dram.access`, `predictor.verified`). Each path maps to one
//! process-shared atomic, so incrementing from worker threads is cheap
//! and never requires coordination beyond the atomic itself; the
//! registry lock is only taken to *resolve* a path (allocation-free once
//! the path is registered), and hot call sites hold on to the returned
//! [`Counter`] handle to skip even that.
//!
//! Counters are monotonic `u64` totals. Snapshots come back as a sorted
//! map, so rendering a snapshot — or diffing two of them — is
//! deterministic regardless of the thread schedule that produced the
//! counts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A handle to one registered counter. Cloning shares the same atomic.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Whether `path` is a well-formed dotted counter path: non-empty
/// `[a-z0-9_]` segments separated by single dots.
pub fn is_valid_path(path: &str) -> bool {
    !path.is_empty()
        && path.split('.').all(|segment| {
            !segment.is_empty()
                && segment
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

/// A registry of named monotonic counters.
///
/// # Examples
///
/// ```
/// use rip_obs::CounterRegistry;
///
/// let reg = CounterRegistry::new();
/// reg.add("exec.cache.hit", 3);
/// let hit = reg.counter("exec.cache.hit");
/// hit.inc();
/// assert_eq!(reg.get("exec.cache.hit"), 4);
/// assert_eq!(reg.get("never.touched"), 0);
/// ```
#[derive(Debug, Default)]
pub struct CounterRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        CounterRegistry::default()
    }

    /// Resolves (registering on first use) the counter at `path`.
    ///
    /// # Panics
    ///
    /// Panics when `path` is not a well-formed dotted path — counter
    /// names are compile-time constants in practice, so a malformed one
    /// is a programming error, not a runtime condition.
    pub fn counter(&self, path: &str) -> Counter {
        Counter(self.with_slot(path, Arc::clone))
    }

    /// Adds `n` to the counter at `path` (registering it on first use).
    ///
    /// # Panics
    ///
    /// Panics when `path` is malformed (see [`CounterRegistry::counter`]).
    pub fn add(&self, path: &str, n: u64) {
        self.with_slot(path, |slot| slot.fetch_add(n, Ordering::Relaxed));
    }

    /// Runs `f` on the atomic at `path` under the registry lock. An
    /// already-registered path is found by `&str` lookup, so only the
    /// first use of a path validates it and allocates its key — a
    /// malformed path can never have been registered, so it still
    /// panics on every use.
    fn with_slot<R>(&self, path: &str, f: impl FnOnce(&Arc<AtomicU64>) -> R) -> R {
        let mut counters = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(slot) = counters.get(path) {
            return f(slot);
        }
        if !is_valid_path(path) {
            drop(counters);
            panic!("malformed counter path '{path}'");
        }
        f(counters
            .entry(path.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0))))
    }

    /// The current total at `path` (0 when never registered).
    pub fn get(&self, path: &str) -> u64 {
        let counters = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        counters.get(path).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// A sorted snapshot of every registered counter.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let counters = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        counters
            .iter()
            .map(|(path, c)| (path.clone(), c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Renders the snapshot as an aligned two-column table, sorted by
    /// path. Zero-valued counters are included: a zero that should have
    /// counted is exactly what a metrics table exists to surface.
    pub fn summary_table(&self) -> String {
        let snapshot = self.snapshot();
        if snapshot.is_empty() {
            return String::from("(no counters registered)\n");
        }
        let width = snapshot.keys().map(|p| p.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (path, value) in &snapshot {
            out.push_str(&format!("{path:<width$}  {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let reg = CounterRegistry::new();
        let a = reg.counter("a.b.c");
        let b = reg.counter("a.b.c");
        a.add(2);
        b.inc();
        assert_eq!(reg.get("a.b.c"), 3);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = CounterRegistry::new();
        reg.add("z.last", 1);
        reg.add("a.first", 2);
        reg.counter("m.zero");
        let snap = reg.snapshot();
        let paths: Vec<&str> = snap.keys().map(String::as_str).collect();
        assert_eq!(paths, vec!["a.first", "m.zero", "z.last"]);
        assert_eq!(snap["m.zero"], 0);
    }

    #[test]
    fn summary_table_aligns_paths() {
        let reg = CounterRegistry::new();
        reg.add("short", 7);
        reg.add("much.longer.path", 42);
        let table = reg.summary_table();
        assert!(table.contains("much.longer.path  42"));
        assert!(table.contains("short             7"));
    }

    #[test]
    fn path_validation() {
        assert!(is_valid_path("exec.cache.hit"));
        assert!(is_valid_path("a_1.b_2"));
        for bad in ["", ".", "a..b", "A.b", "a.b ", "a b", "a.", ".a"] {
            assert!(!is_valid_path(bad), "'{bad}' should be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "malformed counter path")]
    fn malformed_path_panics() {
        CounterRegistry::new().counter("Not.Valid");
    }

    #[test]
    fn malformed_add_panics_every_time_and_registers_nothing() {
        let reg = CounterRegistry::new();
        reg.add("ok.path", 1);
        for _ in 0..2 {
            let result = std::panic::catch_unwind(|| reg.add("Not.Valid", 1));
            assert!(result.is_err(), "a malformed path must panic on every use");
        }
        // The registry stays usable and holds only the valid path.
        reg.add("ok.path", 1);
        assert_eq!(
            reg.snapshot().into_iter().collect::<Vec<_>>(),
            [("ok.path".to_string(), 2)]
        );
    }

    #[test]
    fn concurrent_increments_do_not_lose_counts() {
        let reg = CounterRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let c = reg.counter("hot.path");
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.get("hot.path"), 4000);
    }
}
