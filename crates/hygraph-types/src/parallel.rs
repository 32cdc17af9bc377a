//! Workspace-wide parallel-execution configuration.
//!
//! Every parallel code path in HyGraph (query fan-out, graph algorithms,
//! time-series batch operators, the storage benchmark harness) consults
//! this module to decide *whether* to fan out and across *how many*
//! threads. Centralising the decision keeps the determinism contract in
//! one place: a parallel path must produce results identical to its
//! sequential counterpart, so switching modes — or changing the thread
//! count — can never change an answer, only its latency.
//!
//! Configuration surface, in increasing precedence:
//!
//! 1. Defaults: all available cores, sequential below
//!    [`DEFAULT_SEQ_THRESHOLD`] work items.
//! 2. Environment: `HYGRAPH_THREADS` (worker count, `1` disables
//!    parallelism) and `HYGRAPH_SEQ_THRESHOLD` (fan-out cut-over size),
//!    read once per process.
//! 3. Programmatic: [`ParallelConfig`] applied via [`ParallelConfig::install`], which
//!    overrides the environment for the rest of the process (tests use
//!    this to force a fixed thread count regardless of machine size).
//! 4. Per-call: an explicit [`ExecMode`] passed to APIs that accept one
//!    (e.g. `pagerank_mode`) bypasses the global knobs entirely.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Below this many independent work items, parallel entry points run
/// sequentially: spawning threads costs more than it saves on small
/// inputs, and the results are identical either way.
pub const DEFAULT_SEQ_THRESHOLD: usize = 256;

/// How a hybrid operator should execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Decide from input size and the configured threshold.
    #[default]
    Auto,
    /// Force the sequential path.
    Sequential,
    /// Force the parallel path (even for tiny inputs — used by the
    /// determinism tests to exercise fan-out on small fixtures).
    Parallel,
}

// 0 = unset (fall through to env / defaults)
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
// usize::MAX = unset
static THRESHOLD_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

fn env_usize(var: &str) -> Option<usize> {
    std::env::var(var).ok()?.trim().parse::<usize>().ok()
}

fn env_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| env_usize("HYGRAPH_THREADS").filter(|&n| n > 0).unwrap_or(0))
}

fn env_threshold() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| env_usize("HYGRAPH_SEQ_THRESHOLD").unwrap_or(DEFAULT_SEQ_THRESHOLD))
}

/// Builder for process-wide parallel execution settings.
///
/// ```
/// use hygraph_types::parallel::ParallelConfig;
///
/// ParallelConfig::new().threads(4).seq_threshold(1).install();
/// assert_eq!(hygraph_types::parallel::configured_threads(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelConfig {
    threads: Option<usize>,
    seq_threshold: Option<usize>,
}

impl ParallelConfig {
    /// A config that changes nothing until its setters are called.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of worker threads parallel paths may use. `1` makes every
    /// `Auto` decision sequential. `0` restores "all available cores".
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Input size below which `Auto` runs sequentially. `0` parallelises
    /// everything (other than what `threads(1)` forbids).
    pub fn seq_threshold(mut self, n: usize) -> Self {
        self.seq_threshold = Some(n);
        self
    }

    /// Applies the settings process-wide; unset fields are untouched.
    /// Safe to call repeatedly — the last call wins. The thread count is
    /// also pushed into rayon's global pool configuration so `par_iter`
    /// call sites agree with [`configured_threads`].
    pub fn install(self) {
        if let Some(n) = self.threads {
            THREADS_OVERRIDE.store(n, Ordering::Relaxed);
            let _ = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global();
        }
        if let Some(t) = self.seq_threshold {
            THRESHOLD_OVERRIDE.store(t, Ordering::Relaxed);
        }
    }
}

/// The effective worker-thread count: [`ParallelConfig::install`]-ed override, else
/// `HYGRAPH_THREADS`, else `available_parallelism()`.
pub fn configured_threads() -> usize {
    let o = THREADS_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    let e = env_threads();
    if e > 0 {
        return e;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The effective sequential cut-over: [`ParallelConfig::install`]-ed override, else
/// `HYGRAPH_SEQ_THRESHOLD`, else [`DEFAULT_SEQ_THRESHOLD`].
pub fn configured_seq_threshold() -> usize {
    let o = THRESHOLD_OVERRIDE.load(Ordering::Relaxed);
    if o != usize::MAX {
        return o;
    }
    env_threshold()
}

/// Whether an operator over `items` independent work units should take
/// its parallel path under `mode`.
pub fn should_parallelize(mode: ExecMode, items: usize) -> bool {
    match mode {
        ExecMode::Sequential => false,
        ExecMode::Parallel => items > 1,
        ExecMode::Auto => items >= configured_seq_threshold().max(2) && configured_threads() > 1,
    }
}

/// Shorthand for `should_parallelize(ExecMode::Auto, items)`.
pub fn auto_parallel(items: usize) -> bool {
    should_parallelize(ExecMode::Auto, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // install() mutates process-global state; serialise the tests that
    // depend on it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn scoped<T>(cfg: ParallelConfig, f: impl FnOnce() -> T) -> T {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev_threads = THREADS_OVERRIDE.load(Ordering::Relaxed);
        let prev_threshold = THRESHOLD_OVERRIDE.load(Ordering::Relaxed);
        cfg.install();
        let out = f();
        THREADS_OVERRIDE.store(prev_threads, Ordering::Relaxed);
        THRESHOLD_OVERRIDE.store(prev_threshold, Ordering::Relaxed);
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(prev_threads)
            .build_global();
        out
    }

    #[test]
    fn forced_modes_ignore_threshold() {
        scoped(ParallelConfig::new().threads(8).seq_threshold(1000), || {
            assert!(!should_parallelize(ExecMode::Sequential, 1_000_000));
            assert!(should_parallelize(ExecMode::Parallel, 2));
            // a single item is never worth fanning out
            assert!(!should_parallelize(ExecMode::Parallel, 1));
            assert!(!should_parallelize(ExecMode::Parallel, 0));
        });
    }

    #[test]
    fn auto_respects_threshold_and_thread_count() {
        scoped(ParallelConfig::new().threads(8).seq_threshold(100), || {
            assert!(!auto_parallel(99));
            assert!(auto_parallel(100));
        });
        scoped(ParallelConfig::new().threads(1).seq_threshold(100), || {
            assert!(!auto_parallel(1_000_000), "threads(1) disables fan-out");
        });
    }

    #[test]
    fn threshold_zero_still_requires_two_items() {
        scoped(ParallelConfig::new().threads(8).seq_threshold(0), || {
            assert!(!auto_parallel(1));
            assert!(auto_parallel(2));
        });
    }

    #[test]
    fn install_is_partial_and_repeatable() {
        scoped(ParallelConfig::new().threads(3).seq_threshold(7), || {
            assert_eq!(configured_threads(), 3);
            assert_eq!(configured_seq_threshold(), 7);
            // updating only the threshold leaves the thread count alone
            ParallelConfig::new().seq_threshold(9).install();
            assert_eq!(configured_threads(), 3);
            assert_eq!(configured_seq_threshold(), 9);
        });
    }
}
