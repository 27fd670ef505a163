//! Deterministic worker-pool fan-out for experiment grids.
//!
//! [`par_map`] runs a function over a slice on `jobs` scoped OS threads
//! (`std::thread::scope` — no external dependencies) and returns results in
//! **input order** regardless of which worker finished first. Experiments
//! seed every trial from its grid coordinates, so a parallel run produces a
//! byte-identical table to a sequential one; the harness determinism test
//! locks that in.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Ceiling on a `--jobs` request (`co-ring explore|fleet` and `tables`): a
/// worker is an OS thread, and no test, CI job or experiment uses more than
/// 8, so a larger value is refused before any thread is spawned.
pub const MAX_JOBS: usize = 256;

/// Resolves a `--jobs` request: `0` means "one worker per available core".
#[must_use]
pub fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Applies `f` to every item on a pool of `jobs` threads, preserving input
/// order in the returned vector.
///
/// Work is handed out by an atomic cursor, so the assignment of items to
/// workers is dynamic (good load balance for skewed grids) while the output
/// order stays deterministic. With `jobs <= 1` the items run inline on the
/// caller's thread with no pool at all.
///
/// # Panics
///
/// Propagates a panic from `f` after the scope unwinds.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, 8, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_for_every_job_count() {
        let items: Vec<u64> = (0..37).collect();
        let sequential = par_map(&items, 1, |&x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        for jobs in [2, 3, 4, 8, 64] {
            let parallel = par_map(&items, jobs, |&x| {
                x.wrapping_mul(0x9E37_79B9).rotate_left(7)
            });
            assert_eq!(parallel, sequential, "jobs = {jobs}");
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let count = AtomicU64::new(0);
        let items: Vec<usize> = (0..50).collect();
        let _ = par_map(&items, 4, |_| count.fetch_add(1, Ordering::SeqCst));
        assert_eq!(count.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn zero_jobs_means_all_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
        let items: Vec<u32> = (0..16).collect();
        assert_eq!(par_map(&items, 0, |&x| x), items);
    }
}
