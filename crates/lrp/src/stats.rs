//! Evaluation statistics counters for the indexing and caching layer.
//!
//! The hot paths of this crate — canonicalization, subsumption checks,
//! data-vector index lookups, per-tuple memoization — increment cheap
//! thread-local counters here. The deductive engine (and anything else
//! driving a fixpoint) takes a [`snapshot`] before and after an evaluation
//! and reports the difference, so concurrent evaluations on other threads
//! never pollute each other's numbers.
//!
//! Counters are monotone within a thread; nested measurements must scope
//! themselves by snapshot subtraction, never by resetting (two nested
//! resets would clobber each other).

use std::cell::Cell;
use std::ops::{Add, AddAssign, Sub};

/// One thread's counter values at a point in time.
///
/// Obtain with [`snapshot`]; subtract two snapshots to scope a measurement
/// (`after - before`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Calls to `Zone::canonicalize` (the congruence-tightening fixpoint).
    pub canonicalize_calls: u64,
    /// Tuple-level canonical-form requests answered from the memo.
    pub canonical_cache_hits: u64,
    /// Tuple-level canonical-form requests that had to compute.
    pub canonical_cache_misses: u64,
    /// Tuple-level emptiness verdicts answered from the memo.
    pub empty_cache_hits: u64,
    /// Tuple-level emptiness verdicts that had to compute.
    pub empty_cache_misses: u64,
    /// Semantic subsumption checks (`GeneralizedTuple::subsumed_by`).
    pub subsumption_checks: u64,
    /// Tuples actually consulted through the data-vector index.
    pub index_candidates: u64,
    /// Tuples a full linear scan would have consulted at the same sites.
    pub index_scanned_naive: u64,
}

impl Counters {
    /// Fraction of tuple consultations the index avoided, in `[0, 1]`.
    /// `None` when no indexed site ran.
    pub fn narrowing_ratio(&self) -> Option<f64> {
        if self.index_scanned_naive == 0 {
            return None;
        }
        Some(1.0 - self.index_candidates as f64 / self.index_scanned_naive as f64)
    }

    /// Hit rate of the per-tuple canonical-form memo, in `[0, 1]`.
    /// `None` when no canonical form was requested.
    pub fn canonical_hit_rate(&self) -> Option<f64> {
        let total = self.canonical_cache_hits + self.canonical_cache_misses;
        if total == 0 {
            return None;
        }
        Some(self.canonical_cache_hits as f64 / total as f64)
    }

    /// Hit rate of the per-tuple emptiness memo, in `[0, 1]`.
    /// `None` when no emptiness verdict was requested.
    pub fn empty_hit_rate(&self) -> Option<f64> {
        let total = self.empty_cache_hits + self.empty_cache_misses;
        if total == 0 {
            return None;
        }
        Some(self.empty_cache_hits as f64 / total as f64)
    }
}

impl Add for Counters {
    type Output = Counters;

    /// Folds two scoped measurements. The counters themselves are
    /// **thread-local**, so a pool of worker threads cannot recover an
    /// aggregate by calling [`snapshot`] from a coordinating thread — it
    /// would see only its own (idle) counters. Each worker must scope its
    /// evaluation by snapshot subtraction and the coordinator must fold
    /// the per-evaluation deltas with `+` / `+=`.
    fn add(self, rhs: Counters) -> Counters {
        Counters {
            canonicalize_calls: self.canonicalize_calls + rhs.canonicalize_calls,
            canonical_cache_hits: self.canonical_cache_hits + rhs.canonical_cache_hits,
            canonical_cache_misses: self.canonical_cache_misses + rhs.canonical_cache_misses,
            empty_cache_hits: self.empty_cache_hits + rhs.empty_cache_hits,
            empty_cache_misses: self.empty_cache_misses + rhs.empty_cache_misses,
            subsumption_checks: self.subsumption_checks + rhs.subsumption_checks,
            index_candidates: self.index_candidates + rhs.index_candidates,
            index_scanned_naive: self.index_scanned_naive + rhs.index_scanned_naive,
        }
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        *self = *self + rhs;
    }
}

impl Sub for Counters {
    type Output = Counters;

    /// Scopes a measurement (`after - before`), saturating at zero per
    /// field. Plain subtraction would panic in debug builds when a stale
    /// `before` snapshot outruns `after` — which happens when the two
    /// snapshots were taken on different threads. A saturated field clamps
    /// the delta of a mis-scoped measurement to zero instead of crashing
    /// the evaluation that was only trying to report statistics.
    fn sub(self, rhs: Counters) -> Counters {
        Counters {
            canonicalize_calls: self
                .canonicalize_calls
                .saturating_sub(rhs.canonicalize_calls),
            canonical_cache_hits: self
                .canonical_cache_hits
                .saturating_sub(rhs.canonical_cache_hits),
            canonical_cache_misses: self
                .canonical_cache_misses
                .saturating_sub(rhs.canonical_cache_misses),
            empty_cache_hits: self.empty_cache_hits.saturating_sub(rhs.empty_cache_hits),
            empty_cache_misses: self
                .empty_cache_misses
                .saturating_sub(rhs.empty_cache_misses),
            subsumption_checks: self
                .subsumption_checks
                .saturating_sub(rhs.subsumption_checks),
            index_candidates: self.index_candidates.saturating_sub(rhs.index_candidates),
            index_scanned_naive: self
                .index_scanned_naive
                .saturating_sub(rhs.index_scanned_naive),
        }
    }
}

thread_local! {
    static COUNTERS: Cell<Counters> = const { Cell::new(Counters {
        canonicalize_calls: 0,
        canonical_cache_hits: 0,
        canonical_cache_misses: 0,
        empty_cache_hits: 0,
        empty_cache_misses: 0,
        subsumption_checks: 0,
        index_candidates: 0,
        index_scanned_naive: 0,
    }) };
}

/// The current thread's counter values.
pub fn snapshot() -> Counters {
    COUNTERS.with(|c| c.get())
}

fn bump(f: impl FnOnce(&mut Counters)) {
    COUNTERS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

pub(crate) fn note_canonicalize() {
    bump(|c| c.canonicalize_calls += 1);
}

pub(crate) fn note_canonical_cache(hit: bool) {
    bump(|c| {
        if hit {
            c.canonical_cache_hits += 1;
        } else {
            c.canonical_cache_misses += 1;
        }
    });
}

pub(crate) fn note_empty_cache(hit: bool) {
    bump(|c| {
        if hit {
            c.empty_cache_hits += 1;
        } else {
            c.empty_cache_misses += 1;
        }
    });
}

pub(crate) fn note_subsumption_check() {
    bump(|c| c.subsumption_checks += 1);
}

/// Records one indexed consultation site: `candidates` tuples were examined
/// where a naive scan would have examined `scanned` tuples.
///
/// Public so higher layers (the deductive engine's clause matcher) can
/// attribute their own index-driven narrowing to the same ledger.
pub fn note_index_lookup(candidates: u64, scanned: u64) {
    bump(|c| {
        c.index_candidates += candidates;
        c.index_scanned_naive += scanned;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_and_scoped_by_subtraction() {
        let before = snapshot();
        note_canonicalize();
        note_canonical_cache(true);
        note_canonical_cache(false);
        note_empty_cache(true);
        note_subsumption_check();
        note_index_lookup(2, 10);
        let delta = snapshot() - before;
        assert_eq!(delta.canonicalize_calls, 1);
        assert_eq!(delta.canonical_cache_hits, 1);
        assert_eq!(delta.canonical_cache_misses, 1);
        assert_eq!(delta.empty_cache_hits, 1);
        assert_eq!(delta.subsumption_checks, 1);
        assert_eq!(delta.index_candidates, 2);
        assert_eq!(delta.index_scanned_naive, 10);
        assert_eq!(delta.narrowing_ratio(), Some(0.8));
        assert_eq!(delta.canonical_hit_rate(), Some(0.5));
        assert_eq!(delta.empty_hit_rate(), Some(1.0));
    }

    /// The thread-locality trap: a coordinator snapshotting around work
    /// done on *other* threads measures nothing. The supported pattern is
    /// per-thread snapshot subtraction plus an explicit fold.
    #[test]
    fn cross_thread_aggregation_requires_explicit_folding() {
        let coordinator_before = snapshot();
        let deltas: Vec<Counters> = (0..3u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let before = snapshot();
                    for _ in 0..=i {
                        note_subsumption_check();
                        note_index_lookup(1, 4);
                    }
                    snapshot() - before
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        let coordinator_delta = snapshot() - coordinator_before;
        assert_eq!(
            coordinator_delta,
            Counters::default(),
            "the coordinator's thread-local counters never saw the workers"
        );
        let mut folded = Counters::default();
        for d in deltas {
            folded += d;
        }
        assert_eq!(folded.subsumption_checks, 6);
        assert_eq!(folded.index_candidates, 6);
        assert_eq!(folded.index_scanned_naive, 24);
    }

    /// Regression (cross-thread stats sweep): subtracting a larger
    /// snapshot from a smaller one — the shape a stale `before` takes
    /// when it was read on another thread — must clamp to zero, not
    /// underflow.
    #[test]
    fn sub_saturates_instead_of_underflowing() {
        let small = Counters {
            subsumption_checks: 1,
            ..Counters::default()
        };
        let large = Counters {
            canonicalize_calls: 7,
            canonical_cache_hits: 7,
            canonical_cache_misses: 7,
            empty_cache_hits: 7,
            empty_cache_misses: 7,
            subsumption_checks: 7,
            index_candidates: 7,
            index_scanned_naive: 7,
        };
        let clamped = small - large;
        assert_eq!(clamped, Counters::default(), "every field clamps to 0");
        // The well-scoped direction still measures exactly.
        assert_eq!((large - small).subsumption_checks, 6);
        assert_eq!((large - small).canonicalize_calls, 7);
    }

    #[test]
    fn rates_are_none_when_nothing_ran() {
        let zero = Counters::default();
        assert_eq!(zero.narrowing_ratio(), None);
        assert_eq!(zero.canonical_hit_rate(), None);
        assert_eq!(zero.empty_hit_rate(), None);
    }
}
