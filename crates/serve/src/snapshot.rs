//! Atomic model snapshots.
//!
//! The serving layer never mutates a model in place. A loaded model —
//! classifier plus its [`AnchorIndex`] — is frozen into an immutable
//! [`ModelSnapshot`] behind an `Arc`, and [`SnapshotStore`] swaps the
//! current `Arc` under a short write lock: the index is built before
//! the lock is taken, so a reload never stalls the requests' `load()`. A classify request clones
//! the `Arc` **once** and serves the whole batch from that clone, so a
//! concurrent reload can never produce a torn read: every response is
//! computed entirely against one generation, and the response says
//! which.

use mc_core::{AnchorIndex, MonotoneClassifier};
use std::sync::{Arc, RwLock};

/// One immutable generation of the served model.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Monotonically increasing swap counter (the initial model is
    /// generation 1).
    pub generation: u64,
    /// The classifier (kept for introspection and naive cross-checks).
    pub classifier: MonotoneClassifier,
    /// The query fast path built over the classifier's anchors.
    pub index: AnchorIndex,
}

impl ModelSnapshot {
    /// Freezes a classifier into a snapshot, building its index.
    pub fn new(generation: u64, classifier: MonotoneClassifier) -> Self {
        let index = AnchorIndex::build(&classifier);
        Self {
            generation,
            classifier,
            index,
        }
    }
}

/// The hot-swappable holder of the current snapshot.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<ModelSnapshot>>,
}

impl SnapshotStore {
    /// Starts the store at generation 1 with the given model.
    pub fn new(classifier: MonotoneClassifier) -> Self {
        Self {
            current: RwLock::new(Arc::new(ModelSnapshot::new(1, classifier))),
        }
    }

    /// The current snapshot. Cheap (one `Arc` clone under a read
    /// lock); hold the returned `Arc` for the duration of one request
    /// and no longer.
    pub fn load(&self) -> Arc<ModelSnapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Atomically replaces the model, returning the new snapshot.
    /// In-flight requests keep the `Arc` they already cloned; new
    /// requests see the new generation. The [`AnchorIndex`] is built
    /// first, outside the lock; the write lock is held only to stamp the
    /// next generation and swap the `Arc`, so concurrent swaps still get
    /// strictly increasing generations.
    pub fn swap(&self, classifier: MonotoneClassifier) -> Arc<ModelSnapshot> {
        let index = AnchorIndex::build(&classifier);
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        let next = Arc::new(ModelSnapshot {
            generation: slot.generation + 1,
            classifier,
            index,
        });
        *slot = next.clone();
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_geom::Label;

    #[test]
    fn generations_count_up_from_one() {
        let store = SnapshotStore::new(MonotoneClassifier::all_zero(2));
        assert_eq!(store.load().generation, 1);
        store.swap(MonotoneClassifier::all_one(2));
        assert_eq!(store.load().generation, 2);
        store.swap(MonotoneClassifier::all_zero(2));
        assert_eq!(store.load().generation, 3);
    }

    #[test]
    fn inflight_arc_survives_swap() {
        let store = SnapshotStore::new(MonotoneClassifier::all_zero(1));
        let held = store.load();
        store.swap(MonotoneClassifier::all_one(1));
        // The held snapshot still answers as generation 1.
        assert_eq!(held.generation, 1);
        assert_eq!(held.index.classify(&[0.0]), Label::Zero);
        assert_eq!(store.load().index.classify(&[0.0]), Label::One);
    }

    #[test]
    fn concurrent_swaps_get_strictly_increasing_generations() {
        // Four writers swap at once while a reader watches: every swap
        // gets its own generation, the store ends on the last, and no
        // load ever sees the generation go down.
        const WRITERS: u64 = 4;
        const SWAPS: u64 = 50;
        let store = SnapshotStore::new(MonotoneClassifier::all_zero(2));
        let mut got: Vec<u64> = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut last = 0;
                for _ in 0..2_000 {
                    let g = store.load().generation;
                    assert!(g >= last, "generation went from {last} to {g}");
                    last = g;
                }
            });
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let store = &store;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        let mut last = 0;
                        for i in 0..SWAPS {
                            let anchors = vec![vec![w as f64, i as f64], vec![i as f64, w as f64]];
                            let g = store
                                .swap(MonotoneClassifier::from_anchors(2, anchors))
                                .generation;
                            assert!(g > last, "one writer's generations must rise");
                            last = g;
                            mine.push(g);
                        }
                        mine
                    })
                })
                .collect();
            reader.join().unwrap();
            writers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        got.sort_unstable();
        let expected: Vec<u64> = (2..2 + WRITERS * SWAPS).collect();
        assert_eq!(got, expected, "each swap gets its own generation");
        assert_eq!(store.load().generation, 1 + WRITERS * SWAPS);
    }

    #[test]
    fn concurrent_loads_and_swaps_never_tear() {
        // Each generation alternates all-zero / all-one; a reader that
        // classifies twice from ONE load must get a consistent answer.
        let store = SnapshotStore::new(MonotoneClassifier::all_zero(1));
        std::thread::scope(|s| {
            s.spawn(|| {
                for g in 0..200 {
                    if g % 2 == 0 {
                        store.swap(MonotoneClassifier::all_one(1));
                    } else {
                        store.swap(MonotoneClassifier::all_zero(1));
                    }
                }
            });
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..500 {
                        let snap = store.load();
                        let a = snap.index.classify(&[5.0]);
                        let b = snap.index.classify(&[7.0]);
                        // All-zero rejects both, all-one accepts both;
                        // a torn snapshot would mix.
                        assert_eq!(a, b, "torn snapshot at gen {}", snap.generation);
                        let expected = if snap.generation % 2 == 1 {
                            Label::Zero
                        } else {
                            Label::One
                        };
                        assert_eq!(a, expected);
                    }
                });
            }
        });
    }
}
