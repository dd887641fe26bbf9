//! Core traits of the MapReduce programming model.
//!
//! The signatures mirror Section 3.1 of the paper:
//!
//! ```text
//! map    : <k1, v1>   -> [<k2, v2>]
//! reduce : <k2, [v2]> -> [<k3, v3>]
//! ```
//!
//! User code implements [`Mapper`] and [`Reducer`] and hands them to
//! [`crate::Job::run`].  Emission goes
//! through an [`Emitter`] so that the engine can count output records and
//! avoid intermediate allocations in user code.

use std::hash::Hash;

pub use smr_storage::Codec;

/// Bound alias for types usable as keys.
///
/// Keys must be orderable (the shuffle sorts each reduce partition by key,
/// exactly as Hadoop presents keys to reducers in sorted order), hashable
/// (for hash partitioning), cloneable/sendable (the engine moves them
/// across worker threads) and encodable ([`Codec`]): under a memory budget
/// the shuffle spills sorted runs to disk, and a flow's round state and
/// side data live in run files, so every key must have a canonical binary
/// encoding.  Primitives, `String`, tuples and `Vec`s come with one;
/// user types get theirs via `smr_storage::impl_codec_struct!`.
pub trait Key: Clone + Send + Sync + Ord + Hash + Codec + 'static {}
impl<T: Clone + Send + Sync + Ord + Hash + Codec + 'static> Key for T {}

/// Bound alias for types usable as values.  Values must be encodable for
/// the same reason keys are (see [`Key`]).
pub trait Value: Clone + Send + Sync + Codec + 'static {}
impl<T: Clone + Send + Sync + Codec + 'static> Value for T {}

/// Collects the key-value pairs emitted by a map or reduce invocation.
///
/// An `Emitter` is handed to every [`Mapper::map`] and [`Reducer::reduce`]
/// call; everything emitted is owned by the engine afterwards.
#[derive(Debug)]
pub struct Emitter<K, V> {
    pairs: Vec<(K, V)>,
}

impl<K, V> Emitter<K, V> {
    /// Creates an empty emitter.
    pub fn new() -> Self {
        Emitter { pairs: Vec::new() }
    }

    /// Creates an emitter with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Emitter {
            pairs: Vec::with_capacity(capacity),
        }
    }

    /// Emits one key-value pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }

    /// Number of pairs emitted so far.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Consumes the emitter and returns the emitted pairs.
    pub fn into_pairs(self) -> Vec<(K, V)> {
        self.pairs
    }

    /// Drains the emitted pairs, leaving the emitter empty but reusable.
    pub fn drain(&mut self) -> Vec<(K, V)> {
        std::mem::take(&mut self.pairs)
    }

    /// Calls `f` with every emitted pair and clears the emitter, keeping
    /// its allocation for reuse.  This is the per-record hot path of the
    /// streaming executor, which routes each pair straight into a
    /// partition buffer instead of materialising a task-sized vector.
    pub fn drain_each(&mut self, mut f: impl FnMut(K, V)) {
        for (key, value) in self.pairs.drain(..) {
            f(key, value);
        }
    }
}

impl<K, V> Default for Emitter<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// The user-defined map function.
///
/// Implementations must be `Send + Sync`: the engine calls `map` from many
/// worker threads concurrently (each call on a different input record).
pub trait Mapper: Send + Sync {
    /// Input key type (`k1`).
    type InKey: Key;
    /// Input value type (`v1`).
    type InValue: Value;
    /// Intermediate key type (`k2`).
    type OutKey: Key;
    /// Intermediate value type (`v2`).
    type OutValue: Value;

    /// Processes one input record, emitting any number of intermediate
    /// pairs.
    fn map(
        &self,
        key: &Self::InKey,
        value: &Self::InValue,
        out: &mut Emitter<Self::OutKey, Self::OutValue>,
    );
}

/// The key groups of one reduce task, in key order: an iterator of
/// `(key, values)` where every `values` is a slice of the task's one
/// contiguous value buffer — the merged partition, moved in and unzipped
/// once, never copied per group.  Values appear in shuffle order (map
/// task, then emission order).
#[derive(Debug, Clone)]
pub(crate) struct ReduceGroups<'a, K, V> {
    keys: std::slice::Iter<'a, K>,
    /// `ends[i]` is one past group `i`'s last value; parallel to `keys`.
    ends: std::slice::Iter<'a, usize>,
    values: &'a [V],
    start: usize,
}

impl<'a, K, V> ReduceGroups<'a, K, V> {
    pub(crate) fn new(keys: &'a [K], ends: &'a [usize], values: &'a [V]) -> Self {
        debug_assert_eq!(keys.len(), ends.len());
        ReduceGroups {
            keys: keys.iter(),
            ends: ends.iter(),
            values,
            start: 0,
        }
    }
}

impl<'a, K, V> Iterator for ReduceGroups<'a, K, V> {
    type Item = (&'a K, &'a [V]);

    fn next(&mut self) -> Option<Self::Item> {
        let key = self.keys.next()?;
        let end = *self.ends.next()?;
        let values = &self.values[self.start..end];
        self.start = end;
        Some((key, values))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.keys.size_hint()
    }
}

impl<K, V> ExactSizeIterator for ReduceGroups<'_, K, V> {}

/// The user-defined reduce function.
///
/// For every intermediate key the engine collects all values (from all map
/// tasks) and calls `reduce` exactly once with the full value list.
pub trait Reducer: Send + Sync {
    /// Intermediate key type (`k2`).
    type Key: Key;
    /// Intermediate value type (`v2`).
    type InValue: Value;
    /// Output key type (`k3`).
    type OutKey: Key;
    /// Output value type (`v3`).
    type OutValue: Value;

    /// Processes one key group.
    fn reduce(
        &self,
        key: &Self::Key,
        values: &[Self::InValue],
        out: &mut Emitter<Self::OutKey, Self::OutValue>,
    );
}

/// The reduce side of a round over partition-resident state (see
/// [`crate::flow::RoundState::round`]): the reducer of a key gets the
/// key's state record beside the notes that arrived for it.
///
/// Reduce task *p* merge-joins state partition *p* with its merged notes,
/// so `reduce` is called once for every key that has state, in key order,
/// with the notes in shuffle order — an empty slice when none arrived.
/// Notes addressed to keys without state are dropped.  The state is moved
/// in and the reducer moves it back out: `Some` keeps it for the next
/// round, `None` retires the key.  Anything else the round produces
/// (matched edges, a derived dataset) is emitted as side output.
///
/// The reducer that writes a record also holds it, so it emits the notes
/// of the next round about that record on `next`: a round needs no map
/// pass over the state.  Emit notes only when the very next round on the
/// same state consumes them, and only for a record that is kept.
pub trait StateReducer: Send + Sync {
    /// The key of state records and notes.
    type Key: Key;
    /// A key's state record.
    type State: Value;
    /// What a key tells another key about its own state.
    type Note: Value;
    /// Side-output key type.
    type OutKey: Key;
    /// Side-output value type.
    type OutValue: Value;

    /// Reduces one key: its state and its notes.
    fn reduce(
        &self,
        key: &Self::Key,
        state: Self::State,
        notes: &[Self::Note],
        out: &mut Emitter<Self::OutKey, Self::OutValue>,
        next: &mut Emitter<Self::Key, Self::Note>,
    ) -> Option<Self::State>;
}

/// A reducer that passes every value through under its key, in shuffle
/// order: for jobs whose map side does all the work, so the shuffle only
/// partitions and orders the records and the reduce output keeps that
/// order.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityReducer<K, V> {
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K, V> IdentityReducer<K, V> {
    /// Creates the identity reducer.
    pub fn new() -> Self {
        IdentityReducer {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<K: Key, V: Value> Reducer for IdentityReducer<K, V> {
    type Key = K;
    type InValue = V;
    type OutKey = K;
    type OutValue = V;

    fn reduce(&self, key: &K, values: &[V], out: &mut Emitter<K, V>) {
        for value in values {
            out.emit(key.clone(), value.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_collects_pairs_in_order() {
        let mut e: Emitter<u32, &'static str> = Emitter::new();
        assert!(e.is_empty());
        e.emit(2, "b");
        e.emit(1, "a");
        assert_eq!(e.len(), 2);
        assert_eq!(e.into_pairs(), vec![(2, "b"), (1, "a")]);
    }

    #[test]
    fn emitter_drain_each_visits_pairs_in_order_and_clears() {
        let mut e: Emitter<u32, u32> = Emitter::new();
        e.emit(1, 10);
        e.emit(2, 20);
        let mut seen = Vec::new();
        e.drain_each(|k, v| seen.push((k, v)));
        assert_eq!(seen, vec![(1, 10), (2, 20)]);
        assert!(e.is_empty());
        e.emit(3, 30);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn emitter_drain_resets_but_is_reusable() {
        let mut e: Emitter<u8, u8> = Emitter::with_capacity(4);
        e.emit(1, 1);
        let first = e.drain();
        assert_eq!(first, vec![(1, 1)]);
        assert!(e.is_empty());
        e.emit(2, 2);
        assert_eq!(e.drain(), vec![(2, 2)]);
    }

    #[test]
    fn identity_reducer_emits_every_value_under_its_key_in_order() {
        let r: IdentityReducer<u32, u32> = IdentityReducer::new();
        let mut out = Emitter::new();
        r.reduce(&7, &[3, 1, 2], &mut out);
        assert_eq!(out.into_pairs(), vec![(7, 3), (7, 1), (7, 2)]);
    }
}
