//! User-supplied task functions — record sources, mappers, combiners
//! and reducers — and the task loops that drive them.
//!
//! Keys and values are generic; the engine only requires intermediate
//! keys to be orderable and hashable so it can sort-merge the shuffle
//! (§2.3: Reduce tasks "merge all their data into a sorted list").
//!
//! [`map_records`], [`reduce_merged`] and [`check_annotation`] are the
//! only map and merge→reduce loops in the workspace: the in-process
//! runtime and a fleet worker (`sidr-core`'s `SpecExecutor`) both run
//! their attempts through them, so fault injection, routing, batching
//! and the §3.2.1 annotation check behave identically in either place.

use std::fmt::Debug;
use std::hash::Hash;

use crate::error::MrError;
use crate::fault::FaultKind;
use crate::plan::RoutingPlan;
use crate::shuffle::{GroupBatch, MapOutputBuilder, MergeIter};
use crate::split::MapTaskId;
use crate::Result;

/// Bounds every intermediate key must satisfy.
pub trait MrKey: Clone + Ord + Hash + Send + Sync + Debug + 'static {}
impl<T: Clone + Ord + Hash + Send + Sync + Debug + 'static> MrKey for T {}

/// Bounds every value must satisfy.
pub trait MrValue: Clone + Send + Sync + Debug + 'static {}
impl<T: Clone + Send + Sync + Debug + 'static> MrValue for T {}

/// Produces the records of one input split — the RecordReader of
/// §2.3, abstracted so tests can feed in-memory data and the real
/// path can stream from SciNC files.
pub trait RecordSource: Send {
    type Key: MrKey;
    type Value: MrValue;

    /// The next record, or `None` at end of split.
    fn next_record(&mut self) -> Result<Option<(Self::Key, Self::Value)>>;

    /// Total records this source will produce, when known up front
    /// (SciHadoop always knows: `Iᵢ ≡ K_Tᵢ`).
    fn total_hint(&self) -> Option<u64> {
        None
    }
}

/// A record source over an in-memory slice (tests, micro-benches).
pub struct SliceRecordSource<K: MrKey, V: MrValue> {
    records: std::vec::IntoIter<(K, V)>,
    total: u64,
}

impl<K: MrKey, V: MrValue> SliceRecordSource<K, V> {
    pub fn new(records: Vec<(K, V)>) -> Self {
        let total = records.len() as u64;
        SliceRecordSource {
            records: records.into_iter(),
            total,
        }
    }
}

impl<K: MrKey, V: MrValue> RecordSource for SliceRecordSource<K, V> {
    type Key = K;
    type Value = V;

    fn next_record(&mut self) -> Result<Option<(K, V)>> {
        Ok(self.records.next())
    }

    fn total_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

/// The user Map function. One instance is shared by all Map tasks
/// (hence `Sync`); per-record state belongs in the emitted values.
pub trait Mapper: Send + Sync {
    type InKey: MrKey;
    type InValue: MrValue;
    type OutKey: MrKey;
    type OutValue: MrValue;

    /// Maps one record, emitting zero or more intermediate pairs.
    fn map(
        &self,
        key: &Self::InKey,
        value: &Self::InValue,
        emit: &mut dyn FnMut(Self::OutKey, Self::OutValue),
    );
}

/// The user Reduce function: all values of one intermediate key,
/// delivered together (MapReduce guarantee 2, §2.3).
pub trait Reducer: Send + Sync {
    type Key: MrKey;
    type InValue: MrValue;
    type OutValue: MrValue;

    /// Reduces one key group, emitting zero or more output values.
    fn reduce(
        &self,
        key: &Self::Key,
        values: &[Self::InValue],
        emit: &mut dyn FnMut(Self::OutValue),
    );
}

/// Optional map-side combiner: folds the values a single Map task
/// produced for one key into fewer values ("Map tasks often combine
/// key/value pairs sharing the same key in an effort to reduce disk
/// and network IO", §3.2.1). The shuffle's count annotations keep
/// track of how many raw pairs each combined pair represents.
pub trait Combiner: Send + Sync {
    type Key: MrKey;
    type Value: MrValue;

    /// Combines the values of one key *in place*: on entry `values`
    /// holds every value the Map task produced for `key`; on return
    /// it holds the combined (usually shorter) list. In-place so the
    /// engine can hand the same group buffer to every key of a sorted
    /// run — zero steady-state allocation in the map-side combine.
    fn combine(&self, key: &Self::Key, values: &mut Vec<Self::Value>);
}

/// A mapper from a plain function pointer / closure.
pub struct FnMapper<IK, IV, OK, OV, F> {
    f: F,
    // Variance/ownership marker, not data: keep the fn signature.
    #[allow(clippy::type_complexity)]
    _marker: std::marker::PhantomData<fn(IK, IV) -> (OK, OV)>,
}

impl<IK, IV, OK, OV, F> FnMapper<IK, IV, OK, OV, F>
where
    F: Fn(&IK, &IV, &mut dyn FnMut(OK, OV)) + Send + Sync,
{
    pub fn new(f: F) -> Self {
        FnMapper {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<IK, IV, OK, OV, F> Mapper for FnMapper<IK, IV, OK, OV, F>
where
    IK: MrKey,
    IV: MrValue,
    OK: MrKey,
    OV: MrValue,
    F: Fn(&IK, &IV, &mut dyn FnMut(OK, OV)) + Send + Sync,
{
    type InKey = IK;
    type InValue = IV;
    type OutKey = OK;
    type OutValue = OV;

    fn map(&self, key: &IK, value: &IV, emit: &mut dyn FnMut(OK, OV)) {
        (self.f)(key, value, emit)
    }
}

/// A reducer from a plain function pointer / closure.
pub struct FnReducer<K, IV, OV, F> {
    f: F,
    _marker: std::marker::PhantomData<fn(K, IV) -> OV>,
}

impl<K, IV, OV, F> FnReducer<K, IV, OV, F>
where
    F: Fn(&K, &[IV], &mut dyn FnMut(OV)) + Send + Sync,
{
    pub fn new(f: F) -> Self {
        FnReducer {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<K, IV, OV, F> Reducer for FnReducer<K, IV, OV, F>
where
    K: MrKey,
    IV: MrValue,
    OV: MrValue,
    F: Fn(&K, &[IV], &mut dyn FnMut(OV)) + Send + Sync,
{
    type Key = K;
    type InValue = IV;
    type OutValue = OV;

    fn reduce(&self, key: &K, values: &[IV], emit: &mut dyn FnMut(OV)) {
        (self.f)(key, values, emit)
    }
}

/// The map record loop of one attempt: opens the split's source, maps
/// every record and routes each emitted pair through `plan` into
/// `builder`. Returns `(records_in, records_out)`.
///
/// The attempt's injected `fault` is applied here when it belongs to
/// the loop: [`FaultKind::Fail`] dies before the source is opened, and
/// [`FaultKind::SourceError`] turns the record stream into a transient
/// I/O error mid-read. Straggle delays and post-commit corruption stay
/// with the callers, which sleep and publish differently.
///
/// `?Sized` mapper and plan keep the runtime's `dyn` user functions
/// while a worker dispatches statically.
pub fn map_records<S, M, P>(
    open: impl FnOnce() -> Result<S>,
    mapper: &M,
    plan: &P,
    builder: &mut MapOutputBuilder<M::OutKey, M::OutValue>,
    fault: Option<FaultKind>,
    task: MapTaskId,
    attempt: u32,
) -> Result<(u64, u64)>
where
    S: RecordSource<Key = M::InKey, Value = M::InValue>,
    M: Mapper + ?Sized,
    P: RoutingPlan<M::OutKey> + ?Sized,
{
    let source_err_after = match fault {
        Some(FaultKind::Fail) => {
            return Err(MrError::Source(format!(
                "injected failure: map {task} attempt {attempt}"
            )));
        }
        Some(FaultKind::SourceError { after_records }) => Some(after_records),
        _ => None,
    };
    let mut source = open()?;
    let mut records_in = 0u64;
    let mut records_out = 0u64;
    // The emit callback cannot return errors; park the first one.
    let mut push_err: Option<MrError> = None;
    while let Some((k, v)) = source.next_record()? {
        if source_err_after.is_some_and(|after| records_in >= after) {
            return Err(MrError::Source(format!(
                "injected transient I/O error: map {task} attempt {attempt} \
                 after {records_in} records"
            )));
        }
        records_in += 1;
        mapper.map(&k, &v, &mut |k2, v2| {
            if push_err.is_some() {
                return;
            }
            let reducer = plan.partition(&k2);
            if let Err(e) = builder.push(reducer, k2, v2) {
                push_err = Some(e);
            }
            records_out += 1;
        });
        if let Some(e) = push_err {
            return Err(e);
        }
    }
    Ok((records_in, records_out))
}

/// Records handed through the merge per [`GroupBatch`] fill once the
/// first group is out: big enough to amortize heap bookkeeping, small
/// enough that a batch of ⟨coord, f64⟩ stays cache-resident.
const REDUCE_BATCH_RECORDS: usize = 4096;

/// §3.2.1 approach 2: before a reduce processes anything, its raw
/// ⟨k,v⟩ annotation tally must equal the plan's expectation. Starting
/// on less input than the geometry promises would produce "an answer
/// based on insufficient input". `expected = None` skips the check.
pub fn check_annotation(reducer: usize, expected: Option<u64>, actual: u64) -> Result<()> {
    match expected {
        Some(expected) if expected != actual => Err(MrError::AnnotationMismatch {
            reducer,
            expected,
            actual,
        }),
        _ => Ok(()),
    }
}

/// The streaming merge→reduce loop of one attempt. Groups leave the
/// k-way merge in cache-sized [`GroupBatch`]es and each group's output
/// is appended to `out`; `on_group(out, start)` then sees it as
/// `out[start..]` while later groups are still merging. The first
/// batch is a single group, and stays so until a group emits, so the
/// §3.4 early-result clock starts as soon as the merge can produce
/// anything; after that, batches amortize the per-group heap
/// bookkeeping. No whole-keyspace `Vec<(K, Vec<V>)>` is materialized.
///
/// `on_group` may keep `out` growing (an atomic commit at the end) or
/// clear it (forwarding each group elsewhere). Returns the number of
/// records emitted.
pub fn reduce_merged<K, V, R, E>(
    merge: &mut MergeIter<K, V>,
    reducer: &R,
    out: &mut Vec<(K, R::OutValue)>,
    mut on_group: impl FnMut(&mut Vec<(K, R::OutValue)>, usize) -> std::result::Result<(), E>,
) -> std::result::Result<u64, E>
where
    K: MrKey,
    V: MrValue,
    R: Reducer<Key = K, InValue = V> + ?Sized,
{
    let mut emitted = 0u64;
    let mut first_group = true;
    let mut batch: GroupBatch<K, V> = GroupBatch::new();
    loop {
        let budget = if first_group { 1 } else { REDUCE_BATCH_RECORDS };
        if merge.fill_batch(&mut batch, budget) == 0 {
            return Ok(emitted);
        }
        for (key, values) in batch.groups() {
            let start = out.len();
            reducer.reduce(key, values, &mut |v3| out.push((key.clone(), v3)));
            if out.len() > start {
                emitted += (out.len() - start) as u64;
                on_group(out, start)?;
                first_group = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_yields_in_order() {
        let mut s = SliceRecordSource::new(vec![(1u64, "a"), (2, "b")]);
        assert_eq!(s.total_hint(), Some(2));
        assert_eq!(s.next_record().unwrap(), Some((1, "a")));
        assert_eq!(s.next_record().unwrap(), Some((2, "b")));
        assert_eq!(s.next_record().unwrap(), None);
    }

    #[test]
    fn fn_mapper_and_reducer_adapt_closures() {
        let m =
            FnMapper::new(|k: &u64, v: &u64, emit: &mut dyn FnMut(u64, u64)| emit(k % 2, v * 10));
        let mut out = Vec::new();
        m.map(&3, &7, &mut |k, v| out.push((k, v)));
        assert_eq!(out, vec![(1, 70)]);

        let r =
            FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.iter().sum()));
        let mut out = Vec::new();
        r.reduce(&1, &[70, 30], &mut |v| out.push(v));
        assert_eq!(out, vec![100]);
    }
}
