//! The dense flow arena: stable integer handles and O(1) lookups.
//!
//! Every poll decision used to rediscover flows with `iter().find(...)`
//! scans and rebuild per-slave lists with fresh `Vec`s. [`FlowTable`]
//! precomputes all of that once per simulation:
//!
//! * a dense arena of [`FlowSpec`]s addressed by [`FlowIdx`] (a `u32`
//!   newtype), stable for the lifetime of the table;
//! * lookup by [`FlowId`] (a direct map for small ids, a binary search
//!   for sparse ones) and O(1) lookup by the `(slave, direction, channel)`
//!   triple the exchange machinery keys on;
//! * precomputed, sorted slave lists — overall and per logical channel —
//!   so pollers iterate slices instead of allocating;
//! * precomputed per-slave flow lists for predictor/fairness style pollers.

use crate::flow::{validate_flows, FlowSpec};
use btgs_baseband::{AmAddr, Direction, LogicalChannel};
use btgs_traffic::FlowId;

/// Dense index of a flow within a [`FlowTable`] (and within the parallel
/// queue/report arrays of the simulator).
///
/// Indices are assigned in configuration order, so `FlowIdx(0)` is the
/// first configured flow. They are stable for the lifetime of the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowIdx(pub u32);

impl FlowIdx {
    /// The index as a `usize`, for addressing parallel arrays.
    #[inline]
    pub const fn get(self) -> usize {
        self.0 as usize
    }
}

/// Size of the flattened `(slave, direction, channel)` key table: the next
/// power of two above 7 slaves x 4 keys, so indexing can be masked instead
/// of bounds-checked.
const KEY_SLOTS: usize = 32;

/// Flattened key of a `(slave, direction, channel)` triple, always
/// `< KEY_SLOTS`. The `& (KEY_SLOTS - 1)` mask is a no-op for valid
/// addresses (1..=7) but lets the compiler drop the bounds check.
#[inline]
const fn key_of(slave: AmAddr, direction: Direction, channel: LogicalChannel) -> usize {
    let d = match direction {
        Direction::MasterToSlave => 0,
        Direction::SlaveToMaster => 1,
    };
    let c = match channel {
        LogicalChannel::GuaranteedService => 0,
        LogicalChannel::BestEffort => 1,
    };
    (((slave.get() as usize - 1) << 2) | (d << 1) | c) & (KEY_SLOTS - 1)
}

#[inline]
const fn slave_slot(slave: AmAddr) -> usize {
    (slave.get() - 1) as usize
}

/// Resolves a flow id to its value: a [`FlowIdx`] in a [`FlowTable`], the
/// owning piconet of a global id in the scatternet's routing.
///
/// Every lookup is cold (source registration, poller setup, by-id view
/// queries): the simulation's hot paths address flows by [`FlowIdx`].
#[derive(Clone, Debug)]
pub(crate) enum IdIndex<V> {
    /// Direct map for the common case of small ids: `dense[id] == value`.
    Dense(Vec<Option<V>>),
    /// `(id, value)` pairs sorted by id, binary-searched, for sparse id
    /// spaces.
    Sparse(Vec<(FlowId, V)>),
}

impl<V> Default for IdIndex<V> {
    fn default() -> Self {
        IdIndex::Dense(Vec::new())
    }
}

/// Largest id a direct map will spend memory on, relative to the entry
/// count.
const DENSE_ID_HEADROOM: usize = 64;

impl<V: Copy> IdIndex<V> {
    /// Indexes the `(id, value)` pairs `entries` yields; it is called
    /// twice, to size the index and to fill it.
    ///
    /// # Errors
    ///
    /// Returns an id yielded twice.
    pub(crate) fn build<I>(entries: impl Fn() -> I) -> Result<IdIndex<V>, FlowId>
    where
        I: Iterator<Item = (FlowId, V)>,
    {
        let (len, max_id) = entries().fold((0, 0), |(len, max), (id, _)| {
            (len + 1, max.max(id.0 as usize))
        });
        if max_id > len * 8 + DENSE_ID_HEADROOM {
            let mut sorted: Vec<(FlowId, V)> = entries().collect();
            sorted.sort_by_key(|&(id, _)| id);
            return match sorted.windows(2).find(|w| w[0].0 == w[1].0) {
                Some(w) => Err(w[0].0),
                None => Ok(IdIndex::Sparse(sorted)),
            };
        }
        let mut dense = vec![None; max_id + 1];
        for (id, value) in entries() {
            if dense[id.0 as usize].replace(value).is_some() {
                return Err(id);
            }
        }
        Ok(IdIndex::Dense(dense))
    }

    /// The value of `id`.
    #[inline]
    pub(crate) fn get(&self, id: FlowId) -> Option<V> {
        match self {
            IdIndex::Dense(dense) => *dense.get(id.0 as usize)?,
            IdIndex::Sparse(sorted) => sorted
                .binary_search_by_key(&id, |&(id, _)| id)
                .ok()
                .map(|i| sorted[i].1),
        }
    }
}

/// The dense flow arena of one piconet.
///
/// Built once (at configuration time) from the validated flow set; every
/// hot-path lookup is then O(1) and allocation-free:
///
/// ```
/// use btgs_piconet::{FlowSpec, FlowTable};
/// use btgs_baseband::{AmAddr, Direction, LogicalChannel};
/// use btgs_traffic::FlowId;
///
/// let s = |n| AmAddr::new(n).unwrap();
/// let table = FlowTable::new(vec![
///     FlowSpec::new(FlowId(1), s(1), Direction::SlaveToMaster, LogicalChannel::GuaranteedService),
///     FlowSpec::new(FlowId(5), s(2), Direction::MasterToSlave, LogicalChannel::BestEffort),
/// ]).unwrap();
///
/// let idx = table.idx_of(FlowId(5)).unwrap();
/// assert_eq!(table.spec(idx).slave, s(2));
/// assert_eq!(table.slaves(), [s(1), s(2)]);
/// assert_eq!(table.slaves_on(LogicalChannel::BestEffort), [s(2)]);
/// assert_eq!(table.flows_of(s(2)), [idx]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    specs: Vec<FlowSpec>,
    by_id: IdIndex<FlowIdx>,
    /// Flattened `(slave, direction, channel) -> FlowIdx` map; see
    /// [`key_of`].
    by_key: [Option<FlowIdx>; KEY_SLOTS],
    /// Distinct slaves with at least one flow, in address order.
    slaves: Vec<AmAddr>,
    /// Distinct slaves with at least one GS flow, in address order.
    slaves_gs: Vec<AmAddr>,
    /// Distinct slaves with at least one BE flow, in address order.
    slaves_be: Vec<AmAddr>,
    /// Flow indices grouped by slave: `per_slave[slave_slot]` lists the
    /// flows of that slave in configuration (= index) order.
    per_slave: [Vec<FlowIdx>; AmAddr::MAX_SLAVES],
}

impl FlowTable {
    /// Builds the table from a flow set, validating it first (see
    /// [`validate_flows`]).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated flow-set
    /// rule.
    pub fn new(flows: Vec<FlowSpec>) -> Result<FlowTable, String> {
        validate_flows(&flows)?;
        Ok(FlowTable::from_validated(flows))
    }

    /// Builds the table from a flow set the caller has already validated
    /// (e.g. via [`validate_flows`] as part of a wider config check).
    pub(crate) fn from_validated(flows: Vec<FlowSpec>) -> FlowTable {
        debug_assert!(validate_flows(&flows).is_ok());
        let mut table = FlowTable {
            by_id: IdIndex::build(|| {
                flows
                    .iter()
                    .enumerate()
                    .map(|(i, f)| (f.id, FlowIdx(i as u32)))
            })
            .expect("validated flow ids are unique"),
            specs: flows,
            ..FlowTable::default()
        };
        for (i, f) in table.specs.iter().enumerate() {
            let idx = FlowIdx(i as u32);
            table.by_key[key_of(f.slave, f.direction, f.channel)] = Some(idx);
            table.per_slave[slave_slot(f.slave)].push(idx);
            for (list, relevant) in [
                (&mut table.slaves, true),
                (&mut table.slaves_gs, f.channel.is_gs()),
                (&mut table.slaves_be, !f.channel.is_gs()),
            ] {
                if relevant {
                    if let Err(pos) = list.binary_search(&f.slave) {
                        list.insert(pos, f.slave);
                    }
                }
            }
        }
        table
    }

    /// Number of flows in the table.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if the table holds no flows.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// All flow specs, in index order.
    #[inline]
    pub fn specs(&self) -> &[FlowSpec] {
        &self.specs
    }

    /// The spec of a flow by dense index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (indices from *another* table are
    /// not valid here).
    #[inline]
    pub fn spec(&self, idx: FlowIdx) -> &FlowSpec {
        &self.specs[idx.get()]
    }

    /// The id of a flow by dense index.
    #[inline]
    pub fn id(&self, idx: FlowIdx) -> FlowId {
        self.specs[idx.get()].id
    }

    /// Dense index of a flow id: O(1) for small ids, a binary search for
    /// sparse ones.
    #[inline]
    pub fn idx_of(&self, id: FlowId) -> Option<FlowIdx> {
        self.by_id.get(id)
    }

    /// Dense index of the unique flow at `(slave, direction, channel)`,
    /// O(1).
    #[inline]
    pub fn at(
        &self,
        slave: AmAddr,
        direction: Direction,
        channel: LogicalChannel,
    ) -> Option<FlowIdx> {
        self.by_key[key_of(slave, direction, channel)]
    }

    /// Iterates `(idx, spec)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowIdx, &FlowSpec)> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, f)| (FlowIdx(i as u32), f))
    }

    /// The distinct slaves with at least one flow, in address order.
    #[inline]
    pub fn slaves(&self) -> &[AmAddr] {
        &self.slaves
    }

    /// The distinct slaves with at least one flow on `channel`, in address
    /// order.
    #[inline]
    pub fn slaves_on(&self, channel: LogicalChannel) -> &[AmAddr] {
        match channel {
            LogicalChannel::GuaranteedService => &self.slaves_gs,
            LogicalChannel::BestEffort => &self.slaves_be,
        }
    }

    /// The flows of one slave, in index order (empty for slaves without
    /// flows).
    #[inline]
    pub fn flows_of(&self, slave: AmAddr) -> &[FlowIdx] {
        &self.per_slave[slave_slot(slave)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    fn paper_like() -> Vec<FlowSpec> {
        vec![
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(2),
                s(2),
                Direction::MasterToSlave,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(3),
                s(2),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(5),
                s(4),
                Direction::MasterToSlave,
                LogicalChannel::BestEffort,
            ),
            FlowSpec::new(
                FlowId(6),
                s(4),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
        ]
    }

    #[test]
    fn id_and_key_lookups_agree_with_linear_scan() {
        let flows = paper_like();
        let table = FlowTable::new(flows.clone()).unwrap();
        assert_eq!(table.len(), flows.len());
        for (i, f) in flows.iter().enumerate() {
            let idx = table.idx_of(f.id).unwrap();
            assert_eq!(idx, FlowIdx(i as u32));
            assert_eq!(table.spec(idx), f);
            assert_eq!(table.id(idx), f.id);
            assert_eq!(table.at(f.slave, f.direction, f.channel), Some(idx));
        }
        assert!(table.idx_of(FlowId(99)).is_none());
        assert!(table
            .at(s(7), Direction::SlaveToMaster, LogicalChannel::BestEffort)
            .is_none());
    }

    #[test]
    fn slave_lists_are_sorted_and_channel_split() {
        let table = FlowTable::new(paper_like()).unwrap();
        assert_eq!(table.slaves(), [s(1), s(2), s(4)]);
        assert_eq!(
            table.slaves_on(LogicalChannel::GuaranteedService),
            [s(1), s(2)]
        );
        assert_eq!(table.slaves_on(LogicalChannel::BestEffort), [s(4)]);
    }

    #[test]
    fn per_slave_lists_are_complete() {
        let table = FlowTable::new(paper_like()).unwrap();
        assert_eq!(table.flows_of(s(2)), [FlowIdx(1), FlowIdx(2)]);
        assert_eq!(table.flows_of(s(4)), [FlowIdx(3), FlowIdx(4)]);
        assert!(table.flows_of(s(7)).is_empty());
        let total: usize = (1..=7).map(|n| table.flows_of(s(n)).len()).sum();
        assert_eq!(total, table.len());
    }

    #[test]
    fn rejects_invalid_flow_sets() {
        let dup = vec![
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
            FlowSpec::new(
                FlowId(1),
                s(2),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
        ];
        assert!(FlowTable::new(dup).is_err());
    }

    #[test]
    fn sparse_ids_are_binary_searched() {
        // Max id 10,000 over four entries is far past `8 * len + 64`.
        let ids = [9_000u32, 17, 10_000, 512];
        let index = IdIndex::build(|| ids.iter().enumerate().map(|(i, &id)| (FlowId(id), i)))
            .expect("distinct ids");
        assert!(matches!(index, IdIndex::Sparse(_)));
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(index.get(FlowId(id)), Some(i), "hit {id}");
        }
        for miss in [0, 16, 18, 511, 9_999, 10_001, u32::MAX] {
            assert_eq!(index.get(FlowId(miss)), None, "miss {miss}");
        }
        let dup = [9_000u32, 17, 10_000, 17];
        let err = IdIndex::build(|| dup.iter().map(|&id| (FlowId(id), ()))).unwrap_err();
        assert_eq!(err, FlowId(17));
    }

    #[test]
    fn empty_table() {
        let table = FlowTable::new(Vec::new()).unwrap();
        assert!(table.is_empty());
        assert!(table.slaves().is_empty());
        assert!(table.iter().next().is_none());
    }
}
