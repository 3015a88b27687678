//! Replayer for the B-link tree (§7.2.4).
//!
//! "`view_I` was defined to be the sorted list of all the (key, data)
//! pairs in the tree, along with their version numbers. ... The list was
//! computed by a left to right traversal of the leaf pointer nodes ...
//! The non-data nodes form an indexing structure ... but their structure
//! is abstracted in the computation of `view_I`."
//!
//! Only leaf and data node writes are logged (`supp(view_I)`); replay
//! reconstructs the leaf chain, and [`Replayer::view`] extracts the view
//! by walking it from the leftmost leaf (node 0). The per-commit check
//! never takes that walk (§6.4): three indexes kept up to date by each
//! write — which leaves are on the chain, which leaves name a key, which
//! keys point at a data node — answer [`Replayer::view_of`] from the one
//! leaf that holds the key.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::Hash;

use vyrd_core::replay::Replayer;
use vyrd_core::view::View;
use vyrd_core::{Value, VarId};

use crate::node::{decode_data, decode_leaf, LeafRecord, NodeId};

/// The longest suffix [`BLinkReplayer::splice`] walks on either side of a
/// changed right link. A split links one leaf in and a merge bypasses
/// one; a longer detour is no cheaper to splice than to recompute.
const SPLICE_STEPS: usize = 8;

/// Shadow state for the B-link tree leaf level.
///
/// The §6.4 incremental protocol: every write marks precisely the keys it
/// can affect —
///
/// * a data-node write dirties every key under which a leaf entry points
///   at that node (and the key stored in the record, before and after);
/// * a leaf write dirties the keys added to / removed from that leaf
///   (diff of the old and new entry lists), plus every key of any leaf
///   whose *reachability from node 0* changed (splits publish a new
///   sibling, merges bypass one);
///
/// and a key's entry is read from the leaves that name it, so a commit
/// costs what it touched, not what the tree holds.
#[derive(Debug)]
pub struct BLinkReplayer {
    /// leaf id -> (entries, right link).
    leaves: HashMap<NodeId, LeafRecord>,
    /// data node id -> (key, data, version).
    data: HashMap<NodeId, (i64, i64, u64)>,
    /// Leaves currently reachable from node 0 along right links; a
    /// dangling right-link target counts (the chain ends *at* it).
    reachable: BTreeSet<NodeId>,
    /// The chain runs into itself (a corrupt log). [`Self::splice`]
    /// assumes a simple path, so while this holds every right-link
    /// change recomputes `reachable` from node 0.
    cyclic: bool,
    /// key -> the leaves whose entry list names it, on the chain or not,
    /// once per distinct `(key, data node)` entry.
    holders: HashMap<i64, Vec<NodeId>>,
    /// data node id -> the keys of the leaf entries that point at it,
    /// once per entry. The key *in* the record is not consulted: when a
    /// corrupt implementation lets the two differ, `view_I` lists the
    /// record under the entry's key.
    referrers: HashMap<NodeId, Vec<i64>>,
    /// Keys whose view entries may have changed since the last commit.
    dirty: BTreeSet<i64>,
    /// Leaf records read, for the tests that pin what a check costs.
    #[cfg(test)]
    visits: std::cell::Cell<u64>,
}

impl Default for BLinkReplayer {
    fn default() -> BLinkReplayer {
        BLinkReplayer::new()
    }
}

/// Drops one occurrence of `item` from `index[at]`, and the list with its
/// last one.
fn forget<K: Hash + Eq, V: PartialEq>(index: &mut HashMap<K, Vec<V>>, at: K, item: &V) {
    if let Some(list) = index.get_mut(&at) {
        if let Some(pos) = list.iter().position(|x| x == item) {
            list.swap_remove(pos);
        }
        if list.is_empty() {
            index.remove(&at);
        }
    }
}

impl BLinkReplayer {
    /// Creates the shadow state of an empty tree (one empty leftmost
    /// leaf, node 0).
    pub fn new() -> BLinkReplayer {
        BLinkReplayer {
            leaves: HashMap::from([(0, (Vec::new(), None))]),
            data: HashMap::new(),
            reachable: BTreeSet::from([0]),
            cyclic: false,
            holders: HashMap::new(),
            referrers: HashMap::new(),
            dirty: BTreeSet::new(),
            #[cfg(test)]
            visits: std::cell::Cell::new(0),
        }
    }

    fn leaf(&self, id: NodeId) -> Option<&LeafRecord> {
        #[cfg(test)]
        self.visits.set(self.visits.get() + 1);
        self.leaves.get(&id)
    }

    /// The leaves reachable from node 0 along right links, and whether
    /// the walk ended by running into itself.
    fn compute_reachable(&self) -> (BTreeSet<NodeId>, bool) {
        let mut out = BTreeSet::new();
        let mut cur = Some(0);
        while let Some(id) = cur {
            if !out.insert(id) {
                return (out, true); // corrupt chain with a cycle: stop, let views differ
            }
            // A dangling right link (corrupt log) ends the chain.
            cur = self.leaf(id).and_then(|(_, right)| *right);
        }
        (out, false)
    }

    /// The entry lists along the chain from node 0, in traversal order.
    fn chain(&self) -> impl Iterator<Item = &[(i64, NodeId)]> {
        let mut visited = HashSet::new();
        let mut cur = Some(0);
        std::iter::from_fn(move || {
            let id = cur.filter(|&id| visited.insert(id))?;
            let (entries, right) = self.leaf(id)?;
            cur = *right;
            Some(entries.as_slice())
        })
    }

    /// Appends the reachable `(data, version)` records `entries` lists
    /// under `key`.
    fn records_of(&self, entries: &[(i64, NodeId)], key: i64, out: &mut Vec<(i64, u64)>) {
        for &(k, data_id) in entries {
            if k == key {
                if let Some(&(_, data, version)) = self.data.get(&data_id) {
                    out.push((data, version));
                }
            }
        }
    }

    /// What reachable leaf `writer`'s move of its right link away from
    /// `old_right` did to the chain: the leaves that entered it and the
    /// leaves that left it. Walks the new suffix to the first leaf
    /// already on the chain and the old suffix up to that join; `None`
    /// when the change is not such a detour (a cycle, a join upstream of
    /// `writer`, more than [`SPLICE_STEPS`] leaves on either side).
    fn splice(
        &self,
        writer: NodeId,
        old_right: Option<NodeId>,
    ) -> Option<(Vec<NodeId>, Vec<NodeId>)> {
        if self.cyclic {
            return None;
        }
        let mut entered = Vec::new();
        let mut cur = self.leaf(writer)?.1;
        while let Some(id) = cur.filter(|id| !self.reachable.contains(id)) {
            if entered.len() == SPLICE_STEPS || entered.contains(&id) {
                return None;
            }
            entered.push(id);
            cur = self.leaf(id).and_then(|(_, right)| *right);
        }
        // The chain was a simple path, so its old suffix cannot lead back
        // above `writer`: running off its end before the join means the
        // join is upstream and the new chain has a cycle.
        let join = cur;
        let mut left = Vec::new();
        let mut cur = old_right;
        while cur != join {
            let id = cur?;
            if left.len() == SPLICE_STEPS {
                return None;
            }
            left.push(id);
            cur = self.leaf(id).and_then(|(_, right)| *right);
        }
        Some((entered, left))
    }

    /// Brings `reachable` up to date after reachable leaf `writer` moved
    /// its right link (splits link a sibling in, merges bypass one):
    /// every key of a leaf that entered or left the chain is dirty.
    fn relink(&mut self, writer: NodeId, old_right: Option<NodeId>) {
        let changed = match self.splice(writer, old_right) {
            Some((entered, left)) => {
                self.reachable.extend(&entered);
                for id in &left {
                    self.reachable.remove(id);
                }
                [entered, left].concat()
            }
            None => {
                let (reachable, cyclic) = self.compute_reachable();
                // A chain that runs into itself can re-order its leaves
                // with none entering or leaving, and the order shows in
                // the entry of a key two of them hold.
                let changed = if self.cyclic || cyclic {
                    self.reachable.union(&reachable).copied().collect()
                } else {
                    self.reachable
                        .symmetric_difference(&reachable)
                        .copied()
                        .collect()
                };
                self.reachable = reachable;
                self.cyclic = cyclic;
                changed
            }
        };
        for id in changed {
            if let Some((entries, _)) = self.leaves.get(&id) {
                self.dirty.extend(entries.iter().map(|&(key, _)| key));
            }
        }
    }

    fn entry_value(records: &[(i64, u64)]) -> Value {
        records
            .iter()
            .map(|&(d, v)| Value::pair(Value::from(d), Value::from(v)))
            .collect()
    }
}

impl Replayer for BLinkReplayer {
    fn apply_write(&mut self, var: &VarId, value: &Value) {
        match var.space() {
            "leaf" => {
                let id = var.index() as NodeId;
                let Some((new_entries, new_right)) = decode_leaf(value) else {
                    return; // malformed record in a corrupt log
                };
                let new: BTreeSet<(i64, NodeId)> = new_entries.iter().copied().collect();
                let (old_entries, old_right) = self
                    .leaves
                    .insert(id, (new_entries, new_right))
                    .unwrap_or_default();
                let old: BTreeSet<(i64, NodeId)> = old_entries.into_iter().collect();
                // Keys entering/leaving this leaf are dirty. (Comparing
                // (key, data-node) pairs also catches entries re-pointed
                // at a different data node.)
                for &(key, data_id) in old.difference(&new) {
                    self.dirty.insert(key);
                    forget(&mut self.holders, key, &id);
                    forget(&mut self.referrers, data_id, &key);
                }
                for &(key, data_id) in new.difference(&old) {
                    self.dirty.insert(key);
                    self.holders.entry(key).or_default().push(id);
                    self.referrers.entry(data_id).or_default().push(key);
                }
                if old_right != new_right && self.reachable.contains(&id) {
                    self.relink(id, old_right);
                }
            }
            "data" => {
                if let Some((key, data, version)) = decode_data(value) {
                    let id = var.index() as NodeId;
                    if let Some((old_key, ..)) = self.data.insert(id, (key, data, version)) {
                        self.dirty.insert(old_key);
                    }
                    self.dirty.insert(key);
                    if let Some(keys) = self.referrers.get(&id) {
                        self.dirty.extend(keys);
                    }
                }
            }
            other => panic!("BLinkReplayer: unknown variable space {other:?}"),
        }
    }

    /// The whole walk: every reachable `(data, version)` record per key,
    /// in traversal order. What `view_of` must agree with, and what full
    /// comparisons, diagnostics and witness explanations read.
    fn view(&self) -> View {
        let mut records: BTreeMap<i64, Vec<(i64, u64)>> = BTreeMap::new();
        for entries in self.chain() {
            for &(key, data_id) in entries {
                if let Some(&(_, data, version)) = self.data.get(&data_id) {
                    records.entry(key).or_default().push((data, version));
                }
            }
        }
        records
            .iter()
            .map(|(&k, records)| (Value::from(k), Self::entry_value(records)))
            .collect()
    }

    fn view_of(&self, key: &Value) -> Option<Value> {
        let k = key.as_int()?;
        let mut on_chain = self
            .holders
            .get(&k)?
            .iter()
            .filter(|leaf| self.reachable.contains(leaf));
        let first = *on_chain.next()?;
        let mut records = Vec::new();
        if on_chain.all(|&leaf| leaf == first) {
            self.records_of(&self.leaf(first)?.0, k, &mut records);
        } else {
            // More than one leaf on the chain names `k` (the
            // duplicated-data-node shape): only the chain orders them.
            for entries in self.chain() {
                self.records_of(entries, k, &mut records);
            }
        }
        (!records.is_empty()).then(|| Self::entry_value(&records))
    }

    fn take_dirty(&mut self) -> Option<Vec<Value>> {
        Some(
            std::mem::take(&mut self.dirty)
                .into_iter()
                .map(Value::from)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeContent;
    use vyrd_rt::rng::Rng;

    fn write_leaf(r: &mut BLinkReplayer, id: NodeId, entries: Vec<(i64, NodeId)>, right: Option<NodeId>) {
        let content = NodeContent::Leaf {
            entries,
            high: 0, // not part of the encoding
            right,
        };
        r.apply_write(&VarId::new("leaf", id as i64), &content.encode_leaf());
    }

    fn write_data(r: &mut BLinkReplayer, id: NodeId, key: i64, data: i64, version: u64) {
        let content = NodeContent::Data { key, data, version };
        r.apply_write(&VarId::new("data", id as i64), &content.encode_data());
    }

    #[test]
    fn empty_tree_has_empty_view() {
        let r = BLinkReplayer::new();
        assert!(r.view().is_empty());
    }

    #[test]
    fn single_leaf_view() {
        let mut r = BLinkReplayer::new();
        write_data(&mut r, 10, 5, 50, 1);
        write_leaf(&mut r, 0, vec![(5, 10)], None);
        let v = r.view_of(&Value::from(5i64)).unwrap();
        assert_eq!(v.as_list().unwrap().len(), 1);
    }

    #[test]
    fn chain_traversal_spans_splits() {
        let mut r = BLinkReplayer::new();
        write_data(&mut r, 10, 5, 50, 1);
        write_data(&mut r, 11, 8, 80, 1);
        // Split: new leaf 1 holds key 8; leaf 0 links right to it.
        write_leaf(&mut r, 1, vec![(8, 11)], None);
        write_leaf(&mut r, 0, vec![(5, 10)], Some(1));
        assert_eq!(r.view().len(), 2);
        assert!(r.view_of(&Value::from(8i64)).is_some());
    }

    #[test]
    fn unreachable_leaves_are_invisible() {
        let mut r = BLinkReplayer::new();
        write_data(&mut r, 10, 5, 50, 1);
        // Leaf 3 exists but no chain reaches it.
        write_leaf(&mut r, 3, vec![(5, 10)], None);
        write_leaf(&mut r, 0, vec![], None);
        assert!(r.view().is_empty());
    }

    #[test]
    fn duplicate_keys_produce_multi_record_entries() {
        let mut r = BLinkReplayer::new();
        write_data(&mut r, 10, 5, 50, 1);
        write_data(&mut r, 11, 5, 51, 1);
        write_leaf(&mut r, 1, vec![(5, 11)], None);
        write_leaf(&mut r, 0, vec![(5, 10)], Some(1));
        let v = r.view_of(&Value::from(5i64)).unwrap();
        assert_eq!(v.as_list().unwrap().len(), 2, "duplicated data nodes visible");
    }

    #[test]
    fn dirty_protocol_reports_precise_keys() {
        let mut r = BLinkReplayer::new();
        write_data(&mut r, 10, 5, 50, 1);
        write_leaf(&mut r, 0, vec![(5, 10)], None);
        assert_eq!(r.take_dirty(), Some(vec![Value::from(5i64)]));
        // A pure data-node overwrite dirties just its key.
        write_data(&mut r, 10, 5, 55, 2);
        assert_eq!(r.take_dirty(), Some(vec![Value::from(5i64)]));
        assert_eq!(r.take_dirty(), Some(vec![]));
    }

    #[test]
    fn dirty_protocol_covers_reachability_changes() {
        let mut r = BLinkReplayer::new();
        write_data(&mut r, 10, 5, 50, 1);
        write_data(&mut r, 11, 8, 80, 1);
        write_leaf(&mut r, 0, vec![(5, 10), (8, 11)], None);
        r.take_dirty();
        // Split: leaf 1 (holding key 8) is published first — unreachable,
        // so nothing is dirty yet beyond its own diff bookkeeping...
        write_leaf(&mut r, 1, vec![(8, 11)], None);
        // ...then leaf 0 links to it: key 8 moved leaves AND leaf 1
        // entered the chain; both sides of the split are dirty.
        write_leaf(&mut r, 0, vec![(5, 10)], Some(1));
        let dirty = r.take_dirty().unwrap();
        assert!(dirty.contains(&Value::from(8i64)), "{dirty:?}");
        // A merge that bypasses leaf 1 dirties its keys as well.
        write_leaf(&mut r, 0, vec![(5, 10), (8, 11)], None);
        let dirty = r.take_dirty().unwrap();
        assert!(dirty.contains(&Value::from(8i64)), "{dirty:?}");
    }

    #[test]
    fn cyclic_chains_terminate() {
        let mut r = BLinkReplayer::new();
        write_leaf(&mut r, 1, vec![], Some(0));
        write_leaf(&mut r, 0, vec![], Some(1)); // cycle 0 -> 1 -> 0
        assert!(r.view().is_empty()); // terminates
    }

    #[test]
    fn data_write_dirties_the_key_of_the_entry_that_points_at_it() {
        // A corrupt implementation: the record under entry key 5 stores
        // key 7. `view_I` lists it under 5, so 5 is what a rewrite moves.
        let mut r = BLinkReplayer::new();
        write_data(&mut r, 10, 7, 50, 1);
        write_leaf(&mut r, 0, vec![(5, 10)], None);
        r.take_dirty();
        write_data(&mut r, 10, 7, 60, 2);
        let dirty = r.take_dirty().unwrap();
        assert!(dirty.contains(&Value::from(5i64)), "{dirty:?}");
        // Once no entry points at the node, only the record's key is.
        write_leaf(&mut r, 0, vec![], None);
        r.take_dirty();
        write_data(&mut r, 10, 7, 70, 3);
        assert_eq!(r.take_dirty(), Some(vec![Value::from(7i64)]));
    }

    #[test]
    fn a_dangling_target_is_on_the_chain_before_it_is_written() {
        let mut r = BLinkReplayer::new();
        write_data(&mut r, 10, 5, 50, 1);
        write_leaf(&mut r, 0, vec![], Some(3)); // leaf 3 does not exist yet
        r.take_dirty();
        write_leaf(&mut r, 3, vec![(5, 10)], None);
        assert_eq!(r.take_dirty(), Some(vec![Value::from(5i64)]));
        assert!(r.view_of(&Value::from(5i64)).is_some());
        assert_eq!(r.view().len(), 1);
    }

    const KEYS: i64 = 10;
    const LEAVES: usize = 8;
    const DATA_NODES: usize = 12;
    // What lets the property test tell a splice from a recompute.
    const _: () = assert!(LEAVES <= SPLICE_STEPS);

    /// One random write. Nothing keeps it well-formed: right links point
    /// back (cycles), at themselves, or at leaf `LEAVES`, which no write
    /// ever creates (dangling); entries are unsorted, repeat keys across
    /// and within leaves, and name data nodes whose record stores
    /// another key or does not exist yet.
    fn random_write(r: &mut BLinkReplayer, rng: &mut Rng) {
        if rng.gen_bool(0.5) {
            let id = rng.gen_range(0..DATA_NODES);
            let (key, data) = (rng.gen_range(0..KEYS), rng.gen_range(0..100i64));
            write_data(r, id, key, data, rng.gen_range(1..4u64));
            return;
        }
        let id = rng.gen_range(0..LEAVES);
        let entries = (0..rng.gen_range(0..4usize))
            .map(|_| (rng.gen_range(0..KEYS), rng.gen_range(0..DATA_NODES)))
            .collect();
        let right = match rng.gen_range(0..4u8) {
            0 => None,
            // Mostly the next leaf, so long simple chains form and are
            // spliced, not only recomputed.
            1 | 2 => Some(id + 1),
            _ => Some(rng.gen_range(0..LEAVES + 1)),
        };
        write_leaf(r, id, entries, right);
    }

    #[test]
    fn incremental_answers_match_the_whole_walk() {
        let (mut spliced, mut recomputed) = (0, 0);
        for seed in 0..300 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut r = BLinkReplayer::new();
            let mut before = r.view();
            for batch in 0..60 {
                for _ in 0..rng.gen_range(1..4usize) {
                    let (reachable, cyclic) = (r.reachable.clone(), r.cyclic);
                    random_write(&mut r, &mut rng);
                    // With `LEAVES` ≤ `SPLICE_STEPS`, only a cycle, before
                    // or after, sends a relink to the recompute.
                    if r.reachable != reachable {
                        *(if cyclic || r.cyclic {
                            &mut recomputed
                        } else {
                            &mut spliced
                        }) += 1;
                    }
                    assert_eq!(
                        (r.reachable.clone(), r.cyclic),
                        r.compute_reachable(),
                        "seed {seed} batch {batch}"
                    );
                }
                let after = r.view();
                for k in 0..KEYS {
                    let key = Value::from(k);
                    assert_eq!(
                        r.view_of(&key).as_ref(),
                        after.get(&key),
                        "seed {seed} batch {batch} key {k}"
                    );
                }
                let dirty = r.take_dirty().unwrap();
                for moved in before.diff_keys(&after) {
                    assert!(
                        dirty.contains(&moved),
                        "seed {seed} batch {batch}: entry {moved} changed, dirty {dirty:?}"
                    );
                }
                before = after;
            }
        }
        assert!(
            spliced > 500 && recomputed > 500,
            "{spliced} spliced, {recomputed} recomputed"
        );
    }

    /// Leaf records read by 100 × (overwrite one key's data node, take
    /// the dirty set, read the key's entry) on a tree of `keys` keys.
    fn overwrite_cost(keys: i64) -> u64 {
        let mut r = BLinkReplayer::new();
        let leaves = keys as usize / 4;
        let data_id = |key: i64| leaves + key as NodeId;
        // Right to left, so the chain never dangles.
        for leaf in (0..leaves).rev() {
            let keys = leaf as i64 * 4..leaf as i64 * 4 + 4;
            for key in keys.clone() {
                write_data(&mut r, data_id(key), key, 0, 1);
            }
            let right = (leaf + 1 < leaves).then_some(leaf + 1);
            write_leaf(
                &mut r,
                leaf,
                keys.map(|key| (key, data_id(key))).collect(),
                right,
            );
        }
        assert_eq!(r.view().len() as i64, keys);
        r.take_dirty();
        r.visits.set(0);
        for i in 0..100 {
            let key = i * 37 % keys;
            write_data(&mut r, data_id(key), key, i, 2);
            assert_eq!(r.take_dirty(), Some(vec![Value::from(key)]));
            let entry = Value::pair(Value::from(i), Value::from(2u64));
            assert_eq!(r.view_of(&Value::from(key)), Some(Value::List(vec![entry])));
        }
        r.visits.get()
    }

    #[test]
    fn an_overwrite_reads_one_leaf_whatever_the_tree_holds() {
        assert_eq!(overwrite_cost(64), 100);
        assert_eq!(overwrite_cost(4096), 100);
    }
}
