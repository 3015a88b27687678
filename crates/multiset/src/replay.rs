//! Replayers: reconstruct multiset shadow state from logged writes and
//! extract `view_I` (§5.1).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use vyrd_core::replay::Replayer;
use vyrd_core::spec::SpecError;
use vyrd_core::view::View;
use vyrd_core::{Value, VarId};

/// Shadow state for the slot-based multisets ([`ArrayMultiset`] and
/// [`VectorMultiset`]).
///
/// Variables:
///
/// * `elt[i]` — the element reserved in slot `i` (`Unit` = empty);
/// * `valid[i]` — slot `i`'s membership bit.
///
/// `view_I` is the multiset `{ elt[i] : valid[i] }` computed exactly as in
/// §5.1, but maintained *incrementally*: each write adjusts a multiplicity
/// map and marks the affected element values dirty (§6.4).
///
/// [`ArrayMultiset`]: crate::ArrayMultiset
/// [`VectorMultiset`]: crate::VectorMultiset
#[derive(Debug, Default)]
pub struct SlotReplayer {
    slots: HashMap<i64, (Option<i64>, bool)>,
    counts: BTreeMap<i64, u64>,
    dirty: BTreeSet<i64>,
}

impl SlotReplayer {
    /// Creates an empty shadow state.
    pub fn new() -> SlotReplayer {
        SlotReplayer::default()
    }

    /// Multiplicity of `x` in the replayed multiset.
    pub fn count(&self, x: i64) -> u64 {
        self.counts.get(&x).copied().unwrap_or(0)
    }

    fn contribution(state: &(Option<i64>, bool)) -> Option<i64> {
        match state {
            (Some(x), true) => Some(*x),
            _ => None,
        }
    }

    fn update(&mut self, index: i64, f: impl FnOnce(&mut (Option<i64>, bool))) {
        let state = self.slots.entry(index).or_insert((None, false));
        let before = Self::contribution(state);
        f(state);
        let after = Self::contribution(state);
        if before == after {
            return;
        }
        if let Some(x) = before {
            let n = self.counts.entry(x).or_insert(0);
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.counts.remove(&x);
            }
            self.dirty.insert(x);
        }
        if let Some(x) = after {
            *self.counts.entry(x).or_insert(0) += 1;
            self.dirty.insert(x);
        }
    }
}

impl Replayer for SlotReplayer {
    fn apply_write(&mut self, var: &VarId, value: &Value) {
        match var.space() {
            "elt" => self.update(var.index(), |s| s.0 = value.as_int()),
            "valid" => self.update(var.index(), |s| s.1 = value.as_bool().unwrap_or(false)),
            other => panic!("SlotReplayer: unknown variable space {other:?}"),
        }
    }

    fn view(&self) -> View {
        self.counts
            .iter()
            .map(|(&x, &n)| (Value::from(x), Value::from(n)))
            .collect()
    }

    fn view_of(&self, key: &Value) -> Option<Value> {
        let x = key.as_int()?;
        self.counts.get(&x).map(|&n| Value::from(n))
    }

    fn take_dirty(&mut self) -> Option<Vec<Value>> {
        Some(
            std::mem::take(&mut self.dirty)
                .into_iter()
                .map(Value::from)
                .collect(),
        )
    }

    fn save_state(&self) -> Option<Value> {
        // The multiplicity map is derived from the slots; persisting the
        // slots and the dirty set is the complete state.
        let mut slots: Vec<_> = self.slots.iter().collect();
        slots.sort_by_key(|(&i, _)| i);
        Some(Value::List(vec![
            Value::List(
                slots
                    .into_iter()
                    .map(|(&i, &(elt, valid))| {
                        Value::List(vec![
                            Value::from(i),
                            elt.map(Value::from).unwrap_or(Value::Unit),
                            Value::from(valid),
                        ])
                    })
                    .collect(),
            ),
            Value::List(self.dirty.iter().map(|&x| Value::from(x)).collect()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SpecError> {
        let malformed = || SpecError::new("malformed slot-replayer state");
        let parts = state.as_list().ok_or_else(malformed)?;
        let [slots_v, dirty_v] = parts else {
            return Err(malformed());
        };
        let mut slots = HashMap::new();
        let mut counts = BTreeMap::new();
        for entry in slots_v.as_list().ok_or_else(malformed)? {
            let [i, elt, valid] = entry.as_list().ok_or_else(malformed)? else {
                return Err(malformed());
            };
            let i = i.as_int().ok_or_else(malformed)?;
            let state = (elt.as_int(), valid.as_bool().ok_or_else(malformed)?);
            if let Some(x) = Self::contribution(&state) {
                *counts.entry(x).or_insert(0u64) += 1;
            }
            slots.insert(i, state);
        }
        let mut dirty = BTreeSet::new();
        for x in dirty_v.as_list().ok_or_else(malformed)? {
            dirty.insert(x.as_int().ok_or_else(malformed)?);
        }
        self.slots = slots;
        self.counts = counts;
        self.dirty = dirty;
        Ok(())
    }
}

/// Shadow state for the binary-search-tree multiset.
///
/// Variables (all indexed by node id):
///
/// * `bst.key[id]`, `bst.count[id]` — the node's key and multiplicity;
/// * `bst.left[id]`, `bst.right[id]` — child links (`Unit` = none);
/// * `bst.root[0]` — the root node id.
///
/// Unlike [`SlotReplayer`], membership depends on *reachability*: a node
/// that exists but is not linked from the root does not contribute (this
/// is what catches the "unlocking parent before insertion" lost-insert
/// bug — the lost node is unreachable, so `view_I` is missing an element
/// the specification has). `view_I` is computed by an in-order traversal,
/// mirroring the paper's leaf traversal for the B-link tree (§7.2.4).
///
/// Incrementality (§6.4): while the tree *structure* is unchanged, the
/// traversal's result is kept — which nodes are reachable and each key's
/// total — and a count update to a reachable node adjusts its key's total
/// in place; any structural write drops it and falls back to a full
/// comparison (`take_dirty` → `None`).
#[derive(Debug, Default)]
pub struct BstReplayer {
    keys: HashMap<i64, i64>,
    counts: HashMap<i64, u64>,
    left: HashMap<i64, Option<i64>>,
    right: HashMap<i64, Option<i64>>,
    root: Option<i64>,
    dirty: BTreeSet<i64>,
    structure_changed: bool,
    /// [`BstReplayer::traverse`]'s result, kept current by count writes;
    /// `None` from a structural write until the next incremental commit.
    /// Derived state: not part of a checkpoint.
    reach: Option<(BTreeSet<i64>, BTreeMap<i64, u64>)>,
    /// Nodes traversed, for the test that pins what a check costs.
    #[cfg(test)]
    visits: std::cell::Cell<u64>,
}

impl BstReplayer {
    /// Creates an empty shadow tree.
    pub fn new() -> BstReplayer {
        BstReplayer::default()
    }

    /// The in-order traversal: the nodes reachable from the root, and per
    /// key the sum of their positive counts.
    fn traverse(&self) -> (BTreeSet<i64>, BTreeMap<i64, u64>) {
        let mut out = BTreeMap::new();
        let mut stack = Vec::new();
        if let Some(root) = self.root {
            stack.push(root);
        }
        let mut visited = BTreeSet::new();
        while let Some(id) = stack.pop() {
            if !visited.insert(id) {
                // A cycle in the shadow tree (corrupt structure): stop
                // rather than loop forever; the resulting partial view
                // will mismatch and be reported.
                continue;
            }
            #[cfg(test)]
            self.visits.set(self.visits.get() + 1);
            if let (Some(&key), Some(&count)) = (self.keys.get(&id), self.counts.get(&id)) {
                if count > 0 {
                    *out.entry(key).or_insert(0) += count;
                }
            }
            for link in [self.left.get(&id), self.right.get(&id)] {
                if let Some(Some(child)) = link {
                    stack.push(*child);
                }
            }
        }
        (visited, out)
    }
}

impl Replayer for BstReplayer {
    fn apply_write(&mut self, var: &VarId, value: &Value) {
        let id = var.index();
        match var.space() {
            "bst.count" => {
                let count = value.as_int().unwrap_or(0).max(0) as u64;
                let old = self.counts.insert(id, count).unwrap_or(0);
                if let Some(&key) = self.keys.get(&id) {
                    self.dirty.insert(key);
                    if let Some((reachable, sums)) = &mut self.reach {
                        if reachable.contains(&id) {
                            match sums.get(&key).copied().unwrap_or(0) + count - old {
                                0 => sums.remove(&key),
                                sum => sums.insert(key, sum),
                            };
                        }
                    }
                }
                return; // the one write that leaves the structure alone
            }
            "bst.key" => {
                self.keys.insert(id, value.as_int().unwrap_or(0));
            }
            "bst.left" => {
                self.left.insert(id, value.as_int());
            }
            "bst.right" => {
                self.right.insert(id, value.as_int());
            }
            "bst.root" => self.root = value.as_int(),
            other => panic!("BstReplayer: unknown variable space {other:?}"),
        }
        self.structure_changed = true;
        self.reach = None;
    }

    fn view(&self) -> View {
        self.traverse()
            .1
            .into_iter()
            .map(|(x, n)| (Value::from(x), Value::from(n)))
            .collect()
    }

    fn view_of(&self, key: &Value) -> Option<Value> {
        let x = key.as_int()?;
        let sum = match &self.reach {
            Some((_, sums)) => sums.get(&x).copied(),
            // A structural write since the last incremental commit: that
            // commit compares in full, so only other callers come here.
            None => self.traverse().1.get(&x).copied(),
        };
        sum.map(Value::from)
    }

    fn take_dirty(&mut self) -> Option<Vec<Value>> {
        if std::mem::take(&mut self.structure_changed) {
            self.dirty.clear();
            return None; // full comparison
        }
        if self.reach.is_none() {
            self.reach = Some(self.traverse());
        }
        Some(
            std::mem::take(&mut self.dirty)
                .into_iter()
                .map(Value::from)
                .collect(),
        )
    }

    fn save_state(&self) -> Option<Value> {
        fn id_map<V: Copy>(
            map: &HashMap<i64, V>,
            encode: impl Fn(V) -> Value,
        ) -> Value {
            let mut rows: Vec<_> = map.iter().collect();
            rows.sort_by_key(|(&id, _)| id);
            Value::List(
                rows.into_iter()
                    .map(|(&id, &v)| Value::pair(Value::from(id), encode(v)))
                    .collect(),
            )
        }
        let link = |l: Option<i64>| l.map(Value::from).unwrap_or(Value::Unit);
        Some(Value::List(vec![
            id_map(&self.keys, Value::from),
            id_map(&self.counts, Value::from),
            id_map(&self.left, link),
            id_map(&self.right, link),
            self.root.map(Value::from).unwrap_or(Value::Unit),
            Value::List(self.dirty.iter().map(|&x| Value::from(x)).collect()),
            Value::from(self.structure_changed),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SpecError> {
        let malformed = || SpecError::new("malformed bst-replayer state");
        fn id_map<V>(
            rows: &Value,
            decode: impl Fn(&Value) -> Result<V, SpecError>,
        ) -> Result<HashMap<i64, V>, SpecError> {
            let malformed = || SpecError::new("malformed bst-replayer state");
            let mut map = HashMap::new();
            for row in rows.as_list().ok_or_else(malformed)? {
                let (id, v) = row.as_pair().ok_or_else(malformed)?;
                map.insert(id.as_int().ok_or_else(malformed)?, decode(v)?);
            }
            Ok(map)
        }
        let parts = state.as_list().ok_or_else(malformed)?;
        let [keys_v, counts_v, left_v, right_v, root_v, dirty_v, structure_v] = parts else {
            return Err(malformed());
        };
        let int = |v: &Value| v.as_int().ok_or_else(malformed);
        let count = |v: &Value| Ok(int(v)?.max(0) as u64);
        let link = |v: &Value| Ok(v.as_int());
        let keys = id_map(keys_v, int)?;
        let counts = id_map(counts_v, count)?;
        let left = id_map(left_v, link)?;
        let right = id_map(right_v, link)?;
        let mut dirty = BTreeSet::new();
        for x in dirty_v.as_list().ok_or_else(malformed)? {
            dirty.insert(x.as_int().ok_or_else(malformed)?);
        }
        self.keys = keys;
        self.counts = counts;
        self.left = left;
        self.right = right;
        self.root = root_v.as_int();
        self.dirty = dirty;
        self.structure_changed = structure_v.as_bool().ok_or_else(malformed)?;
        self.reach = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vyrd_rt::rng::Rng;

    fn w(r: &mut impl Replayer, space: &str, index: i64, value: Value) {
        r.apply_write(&VarId::new(space, index), &value);
    }

    #[test]
    fn slot_replayer_counts_valid_elements_only() {
        let mut r = SlotReplayer::new();
        w(&mut r, "elt", 0, Value::from(5i64));
        assert!(r.view().is_empty(), "reserved but not valid");
        w(&mut r, "valid", 0, Value::from(true));
        assert_eq!(r.count(5), 1);
        w(&mut r, "elt", 1, Value::from(5i64));
        w(&mut r, "valid", 1, Value::from(true));
        assert_eq!(r.count(5), 2);
        w(&mut r, "valid", 0, Value::from(false));
        assert_eq!(r.count(5), 1);
        w(&mut r, "elt", 0, Value::Unit);
        assert_eq!(r.count(5), 1);
    }

    #[test]
    fn slot_replayer_overwrite_loses_the_old_element() {
        // The Fig. 6 scenario: slot 0 reserved for 5, overwritten with 7.
        let mut r = SlotReplayer::new();
        w(&mut r, "elt", 0, Value::from(5i64));
        w(&mut r, "elt", 0, Value::from(7i64));
        w(&mut r, "valid", 0, Value::from(true));
        assert_eq!(r.count(5), 0);
        assert_eq!(r.count(7), 1);
    }

    #[test]
    fn slot_replayer_dirty_tracks_affected_values() {
        let mut r = SlotReplayer::new();
        w(&mut r, "elt", 0, Value::from(5i64));
        w(&mut r, "valid", 0, Value::from(true));
        let dirty = r.take_dirty().unwrap();
        assert_eq!(dirty, vec![Value::from(5i64)]);
        assert!(r.take_dirty().unwrap().is_empty());
        // Changing the element of a valid slot dirties both values.
        w(&mut r, "elt", 0, Value::from(9i64));
        let dirty = r.take_dirty().unwrap();
        assert_eq!(dirty, vec![Value::from(5i64), Value::from(9i64)]);
    }

    #[test]
    fn slot_replayer_view_of_matches_view() {
        let mut r = SlotReplayer::new();
        w(&mut r, "elt", 3, Value::from(8i64));
        w(&mut r, "valid", 3, Value::from(true));
        assert_eq!(r.view_of(&Value::from(8i64)), Some(Value::from(1u64)));
        assert_eq!(r.view_of(&Value::from(9i64)), None);
        assert_eq!(r.view().get(&Value::from(8i64)), Some(&Value::from(1u64)));
    }

    #[test]
    #[should_panic(expected = "unknown variable space")]
    fn slot_replayer_rejects_foreign_writes() {
        let mut r = SlotReplayer::new();
        w(&mut r, "chunk", 0, Value::Unit);
    }

    fn link(r: &mut BstReplayer, id: i64, key: i64, count: i64) {
        w(r, "bst.key", id, Value::from(key));
        w(r, "bst.count", id, Value::from(count));
    }

    #[test]
    fn bst_replayer_counts_reachable_nodes_only() {
        let mut r = BstReplayer::new();
        link(&mut r, 1, 50, 1);
        // Not yet linked from the root: invisible.
        assert!(r.view().is_empty());
        w(&mut r, "bst.root", 0, Value::from(1i64));
        assert_eq!(r.view_of(&Value::from(50i64)), Some(Value::from(1u64)));

        // A second node linked as left child.
        link(&mut r, 2, 30, 2);
        w(&mut r, "bst.left", 1, Value::from(2i64));
        assert_eq!(r.view_of(&Value::from(30i64)), Some(Value::from(2u64)));

        // An orphan node never linked: invisible (the lost-insert bug).
        link(&mut r, 3, 99, 1);
        assert_eq!(r.view_of(&Value::from(99i64)), None);

        // Unlinking the subtree hides it again.
        w(&mut r, "bst.left", 1, Value::Unit);
        assert_eq!(r.view_of(&Value::from(30i64)), None);
    }

    #[test]
    fn bst_replayer_zero_count_is_a_tombstone() {
        let mut r = BstReplayer::new();
        link(&mut r, 1, 50, 1);
        w(&mut r, "bst.root", 0, Value::from(1i64));
        w(&mut r, "bst.count", 1, Value::from(0i64));
        assert!(r.view().is_empty());
    }

    #[test]
    fn bst_replayer_structural_writes_force_full_compare() {
        let mut r = BstReplayer::new();
        link(&mut r, 1, 50, 1);
        w(&mut r, "bst.root", 0, Value::from(1i64));
        assert_eq!(r.take_dirty(), None, "structure changed");
        // Pure count updates afterwards are tracked incrementally.
        w(&mut r, "bst.count", 1, Value::from(2i64));
        assert_eq!(r.take_dirty(), Some(vec![Value::from(50i64)]));
    }

    #[test]
    fn bst_replayer_survives_a_cycle() {
        let mut r = BstReplayer::new();
        link(&mut r, 1, 10, 1);
        link(&mut r, 2, 20, 1);
        w(&mut r, "bst.root", 0, Value::from(1i64));
        w(&mut r, "bst.left", 1, Value::from(2i64));
        w(&mut r, "bst.left", 2, Value::from(1i64)); // cycle!
        // Must terminate and report both nodes once.
        let v = r.view();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn slot_replayer_checkpoint_round_trips() {
        let mut r = SlotReplayer::new();
        w(&mut r, "elt", 0, Value::from(5i64));
        w(&mut r, "valid", 0, Value::from(true));
        w(&mut r, "elt", 1, Value::from(5i64));
        w(&mut r, "valid", 1, Value::from(true));
        w(&mut r, "elt", 2, Value::from(9i64)); // reserved, not valid
        let state = r.save_state().expect("slot replayer checkpoints");
        let mut restored = SlotReplayer::new();
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.view(), r.view());
        assert_eq!(restored.count(5), 2);
        // The dirty set travels with the checkpoint.
        assert_eq!(restored.take_dirty(), r.take_dirty());
        // And the restored state keeps replaying identically.
        w(&mut restored, "valid", 2, Value::from(true));
        assert_eq!(restored.count(9), 1);
    }

    #[test]
    fn slot_replayer_rejects_malformed_checkpoints() {
        let mut r = SlotReplayer::new();
        assert!(r.restore_state(&Value::Unit).is_err());
        assert!(r.restore_state(&Value::List(vec![Value::Unit])).is_err());
    }

    #[test]
    fn bst_replayer_checkpoint_round_trips() {
        let mut r = BstReplayer::new();
        link(&mut r, 1, 50, 1);
        link(&mut r, 2, 30, 2);
        w(&mut r, "bst.root", 0, Value::from(1i64));
        w(&mut r, "bst.left", 1, Value::from(2i64));
        link(&mut r, 3, 99, 1); // orphan stays an orphan
        let state = r.save_state().expect("bst replayer checkpoints");
        let mut restored = BstReplayer::new();
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.view(), r.view());
        assert_eq!(restored.view_of(&Value::from(99i64)), None);
        // The pending structure-changed flag travels with the checkpoint:
        // both sides demand a full comparison next.
        assert_eq!(restored.take_dirty(), None);
        assert_eq!(r.take_dirty(), None);
        // And the restored tree keeps replaying identically.
        w(&mut restored, "bst.count", 2, Value::from(5i64));
        assert_eq!(restored.view_of(&Value::from(30i64)), Some(Value::from(5u64)));
        assert_eq!(restored.take_dirty(), Some(vec![Value::from(30i64)]));
    }

    #[test]
    fn bst_replayer_rejects_malformed_checkpoints() {
        let mut r = BstReplayer::new();
        assert!(r.restore_state(&Value::Unit).is_err());
        assert!(r.restore_state(&Value::List(vec![Value::Unit; 3])).is_err());
    }

    /// One random write over ten node ids and six keys. Nothing keeps
    /// the tree well-formed: links point at the node itself or an
    /// ancestor (cycles), at ids nothing else ever writes (dangling),
    /// two nodes carry one key, whole subtrees are written while
    /// unreachable, and a node's count can arrive before its key.
    fn random_bst_write(r: &mut BstReplayer, rng: &mut Rng) {
        let id = rng.gen_range(1..10i64);
        let link = |rng: &mut Rng| match rng.gen_range(0..3u8) {
            0 => Value::Unit,
            _ => Value::from(rng.gen_range(1..12i64)),
        };
        // Mostly counts, so runs of them land between structural writes
        // and the kept traversal is adjusted, not only rebuilt.
        match rng.gen_range(0..10u8) {
            0 => w(r, "bst.key", id, Value::from(rng.gen_range(0..6i64))),
            1 => w(r, "bst.left", id, link(rng)),
            2 => w(r, "bst.right", id, link(rng)),
            3 => w(r, "bst.root", 0, link(rng)),
            _ => w(r, "bst.count", id, Value::from(rng.gen_range(0..3i64))),
        }
    }

    #[test]
    fn bst_incremental_answers_match_the_whole_walk() {
        let (mut incremental, mut full) = (0, 0);
        for seed in 0..300 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut r = BstReplayer::new();
            let mut before = r.view();
            for batch in 0..80 {
                for _ in 0..rng.gen_range(1..4usize) {
                    random_bst_write(&mut r, &mut rng);
                }
                let after = r.view();
                let agrees = |r: &BstReplayer, when: &str| {
                    for k in 0..6i64 {
                        let key = Value::from(k);
                        assert_eq!(
                            r.view_of(&key).as_ref(),
                            after.get(&key),
                            "seed {seed} batch {batch} key {k} {when} take_dirty"
                        );
                    }
                };
                agrees(&r, "before");
                match r.take_dirty() {
                    None => full += 1,
                    Some(dirty) => {
                        incremental += 1;
                        for moved in before.diff_keys(&after) {
                            assert!(
                                dirty.contains(&moved),
                                "seed {seed} batch {batch}: entry {moved} changed, dirty {dirty:?}"
                            );
                        }
                    }
                }
                agrees(&r, "after");
                before = after;
            }
        }
        assert!(
            incremental > 2000 && full > 2000,
            "{incremental} incremental, {full} full"
        );
    }

    /// Nodes traversed by 100 × (rewrite one node's count, take the dirty
    /// set, read the key's entry) on a tree of `keys` keys.
    fn bst_overwrite_cost(keys: i64) -> u64 {
        let mut r = BstReplayer::new();
        // Node `k + 1` holds key `k`; a right spine is as good a shape
        // as any for counting visits.
        for k in 0..keys {
            link(&mut r, k + 1, k, 1);
            if k > 0 {
                w(&mut r, "bst.right", k, Value::from(k + 1));
            }
        }
        w(&mut r, "bst.root", 0, Value::from(1i64));
        assert_eq!(r.take_dirty(), None, "structure changed");
        assert_eq!(
            r.take_dirty(),
            Some(vec![]),
            "the one traversal that is kept"
        );
        assert_eq!(r.view().len() as i64, keys);
        r.visits.set(0);
        for i in 0..100i64 {
            let key = i * 37 % keys;
            w(&mut r, "bst.count", key + 1, Value::from(i + 2));
            assert_eq!(r.take_dirty(), Some(vec![Value::from(key)]));
            assert_eq!(
                r.view_of(&Value::from(key)),
                Some(Value::from(i as u64 + 2))
            );
        }
        r.visits.get()
    }

    #[test]
    fn bst_count_overwrites_traverse_nothing_whatever_the_tree_holds() {
        assert_eq!(bst_overwrite_cost(64), 0);
        assert_eq!(bst_overwrite_cost(4096), 0);
    }

    #[test]
    fn bst_replayer_duplicate_keys_sum_their_counts() {
        // Two distinct reachable nodes with the same key: the view shows
        // the total multiplicity (and will mismatch a spec that expected
        // a single node — the duplicated-data-node bug shape).
        let mut r = BstReplayer::new();
        link(&mut r, 1, 50, 1);
        link(&mut r, 2, 50, 1);
        w(&mut r, "bst.root", 0, Value::from(1i64));
        w(&mut r, "bst.right", 1, Value::from(2i64));
        assert_eq!(r.view_of(&Value::from(50i64)), Some(Value::from(2u64)));
    }
}
