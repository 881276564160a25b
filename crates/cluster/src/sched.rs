//! Incrementally maintained task-slot index for the scheduler hot path.
//!
//! A task runs on the earliest-free core of its home node; under delay
//! scheduling, speculation, or a downed home node it may instead take the
//! cluster-wide earliest-free core. Scanning for either is linear in
//! cluster size — O(tasks × nodes × cores) per stage — so [`SlotIndex`]
//! keeps the free times in ordered sets updated in O(log n) per commit:
//!
//! * per node, a `BTreeSet<(free_time, slot)>` whose `first()` is the
//!   earliest free time, lowest slot index on a tie;
//! * cluster-wide, a `BTreeSet<(free_time, node, slot)>` whose `first()` is
//!   the earliest free time, then lowest node, then lowest slot. Maintained
//!   only when delay scheduling or a fault plan can ask for it.
//!
//! A down node's cores carry [`NODE_DOWN`], later than any reachable time,
//! so neither order picks one while a live core exists. The unit tests
//! check both orders against the linear scans they replace; the placement
//! sequences are pinned by `tests/golden/engine_decisions.txt`.

use refdist_simcore::SimTime;
use std::collections::BTreeSet;

/// Slot free time marking an unavailable (down) node's cores: later than any
/// reachable simulated time, so the slot index never picks them while a
/// live slot exists.
pub(crate) const NODE_DOWN: SimTime = SimTime(u64::MAX);

/// Ordered view over per-node task-slot free times. The authoritative free
/// times stay in the engine's `slots` table; the index mirrors them.
#[derive(Debug, Clone)]
pub(crate) struct SlotIndex {
    /// Per node: (free_time, slot), ascending.
    per_node: Vec<BTreeSet<(SimTime, u32)>>,
    /// Cluster-wide: (free_time, node, slot), ascending; `None` when the
    /// global minimum is never queried (no delay scheduling).
    global: Option<BTreeSet<(SimTime, u32, u32)>>,
    /// Calls to [`SlotIndex::commit`] since the index was built.
    pub commits: u64,
}

impl SlotIndex {
    /// Index over `free` (per node, per slot free times), tracking the
    /// cluster-wide order only when `track_global` is set.
    pub fn new(free: &[Vec<SimTime>], track_global: bool) -> Self {
        let per_node: Vec<BTreeSet<(SimTime, u32)>> = free
            .iter()
            .map(|slots| {
                slots
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| (t, i as u32))
                    .collect()
            })
            .collect();
        let global = track_global.then(|| {
            free.iter()
                .enumerate()
                .flat_map(|(n, slots)| {
                    slots
                        .iter()
                        .enumerate()
                        .map(move |(i, &t)| (t, n as u32, i as u32))
                })
                .collect()
        });
        SlotIndex {
            per_node,
            global,
            commits: 0,
        }
    }

    /// Earliest-free slot on `node`: `(slot, free_time)`, lowest slot index
    /// on ties.
    #[inline]
    pub fn earliest_on(&self, node: usize) -> (usize, SimTime) {
        let &(t, i) = self.per_node[node]
            .first()
            .expect("nodes have at least one core");
        (i as usize, t)
    }

    /// Cluster-wide earliest slot: `(node, slot, free_time)`, lowest node
    /// then lowest slot on ties.
    ///
    /// # Panics
    /// Panics when the index was built without global tracking.
    #[inline]
    pub fn earliest_global(&self) -> (usize, usize, SimTime) {
        let &(t, n, i) = self
            .global
            .as_ref()
            .expect("global slot order not tracked")
            .first()
            .expect("cluster has slots");
        (n as usize, i as usize, t)
    }

    /// Record that `(node, slot)` moved from free time `old` to `new`.
    #[inline]
    pub fn commit(&mut self, node: usize, slot: usize, old: SimTime, new: SimTime) {
        self.commits += 1;
        let removed = self.per_node[node].remove(&(old, slot as u32));
        debug_assert!(removed, "index out of sync with the slot table");
        self.per_node[node].insert((new, slot as u32));
        if let Some(g) = &mut self.global {
            g.remove(&(old, node as u32, slot as u32));
            g.insert((new, node as u32, slot as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear scans the index replaces: the oracle of its orders.
    fn linear_home(slots: &[SimTime]) -> (usize, SimTime) {
        let (i, &t) = slots
            .iter()
            .enumerate()
            .min_by_key(|(i, &t)| (t, *i))
            .unwrap();
        (i, t)
    }

    fn linear_global(free: &[Vec<SimTime>]) -> (usize, usize, SimTime) {
        free.iter()
            .enumerate()
            .flat_map(|(n, slots)| slots.iter().enumerate().map(move |(i, &t)| (n, i, t)))
            .min_by_key(|&(n, i, t)| (t, n, i))
            .unwrap()
    }

    #[test]
    fn matches_linear_scans_through_random_commits() {
        // Deterministic xorshift so the test needs no rand dependency.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut free: Vec<Vec<SimTime>> = (0..5).map(|_| vec![SimTime::ZERO; 3]).collect();
        let mut idx = SlotIndex::new(&free, true);
        let mut down = [false; 5];
        let mut crashes = 0;
        for step in 0..2000 {
            for (n, node_free) in free.iter().enumerate() {
                assert_eq!(idx.earliest_on(n), linear_home(node_free), "step {step}");
            }
            let (gn, _, gt) = idx.earliest_global();
            assert_eq!(idx.earliest_global(), linear_global(&free), "step {step}");
            if down.contains(&false) {
                assert!(
                    !down[gn] && gt != NODE_DOWN,
                    "picked down node {gn} at step {step}"
                );
            }
            let n = (next() % free.len() as u64) as usize;
            if next() % 16 == 0 {
                // Crash or rejoin the node: park every core at NODE_DOWN,
                // or free them all at a fresh time.
                down[n] = !down[n];
                crashes += down[n] as u32;
                let t = if down[n] {
                    NODE_DOWN
                } else {
                    SimTime(next() % 8)
                };
                for s in 0..free[n].len() {
                    let old = std::mem::replace(&mut free[n][s], t);
                    idx.commit(n, s, old, t);
                }
                continue;
            }
            if down[n] {
                continue;
            }
            let s = (next() % free[n].len() as u64) as usize;
            // Mix fresh times with repeats of existing ones so ties happen.
            let t = SimTime(next() % 8);
            let old = std::mem::replace(&mut free[n][s], t);
            idx.commit(n, s, old, t);
        }
        assert!(crashes > 10, "the walk must take nodes down");
    }

    #[test]
    fn ties_break_on_lowest_slot_then_node() {
        let free = vec![
            vec![SimTime(5), SimTime(2), SimTime(2)],
            vec![SimTime(2), SimTime(9)],
        ];
        let idx = SlotIndex::new(&free, true);
        assert_eq!(idx.earliest_on(0), (1, SimTime(2)));
        assert_eq!(idx.earliest_global(), (0, 1, SimTime(2)));
    }

    #[test]
    #[should_panic(expected = "global slot order not tracked")]
    fn untracked_global_queries_panic() {
        let idx = SlotIndex::new(&[vec![SimTime::ZERO]], false);
        let _ = idx.earliest_global();
    }
}
