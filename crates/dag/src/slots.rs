//! Dense block-slot addressing for the simulator hot path.
//!
//! Every block is `(RddId, partition)` with partition counts fixed at plan
//! time, so the set of blocks that can ever be cached is known up front: the
//! partitions of the cached RDDs. [`BlockSlots`] assigns each such block a
//! dense `u32` *slot* by prefix-summing partition counts over the cached
//! RDDs, letting all per-block runtime state (residency, pending
//! availability, recency, prefetch candidacy) live in flat vectors and
//! bitsets instead of `HashMap<BlockId, _>` — no hashing on the per-access
//! path.
//!
//! Slot order equals `BlockId` order (ascending rdd id, then partition),
//! because bases are assigned in increasing rdd order. Iterating slots
//! ascending therefore visits blocks in sorted order with no sort.

use crate::app::AppSpec;
use crate::ids::{BlockId, RddId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sentinel base for RDDs with no slots (not cached, or zero partitions).
const NO_SLOT: u32 = u32::MAX;

/// Sentinel owner for window RDDs of no live application.
const NO_OWNER: u32 = u32::MAX;

/// Sentinel block occupying a freed slot in a [`SlotArena`]; never handed
/// out, because freed slots carry no live bits in any engine table.
const FREE_BLOCK: BlockId = BlockId {
    rdd: RddId(u32::MAX),
    partition: u32::MAX,
};

/// Prefix-sum slot arena over the cached RDDs of one application — or, in
/// streaming serve mode, a *windowed snapshot* of a [`SlotArena`]: the
/// `base`/`parts` tables then cover only the rdd ids of the currently live
/// applications, starting at `rdd_base`, so per-admission snapshots cost
/// O(active) rather than O(every rdd the stream has ever seen). All
/// single-application constructors produce `rdd_base == 0`, where behavior
/// is exactly the original whole-range mapping.
#[derive(Debug, Clone, Default)]
pub struct BlockSlots {
    /// First rdd id the `base`/`parts` window covers.
    rdd_base: u32,
    /// Per rdd id (window-relative): first slot of that RDD, or `NO_SLOT`.
    base: Vec<u32>,
    /// Per rdd id (window-relative): number of slotted partitions.
    parts: Vec<u32>,
    /// Per rdd id (window-relative): the owning application's index, or
    /// `NO_OWNER`. Only [`SlotArena`] snapshots carry owners; the
    /// single-application constructors leave this empty.
    owner: Vec<u32>,
    /// Reverse lookup: slot -> block. With `rdd_base == 0` slots ascend in
    /// `BlockId` order; arena snapshots may interleave recycled ranges, but
    /// stay `BlockId`-ordered *within* each application's contiguous range.
    blocks: Vec<BlockId>,
}

impl BlockSlots {
    /// Slots for every partition of every cached RDD in `spec`.
    pub fn new(spec: &AppSpec) -> Self {
        Self::from_counts(
            spec.rdds
                .iter()
                .map(|r| (r.id, if r.is_cached() { r.num_partitions } else { 0 })),
        )
    }

    /// Slots from explicit `(rdd, partition_count)` pairs, in ascending rdd
    /// order (benches and tests build synthetic universes this way). A count
    /// of 0 leaves the RDD uncovered; rdd ids may be sparse.
    pub fn from_counts(counts: impl IntoIterator<Item = (RddId, u32)>) -> Self {
        let mut base = Vec::new();
        let mut parts = Vec::new();
        let mut blocks = Vec::new();
        let mut next = 0u32;
        for (rdd, count) in counts {
            assert!(
                rdd.index() >= base.len(),
                "rdd ids must be ascending and unique"
            );
            base.resize(rdd.index() + 1, NO_SLOT);
            parts.resize(rdd.index() + 1, 0);
            if count == 0 {
                continue;
            }
            base[rdd.index()] = next;
            parts[rdd.index()] = count;
            next = next
                .checked_add(count)
                .expect("slot space exceeds u32::MAX blocks");
            blocks.extend((0..count).map(|p| BlockId::new(rdd, p)));
        }
        BlockSlots {
            rdd_base: 0,
            base,
            parts,
            owner: Vec::new(),
            blocks,
        }
    }

    /// First rdd id the window covers (0 except for arena snapshots).
    #[inline]
    pub fn rdd_base(&self) -> u32 {
        self.rdd_base
    }

    /// Window-relative index of `rdd`, or `None` when `rdd` is outside the
    /// window. With `rdd_base == 0` this is just a bounds-checked
    /// `rdd.index()`, which is what all single-application arenas use.
    #[inline]
    pub fn rdd_window(&self, rdd: RddId) -> Option<usize> {
        let i = rdd.index().checked_sub(self.rdd_base as usize)?;
        (i < self.base.len()).then_some(i)
    }

    /// Total number of slots (= addressable blocks).
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the arena covers no blocks at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The application that owns `rdd`, when this is an arena snapshot
    /// and `rdd` belongs to a live application: one array read, the
    /// per-block ownership lookup of the serve path.
    #[inline]
    pub fn owner(&self, rdd: RddId) -> Option<usize> {
        let o = *self.owner.get(self.rdd_window(rdd)?)?;
        (o != NO_OWNER).then_some(o as usize)
    }

    /// Whether `rdd` has any slots.
    #[inline]
    pub fn covers(&self, rdd: RddId) -> bool {
        self.rdd_window(rdd)
            .is_some_and(|i| self.base[i] != NO_SLOT)
    }

    /// The dense slot of `block`, or `None` when the block is outside the
    /// arena (non-cached RDD, partition past the count, unknown rdd).
    #[inline]
    pub fn slot(&self, block: BlockId) -> Option<u32> {
        let i = self.rdd_window(block.rdd)?;
        let b = self.base[i];
        if b == NO_SLOT || block.partition >= self.parts[i] {
            return None;
        }
        Some(b + block.partition)
    }

    /// Reverse lookup: the block occupying `slot`.
    ///
    /// # Panics
    /// Panics when `slot` is out of range.
    #[inline]
    pub fn block(&self, slot: u32) -> BlockId {
        self.blocks[slot as usize]
    }

    /// All covered blocks, ascending by slot (= ascending by `BlockId`).
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks.iter().copied()
    }
}

/// A free-listed, range-recyclable slot allocator for streaming serve mode.
///
/// Each admitted application gets one *contiguous* run of slots covering the
/// partitions of its cached RDDs; when the application retires, the run goes
/// back on a free list and is recycled by later admissions. Capacity (the
/// `blocks` table, and with it every dense engine table sized off
/// [`BlockSlots::len`]) therefore grows to *peak-active* demand, not to the
/// total length of the stream. The rdd window (`rdd_base..`) likewise tracks
/// only live applications, so [`snapshot`](Self::snapshot) — taken once per
/// admission and shared via `Arc` with the engine, stores, and the admitted
/// app's policy — costs O(active slots), keeping per-submission work flat.
///
/// Why contiguity matters: within one application's run, slots ascend in
/// `BlockId` order exactly as in a whole-stream arena, and every ordered
/// scan of the serve path (victim selection, purge candidates, prefetch
/// candidates) covers a single application's blocks. Absolute slot
/// values are never compared across applications, so a submission's
/// decisions do not depend on where its range landed.
#[derive(Debug, Default)]
pub struct SlotArena {
    /// Live rdd window, exactly as in a [`BlockSlots`] snapshot.
    rdd_base: u32,
    base: Vec<u32>,
    parts: Vec<u32>,
    owner: Vec<u32>,
    /// Slot -> block for the whole capacity; freed slots hold `FREE_BLOCK`.
    blocks: Vec<BlockId>,
    /// Free runs `(slot_base, len)`, sorted by base, coalesced.
    free: Vec<(u32, u32)>,
    /// Live apps: first rdd id -> (rdd span, slot base, slot len).
    live: BTreeMap<u32, (u32, u32, u32)>,
    /// Currently allocated slots (capacity minus free).
    live_slots: u32,
}

impl SlotArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total slot capacity ever allocated (peak-active high-water mark).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.blocks.len()
    }

    /// Slots currently allocated to live applications.
    #[inline]
    pub fn live_slots(&self) -> usize {
        self.live_slots as usize
    }

    /// Number of live applications.
    #[inline]
    pub fn live_apps(&self) -> usize {
        self.live.len()
    }

    /// Admit application `app`: `counts` lists `(rdd, partition_count)`
    /// for *every* rdd of the app in ascending id order (0 for uncached
    /// rdds), exactly the shape [`BlockSlots::from_counts`] takes. Returns
    /// the app's `(slot_base, slot_len)` run. The rdd ids must not overlap
    /// any live application; snapshots report `app` as their
    /// [`owner`](BlockSlots::owner).
    pub fn admit(&mut self, app: u32, counts: &[(RddId, u32)]) -> (u32, u32) {
        assert!(!counts.is_empty(), "an app spans at least one rdd");
        let first = counts[0].0 .0;
        let last = counts[counts.len() - 1].0 .0;
        debug_assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
        let total: u32 = counts.iter().map(|&(_, c)| c).sum();

        // Extend (or re-seat) the rdd window to cover first..=last.
        if self.base.is_empty() {
            self.rdd_base = first;
        } else if first < self.rdd_base {
            // An arrival below the advanced window (possible with trace
            // arrivals that admit out of submission order): splice zeros in
            // front. Never triggered by monotone arrival streams.
            let grow = (self.rdd_base - first) as usize;
            self.base.splice(0..0, std::iter::repeat_n(NO_SLOT, grow));
            self.parts.splice(0..0, std::iter::repeat_n(0, grow));
            self.owner.splice(0..0, std::iter::repeat_n(NO_OWNER, grow));
            self.rdd_base = first;
        }
        let end = (last - self.rdd_base) as usize + 1;
        if end > self.base.len() {
            self.base.resize(end, NO_SLOT);
            self.parts.resize(end, 0);
            self.owner.resize(end, NO_OWNER);
        }

        // First-fit lowest free run; fall back to growing capacity.
        let slot_base = match (0..self.free.len()).find(|&i| self.free[i].1 >= total) {
            Some(i) if total > 0 => {
                let (fb, fl) = self.free[i];
                if fl == total {
                    self.free.remove(i);
                } else {
                    self.free[i] = (fb + total, fl - total);
                }
                fb
            }
            _ => {
                let b = self.blocks.len() as u32;
                self.blocks
                    .resize(self.blocks.len() + total as usize, FREE_BLOCK);
                b
            }
        };

        let mut next = slot_base;
        for &(rdd, count) in counts {
            let wi = (rdd.0 - self.rdd_base) as usize;
            debug_assert_eq!(self.owner[wi], NO_OWNER, "rdd range overlaps a live app");
            self.owner[wi] = app;
            if count == 0 {
                continue;
            }
            self.base[wi] = next;
            self.parts[wi] = count;
            for p in 0..count {
                self.blocks[(next + p) as usize] = BlockId::new(rdd, p);
            }
            next += count;
        }
        self.live
            .insert(first, (last - first + 1, slot_base, total));
        self.live_slots += total;
        (slot_base, total)
    }

    /// Retire the application whose rdd range starts at `first_rdd`,
    /// returning its slot run to the free list and advancing the rdd window
    /// past fully-retired prefixes. The caller must already have purged the
    /// app's blocks from every dense table keyed by this arena.
    pub fn retire(&mut self, first_rdd: RddId) {
        let (nrdds, slot_base, slot_len) = self
            .live
            .remove(&first_rdd.0)
            .expect("retire of an app that is not live");
        let w0 = (first_rdd.0 - self.rdd_base) as usize;
        for wi in w0..w0 + nrdds as usize {
            self.base[wi] = NO_SLOT;
            self.parts[wi] = 0;
            self.owner[wi] = NO_OWNER;
        }
        for s in slot_base..slot_base + slot_len {
            self.blocks[s as usize] = FREE_BLOCK;
        }
        self.live_slots -= slot_len;

        if slot_len > 0 {
            // Insert into the sorted free list, coalescing with neighbors.
            let i = self.free.partition_point(|&(b, _)| b < slot_base);
            let merge_prev = i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == slot_base;
            let merge_next = i < self.free.len() && slot_base + slot_len == self.free[i].0;
            match (merge_prev, merge_next) {
                (true, true) => {
                    self.free[i - 1].1 += slot_len + self.free[i].1;
                    self.free.remove(i);
                }
                (true, false) => self.free[i - 1].1 += slot_len,
                (false, true) => {
                    self.free[i].0 = slot_base;
                    self.free[i].1 += slot_len;
                }
                (false, false) => self.free.insert(i, (slot_base, slot_len)),
            }
        }

        // Advance the window to the lowest live rdd (drop retired prefix).
        match self.live.keys().next() {
            Some(&lo) if lo > self.rdd_base => {
                let drop = (lo - self.rdd_base) as usize;
                self.base.drain(..drop);
                self.parts.drain(..drop);
                self.owner.drain(..drop);
                self.rdd_base = lo;
            }
            None => {
                self.base.clear();
                self.parts.clear();
                self.owner.clear();
            }
            _ => {}
        }
    }

    /// A windowed [`BlockSlots`] snapshot of the current live state, shared
    /// with the engine, stores, and the newly admitted app's policy. Costs
    /// O(window + capacity) — both bounded by peak-active demand.
    pub fn snapshot(&self) -> BlockSlots {
        BlockSlots {
            rdd_base: self.rdd_base,
            base: self.base.clone(),
            parts: self.parts.clone(),
            owner: self.owner.clone(),
            blocks: self.blocks.clone(),
        }
    }
}

/// A map keyed by `BlockId`, stored densely per slot of a [`BlockSlots`]
/// arena and iterated ascending by slot (= `BlockId` order).
///
/// The value vector is *windowed*: it covers only the slot span written to
/// it since the last [`clear`](Self::clear) (`lo..lo + vals.len()`, at most
/// twice that span), not the whole arena. A table that only ever holds one
/// application's blocks — a policy's per-block state in serve mode —
/// therefore costs memory and iteration time in O(that application's slot
/// run), however large the shared arena grows.
///
/// A [`Default`] map has no arena attached: it allocates nothing, reads
/// find no entry, and [`insert`](Self::insert) panics. A policy builds its
/// tables this way and replaces them with [`SlotMap::new`] in
/// `CachePolicy::attach_slots`, which the drivers call before any other
/// hook.
#[derive(Debug, Clone)]
pub struct SlotMap<V> {
    /// The arena; `None` until one is attached.
    slots: Option<Arc<BlockSlots>>,
    /// Slot of `vals[0]`; meaningless while `vals` is empty.
    lo: u32,
    vals: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for SlotMap<V> {
    fn default() -> Self {
        SlotMap {
            slots: None,
            lo: 0,
            vals: Vec::new(),
            len: 0,
        }
    }
}

impl<V> SlotMap<V> {
    /// Empty map over `slots`. Allocates nothing until the first insert.
    pub fn new(slots: Arc<BlockSlots>) -> Self {
        SlotMap {
            slots: Some(slots),
            ..Self::default()
        }
    }

    /// Map whose window starts out covering all of `slots`: for a table
    /// that spans the arena anyway (the cluster-wide block master), one
    /// allocation up front instead of a run of growth steps.
    pub fn full(slots: Arc<BlockSlots>) -> Self {
        let mut vals = Vec::new();
        vals.resize_with(slots.len(), || None);
        SlotMap {
            vals,
            ..Self::new(slots)
        }
    }

    /// `block`'s slot, or `None` when no arena is attached.
    ///
    /// # Panics
    /// Panics when the attached arena has no slot for `block`.
    #[inline]
    fn slot(&self, block: BlockId) -> Option<u32> {
        let slot = self.slots.as_ref()?.slot(block);
        Some(slot.unwrap_or_else(|| panic!("block {block} outside the slot arena")))
    }

    /// Index of `block`'s value in the window, if the window covers it.
    #[inline]
    fn window_idx(&self, block: BlockId) -> Option<usize> {
        let i = self.slot(block)?.checked_sub(self.lo)? as usize;
        (i < self.vals.len()).then_some(i)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `block` has an entry.
    #[inline]
    pub fn contains(&self, block: BlockId) -> bool {
        self.get(block).is_some()
    }

    /// The value for `block`, if any.
    #[inline]
    pub fn get(&self, block: BlockId) -> Option<&V> {
        let i = self.window_idx(block)?;
        self.vals[i].as_ref()
    }

    /// Mutable access to the value for `block`, if any.
    #[inline]
    pub fn get_mut(&mut self, block: BlockId) -> Option<&mut V> {
        let i = self.window_idx(block)?;
        self.vals[i].as_mut()
    }

    /// `block`'s slot in the attached arena: a 4-byte handle under which
    /// [`get_at`](Self::get_at) finds the block's value without resolving
    /// the block again. Intrusive lists thread their links through these.
    ///
    /// # Panics
    /// Panics when no arena is attached or it has no slot for `block`.
    #[inline]
    pub fn slot_of(&self, block: BlockId) -> u32 {
        self.slot(block).expect("no slot arena attached")
    }

    /// The value in `slot`, if any.
    #[inline]
    pub fn get_at(&self, slot: u32) -> Option<&V> {
        let i = slot.checked_sub(self.lo)? as usize;
        self.vals.get(i)?.as_ref()
    }

    /// Mutable access to the value in `slot`, if any.
    #[inline]
    pub fn get_at_mut(&mut self, slot: u32) -> Option<&mut V> {
        let i = slot.checked_sub(self.lo)? as usize;
        self.vals.get_mut(i)?.as_mut()
    }

    /// The block in `slot`, which holds a value (an attached arena put it
    /// there).
    #[inline]
    pub fn block_at(&self, slot: u32) -> BlockId {
        self.slots
            .as_ref()
            .expect("entries imply an arena")
            .block(slot)
    }

    /// Insert or overwrite, returning the previous value. The window
    /// widens to cover the block's slot.
    ///
    /// # Panics
    /// Panics when no arena is attached.
    pub fn insert(&mut self, block: BlockId, value: V) -> Option<V> {
        let slot = self.slot(block).expect("no slot arena attached");
        let vals = &mut self.vals;
        if vals.is_empty() {
            self.lo = slot;
        } else if slot < self.lo {
            // Grow downward by at least the window's length, so a
            // descending run of inserts costs amortized O(1) each (the
            // upward side rides on `Vec`'s doubling).
            let new_lo = slot.min(self.lo.saturating_sub(vals.len() as u32));
            let grow = (self.lo - new_lo) as usize;
            vals.splice(0..0, std::iter::repeat_with(|| None).take(grow));
            self.lo = new_lo;
        }
        let i = (slot - self.lo) as usize;
        if i >= vals.len() {
            vals.resize_with(i + 1, || None);
        }
        let old = vals[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove the entry for `block`, returning its value.
    pub fn remove(&mut self, block: BlockId) -> Option<V> {
        let i = self.window_idx(block)?;
        let old = self.vals[i].take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.vals.clear();
        self.len = 0;
    }

    /// Swap in a newer arena snapshot whose capacity is a superset of the
    /// current one (streaming admission): live slot indices never move, so
    /// existing entries and the window stay valid.
    pub fn adopt(&mut self, new: Arc<BlockSlots>) {
        let slots = self.slots.as_mut().expect("no slot arena attached");
        debug_assert!(new.len() >= slots.len(), "arena capacity never shrinks");
        *slots = new;
    }

    /// Iterate entries ascending by slot.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &V)> + '_ {
        self.iter_run(0..u32::MAX)
    }

    /// Iterate entries mutably, ascending by slot.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (BlockId, &mut V)> + '_ {
        let slots = self.slots.as_deref();
        self.vals
            .iter_mut()
            .zip(self.lo..)
            .filter_map(move |(v, s)| {
                v.as_mut()
                    .map(|v| (slots.expect("entries imply an arena").block(s), v))
            })
    }

    /// Iterate the entries whose slot lies in `run`, ascending by slot —
    /// in O(run ∩ window), not O(arena). The serve engine collects one
    /// application's purge candidates this way.
    pub fn iter_run(&self, run: std::ops::Range<u32>) -> impl Iterator<Item = (BlockId, &V)> + '_ {
        let lo = self.lo;
        let from = run.start.saturating_sub(lo) as usize;
        let to = (run.end.saturating_sub(lo) as usize).min(self.vals.len());
        let span = if from < to { from..to } else { 0..0 };
        self.vals[span.clone()]
            .iter()
            .zip(span.start as u32..)
            .filter_map(move |(v, i)| v.as_ref().map(|v| (self.block_at(lo + i), v)))
    }
}

/// A plain dense bitset over the slots of a [`BlockSlots`] arena. Used for
/// per-run block flags (materialized, prefetched-unused, prefetchable) on
/// the simulator's hot path.
#[derive(Debug, Clone, Default)]
pub struct SlotSet {
    words: Vec<u64>,
    len: usize,
}

impl SlotSet {
    /// An empty set over `slots` slots.
    pub fn new(slots: usize) -> Self {
        SlotSet {
            words: vec![0; slots.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of set slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `slot` is set.
    #[inline]
    pub fn contains(&self, slot: u32) -> bool {
        let (w, b) = (slot as usize / 64, slot as usize % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Set `slot`; returns whether it was newly set.
    #[inline]
    pub fn insert(&mut self, slot: u32) -> bool {
        let (w, b) = (slot as usize / 64, slot as usize % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        self.len += newly as usize;
        newly
    }

    /// Clear `slot`; returns whether it was set.
    #[inline]
    pub fn remove(&mut self, slot: u32) -> bool {
        let (w, b) = (slot as usize / 64, slot as usize % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        self.len -= was as usize;
        was
    }

    /// Reset to an empty set over `slots` slots, reusing the word buffer.
    /// Equivalent to `*self = SlotSet::new(slots)` without the allocation.
    pub fn reset(&mut self, slots: usize) {
        self.words.clear();
        self.words.resize(slots.div_ceil(64), 0);
        self.len = 0;
    }

    /// Grow capacity to at least `slots` slots, keeping every set bit
    /// (streaming admission: tables follow the arena's capacity).
    pub fn grow(&mut self, slots: usize) {
        let need = slots.div_ceil(64);
        if need > self.words.len() {
            self.words.resize(need, 0);
        }
    }

    /// Clear every bit in `start..start + len` (app retirement: scrub the
    /// freed slot run before it gets recycled).
    pub fn clear_range(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        let (lo, hi) = (start as usize, (start + len) as usize);
        for w in lo / 64..=(hi - 1) / 64 {
            let from = (lo.max(w * 64)) % 64;
            let to = hi.min((w + 1) * 64) - w * 64;
            let mask = if to == 64 {
                !0u64 << from
            } else {
                (!0u64 << from) & !(!0u64 << to)
            };
            let cleared = (self.words[w] & mask).count_ones() as usize;
            self.words[w] &= !mask;
            self.len -= cleared;
        }
    }

    /// Set slots in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.ones_in(0..u32::MAX)
    }

    /// Set slots within `run`, ascending: visits only the words the run
    /// covers (clamped to the set's capacity), so one application's slot
    /// run costs O(run / 64), not O(arena).
    pub fn ones_in(&self, run: std::ops::Range<u32>) -> impl Iterator<Item = u32> + '_ {
        let end = (run.end as usize).min(self.words.len() * 64);
        let start = (run.start as usize).min(end);
        let first = start / 64;
        self.words[first..end.div_ceil(64)]
            .iter()
            .zip(first..)
            .flat_map(move |(&w, i)| {
                let mut w = w;
                if i == first {
                    w &= !0u64 << (start % 64);
                }
                if (i + 1) * 64 > end {
                    w &= (1u64 << (end - i * 64)) - 1;
                }
                std::iter::from_fn(move || {
                    if w == 0 {
                        return None;
                    }
                    let bit = w.trailing_zeros();
                    w &= w - 1;
                    Some(i as u32 * 64 + bit)
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Action, AppBuilder};
    use crate::rdd::StorageLevel;

    fn arena() -> BlockSlots {
        // rdd0: input (not cached, 4 parts), rdd1: cached 4 parts,
        // rdd2: not cached, rdd3: cached 3 parts (shuffle output).
        let mut b = AppBuilder::new("slots");
        let input = b.input("in", 4, 1024, 100);
        let data = b.narrow("data", input, 1024, 100);
        b.cache(data);
        let other = b.narrow("other", input, 1024, 100);
        let agg = b.shuffle("agg", &[other], 3, 512, 100);
        b.persist(agg, StorageLevel::MemoryAndDisk);
        b.action("j0", agg);
        BlockSlots::new(&b.build())
    }

    #[test]
    fn prefix_sums_cover_cached_rdds_only() {
        let s = arena();
        assert_eq!(s.len(), 7); // 4 (rdd1) + 3 (rdd3)
        assert!(!s.covers(RddId(0)));
        assert!(s.covers(RddId(1)));
        assert!(!s.covers(RddId(2)));
        assert!(s.covers(RddId(3)));
        assert_eq!(s.slot(BlockId::new(RddId(1), 0)), Some(0));
        assert_eq!(s.slot(BlockId::new(RddId(1), 3)), Some(3));
        assert_eq!(s.slot(BlockId::new(RddId(3), 0)), Some(4));
        assert_eq!(s.slot(BlockId::new(RddId(3), 2)), Some(6));
    }

    #[test]
    fn non_cached_and_out_of_range_blocks_have_no_slot() {
        let s = arena();
        assert_eq!(s.slot(BlockId::new(RddId(0), 0)), None); // input rdd
        assert_eq!(s.slot(BlockId::new(RddId(2), 1)), None); // uncached
        assert_eq!(s.slot(BlockId::new(RddId(1), 4)), None); // partition OOR
        assert_eq!(s.slot(BlockId::new(RddId(99), 0)), None); // unknown rdd
    }

    #[test]
    fn slot_block_round_trip_in_blockid_order() {
        let s = arena();
        let mut prev: Option<BlockId> = None;
        for slot in 0..s.len() as u32 {
            let b = s.block(slot);
            assert_eq!(s.slot(b), Some(slot));
            if let Some(p) = prev {
                assert!(p < b, "slot order must equal BlockId order");
            }
            prev = Some(b);
        }
    }

    #[test]
    fn zero_partition_rdd_is_uncovered() {
        // `AppSpec::validate` rejects zero-partition RDDs, but the arena must
        // tolerate them (raw specs appear in property tests); build one
        // directly from counts and from a raw spec.
        let s = BlockSlots::from_counts([(RddId(0), 0), (RddId(1), 2)]);
        assert!(!s.covers(RddId(0)));
        assert_eq!(s.slot(BlockId::new(RddId(0), 0)), None);
        assert_eq!(s.slot(BlockId::new(RddId(1), 1)), Some(1));
        assert_eq!(s.len(), 2);

        let mut b = AppBuilder::new("raw");
        let input = b.input("in", 2, 64, 1);
        let data = b.narrow("data", input, 64, 1);
        b.cache(data);
        b.action("j", data);
        let mut spec = b.build();
        spec.rdds[1].num_partitions = 0; // invalid per validate(), tolerated here
        spec.actions.push(Action {
            target: data,
            name: "extra".into(),
        });
        let s = BlockSlots::new(&spec);
        assert!(s.is_empty());
        assert_eq!(s.slot(BlockId::new(data, 0)), None);
    }

    #[test]
    fn sparse_counts_skip_gaps() {
        let s = BlockSlots::from_counts([(RddId(2), 1), (RddId(5), 2)]);
        assert_eq!(s.slot(BlockId::new(RddId(2), 0)), Some(0));
        assert_eq!(s.slot(BlockId::new(RddId(5), 1)), Some(2));
        assert_eq!(s.slot(BlockId::new(RddId(3), 0)), None);
        let all: Vec<BlockId> = s.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], BlockId::new(RddId(2), 0));
    }

    #[test]
    #[should_panic(expected = "outside the slot arena")]
    fn dense_slotmap_rejects_foreign_blocks() {
        let mut m: SlotMap<u32> = SlotMap::new(Arc::new(arena()));
        m.insert(BlockId::new(RddId(0), 0), 1);
    }

    #[test]
    fn unattached_slotmap_reads_as_empty() {
        let mut m: SlotMap<u32> = SlotMap::default();
        let b = BlockId::new(RddId(0), 0);
        assert!(m.is_empty() && !m.contains(b) && m.get_mut(b).is_none());
        assert_eq!(m.remove(b), None);
        assert_eq!(m.iter().count() + m.iter_run(0..9).count(), 0);
        assert_eq!(m.iter_mut().count(), 0);
        m.clear();
        assert_eq!(m.vals.capacity(), 0, "an unattached map allocates nothing");
    }

    #[test]
    #[should_panic(expected = "no slot arena attached")]
    fn unattached_slotmap_rejects_writes() {
        SlotMap::default().insert(BlockId::new(RddId(0), 0), 1u32);
    }

    #[test]
    fn slotset_tracks_membership_and_order() {
        let mut s = SlotSet::new(130);
        assert!(s.insert(129));
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 129]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn slotset_grow_and_clear_range() {
        let mut s = SlotSet::new(10);
        s.insert(3);
        s.insert(9);
        s.grow(300);
        assert!(s.contains(3) && s.contains(9));
        assert!(s.insert(299));
        s.insert(63);
        s.insert(64);
        s.insert(130);
        // Clear a range spanning a word boundary.
        s.clear_range(9, 56); // bits 9..65
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![3, 130, 299]);
        assert_eq!(s.len(), 3);
        s.clear_range(0, 0);
        assert_eq!(s.len(), 3);
        s.clear_range(128, 64);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![3, 299]);
    }

    #[test]
    fn arena_recycles_slot_ranges() {
        let mut a = SlotArena::new();
        // App 0: rdds 0..3, cached counts 0/4/2 -> 6 slots at base 0.
        assert_eq!(
            a.admit(0, &[(RddId(0), 0), (RddId(1), 4), (RddId(2), 2)]),
            (0, 6)
        );
        // App 1: rdds 3..5, counts 3/0 -> 3 slots at base 6.
        assert_eq!(a.admit(1, &[(RddId(3), 3), (RddId(4), 0)]), (6, 3));
        assert_eq!(a.capacity(), 9);
        assert_eq!((a.live_apps(), a.live_slots()), (2, 9));

        let snap = a.snapshot();
        assert_eq!(snap.rdd_base(), 0);
        assert_eq!(snap.slot(BlockId::new(RddId(1), 0)), Some(0));
        assert_eq!(snap.slot(BlockId::new(RddId(3), 2)), Some(8));
        assert_eq!(snap.block(8), BlockId::new(RddId(3), 2));

        // Retire app 0: its 6 slots go on the free list, window advances.
        a.retire(RddId(0));
        assert_eq!((a.live_apps(), a.live_slots(), a.capacity()), (1, 3, 9));
        let snap = a.snapshot();
        assert_eq!(snap.rdd_base(), 3);
        assert_eq!(snap.slot(BlockId::new(RddId(1), 0)), None); // below window
        assert_eq!(snap.slot(BlockId::new(RddId(3), 1)), Some(7));

        // App 2 (5 slots) reuses the freed run; capacity does not grow.
        assert_eq!(a.admit(2, &[(RddId(5), 5)]), (0, 5));
        assert_eq!(a.capacity(), 9);
        let snap = a.snapshot();
        assert_eq!(snap.rdd_base(), 3);
        assert_eq!(snap.slot(BlockId::new(RddId(5), 4)), Some(4));
        assert_eq!(snap.block(4), BlockId::new(RddId(5), 4));
        // Slots ascend in BlockId order within each app's run.
        for p in 1..5 {
            assert!(snap.block(p as u32 - 1) < snap.block(p as u32));
        }

        // App 3 needs 1 slot: first-fit takes the remaining free slot 5
        // before growing.
        assert_eq!(a.admit(3, &[(RddId(6), 1)]), (5, 1));
        assert_eq!(a.capacity(), 9);
        // App 4 (3 slots) must grow capacity — no free run is big enough.
        assert_eq!(a.admit(4, &[(RddId(7), 3)]), (9, 3));
        assert_eq!(a.capacity(), 12);

        // Retiring everything coalesces the free list back to one run.
        for r in [5u32, 6, 7, 3] {
            a.retire(RddId(r));
        }
        assert_eq!((a.live_apps(), a.live_slots()), (0, 0));
        assert_eq!(a.free, vec![(0, 12)]);
        assert_eq!(a.capacity(), 12);

        // A fresh admission re-seats the window from scratch.
        assert_eq!(a.admit(5, &[(RddId(20), 1)]), (0, 1));
        assert_eq!(a.snapshot().rdd_base(), 20);
        assert_eq!(a.snapshot().slot(BlockId::new(RddId(20), 0)), Some(0));
    }

    #[test]
    fn arena_admission_below_the_window_reseats_it() {
        let mut a = SlotArena::new();
        a.admit(6, &[(RddId(4), 2)]);
        a.admit(7, &[(RddId(9), 1)]);
        a.retire(RddId(4));
        assert_eq!(a.snapshot().rdd_base(), 9);
        // Trace arrivals can admit below the advanced window. The free run
        // (2 slots) is too small for 3, so capacity grows.
        assert_eq!(a.admit(8, &[(RddId(2), 3), (RddId(3), 0)]), (3, 3));
        let snap = a.snapshot();
        assert_eq!(snap.rdd_base(), 2);
        assert_eq!(snap.slot(BlockId::new(RddId(2), 2)), Some(5));
        assert_eq!(snap.slot(BlockId::new(RddId(9), 0)), Some(2));
        assert!(!snap.covers(RddId(4)));
    }

    #[test]
    fn arena_zero_slot_app_is_tracked_without_slots() {
        let mut a = SlotArena::new();
        assert_eq!(a.admit(9, &[(RddId(0), 0), (RddId(1), 0)]), (0, 0));
        assert_eq!((a.live_apps(), a.live_slots(), a.capacity()), (1, 0, 0));
        a.admit(10, &[(RddId(2), 2)]);
        a.retire(RddId(0));
        assert_eq!(a.snapshot().rdd_base(), 2);
        assert_eq!(a.live_apps(), 1);
    }

    #[test]
    fn slotset_reset_matches_fresh() {
        let mut s = SlotSet::new(130);
        s.insert(0);
        s.insert(129);
        s.reset(70);
        assert!(s.is_empty());
        assert_eq!(s.ones().count(), 0);
        assert!(!s.contains(0));
        s.insert(69);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![69]);
        // Growing past the old capacity also works.
        s.reset(300);
        assert!(s.insert(299));
        assert_eq!(s.len(), 1);
    }

    /// A 3-rdd × 64-partition arena: 192 slots, three words of bits.
    fn wide() -> Arc<BlockSlots> {
        Arc::new(BlockSlots::from_counts((0..3).map(|r| (RddId(r), 64))))
    }

    fn entries(m: &SlotMap<u32>) -> Vec<(BlockId, u32)> {
        m.iter().map(|(b, &v)| (b, v)).collect()
    }

    #[test]
    fn dense_slotmap_window_grows_both_ways() {
        let slots = wide();
        let blk = |s: u32| slots.block(s);
        let mut m: SlotMap<u32> = SlotMap::new(Arc::clone(&slots));
        assert!(m.is_empty() && m.get(blk(100)).is_none());
        // First write opens the window; writes above and below widen it.
        assert_eq!(m.insert(blk(100), 1), None);
        assert_eq!(m.insert(blk(130), 2), None);
        assert_eq!(m.insert(blk(70), 3), None);
        assert_eq!(m.insert(blk(100), 4), Some(1));
        assert_eq!(m.len(), 3);
        // Slots outside the window read as absent without panicking.
        assert_eq!(m.get(blk(0)), None);
        assert_eq!(m.get(blk(191)), None);
        assert_eq!(m.remove(blk(5)), None);
        assert_eq!(
            entries(&m),
            vec![(blk(70), 3), (blk(100), 4), (blk(130), 2)]
        );
        *m.get_mut(blk(130)).unwrap() = 9;
        assert_eq!(m.get(blk(130)), Some(&9));
        // Slot-addressed access sees the same entries after the window
        // grew downward, and nothing outside it.
        assert_eq!(m.slot_of(blk(70)), 70);
        assert_eq!((m.get_at(70), m.block_at(70)), (Some(&3), blk(70)));
        *m.get_at_mut(100).unwrap() += 1;
        assert_eq!(m.get(blk(100)), Some(&5));
        assert_eq!(
            (m.get_at(69), m.get_at(131), m.get_at(99)),
            (None, None, None)
        );
        *m.get_mut(blk(100)).unwrap() = 4;
        // Removal down to empty, then writes on both sides of the old
        // window; `clear` resets it.
        for s in [70, 100, 130] {
            assert!(m.remove(blk(s)).is_some());
        }
        assert!(m.is_empty() && entries(&m).is_empty());
        m.insert(blk(2), 5);
        m.insert(blk(191), 6);
        assert_eq!(entries(&m), vec![(blk(2), 5), (blk(191), 6)]);
        m.clear();
        assert!(m.is_empty() && m.get(blk(2)).is_none());
        m.insert(blk(120), 7);
        assert_eq!(entries(&m), vec![(blk(120), 7)]);
    }

    #[test]
    fn dense_slotmap_iter_run_clamps_to_the_window() {
        let slots = wide();
        let blk = |s: u32| slots.block(s);
        let mut m: SlotMap<u32> = SlotMap::new(Arc::clone(&slots));
        for s in [10u32, 20, 64, 65, 150] {
            m.insert(blk(s), s);
        }
        let run =
            |r: std::ops::Range<u32>| -> Vec<u32> { m.iter_run(r).map(|(_, &v)| v).collect() };
        assert_eq!(run(0..u32::MAX), vec![10, 20, 64, 65, 150]);
        assert_eq!(run(20..65), vec![20, 64]);
        assert_eq!(run(0..10), Vec::<u32>::new());
        assert_eq!(run(151..400), Vec::<u32>::new());
        assert_eq!(run(64..64), Vec::<u32>::new());
    }

    #[test]
    fn dense_slotmap_adopt_keeps_the_window() {
        let mut a = SlotArena::new();
        a.admit(0, &[(RddId(0), 4)]);
        a.admit(1, &[(RddId(1), 4)]);
        let mut m: SlotMap<u32> = SlotMap::new(Arc::new(a.snapshot()));
        m.insert(BlockId::new(RddId(1), 2), 7);
        // Capacity grows past the old snapshot: the entry and its window
        // survive, and the new slots take writes.
        a.admit(2, &[(RddId(2), 4)]);
        m.adopt(Arc::new(a.snapshot()));
        assert_eq!(m.get(BlockId::new(RddId(1), 2)), Some(&7));
        m.insert(BlockId::new(RddId(2), 0), 8);
        assert_eq!(m.len(), 2);
        assert_eq!(
            entries(&m),
            vec![
                (BlockId::new(RddId(1), 2), 7),
                (BlockId::new(RddId(2), 0), 8)
            ]
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Under any op sequence the windowed map agrees with a `BTreeMap`
        /// model, and iterates in the model's ascending order after every
        /// op.
        #[test]
        fn slotmap_matches_a_btreemap_model(
            ops in proptest::collection::vec((0u8..16, 0u32..192, 0u32..1000), 1..200)
        ) {
            let slots = wide();
            let mut m: SlotMap<u32> = SlotMap::new(Arc::clone(&slots));
            let mut model: BTreeMap<BlockId, u32> = BTreeMap::new();
            for (op, slot, v) in ops {
                let b = slots.block(slot);
                match op {
                    0..=4 => proptest::prop_assert_eq!(m.insert(b, v), model.insert(b, v)),
                    5 | 6 => {
                        // Overwrite an existing entry, picked by rank.
                        let Some(&o) = model.keys().nth(slot as usize % model.len().max(1))
                        else {
                            continue;
                        };
                        proptest::prop_assert_eq!(m.insert(o, v), model.insert(o, v));
                    }
                    7 | 8 => proptest::prop_assert_eq!(m.remove(b), model.remove(&b)),
                    9 => proptest::prop_assert_eq!(m.get(b), model.get(&b)),
                    10 => {
                        if let Some(x) = m.get_mut(b) {
                            *x = v;
                        }
                        if let Some(x) = model.get_mut(&b) {
                            *x = v;
                        }
                    }
                    11 => {
                        for (k, x) in m.iter_mut() {
                            *x = x.wrapping_add(v + k.partition);
                        }
                        for (k, x) in model.iter_mut() {
                            *x = x.wrapping_add(v + k.partition);
                        }
                    }
                    12 | 13 => {
                        let run = slot..slot + v / 4;
                        let got: Vec<(BlockId, u32)> =
                            m.iter_run(run.clone()).map(|(k, &x)| (k, x)).collect();
                        let want: Vec<(BlockId, u32)> = model
                            .iter()
                            .filter(|(k, _)| run.contains(&slots.slot(**k).unwrap()))
                            .map(|(&k, &x)| (k, x))
                            .collect();
                        proptest::prop_assert_eq!(got, want);
                    }
                    14 => {
                        m.clear();
                        model.clear();
                    }
                    _ => proptest::prop_assert_eq!(m.contains(b), model.contains_key(&b)),
                }
                proptest::prop_assert_eq!(m.len(), model.len());
                let want: Vec<(BlockId, u32)> = model.iter().map(|(&k, &x)| (k, x)).collect();
                proptest::prop_assert_eq!(entries(&m), want);
            }
        }
    }

    #[test]
    fn slotset_ones_in_restricts_to_the_run() {
        let mut s = SlotSet::new(200);
        for slot in [0u32, 1, 63, 64, 65, 127, 128, 199] {
            s.insert(slot);
        }
        let ones = |r: std::ops::Range<u32>| s.ones_in(r).collect::<Vec<_>>();
        // Word-boundary ends on both sides.
        assert_eq!(ones(64..128), vec![64, 65, 127]);
        assert_eq!(ones(63..65), vec![63, 64]);
        assert_eq!(ones(1..64), vec![1, 63]);
        assert_eq!(ones(128..129), vec![128]);
        // Empty runs, including ones on a word boundary.
        assert_eq!(ones(64..64), Vec::<u32>::new());
        assert_eq!(ones(70..70), Vec::<u32>::new());
        assert_eq!(ones(2..63), Vec::<u32>::new());
        // A run past capacity clamps instead of panicking.
        assert_eq!(ones(190..1_000), vec![199]);
        assert_eq!(ones(500..1_000), Vec::<u32>::new());
        assert_eq!(ones(0..u32::MAX), s.ones().collect::<Vec<_>>());
        assert_eq!(s.ones().count(), 8);
    }

    #[test]
    fn arena_snapshots_report_owners() {
        let mut a = SlotArena::new();
        a.admit(7, &[(RddId(0), 0), (RddId(1), 2)]);
        a.admit(9, &[(RddId(2), 1)]);
        let snap = a.snapshot();
        assert_eq!(snap.owner(RddId(0)), Some(7)); // uncached rdds too
        assert_eq!(snap.owner(RddId(1)), Some(7));
        assert_eq!(snap.owner(RddId(2)), Some(9));
        assert_eq!(snap.owner(RddId(3)), None);
        a.retire(RddId(0));
        let snap = a.snapshot();
        assert_eq!(snap.owner(RddId(1)), None);
        assert_eq!(snap.owner(RddId(2)), Some(9));
        // Single-application arenas carry no owners.
        assert_eq!(arena().owner(RddId(1)), None);
    }
}
