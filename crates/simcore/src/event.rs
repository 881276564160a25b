//! Deterministic event queue.
//!
//! Events are keyed on a single packed `(time, seq)` `u128`, so events
//! scheduled at the same virtual time pop in the order they were pushed
//! (FIFO among ties), which makes the whole simulation a pure function of
//! its inputs.
//!
//! The queue is a bucketed *calendar queue*. Virtual time is divided into
//! power-of-two-width "days"; day `d` maps to bucket `d & (nbuckets - 1)`.
//! Buckets are plain `Vec`s held in descending key order, so the next event
//! is always `Vec::pop` off the back; pushes append and the bucket is
//! re-sorted lazily when the day pointer rotates into it. With the bucket
//! count tracking occupancy and the day width tracking the mean event gap,
//! schedule/pop are amortized O(1). The packed key means rotation and
//! resize can never reorder ties: order is decided by the key alone, never
//! by bucket layout. The pop order equals a binary min-heap's over the same
//! keys; the unit tests and the simcore property tests check it against
//! one.

use crate::time::SimTime;

/// Pack an event key: time in the high 64 bits, sequence in the low 64.
/// A single integer compare then yields `(time, seq)` lexicographic order.
#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.0 as u128) << 64) | seq as u128
}

#[inline]
fn key_time(key: u128) -> u64 {
    (key >> 64) as u64
}

const MIN_BUCKETS: usize = 8;
/// Grow when occupancy exceeds `nbuckets * GROW_AT`, shrink when it drops
/// below `nbuckets / SHRINK_AT`. The gap between the two thresholds is the
/// hysteresis that keeps a steady-state queue from thrashing.
const GROW_AT: usize = 2;
const SHRINK_AT: usize = 4;
/// Day widths span 1 µs to ~17 min; the clamp keeps day arithmetic sane
/// even for far-future outliers near `SimTime(u64::MAX)`.
const MAX_WIDTH_SHIFT: u32 = 30;
/// Starting day width (µs, log2) before any rebuild has sampled real gaps.
const DEFAULT_WIDTH_SHIFT: u32 = 10;
/// A single bucket holding more than half the queue (and at least this
/// many events) is evidence the day width has gone stale for the current
/// schedule; trigger a redistributing rebuild.
const CLUSTER_MIN: usize = 64;

/// One calendar bucket: the pending events of every day congruent to this
/// bucket's index, in *descending* key order once `sorted` (the earliest
/// event is popped off the back). Pushes append and clear `sorted` only
/// when they actually violate the order, so a bucket that filled back to
/// front skips its rotation sort entirely.
#[derive(Debug)]
struct Bucket<E> {
    events: Vec<(u128, E)>,
    sorted: bool,
}

impl<E> Default for Bucket<E> {
    fn default() -> Self {
        Bucket {
            events: Vec::new(),
            sorted: true,
        }
    }
}

impl<E> Bucket<E> {
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // Keys are unique (seq is unique), so unstable sort is exact.
            self.events.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
            self.sorted = true;
        }
    }
}

#[derive(Debug)]
struct CalendarQueue<E> {
    buckets: Vec<Bucket<E>>,
    /// `nbuckets - 1`; the bucket count is always a power of two.
    mask: u64,
    /// log2 of the day width in µs.
    width_shift: u32,
    /// Time of the most recently popped event. Every pending *and* every
    /// future event fires at or after it, so `floor >> width_shift` is a
    /// sound lower bound for the day scan under any width.
    floor: u64,
    /// The earliest day that may still hold events; always
    /// `floor >> width_shift`. Committed only by `pop` (to the day of the
    /// event it returns) and recomputed on resize, so it never overtakes a
    /// pending or yet-to-be-scheduled event.
    day: u64,
    len: usize,
    /// Set when an anti-clustering rebuild left the width unchanged — the
    /// pileup is genuine (same-instant flood), not a stale width, so stop
    /// re-trying until the width changes for another reason. Bounds the
    /// trigger at one wasted O(n) rebuild per clear/resize.
    cluster_guard: bool,
    /// Whether the day width has been derived from real gaps at least once
    /// since the last clear. A queue that was `reserve`d up front never
    /// crosses the grow threshold, so without the one-shot sample when
    /// occupancy first reaches the bucket count it would keep the default
    /// width forever.
    sampled: bool,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::default()).collect(),
            mask: MIN_BUCKETS as u64 - 1,
            width_shift: DEFAULT_WIDTH_SHIFT,
            floor: 0,
            day: 0,
            len: 0,
            cluster_guard: false,
            sampled: false,
        }
    }
}

impl<E> CalendarQueue<E> {
    #[inline]
    fn day_of(&self, key: u128) -> u64 {
        key_time(key) >> self.width_shift
    }

    fn schedule(&mut self, key: u128, payload: E) {
        let day = self.day_of(key);
        let b = &mut self.buckets[(day & self.mask) as usize];
        if b.sorted {
            if let Some(&(last, _)) = b.events.last() {
                // Descending order: an append may only carry a smaller key.
                if last < key {
                    b.sorted = false;
                }
            }
        }
        b.events.push((key, payload));
        let clustered = b.events.len() >= CLUSTER_MIN && b.events.len() * 2 > self.len;
        self.len += 1;
        if self.len > self.buckets.len() * GROW_AT {
            self.rebuild(self.len);
        } else if !self.sampled && self.len >= self.buckets.len() {
            // First time occupancy reaches one event per bucket: sample the
            // real gap distribution once instead of trusting the default
            // width (which a pre-`reserve`d queue would otherwise keep).
            self.rebuild(self.len);
        } else if clustered && !self.cluster_guard {
            // Half the queue in one bucket: the day width was sized for a
            // different schedule (a long-lived queue whose gap distribution
            // drifted). Re-sample the width; if it comes back unchanged the
            // pileup is same-instant ties and `rebuild` raises the guard.
            let before = self.width_shift;
            self.rebuild(self.len);
            self.cluster_guard = self.width_shift == before;
        }
    }

    /// Locate the bucket holding the globally smallest key: scan days
    /// forward from `self.day` (each day lives in exactly one bucket); after
    /// a fruitless full lap — every pending event is more than `nbuckets`
    /// days out — jump straight to the minimum key. Sorts buckets it visits
    /// but does *not* commit `self.day`, so a peek followed by scheduling an
    /// earlier (still-future) event cannot strand that event behind the day
    /// pointer.
    fn find_next(&mut self) -> Option<(u64, usize)> {
        if self.len == 0 {
            return None;
        }
        for d in self.day..self.day + self.buckets.len() as u64 {
            let bi = (d & self.mask) as usize;
            let b = &mut self.buckets[bi];
            if !b.events.is_empty() {
                b.ensure_sorted();
                let (k, _) = *b.events.last().expect("bucket non-empty");
                if self.day_of(k) == d {
                    return Some((d, bi));
                }
            }
        }
        // Sparse lap: find the global minimum directly instead of walking
        // empty days one at a time.
        let mut best: Option<u128> = None;
        for b in &self.buckets {
            for &(k, _) in &b.events {
                if best.is_none_or(|bk| k < bk) {
                    best = Some(k);
                }
            }
        }
        let k = best.expect("len > 0 but no event found");
        let d = self.day_of(k);
        let bi = (d & self.mask) as usize;
        self.buckets[bi].ensure_sorted();
        Some((d, bi))
    }

    fn pop(&mut self) -> Option<(u128, E)> {
        let (day, bi) = self.find_next()?;
        self.day = day;
        let ev = self.buckets[bi].events.pop().expect("find_next found it");
        self.floor = key_time(ev.0);
        self.len -= 1;
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / SHRINK_AT {
            self.rebuild(self.len.max(1));
        }
        Some(ev)
    }

    fn peek_key(&mut self) -> Option<u128> {
        let (_, bi) = self.find_next()?;
        self.buckets[bi].events.last().map(|&(k, _)| k)
    }

    fn reserve(&mut self, additional: usize) {
        let target = self.len + additional;
        if target > self.buckets.len() * GROW_AT {
            self.rebuild(target);
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.events.clear();
            b.sorted = true;
        }
        self.floor = 0;
        self.day = 0;
        self.len = 0;
        // A reused queue starts a fresh schedule; a width sampled from the
        // tail of the previous drain (often a few stragglers or far-future
        // outliers) would cluster the next fill into one bucket.
        self.width_shift = DEFAULT_WIDTH_SHIFT;
        self.cluster_guard = false;
        self.sampled = false;
    }

    /// Re-bucket every pending event for `target` occupancy: the bucket
    /// count becomes `target.next_power_of_two()` and the day width is
    /// re-derived from the pending keys' span so events spread roughly one
    /// per bucket-day. Order is untouched — it lives entirely in the packed
    /// keys, so redistribution cannot perturb FIFO ties.
    fn rebuild(&mut self, target: usize) {
        self.cluster_guard = false;
        let nbuckets = target.max(MIN_BUCKETS).next_power_of_two();
        let mut pending: Vec<(u128, E)> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            pending.append(&mut b.events);
            b.sorted = true;
        }
        self.buckets.resize_with(nbuckets, Bucket::default);
        self.mask = nbuckets as u64 - 1;
        if pending.len() >= 2 {
            // Day width = mean gap over the *trimmed* span (10th to 90th
            // percentile of pending times). The plain span is dominated by a
            // single far-future outlier, which would stretch the days until
            // every near-term event piled into one bucket; trimming the
            // tails keeps the dense cluster spread at roughly one event per
            // bucket-day while outliers just sit in far days the
            // sparse-jump reaches directly. Two O(n) selections — width is
            // a performance hint only, ordering lives in the keys.
            let n = pending.len();
            let (lo, hi) = (n / 10, n - 1 - n / 10);
            let t_lo = key_time(pending.select_nth_unstable_by_key(lo, |p| p.0).1 .0);
            let t_hi = key_time(pending.select_nth_unstable_by_key(hi, |p| p.0).1 .0);
            let gap = ((t_hi - t_lo) / (hi - lo).max(1) as u64).max(1);
            self.width_shift = (63 - gap.leading_zeros()).min(MAX_WIDTH_SHIFT);
            self.sampled = true;
        }
        self.len = 0;
        // Re-anchor the day scan at the floor under the new width; every
        // pending and future event fires at or after it.
        self.day = self.floor >> self.width_shift;
        for (k, p) in pending {
            // Re-insert below the grow threshold by construction, so this
            // cannot recurse.
            let bi = (self.day_of(k) & self.mask) as usize;
            let b = &mut self.buckets[bi];
            if b.sorted {
                if let Some(&(last, _)) = b.events.last() {
                    if last < k {
                        b.sorted = false;
                    }
                }
            }
            b.events.push((k, p));
            self.len += 1;
        }
    }
}

/// Priority queue of simulation events ordered by `(time, insertion order)`.
#[derive(Debug)]
pub struct EventQueue<E> {
    cal: CalendarQueue<E>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue starting at time zero.
    pub fn new() -> Self {
        EventQueue {
            cal: CalendarQueue::default(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time: the firing time of the most recently popped
    /// event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at `time`.
    ///
    /// # Panics
    /// Panics if `time` is before the current virtual time — scheduling into
    /// the past is always a simulator bug and would silently corrupt
    /// causality if allowed.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time} < now {}",
            self.now
        );
        let key = pack(time, self.next_seq);
        self.next_seq += 1;
        self.cal.schedule(key, payload);
    }

    /// Pop the earliest event, advancing virtual time to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, payload) = self.cal.pop()?;
        let time = SimTime(key_time(key));
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, payload))
    }

    /// Firing time of the next event, if any, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.cal.peek_key().map(|k| SimTime(key_time(k)))
    }

    /// Pre-size the bucket count for about `n` additional events.
    pub fn reserve(&mut self, n: usize) {
        self.cal.reserve(n);
    }

    /// Drop all pending events and rewind to time zero, keeping the backing
    /// allocations so a hot loop can reuse one queue across stages.
    pub fn clear(&mut self) {
        self.cal.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Pop-order oracle: a binary min-heap over `(time, seq)`, the order
    /// the calendar's packed keys encode.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
        seq: u64,
        now: SimTime,
    }

    impl HeapOracle {
        fn schedule(&mut self, time: SimTime, payload: u64) {
            self.heap.push(Reverse((time, self.seq, payload)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let Reverse((time, _, payload)) = self.heap.pop()?;
            self.now = time;
            Some((time, payload))
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(7), 0);
        q.schedule(SimTime(3), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(3));
        q.pop();
        assert_eq!(q.now(), SimTime(7));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        q.pop();
        q.schedule(SimTime(10), 2); // same instant as `now` is fine
        assert_eq!(q.pop(), Some((SimTime(10), 2)));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(4), 0);
        assert_eq!(q.peek_time(), Some(SimTime(4)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 1u32);
        q.schedule(SimTime(5), 5);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t, v), (SimTime(1), 1));
        // schedule between pending events
        q.schedule(SimTime(3), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    #[test]
    fn schedule_after_peek_of_later_event_is_not_stranded() {
        // Regression guard for the day-pointer hazard: peeking a far-future
        // event must not let the calendar commit its day pointer past an
        // event scheduled afterwards at an earlier (but still future) time.
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        q.pop();
        q.schedule(SimTime(1 << 20), 99);
        assert_eq!(q.peek_time(), Some(SimTime(1 << 20)));
        q.schedule(SimTime(20), 2);
        assert_eq!(q.pop(), Some((SimTime(20), 2)));
        assert_eq!(q.pop(), Some((SimTime(1 << 20), 99)));
    }

    #[test]
    fn clear_rewinds_time_and_reuses() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), 1);
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        // After clear the queue accepts earlier times again and FIFO
        // sequence numbering restarts.
        q.schedule(SimTime(2), 7);
        q.schedule(SimTime(2), 8);
        assert_eq!(q.pop(), Some((SimTime(2), 7)));
        assert_eq!(q.pop(), Some((SimTime(2), 8)));
    }

    #[test]
    fn resize_boundary_preserves_order() {
        // Cross the grow threshold (len > nbuckets * 2, starting at 8
        // buckets) and later the shrink threshold while draining; the pop
        // sequence must match the heap oracle exactly, including FIFO ties.
        let mut heap = HeapOracle::default();
        let mut cal = EventQueue::new();
        // 600 events: bursts of ties + spread, forcing several rebuilds.
        for i in 0..600u64 {
            let t = SimTime((i / 3) * 17 % 4096);
            heap.schedule(t, i);
            cal.schedule(t, i);
        }
        // Drain halfway, interleave more schedules (schedule-during-drain),
        // then drain fully; shrink fires as occupancy collapses.
        for step in 0..300 {
            assert_eq!(heap.pop(), cal.pop(), "diverged at drain step {step}");
        }
        for i in 0..50u64 {
            let t = SimTime(heap.now.0 + i * 1000);
            heap.schedule(t, 10_000 + i);
            cal.schedule(t, 10_000 + i);
        }
        let mut n = 0;
        loop {
            let (h, c) = (heap.pop(), cal.pop());
            assert_eq!(h, c, "diverged at final drain step {n}");
            if h.is_none() {
                break;
            }
            n += 1;
        }
        assert_eq!(n, 350);
    }

    #[test]
    fn far_future_outlier_uses_sparse_jump() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 1);
        q.schedule(SimTime(u64::MAX / 2), 2);
        assert_eq!(q.pop(), Some((SimTime(1), 1)));
        // The outlier is billions of days out; find_next must jump, not walk.
        assert_eq!(q.pop(), Some((SimTime(u64::MAX / 2), 2)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn reserve_pregrows_without_reordering() {
        let mut q = EventQueue::new();
        q.reserve(1000);
        for i in 0..1000u64 {
            q.schedule(SimTime(1000 - i), i);
        }
        let mut last = None;
        for _ in 0..1000 {
            let (t, _) = q.pop().unwrap();
            if let Some(prev) = last {
                assert!(t >= prev);
            }
            last = Some(t);
        }
    }
}
