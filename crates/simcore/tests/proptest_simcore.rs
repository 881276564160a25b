//! Property tests for the simulation core: the event queue's total order and
//! the FIFO resource's conservation laws must hold for arbitrary inputs.

use proptest::prelude::*;
use refdist_simcore::{EventQueue, FifoResource, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pop-order oracle: a binary min-heap over `(time, seq)` — earliest time
/// first, FIFO among ties — mirroring the queue's API.
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

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }
}

/// One step of an adversarial queue schedule: a flood of `n` events at
/// `now + dt` (ties when `n > 1` or `dt` repeats), or popping up to `n`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Flood { dt: u64, n: usize },
    Pop(usize),
}

proptest! {
    #[test]
    fn event_queue_pops_in_time_then_fifo_order(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev);
        }
        prop_assert_eq!(popped.len(), times.len());
        // Times are non-decreasing; ties preserve insertion order.
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
        // `now` ends at the latest event time.
        prop_assert_eq!(q.now(), SimTime(*times.iter().max().unwrap()));
    }

    /// The calendar queue must pop the heap oracle's `(time, payload)`
    /// sequence — and agree on `len`/`now` at every step — under
    /// adversarial schedules: same-instant floods, far-future outliers, and
    /// scheduling while the queue is mid-drain. Offsets are always added to
    /// the current virtual time so no op schedules into the past.
    #[test]
    fn calendar_pops_the_heap_oracle_sequence(
        ops in prop::collection::vec(
            prop_oneof![
                // Bursts of same-instant events (FIFO-tie floods).
                (0u64..4, 1usize..20).prop_map(|(dt, n)| Op::Flood { dt, n }),
                // A single event at a modest offset.
                (0u64..5_000).prop_map(|dt| Op::Flood { dt, n: 1 }),
                // Far-future outliers (sparse-lap territory).
                (1u64 << 24..1u64 << 40).prop_map(|dt| Op::Flood { dt, n: 1 }),
                // Drain a few events, then keep scheduling.
                (1usize..30).prop_map(Op::Pop),
            ],
            1..60,
        )
    ) {
        let mut heap = HeapOracle::default();
        let mut cal = EventQueue::new();
        let mut tag = 0u64;
        for op in ops {
            match op {
                Op::Flood { dt, n } => {
                    for _ in 0..n {
                        let t = SimTime(heap.now.0 + dt);
                        heap.schedule(t, tag);
                        cal.schedule(t, tag);
                        tag += 1;
                    }
                }
                Op::Pop(n) => {
                    for _ in 0..n {
                        let (h, c) = (heap.pop(), cal.pop());
                        prop_assert_eq!(h, c);
                        prop_assert_eq!(heap.now, cal.now());
                        if h.is_none() {
                            break;
                        }
                    }
                }
            }
            prop_assert_eq!(heap.heap.len(), cal.len());
            prop_assert_eq!(heap.peek_time(), cal.peek_time());
        }
        // Full drain must agree to the end.
        loop {
            let (h, c) = (heap.pop(), cal.pop());
            prop_assert_eq!(h, c);
            if h.is_none() {
                break;
            }
        }
        prop_assert_eq!(heap.now, cal.now());
    }

    #[test]
    fn resource_completions_are_fifo_and_conserve_bytes(
        requests in prop::collection::vec((0u64..10_000, 0u64..1_000_000), 1..100),
        bw in 1u64..10_000_000,
    ) {
        let mut r = FifoResource::new(bw);
        let mut now = SimTime::ZERO;
        let mut last_done = SimTime::ZERO;
        let mut total_bytes = 0u64;
        for &(advance, bytes) in &requests {
            now += SimDuration(advance);
            let done = r.request(now, bytes);
            // Completions never regress and never precede submission.
            prop_assert!(done >= last_done);
            prop_assert!(done >= now);
            // Service time is at least the ideal transfer time.
            prop_assert!(done.micros() - now.micros() >= SimDuration::transfer(bytes, bw).micros()
                || done.micros() >= now.micros());
            last_done = done;
            total_bytes += bytes;
        }
        prop_assert_eq!(r.bytes_served(), total_bytes);
        // Busy time equals the sum of individual service times.
        let expected_busy: u64 = requests
            .iter()
            .map(|&(_, b)| SimDuration::transfer(b, bw).micros())
            .sum();
        prop_assert_eq!(r.busy_time().micros(), expected_busy);
    }

    #[test]
    fn estimate_matches_subsequent_request(
        bytes in 0u64..1_000_000,
        pre in 0u64..100_000,
        bw in 1u64..1_000_000,
    ) {
        let mut r = FifoResource::new(bw);
        r.request(SimTime::ZERO, pre);
        let est = r.estimate(SimTime(10), bytes);
        let act = r.request(SimTime(10), bytes);
        prop_assert_eq!(est, act);
    }

    #[test]
    fn transfer_scales_linearly_within_rounding(bytes in 1u64..1_000_000, bw in 1u64..1_000_000) {
        let one = SimDuration::transfer(bytes, bw).micros();
        let two = SimDuration::transfer(bytes * 2, bw).micros();
        // Doubling bytes at most doubles the time (+1 for rounding).
        prop_assert!(two <= one * 2 + 1);
        prop_assert!(two + 1 >= one * 2);
    }
}
