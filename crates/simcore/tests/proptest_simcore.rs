//! Property tests for the simulation core: the FIFO resource serves
//! arbitrary request streams in order, and transfer times scale linearly.

use proptest::prelude::*;
use refdist_simcore::{FifoResource, SimDuration, SimTime};

proptest! {
    #[test]
    fn resource_completions_are_fifo_and_monotone(
        requests in prop::collection::vec((0u64..10_000, 0u64..1_000_000), 1..100),
        bw in 1u64..10_000_000,
    ) {
        let mut r = FifoResource::new(bw);
        let mut now = SimTime::ZERO;
        let mut last_done = SimTime::ZERO;
        for &(advance, bytes) in &requests {
            now += SimDuration(advance);
            let done = r.request(now, bytes);
            // Completions never regress, and each request is served for
            // exactly its transfer time once the channel and the request
            // are both ready.
            prop_assert!(done >= last_done);
            prop_assert_eq!(done, last_done.max(now) + SimDuration::transfer(bytes, bw));
            last_done = done;
        }
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
