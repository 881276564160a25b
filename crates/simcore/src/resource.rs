//! Bandwidth-serialized resources (disk spindles, network links).
//!
//! The cluster simulator models a node's disk and NIC as FIFO channels with
//! fixed bandwidth: a request of `bytes` submitted at time `t` completes at
//! `max(t, available_at) + bytes / bandwidth`, and pushes `available_at`
//! forward. This captures queueing delay under contention (e.g. prefetch
//! traffic competing with task input fetches) without per-byte events.

use crate::time::{SimDuration, SimTime};

/// A FIFO bandwidth resource.
#[derive(Debug, Clone)]
pub struct FifoResource {
    /// Service bandwidth in bytes per second.
    bytes_per_sec: u64,
    /// Time at which the resource next becomes idle.
    available_at: SimTime,
}

impl FifoResource {
    /// Create a resource with the given bandwidth.
    ///
    /// # Panics
    /// Panics on zero bandwidth; configurations must provide a positive rate.
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "resource bandwidth must be positive");
        FifoResource {
            bytes_per_sec,
            available_at: SimTime::ZERO,
        }
    }

    /// Submit a request of `bytes` at time `now`; returns its completion time
    /// and advances the queue.
    pub fn request(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.available_at.max(now);
        let done = start + SimDuration::transfer(bytes, self.bytes_per_sec);
        self.available_at = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = FifoResource::new(1_000_000); // 1 MB/s
        let done = r.request(SimTime(100), 1_000_000);
        assert_eq!(done, SimTime(100) + SimDuration(1_000_000));
    }

    #[test]
    fn requests_queue_fifo() {
        let mut r = FifoResource::new(1_000_000);
        let d1 = r.request(SimTime(0), 500_000); // 0.5s service
        let d2 = r.request(SimTime(0), 500_000); // queues behind d1
        assert_eq!(d1, SimTime(500_000));
        assert_eq!(d2, SimTime(1_000_000));
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut r = FifoResource::new(1_000_000);
        r.request(SimTime(0), 100_000); // done at 0.1s
        let d = r.request(SimTime(2_000_000), 100_000); // arrives later
        assert_eq!(d, SimTime(2_100_000));
    }

    #[test]
    fn zero_byte_request_is_free() {
        let mut r = FifoResource::new(1_000);
        let done = r.request(SimTime(42), 0);
        assert_eq!(done, SimTime(42));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        FifoResource::new(0);
    }
}
