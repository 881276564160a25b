//! Deterministic discrete-event simulation core.
//!
//! This crate provides the time base, event queue, bandwidth-serialized
//! resources, seeded random-number fan-out and statistics primitives used by
//! the cluster simulator in `refdist-cluster`. Everything here is fully
//! deterministic: the event queue breaks timestamp ties with a monotonically
//! increasing sequence number, resources serve requests in FIFO order, and
//! all randomness flows from explicitly provided seeds.

//! # Example
//!
//! ```
//! use refdist_simcore::{EventQueue, FifoResource, SimTime};
//!
//! // Events pop in time order, FIFO among ties.
//! let mut q = EventQueue::new();
//! q.schedule(SimTime(20), "late");
//! q.schedule(SimTime(10), "early");
//! assert_eq!(q.pop(), Some((SimTime(10), "early")));
//!
//! // A 1 MB/s disk serves requests back to back.
//! let mut disk = FifoResource::new(1_000_000);
//! let first = disk.request(SimTime::ZERO, 500_000);
//! let second = disk.request(SimTime::ZERO, 500_000);
//! assert_eq!(first, SimTime(500_000));
//! assert_eq!(second, SimTime(1_000_000));
//! ```

pub mod event;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventQueue, QueueWork};
pub use resource::FifoResource;
pub use rng::SeedFactory;
pub use stats::{Counter, Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
