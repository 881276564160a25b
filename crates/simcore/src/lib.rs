//! Deterministic simulation core.
//!
//! This crate provides the time base and the bandwidth-serialized resources
//! used by the cluster simulator in `refdist-cluster`. The engine has stage
//! barriers and no event loop: tasks are placed on slot free times, and disk
//! and network transfers queue on FIFO channels. Time is integer
//! microseconds and resources serve requests in submission order, so
//! everything here is fully deterministic.

//! # Example
//!
//! ```
//! use refdist_simcore::{FifoResource, SimDuration, SimTime};
//!
//! // A 1 MB/s disk serves requests back to back.
//! let mut disk = FifoResource::new(1_000_000);
//! let first = disk.request(SimTime::ZERO, 500_000);
//! let second = disk.request(SimTime::ZERO, 500_000);
//! assert_eq!(first, SimTime(500_000));
//! assert_eq!(second, SimTime(1_000_000));
//! assert_eq!(second - first, SimDuration(500_000));
//! ```

pub mod resource;
pub mod time;

pub use resource::FifoResource;
pub use time::{SimDuration, SimTime};
