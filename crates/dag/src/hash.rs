//! Hash maps and sets with a fixed hash seed, for every simulator layer.
//!
//! `std`'s `RandomState` seeds each map from OS randomness. Where a map's
//! probing leaves deleted markers depends on the seed, and with them when
//! the table grows instead of rehashing in place, so an otherwise identical
//! run allocates a slightly different amount in every process. A fixed seed
//! makes a run's heap traffic a function of its inputs, which the
//! work-count golden (`tests/work_counts.rs`) compares exactly. The maps
//! hold simulator ids, never untrusted keys. Build them with `default()`.

use std::hash::{BuildHasherDefault, DefaultHasher};

/// SipHash with fixed keys.
pub type FixedState = BuildHasherDefault<DefaultHasher>;
/// `std::collections::HashMap` with a fixed hash seed.
pub type HashMap<K, V> = std::collections::HashMap<K, V, FixedState>;
/// `std::collections::HashSet` with a fixed hash seed.
pub type HashSet<T> = std::collections::HashSet<T, FixedState>;
