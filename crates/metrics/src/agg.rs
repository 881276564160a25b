//! Order-restoring aggregation for parallel producers.
//!
//! Worker pools complete items in a nondeterministic order; reports must not
//! inherit that order. An [`OrderedSink`] accepts `(key, value)` pairs as
//! they finish and yields the values sorted by key, so aggregated output is
//! identical no matter how the work was scheduled.

/// Collects keyed results in completion order, emits them in key order.
#[derive(Debug, Clone)]
pub struct OrderedSink<K: Ord, V> {
    items: Vec<(K, V)>,
}

impl<K: Ord, V> OrderedSink<K, V> {
    /// An empty sink.
    pub fn new() -> Self {
        OrderedSink { items: Vec::new() }
    }

    /// An empty sink with room for `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        OrderedSink {
            items: Vec::with_capacity(capacity),
        }
    }

    /// Record one completed item under its canonical key.
    pub fn push(&mut self, key: K, value: V) {
        self.items.push((key, value));
    }

    /// Number of items recorded so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All values in ascending key order (stable for equal keys).
    pub fn into_ordered(self) -> Vec<V> {
        self.into_pairs_ordered()
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    /// All `(key, value)` pairs in ascending key order (stable for equal
    /// keys).
    pub fn into_pairs_ordered(mut self) -> Vec<(K, V)> {
        self.items.sort_by(|a, b| a.0.cmp(&b.0));
        self.items
    }
}

impl<K: Ord, V> Default for OrderedSink<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restores_key_order() {
        let mut s = OrderedSink::new();
        for (k, v) in [(2usize, "c"), (0, "a"), (3, "d"), (1, "b")] {
            s.push(k, v);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.into_ordered(), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn stable_for_equal_keys() {
        let mut s = OrderedSink::new();
        s.push(1, "first");
        s.push(0, "zero");
        s.push(1, "second");
        assert_eq!(s.into_ordered(), vec!["zero", "first", "second"]);
    }

    #[test]
    fn pairs_keep_keys() {
        let mut s = OrderedSink::with_capacity(2);
        assert!(s.is_empty());
        s.push("b", 2);
        s.push("a", 1);
        assert_eq!(s.into_pairs_ordered(), vec![("a", 1), ("b", 2)]);
    }
}
