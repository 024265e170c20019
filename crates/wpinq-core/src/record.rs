//! The [`Record`] trait bound satisfied by every type that can live in a weighted dataset.

use std::fmt::Debug;
use std::hash::Hash;

/// Types usable as records in a [`WeightedDataset`](crate::WeightedDataset).
///
/// A record must be cheaply clonable, hashable (datasets are weight maps keyed by record),
/// totally ordered (the `GroupBy` operator sorts records inside a group, and deterministic
/// iteration orders make experiments reproducible), debuggable, and thread-safe (the
/// sharded batch executor moves record shards across worker-pool threads).
///
/// The trait is blanket-implemented; you never implement it by hand.
pub trait Record: Clone + Eq + Hash + Ord + Debug + Send + Sync + 'static {}

impl<T> Record for T where T: Clone + Eq + Hash + Ord + Debug + Send + Sync + 'static {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_record<T: Record>() {}

    #[test]
    fn common_types_are_records() {
        assert_record::<u32>();
        assert_record::<(u32, u32)>();
        assert_record::<String>();
        assert_record::<&'static str>();
        assert_record::<Vec<u8>>();
        assert_record::<(u32, (u64, i8), String)>();
    }
}
