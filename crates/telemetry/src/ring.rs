//! The bounded record ring behind the flight recorder, the tail sampler's
//! reservoir and serve's per-request event log: once `capacity` records are
//! held, each push evicts the oldest, so memory stays constant under any
//! traffic.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// Bounded, thread-safe FIFO of records (see the module docs).
pub struct Ring<T> {
    capacity: usize,
    items: Mutex<VecDeque<T>>,
}

impl<T> Ring<T> {
    /// A ring keeping at most `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> Ring<T> {
        Ring { capacity: capacity.max(1), items: Mutex::new(VecDeque::new()) }
    }

    fn items(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.items.lock().expect("no ring operation panics while holding the lock")
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&self, record: T) {
        let mut items = self.items();
        if items.len() == self.capacity {
            items.pop_front();
        }
        items.push_back(record);
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out the current contents, oldest first.
    pub fn records(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.items().iter().cloned().collect()
    }

    /// The contents as JSON Lines: one record per line, oldest first.
    pub fn dump_jsonl(&self) -> String
    where
        T: serde::Serialize,
    {
        let line = |r: &T| serde_json::to_string(r).expect("the stub writer is infallible") + "\n";
        self.items().iter().map(line).collect()
    }
}
