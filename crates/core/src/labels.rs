//! Per-topic counter labels, interned once per topic path and shared by
//! every process of that topic.
//!
//! The metrics registry resolves a label it has seen before at the same
//! address in O(1) (`da_simnet::Counters::register`), so the hot path
//! wants few, long-lived label strings. Interning makes every process of
//! a topic hold the same [`Arc<Labels>`] and pass the same `&str`s: a
//! population of thousands of processes over a few dozen topics bumps a
//! few dozen hot labels, not six private strings per process.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Pre-rendered counter labels of one topic: `<family>.<kind>.<path>`.
#[derive(Debug)]
pub(crate) struct Labels {
    /// Event messages gossiped inside the own group.
    pub(crate) intra: String,
    /// Event messages sent to supertable entries.
    pub(crate) inter_out: String,
    /// Event messages that arrived from a strict subtopic group.
    pub(crate) inter_in: String,
    /// Events delivered to the application.
    pub(crate) delivered: String,
    /// Events received more than once.
    pub(crate) duplicate: String,
    /// Control-plane messages (bootstrap, maintenance, membership).
    pub(crate) control: String,
}

/// Every label set rendered so far, by family and then topic path.
/// Entries live for the whole program: a run has a bounded set of topic
/// paths, and a label set costs six short strings.
type Interned = BTreeMap<&'static str, BTreeMap<String, Arc<Labels>>>;
static INTERNED: Mutex<Interned> = Mutex::new(BTreeMap::new());

impl Labels {
    /// The shared label set of `family` (`"da"`, `"dag"`) for the topic
    /// at `path`, rendered on first request.
    pub(crate) fn shared(family: &'static str, path: &str) -> Arc<Labels> {
        // Every update is one complete insert, so a map poisoned by a
        // panicking holder is still valid.
        let mut interned = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
        let by_path = interned.entry(family).or_default();
        if let Some(labels) = by_path.get(path) {
            return Arc::clone(labels);
        }
        let labels = Arc::new(Labels {
            intra: format!("{family}.intra.{path}"),
            inter_out: format!("{family}.inter_out.{path}"),
            inter_in: format!("{family}.inter_in.{path}"),
            delivered: format!("{family}.delivered.{path}"),
            duplicate: format!("{family}.duplicate.{path}"),
            control: format!("{family}.control.{path}"),
        });
        by_path.insert(path.to_owned(), Arc::clone(&labels));
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_label_set_per_family_and_path() {
        let a = Labels::shared("da", "labels.test.t1");
        let b = Labels::shared("da", "labels.test.t1");
        assert!(Arc::ptr_eq(&a, &b), "same topic shares one set");
        assert_eq!(a.intra, "da.intra.labels.test.t1");
        assert_eq!(a.control, "da.control.labels.test.t1");
        let dag = Labels::shared("dag", "labels.test.t1");
        assert!(!Arc::ptr_eq(&a, &dag));
        assert_eq!(dag.inter_out, "dag.inter_out.labels.test.t1");
        let other = Labels::shared("da", "labels.test.t2");
        assert_ne!(a.delivered, other.delivered);
    }
}
