//! Pending-event queue with stable ordering and cancellation.
//!
//! The scheduler is generic over the event payload `E`. Two events scheduled
//! for the same instant fire in insertion order (a strict requirement for
//! determinism — `BinaryHeap` alone does not provide it, so entries carry a
//! sequence number).

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// Identifies a scheduled event so it can be cancelled before it fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TicketId(u64);

/// An event popped from the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    pub at: SimTime,
    pub ticket: TicketId,
    pub payload: E,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Discrete-event scheduler: a clock plus an ordered pending-event set.
pub struct Scheduler<E> {
    now: SimTime,
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    cancelled: BTreeSet<u64>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: BTreeSet::new(),
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Schedules `payload` to fire at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past: the simulation is causal and events may
    /// only be produced for the present or future.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> TicketId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={:?} at={:?}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        TicketId(seq)
    }

    /// Schedules `payload` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDuration, payload: E) -> TicketId {
        self.schedule_at(self.now + after, payload)
    }

    /// Cancels a previously scheduled event. Returns true if the event was
    /// still pending (i.e. this call prevented it from firing); a ticket that
    /// already fired, was already cancelled or was never issued changes
    /// nothing. Linear in the number of queued entries.
    pub fn cancel(&mut self, ticket: TicketId) -> bool {
        // We cannot remove from the middle of a BinaryHeap; record the seq and
        // skip it at pop time. The set is drained as entries surface, so it
        // only ever holds seqs still in the heap.
        self.heap.iter().any(|e| e.seq == ticket.0) && self.cancelled.insert(ticket.0)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.at >= self.now);
            self.now = entry.at;
            return Some(ScheduledEvent {
                at: entry.at,
                ticket: TicketId(entry.seq),
                payload: entry.payload,
            });
        }
        None
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled entries from the top so the peek is accurate.
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
                continue;
            }
            return Some(entry.at);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(30), "c");
        s.schedule_at(SimTime::from_millis(10), "a");
        s.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::from_millis(30));
    }

    #[test]
    fn same_instant_fires_in_insertion_order() {
        let mut s = Scheduler::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(100), "first");
        assert_eq!(s.pop().unwrap().payload, "first");
        s.schedule_after(SimDuration::from_millis(50), "second");
        let ev = s.pop().unwrap();
        assert_eq!(ev.at, SimTime::from_millis(150));
        assert_eq!(ev.payload, "second");
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(100), ());
        s.pop();
        s.schedule_at(SimTime::from_millis(50), ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut s = Scheduler::new();
        let t1 = s.schedule_at(SimTime::from_millis(10), "a");
        s.schedule_at(SimTime::from_millis(20), "b");
        assert!(s.cancel(t1));
        assert_eq!(s.pending(), 1);
        assert_eq!(s.pop().unwrap().payload, "b");
        assert!(s.pop().is_none());
    }

    #[test]
    fn cancel_is_idempotent_and_rejects_unknown() {
        let mut s = Scheduler::new();
        let t = s.schedule_at(SimTime::from_millis(10), ());
        assert!(s.cancel(t));
        assert!(!s.cancel(t)); // already cancelled
        assert!(!s.cancel(TicketId(999)));
    }

    #[test]
    fn cancelling_a_fired_ticket_changes_nothing() {
        let mut s = Scheduler::new();
        let fired = s.schedule_at(SimTime::from_millis(10), "a");
        s.schedule_at(SimTime::from_millis(20), "b");
        assert_eq!(s.pop().unwrap().ticket, fired);
        assert!(!s.cancel(fired));
        assert_eq!(s.pending(), 1);
        assert_eq!(s.pop().unwrap().payload, "b");
        assert!(s.is_empty());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut s = Scheduler::new();
        let t1 = s.schedule_at(SimTime::from_millis(10), "a");
        s.schedule_at(SimTime::from_millis(20), "b");
        s.cancel(t1);
        assert_eq!(s.peek_time(), Some(SimTime::from_millis(20)));
        assert_eq!(s.pop().unwrap().payload, "b");
        assert_eq!(s.peek_time(), None);
    }

    #[test]
    fn pending_counts_exclude_cancelled() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_millis(1), 1);
        s.schedule_at(SimTime::from_millis(2), 2);
        assert_eq!(s.pending(), 2);
        s.cancel(a);
        assert_eq!(s.pending(), 1);
        assert!(!s.is_empty());
        s.pop();
        assert!(s.is_empty());
    }
}
