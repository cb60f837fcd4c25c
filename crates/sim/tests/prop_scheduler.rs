//! Property tests for [`sps_sim::Scheduler`], the stable-ordered
//! pending-event queue:
//!
//! 1. a cancelled ticket is never yielded by `pop` (cancel-then-pop),
//! 2. pop order is non-decreasing in time regardless of insertion order,
//! 3. events at the same `SimTime` fire in insertion order (FIFO tie-break),
//! 4. under schedules, cancels and pops interleaved, `pop`, `cancel` and
//!    `pending` agree with a sorted-set model.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use sps_sim::{Scheduler, SimDuration, SimTime, TicketId};
use std::collections::BTreeSet;

/// A scripted interaction: event times (in insertion order) plus the indices
/// of the insertions to cancel before draining.
fn arb_script() -> impl Strategy<Value = (Vec<u64>, Vec<usize>)> {
    (
        prop::collection::vec(0u64..50, 1..64),
        prop::collection::vec(0usize..64, 0..32),
    )
}

proptest! {
    #[test]
    fn cancelled_tickets_never_pop(script in arb_script()) {
        let (times, cancels) = script;
        let mut s = Scheduler::new();
        let tickets: Vec<TicketId> = times
            .iter()
            .map(|&t| s.schedule_at(SimTime::from_millis(t), t))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for &c in &cancels {
            if let Some(&ticket) = tickets.get(c) {
                // First cancel of a pending ticket succeeds; re-cancelling
                // the same ticket must report false.
                let fresh = cancelled.insert(ticket);
                prop_assert_eq!(s.cancel(ticket), fresh);
            }
        }
        let mut popped = Vec::new();
        while let Some(ev) = s.pop() {
            prop_assert!(
                !cancelled.contains(&ev.ticket),
                "cancelled ticket {:?} surfaced",
                ev.ticket
            );
            popped.push(ev.ticket);
        }
        // Everything not cancelled surfaced exactly once.
        let mut expected: Vec<TicketId> = tickets
            .iter()
            .copied()
            .filter(|t| !cancelled.contains(t))
            .collect();
        let mut got = popped.clone();
        expected.sort();
        got.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn pop_order_is_nondecreasing_in_time(times in prop::collection::vec(0u64..1000, 1..128)) {
        let mut s = Scheduler::new();
        for &t in &times {
            s.schedule_at(SimTime::from_millis(t), t);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0usize;
        while let Some(ev) = s.pop() {
            prop_assert!(ev.at >= last, "time went backwards: {} after {}", ev.at, last);
            // The clock follows the popped event.
            prop_assert_eq!(s.now(), ev.at);
            // The payload matches the scheduled instant.
            prop_assert_eq!(SimTime::from_millis(ev.payload), ev.at);
            last = ev.at;
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    #[test]
    fn equal_times_fire_in_insertion_order(
        groups in prop::collection::vec((0u64..8, 1usize..6), 1..16)
    ) {
        // Interleave insertions across a handful of distinct instants; the
        // per-instant subsequence of pops must preserve insertion order.
        let mut s = Scheduler::new();
        let mut seq = 0u64;
        for &(t, count) in &groups {
            for _ in 0..count {
                s.schedule_at(SimTime::from_millis(t), (t, seq));
                seq += 1;
            }
        }
        let mut last_seq_at: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        while let Some(ev) = s.pop() {
            let (t, seq) = ev.payload;
            if let Some(&prev) = last_seq_at.get(&t) {
                prop_assert!(
                    seq > prev,
                    "FIFO violated at t={t}: seq {seq} after {prev}"
                );
            }
            last_seq_at.insert(t, seq);
        }
    }

    #[test]
    fn interleaved_pops_and_cancels_agree_with_a_model(
        script in prop::collection::vec((0u8..3, 0u64..50), 1..96)
    ) {
        // 0: schedule `arg` ms from now, 1: cancel a ticket issued so far
        // (pending, cancelled or fired), 2: pop.
        let mut s = Scheduler::new();
        let mut tickets: Vec<TicketId> = Vec::new();
        let mut model: BTreeSet<(SimTime, TicketId)> = BTreeSet::new();
        for (op, arg) in script {
            match op {
                0 => {
                    let at = s.now() + SimDuration::from_millis(arg);
                    let ticket = s.schedule_at(at, ());
                    tickets.push(ticket);
                    model.insert((at, ticket));
                }
                1 if !tickets.is_empty() => {
                    let ticket = tickets[arg as usize % tickets.len()];
                    let live = model.iter().find(|e| e.1 == ticket).copied();
                    prop_assert_eq!(s.cancel(ticket), live.is_some());
                    if let Some(entry) = live {
                        model.remove(&entry);
                    }
                }
                1 => {}
                _ => {
                    let next = model.pop_first();
                    prop_assert_eq!(s.pop().map(|ev| (ev.at, ev.ticket)), next);
                }
            }
            prop_assert_eq!(s.pending(), model.len());
        }
    }
}
