//! The discrete-event scheduler at the heart of the simulator.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs. Ties on the
//! timestamp are broken by insertion order (FIFO), which keeps runs
//! deterministic: two events scheduled for the same instant always pop in
//! the order they were pushed, regardless of heap internals.
//!
//! The queue keeps two heaps. Events due within [`NEAR_HORIZON`] of the
//! clock when they are scheduled go to the *near* heap: the wires, work
//! and timers in flight, a few hundred at most. The rest go to the *far*
//! heap: a pre-applied schedule of client requests (up to hundreds of
//! thousands) and long timers. Most pops and pushes then sift through the
//! small heap only. A pop takes whichever top has the smaller
//! `(time, seq)`, so the pop order is exactly that of one heap.
//!
//! # Examples
//!
//! ```
//! use otp_simnet::event::EventQueue;
//! use otp_simnet::time::SimTime;
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(2), "second");
//! q.schedule(SimTime::from_millis(1), "first");
//! assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("second"));
//! assert!(q.pop().is_none());
//! ```

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the scheduler heap. Ordered by `(time, seq)` ascending;
/// wrapped in `Reverse`-style custom `Ord` so `BinaryHeap` pops the minimum.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // Inverted: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) on top.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// How far ahead of the clock an event may be due and still go to the near
/// heap. Above every per-message delay of the modelled networks (tens to
/// hundreds of microseconds, a few milliseconds on the 10 Mbit/s LAN) and
/// far below the span of a pre-applied request schedule (seconds). It only
/// decides where an event waits, never when it pops.
pub const NEAR_HORIZON: SimDuration = SimDuration::from_millis(10);

/// A deterministic discrete-event queue.
///
/// The queue tracks the virtual clock: [`EventQueue::pop`] advances
/// [`EventQueue::now`] to the timestamp of the popped event. Scheduling in
/// the past is rejected (see [`EventQueue::schedule`]), which catches causal
/// bugs in protocol implementations early. A driver whose time is read off
/// a wall clock also moves the clock forward itself
/// ([`EventQueue::advance_to`]); the simulator never does.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events due within [`NEAR_HORIZON`] of the clock when scheduled.
    near: BinaryHeap<Entry<E>>,
    /// Every other event.
    far: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// The timestamp of the most recently popped event.
    now: SimTime,
    /// The clock's floor, moved by [`EventQueue::advance_to`]: zero in the
    /// simulator.
    floor: SimTime,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            near: BinaryHeap::new(),
            far: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            floor: SimTime::ZERO,
            scheduled_total: 0,
        }
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event, or [`SimTime::ZERO`] before the first pop, or the instant
    /// the clock was advanced to ([`EventQueue::advance_to`]) if that is
    /// later.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now.max(self.floor)
    }

    /// Moves the clock forward to `t`; an earlier `t` changes nothing.
    /// Events due before `t` still pop, in order, without moving the clock
    /// back, and events scheduled from now on are due relative to `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        self.floor = self.floor.max(t);
    }

    /// Number of events waiting in the queue.
    #[inline]
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    /// Returns true if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.far.is_empty()
    }

    /// Total number of events scheduled over the queue's lifetime.
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Events scheduled for the current instant are allowed (they fire
    /// after already-queued events with the same timestamp).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`] — scheduling into
    /// the past is always a logic error in the caller.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let now = self.now();
        assert!(at >= now, "cannot schedule into the past: at={at} now={now}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let heap =
            if at.saturating_since(now) < NEAR_HORIZON { &mut self.near } else { &mut self.far };
        heap.push(Entry { time: at, seq, event });
    }

    /// Whether the earliest `(time, seq)` is the far heap's top.
    fn far_first(&self) -> bool {
        match (self.near.peek(), self.far.peek()) {
            // `Entry` orders inverted: the earlier entry is the greater.
            (Some(near), Some(far)) => far > near,
            (near, far) => near.is_none() && far.is_some(),
        }
    }

    /// The earliest entry without popping it.
    fn first(&self) -> Option<&Entry<E>> {
        if self.far_first() {
            self.far.peek()
        } else {
            self.near.peek()
        }
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.first().map(|e| e.time)
    }

    /// The next event (timestamp and a borrow of its payload) without
    /// popping it. Drivers use this to coalesce runs of same-instant events
    /// into one batch before committing to the pops.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.first().map(|e| (e.time, &e.event))
    }

    /// Pops the earliest event, advancing the virtual clock to its
    /// timestamp (or leaving it at a later [`EventQueue::advance_to`]).
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = if self.far_first() { self.far.pop() } else { self.near.pop() }?;
        debug_assert!(entry.time >= self.now, "heap produced an out-of-order event");
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.near.clear();
        self.far.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), 5);
        q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        q.pop();
        q.schedule(SimTime::from_millis(1), ());
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(2), "a");
        q.pop();
        q.schedule(q.now(), "b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 1);
        let (t, _) = q.pop().unwrap();
        q.schedule(t + SimDuration::from_millis(1), 2);
        q.schedule(t + SimDuration::from_micros(500), 3);
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn counters_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn peek_exposes_the_next_event_in_fifo_tie_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(2);
        q.schedule(t, "a");
        q.schedule(t, "b");
        assert_eq!(q.peek(), Some((t, &"a")));
        q.pop();
        assert_eq!(q.peek(), Some((t, &"b")));
        q.pop();
        assert_eq!(q.peek(), None);
    }

    /// An event due beyond the horizon waits in the far heap; one
    /// scheduled later for the same instant, once the clock has come
    /// close, waits in the near heap. The earlier-scheduled one still pops
    /// first.
    #[test]
    fn equal_times_across_the_heaps_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + NEAR_HORIZON + NEAR_HORIZON;
        q.schedule(t, "far");
        q.schedule(SimTime::ZERO + NEAR_HORIZON.mul_u64(3).div_u64(2), "step");
        assert_eq!(q.pop().map(|(_, e)| e), Some("step"));
        q.schedule(t, "near");
        assert_eq!((q.far.len(), q.near.len()), (1, 1));
        assert_eq!(q.peek(), Some((t, &"far")));
        assert_eq!(q.pop(), Some((t, "far")));
        assert_eq!(q.pop(), Some((t, "near")));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random interleavings of `schedule`, `pop`, `peek` and `clear`
        /// against a reference that sorts by `(time, seq)`: due times fall
        /// just below, at and above the horizon, and on a grid of absolute
        /// instants that two heaps can both hold. `peek` and `peek_time`
        /// name the next pop, and `len` counts both heaps.
        #[test]
        fn prop_pops_like_one_sorted_queue(
            ops in proptest::collection::vec((0u64..8, 0u64..9), 1..300),
        ) {
            let h = NEAR_HORIZON.as_nanos();
            let ahead = [0, 1, h / 2, h - 1, h, h + 1, 2 * h, 3 * h + 7, 40 * h];
            let mut q = EventQueue::new();
            // (time, seq) of every pending event; the event is its seq.
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            let mut seq = 0u64;
            for (op, k) in ops {
                let now = q.now();
                match op {
                    0..=2 => {
                        let at = now + SimDuration::from_nanos(ahead[k as usize]);
                        q.schedule(at, seq);
                        model.push((at, seq));
                        seq += 1;
                    }
                    3 | 4 => {
                        // Grid instants h/2 apart, or 1 ns either side.
                        let grid = (k / 3 + 1) * h / 2 + (k % 3) - 1;
                        let at = now.max(SimTime::from_nanos(grid));
                        q.schedule(at, seq);
                        model.push((at, seq));
                        seq += 1;
                    }
                    5 | 6 => {
                        model.sort();
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        proptest::prop_assert_eq!(q.pop(), want);
                    }
                    _ if k == 0 => {
                        q.clear();
                        model.clear();
                    }
                    _ => {}
                }
                model.sort();
                let first = model.first().copied();
                proptest::prop_assert_eq!(q.peek_time(), first.map(|(t, _)| t));
                proptest::prop_assert_eq!(q.peek(), first.as_ref().map(|(t, s)| (*t, s)));
                proptest::prop_assert_eq!(q.len(), model.len());
                proptest::prop_assert_eq!(q.is_empty(), model.is_empty());
            }
            let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            proptest::prop_assert_eq!(rest, model);
        }
    }
}
