use crate::SimInstant;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic discrete-event queue.
///
/// Events pop in timestamp order; events sharing a timestamp pop in the order
/// they were scheduled (FIFO tiebreak via a monotonically increasing sequence
/// number). Determinism here is what makes whole-cloud simulations replayable
/// with a fixed seed.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimInstant,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at instant `at`.
    pub fn schedule(&mut self, at: SimInstant, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimInstant, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimInstant> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pops every event scheduled at or before `t`, in order, handing each
    /// to `f` without collecting them — see [`EventQueue::pop`] for the
    /// one-at-a-time form. Returns how many events were delivered.
    ///
    /// This is the hot-path entry point: simulation drivers call it once per
    /// tick, and a `Vec` per call would dominate the event loop's allocation
    /// profile on dense timelines.
    pub fn pop_until(&mut self, t: SimInstant, mut f: impl FnMut(SimInstant, E)) -> usize {
        let mut delivered = 0;
        while self.peek_time().is_some_and(|at| at <= t) {
            let (at, event) = self.pop().expect("peeked event must pop");
            f(at, event);
            delivered += 1;
        }
        delivered
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    fn at(s: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at(30), "c");
        q.schedule(at(10), "a");
        q.schedule(at(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_tiebreak_at_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.schedule(at(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_respects_boundary() {
        let mut q = EventQueue::new();
        q.schedule(at(1), 1);
        q.schedule(at(2), 2);
        q.schedule(at(3), 3);
        let mut drained = Vec::new();
        assert_eq!(q.pop_until(at(2), |_, e| drained.push(e)), 2);
        assert_eq!(drained, vec![1, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(at(3)));
    }

    #[test]
    fn pop_until_delivers_in_order_without_allocating_output() {
        let mut q = EventQueue::new();
        q.schedule(at(3), "c");
        q.schedule(at(1), "a");
        q.schedule(at(2), "b");
        q.schedule(at(9), "later");
        let mut seen = Vec::new();
        let n = q.pop_until(at(3), |t, e| seen.push((t, e)));
        assert_eq!(n, 3);
        assert_eq!(seen, vec![(at(1), "a"), (at(2), "b"), (at(3), "c")]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_until(at(3), |_, _| unreachable!()), 0);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop_until(at(100), |_, _| unreachable!()), 0);
    }
}
