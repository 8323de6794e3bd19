//! Bounded FIFO channels with ready/valid semantics.
//!
//! Hardware blocks in the model exchange data exclusively through bounded
//! FIFOs, mirroring how AXI-Stream cores are composed on the real fabric: a
//! producer may push only when the FIFO has space (`tready`), a consumer pops
//! at its own clock rate, and back-pressure emerges naturally from occupancy.
//!
//! A channel is created with [`fifo_channel`], which returns role-typed
//! [`Producer`]/[`Consumer`] endpoints over shared storage. Both endpoints
//! (and any clone of the underlying [`Fifo`]) observe the same state; the
//! simulation is single-threaded, so `Rc<RefCell<…>>` is the right sharing
//! primitive.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::impl_json_struct;
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::wake::{WakeSource, Waker, Watchers};

/// Counters describing a FIFO's lifetime behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FifoStats {
    /// Elements accepted.
    pub pushed: u64,
    /// Elements removed.
    pub popped: u64,
    /// Push attempts rejected because the FIFO was full (back-pressure).
    pub rejected: u64,
    /// Highest occupancy ever observed.
    pub high_water: usize,
}

impl_json_struct!(FifoStats {
    pushed,
    popped,
    rejected,
    high_water
});

#[derive(Debug)]
struct Inner<T> {
    name: String,
    buf: std::collections::VecDeque<T>,
    capacity: usize,
    stats: FifoStats,
    /// Consumer-side listeners, woken when an element arrives.
    on_push: Watchers,
    /// Producer-side listeners, woken when space frees up.
    on_pop: Watchers,
}

/// A shared handle to bounded FIFO storage.
///
/// Most code should hold a role-typed [`Producer`] or [`Consumer`] instead;
/// the raw handle is useful for monitors that need to observe occupancy.
pub struct Fifo<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

impl<T> Clone for Fifo<T> {
    fn clone(&self) -> Self {
        Fifo {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Fifo<T> {
    /// Creates a FIFO with the given debug name and capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-depth FIFO can never transfer
    /// data and always indicates a wiring mistake.
    pub fn new(name: &str, capacity: usize) -> Self {
        assert!(capacity > 0, "fifo '{name}' must have non-zero capacity");
        Fifo {
            inner: Rc::new(RefCell::new(Inner {
                name: name.to_string(),
                buf: std::collections::VecDeque::with_capacity(capacity),
                capacity,
                stats: FifoStats::default(),
                on_push: Watchers::default(),
                on_pop: Watchers::default(),
            })),
        }
    }

    /// The FIFO's debug name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Current number of buffered elements.
    pub fn len(&self) -> usize {
        self.inner.borrow().buf.len()
    }

    /// True when no elements are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the FIFO cannot accept another element.
    pub fn is_full(&self) -> bool {
        let inner = self.inner.borrow();
        inner.buf.len() >= inner.capacity
    }

    /// Maximum number of buffered elements.
    pub fn capacity(&self) -> usize {
        self.inner.borrow().capacity
    }

    /// Remaining space.
    pub fn free_space(&self) -> usize {
        let inner = self.inner.borrow();
        inner.capacity - inner.buf.len()
    }

    /// Lifetime statistics snapshot.
    pub fn stats(&self) -> FifoStats {
        self.inner.borrow().stats
    }

    /// Attempts to append an element; on a full FIFO the element is handed
    /// back unchanged and the rejection is counted.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let mut inner = self.inner.borrow_mut();
        if inner.buf.len() >= inner.capacity {
            inner.stats.rejected += 1;
            return Err(value);
        }
        inner.buf.push_back(value);
        inner.stats.pushed += 1;
        let occ = inner.buf.len();
        if occ > inner.stats.high_water {
            inner.stats.high_water = occ;
        }
        inner.on_push.notify();
        Ok(())
    }

    /// Removes and returns the oldest element, if any.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.borrow_mut();
        let v = inner.buf.pop_front();
        if v.is_some() {
            inner.stats.popped += 1;
            inner.on_pop.notify();
        }
        v
    }

    /// Applies `f` to the oldest element without removing it.
    pub fn peek_with<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        let inner = self.inner.borrow();
        inner.buf.front().map(f)
    }

    /// Removes all buffered elements, returning how many were dropped.
    /// Dropped elements do not count as popped.
    pub fn clear(&self) -> usize {
        let mut inner = self.inner.borrow_mut();
        let n = inner.buf.len();
        inner.buf.clear();
        if n > 0 {
            inner.on_pop.notify();
        }
        n
    }
}

impl<T: Clone> Fifo<T> {
    /// Returns a clone of the oldest element without removing it.
    pub fn peek(&self) -> Option<T> {
        self.peek_with(T::clone)
    }
}

impl<T: ToJson> Fifo<T> {
    /// Serialises buffered elements (oldest first) and lifetime stats for a
    /// checkpoint. The name and capacity are construction-time structure and
    /// are recorded only for validation on restore.
    pub fn snapshot_json(&self) -> Json {
        let inner = self.inner.borrow();
        Json::Obj(vec![
            ("elements".to_string(), inner.buf.to_json()),
            ("stats".to_string(), inner.stats.to_json()),
        ])
    }
}

impl<T: FromJson> Fifo<T> {
    /// Replaces buffered contents and stats from a checkpoint taken by
    /// [`Fifo::snapshot_json`] on an identically constructed FIFO.
    pub fn restore_json(&self, v: &Json) -> Result<(), JsonError> {
        let decoded: Vec<T> = v.field("elements")?;
        let stats: FifoStats = v.field("stats")?;
        let mut inner = self.inner.borrow_mut();
        if decoded.len() > inner.capacity {
            return Err(JsonError {
                msg: format!(
                    "fifo '{}' snapshot holds {} elements but capacity is {}",
                    inner.name,
                    decoded.len(),
                    inner.capacity
                ),
            });
        }
        inner.buf.clear();
        inner.buf.extend(decoded);
        inner.stats = stats;
        Ok(())
    }
}

impl<T> fmt::Debug for Fifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Fifo")
            .field("name", &inner.name)
            .field("len", &inner.buf.len())
            .field("capacity", &inner.capacity)
            .field("stats", &inner.stats)
            .finish()
    }
}

/// The write endpoint of a FIFO channel.
#[derive(Debug, Clone)]
pub struct Producer<T> {
    fifo: Fifo<T>,
}

impl<T> Producer<T> {
    /// True when a push would currently succeed (`tready`).
    pub fn can_push(&self) -> bool {
        !self.fifo.is_full()
    }

    /// Remaining space.
    pub fn free_space(&self) -> usize {
        self.fifo.free_space()
    }

    /// Attempts to append an element; hands it back on back-pressure.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        self.fifo.try_push(value)
    }

    /// Lifetime statistics of the underlying FIFO.
    pub fn stats(&self) -> FifoStats {
        self.fifo.stats()
    }

    /// The underlying shared handle (for monitors).
    pub fn fifo(&self) -> &Fifo<T> {
        &self.fifo
    }
}

/// The read endpoint of a FIFO channel.
#[derive(Debug, Clone)]
pub struct Consumer<T> {
    fifo: Fifo<T>,
}

impl<T> Consumer<T> {
    /// True when a pop would currently succeed (`tvalid`).
    pub fn can_pop(&self) -> bool {
        !self.fifo.is_empty()
    }

    /// Current number of buffered elements.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// True when no elements are buffered.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Removes and returns the oldest element, if any.
    pub fn pop(&self) -> Option<T> {
        self.fifo.pop()
    }

    /// Applies `f` to the oldest element without removing it.
    pub fn peek_with<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.fifo.peek_with(f)
    }

    /// Lifetime statistics of the underlying FIFO.
    pub fn stats(&self) -> FifoStats {
        self.fifo.stats()
    }

    /// The underlying shared handle (for monitors).
    pub fn fifo(&self) -> &Fifo<T> {
        &self.fifo
    }
}

impl<T: Clone> Consumer<T> {
    /// Returns a clone of the oldest element without removing it.
    pub fn peek(&self) -> Option<T> {
        self.fifo.peek()
    }
}

/// A consumer wakes on pushes: data arrived.
impl<T> WakeSource for Consumer<T> {
    fn subscribe(&self, waker: &Waker) {
        self.fifo.inner.borrow_mut().on_push.add(waker);
    }
}

/// A producer wakes on pops: space freed up.
impl<T> WakeSource for Producer<T> {
    fn subscribe(&self, waker: &Waker) {
        self.fifo.inner.borrow_mut().on_pop.add(waker);
    }
}

/// Creates a bounded FIFO channel, returning its two endpoints.
///
/// ```
/// use pdr_sim_core::fifo_channel;
///
/// let (tx, rx) = fifo_channel::<u32>("axis", 2);
/// tx.try_push(1).unwrap();
/// tx.try_push(2).unwrap();
/// assert!(tx.try_push(3).is_err()); // back-pressure
/// assert_eq!(rx.pop(), Some(1));
/// ```
pub fn fifo_channel<T>(name: &str, capacity: usize) -> (Producer<T>, Consumer<T>) {
    let fifo = Fifo::new(name, capacity);
    (Producer { fifo: fifo.clone() }, Consumer { fifo })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_preserves_fifo_order() {
        let (tx, rx) = fifo_channel::<u32>("t", 8);
        for i in 0..8 {
            tx.try_push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn full_fifo_rejects_and_counts() {
        let (tx, rx) = fifo_channel::<u32>("t", 2);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.try_push(3), Err(3));
        assert!(!tx.can_push());
        let s = tx.stats();
        assert_eq!(s.pushed, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.high_water, 2);
        assert_eq!(rx.pop(), Some(1));
        assert!(tx.can_push());
    }

    #[test]
    fn peek_does_not_consume() {
        let (tx, rx) = fifo_channel::<u32>("t", 2);
        tx.try_push(42).unwrap();
        assert_eq!(rx.peek(), Some(42));
        assert_eq!(rx.len(), 1);
        assert_eq!(rx.pop(), Some(42));
    }

    #[test]
    fn clear_drops_without_counting_pops() {
        let (tx, rx) = fifo_channel::<u32>("t", 4);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(rx.fifo().clear(), 2);
        assert!(rx.is_empty());
        assert_eq!(rx.stats().popped, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_panics() {
        let _ = Fifo::<u8>::new("bad", 0);
    }

    #[test]
    fn endpoints_share_state() {
        let (tx, rx) = fifo_channel::<&'static str>("t", 1);
        tx.try_push("x").unwrap();
        assert!(rx.can_pop());
        assert!(tx.fifo().is_full());
        rx.pop();
        assert_eq!(tx.free_space(), 1);
    }
}
