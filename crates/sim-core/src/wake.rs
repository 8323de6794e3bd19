//! Wake notification: the static sensitivity lists of the event-skipping
//! kernel.
//!
//! When a component is added to an [`Engine`](crate::Engine), it declares
//! through [`Component::sensitivity`](crate::Component::sensitivity) the
//! signals whose *writes* can move its [`next_wake`] earlier: the FIFO ends
//! it reads or waits on, interrupt lines, register files. A write to such a
//! signal marks the component dirty, and the engine re-polls only dirty
//! components, the members it just called and the event target — never the
//! whole component set (see `docs/KERNEL.md` §2). Reads cost nothing.
//!
//! [`next_wake`]: crate::Component::next_wake

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// The engine's dirty list: ids of the components marked since the last
/// wake refresh, each listed once.
pub(crate) type DirtyList = Rc<RefCell<Vec<u32>>>;

/// Marks one component dirty. The engine hands one to each component as it
/// is added; the signals on the component's sensitivity list keep clones.
#[derive(Clone)]
pub struct Waker {
    /// Set while `id` is on the dirty list, so it is listed once.
    mark: Rc<Cell<bool>>,
    list: DirtyList,
    id: u32,
}

impl Waker {
    /// The waker of component `id`. Grows the list to hold every component
    /// up to `id`, so a mark never allocates while the engine runs.
    pub(crate) fn new(list: &DirtyList, id: u32) -> Self {
        let mut ids = list.borrow_mut();
        let len = ids.len();
        ids.reserve((id as usize + 1).saturating_sub(len));
        Waker {
            mark: Rc::new(Cell::new(false)),
            list: Rc::clone(list),
            id,
        }
    }

    /// Marks the component dirty: the engine re-polls its wake after the
    /// current action, or at the start of the next run.
    #[inline]
    pub fn wake(&self) {
        if !self.mark.replace(true) {
            self.list.borrow_mut().push(self.id);
        }
    }

    pub(crate) fn is_marked(&self) -> bool {
        self.mark.get()
    }

    /// Clears the mark of a component taken off the dirty list.
    pub(crate) fn clear_mark(&self) {
        self.mark.set(false);
    }
}

/// The components listening to one signal, woken on every write to it.
#[derive(Clone, Default)]
pub struct Watchers(Vec<Waker>);

impl Watchers {
    /// Adds a listener.
    pub fn add(&mut self, waker: &Waker) {
        self.0.push(waker.clone());
    }

    /// Wakes every listener; called by the signal on each write.
    #[inline]
    pub fn notify(&self) {
        for waker in &self.0 {
            waker.wake();
        }
    }
}

impl fmt::Debug for Watchers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Watchers({})", self.0.len())
    }
}

/// Writes logged for a component's own use: each waker [`WakeLog::add`]
/// makes records its index here when its signal is written, once until
/// [`WakeLog::take`] hands it back. Subscribed beside the engine's waker,
/// it tells a component *which* of many sources was written.
#[derive(Default)]
pub struct WakeLog {
    list: DirtyList,
    wakers: Vec<Waker>,
}

impl WakeLog {
    /// A waker that logs the number of wakers made before it.
    pub fn add(&mut self) -> Waker {
        let waker = Waker::new(&self.list, self.wakers.len() as u32);
        self.wakers.push(waker.clone());
        waker
    }

    /// Takes one logged index, if any, re-arming its waker.
    pub fn take(&self) -> Option<usize> {
        let id = self.list.borrow_mut().pop()? as usize;
        self.wakers[id].clear_mark();
        Some(id)
    }

    /// Whether nothing was logged since the last [`WakeLog::take`] emptied it.
    pub fn is_empty(&self) -> bool {
        self.list.borrow().is_empty()
    }
}

impl fmt::Debug for WakeLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WakeLog({})", self.wakers.len())
    }
}

/// A signal a component can put on its sensitivity list.
///
/// Implemented by [`Consumer`](crate::Consumer) (woken by pushes: data
/// arrived), [`Producer`](crate::Producer) (woken by pops: space freed),
/// [`IrqLine`](crate::IrqLine) (woken by level changes) and, outside this
/// crate, by register files (woken by writes).
pub trait WakeSource {
    /// Wakes `waker`'s component on every write this end of the signal
    /// observes.
    fn subscribe(&self, waker: &Waker);
}
