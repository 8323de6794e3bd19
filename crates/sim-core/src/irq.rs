//! Interrupt lines shared between hardware blocks and the processor model.
//!
//! The paper's architecture signals "end of configuration", "CRC error" and
//! per-partition status changes through interrupts to the ARM cores (Fig. 1).
//! [`IrqBus`] is a small shared fabric of level-sensitive lines: hardware
//! raises/clears a line via its [`IrqLine`] handle, and the processing-system
//! model polls pending state and acknowledges.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::json::{Json, JsonError, ToJson};
use crate::time::SimTime;
use crate::wake::{WakeSource, Waker, Watchers};

#[derive(Debug, Clone)]
struct LineState {
    name: String,
    raised: bool,
    /// Lifetime count of rising transitions.
    raise_count: u64,
    /// Time of the most recent rising transition.
    last_raised: Option<SimTime>,
    /// Woken on every level change.
    watchers: Watchers,
}

#[derive(Debug, Default)]
struct BusInner {
    lines: Vec<LineState>,
}

/// A shared interrupt fabric. Cloning the bus yields another handle to the
/// same lines.
#[derive(Clone, Default)]
pub struct IrqBus {
    inner: Rc<RefCell<BusInner>>,
}

impl IrqBus {
    /// Creates an empty interrupt bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a named line and returns its handle.
    pub fn allocate(&self, name: &str) -> IrqLine {
        let mut inner = self.inner.borrow_mut();
        let idx = inner.lines.len();
        inner.lines.push(LineState {
            name: name.to_string(),
            raised: false,
            raise_count: 0,
            last_raised: None,
            watchers: Watchers::default(),
        });
        IrqLine {
            bus: self.clone(),
            idx,
        }
    }

    /// Number of allocated lines.
    pub fn line_count(&self) -> usize {
        self.inner.borrow().lines.len()
    }

    /// True if any line is currently raised.
    pub fn any_pending(&self) -> bool {
        self.inner.borrow().lines.iter().any(|l| l.raised)
    }

    /// Names of all currently raised lines (in allocation order).
    pub fn pending(&self) -> Vec<String> {
        self.inner
            .borrow()
            .lines
            .iter()
            .filter(|l| l.raised)
            .map(|l| l.name.clone())
            .collect()
    }
}

impl fmt::Debug for IrqBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IrqBus")
            .field("lines", &self.line_count())
            .field("pending", &self.pending())
            .finish()
    }
}

/// A handle to one level-sensitive interrupt line.
#[derive(Clone)]
pub struct IrqLine {
    bus: IrqBus,
    idx: usize,
}

impl IrqLine {
    /// The line's name.
    pub fn name(&self) -> String {
        self.bus.inner.borrow().lines[self.idx].name.clone()
    }

    /// Asserts the line at instant `now`. Re-asserting an already-raised
    /// line is a no-op (level-sensitive semantics).
    pub fn raise(&self, now: SimTime) {
        let mut inner = self.bus.inner.borrow_mut();
        let line = &mut inner.lines[self.idx];
        if !line.raised {
            line.raised = true;
            line.raise_count += 1;
            line.last_raised = Some(now);
            line.watchers.notify();
        }
    }

    /// De-asserts the line (interrupt acknowledge).
    pub fn clear(&self) {
        let mut inner = self.bus.inner.borrow_mut();
        let line = &mut inner.lines[self.idx];
        if line.raised {
            line.raised = false;
            line.watchers.notify();
        }
    }

    /// Current level.
    pub fn is_raised(&self) -> bool {
        self.bus.inner.borrow().lines[self.idx].raised
    }

    /// Lifetime count of rising transitions.
    pub fn raise_count(&self) -> u64 {
        self.bus.inner.borrow().lines[self.idx].raise_count
    }

    /// Time of the most recent rising transition, if any.
    pub fn last_raised(&self) -> Option<SimTime> {
        self.bus.inner.borrow().lines[self.idx].last_raised
    }

    /// Serialises the line's level and lifetime counters for a checkpoint.
    pub fn snapshot_json(&self) -> Json {
        let inner = self.bus.inner.borrow();
        let line = &inner.lines[self.idx];
        Json::Obj(vec![
            ("raised".to_string(), line.raised.to_json()),
            ("raise_count".to_string(), line.raise_count.to_json()),
            ("last_raised".to_string(), line.last_raised.to_json()),
        ])
    }

    /// Restores the line's level and counters from a checkpoint taken by
    /// [`IrqLine::snapshot_json`].
    pub fn restore_json(&self, v: &Json) -> Result<(), JsonError> {
        let raised = v.field("raised")?;
        let raise_count = v.field("raise_count")?;
        let last_raised = v.field("last_raised")?;
        let mut inner = self.bus.inner.borrow_mut();
        let line = &mut inner.lines[self.idx];
        line.raised = raised;
        line.raise_count = raise_count;
        line.last_raised = last_raised;
        Ok(())
    }
}

/// A line wakes its listeners on every level change.
impl WakeSource for IrqLine {
    fn subscribe(&self, waker: &Waker) {
        self.bus.inner.borrow_mut().lines[self.idx]
            .watchers
            .add(waker);
    }
}

impl fmt::Debug for IrqLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IrqLine")
            .field("name", &self.name())
            .field("raised", &self.is_raised())
            .field("raise_count", &self.raise_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_clear_cycle() {
        let bus = IrqBus::new();
        let line = bus.allocate("icap_done");
        assert!(!line.is_raised());
        line.raise(SimTime::from_ps(100));
        assert!(line.is_raised());
        assert!(bus.any_pending());
        assert_eq!(bus.pending(), vec!["icap_done".to_string()]);
        line.clear();
        assert!(!line.is_raised());
        assert!(!bus.any_pending());
    }

    #[test]
    fn level_sensitive_reraise_counts_once() {
        let bus = IrqBus::new();
        let line = bus.allocate("crc_err");
        line.raise(SimTime::from_ps(10));
        line.raise(SimTime::from_ps(20)); // still high: no new transition
        assert_eq!(line.raise_count(), 1);
        assert_eq!(line.last_raised(), Some(SimTime::from_ps(10)));
        line.clear();
        line.raise(SimTime::from_ps(30));
        assert_eq!(line.raise_count(), 2);
        assert_eq!(line.last_raised(), Some(SimTime::from_ps(30)));
    }

    #[test]
    fn multiple_lines_are_independent() {
        let bus = IrqBus::new();
        let a = bus.allocate("a");
        let b = bus.allocate("b");
        a.raise(SimTime::ZERO);
        assert!(a.is_raised());
        assert!(!b.is_raised());
        assert_eq!(bus.line_count(), 2);
    }
}
