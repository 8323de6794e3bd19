//! The correctness gate: every timed op's deterministic outcome must equal
//! the one the untimed reference run pinned.

use std::fmt::Debug;

/// Mismatch messages kept for the report (the count is always exact).
const KEPT: usize = 8;

/// Tallies checked ops and records every mismatch.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    fatal: bool,
    messages: Vec<String>,
}

impl Gate {
    /// An empty gate.
    pub fn new() -> Self {
        Gate::default()
    }

    /// Checks `count` ops whose joint outcome is `got` against the pinned
    /// `want`. A mismatch counts all of them as failed.
    pub fn ops<T: PartialEq + Debug>(&mut self, what: &str, count: u64, got: &T, want: &T) -> bool {
        self.attempted += count;
        let ok = got == want;
        if !ok {
            self.failed += count;
            self.note(format!("{what}: got {got:?}, pinned {want:?}"));
        }
        ok
    }

    /// Checks one op.
    pub fn op<T: PartialEq + Debug>(&mut self, what: &str, got: &T, want: &T) -> bool {
        self.ops(what, 1, got, want)
    }

    /// Checks a run-level invariant or digest. A violation marks the whole
    /// run incorrect, whatever the op tallies say.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fatal = true;
            self.note(what());
        }
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < KEPT {
            self.messages.push(msg);
        }
    }

    /// Ops checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Ops whose outcome differed from the reference.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Share of checked ops that differed from the reference.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when no op and no invariant failed.
    pub fn passed(&self) -> bool {
        !self.fatal && self.failed == 0
    }

    /// The first mismatches seen.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_op_mismatch_is_flagged_and_counted() {
        let mut gate = Gate::new();
        assert!(gate.op(
            "row 200 MHz",
            &(671_915_000u64, true),
            &(671_915_000u64, true)
        ));
        assert!(gate.passed());
        assert!(!gate.op(
            "row 240 MHz",
            &(671_825_001u64, true),
            &(671_825_000u64, true)
        ));
        assert!(!gate.passed());
        assert_eq!((gate.attempted(), gate.failed()), (2, 1));
        assert_eq!(gate.error_rate(), 0.5);
        assert!(
            gate.messages()[0].contains("671825001"),
            "{:?}",
            gate.messages()
        );
    }

    #[test]
    fn planted_digest_mismatch_fails_the_run_without_failing_ops() {
        let mut gate = Gate::new();
        gate.ops("fleet lap", 1_010_000, &7u64, &7u64);
        gate.require(0xdead_u64 == 0xbeef_u64, || "report digest differs".into());
        assert!(!gate.passed());
        assert_eq!(gate.failed(), 0);
        assert_eq!(gate.messages(), ["report digest differs".to_string()]);
    }
}
