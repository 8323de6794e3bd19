//! The Clock Wizard: the runtime-programmable over-clock source.
//!
//! The paper uses the Xilinx Clocking Wizard IP to generate the over-clock
//! that drives both the DMA and the ICAP, selected at run time (by the
//! ZedBoard's switches during testing, by software in a deployed system).
//! Here the wizard wraps an engine clock domain and enforces the MMCM-like
//! output range.

use pdr_sim_core::{ClockDomainId, Engine, Frequency};

/// Programmable clock generator for the over-clock domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockWizard {
    domain: ClockDomainId,
    min: Frequency,
    max: Frequency,
    current: Frequency,
}

impl ClockWizard {
    /// Wraps `domain`, constraining programmable output to `[min, max]`
    /// (a 7-series MMCM spans roughly 4.69–800 MHz).
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or the initial frequency is outside the range.
    pub fn new(domain: ClockDomainId, initial: Frequency, min: Frequency, max: Frequency) -> Self {
        assert!(min <= max, "invalid range");
        assert!(
            (min..=max).contains(&initial),
            "initial frequency outside range"
        );
        ClockWizard {
            domain,
            min,
            max,
            current: initial,
        }
    }

    /// A 7-series-like wizard: 5–800 MHz, starting at the 100 MHz nominal.
    pub fn zynq(domain: ClockDomainId) -> Self {
        ClockWizard::new(
            domain,
            Frequency::from_mhz(100),
            Frequency::from_mhz(5),
            Frequency::from_mhz(800),
        )
    }

    /// The domain this wizard drives.
    pub fn domain(&self) -> ClockDomainId {
        self.domain
    }

    /// The currently programmed frequency.
    pub fn frequency(&self) -> Frequency {
        self.current
    }

    /// Re-programs the output frequency, taking effect on the engine
    /// immediately (the MMCM re-locks; the next edge is one new-period out).
    ///
    /// # Panics
    ///
    /// Panics if `freq` is outside the wizard's range.
    pub fn set_frequency(&mut self, engine: &mut Engine, freq: Frequency) {
        assert!(
            (self.min..=self.max).contains(&freq),
            "frequency {freq} outside wizard range {}..={}",
            self.min,
            self.max
        );
        self.current = freq;
        engine.set_clock_frequency(self.domain, freq);
    }

    /// Overwrites the remembered frequency *without* touching the engine —
    /// for checkpoint restore, where the engine's domain state (including
    /// the exact phase origin) is restored separately and must not be
    /// disturbed by a re-lock.
    pub(crate) fn restore_frequency(&mut self, freq: Frequency) -> Result<(), String> {
        if !(self.min..=self.max).contains(&freq) {
            return Err(format!(
                "restored frequency {freq} outside wizard range {}..={}",
                self.min, self.max
            ));
        }
        self.current = freq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_sim_core::SimDuration;

    #[test]
    fn programs_engine_domain() {
        let mut e = Engine::new();
        let d = e.add_clock_domain("oc", Frequency::from_mhz(100));
        let mut w = ClockWizard::zynq(d);
        w.set_frequency(&mut e, Frequency::from_mhz(280));
        assert_eq!(w.frequency(), Frequency::from_mhz(280));
        e.run_for(SimDuration::from_micros(1));
        assert_eq!(e.clock_info(d).frequency, Frequency::from_mhz(280));
        assert_eq!(e.clock_info(d).total_edges, 280);
    }

    #[test]
    #[should_panic(expected = "outside wizard range")]
    fn rejects_out_of_range() {
        let mut e = Engine::new();
        let d = e.add_clock_domain("oc", Frequency::from_mhz(100));
        let mut w = ClockWizard::zynq(d);
        w.set_frequency(&mut e, Frequency::from_mhz(900));
    }

    #[test]
    #[should_panic(expected = "initial frequency outside range")]
    fn rejects_bad_initial() {
        let mut e = Engine::new();
        let d = e.add_clock_domain("oc", Frequency::from_mhz(100));
        let _ = ClockWizard::new(
            d,
            Frequency::from_mhz(100),
            Frequency::from_mhz(200),
            Frequency::from_mhz(400),
        );
    }
}
