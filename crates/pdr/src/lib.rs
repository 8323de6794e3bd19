//! # pdr-core
//!
//! The paper's contribution: a dynamic-partial-reconfiguration framework
//! that boosts bitstream-transfer throughput by **over-clocking the standard
//! AXI DMA and ICAP blocks**, verifies every reconfiguration with a CRC
//! read-back block, and characterises the robustness (temperature) and
//! power-efficiency of the resulting operating points.
//!
//! The crate assembles the full Fig. 2 system on the cycle-level substrate
//! crates and exposes:
//!
//! * [`ZynqPdrSystem`] — the system model: PS software driver, DRAM, AXI
//!   interconnect, over-clocked DMA + width converter + ICAP, CRC read-back,
//!   clock wizard, interrupts, power/thermal instrumentation;
//! * [`experiments`] — one typed runner per table/figure of the paper
//!   (Table I, Fig. 5, the Sec. IV-A stress matrix, Fig. 6, Table II,
//!   Table III, and the abstract's headline numbers);
//! * [`baselines`] — models of the comparison systems (VF-2012, HP-2011,
//!   HKT-2011, and the Zynq's stock PCAP);
//! * [`proposed`] — the Sec. VI next-generation design: QDR-SRAM staging,
//!   PR controller, bitstream decompressor, PS scheduler;
//! * [`scheduler`] — the multi-tenant request scheduler: admission against
//!   recovery quarantine, EDF-within-priority queueing, and a bitstream
//!   cache with QDR-style prefetch;
//! * [`fleet`] — the fleet-scale PDR-as-a-service control plane:
//!   consistent-hash placement over 1000+ simulated boards, sharded
//!   admission with work stealing, quarantine propagation, a replicated
//!   catalog cache, and a deterministic million-request traffic model,
//!   calibrated on the cycle-level system (see `docs/FLEET.md`);
//! * [`trace`] — the deterministic structured event bus and metrics layer:
//!   stamped, replayable event tapes (JSONL) plus event-derived counters,
//!   locked down by the golden-trace harness in `tests/trace.rs`.
//!
//! # Quickstart
//!
//! ```
//! use pdr_core::{SystemConfig, ZynqPdrSystem};
//! use pdr_sim_core::Frequency;
//!
//! let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
//! let bs = sys.make_partial_bitstream(0, 1);
//! let report = sys.reconfigure(0, &bs, Frequency::from_mhz(200));
//! assert!(report.crc_ok());
//! assert!(report.interrupt_seen);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod campaign;
pub mod clockwizard;
pub mod crc_readback;
pub mod executor;
pub mod experiments;
pub mod faults;
pub mod fleet;
pub mod frontpanel;
pub mod governor;
pub mod proposed;
pub mod recovery;
pub mod report;
pub mod scheduler;
pub mod sdcard;
pub mod snapshot;
pub mod system;
pub mod trace;

pub use campaign::{
    bisect_plans, run_seu_campaign, BisectOutcome, CampaignResult, CampaignRun, DistSummary,
    FaultCampaign, FaultCampaignResult, FaultOutcome, FaultRecord, MonteCarloReport, ReplicaRow,
    SeuCampaign,
};
pub use clockwizard::ClockWizard;
pub use crc_readback::CrcReadback;
pub use executor::{ParallelExecutor, THREADS_ENV};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
pub use fleet::{
    Board, Calibration, FleetConfig, FleetReport, FleetRun, PlacementRing, TrafficConfig,
    TrafficModel,
};
pub use frontpanel::{switch_frequency, FrontPanel};
pub use governor::{
    ActiveFeedback, DvfsConfig, DvfsGovernor, DvfsOperatingPoint, Governor, GovernorConfig,
    Objective, OperatingPoint,
};
pub use recovery::{PartitionHealth, RecoveryConfig, RecoveryManager, RecoveryStats};
pub use report::{CrcStatus, ReconfigError, ReconfigReport, StatsSummary, TimeoutCause};
pub use scheduler::{
    FetchModel, ReconfigRequest, RejectReason, RequestRecord, Scheduler, SchedulerConfig,
    SchedulerReport,
};
pub use sdcard::{BootReport, SdCard};
pub use system::{SystemConfig, ThermalLoopConfig, ZynqPdrSystem};
pub use trace::{TraceCounters, TraceEvent, TraceLevel, TraceRecord, TraceReport, TraceSink};
