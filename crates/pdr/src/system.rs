//! The full Fig. 2 system: PS driver, DRAM, interconnect, over-clocked
//! DMA → width converter → ICAP, CRC read-back, clock wizard, interrupts,
//! and the power/thermal instrumentation around them.

use pdr_axi::interconnect::ReadInterconnect;
use pdr_axi::stream::StreamBeat;
use pdr_axi::width::{Width64To32, Word32};
use pdr_axi::RegisterFile;
use pdr_bitstream::{Action, Bitstream, Builder, Frame, FrameAddress, Parser, FRAME_WORDS};
use pdr_dma::{AxiDma, DmaConfig, DMACR_RS, REG_DMACR, REG_LENGTH, REG_SA};
use pdr_fabric::{AspImage, AspKind, ColumnKind, ConfigMemory, Floorplan, Geometry, Partition};
use pdr_icap::{shared_config_memory, IcapController, SharedConfigMemory};
use pdr_mem::{Backing, DramConfig, DramController};
use pdr_power::{CurrentSenseMeter, PowerModel};
use pdr_sim_core::impl_json_struct;
use pdr_sim_core::json::{from_hex, to_hex, Json, JsonError, ToJson};
use pdr_sim_core::thermal::{ThermalRc, ThermalRcConfig, ThermalSample};
use pdr_sim_core::{
    ClockDomainId, ComponentId, Engine, EngineStrategy, Fifo, Frequency, IrqBus, IrqLine,
    SimDuration, SimTime, Xoshiro256StarStar,
};
use pdr_timing::{voltage_derate_mhz, DieThermal, OverclockModel, XadcSensor};

use crate::clockwizard::ClockWizard;
use crate::crc_readback::{CrcReadback, Region, CYCLES_PER_FRAME};
use crate::faults::FaultKind;
use crate::report::{CrcStatus, ReconfigError, ReconfigReport, TimeoutCause};
use crate::trace::{TraceEvent, TraceLevel, TraceSink};

/// DRAM byte address where partial bitstreams are staged (the paper copies
/// them from the SD card at boot).
pub const BITSTREAM_ADDR: u64 = 0x0010_0000;

/// Device IDCODE used by generated bitstreams (7z020-like).
pub const IDCODE: u32 = 0x0372_7093;

/// Configuration of the closed thermal–power loop (see `docs/DVFS.md`).
///
/// When [`SystemConfig::thermal_loop`] is `Some`, the system wires a
/// deterministic [`ThermalRc`] node onto the fabric clock: dissipated power
/// (dynamic switching + constant on-die share + temperature-dependent
/// leakage) drives die temperature, which in turn worsens the over-clock
/// failure envelope at the next reconfiguration — the paper's exogenous
/// temperature sweep, closed into a feedback loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalLoopConfig {
    /// Thermal integration step (work-edge spacing on the fabric clock).
    pub tick: SimDuration,
    /// RC time constant of the die + sink.
    pub tau: SimDuration,
    /// Junction-to-ambient thermal resistance, °C per watt.
    pub r_c_per_w: f64,
    /// Ambient temperature, °C.
    pub env_c: f64,
    /// Die temperature at which the thermal-alarm interrupt asserts, °C.
    pub alarm_c: f64,
    /// The alarm re-arms once the die cools this far below the threshold.
    pub hysteresis_c: f64,
    /// Constant on-die dissipation that heats the junction but is not part
    /// of the frequency-dependent PDR datapath (PS share through the die),
    /// watts.
    pub idle_die_w: f64,
    /// Record one trajectory sample every this many integration steps
    /// (0 disables the trajectory tape).
    pub sample_every_ticks: u64,
}

impl Default for ThermalLoopConfig {
    /// ZedBoard-like constants with a CI-runnable τ: 50 µs steps, τ = 5 ms
    /// (steady states match the physical board; transients are compressed),
    /// 8 °C/W into 25 °C ambient, alarm at 85 °C with 5 °C hysteresis, and
    /// one trajectory sample per millisecond.
    fn default() -> Self {
        ThermalLoopConfig {
            tick: SimDuration::from_micros(50),
            tau: SimDuration::from_millis(5),
            r_c_per_w: 8.0,
            env_c: 25.0,
            alarm_c: 85.0,
            hysteresis_c: 5.0,
            idle_die_w: 1.1,
            sample_every_ticks: 20,
        }
    }
}

/// Everything needed to build a [`ZynqPdrSystem`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Device geometry and reconfigurable partitions.
    pub floorplan: Floorplan,
    /// Fabric/interconnect clock (the plateau-setting domain).
    pub interconnect_clock: Frequency,
    /// DRAM controller clock.
    pub dram_clock: Frequency,
    /// DRAM timing.
    pub dram: DramConfig,
    /// DMA engine parameters.
    pub dma: DmaConfig,
    /// Over-clocking failure model.
    pub overclock: OverclockModel,
    /// Power model.
    pub power: PowerModel,
    /// Initial die temperature in °C.
    pub initial_die_temp_c: f64,
    /// Software driver overhead between timer start and the DMA doorbell
    /// (register writes, cache flush for the descriptor, calibrated against
    /// Table I).
    pub driver_overhead: SimDuration,
    /// Abort threshold for one reconfiguration attempt.
    pub transfer_timeout: SimDuration,
    /// Depth of the 64-bit stream FIFO between DMA and width converter
    /// (the DMA's internal data buffer; ablation A1).
    pub stream_fifo_depth: usize,
    /// Experiment seed (corruption sampling, sensor noise).
    pub seed: u64,
    /// Use noiseless instruments (exact determinism for tests).
    pub ideal_instruments: bool,
    /// Simulation kernel: the event-skipping default or the edge-by-edge
    /// tick oracle (differential testing; see `docs/KERNEL.md`).
    pub strategy: EngineStrategy,
    /// Initial PL core supply voltage, millivolts (DVFS axis; 1000 mV is
    /// the nominal point at which every model output is bitwise identical
    /// to the pre-DVFS system).
    pub vdd_mv: u32,
    /// Closed thermal–power loop; `None` (the default) keeps temperature an
    /// exogenous input exactly as before.
    pub thermal_loop: Option<ThermalLoopConfig>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            floorplan: Floorplan::zedboard_quad(),
            interconnect_clock: Frequency::from_mhz(100),
            dram_clock: Frequency::from_mhz(533),
            dram: DramConfig::ddr3_533(),
            dma: DmaConfig::default(),
            overclock: OverclockModel::paper_calibration(),
            power: PowerModel::paper_calibration(),
            initial_die_temp_c: 40.0,
            driver_overhead: SimDuration::from_nanos(3300),
            transfer_timeout: SimDuration::from_millis(40),
            stream_fifo_depth: 64,
            seed: 0xC0FFEE,
            ideal_instruments: false,
            strategy: EngineStrategy::EventSkip,
            vdd_mv: pdr_power::VDD_NOMINAL_MV,
            thermal_loop: None,
        }
    }
}

impl SystemConfig {
    /// A miniature device (two 3-column partitions of 108 frames, ~44 kB
    /// bitstreams) with ideal instruments: full-system behaviour at unit-test
    /// speed.
    pub fn fast_test() -> Self {
        let geometry = Geometry::new(2, vec![ColumnKind::Clb; 6]);
        let partitions = vec![
            Partition::new("RP1", 0, 0..3),
            Partition::new("RP2", 1, 0..3),
        ];
        SystemConfig {
            floorplan: Floorplan::new(geometry, partitions),
            ideal_instruments: true,
            ..SystemConfig::default()
        }
    }

    /// A four-partition variant of [`Self::fast_test`] — the smallest
    /// floorplan that exercises multi-tenant scheduling (one partition per
    /// row, identical shapes so bitstream sizes match across tenants).
    pub fn fast_quad() -> Self {
        let geometry = Geometry::new(4, vec![ColumnKind::Clb; 6]);
        let partitions = (0..4u32)
            .map(|r| Partition::new(&format!("RP{}", r + 1), r, 0..3))
            .collect();
        SystemConfig {
            floorplan: Floorplan::new(geometry, partitions),
            ideal_instruments: true,
            ..SystemConfig::default()
        }
    }
}

/// An active timing derate: `mhz` of margin lost until `until_ps`.
#[derive(Debug, Clone, Copy)]
struct Derate {
    mhz: f64,
    until_ps: SimTime,
}
impl_json_struct!(Derate { mhz, until_ps });

/// Configuration memory in a checkpoint: the non-zero frames and the
/// access counters.
struct ConfigMemState {
    frames: Vec<FrameHex>,
    writes: u64,
    reads: u64,
}
impl_json_struct!(ConfigMemState {
    frames,
    writes,
    reads
});

/// One non-zero configuration frame, its words as big-endian hex.
struct FrameHex {
    idx: u32,
    hex: String,
}
impl_json_struct!(FrameHex { idx, hex });

impl FrameHex {
    fn decode(&self) -> Result<(u32, Frame), JsonError> {
        let bytes = from_hex(&self.hex)?;
        if bytes.len() != FRAME_WORDS * 4 {
            return Err(JsonError {
                msg: format!(
                    "config_mem frame {}: expected {} hex chars, got {}",
                    self.idx,
                    FRAME_WORDS * 8,
                    self.hex.len()
                ),
            });
        }
        let words = bytes
            .chunks_exact(4)
            .map(|w| u32::from_be_bytes([w[0], w[1], w[2], w[3]]))
            .collect();
        Ok((self.idx, Frame::from_words(words)))
    }
}

/// The assembled system. See the [crate documentation](crate) for a
/// quickstart.
pub struct ZynqPdrSystem {
    engine: Engine,
    config: SystemConfig,
    wizard: ClockWizard,
    /// Per-partition clocks from the Clock Manager (Fig. 1's CLK 1–5).
    rp_clocks: Vec<ClockDomainId>,
    #[allow(dead_code)]
    axi_clk: ClockDomainId,
    dma_id: ComponentId,
    icap_id: ComponentId,
    readback_id: ComponentId,
    ic_id: ComponentId,
    regs: RegisterFile,
    /// Per-partition data DMAs on the HP ports (Fig. 1), with their
    /// register files and completion lines.
    rp_dmas: Vec<(ComponentId, RegisterFile, IrqLine)>,
    icap_done: IrqLine,
    dma_ioc: IrqLine,
    crc_err: IrqLine,
    backing: Backing,
    mem: SharedConfigMemory,
    /// Monitor handles for draining between runs.
    stream64: Fifo<StreamBeat>,
    words32: Fifo<Word32>,
    mem_beats: Fifo<pdr_axi::mm::ReadBeat>,
    mem_reqs: Fifo<pdr_axi::mm::ReadReq>,
    thermal: DieThermal,
    /// The closed-loop thermal node (`None` when the loop is off and
    /// [`Self::thermal`] remains the exogenous truth).
    thermal_id: Option<ComponentId>,
    thermal_alarm: IrqLine,
    /// Current PL core supply, millivolts.
    vdd_mv: u32,
    sensor: XadcSensor,
    meter: CurrentSenseMeter,
    rng: Xoshiro256StarStar,
    reconfigs: u64,
    /// Frames covered by the background monitor's registered regions.
    monitored_frames: u32,
    /// Active timing-violation burst: extra MHz of derating applied to the
    /// failure envelope until the given instant.
    derate_until: Option<Derate>,
    /// DMA stall cycles to arm on the next reconfiguration (applied after
    /// the pre-flight quiesce, which would otherwise clear them).
    pending_dma_stall: u64,
    /// Structured event bus ([`crate::trace`]); `Off` by default.
    trace: TraceSink,
}

impl ZynqPdrSystem {
    /// Builds and wires the system of Fig. 2.
    pub fn new(config: SystemConfig) -> Self {
        let mut engine = Engine::with_strategy(config.strategy);
        let axi_clk = engine.add_clock_domain("fclk-axi", config.interconnect_clock);
        let dram_clk = engine.add_clock_domain("ddr", config.dram_clock);
        let oc_clk = engine.add_clock_domain("overclock", Frequency::from_mhz(100));

        let (mut interconnect, slave) = ReadInterconnect::new("axi-mem", 4, 8);
        let (port, mep) = interconnect.add_master(64);
        // Per-partition data DMAs (Fig. 1: one DMA controller per HP port)
        // share the memory interconnect with the configuration DMA, so
        // accelerator traffic genuinely contends with reconfiguration. Their
        // ports attach before the interconnect joins the engine, which then
        // takes its sensitivity list.
        let rp_ports: Vec<_> = (0..config.floorplan.partitions().len())
            .map(|_| interconnect.add_master(64))
            .collect();
        let mem_beats = mep.beats.fifo().clone();
        let mem_reqs = mep.req.fifo().clone();

        let backing = Backing::new(16 << 20);
        let regs = RegisterFile::new();
        let irq_bus = IrqBus::new();
        let icap_done = irq_bus.allocate("icap-done");
        let dma_ioc = irq_bus.allocate("mm2s-ioc");
        let crc_err = irq_bus.allocate("crc-error");

        let (s64_tx, s64_rx) =
            pdr_sim_core::fifo_channel::<StreamBeat>("dma-axis", config.stream_fifo_depth);
        let stream64 = s64_tx.fifo().clone();
        let (w32_tx, w32_rx) = pdr_sim_core::fifo_channel::<Word32>("icap-axis", 32);
        let words32 = w32_tx.fifo().clone();

        let mem = shared_config_memory(ConfigMemory::new(config.floorplan.geometry().clone()));

        let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);

        engine.add_component(
            DramController::new("ddr3", config.dram, backing.clone(), slave),
            Some(dram_clk),
        );
        let ic_id = engine.add_component(interconnect, Some(axi_clk));
        // Over-clock domain, in pipeline order.
        let dma_id = engine.add_component(
            AxiDma::new(
                "axi-dma",
                config.dma,
                regs.clone(),
                port,
                mep,
                s64_tx,
                dma_ioc.clone(),
            ),
            Some(oc_clk),
        );
        engine.add_component(
            Width64To32::new("dwidth-64-32", s64_rx, w32_tx),
            Some(oc_clk),
        );
        let icap_id = engine.add_component(
            {
                let mut icap = IcapController::new(
                    "icap",
                    w32_rx,
                    mem.clone(),
                    icap_done.clone(),
                    rng.next_u64(),
                );
                icap.set_expected_idcode(IDCODE);
                icap
            },
            Some(oc_clk),
        );
        let readback_id = engine.add_component(
            CrcReadback::new("crc-readback", mem.clone(), crc_err.clone()),
            Some(axi_clk),
        );

        // The Clock Manager's per-partition clocks (Fig. 1: CLK 1–5): each
        // RP runs its hosted ASP at its own frequency, 100 MHz by default.
        let rp_clocks: Vec<ClockDomainId> = (0..config.floorplan.partitions().len())
            .map(|i| engine.add_clock_domain(&format!("rp{}-clk", i + 1), Frequency::from_mhz(100)))
            .collect();

        let mut rp_dmas = Vec::new();
        for (i, (rp_port, rp_mep)) in rp_ports.into_iter().enumerate() {
            let rp_regs = RegisterFile::new();
            let rp_ioc = irq_bus.allocate(&format!("rp{}-ioc", i + 1));
            let (rp_tx, rp_rx) =
                pdr_sim_core::fifo_channel::<StreamBeat>(&format!("rp{}-axis", i + 1), 64);
            let dma_id = engine.add_component(
                AxiDma::new(
                    &format!("rp{}-dma", i + 1),
                    DmaConfig::default(),
                    rp_regs.clone(),
                    rp_port,
                    rp_mep,
                    rp_tx,
                    rp_ioc.clone(),
                ),
                Some(axi_clk),
            );
            // The hosted accelerator consumes one 64-bit beat per RP-clock
            // cycle (a streaming ASP's input port).
            engine.add_component(
                pdr_sim_core::blocks::Sink::new(
                    &format!("rp{}-asp-in", i + 1),
                    rp_rx,
                    drop_beat as fn(StreamBeat),
                ),
                Some(rp_clocks[i]),
            );
            rp_dmas.push((dma_id, rp_regs, rp_ioc));
        }

        let wizard = ClockWizard::zynq(oc_clk);
        let (sensor, meter) = if config.ideal_instruments {
            (XadcSensor::ideal(), CurrentSenseMeter::ideal())
        } else {
            (XadcSensor::new(), CurrentSenseMeter::new())
        };

        // The closed thermal–power loop (opt-in): an integer RC node on the
        // always-running fabric clock. Its heater is the frequency-dependent
        // dynamic power plus the constant on-die share; static leakage is
        // derived inside the node from its own temperature (docs/DVFS.md).
        let thermal_alarm = irq_bus.allocate("thermal-alarm");
        let thermal_id = config.thermal_loop.as_ref().map(|tl| {
            let hz = config.interconnect_clock.as_hz();
            let tick_cycles =
                ((tl.tick.as_ps() as u128 * hz as u128) / 1_000_000_000_000u128) as u64;
            let node_cfg = ThermalRcConfig {
                tick_cycles,
                tau_ticks: (tl.tau.as_ps() / tl.tick.as_ps()).max(1),
                r_mc_per_w: (tl.r_c_per_w * 1000.0) as i64,
                env_mc: (tl.env_c * 1000.0) as i64,
                alarm_mc: (tl.alarm_c * 1000.0) as i64,
                hysteresis_mc: (tl.hysteresis_c * 1000.0) as i64,
                leak_ref_uw: (config.power.p_static_w_at(40.0, config.vdd_mv) * 1e6) as u64,
                sample_every_ticks: tl.sample_every_ticks,
                ..ThermalRcConfig::default()
            };
            let mut node = ThermalRc::new(
                "die-thermal",
                node_cfg,
                thermal_alarm.clone(),
                (config.initial_die_temp_c * 1000.0) as i64,
            );
            // The over-clock domain starts at 100 MHz (the wizard's reset
            // frequency); `reconfigure` re-bases the heater on every clock
            // change.
            let p_dyn = config.power.p_dynamic_w_at(100e6, config.vdd_mv);
            node.set_power_uw(((tl.idle_die_w + p_dyn) * 1e6) as u64);
            engine.add_component(node, Some(axi_clk))
        });

        ZynqPdrSystem {
            engine,
            thermal: DieThermal::zedboard(config.initial_die_temp_c),
            thermal_id,
            thermal_alarm,
            vdd_mv: config.vdd_mv,
            config,
            wizard,
            rp_clocks,
            rp_dmas,
            axi_clk,
            dma_id,
            icap_id,
            readback_id,
            ic_id,
            regs,
            icap_done,
            dma_ioc,
            crc_err,
            backing,
            mem,
            stream64,
            words32,
            mem_beats,
            mem_reqs,
            sensor,
            meter,
            rng,
            reconfigs: 0,
            monitored_frames: 0,
            derate_until: None,
            pending_dma_stall: 0,
            trace: TraceSink::new(),
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The floorplan (geometry + partitions).
    pub fn floorplan(&self) -> &Floorplan {
        &self.config.floorplan
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Direct engine access (benches and advanced scenarios).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Sets the structured-trace level (default [`TraceLevel::Off`]).
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.trace.set_level(level);
    }

    /// The structured event bus.
    pub fn tracer(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable event-bus access (reports need `&mut` for exact quantiles;
    /// `clear()` scopes a tape to a region of interest).
    pub fn tracer_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Stamps and records `event` at the current simulated time. Collaborator
    /// subsystems (recovery ladder, scheduler) emit through this so every
    /// tape shares one clock and one sequence.
    pub fn trace_emit(&mut self, event: TraceEvent) {
        let now = self.engine.now();
        self.trace.emit(now, event);
    }

    /// Current die temperature (truth, not sensor), °C. With the closed
    /// loop on, this is the RC node's integer state; otherwise the
    /// exogenous [`DieThermal`] value.
    pub fn die_temp_c(&self) -> f64 {
        match self.thermal_id {
            Some(id) => self.engine.component::<ThermalRc>(id).temp_c(),
            None => self.thermal.die_temp_c(),
        }
    }

    /// Forces the die temperature (the heat-gun + settle step of the
    /// paper's stress protocol).
    pub fn set_die_temp_c(&mut self, t: f64) {
        match self.thermal_id {
            Some(id) => self
                .engine
                .component_mut::<ThermalRc>(id)
                .force_temp_mc((t * 1000.0) as i64),
            None => self.thermal.force_die_temp(t),
        }
    }

    /// One XADC sensor reading of the die temperature.
    pub fn read_die_temp_c(&mut self) -> f64 {
        let truth = self.die_temp_c();
        self.sensor.read(truth, &mut self.rng)
    }

    /// Whether the closed thermal–power loop is wired in.
    pub fn thermal_loop_enabled(&self) -> bool {
        self.thermal_id.is_some()
    }

    /// Current PL core supply voltage, millivolts.
    pub fn vdd_mv(&self) -> u32 {
        self.vdd_mv
    }

    /// Moves the PL core supply to `vdd_mv` (the VolTune-style runtime
    /// voltage axis). Re-bases the thermal node's leakage reference and
    /// heater, and books a [`TraceEvent::DvfsSet`] with the current
    /// over-clock so the tape records every committed operating point.
    pub fn set_vdd_mv(&mut self, vdd_mv: u32) {
        self.vdd_mv = vdd_mv;
        if let Some(id) = self.thermal_id {
            let leak = (self.config.power.p_static_w_at(40.0, vdd_mv) * 1e6) as u64;
            self.engine
                .component_mut::<ThermalRc>(id)
                .set_leak_ref_uw(leak);
            self.rebase_thermal_heater();
        }
        let freq_mhz = self.wizard.frequency().as_hz() / 1_000_000;
        self.trace_emit(TraceEvent::DvfsSet {
            vdd_mv: vdd_mv as u64,
            freq_mhz,
        });
    }

    /// Points the thermal node's external heater at the current (V, f)
    /// operating point: constant on-die share plus dynamic switching power.
    fn rebase_thermal_heater(&mut self) {
        let Some(id) = self.thermal_id else { return };
        let idle_w = self
            .config
            .thermal_loop
            .as_ref()
            .expect("thermal node implies loop config")
            .idle_die_w;
        let p_dyn = self
            .config
            .power
            .p_dynamic_w_at(self.wizard.frequency().as_hz() as f64, self.vdd_mv);
        self.engine
            .component_mut::<ThermalRc>(id)
            .set_power_uw(((idle_w + p_dyn) * 1e6) as u64);
    }

    /// The thermal-alarm interrupt line (raised by the RC node when the die
    /// crosses the alarm threshold; latched with hysteresis).
    pub fn thermal_alarm_irq(&self) -> &IrqLine {
        &self.thermal_alarm
    }

    /// Polls the thermal alarm: if the line is raised, clears it, books a
    /// [`TraceEvent::ThermalAlarm`] stamped with the *current* die
    /// temperature, and returns that temperature in milli-°C. The governor
    /// calls this between settle runs.
    pub fn poll_thermal_alarm(&mut self) -> Option<i64> {
        if !self.thermal_alarm.is_raised() {
            return None;
        }
        self.thermal_alarm.clear();
        let temp_mc = match self.thermal_id {
            Some(id) => self.engine.component::<ThermalRc>(id).temp_mc(),
            None => (self.thermal.die_temp_c() * 1000.0) as i64,
        };
        self.trace_emit(TraceEvent::ThermalAlarm {
            temp_mc: temp_mc.max(0) as u64,
        });
        Some(temp_mc)
    }

    /// Applies an ambient heat-soak excursion of `delta_mc` milli-°C for
    /// `duration` (the heat-gun fault of the DVFS scenarios). With the loop
    /// on, the node's ambient rises and reverts on its own clock; with the
    /// loop off, the excursion collapses to an instantaneous die-temperature
    /// bump (the pre-loop stress-protocol approximation).
    pub fn inject_heat_soak(&mut self, delta_mc: i64, duration: SimDuration) {
        match self.thermal_id {
            Some(id) => {
                let node = self.engine.component_mut::<ThermalRc>(id);
                let tick_ps = node.config().tick_cycles * 10_000; // 100 MHz edges
                let ticks = (duration.as_ps() / tick_ps.max(1)).max(1);
                node.inject_soak_mc(delta_mc, ticks);
            }
            None => {
                let bumped = self.thermal.die_temp_c() + delta_mc as f64 / 1000.0;
                self.thermal.force_die_temp(bumped);
            }
        }
        self.trace_emit(TraceEvent::FaultInjected {
            kind: FaultKind::HeatSoak,
        });
    }

    /// The recorded thermal trajectory (empty when the loop is off or
    /// sampling is disabled).
    pub fn thermal_samples(&self) -> &[ThermalSample] {
        match self.thermal_id {
            Some(id) => self.engine.component::<ThermalRc>(id).samples(),
            None => &[],
        }
    }

    /// The thermal trajectory as a JSONL tape (the format committed under
    /// `tests/golden/`).
    pub fn thermal_trajectory_jsonl(&self) -> String {
        match self.thermal_id {
            Some(id) => self.engine.component::<ThermalRc>(id).samples_jsonl(),
            None => String::new(),
        }
    }

    /// Generates a partition-filling ASP bitstream for partition `rp`.
    ///
    /// # Panics
    ///
    /// Panics if `rp` is out of range.
    pub fn make_asp_bitstream(&self, rp: usize, kind: AspKind, seed: u32) -> Bitstream {
        let p = self.config.floorplan.partition(rp);
        let frames = p.frame_count(self.config.floorplan.geometry());
        let image = AspImage::generate(kind, seed, frames);
        let mut b = Builder::new(IDCODE);
        b.add_frames(p.start_far(), image.into_frames());
        b.build()
    }

    /// Generates a partial bitstream for partition `rp` (ASP kind derived
    /// from the seed).
    pub fn make_partial_bitstream(&self, rp: usize, seed: u32) -> Bitstream {
        let kind = AspKind::ALL[seed as usize % AspKind::ALL.len()];
        self.make_asp_bitstream(rp, kind, seed)
    }

    /// Identifies the ASP currently configured in partition `rp`.
    pub fn identify_asp(&self, rp: usize) -> Option<(AspKind, u32)> {
        let p = self.config.floorplan.partition(rp);
        AspImage::identify(&mut self.mem.borrow_mut(), p)
    }

    /// Runs the ASP configured in `rp` on `input` (behavioural execution).
    ///
    /// Returns `None` when the partition holds no valid ASP.
    pub fn execute_asp(&self, rp: usize, input: &[i64]) -> Option<Vec<i64>> {
        let (kind, seed) = self.identify_asp(rp)?;
        Some(kind.execute(seed, input))
    }

    /// The current clock frequency of partition `rp` (the Clock Manager's
    /// per-RP output).
    pub fn rp_clock(&self, rp: usize) -> Frequency {
        self.engine.clock_info(self.rp_clocks[rp]).frequency
    }

    /// Re-programs partition `rp`'s clock — "clock rate adaptable to the
    /// specific ASP timing constraint" (Sec. II). The over-clocking timing
    /// model applies to the configuration datapath, not to user logic;
    /// validating an ASP's own timing is the responsibility of its
    /// implementation flow, so any MMCM-range frequency is accepted here.
    pub fn set_rp_clock(&mut self, rp: usize, freq: Frequency) {
        self.engine.set_clock_frequency(self.rp_clocks[rp], freq);
    }

    /// Runs the ASP configured in `rp` on `input`, advancing simulated time
    /// by its streaming execution: one input element per RP-clock cycle
    /// plus a fixed dispatch overhead. Returns the output and the elapsed
    /// accelerator time.
    ///
    /// Returns `None` when the partition holds no valid ASP.
    pub fn run_asp_timed(&mut self, rp: usize, input: &[i64]) -> Option<(Vec<i64>, SimDuration)> {
        let (kind, seed) = self.identify_asp(rp)?;
        let freq = self.rp_clock(rp);
        let dispatch = SimDuration::from_micros(2); // driver call + start
        let compute = freq.cycles(input.len() as u64);
        let total = dispatch + compute;
        self.engine.run_for(total);
        Some((kind.execute(seed, input), total))
    }

    /// Starts a data transfer of `bytes` from DRAM to the accelerator in
    /// partition `rp` through its HP-port DMA (Fig. 1). The transfer shares
    /// the memory interconnect with the configuration path, so it contends
    /// with any concurrent reconfiguration — measurably (see the contention
    /// ablation).
    ///
    /// # Panics
    ///
    /// Panics if `rp` is out of range or a transfer is already in flight on
    /// that DMA.
    pub fn start_asp_dma(&mut self, rp: usize, src_addr: u32, bytes: u32) {
        let (dma_id, regs, ioc) = &self.rp_dmas[rp];
        assert!(
            !self.engine.component::<AxiDma>(*dma_id).is_busy(),
            "RP{} DMA already busy",
            rp + 1
        );
        ioc.clear();
        regs.write(pdr_dma::REG_SA, src_addr);
        regs.set_bits(pdr_dma::REG_DMACR, pdr_dma::DMACR_RS);
        regs.write(pdr_dma::REG_LENGTH, bytes);
    }

    /// True while partition `rp`'s data DMA has a transfer in flight.
    pub fn asp_dma_busy(&self, rp: usize) -> bool {
        self.engine
            .component::<AxiDma>(self.rp_dmas[rp].0)
            .is_busy()
    }

    /// Performs one dynamic partial reconfiguration of partition `rp` with
    /// `bitstream` at over-clock frequency `freq`, reproducing the paper's
    /// measurement protocol: arm the DMA, time to the completion interrupt
    /// (or record its absence), then verify the partition by CRC read-back.
    ///
    /// An empty bitstream is refused (`ReconfigError::Refused`) before any
    /// register writes — it would otherwise program a zero-length DMA
    /// descriptor whose behavior the DMA leaves undefined.
    ///
    /// # Panics
    ///
    /// Panics if `rp` is out of range or the bitstream is malformed (the
    /// *input* image must be pristine; corruption is injected in flight).
    pub fn reconfigure(
        &mut self,
        rp: usize,
        bitstream: &Bitstream,
        freq: Frequency,
    ) -> ReconfigReport {
        self.reconfigs += 1;
        // An empty bitstream used to fall through to the datapath and
        // program a zero-length DMA descriptor (REG_LENGTH = 0), whose
        // behavior the DMA leaves undefined. Refuse before any register
        // writes: nothing is staged, armed, or timed.
        if bitstream.is_empty() {
            return self.refuse_before_transfer(rp, freq.as_hz());
        }
        // The partition argument documents intent and validates the index;
        // the verified region is derived from the bitstream itself.
        let _partition = self.config.floorplan.partition(rp);
        self.trace_emit(TraceEvent::ReconfigStart {
            rp: rp as u64,
            bytes: bitstream.len() as u64,
            freq_mhz: freq.as_hz() / 1_000_000,
        });
        let die_temp = self.die_temp_c();
        // Thermal derate is non-negative; the voltage bias is signed (an
        // over-volted rail buys margin back). At nominal Vdd the bias term
        // is exactly 0.0, so legacy fixed-voltage tapes are bit-identical.
        let bias = self.active_derate_mhz() + voltage_derate_mhz(self.vdd_mv);
        let assessment = self.config.overclock.assess_biased(freq, die_temp, bias);

        // ---- Pre-flight: quiesce the pipeline from any previous failure. --
        self.engine.component_mut::<AxiDma>(self.dma_id).abort();
        self.mem_reqs.clear();
        self.engine.run_for(SimDuration::from_micros(2)); // drain in-flight bursts
        self.mem_beats.clear();
        self.stream64.clear();
        self.words32.clear();
        self.icap_done.clear();
        self.dma_ioc.clear();
        self.crc_err.clear();
        self.engine
            .component_mut::<CrcReadback>(self.readback_id)
            .set_enabled(false);

        // ---- Program the over-clock and apply its physics. ---------------
        self.wizard.set_frequency(&mut self.engine, freq);
        self.rebase_thermal_heater();
        {
            let icap = self.engine.component_mut::<IcapController>(self.icap_id);
            icap.reset();
            icap.set_word_error_rate(assessment.word_error_rate);
            icap.set_irq_functional(assessment.interrupt_ok);
        }
        self.engine
            .component_mut::<AxiDma>(self.dma_id)
            .set_irq_functional(assessment.interrupt_ok);

        // ---- Stage the bitstream and compute the golden region CRC. ------
        // Staged in little-endian word layout: the 64-bit DRAM path reads
        // little-endian, and the width converter emits the low half first.
        self.backing.write(BITSTREAM_ADDR, &bitstream.to_le_bytes());
        let (start_far, frames) = bitstream_payload(bitstream);
        let geometry = self.config.floorplan.geometry();
        let start_idx = geometry
            .frame_index(start_far)
            .expect("bitstream targets an address outside the device");
        let golden = frames_crc(&frames);

        // ---- Arm injected faults that must survive the quiesce. ----------
        if self.pending_dma_stall > 0 {
            self.engine
                .component_mut::<AxiDma>(self.dma_id)
                .inject_stall(self.pending_dma_stall);
            self.pending_dma_stall = 0;
        }

        // ---- The measured section: driver + transfer + interrupt wait. ---
        let t_start = self.engine.now();
        self.engine.run_for(self.config.driver_overhead);
        self.regs.write(REG_SA, BITSTREAM_ADDR as u32);
        self.regs.set_bits(REG_DMACR, DMACR_RS);
        self.regs.write(REG_LENGTH, bitstream.len() as u32);
        self.trace_emit(TraceEvent::DmaBurst {
            bytes: bitstream.len() as u64,
        });

        let deadline = self.engine.now() + self.config.transfer_timeout;
        let done_irq = self.icap_done.clone();
        let icap_id = self.icap_id;
        let dma_id = self.dma_id;
        let expected_transfers = self
            .engine
            .component::<AxiDma>(self.dma_id)
            .stats()
            .transfers
            + 1;
        let (_, _hit) = self.engine.run_until_condition(deadline, |e| {
            if done_irq.is_raised() {
                return true;
            }
            let st = e.component::<IcapController>(icap_id).status();
            if st.done || st.parse_error.is_some() {
                return true;
            }
            // All bytes streamed but the ICAP never completed (corrupted
            // tail): stop once the DMA reports the transfer finished.
            e.component::<AxiDma>(dma_id).stats().transfers >= expected_transfers
        });
        // Grace period: let trailing words drain through the ICAP.
        self.engine.run_for(SimDuration::from_micros(2));

        let interrupt_seen = self.icap_done.is_raised();
        let latency = if interrupt_seen {
            Some(
                self.icap_done
                    .last_raised()
                    .expect("raised line has a timestamp")
                    .duration_since(t_start),
            )
        } else {
            None
        };

        let transfer_finished = self
            .engine
            .component::<AxiDma>(self.dma_id)
            .stats()
            .transfers
            >= expected_transfers;

        // ---- CRC read-back verification of the partition. ----------------
        let crc = self.verify_region(start_idx, frames.len() as u32, golden);

        // ---- Instrument readings. -----------------------------------------
        let p_board = self
            .config
            .power
            .p_board_w_at(freq.as_hz() as f64, die_temp, self.vdd_mv);
        let p_pdr = self.meter.read_w(p_board, &mut self.rng) - self.config.power.p0_board_w();
        let icap_status = self
            .engine
            .component::<IcapController>(self.icap_id)
            .status()
            .clone();

        // ---- Failure classification (the watchdog verdict). --------------
        let refused = (icap_status.parse_error.is_some() || icap_status.idcode_mismatch)
            && icap_status.frames_written == 0
            && icap_status.corrupted_words == 0;
        let error = if refused {
            Some(ReconfigError::Refused)
        } else if !interrupt_seen && !transfer_finished && !icap_status.done {
            Some(ReconfigError::Timeout(TimeoutCause::StillInFlight))
        } else if crc == CrcStatus::Invalid {
            Some(ReconfigError::CrcMismatch)
        } else if !interrupt_seen {
            Some(ReconfigError::Timeout(TimeoutCause::InterruptLost))
        } else {
            None
        };

        self.trace_emit(TraceEvent::ReconfigDone {
            rp: rp as u64,
            ok: error.is_none(),
            latency_ps: latency.map_or(0, |l| l.as_ps()),
        });

        ReconfigReport {
            frequency_hz: freq.as_hz(),
            die_temp_c: self.sensor.read(die_temp, &mut self.rng),
            bitstream_bytes: bitstream.len() as u64,
            latency,
            interrupt_seen,
            crc,
            stream_crc_ok: icap_status.stream_crc_ok,
            frames_written: icap_status.frames_written,
            corrupted_words: icap_status.corrupted_words,
            p_pdr_w: p_pdr,
            energy_j: latency.map(|l| p_pdr * l.as_secs_f64()),
            error,
        }
    }

    /// Builds the report for a request refused *before* the transfer was
    /// armed: no registers written, no bytes staged, no latency measured.
    /// The instruments are still sampled so the report carries a plausible
    /// (finite) temperature and power reading.
    fn refuse_before_transfer(&mut self, rp: usize, frequency_hz: u64) -> ReconfigReport {
        let _partition = self.config.floorplan.partition(rp); // validate index
                                                              // A refused attempt still books one Start/Done pair, so the tape
                                                              // invariant `reconfig_started == reconfig_ok + reconfig_failed`
                                                              // holds for every path through the driver.
        self.trace_emit(TraceEvent::ReconfigStart {
            rp: rp as u64,
            bytes: 0,
            freq_mhz: frequency_hz / 1_000_000,
        });
        self.trace_emit(TraceEvent::ReconfigDone {
            rp: rp as u64,
            ok: false,
            latency_ps: 0,
        });
        let die_temp = self.die_temp_c();
        // No transfer ran, so the PL contribution is the idle share (as on
        // the PCAP path, which also drives no over-clocked datapath).
        let p_board = self.config.power.p_board_w_at(0.0, die_temp, self.vdd_mv);
        let p_pdr = self.meter.read_w(p_board, &mut self.rng) - self.config.power.p0_board_w();
        ReconfigReport {
            frequency_hz,
            die_temp_c: self.sensor.read(die_temp, &mut self.rng),
            bitstream_bytes: 0,
            latency: None,
            interrupt_seen: false,
            crc: CrcStatus::NotChecked,
            stream_crc_ok: None,
            frames_written: 0,
            corrupted_words: 0,
            p_pdr_w: p_pdr,
            energy_j: None,
            error: Some(ReconfigError::Refused),
        }
    }

    /// Runs one CRC read-back scan of a frame region against `golden`.
    fn verify_region(&mut self, start_idx: u32, frame_count: u32, golden: u32) -> CrcStatus {
        if frame_count == 0 {
            return CrcStatus::NotChecked;
        }
        {
            let rb = self.engine.component_mut::<CrcReadback>(self.readback_id);
            rb.set_region(
                0,
                Region {
                    start_idx,
                    frames: frame_count,
                    golden,
                },
            );
            rb.set_enabled(true);
        }
        let cycles = (frame_count as u64 + 2) * CYCLES_PER_FRAME as u64;
        let scan_time = SimDuration::from_secs_f64(
            cycles as f64 / self.config.interconnect_clock.as_hz() as f64 * 1.2,
        );
        let readback_id = self.readback_id;
        let deadline = self.engine.now() + scan_time;
        let (_, hit) = self.engine.run_until_condition(deadline, |e| {
            e.component::<CrcReadback>(readback_id).result(0).scans >= 1
        });
        let result = self
            .engine
            .component::<CrcReadback>(self.readback_id)
            .result(0);
        self.engine
            .component_mut::<CrcReadback>(self.readback_id)
            .set_enabled(false);
        if !hit {
            return CrcStatus::NotChecked;
        }
        let status = match result.last_ok {
            Some(true) => CrcStatus::Valid,
            Some(false) => CrcStatus::Invalid,
            None => CrcStatus::NotChecked,
        };
        let frames = frame_count as u64;
        match status {
            CrcStatus::Valid => self.trace_emit(TraceEvent::CrcPass { frames }),
            CrcStatus::Invalid => self.trace_emit(TraceEvent::CrcFail { frames }),
            CrcStatus::NotChecked => {}
        }
        status
    }

    /// Boots from an SD card (Fig. 4): stages every bitstream file into
    /// DRAM, charging simulated time per file, and returns the catalog of
    /// staged addresses. Staging happens once; subsequent reconfigurations
    /// run from DRAM at full speed.
    ///
    /// Read time is charged on the bytes the card actually stores, so a
    /// [compressed card](crate::sdcard::SdCard::with_compression) boots
    /// faster; the image is expanded on the way into DRAM, and the report
    /// always records raw (staged) byte counts.
    pub fn boot_from_sd(&mut self, card: &crate::sdcard::SdCard) -> crate::sdcard::BootReport {
        let mut files = Vec::new();
        let mut total = SimDuration::ZERO;
        let mut addr = BITSTREAM_ADDR;
        for (name, bs) in card.iter() {
            let dt = card
                .read_time_for(name)
                .expect("iterating a file the card holds");
            self.engine.run_for(dt);
            self.backing.write(addr, &bs.to_le_bytes());
            let stored = card
                .stored_bytes(name)
                .expect("iterating a file the card holds");
            self.trace_emit(TraceEvent::SdFileStaged {
                raw_bytes: bs.len() as u64,
                stored_bytes: stored,
            });
            files.push((name.to_string(), bs.len() as u64, dt));
            total += dt;
            addr += (bs.len() as u64).next_multiple_of(4096);
        }
        crate::sdcard::BootReport { files, total }
    }

    /// Reconfigures partition `rp` through the **PCAP** — the Zynq's stock
    /// processor-driven configuration path, requiring no PL logic. The PCAP
    /// sustains ~145 MB/s regardless of the PL over-clock, which is the
    /// baseline the paper's ICAP architecture beats by >5×.
    ///
    /// An empty bitstream is refused before the PCAP is touched, matching
    /// [`Self::reconfigure`].
    ///
    /// # Panics
    ///
    /// Panics if `rp` is out of range or the bitstream is malformed.
    pub fn reconfigure_pcap(&mut self, rp: usize, bitstream: &Bitstream) -> ReconfigReport {
        self.reconfigs += 1;
        // Same contract as `reconfigure`: an empty image is refused before
        // the PCAP is touched (frequency 0 marks the PS-driven path).
        if bitstream.is_empty() {
            return self.refuse_before_transfer(rp, 0);
        }
        let _partition = self.config.floorplan.partition(rp);
        self.trace_emit(TraceEvent::ReconfigStart {
            rp: rp as u64,
            bytes: bitstream.len() as u64,
            freq_mhz: 0, // the PS-driven PCAP path has no over-clock
        });
        let die_temp = self.die_temp_c();
        self.engine
            .component_mut::<CrcReadback>(self.readback_id)
            .set_enabled(false);

        let (start_far, frames) = bitstream_payload(bitstream);
        let geometry = self.config.floorplan.geometry();
        let start_idx = geometry
            .frame_index(start_far)
            .expect("bitstream targets an address outside the device");
        let golden = frames_crc(&frames);

        let t_start = self.engine.now();
        self.engine.run_for(self.config.driver_overhead);
        let transfer = SimDuration::from_secs_f64(
            bitstream.len() as f64 / (crate::baselines::Pcap::THROUGHPUT_MB_S * 1e6),
        );
        self.engine.run_for(transfer);
        // The PCAP writes configuration memory directly (no over-clocked
        // datapath, hence no corruption physics).
        {
            let mut mem = self.mem.borrow_mut();
            for (i, f) in frames.iter().enumerate() {
                let ok = mem.write_burst_frame(start_far, i as u32, f.clone());
                debug_assert!(ok, "PCAP frame write out of device");
            }
        }
        let latency = self.engine.now().duration_since(t_start);
        let crc = self.verify_region(start_idx, frames.len() as u32, golden);

        // No PL clocking involved: P_PDR is the static share plus the PS
        // doing programmed I/O.
        let p_board = self.config.power.p_board_w_at(0.0, die_temp, self.vdd_mv);
        let p_pdr = self.meter.read_w(p_board, &mut self.rng) - self.config.power.p0_board_w();
        self.trace_emit(TraceEvent::ReconfigDone {
            rp: rp as u64,
            ok: crc != CrcStatus::Invalid,
            latency_ps: latency.as_ps(),
        });
        ReconfigReport {
            frequency_hz: 0,
            die_temp_c: self.sensor.read(die_temp, &mut self.rng),
            bitstream_bytes: bitstream.len() as u64,
            latency: Some(latency),
            interrupt_seen: true, // PCAP completion is PS-observed
            crc,
            stream_crc_ok: None,
            frames_written: frames.len() as u64,
            corrupted_words: 0,
            p_pdr_w: p_pdr,
            energy_j: Some(p_pdr * latency.as_secs_f64()),
            error: (crc == CrcStatus::Invalid).then_some(ReconfigError::CrcMismatch),
        }
    }

    /// The CRC-error interrupt line (for SEU-monitoring scenarios).
    pub fn crc_error_irq(&self) -> &IrqLine {
        &self.crc_err
    }

    /// Starts the background CRC read-back monitor over the given
    /// partitions, taking the *current* configuration-memory content as
    /// golden. Scans run round-robin until the next reconfiguration (which
    /// pauses the monitor) or another call to this method.
    ///
    /// # Panics
    ///
    /// Panics if `rps` is empty or an index is out of range.
    pub fn start_background_monitor(&mut self, rps: &[usize]) {
        assert!(!rps.is_empty(), "monitor needs at least one partition");
        let geometry = self.config.floorplan.geometry().clone();
        let mut frames_total = 0;
        let regions: Vec<Region> = rps
            .iter()
            .map(|&rp| {
                let p = self.config.floorplan.partition(rp);
                let start_idx = p.start_index(&geometry);
                let frames = p.frame_count(&geometry);
                frames_total += frames;
                let golden = self.mem.borrow().range_crc(start_idx, frames);
                Region {
                    start_idx,
                    frames,
                    golden,
                }
            })
            .collect();
        let rb = self.engine.component_mut::<CrcReadback>(self.readback_id);
        for (slot, region) in regions.into_iter().enumerate() {
            rb.set_region(slot, region);
        }
        rb.set_enabled(true);
        self.monitored_frames = frames_total;
        self.crc_err.clear();
    }

    /// Duration of one full monitor sweep over all registered partitions.
    pub fn monitor_scan_period(&self) -> SimDuration {
        let cycles = self.monitored_frames as u64 * CYCLES_PER_FRAME as u64;
        SimDuration::from_secs_f64(cycles as f64 / self.config.interconnect_clock.as_hz() as f64)
    }

    /// Lets the system (and its background monitor) run for `d`.
    pub fn run_monitor_for(&mut self, d: SimDuration) {
        self.engine.run_for(d);
    }

    /// Runs until the CRC-error interrupt fires, returning the detection
    /// latency, or `None` if `max_wait` elapses first.
    pub fn run_monitor_until_alarm(&mut self, max_wait: SimDuration) -> Option<SimDuration> {
        let t0 = self.engine.now();
        let deadline = t0 + max_wait;
        let alarm = self.crc_err.clone();
        let (_, hit) = self
            .engine
            .run_until_condition(deadline, |_| alarm.is_raised());
        let latency = hit.then(|| {
            let raised = self
                .crc_err
                .last_raised()
                .expect("raised line has a timestamp");
            // An alarm that was already pending when the wait began reports
            // zero latency instead of a backwards time span.
            raised.max(t0).duration_since(t0)
        });
        if let Some(l) = latency {
            self.trace_emit(TraceEvent::CrcAlarm {
                latency_ps: l.as_ps(),
            });
        }
        latency
    }

    /// Injects a single-event upset at an arbitrary frame address (static
    /// region included).
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the device.
    pub fn inject_static_seu(&mut self, far: FrameAddress, word: usize, bit: u32) {
        let ok = self.mem.borrow_mut().inject_bit_flip(far, word, bit);
        assert!(ok, "SEU address outside device");
        self.trace_emit(TraceEvent::FaultInjected {
            kind: FaultKind::Seu,
        });
    }

    /// Injects a single-event upset: flips `bit` of `word` in the frame
    /// `frame_offset` frames into partition `rp`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn inject_seu(&mut self, rp: usize, frame_offset: u32, word: usize, bit: u32) {
        let geometry = self.config.floorplan.geometry();
        let p = self.config.floorplan.partition(rp);
        assert!(
            frame_offset < p.frame_count(geometry),
            "frame offset outside partition"
        );
        let far = geometry.far_at(p.start_index(geometry) + frame_offset);
        let ok = self.mem.borrow_mut().inject_bit_flip(far, word, bit);
        assert!(ok, "SEU coordinates outside device");
        self.trace_emit(TraceEvent::FaultInjected {
            kind: FaultKind::Seu,
        });
    }

    /// Starts a transient timing-violation burst: for `duration` from now,
    /// every over-clock assessment sees its failure envelope shrunk by
    /// `derate_mhz` on both paths (a local die-temperature excursion or
    /// voltage droop). A new burst replaces any active one.
    ///
    /// # Panics
    ///
    /// Panics if `derate_mhz` is negative or non-finite.
    pub fn inject_timing_burst(&mut self, derate_mhz: f64, duration: SimDuration) {
        assert!(
            derate_mhz >= 0.0 && derate_mhz.is_finite(),
            "derate must be a finite non-negative MHz value: {derate_mhz}"
        );
        self.derate_until = Some(Derate {
            mhz: derate_mhz,
            until_ps: self.engine.now() + duration,
        });
        self.trace_emit(TraceEvent::FaultInjected {
            kind: FaultKind::TimingBurst,
        });
    }

    /// The derating currently in force (0 when no burst is active). Expired
    /// bursts are dropped lazily.
    pub fn active_derate_mhz(&mut self) -> f64 {
        match self.derate_until {
            Some(d) if self.engine.now() < d.until_ps => d.mhz,
            Some(_) => {
                self.derate_until = None;
                0.0
            }
            None => 0.0,
        }
    }

    /// Arms a configuration-DMA stall of `cycles` over-clock cycles for the
    /// *next* reconfiguration attempt (injected after the driver's
    /// pre-flight quiesce so the quiesce cannot clear it). Stalls
    /// accumulate until consumed.
    pub fn inject_dma_stall(&mut self, cycles: u64) {
        self.pending_dma_stall = self.pending_dma_stall.saturating_add(cycles);
        self.trace_emit(TraceEvent::FaultInjected {
            kind: FaultKind::DmaStall,
        });
    }

    /// Arms a one-shot dropped completion interrupt: the next ICAP done
    /// interrupt is swallowed even though the transfer itself completes
    /// (an interrupt-controller glitch, distinct from the 310 MHz dead
    /// interrupt path).
    pub fn drop_next_completion_irq(&mut self) {
        self.engine
            .component_mut::<IcapController>(self.icap_id)
            .drop_next_done_irq();
        self.trace_emit(TraceEvent::FaultInjected {
            kind: FaultKind::DroppedIrq,
        });
    }

    /// True when configuration memory holds exactly `bitstream`'s frames at
    /// their target address (golden-CRC comparison) — the offline check a
    /// campaign uses to prove no corruption slipped past the read-back.
    ///
    /// # Panics
    ///
    /// Panics if the bitstream is malformed or targets an address outside
    /// the device.
    pub fn fabric_matches(&self, bitstream: &Bitstream) -> bool {
        let (start_far, frames) = bitstream_payload(bitstream);
        let geometry = self.config.floorplan.geometry();
        let start_idx = geometry
            .frame_index(start_far)
            .expect("bitstream targets an address outside the device");
        let actual = self.mem.borrow().range_crc(start_idx, frames.len() as u32);
        actual == frames_crc(&frames)
    }

    /// The DMA IOC interrupt line.
    pub fn dma_ioc_irq(&self) -> &IrqLine {
        &self.dma_ioc
    }

    /// Interconnect statistics (for ablation studies).
    pub fn interconnect_stats(&self) -> pdr_axi::interconnect::InterconnectStats {
        self.engine
            .component::<ReadInterconnect>(self.ic_id)
            .stats()
    }

    /// Lifetime reconfiguration count.
    pub fn reconfig_count(&self) -> u64 {
        self.reconfigs
    }

    /// Serializes every piece of dynamic system state: the engine (clocks,
    /// event queues, and all component state via their
    /// [`pdr_sim_core::Component`] snapshot hooks), DRAM backing store,
    /// configuration memory,
    /// over-clock frequency, thermal state, the system RNG, fault-injection
    /// arming, and the trace sink.
    ///
    /// Restoring this object onto a freshly built system with the *same*
    /// [`SystemConfig`] (see [`Self::restore_json`]) yields a run that is
    /// byte-identical to one that never stopped. Structural configuration
    /// is deliberately *not* serialized — the construction code is the
    /// single source of truth for topology.
    pub fn snapshot_json(&self) -> Json {
        let mem = self.mem.borrow();
        let config_mem = ConfigMemState {
            frames: mem
                .nonzero_frames()
                .into_iter()
                .map(|(idx, frame)| FrameHex {
                    idx,
                    hex: to_hex(frame.words().iter().flat_map(|w| w.to_be_bytes())),
                })
                .collect(),
            writes: mem.write_count(),
            reads: mem.read_count(),
        };
        Json::Obj(vec![
            ("engine".into(), self.engine.snapshot()),
            ("backing".into(), self.backing.snapshot_json()),
            ("config_mem".into(), config_mem.to_json()),
            ("overclock_hz".into(), self.wizard.frequency().to_json()),
            ("die_c".into(), Json::F64(self.thermal.die_temp_c())),
            ("env_c".into(), Json::F64(self.thermal.env_temp_c())),
            ("rng".into(), self.rng.to_json()),
            ("reconfigs".into(), Json::U64(self.reconfigs)),
            ("monitored_frames".into(), self.monitored_frames.to_json()),
            ("derate".into(), self.derate_until.to_json()),
            (
                "pending_dma_stall".into(),
                Json::U64(self.pending_dma_stall),
            ),
            ("vdd_mv".into(), self.vdd_mv.to_json()),
            ("trace".into(), self.trace.to_json()),
        ])
    }

    /// Overlays a [`Self::snapshot_json`] object onto this system.
    ///
    /// The receiver must be freshly constructed from the *same*
    /// [`SystemConfig`] that produced the snapshot (same floorplan, seeds,
    /// and engine strategy) — the engine restore validates the component
    /// structure and rejects mismatches before any state is mutated.
    pub fn restore_json(&mut self, json: &Json) -> Result<(), JsonError> {
        // The engine restore validates clock-domain and component structure
        // against the snapshot before touching any component, so a snapshot
        // from a different floorplan fails here without partial mutation.
        self.engine.restore(json.required("engine")?)?;
        self.backing.restore_json(json.required("backing")?)?;

        let cm: ConfigMemState = json.field("config_mem")?;
        let frames = cm
            .frames
            .iter()
            .map(FrameHex::decode)
            .collect::<Result<Vec<_>, _>>()?;
        self.mem
            .borrow_mut()
            .restore_parts(&frames, cm.writes, cm.reads)
            .map_err(|msg| JsonError { msg })?;
        self.wizard
            .restore_frequency(json.field("overclock_hz")?)
            .map_err(|msg| JsonError { msg })?;
        let die_c = json.field("die_c")?;
        self.thermal.set_env_temp(json.field("env_c")?);
        self.thermal.force_die_temp(die_c);
        self.rng = json.field("rng")?;
        self.reconfigs = json.field("reconfigs")?;
        self.monitored_frames = json.field("monitored_frames")?;
        self.derate_until = json.field("derate")?;
        self.pending_dma_stall = json.field("pending_dma_stall")?;
        // Snapshots written before the voltage axis existed carry no
        // `vdd_mv`; keep the constructed value (nominal) in that case.
        if json.get("vdd_mv").is_some() {
            self.vdd_mv = json.field("vdd_mv")?;
        }
        self.trace = json.field("trace")?;
        Ok(())
    }
}

impl std::fmt::Debug for ZynqPdrSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZynqPdrSystem")
            .field("now", &self.engine.now())
            .field("overclock", &self.wizard.frequency())
            .field("die_temp_c", &self.thermal.die_temp_c())
            .field("reconfigs", &self.reconfigs)
            .finish()
    }
}

/// Discards an accelerator input beat (the behavioural ASPs compute from
/// software-visible inputs; the stream models bus occupancy).
fn drop_beat(_beat: StreamBeat) {}

/// Extracts the frame payload (start FAR + frames) of a well-formed partial
/// bitstream by running the parser offline.
///
/// # Panics
///
/// Panics on a malformed bitstream — generator bugs must fail loudly.
pub fn bitstream_payload(bs: &Bitstream) -> (FrameAddress, Vec<Frame>) {
    let actions = Parser::parse_all(bs.words()).expect("input bitstream must be well-formed");
    let mut start = None;
    let mut frames = Vec::new();
    for a in actions {
        match a {
            Action::SetFar(far) if start.is_none() => start = Some(far),
            Action::WriteFrame { data, .. } => frames.push(data),
            _ => {}
        }
    }
    (start.expect("bitstream sets no frame address"), frames)
}

/// CRC-32 (IEEE) over a frame sequence — the golden value a clean read-back
/// must reproduce.
pub fn frames_crc(frames: &[Frame]) -> u32 {
    let mut crc = pdr_bitstream::Crc32::ieee();
    for f in frames {
        for &w in f.words() {
            crc.update_word(w);
        }
    }
    crc.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_sim_core::json::ToJson;

    fn mhz(m: u64) -> Frequency {
        Frequency::from_mhz(m)
    }

    #[test]
    fn nominal_reconfiguration_succeeds() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 7);
        let r = sys.reconfigure(0, &bs, mhz(100));
        assert!(r.interrupt_seen, "report: {r:?}");
        assert!(r.crc_ok());
        assert_eq!(r.stream_crc_ok, Some(true));
        assert_eq!(r.frames_written, 108);
        assert_eq!(r.corrupted_words, 0);
        let t = r.throughput_mb_s().unwrap();
        // 4 B/cycle at 100 MHz ≈ 400 MB/s minus overheads.
        assert!((330.0..=400.0).contains(&t), "throughput {t}");
        assert_eq!(sys.identify_asp(0), Some((AspKind::Fir16, 7)));
    }

    #[test]
    fn overclocked_200mhz_roughly_doubles_throughput() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::AesMix, 1);
        let r100 = sys.reconfigure(0, &bs, mhz(100));
        let r200 = sys.reconfigure(0, &bs, mhz(200));
        let (t100, t200) = (
            r100.throughput_mb_s().unwrap(),
            r200.throughput_mb_s().unwrap(),
        );
        assert!(r200.crc_ok());
        let gain = t200 / t100;
        assert!(
            (1.6..=2.1).contains(&gain),
            "gain {gain} (t100={t100} t200={t200})"
        );
    }

    #[test]
    fn at_310mhz_no_interrupt_but_crc_valid() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::MatMul8, 2);
        let r = sys.reconfigure(0, &bs, mhz(310));
        assert!(!r.interrupt_seen, "interrupt path must be dead at 310 MHz");
        assert_eq!(r.latency, None);
        assert!(r.crc_ok(), "data path is healthy at 40 °C: {r:?}");
    }

    #[test]
    fn at_320mhz_crc_not_valid() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 3);
        let r = sys.reconfigure(0, &bs, mhz(320));
        assert!(!r.interrupt_seen);
        assert!(!r.crc_ok(), "320 MHz corrupts the transfer: {r:?}");
        assert!(r.corrupted_words > 0);
    }

    #[test]
    fn stress_cell_310mhz_100c_fails() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        sys.set_die_temp_c(100.0);
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 4);
        let r = sys.reconfigure(0, &bs, mhz(310));
        assert!(!r.crc_ok(), "the paper's single failing stress cell");
        // And the same frequency at 90 °C still verifies.
        sys.set_die_temp_c(90.0);
        let r = sys.reconfigure(0, &bs, mhz(310));
        assert!(r.crc_ok(), "{r:?}");
    }

    #[test]
    fn failed_run_does_not_poison_the_next() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::AesMix, 5);
        let bad = sys.reconfigure(0, &bs, mhz(360));
        assert!(!bad.crc_ok());
        let good = sys.reconfigure(0, &bs, mhz(140));
        assert!(good.crc_ok(), "{good:?}");
        assert!(good.interrupt_seen);
    }

    #[test]
    fn asp_swaps_between_partitions_execute() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let fir = sys.make_asp_bitstream(0, AspKind::Fir16, 11);
        let mat = sys.make_asp_bitstream(1, AspKind::MatMul8, 12);
        assert!(sys.reconfigure(0, &fir, mhz(200)).crc_ok());
        assert!(sys.reconfigure(1, &mat, mhz(200)).crc_ok());
        let y = sys.execute_asp(0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(y.len(), 4);
        let z = sys.execute_asp(1, &[1; 64]).unwrap();
        assert_eq!(z.len(), 64);
        // Swapping RP0 to a different ASP leaves RP1 intact.
        let aes = sys.make_asp_bitstream(0, AspKind::AesMix, 13);
        assert!(sys.reconfigure(0, &aes, mhz(200)).crc_ok());
        assert_eq!(sys.identify_asp(0), Some((AspKind::AesMix, 13)));
        assert_eq!(sys.identify_asp(1), Some((AspKind::MatMul8, 12)));
    }

    #[test]
    fn power_reading_tracks_frequency() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 6);
        let r100 = sys.reconfigure(0, &bs, mhz(100));
        let r280 = sys.reconfigure(0, &bs, mhz(280));
        assert!(r280.p_pdr_w > r100.p_pdr_w);
        assert!((r100.p_pdr_w - 1.15).abs() < 0.05, "{}", r100.p_pdr_w);
    }

    #[test]
    fn per_rp_clocks_scale_asp_execution_time() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 5);
        assert!(sys.reconfigure(0, &bs, mhz(200)).crc_ok());
        assert_eq!(sys.rp_clock(0), Frequency::from_mhz(100));
        let input = vec![1i64; 10_000];
        let (_, slow) = sys.run_asp_timed(0, &input).expect("configured");
        // Double the RP clock: the streaming phase halves.
        sys.set_rp_clock(0, mhz(200));
        let (out, fast) = sys.run_asp_timed(0, &input).expect("configured");
        assert_eq!(out.len(), input.len());
        let (s, f) = (slow.as_micros_f64(), fast.as_micros_f64());
        // slow = 2 + 100 µs; fast = 2 + 50 µs.
        assert!((s - 102.0).abs() < 0.5, "slow={s}");
        assert!((f - 52.0).abs() < 0.5, "fast={f}");
        // Unconfigured partitions run nothing.
        assert!(sys.run_asp_timed(1, &input).is_none());
    }

    #[test]
    fn accelerator_traffic_contends_with_reconfiguration() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 5);
        // Quiet baseline at a plateau frequency.
        let quiet = sys.reconfigure(0, &bs, mhz(280));
        let t_quiet = quiet.throughput_mb_s().expect("interrupts");
        // Start a large accelerator transfer on RP2's HP-port DMA, then
        // reconfigure RP1 concurrently.
        sys.start_asp_dma(1, 0x40_0000, 4_000_000);
        sys.engine_mut().run_for(SimDuration::from_micros(1)); // DMA arms
        assert!(sys.asp_dma_busy(1));
        let busy = sys.reconfigure(0, &bs, mhz(280));
        assert!(busy.crc_ok(), "contention must not corrupt: {busy:?}");
        let t_busy = busy.throughput_mb_s().expect("interrupts");
        // Round-robin arbitration: roughly half the memory bandwidth.
        assert!(
            t_busy < 0.65 * t_quiet,
            "expected visible contention: quiet {t_quiet:.1} vs busy {t_busy:.1}"
        );
        assert!(t_busy > 0.35 * t_quiet, "but not starvation: {t_busy:.1}");
    }

    #[test]
    fn asp_dma_completes_and_interrupts() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        sys.start_asp_dma(0, 0x10_0000, 64 * 1024);
        // 64 kB at ≤ 800 MB/s (shared port) ≈ 82 µs; allow slack.
        sys.engine_mut().run_for(SimDuration::from_micros(400));
        assert!(!sys.asp_dma_busy(0));
    }

    #[test]
    fn pcap_path_configures_slowly_but_safely() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::MatMul8, 8);
        let pcap = sys.reconfigure_pcap(0, &bs);
        assert!(pcap.crc_ok());
        assert!(pcap.interrupt_seen);
        let t_pcap = pcap.throughput_mb_s().expect("PCAP completes");
        assert!((140.0..=146.0).contains(&t_pcap), "t={t_pcap}");
        assert_eq!(sys.identify_asp(0), Some((AspKind::MatMul8, 8)));
        // The over-clocked ICAP at 200 MHz beats it by >5x.
        let icap = sys.reconfigure(0, &bs, mhz(200));
        let t_icap = icap.throughput_mb_s().expect("ICAP completes");
        assert!(t_icap / t_pcap > 4.5, "icap {t_icap} vs pcap {t_pcap}");
        // And PCAP burns less PDR power (no PL clock).
        assert!(pcap.p_pdr_w < icap.p_pdr_w);
    }

    #[test]
    fn wrong_idcode_bitstream_is_refused() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        // A bitstream built for a *different* device id.
        let p = sys.floorplan().partition(0).clone();
        let frames =
            AspImage::generate(AspKind::Fir16, 1, p.frame_count(sys.floorplan().geometry()));
        let mut b = Builder::new(IDCODE ^ 0xFFFF);
        b.add_frames(p.start_far(), frames.into_frames());
        let bs = b.build();
        let r = sys.reconfigure(0, &bs, mhz(100));
        assert!(!r.crc_ok(), "foreign bitstream must not configure: {r:?}");
        assert_eq!(r.frames_written, 0, "config logic refused all frames");
        assert!(!r.interrupt_seen);
        // The right-id image still works afterwards.
        let good = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
        assert!(sys.reconfigure(0, &good, mhz(100)).crc_ok());
    }

    #[test]
    fn sd_boot_stages_files_and_charges_time() {
        use crate::sdcard::SdCard;
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let mut card = SdCard::class10();
        card.store("rp1.bit", sys.make_asp_bitstream(0, AspKind::Fir16, 1));
        card.store("rp2.bit", sys.make_asp_bitstream(1, AspKind::AesMix, 2));
        let t0 = sys.now();
        let boot = sys.boot_from_sd(&card);
        assert_eq!(boot.files.len(), 2);
        assert_eq!(sys.now().duration_since(t0), boot.total);
        // Two ~44 kB files at 19 MB/s + 2 ms each ≈ 8.6 ms.
        let ms = boot.total.as_secs_f64() * 1e3;
        assert!((7.0..=11.0).contains(&ms), "boot took {ms} ms");
        assert_eq!(boot.total_bytes(), 2 * 43_768);
    }

    #[test]
    fn lost_interrupt_is_classified_not_silent() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::MatMul8, 2);
        // The paper's 310 MHz row: transfer completes, interrupt path dead.
        let r = sys.reconfigure(0, &bs, mhz(310));
        assert!(!r.interrupt_seen);
        assert_eq!(
            r.error,
            Some(ReconfigError::Timeout(TimeoutCause::InterruptLost)),
            "lost interrupt must be classified, not a silent None latency: {r:?}"
        );
        // Distinct from a transfer that never finished: stall the DMA past
        // a shortened watchdog deadline.
        let mut cfg = SystemConfig::fast_test();
        cfg.transfer_timeout = SimDuration::from_micros(200);
        let mut sys = ZynqPdrSystem::new(cfg);
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 3);
        sys.inject_dma_stall(200_000); // 2 ms at 100 MHz >> 200 µs deadline
        let r = sys.reconfigure(0, &bs, mhz(100));
        assert_eq!(
            r.error,
            Some(ReconfigError::Timeout(TimeoutCause::StillInFlight)),
            "{r:?}"
        );
        assert!(!r.interrupt_seen);
    }

    #[test]
    fn classification_covers_the_failure_taxonomy() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 4);
        assert_eq!(sys.reconfigure(0, &bs, mhz(200)).error, None);
        assert_eq!(
            sys.reconfigure(0, &bs, mhz(320)).error,
            Some(ReconfigError::CrcMismatch)
        );
        // Wrong-device bitstream: refused outright.
        let p = sys.floorplan().partition(0).clone();
        let frames =
            AspImage::generate(AspKind::Fir16, 1, p.frame_count(sys.floorplan().geometry()));
        let mut b = Builder::new(IDCODE ^ 0xFFFF);
        b.add_frames(p.start_far(), frames.into_frames());
        let foreign = b.build();
        assert_eq!(
            sys.reconfigure(0, &foreign, mhz(100)).error,
            Some(ReconfigError::Refused)
        );
    }

    #[test]
    fn dropped_completion_irq_times_out_with_data_intact() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::AesMix, 5);
        sys.drop_next_completion_irq();
        let r = sys.reconfigure(0, &bs, mhz(140));
        assert!(!r.interrupt_seen, "{r:?}");
        assert_eq!(
            r.error,
            Some(ReconfigError::Timeout(TimeoutCause::InterruptLost))
        );
        assert!(r.crc_ok(), "the fabric content is fine: {r:?}");
        // One-shot: the next attempt interrupts normally.
        let r2 = sys.reconfigure(0, &bs, mhz(140));
        assert!(r2.interrupt_seen && r2.error.is_none(), "{r2:?}");
    }

    #[test]
    fn timing_burst_transiently_shrinks_the_envelope() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 6);
        // 280 MHz is safe in steady state...
        assert!(sys.reconfigure(0, &bs, mhz(280)).error.is_none());
        // ...but a 30 MHz burst kills the interrupt path (25 MHz slack).
        sys.inject_timing_burst(30.0, SimDuration::from_millis(500));
        let r = sys.reconfigure(0, &bs, mhz(280));
        assert_eq!(
            r.error,
            Some(ReconfigError::Timeout(TimeoutCause::InterruptLost)),
            "{r:?}"
        );
        assert!(r.crc_ok(), "data path still holds under a 30 MHz burst");
        // After the burst expires the same point is clean again.
        sys.engine_mut().run_for(SimDuration::from_millis(600));
        assert_eq!(sys.active_derate_mhz(), 0.0);
        assert!(sys.reconfigure(0, &bs, mhz(280)).error.is_none());
    }

    #[test]
    fn payload_extraction_roundtrip() {
        let sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(1, AspKind::AesMix, 9);
        let (far, frames) = bitstream_payload(&bs);
        assert_eq!(far, sys.floorplan().partition(1).start_far());
        assert_eq!(frames.len(), 108);
    }

    fn thermal_cfg() -> SystemConfig {
        SystemConfig {
            thermal_loop: Some(ThermalLoopConfig::default()),
            ..SystemConfig::fast_test()
        }
    }

    #[test]
    fn thermal_loop_settles_near_the_rc_steady_state() {
        let mut sys = ZynqPdrSystem::new(thermal_cfg());
        assert!(sys.thermal_loop_enabled());
        // Heater at construction: idle 1.1 W + P_dyn(100 MHz) ≈ 1.257 W,
        // plus ~1 W of leakage at 25 °C ambient and R = 8 °C/W puts the
        // settle point in the low 40s. Run well past 5 τ.
        sys.engine_mut().run_for(SimDuration::from_millis(40));
        let t = sys.die_temp_c();
        assert!(
            (38.0..=50.0).contains(&t),
            "loop settle point out of range: {t} °C"
        );
        assert!(!sys.thermal_samples().is_empty());
        assert!(sys.poll_thermal_alarm().is_none(), "no alarm at idle");
    }

    #[test]
    fn heat_soak_raises_the_die_and_trips_the_alarm() {
        let mut sys = ZynqPdrSystem::new(thermal_cfg());
        sys.engine_mut().run_for(SimDuration::from_millis(30));
        let before = sys.die_temp_c();
        // +55 °C ambient excursion for 20 ms: target jumps past the 85 °C
        // alarm line while the soak holds.
        sys.inject_heat_soak(55_000, SimDuration::from_millis(20));
        sys.engine_mut().run_for(SimDuration::from_millis(18));
        let during = sys.die_temp_c();
        assert!(during > before + 40.0, "soak must heat the die: {during}");
        let alarm = sys.poll_thermal_alarm();
        assert!(alarm.is_some(), "85 °C alarm must latch during the soak");
        // Polling clears the line and books exactly one tape event.
        assert!(sys.poll_thermal_alarm().is_none());
        // After the soak horizon the die relaxes back toward idle.
        sys.engine_mut().run_for(SimDuration::from_millis(40));
        let after = sys.die_temp_c();
        assert!(after < during - 30.0, "soak must revert: {after}");
    }

    #[test]
    fn heat_soak_without_the_loop_degrades_to_a_step() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        assert!(!sys.thermal_loop_enabled());
        let before = sys.die_temp_c();
        sys.inject_heat_soak(15_000, SimDuration::from_millis(5));
        assert!((sys.die_temp_c() - before - 15.0).abs() < 1e-9);
        assert_eq!(sys.thermal_samples().len(), 0);
        assert_eq!(sys.thermal_trajectory_jsonl(), "");
    }

    #[test]
    fn nominal_voltage_reports_are_bitwise_unchanged() {
        // The voltage axis at 1000 mV must be invisible: same RNG draws,
        // same float math, byte-identical report JSON.
        let mut a = ZynqPdrSystem::new(SystemConfig::fast_test());
        let mut b = ZynqPdrSystem::new(SystemConfig::fast_test());
        assert_eq!(b.vdd_mv(), pdr_power::VDD_NOMINAL_MV);
        let bs_a = a.make_asp_bitstream(0, AspKind::Fir16, 7);
        let bs_b = b.make_asp_bitstream(0, AspKind::Fir16, 7);
        let ra = a.reconfigure(0, &bs_a, mhz(200));
        b.set_vdd_mv(pdr_power::VDD_NOMINAL_MV); // explicit no-op set
        let rb = b.reconfigure(0, &bs_b, mhz(200));
        assert_eq!(ra.to_json_string(), rb.to_json_string());
    }

    #[test]
    fn undervolting_kills_a_point_overvolting_rescues_one() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 8);
        // 200 MHz is clean at nominal...
        assert!(sys.reconfigure(0, &bs, mhz(200)).error.is_none());
        // ...but at 950 mV the +150 MHz bias corrupts the data path.
        sys.set_vdd_mv(950);
        assert!(!sys.reconfigure(0, &bs, mhz(200)).crc_ok());
        // 140 MHz still holds at 950 mV.
        assert!(sys.reconfigure(0, &bs, mhz(140)).error.is_none());
        // Over-volting to 1050 mV buys back the dead 310 MHz interrupt.
        sys.set_vdd_mv(1050);
        let r = sys.reconfigure(0, &bs, mhz(310));
        assert!(r.interrupt_seen && r.error.is_none(), "{r:?}");
    }

    #[test]
    fn vdd_survives_snapshot_and_old_snapshots_default_to_nominal() {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        sys.set_vdd_mv(950);
        let snap = sys.snapshot_json();
        let mut restored = ZynqPdrSystem::new(SystemConfig::fast_test());
        restored.restore_json(&snap).unwrap();
        assert_eq!(restored.vdd_mv(), 950);
        // A pre-voltage-axis snapshot (key absent) keeps the constructed
        // nominal value rather than erroring.
        let legacy = match snap {
            Json::Obj(kv) => Json::Obj(kv.into_iter().filter(|(k, _)| k != "vdd_mv").collect()),
            _ => unreachable!("snapshot is an object"),
        };
        let mut fresh = ZynqPdrSystem::new(SystemConfig::fast_test());
        fresh.restore_json(&legacy).unwrap();
        assert_eq!(fresh.vdd_mv(), pdr_power::VDD_NOMINAL_MV);
    }

    #[test]
    fn thermal_loop_snapshot_restores_mid_soak_byte_identically() {
        let cfg = thermal_cfg;
        let mut a = ZynqPdrSystem::new(cfg());
        a.engine_mut().run_for(SimDuration::from_millis(10));
        a.inject_heat_soak(40_000, SimDuration::from_millis(15));
        a.engine_mut().run_for(SimDuration::from_millis(5));
        let snap = a.snapshot_json();
        let mut b = ZynqPdrSystem::new(cfg());
        b.restore_json(&snap).unwrap();
        a.engine_mut().run_for(SimDuration::from_millis(30));
        b.engine_mut().run_for(SimDuration::from_millis(30));
        assert_eq!(a.thermal_trajectory_jsonl(), b.thermal_trajectory_jsonl());
        assert_eq!(a.die_temp_c().to_bits(), b.die_temp_c().to_bits());
    }
}
