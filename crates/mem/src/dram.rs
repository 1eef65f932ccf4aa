//! DRAM controller timing model with the configurable AXI delayer.
//!
//! On the FPGA prototype a memory access from the 50 MHz host domain reaches
//! the DDR4 controller in roughly 35 cycles; the paper then adds a
//! parametrisable delayer (200 / 600 / 1000 cycles) in front of the
//! controller to emulate the relative latency a real silicon implementation
//! would see. This module combines both into a single access-timing model:
//!
//! ```text
//! access latency = controller latency + delayer latency + beats on the bus
//! ```

use sva_axi::{AccessKind, AxiDelayer, BusConfig};
use sva_common::stats::Counter;
use sva_common::Cycles;

/// Configuration of the DRAM timing model.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Fixed latency of the DDR controller and PHY as observed from the host
    /// clock domain (about 35 cycles at 50 MHz on the VCU128).
    pub controller_latency: Cycles,
    /// Additional latency inserted by the AXI delayer (the experiment knob:
    /// 200, 600 or 1000 cycles).
    pub delayer_latency: Cycles,
    /// Data-bus geometry between the crossbar and the controller.
    pub bus: BusConfig,
}

impl DramConfig {
    /// Controller latency measured on the FPGA prototype at 50 MHz.
    pub const FPGA_CONTROLLER_LATENCY: Cycles = Cycles::new(35);

    /// Creates a configuration with the given delayer latency and default
    /// controller/bus parameters.
    pub fn with_delayer(delayer_latency: Cycles) -> Self {
        Self {
            controller_latency: Self::FPGA_CONTROLLER_LATENCY,
            delayer_latency,
            bus: BusConfig::AXI64,
        }
    }

    /// Total zero-load latency (controller + delayer) of a single beat.
    pub fn base_latency(&self) -> Cycles {
        self.controller_latency + self.delayer_latency
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::with_delayer(Cycles::new(200))
    }
}

/// Timing of one DRAM access, split into the latency to the first beat and
/// the bus occupancy of the data transfer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DramTiming {
    /// Cycles until the first data beat (or write acceptance) returns.
    pub latency: Cycles,
    /// Cycles the data bus is busy streaming the payload.
    pub occupancy: Cycles,
}

impl DramTiming {
    /// Total blocking time of the access for an initiator that cannot
    /// overlap it with anything else.
    pub fn total(&self) -> Cycles {
        self.latency + self.occupancy
    }
}

/// The DRAM controller + delayer timing model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dram {
    config: DramConfig,
    delayer: AxiDelayer,
    accesses: Counter,
    bytes: Counter,
}

impl Dram {
    /// Creates a DRAM model from a configuration.
    pub fn new(config: DramConfig) -> Self {
        Self {
            delayer: AxiDelayer::new(config.delayer_latency),
            config,
            accesses: Counter::new(),
            bytes: Counter::new(),
        }
    }

    /// The configuration of the model.
    pub const fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Changes the delayer latency (used by the latency sweeps).
    pub fn set_delayer_latency(&mut self, delay: Cycles) {
        self.config.delayer_latency = delay;
        self.delayer.set_delay(delay);
    }

    /// Computes the timing of one access of `bytes` bytes and records it in
    /// the statistics.
    pub fn access(&mut self, kind: AccessKind, bytes: u64) -> DramTiming {
        self.accesses.incr();
        self.bytes.add(bytes);
        let delayed = self.delayer.apply(kind);
        DramTiming {
            latency: self.config.controller_latency + delayed,
            occupancy: Cycles::new(self.config.bus.beats_for(bytes)),
        }
    }

    /// The delayer block.
    pub const fn delayer(&self) -> &AxiDelayer {
        &self.delayer
    }

    /// Number of accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses.get()
    }

    /// Number of bytes transferred.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes.get()
    }

    /// Clears the statistics.
    pub fn reset_stats(&mut self) {
        self.accesses.reset();
        self.bytes.reset();
        self.delayer.reset_stats();
    }
}

impl Default for Dram {
    fn default() -> Self {
        Self::new(DramConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_latency_is_controller_plus_delayer() {
        let mut dram = Dram::new(DramConfig::with_delayer(Cycles::new(600)));
        let t = dram.access(AccessKind::Read, 64);
        assert_eq!(t.latency, Cycles::new(635));
        assert_eq!(t.occupancy, Cycles::new(8));
        assert_eq!(t.total(), Cycles::new(643));
    }

    #[test]
    fn occupancy_scales_with_burst_size() {
        let mut dram = Dram::new(DramConfig::with_delayer(Cycles::new(200)));
        let small = dram.access(AccessKind::Read, 8);
        let big = dram.access(AccessKind::Read, 2048);
        assert_eq!(small.occupancy, Cycles::new(1));
        assert_eq!(big.occupancy, Cycles::new(256));
        assert_eq!(small.latency, big.latency);
    }

    #[test]
    fn latency_sweep_reconfiguration() {
        let mut dram = Dram::default();
        let t200 = dram.access(AccessKind::Read, 64).latency;
        dram.set_delayer_latency(Cycles::new(1000));
        let t1000 = dram.access(AccessKind::Read, 64).latency;
        assert_eq!(t1000 - t200, Cycles::new(800));
    }

    #[test]
    fn statistics_accumulate() {
        let mut dram = Dram::default();
        dram.access(AccessKind::Read, 64);
        dram.access(AccessKind::Write, 128);
        assert_eq!(dram.accesses(), 2);
        assert_eq!(dram.bytes_transferred(), 192);
        dram.reset_stats();
        assert_eq!(dram.accesses(), 0);
    }
}
