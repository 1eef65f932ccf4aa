//! The CVA6 core's memory path and instruction-cost accounting.
//!
//! CVA6 is an in-order, single-issue application-class core; for the
//! quantities the paper measures, what matters is the cost of its memory
//! accesses (through a 32 KiB write-through L1 data cache, then the LLC, then
//! DRAM) and a simple cycles-per-instruction charge for the arithmetic in
//! between. [`HostCpu`] provides exactly that: `load`/`store` return the
//! cycles of one access, `execute` charges ALU/FPU work, and an internal
//! counter accumulates the total so callers can read off elapsed time.

use sva_common::{Cycles, GlobalClock, PhysAddr, Result, CACHE_LINE_SIZE};
use sva_mem::cache::{Cache, CacheConfig};
use sva_mem::MemorySystem;

/// Configuration of the host CPU model.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HostCpuConfig {
    /// Geometry of the L1 data cache (write-through on CVA6).
    pub l1d: CacheConfig,
    /// Latency of an L1 hit.
    pub l1_hit_latency: Cycles,
    /// Average cycles per non-memory instruction (integer/float pipeline).
    pub cycles_per_op: f64,
    /// Cost of invalidating the whole L1 (the `flush_l1()` of Listing 1);
    /// write-through means no write-backs are needed.
    pub l1_flush_cost: Cycles,
}

impl Default for HostCpuConfig {
    fn default() -> Self {
        Self {
            l1d: CacheConfig::cva6_l1d(),
            l1_hit_latency: Cycles::new(1),
            cycles_per_op: 1.0,
            l1_flush_cost: Cycles::new(64),
        }
    }
}

/// The CVA6 core model.
#[derive(Clone, Debug)]
pub struct HostCpu {
    config: HostCpuConfig,
    l1d: Cache,
    elapsed: Cycles,
    /// The platform's global simulation clock: every cycle the core charges
    /// advances it, so host activity moves shared time forward and later
    /// accesses are stamped after the work the host has already done.
    clock: GlobalClock,
}

impl HostCpu {
    /// Creates a host CPU with the given configuration and a private clock.
    pub fn new(config: HostCpuConfig) -> Self {
        Self {
            l1d: Cache::new(config.l1d),
            elapsed: Cycles::ZERO,
            clock: GlobalClock::new(),
            config,
        }
    }

    /// Shares the platform's global clock with this core (replacing the
    /// private clock created by [`HostCpu::new`]).
    pub fn attach_clock(&mut self, clock: &GlobalClock) {
        self.clock = clock.clone();
    }

    /// The configuration of this CPU.
    pub const fn config(&self) -> &HostCpuConfig {
        &self.config
    }

    /// Total cycles accumulated by this CPU since creation or the last
    /// [`HostCpu::reset_elapsed`].
    pub const fn elapsed(&self) -> Cycles {
        self.elapsed
    }

    /// Resets the elapsed-cycle counter (cache contents are kept).
    pub fn reset_elapsed(&mut self) {
        self.elapsed = Cycles::ZERO;
    }

    /// L1 data cache statistics.
    pub fn l1_stats(&self) -> sva_common::stats::HitMiss {
        self.l1d.stats()
    }

    fn charge(&mut self, cycles: Cycles) -> Cycles {
        self.elapsed += cycles;
        self.clock.advance(cycles);
        cycles
    }

    /// Charges `ops` non-memory instructions.
    pub fn execute(&mut self, ops: u64) -> Cycles {
        let cycles = Cycles::new((ops as f64 * self.config.cycles_per_op).ceil() as u64);
        self.charge(cycles)
    }

    /// Performs a timed load of `len` bytes at physical address `addr`
    /// (`len` is expected to stay within one cache line, as real accesses
    /// do).
    ///
    /// # Errors
    ///
    /// Propagates decode errors from the memory system.
    pub fn load(&mut self, mem: &mut MemorySystem, addr: PhysAddr, len: u64) -> Result<Cycles> {
        let mut cycles = self.config.l1_hit_latency;
        let cacheable = mem.map().is_llc_cacheable(addr);
        if cacheable {
            if !self.l1d.access(addr, false).is_hit() {
                let mut line = [0u8; CACHE_LINE_SIZE as usize];
                cycles += mem.host_read(addr.cache_line_base(), &mut line)?;
            }
        } else {
            let mut buf = vec![0u8; len as usize];
            cycles += mem.host_read(addr, &mut buf)?;
        }
        Ok(self.charge(cycles))
    }

    /// Performs a timed store of `len` bytes at physical address `addr`.
    ///
    /// CVA6's L1 is write-through: the line is updated if present (no
    /// write-allocate) and the store always proceeds to the memory system.
    /// The store is *timing only* — it re-writes the bytes already present so
    /// functional contents (which callers manage through the untimed
    /// interfaces) are never clobbered.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from the memory system.
    pub fn store(&mut self, mem: &mut MemorySystem, addr: PhysAddr, len: u64) -> Result<Cycles> {
        let mut cycles = self.config.l1_hit_latency;
        let cacheable = mem.map().is_llc_cacheable(addr);
        if cacheable && self.l1d.probe(addr) {
            // Update the resident line (timing-wise free beyond the hit).
            self.l1d.access(addr, false);
        }
        let mut current = vec![0u8; len as usize];
        mem.read_phys(addr, &mut current)?;
        cycles += mem.host_write(addr, &current)?;
        Ok(self.charge(cycles))
    }

    /// Performs a functional + timed store of actual data (used by the
    /// driver model when it writes page-table entries whose values matter).
    ///
    /// # Errors
    ///
    /// Propagates decode errors from the memory system.
    pub fn store_u64(
        &mut self,
        mem: &mut MemorySystem,
        addr: PhysAddr,
        value: u64,
    ) -> Result<Cycles> {
        let mut cycles = self.config.l1_hit_latency;
        if mem.map().is_llc_cacheable(addr) && self.l1d.probe(addr) {
            self.l1d.access(addr, false);
        }
        cycles += mem.host_write(addr, &value.to_le_bytes())?;
        Ok(self.charge(cycles))
    }

    /// Invalidates the whole L1 data cache (Listing 1's `flush_l1()`), which
    /// on a write-through cache requires no write-backs.
    pub fn flush_l1(&mut self) -> Cycles {
        self.l1d.flush_all();
        let cost = self.config.l1_flush_cost;
        self.charge(cost)
    }
}

impl Default for HostCpu {
    fn default() -> Self {
        Self::new(HostCpuConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_axi::addrmap::DRAM_BASE;
    use sva_mem::MemSysConfig;

    fn mem(latency: u64) -> MemorySystem {
        MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            ..MemSysConfig::default()
        })
    }

    #[test]
    fn repeated_loads_hit_in_l1() {
        let mut m = mem(600);
        let mut cpu = HostCpu::default();
        let addr = PhysAddr::new(DRAM_BASE + 0x1000);
        let cold = cpu.load(&mut m, addr, 8).unwrap();
        let warm = cpu.load(&mut m, addr + 8, 8).unwrap();
        assert!(cold.raw() > 600);
        assert_eq!(warm, Cycles::new(1));
        assert_eq!(cpu.l1_stats().hits, 1);
        assert_eq!(cpu.l1_stats().misses, 1);
    }

    #[test]
    fn stores_are_write_through() {
        let mut m = mem(200);
        let mut cpu = HostCpu::default();
        let addr = PhysAddr::new(DRAM_BASE + 0x2000);
        // Even after a load brought the line in, a store still reaches memory
        // (and therefore the LLC): host access counter increases every time.
        cpu.load(&mut m, addr, 8).unwrap();
        let before = m.stats().host_accesses;
        cpu.store(&mut m, addr, 8).unwrap();
        cpu.store(&mut m, addr, 8).unwrap();
        assert_eq!(m.stats().host_accesses, before + 2);
    }

    #[test]
    fn uncached_loads_always_pay_memory_latency() {
        let mut m = mem(600);
        let mut cpu = HostCpu::default();
        let addr = m.map().reserved_dram_base();
        let a = cpu.load(&mut m, addr, 8).unwrap();
        let b = cpu.load(&mut m, addr, 8).unwrap();
        assert!(a.raw() > 600);
        assert!(b.raw() > 600);
    }

    #[test]
    fn execute_and_elapsed_accounting() {
        let mut cpu = HostCpu::default();
        cpu.execute(100);
        let mut m = mem(200);
        cpu.load(&mut m, PhysAddr::new(DRAM_BASE), 8).unwrap();
        assert!(cpu.elapsed().raw() > 100);
        cpu.reset_elapsed();
        assert_eq!(cpu.elapsed(), Cycles::ZERO);
    }

    #[test]
    fn flush_l1_invalidates_contents() {
        let mut m = mem(600);
        let mut cpu = HostCpu::default();
        let addr = PhysAddr::new(DRAM_BASE + 0x3000);
        cpu.load(&mut m, addr, 8).unwrap();
        cpu.flush_l1();
        // After the flush the next load misses in L1 again (though it may
        // now hit in the LLC).
        let after = cpu.load(&mut m, addr, 8).unwrap();
        assert!(after > Cycles::new(1));
        assert_eq!(cpu.l1_stats().misses, 2);
    }
}
