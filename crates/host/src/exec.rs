//! Single-threaded host execution of the benchmark kernels.
//!
//! For the application-level comparison of Figure 2 (left), the paper also
//! runs each kernel on the CVA6 core alone. The host runner models that
//! execution as a streaming pass over the kernel's buffers through the L1 /
//! LLC / DRAM hierarchy, plus a per-element arithmetic charge provided by the
//! kernel's cost description. This captures the two effects that matter at
//! this granularity — the single core has no parallelism and its cache
//! hierarchy does not hide DRAM latency for streaming working sets — without
//! simulating every host instruction.

use sva_common::{Cycles, Result, VirtAddr, CACHE_LINE_SIZE};
use sva_mem::MemorySystem;
use sva_vm::AddressSpace;

use crate::cpu::HostCpu;

/// Cost description of a kernel when run on the host core.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HostKernelCost {
    /// Total arithmetic/control operations executed.
    pub ops: u64,
    /// Average cycles per operation on the CVA6 pipeline (FPU operations on
    /// CVA6 are not fully pipelined, so this is usually above 1).
    pub cycles_per_op: f64,
    /// Number of sequential passes the kernel makes over its input buffers
    /// (e.g. merge sort reads its data `log2 n` times).
    pub read_passes: u32,
    /// Number of sequential passes over its output buffers.
    pub write_passes: u32,
}

impl HostKernelCost {
    /// A simple one-pass streaming kernel (axpy-like).
    pub const fn streaming(ops: u64, cycles_per_op: f64) -> Self {
        Self {
            ops,
            cycles_per_op,
            read_passes: 1,
            write_passes: 1,
        }
    }
}

/// Result of a host kernel run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HostRunStats {
    /// Total host cycles.
    pub total: Cycles,
    /// Cycles attributable to memory accesses.
    pub memory: Cycles,
    /// Cycles attributable to arithmetic.
    pub compute: Cycles,
}

/// Runs kernels on the host core.
#[derive(Clone, Debug, Default)]
pub struct HostKernelRunner;

impl HostKernelRunner {
    /// Creates a runner.
    pub fn new() -> Self {
        Self
    }

    /// Executes a kernel described by `cost` over the given input and output
    /// buffers (virtual ranges of `space`), returning the timing breakdown.
    ///
    /// # Errors
    ///
    /// Propagates page faults for unmapped buffers.
    pub fn run(
        &self,
        cpu: &mut HostCpu,
        mem: &mut MemorySystem,
        space: &AddressSpace,
        cost: HostKernelCost,
        inputs: &[(VirtAddr, u64)],
        outputs: &[(VirtAddr, u64)],
    ) -> Result<HostRunStats> {
        let start = cpu.elapsed();

        // Memory traffic: stream each buffer at cache-line granularity.
        let mut memory = Cycles::ZERO;
        for _ in 0..cost.read_passes {
            for &(va, len) in inputs {
                memory += self.stream(cpu, mem, space, va, len, false)?;
            }
        }
        for _ in 0..cost.write_passes {
            for &(va, len) in outputs {
                memory += self.stream(cpu, mem, space, va, len, true)?;
            }
        }

        // Arithmetic.
        let compute = cpu.execute((cost.ops as f64 * cost.cycles_per_op).ceil() as u64);

        Ok(HostRunStats {
            total: cpu.elapsed() - start,
            memory,
            compute,
        })
    }

    fn stream(
        &self,
        cpu: &mut HostCpu,
        mem: &mut MemorySystem,
        space: &AddressSpace,
        va: VirtAddr,
        len: u64,
        is_write: bool,
    ) -> Result<Cycles> {
        let mut total = Cycles::ZERO;
        let mut offset = 0u64;
        while offset < len {
            let pa = space.translate(mem, va + offset)?;
            total += if is_write {
                cpu.store(mem, pa, 8)?
            } else {
                cpu.load(mem, pa, 8)?
            };
            offset += CACHE_LINE_SIZE;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_common::PAGE_SIZE;
    use sva_mem::MemSysConfig;
    use sva_vm::FrameAllocator;

    fn setup(latency: u64) -> (MemorySystem, FrameAllocator, AddressSpace) {
        let mut mem = MemorySystem::new(MemSysConfig {
            dram_latency: Cycles::new(latency),
            ..MemSysConfig::default()
        });
        let mut frames = FrameAllocator::linux_pool();
        let space = AddressSpace::new(&mut mem, &mut frames).unwrap();
        (mem, frames, space)
    }

    #[test]
    fn host_run_charges_memory_and_compute() {
        let (mut mem, mut frames, mut space) = setup(200);
        let x = space
            .alloc_buffer(&mut mem, &mut frames, 4 * PAGE_SIZE)
            .unwrap();
        let y = space
            .alloc_buffer(&mut mem, &mut frames, 4 * PAGE_SIZE)
            .unwrap();
        let mut cpu = HostCpu::default();
        let runner = HostKernelRunner::new();
        let stats = runner
            .run(
                &mut cpu,
                &mut mem,
                &space,
                HostKernelCost::streaming(4096, 3.0),
                &[(x, 4 * PAGE_SIZE), (y, 4 * PAGE_SIZE)],
                &[(y, 4 * PAGE_SIZE)],
            )
            .unwrap();
        assert_eq!(stats.compute, Cycles::new(12288));
        assert!(stats.memory.raw() > 0);
        assert_eq!(stats.total, stats.memory + stats.compute);
    }

    #[test]
    fn host_run_slows_down_with_memory_latency() {
        let run = |latency| {
            let (mut mem, mut frames, mut space) = setup(latency);
            let x = space
                .alloc_buffer(&mut mem, &mut frames, 16 * PAGE_SIZE)
                .unwrap();
            let mut cpu = HostCpu::default();
            HostKernelRunner::new()
                .run(
                    &mut cpu,
                    &mut mem,
                    &space,
                    HostKernelCost::streaming(1000, 1.0),
                    &[(x, 16 * PAGE_SIZE)],
                    &[],
                )
                .unwrap()
                .total
        };
        assert!(run(1000) > run(200) * 2);
    }

    #[test]
    fn multiple_passes_multiply_memory_cost() {
        let (mut mem, mut frames, mut space) = setup(200);
        let x = space
            .alloc_buffer(&mut mem, &mut frames, 32 * PAGE_SIZE)
            .unwrap();
        let mut cpu = HostCpu::default();
        let runner = HostKernelRunner::new();
        let one = runner
            .run(
                &mut cpu,
                &mut mem,
                &space,
                HostKernelCost {
                    ops: 0,
                    cycles_per_op: 1.0,
                    read_passes: 1,
                    write_passes: 0,
                },
                &[(x, 32 * PAGE_SIZE)],
                &[],
            )
            .unwrap();
        let four = runner
            .run(
                &mut cpu,
                &mut mem,
                &space,
                HostKernelCost {
                    ops: 0,
                    cycles_per_op: 1.0,
                    read_passes: 4,
                    write_passes: 0,
                },
                &[(x, 32 * PAGE_SIZE)],
                &[],
            )
            .unwrap();
        // The buffer (128 KiB) does not fit the 32 KiB L1 but fits the LLC,
        // so later passes are cheaper per pass but still non-trivial.
        assert!(four.memory > one.memory);
    }

    #[test]
    fn unmapped_buffer_faults() {
        let (mut mem, _frames, space) = setup(200);
        let mut cpu = HostCpu::default();
        let err = HostKernelRunner::new().run(
            &mut cpu,
            &mut mem,
            &space,
            HostKernelCost::streaming(10, 1.0),
            &[(VirtAddr::new(0xDEAD_0000), 64)],
            &[],
        );
        assert!(err.is_err());
    }
}
