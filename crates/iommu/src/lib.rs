//! Model of the RISC-V IOMMU (specification v1.0) as integrated in the
//! prototype platform.
//!
//! The IOMMU sits between the Snitch cluster and the system crossbar
//! (Figure 1 of the paper) and translates every DMA access from IO virtual
//! addresses to physical addresses. The model follows the structure of the
//! open-source IP the paper integrates:
//!
//! * a **device directory table** (DDT) in memory mapping device IDs to
//!   device contexts, with a single-entry device-context cache
//!   ([`ddt`]);
//! * a **4-entry, fully-associative IOTLB** with LRU replacement
//!   ([`iotlb`]);
//! * a **page-table walker** issuing up to three dependent reads through its
//!   dedicated AXI master port for each IOTLB miss ([`ptw`]);
//! * **command and fault queues** for invalidations and IO page faults
//!   ([`queues`]);
//! * a memory-mapped **register file** the driver programs ([`regs`]).
//!
//! The top-level [`Iommu`] type wires these together behind the
//! [`Iommu::translate`] entry point used by the cluster DMA engine.
//!
//! # Example
//!
//! ```
//! use sva_common::{Iova, PhysAddr, VirtAddr, PAGE_SIZE};
//! use sva_iommu::{Iommu, IommuConfig};
//! use sva_mem::MemorySystem;
//! use sva_vm::{AddressSpace, FrameAllocator};
//!
//! let mut mem = MemorySystem::default();
//! let mut frames = FrameAllocator::linux_pool();
//! let mut space = AddressSpace::new(&mut mem, &mut frames).unwrap();
//! let va = space.alloc_buffer(&mut mem, &mut frames, PAGE_SIZE).unwrap();
//!
//! let mut iommu = Iommu::new(IommuConfig::default());
//! iommu.attach_device(&mut mem, &mut frames, 1, space.pscid(), space.root()).unwrap();
//!
//! let iova = Iova::from_virt(va);
//! let (pa, _cycles) = iommu.translate(&mut mem, 1, iova, false).unwrap();
//! assert_eq!(pa, space.translate(&mem, va).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ddt;
pub mod iommu;
pub mod iotlb;
pub mod pri;
pub mod ptw;
pub mod queues;
pub mod regs;

pub use ddt::{DeviceContext, DeviceDirectory};
pub use iommu::{Iommu, IommuConfig, IommuMode, IommuStats, TlbHierarchyConfig, TlbLevelConfig};
pub use iotlb::{IoTlb, IoTlbEntry};
pub use pri::{PageRequestHandler, PageRequestStats};
pub use ptw::{PageTableWalker, PtwResult, WalkStore, WalkTable};
pub use queues::{BoundedQueue, Command, FaultReason, FaultRecord, PageRequest};
pub use regs::RegisterFile;
