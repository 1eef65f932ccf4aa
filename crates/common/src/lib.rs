//! Common foundation types for the RISC-V shared-virtual-addressing (SVA)
//! reproduction.
//!
//! This crate contains the vocabulary shared by every other crate in the
//! workspace:
//!
//! * strongly-typed addresses ([`PhysAddr`], [`VirtAddr`], [`Iova`]) and page
//!   arithmetic ([`addr`]),
//! * simulation time in host-domain cycles and clock-domain conversion
//!   ([`cycles`]),
//! * byte-size helpers ([`size`]),
//! * lightweight statistics primitives used by every timing model
//!   ([`stats`]),
//! * a deterministic, seedable random-number wrapper ([`rng`]) and the
//!   open-loop arrival processes built on it ([`arrival`]),
//! * the common error type ([`error`]).
//!
//! # Example
//!
//! ```
//! use sva_common::prelude::*;
//!
//! let base = PhysAddr::new(0x8000_0000);
//! let next_page = base.align_up(PAGE_SIZE);
//! assert_eq!(next_page, base); // already aligned
//!
//! let host = Cycles::new(500);
//! let cluster = ClockDomain::Cluster.to_host_cycles(200);
//! assert_eq!(host + cluster, Cycles::new(1000));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod arrival;
pub mod channel;
pub mod clock;
pub mod cycles;
pub mod error;
pub mod port;
pub mod rng;
pub mod size;
pub mod stats;
pub mod tlb;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::addr::{Iova, PhysAddr, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
    pub use crate::arrival::ArrivalMix;
    pub use crate::channel::{CreditPort, QueueDepths, TimedQueue};
    pub use crate::clock::{GlobalClock, TimeSource};
    pub use crate::cycles::{ClockDomain, Cycles};
    pub use crate::error::{Error, Result};
    pub use crate::port::{
        ArbitrationPolicy, InitiatorClass, InitiatorId, MemPortReq, PortDir, PortTiming,
    };
    pub use crate::size::{GIB, KIB, MIB};
    pub use crate::stats::{Counter, RunningStats};
    pub use crate::tlb::{ReplacementPolicy, TlbOrg};
}

pub use addr::{Iova, PhysAddr, VirtAddr, CACHE_LINE_SIZE, PAGE_SHIFT, PAGE_SIZE};
pub use arrival::ArrivalMix;
pub use channel::{CreditPort, QueueDepths, ReservationIndex, TimedQueue};
pub use clock::{GlobalClock, TimeSource};
pub use cycles::{ClockDomain, Cycles};
pub use error::{Error, Result};
pub use port::{
    ArbitrationPolicy, InitiatorClass, InitiatorId, InitiatorStats, MemPortReq, PortDir, PortTiming,
};
pub use size::{GIB, KIB, MIB};
pub use tlb::{ReplacementPolicy, TlbOrg};
