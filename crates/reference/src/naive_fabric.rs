//! The retained linear-scan reference placement engine of the fabric.
//!
//! [`NaiveFabric`] is the original [`Fabric`](sva_mem::Fabric) placement
//! algorithm, kept verbatim as the **executable specification** the indexed
//! engine is verified against — exactly the discipline
//! [`NaiveTimedQueue`](crate::NaiveTimedQueue) established for the queue
//! engine:
//!
//! * the per-channel reservation timeline is a `BTreeMap` keyed by
//!   `(start, seq)`, and every placement retry range-scans the start window
//!   `[placed - max_reservation_len, placed + span)` — which covers mostly
//!   *finished* history in a long measurement window — one conflict at a
//!   time;
//! * the initiator slot is resolved by a linear registry scan per grant;
//! * the `Weighted` policy's `weight_of` scans `timed_order` for the slot's
//!   position inside the conflict predicate, and membership is checked with
//!   `timed_order.contains` on every occupying grant.
//!
//! The property suite (`crates/mem/tests/fabric_identity.rs`) drives this
//! model and the indexed [`sva_mem::Fabric`] on randomized workloads across
//! every arbitration policy and demands bit-identical grant outcomes and
//! statistics; the `simspeed` perf gate records the indexed engine's
//! throughput multiple over this baseline. Do not use it on hot paths, and
//! keep its placement semantics frozen — behavioural changes belong in
//! [`sva_mem::Fabric`] *with* a matching update here only when the simulated
//! timing model itself is deliberately changed.

use std::collections::BTreeMap;

use sva_common::{
    ArbitrationPolicy, CreditPort, Cycles, InitiatorClass, InitiatorId, InitiatorStats, MemPortReq,
    PortTiming,
};

use sva_mem::{ChannelStats, FabricConfig, GrantOutcome};

/// The data-bus timeline, channel queues and accounting of one DRAM channel
/// under the reference engine.
#[derive(Debug)]
struct NaiveChannelTimeline {
    /// Bus reservations keyed by `(start, insertion seq)` with
    /// `(end, owner slot, request priority)` values — the start-keyed map
    /// the indexed engine replaced.
    reservations: BTreeMap<(u64, u64), (u64, usize, u8)>,
    /// Longest single reservation seen, bounding how far below a placement
    /// point a conflicting interval can start.
    max_reservation_len: u64,
    /// Monotonic insertion counter disambiguating equal-start reservations.
    reservation_seq: u64,
    req: CreditPort,
    rsp: CreditPort,
    stats: ChannelStats,
}

impl NaiveChannelTimeline {
    fn new(req_depth: usize, rsp_depth: usize) -> Self {
        Self {
            reservations: BTreeMap::new(),
            max_reservation_len: 0,
            reservation_seq: 0,
            req: CreditPort::new(req_depth),
            rsp: CreditPort::new(rsp_depth),
            stats: ChannelStats::default(),
        }
    }
}

/// The reference arbitration/accounting engine (see the module docs).
#[derive(Debug)]
pub struct NaiveFabric {
    config: FabricConfig,
    initiators: Vec<(InitiatorId, InitiatorStats)>,
    channels: Vec<NaiveChannelTimeline>,
    served: Vec<u64>,
    timed_order: Vec<usize>,
    last_owner: Option<InitiatorId>,
    grants: u64,
    grant_switches: u64,
}

impl Default for NaiveFabric {
    fn default() -> Self {
        Self::new(FabricConfig::default())
    }
}

impl NaiveFabric {
    /// Creates a reference fabric with the given configuration.
    pub fn new(config: FabricConfig) -> Self {
        let n = config.channels.channels();
        let channels = (0..n)
            .map(|_| NaiveChannelTimeline::new(config.req_queue_depth, config.rsp_queue_depth))
            .collect();
        Self {
            config,
            initiators: Vec::new(),
            channels,
            served: Vec::new(),
            timed_order: Vec::new(),
            last_owner: None,
            grants: 0,
            grant_switches: 0,
        }
    }

    /// The configuration this fabric was built with.
    pub const fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Registers `id` if needed and returns its slot index — the linear
    /// registry scan the indexed engine replaced with a direct map.
    fn slot(&mut self, id: InitiatorId) -> usize {
        if let Some(i) = self.initiators.iter().position(|(x, _)| *x == id) {
            i
        } else {
            self.initiators.push((id, InitiatorStats::default()));
            self.served.push(0);
            self.initiators.len() - 1
        }
    }

    /// The weight of `slot` under the weighted policy — the `timed_order`
    /// position scan the indexed engine replaced with a cached weight.
    fn weight_of(&self, slot: usize) -> u32 {
        let idx = self
            .timed_order
            .iter()
            .position(|&s| s == slot)
            .unwrap_or(self.timed_order.len());
        self.config.policy.weight(idx)
    }

    fn queues_behind(&self, slot: usize, prio: u8, occ: u64, owner: usize, owner_prio: u8) -> bool {
        if owner == slot {
            return false;
        }
        match &self.config.policy {
            ArbitrationPolicy::RoundRobin => true,
            ArbitrationPolicy::FixedPriority => owner_prio >= prio,
            ArbitrationPolicy::Weighted(_) => {
                let me = (self.served[slot] + occ) as u128 * self.weight_of(owner) as u128;
                let them = self.served[owner] as u128 * self.weight_of(slot) as u128;
                me >= them
            }
        }
    }

    /// Grants one access, discarding the issue-stall component (mirrors
    /// [`sva_mem::Fabric::grant`]).
    pub fn grant(&mut self, req: &MemPortReq, timing: PortTiming) -> Cycles {
        self.admit(req, timing).queue
    }

    /// Admits one access through the split-transaction flow of its channel
    /// — the exact contract of [`sva_mem::Fabric::admit`], placed by the
    /// original one-conflict-at-a-time start-window scan.
    pub fn admit(&mut self, req: &MemPortReq, timing: PortTiming) -> GrantOutcome {
        let slot = self.slot(req.initiator);
        {
            let stats = &mut self.initiators[slot].1;
            if req.dir.is_write() {
                stats.writes += 1;
            } else {
                stats.reads += 1;
            }
            if req.burst {
                stats.bursts += 1;
            }
            stats.bytes += req.len;
            stats.occupancy_cycles += timing.occupancy.raw();
        }
        let channel = self.config.channels.channel_for(req.addr);
        {
            let ch = &mut self.channels[channel].stats;
            ch.grants += 1;
            ch.bytes += req.len;
            ch.occupancy_cycles += timing.occupancy.raw();
        }

        let arrival = req.arrival.raw();
        let occupancy = timing.occupancy.raw();
        let participates = self.config.queues_bounded()
            && (req.initiator.class() == InitiatorClass::Device || self.config.timed_host_ptw);

        let admitted = if participates {
            self.channels[channel].req.admission_at(req.arrival).raw()
        } else {
            arrival
        };
        let issue_stall = admitted - arrival;

        let mut placed = admitted;
        let wins_outright =
            req.priority > 0 && matches!(self.config.policy, ArbitrationPolicy::RoundRobin);
        loop {
            if !wins_outright {
                // A conflicting interval satisfies start < placed + occ
                // and end > placed; since no reservation is longer than
                // max_reservation_len, its start also exceeds
                // placed - max_reservation_len. Range-scan that window.
                let lo = placed.saturating_sub(self.channels[channel].max_reservation_len);
                let hi = placed + occupancy.max(1);
                let conflict = self.channels[channel]
                    .reservations
                    .range((lo, 0)..(hi, 0))
                    .find(|(_, &(end, owner, owner_prio))| {
                        end > placed
                            && self.queues_behind(slot, req.priority, occupancy, owner, owner_prio)
                    })
                    .map(|(_, &(end, _, _))| end);
                if let Some(end) = conflict {
                    placed = end;
                    continue;
                }
            }
            if participates {
                let rsp_free = self.channels[channel]
                    .rsp
                    .admission_at(Cycles::new(placed))
                    .raw();
                if rsp_free > placed {
                    placed = rsp_free;
                    continue;
                }
            }
            break;
        }
        let mut queue = Cycles::ZERO;
        if placed > admitted {
            queue = Cycles::new(placed - admitted);
            let stats = &mut self.initiators[slot].1;
            stats.queue_cycles += queue.raw();
            stats.contended_grants += 1;
            self.channels[channel].stats.queue_cycles += queue.raw();
        }
        if participates {
            let (_, req_occ) = self.channels[channel]
                .req
                .acquire(Cycles::new(admitted), Cycles::new(placed));
            let retire = placed + occupancy + timing.latency.raw();
            let (_, rsp_occ) = self.channels[channel]
                .rsp
                .acquire(Cycles::new(placed), Cycles::new(retire));
            let stats = &mut self.initiators[slot].1;
            stats.issue_stall_cycles += issue_stall;
            stats.req_queue_peak = stats.req_queue_peak.max(req_occ as u64);
            stats.rsp_queue_peak = stats.rsp_queue_peak.max(rsp_occ as u64);
            let ch = &mut self.channels[channel].stats;
            ch.issue_stall_cycles += issue_stall;
            ch.req_queue_peak = ch.req_queue_peak.max(req_occ as u64);
            ch.rsp_queue_peak = ch.rsp_queue_peak.max(rsp_occ as u64);
        }
        if occupancy > 0 {
            if matches!(req.initiator, InitiatorId::Dma { .. }) && !self.timed_order.contains(&slot)
            {
                self.timed_order.push(slot);
            }
            self.served[slot] += occupancy;
            let timeline = &mut self.channels[channel];
            timeline.reservation_seq += 1;
            timeline.reservations.insert(
                (placed, timeline.reservation_seq),
                (placed + occupancy, slot, req.priority),
            );
            timeline.max_reservation_len = timeline.max_reservation_len.max(occupancy);
        }

        if self.last_owner != Some(req.initiator) {
            if self.last_owner.is_some() {
                self.grant_switches += 1;
            }
            self.last_owner = Some(req.initiator);
        }
        self.grants += 1;
        GrantOutcome {
            queue,
            issue_stall: Cycles::new(issue_stall),
        }
    }

    /// Records the final latency the initiator observed.
    pub fn note_latency(&mut self, id: InitiatorId, latency: Cycles) {
        let slot = self.slot(id);
        self.initiators[slot].1.latency_cycles += latency.raw();
    }

    /// Statistics of one initiator, if it has accessed the fabric.
    pub fn initiator_stats(&self, id: InitiatorId) -> Option<InitiatorStats> {
        self.initiators
            .iter()
            .find(|(x, _)| *x == id)
            .map(|(_, s)| *s)
    }

    /// Sum of all per-initiator statistics.
    pub fn total(&self) -> InitiatorStats {
        let mut total = InitiatorStats::default();
        for (_, s) in &self.initiators {
            total.merge(s);
        }
        total
    }

    /// Number of distinct initiators that have accessed the fabric.
    pub fn initiator_count(&self) -> usize {
        self.initiators.len()
    }

    /// Per-channel statistics, indexed by channel.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(|c| c.stats).collect()
    }

    /// Total grants issued since the last reset.
    pub const fn grants(&self) -> u64 {
        self.grants
    }

    /// Grants whose initiator differed from the previous grant's.
    pub const fn grant_switches(&self) -> u64 {
        self.grant_switches
    }

    /// Clears all statistics and every channel timeline.
    pub fn reset(&mut self) {
        let config = self.config.clone();
        *self = Self::new(config);
    }

    /// Drops every channel's reservations while keeping all accumulated
    /// statistics (mirrors [`sva_mem::Fabric::clear_timelines`]).
    pub fn clear_timelines(&mut self) {
        for ch in &mut self.channels {
            ch.reservations.clear();
            ch.max_reservation_len = 0;
            ch.reservation_seq = 0;
            ch.req.clear_entries();
            ch.rsp.clear_entries();
        }
        for served in &mut self.served {
            *served = 0;
        }
        self.timed_order.clear();
    }
}
