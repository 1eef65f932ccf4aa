//! Arbitration and per-initiator accounting of the unified memory fabric.
//!
//! Every timed access entering [`crate::MemorySystem::access`] passes through
//! the [`Fabric`]: it registers the initiator on first contact, keeps
//! per-initiator [`InitiatorStats`], and models the DRAM data path as one or
//! more **channel timelines** so overlapping traffic from *different*
//! initiators is observed as queueing (contention).
//!
//! # Timing model
//!
//! The simulator is call-driven: each initiator simulates its own activity
//! and presents accesses in program order, stamped with an arrival time on
//! the **global simulation clock** ([`MemPortReq::arrival`]). Initiators
//! that track their own pipeline (DMA engines, the page-table walker, the
//! host-traffic stream) stamp the arrival themselves; for everything else
//! the memory system fills in the platform's `GlobalClock` reading, so
//! *every* grant is timed — the untimed fast path of earlier revisions is
//! gone. Every access is routed to a DRAM channel by its address (see
//! [`crate::channels`]); the fabric reserves that channel's data bus as
//! **intervals** `[start, start + occupancy)` on the channel's virtual
//! timeline. A new grant is placed at the earliest point at or after
//! its arrival that does not overlap a conflicting interval on *its* channel;
//! the shift is the access's queueing delay. Intervals owned by the same
//! initiator are ignored — serialising an engine's own payloads is that
//! engine's pipelining model, and charging it again here would double-count.
//! Traffic on different channels never conflicts, which is what turns the
//! channel count into a bandwidth knob.
//!
//! Because placement works on arrival timestamps rather than call order,
//! streams that are simulated sequentially but *conceptually concurrent*
//! (the per-cluster DMA shards of a multi-cluster offload, whose local
//! clocks all start at zero) interleave correctly: a later-simulated shard
//! slots its bursts into the bus idle gaps the earlier shard left between
//! its compute phases, and only genuinely overlapping occupancy queues.
//!
//! # Arbitration policies
//!
//! Which already-reserved intervals a grant must queue behind is decided by
//! the configured [`ArbitrationPolicy`]:
//!
//! * **RoundRobin** (default) — first-fit in simulation order, exactly the
//!   pre-channel contention model: a grant queues behind every conflicting
//!   interval owned by a different initiator. A [`MemPortReq::priority`]
//!   above zero wins arbitration outright (placed at arrival; its occupancy
//!   still blocks priority-0 traffic). First-fit placement makes measured
//!   queueing a staircase across shards (the first-simulated DMA stream
//!   reports zero queue cycles), so read per-initiator queueing as a
//!   placement-order-dependent bound, not a fairness split.
//! * **FixedPriority** — strict ordering by [`MemPortReq::priority`]: a
//!   grant queues exactly behind conflicting intervals of **equal or
//!   higher** request priority and ignores lower-priority ones (it is
//!   granted at arrival over them, like the PR 1 priority escape hatch, and
//!   its occupancy still blocks them). With all priorities equal this
//!   degenerates to RoundRobin.
//! * **Weighted(w)** — deficit-weighted QoS: the fabric tracks each timed
//!   initiator's accumulated bus occupancy (its *service*). A grant skips a
//!   conflicting interval when its own weighted service — including the
//!   access at hand — still lags the interval owner's
//!   (`(served(me) + occ) · w(owner) < served(owner) · w(me)`), i.e. an
//!   under-served initiator is granted at its arrival instead of queueing.
//!   Serving it grows its service counter, so the bypass is self-limiting:
//!   no initiator with a non-zero weight can be starved, and equal weights
//!   alternate the queueing burden instead of the round-robin staircase.
//!   Weights index timed initiators in first-reservation order (cluster
//!   shard order on the platform). [`MemPortReq::priority`] is ignored under
//!   this policy — request priorities cannot defeat the configured service
//!   split.
//!
//! # Split-transaction channel queues
//!
//! Each DRAM channel additionally carries a finite **request queue** and
//! **response queue** ([`FabricConfig::req_queue_depth`] /
//! [`FabricConfig::rsp_queue_depth`], both [`sva_common::TimedQueue`]s
//! behind [`CreditPort`] handles). An access must acquire a request-queue
//! credit at its arrival: if the queue is full, admission — and therefore
//! *issue* — is delayed, and the delay is reported as the initiator's
//! [`InitiatorStats::issue_stall_cycles`]. The DMA engines propagate that
//! stall upstream into their issue pipeline (the next burst cannot issue
//! while the current one waits at the port), the batched page-table walker
//! bounds its in-flight reads by the same credits, and the host-traffic
//! stream records the stalls it observes. A grant drains the request queue
//! when its bus service starts and then occupies a **response-queue** slot
//! until the initiator retires the completion; a request is not served
//! while there is no room for its response (the wait is charged like bus
//! queueing). With both depths at `usize::MAX` — the default — nothing
//! ever stalls, no queue state is even recorded, and the fabric is
//! bit-identical to the pure interval-reservation model (the golden tests
//! pin this identity).
//!
//! With bounded queues, the grant path queries each queue's admission point
//! once ([`CreditPort::admit_at`]) and records the credit at exactly that
//! point ([`CreditPort::record_at`]): the request credit at the admission
//! found from the arrival, the response credit at the final placement the
//! loop settled on. The linear-scan reference fabric in the dev-only
//! `sva_reference` crate acquires through [`CreditPort::acquire`], which
//! repeats each query, and the `fabric_identity` suite pins the two
//! together.
//!
//! # Host and PTW traffic on the timeline
//!
//! Host loads/stores and page-table-walk reads are placed on the channel
//! timelines like everything else, so the queueing they *observe* behind
//! DMA occupancy is always measured (their `queue_cycles` accounting is
//! live even in the default configuration). What they *contribute* is
//! governed by [`FabricConfig::timed_host_ptw`]:
//!
//! * **off** (default) — host/PTW grants carry zero occupancy, reserve
//!   nothing, and their measured queueing is never charged into returned
//!   latencies. DMA placement is bit-identical to the pre-global-clock
//!   model, so pinned golden cycle counts hold.
//! * **on** (the global-clock engine) — host/PTW grants reserve their
//!   payload beats on their address's channel timeline (a deliberate
//!   simplification: even LLC-served accesses reserve their beats, standing
//!   in for the shared downstream bus) and, when
//!   [`FabricConfig::contention_enabled`] is also set, the queueing they
//!   observe is charged into their returned latencies. Host streams then
//!   slow the walker and the DMA engines down — the host-interference
//!   experiments of the paper become first-class sweeps.
//!
//! By default the measured queueing delay is **accounting only** — returned
//! latencies are unchanged, so a single-cluster platform reproduces the
//! paper's prototype cycle-for-cycle. Setting
//! [`FabricConfig::contention_enabled`] adds the delay to the returned
//! latency, which turns fabric contention into a sweepable dimension. With a
//! single initiator nothing ever queues, so charging is also
//! timing-neutral at `N = 1`.
//!
//! # Indexed placement engine
//!
//! Placement is served by [`sva_common::ReservationIndex`]: each channel's
//! reservation timeline is keyed by interval **end**, so one logarithmic
//! range probe returns the latest conflicting reservation end — finished
//! history is invisible to the probe instead of being re-scanned on every
//! retry — and the arbiter's slot/weight/membership lookups on the grant
//! path are O(1) caches. The engine is cycle-identical to the reference
//! implementation in the dev-only `sva_reference` crate (the original
//! scan-with-retry algorithm); the `fabric_identity` property suite pins
//! that identity on randomized workloads across every arbitration policy.
//!
//! Long open-loop windows additionally stay O(live reservations) rather
//! than O(grants): a caller that guarantees no future grant arrives before
//! a watermark may fold finished history with [`Fabric::compact_before`]
//! (the platform drives this when a device measurement window closes —
//! every later access is stamped from the monotone global clock). The
//! fold is observable through [`Fabric::event_count`] /
//! [`Fabric::compacted_events`] / [`Fabric::watermark`], mirroring
//! [`sva_common::TimedQueue`].

use sva_common::{
    ArbitrationPolicy, CreditPort, Cycles, InitiatorClass, InitiatorId, InitiatorStats, MemPortReq,
    PortTiming, ReservationIndex,
};

use crate::channels::{ChannelStats, DramChannelConfig};

/// Configuration of the fabric arbitration layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FabricConfig {
    /// When `true`, cross-initiator queueing delay (waiting for the shared
    /// data bus) is added to returned latencies. Off by default so
    /// single-initiator timing exactly reproduces the paper's prototype.
    pub contention_enabled: bool,
    /// Multi-channel DRAM geometry. The default single channel reproduces
    /// the paper's one shared data-bus timeline cycle-for-cycle.
    pub channels: DramChannelConfig,
    /// Which conflicting reservations a grant queues behind.
    pub policy: ArbitrationPolicy,
    /// The global-clock engine switch: when set, host and PTW grants
    /// reserve their payload beats on the channel timelines (so they block
    /// DMA and each other) and their measured queueing is charged into
    /// returned latencies whenever [`FabricConfig::contention_enabled`] is
    /// also set. Off by default so existing golden cycle counts hold.
    pub timed_host_ptw: bool,
    /// Depth of each channel's **request queue**: how many grants may sit
    /// between admission at the fabric port and the start of their bus
    /// service. A full request queue stalls the *issue* of the next access
    /// — the stall is reported as [`InitiatorStats::issue_stall_cycles`]
    /// and, for DMA engines, pushes their issue cursor back (credit-based
    /// backpressure). `usize::MAX` (the default) is unbounded: the pure
    /// reservation model, cycle-identical to the pre-split-transaction
    /// fabric.
    pub req_queue_depth: usize,
    /// Depth of each channel's **response queue**: how many completions may
    /// be outstanding between their bus grant and the initiator retiring
    /// them. A full response queue delays the grant itself (split
    /// transaction: a request is not served while there is no room for its
    /// response); the delay is charged like bus queueing. `usize::MAX` (the
    /// default) is unbounded.
    pub rsp_queue_depth: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            contention_enabled: false,
            channels: DramChannelConfig::default(),
            policy: ArbitrationPolicy::default(),
            timed_host_ptw: false,
            req_queue_depth: usize::MAX,
            rsp_queue_depth: usize::MAX,
        }
    }
}

impl FabricConfig {
    /// Whether either channel queue has a finite depth (the split-transaction
    /// flow-control machinery only runs in that case; unbounded queues cost
    /// nothing and change nothing).
    pub const fn queues_bounded(&self) -> bool {
        self.req_queue_depth != usize::MAX || self.rsp_queue_depth != usize::MAX
    }
}

/// Outcome of one fabric admission: the split of the delay an access
/// observed between waiting for a request-queue credit (issue-side
/// backpressure) and waiting on the bus/response path (downstream
/// queueing).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GrantOutcome {
    /// Cross-initiator queueing between admission and bus service (includes
    /// waiting for a response-queue slot).
    pub queue: Cycles,
    /// Stall between arrival and request-queue admission (the channel's
    /// request FIFO was full). Zero with unbounded depths.
    pub issue_stall: Cycles,
}

impl GrantOutcome {
    /// Total delay between the access's arrival and the start of its bus
    /// service.
    pub fn total_delay(&self) -> Cycles {
        self.queue + self.issue_stall
    }
}

/// Snapshot of one initiator's accounting, labelled by identity.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct InitiatorSnapshot {
    /// Who the numbers belong to.
    pub id: InitiatorId,
    /// The accumulated statistics.
    pub stats: InitiatorStats,
}

/// The data-bus timeline, channel queues and accounting of one DRAM channel.
#[derive(Debug)]
struct ChannelTimeline {
    /// Bus reservations of timed grants: an end-indexed
    /// [`ReservationIndex`], probed logarithmically for the latest
    /// conflicting end. Grows with the number of *live* reservations only —
    /// history is folded by [`Fabric::compact_before`] and dropped at
    /// window boundaries ([`Fabric::clear_timelines`]).
    reservations: ReservationIndex,
    /// The channel's request queue: a grant occupies a slot from admission
    /// until the bus starts serving it. Initiators acquire a credit here
    /// before their request enters the channel.
    req: CreditPort,
    /// The channel's response queue: a completion occupies a slot from its
    /// bus grant until the initiator retires it.
    rsp: CreditPort,
    /// Aggregate per-channel statistics.
    stats: ChannelStats,
}

impl ChannelTimeline {
    fn new(req_depth: usize, rsp_depth: usize) -> Self {
        Self {
            reservations: ReservationIndex::new(),
            req: CreditPort::new(req_depth),
            rsp: CreditPort::new(rsp_depth),
            stats: ChannelStats::default(),
        }
    }
}

impl Clone for ChannelTimeline {
    /// A cloned timeline belongs to an **independent** simulation (platform
    /// clones are independent runs): the credit queues are deep-copied so
    /// the clone cannot consume — or leak — the original's credits.
    fn clone(&self) -> Self {
        Self {
            reservations: self.reservations.clone(),
            req: self.req.deep_clone(),
            rsp: self.rsp.deep_clone(),
            stats: self.stats,
        }
    }
}

/// Direct-map initiator registry: O(1) slot resolution on the grant path,
/// replacing the linear registry scan. Scalar classes get one cell each;
/// DMA slots are indexed by IOMMU device ID (platform device IDs are small
/// and dense — one per accelerator cluster).
#[derive(Clone, Debug, Default)]
struct SlotMap {
    host: Option<usize>,
    host_stream: Option<usize>,
    ptw: Option<usize>,
    dma: Vec<Option<usize>>,
}

impl SlotMap {
    fn get(&self, id: InitiatorId) -> Option<usize> {
        match id {
            InitiatorId::Host => self.host,
            InitiatorId::HostStream => self.host_stream,
            InitiatorId::Ptw => self.ptw,
            InitiatorId::Dma { device } => self.dma.get(device as usize).copied().flatten(),
        }
    }

    fn set(&mut self, id: InitiatorId, slot: usize) {
        match id {
            InitiatorId::Host => self.host = Some(slot),
            InitiatorId::HostStream => self.host_stream = Some(slot),
            InitiatorId::Ptw => self.ptw = Some(slot),
            InitiatorId::Dma { device } => {
                let device = device as usize;
                if self.dma.len() <= device {
                    self.dma.resize(device + 1, None);
                }
                self.dma[device] = Some(slot);
            }
        }
    }
}

/// The arbitration/accounting layer in front of the shared memory path.
#[derive(Clone, Debug)]
pub struct Fabric {
    config: FabricConfig,
    /// Registration order; the order in which streams were first simulated,
    /// which is also the order first-fit placement implicitly favours.
    initiators: Vec<(InitiatorId, InitiatorStats)>,
    /// O(1) identity → slot map for the grant path.
    slots: SlotMap,
    /// One data-bus timeline per DRAM channel.
    channels: Vec<ChannelTimeline>,
    /// Accumulated timed bus occupancy per slot (the service counter of the
    /// weighted policy).
    served: Vec<u64>,
    /// Slots in the order they first placed a timed reservation; the index
    /// into this list is the weight index of the `Weighted` policy.
    timed_order: Vec<usize>,
    /// Cached per-slot policy weight, valid only while the matching
    /// [`Fabric::in_timed_order`] flag is set (written when the slot joins
    /// `timed_order`, whose membership never changes within a window).
    timed_weight: Vec<u32>,
    /// Per-slot `timed_order` membership flag — the O(1) replacement for
    /// `timed_order.contains` on every occupying grant.
    in_timed_order: Vec<bool>,
    /// The weight every non-member slot currently resolves to:
    /// `policy.weight(timed_order.len())`, refreshed whenever `timed_order`
    /// grows (a moving fallback — late joiners weigh as the *next* index).
    fallback_weight: u32,
    /// Initiator holding the most recent grant.
    last_owner: Option<InitiatorId>,
    grants: u64,
    grant_switches: u64,
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new(FabricConfig::default())
    }
}

impl Fabric {
    /// Creates a fabric with the given configuration.
    pub fn new(config: FabricConfig) -> Self {
        let n = config.channels.channels();
        let channels = (0..n)
            .map(|_| ChannelTimeline::new(config.req_queue_depth, config.rsp_queue_depth))
            .collect();
        let fallback_weight = config.policy.weight(0);
        Self {
            config,
            initiators: Vec::new(),
            slots: SlotMap::default(),
            channels,
            served: Vec::new(),
            timed_order: Vec::new(),
            timed_weight: Vec::new(),
            in_timed_order: Vec::new(),
            fallback_weight,
            last_owner: None,
            grants: 0,
            grant_switches: 0,
        }
    }

    /// The configuration this fabric was built with.
    pub const fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Registers `id` if needed and returns its slot index (O(1) via the
    /// direct map).
    fn slot(&mut self, id: InitiatorId) -> usize {
        if let Some(slot) = self.slots.get(id) {
            return slot;
        }
        let slot = self.initiators.len();
        self.initiators.push((id, InitiatorStats::default()));
        self.served.push(0);
        self.timed_weight.push(0);
        self.in_timed_order.push(false);
        self.slots.set(id, slot);
        slot
    }

    /// The weight of `slot` under the weighted policy: its position in the
    /// timed-reservation order, served from the per-slot cache (members are
    /// stamped when they join `timed_order`; everyone else resolves to the
    /// moving fallback at the list's current length).
    fn weight_of(&self, slot: usize) -> u32 {
        if self.in_timed_order[slot] {
            self.timed_weight[slot]
        } else {
            self.fallback_weight
        }
    }

    /// Whether a grant by `slot` with occupancy `occ` must queue behind a
    /// conflicting reservation `(owner, owner_prio)` under the configured
    /// policy.
    fn queues_behind(&self, slot: usize, prio: u8, occ: u64, owner: usize, owner_prio: u8) -> bool {
        if owner == slot {
            return false;
        }
        match &self.config.policy {
            ArbitrationPolicy::RoundRobin => true,
            ArbitrationPolicy::FixedPriority => owner_prio >= prio,
            ArbitrationPolicy::Weighted(_) => {
                // Queue unless this initiator's weighted service — counting
                // the access at hand — still lags the owner's.
                let me = (self.served[slot] + occ) as u128 * self.weight_of(owner) as u128;
                let them = self.served[owner] as u128 * self.weight_of(slot) as u128;
                me >= them
            }
        }
    }

    /// Grants one access and returns the cross-initiator queueing delay the
    /// access observed on its channel's data-bus timeline.
    ///
    /// Compatibility wrapper over [`Fabric::admit`] that discards the
    /// issue-stall component (always zero with the default unbounded queue
    /// depths).
    pub fn grant(&mut self, req: &MemPortReq, timing: PortTiming) -> Cycles {
        self.admit(req, timing).queue
    }

    /// Admits one access through the split-transaction flow of its channel
    /// and returns the delay split the access observed.
    ///
    /// The access first acquires a **request-queue credit** at its arrival —
    /// a full request queue delays admission, and the delay is the
    /// initiator's *issue stall* (upstream backpressure: a DMA engine's next
    /// burst cannot issue while this one waits at the port). From the
    /// admission point the grant is placed on the channel's data-bus
    /// timeline under the configured arbitration policy, additionally
    /// waiting for a **response-queue slot** (split transaction: a request
    /// is not served while there is no room for its response). The bus shift
    /// plus the response wait is the access's *queueing delay*. The grant
    /// drains the request queue when bus service starts; the completion
    /// occupies the response queue until the initiator retires it
    /// (`placed + occupancy + latency`).
    ///
    /// With both depths unbounded (the default) nothing ever stalls and the
    /// placement is bit-identical to the pure reservation model. Host and
    /// PTW grants only participate in the channel queues under the
    /// global-clock engine ([`FabricConfig::timed_host_ptw`]), mirroring
    /// their bus-occupancy rule.
    ///
    /// Placement starts at [`MemPortReq::arrival`] — every grant carries an
    /// arrival time on the global clock; there is no untimed path. The
    /// caller is responsible for deciding whether the returned delays are
    /// charged into the access's latency (see
    /// [`FabricConfig::contention_enabled`] and
    /// [`FabricConfig::timed_host_ptw`]) and for reporting the final latency
    /// via [`Fabric::note_latency`].
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

        // Split-transaction admission. Queue participation mirrors the
        // bus-occupancy rule: DMA always participates, host/PTW only under
        // the global-clock engine, and nothing participates while both
        // depths are unbounded (the flow-control machinery is skipped so
        // the default configuration is bit-identical to the pure
        // reservation model).
        let arrival = req.arrival.raw();
        let occupancy = timing.occupancy.raw();
        let participates = self.config.queues_bounded()
            && (req.initiator.class() == InitiatorClass::Device || self.config.timed_host_ptw);

        // Request-queue credit: a full request FIFO delays admission; the
        // delay is the initiator's issue stall (upstream backpressure). The
        // level found there is kept so the credit is recorded without a
        // second query (nothing touches this queue before the record).
        let (admitted, req_level) = if participates {
            let (at, level) = self.channels[channel].req.admit_at(req.arrival);
            (at.raw(), level)
        } else {
            (arrival, 0)
        };
        let issue_stall = admitted - arrival;

        // Channel timeline: every grant is placed at its admission (there is
        // no untimed traffic left); grants with zero occupancy observe
        // queueing but reserve nothing. The priority escape hatch — a
        // priority > 0 placed at its admission unconditionally — exists only
        // under RoundRobin (the PR 1 behaviour). FixedPriority folds the
        // priority into the conflict predicate (equal priorities still queue
        // behind each other), and Weighted ignores it entirely so request
        // priorities cannot defeat the configured service split. Even a
        // priority winner needs a free response-queue slot.
        let mut placed = admitted;
        let mut rsp_level = 0;
        let wins_outright =
            req.priority > 0 && matches!(self.config.policy, ArbitrationPolicy::RoundRobin);
        loop {
            if !wins_outright {
                // One logarithmic probe returns the latest conflicting
                // reservation end. Every conflicting interval blocks all
                // placements up to its own end, so jumping straight there
                // is the joint fixpoint step of the retry loop — the
                // placement is bit-identical to retrying one conflict at a
                // time (the policy predicate does not depend on `placed`).
                let conflict = self.channels[channel].reservations.max_conflicting_end(
                    placed,
                    occupancy.max(1),
                    |owner, owner_prio| {
                        self.queues_behind(slot, req.priority, occupancy, owner, owner_prio)
                    },
                );
                if let Some(end) = conflict {
                    placed = end;
                    continue;
                }
            }
            if participates {
                // Split transaction: the grant is only served once a
                // response-queue slot is free for its completion.
                let (rsp_free, level) = self.channels[channel].rsp.admit_at(Cycles::new(placed));
                if rsp_free.raw() > placed {
                    placed = rsp_free.raw();
                    continue;
                }
                rsp_level = level;
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
            // Consume the credits at the admission points found above: the
            // request occupies its queue slot from admission until bus
            // service starts, the completion occupies a response slot until
            // the initiator retires it.
            let req_occ = self.channels[channel].req.record_at(
                Cycles::new(admitted),
                req_level,
                Cycles::new(placed),
            );
            let retire = placed + occupancy + timing.latency.raw();
            let rsp_occ = self.channels[channel].rsp.record_at(
                Cycles::new(placed),
                rsp_level,
                Cycles::new(retire),
            );
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
            // Weight slots of the Weighted policy map to *DMA* initiators in
            // first-reservation order (cluster shard order on the platform);
            // host/PTW occupancy under the global-clock engine must not
            // consume a cluster's configured weight — those classes always
            // weigh the default 1 (absent slots fall back to it).
            if matches!(req.initiator, InitiatorId::Dma { .. }) && !self.in_timed_order[slot] {
                // Stamp the joiner's weight at its first-reservation index,
                // then move the non-member fallback to the next index.
                self.timed_weight[slot] = self.config.policy.weight(self.timed_order.len());
                self.in_timed_order[slot] = true;
                self.timed_order.push(slot);
                self.fallback_weight = self.config.policy.weight(self.timed_order.len());
            }
            self.served[slot] += occupancy;
            self.channels[channel].reservations.insert(
                placed,
                placed + occupancy,
                slot,
                req.priority,
            );
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

    /// The request-queue credit port of `channel` (clones share the queue,
    /// so an initiator holding the port sees the same backlog the fabric
    /// does).
    pub fn req_port(&self, channel: usize) -> CreditPort {
        self.channels[channel].req.clone()
    }

    /// The response-queue credit port of `channel`.
    pub fn rsp_port(&self, channel: usize) -> CreditPort {
        self.channels[channel].rsp.clone()
    }

    /// The request-queue credit port serving `addr` (routed like a grant).
    pub fn req_port_for(&self, addr: sva_common::PhysAddr) -> CreditPort {
        self.req_port(self.config.channels.channel_for(addr))
    }

    /// Records the final latency (including any charged queueing) the
    /// initiator observed for its most recent grant.
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

    /// Snapshot of every initiator's statistics, in registration order.
    pub fn snapshot(&self) -> Vec<InitiatorSnapshot> {
        self.initiators
            .iter()
            .map(|&(id, stats)| InitiatorSnapshot { id, stats })
            .collect()
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

    /// Number of DRAM channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Per-channel statistics, indexed by channel.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(|c| c.stats).collect()
    }

    /// Total grants issued since the last reset.
    pub const fn grants(&self) -> u64 {
        self.grants
    }

    /// Grants whose initiator differed from the previous grant's (a measure
    /// of how interleaved the traffic is).
    pub const fn grant_switches(&self) -> u64 {
        self.grant_switches
    }

    /// Clears all statistics and every channel timeline; registered
    /// initiators are forgotten so a fresh measurement window starts clean.
    pub fn reset(&mut self) {
        let config = self.config.clone();
        *self = Self::new(config);
    }

    /// Folds every reservation ending at or before `watermark` out of the
    /// placement index on every channel, together with the channel queues'
    /// finished entries ([`CreditPort::compact_before`]).
    ///
    /// # Contract
    ///
    /// The caller guarantees that **no future grant arrives before the
    /// watermark** — the same promise
    /// [`sva_common::TimedQueue::compact_before`] demands. Under it the
    /// fold is exact: every later probe answers as if nothing had been
    /// folded, because a reservation ending at or before the watermark can
    /// never conflict with a placement at or past it. The platform holds
    /// the promise when a device measurement window closes (all later
    /// traffic is stamped from the monotone global clock); mid-window
    /// compaction is **not** generally safe — late-registering cluster
    /// shards restart their local cursors at zero.
    ///
    /// Watermarks are monotone; an older watermark is a no-op. The fold is
    /// observable through [`Fabric::event_count`] /
    /// [`Fabric::compacted_events`] / [`Fabric::watermark`].
    pub fn compact_before(&mut self, watermark: Cycles) {
        for ch in &mut self.channels {
            ch.reservations.compact_before(watermark.raw());
            ch.req.compact_before(watermark);
            ch.rsp.compact_before(watermark);
        }
    }

    /// Live (uncompacted) bus reservations across every channel index — the
    /// working-set size the placement probe walks in the worst case.
    pub fn event_count(&self) -> usize {
        self.channels
            .iter()
            .map(|ch| ch.reservations.event_count())
            .sum()
    }

    /// Reservations folded by [`Fabric::compact_before`] across every
    /// channel since the last [`Fabric::reset`]; together with
    /// [`Fabric::event_count`] this accounts for every timed reservation of
    /// the run.
    pub fn compacted_events(&self) -> u64 {
        self.channels
            .iter()
            .map(|ch| ch.reservations.compacted_events())
            .sum()
    }

    /// The lowest channel compaction watermark: probes at or past it are
    /// exact on every channel. Zero until the first compaction (and again
    /// after each window boundary).
    pub fn watermark(&self) -> Cycles {
        Cycles::new(
            self.channels
                .iter()
                .map(|ch| ch.reservations.watermark())
                .min()
                .unwrap_or(0),
        )
    }

    /// Drops every channel's reservations while keeping all accumulated
    /// statistics: a new measurement window opens (every initiator's local
    /// cursor returns to zero on the global clock), so reservations stamped
    /// in the previous window must not collide with the new one. The
    /// compaction watermark resets with the timeline — cycle 0 of the new
    /// window is insertable and probes below the old watermark are exact
    /// again — while the `compacted_events` total survives as a run-level
    /// statistic (mirroring [`sva_common::TimedQueue::clear_entries`]).
    pub fn clear_timelines(&mut self) {
        for ch in &mut self.channels {
            ch.reservations.clear();
            // Credits held in the previous window must not leak into the
            // new one: local cursors restart at zero, and stale queue
            // entries stamped late in the old window would otherwise stall
            // (or block) fresh arrivals forever.
            ch.req.clear_entries();
            ch.rsp.clear_entries();
        }
        for served in &mut self.served {
            *served = 0;
        }
        self.timed_order.clear();
        for member in &mut self.in_timed_order {
            *member = false;
        }
        self.fallback_weight = self.config.policy.weight(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_common::PhysAddr;

    fn burst_req(device: u32, len: u64) -> MemPortReq {
        MemPortReq::read(InitiatorId::dma(device), PhysAddr::new(0x8000_0000), len).as_burst()
    }

    fn burst_req_at(device: u32, addr: u64, len: u64) -> MemPortReq {
        MemPortReq::read(InitiatorId::dma(device), PhysAddr::new(addr), len).as_burst()
    }

    fn timing(latency: u64, occupancy: u64) -> PortTiming {
        PortTiming {
            latency: Cycles::new(latency),
            occupancy: Cycles::new(occupancy),
        }
    }

    /// Host accesses are timed now: a host load arriving while a DMA burst
    /// occupies the bus records the wait it would observe. Replaces the
    /// pre-global-clock `untimed_accesses_never_queue` (the untimed fast
    /// path it pinned no longer exists).
    #[test]
    fn timed_host_accesses_queue_behind_dma_occupancy() {
        let mut fabric = Fabric::default();
        // A DMA burst reserves the bus for [0, 256).
        fabric.grant(&burst_req(1, 2048).at(Cycles::ZERO), timing(200, 256));
        // A host load arriving mid-burst observes the remaining occupancy.
        let q = fabric.grant(
            &MemPortReq::read(InitiatorId::Host, PhysAddr::new(0x8000_0000), 8)
                .at(Cycles::new(100)),
            timing(30, 0),
        );
        assert_eq!(q, Cycles::new(156), "wait until the burst drains");
        let host = fabric.initiator_stats(InitiatorId::Host).unwrap();
        assert_eq!(host.queue_cycles, 156);
        assert_eq!(host.contended_grants, 1);
        // A host load arriving after the burst has drained does not queue,
        // and zero-occupancy host grants never reserve the timeline.
        let q2 = fabric.grant(
            &MemPortReq::read(InitiatorId::Host, PhysAddr::new(0x8000_0000), 8)
                .at(Cycles::new(300)),
            timing(30, 0),
        );
        assert_eq!(q2, Cycles::ZERO);
        let q3 = fabric.grant(&burst_req(3, 2048).at(Cycles::new(300)), timing(200, 256));
        assert_eq!(q3, Cycles::ZERO, "occupancy-free host grants block nobody");
    }

    /// Property (DeterministicRng-driven): for random interleavings of DMA
    /// bursts and zero-occupancy host probes, every host probe's measured
    /// queueing equals the remaining occupancy of the busy interval covering
    /// its arrival on the reference timeline, and zero-occupancy probes never
    /// change DMA placement.
    #[test]
    fn host_queueing_matches_reference_timeline_property() {
        use sva_common::rng::DeterministicRng;
        let mut rng = DeterministicRng::new(0xBADC_0FFE);
        for round in 0..50u64 {
            let mut fabric = Fabric::default();
            let mut probe_only = Fabric::default();
            // Busy intervals of one DMA stream: paced so they never overlap
            // each other (a single engine pipelines its own bursts).
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            let mut t = 0u64;
            for _ in 0..8 {
                t += 10 + rng.next_below(500);
                let occ = 16 + rng.next_below(300);
                let q = fabric.grant(&burst_req(1, 2048).at(Cycles::new(t)), timing(100, occ));
                probe_only.grant(&burst_req(1, 2048).at(Cycles::new(t)), timing(100, occ));
                assert_eq!(q, Cycles::ZERO, "round {round}: single stream never queues");
                intervals.push((t, t + occ));
                t += occ;
            }
            // Host probes at random arrivals; expected wait from the
            // reference interval list.
            for _ in 0..16 {
                let arrival = rng.next_below(t + 200);
                let req = MemPortReq::read(InitiatorId::Host, PhysAddr::new(0x8000_0000), 8)
                    .at(Cycles::new(arrival));
                let q = fabric.grant(&req, timing(30, 0)).raw();
                let expected = intervals
                    .iter()
                    .find(|&&(s, e)| s <= arrival && arrival < e)
                    .map(|&(_, e)| e - arrival)
                    .unwrap_or(0);
                assert_eq!(q, expected, "round {round}: probe at {arrival}");
            }
            // The probes reserved nothing: a second DMA stream sees the same
            // placement in both fabrics.
            let late = t + 1000;
            for i in 0..4u64 {
                let arrival = Cycles::new(late + i * 50);
                let a = fabric.grant(&burst_req(3, 2048).at(arrival), timing(100, 256));
                let b = probe_only.grant(&burst_req(3, 2048).at(arrival), timing(100, 256));
                assert_eq!(a, b, "round {round}: probes must not perturb DMA placement");
            }
        }
    }

    #[test]
    fn overlapping_timed_streams_record_contention() {
        let mut fabric = Fabric::default();
        // Cluster 0 occupies the bus for [0, 256).
        let q0 = fabric.grant(&burst_req(1, 2048).at(Cycles::ZERO), timing(200, 256));
        assert_eq!(q0, Cycles::ZERO);
        // Cluster 1 arrives at cycle 10 while the bus is busy.
        let q1 = fabric.grant(&burst_req(3, 2048).at(Cycles::new(10)), timing(200, 256));
        assert_eq!(q1, Cycles::new(246));
        let s1 = fabric.initiator_stats(InitiatorId::dma(3)).unwrap();
        assert_eq!(s1.queue_cycles, 246);
        assert_eq!(s1.contended_grants, 1);
        assert_eq!(fabric.grant_switches(), 1);
    }

    #[test]
    fn same_initiator_pipelining_is_not_contention() {
        let mut fabric = Fabric::default();
        fabric.grant(&burst_req(1, 2048).at(Cycles::ZERO), timing(200, 256));
        // The same engine's next burst at cycle 1 overlaps its own traffic:
        // that pipelining is modelled by the DMA engine, not the fabric.
        let q = fabric.grant(&burst_req(1, 2048).at(Cycles::new(1)), timing(200, 256));
        assert_eq!(q, Cycles::ZERO);
        assert_eq!(
            fabric
                .initiator_stats(InitiatorId::dma(1))
                .unwrap()
                .queue_cycles,
            0
        );
    }

    #[test]
    fn totals_merge_all_initiators() {
        let mut fabric = Fabric::default();
        fabric.grant(&burst_req(1, 100).at(Cycles::ZERO), timing(10, 5));
        fabric.grant(
            &MemPortReq::write(InitiatorId::Host, PhysAddr::new(0x2000), 50).at(Cycles::new(100)),
            timing(10, 2),
        );
        fabric.note_latency(InitiatorId::dma(1), Cycles::new(10));
        fabric.note_latency(InitiatorId::Host, Cycles::new(12));
        let total = fabric.total();
        assert_eq!(total.accesses(), 2);
        assert_eq!(total.bytes, 150);
        assert_eq!(total.latency_cycles, 22);
        assert_eq!(fabric.initiator_count(), 2);
        assert_eq!(fabric.grants(), 2);
    }

    #[test]
    fn reset_clears_registry_and_timeline() {
        let mut fabric = Fabric::new(FabricConfig {
            contention_enabled: true,
            ..FabricConfig::default()
        });
        fabric.grant(&burst_req(1, 2048).at(Cycles::ZERO), timing(200, 256));
        fabric.reset();
        assert_eq!(fabric.initiator_count(), 0);
        assert_eq!(fabric.grants(), 0);
        assert!(fabric.config().contention_enabled, "config survives reset");
        // A burst arriving at cycle 0 after reset sees a free bus.
        let q = fabric.grant(&burst_req(3, 2048).at(Cycles::ZERO), timing(200, 256));
        assert_eq!(q, Cycles::ZERO);
    }

    #[test]
    fn clear_timelines_keeps_stats_but_frees_the_bus() {
        let mut fabric = Fabric::default();
        fabric.grant(&burst_req(1, 2048).at(Cycles::ZERO), timing(200, 256));
        let q = fabric.grant(&burst_req(3, 2048).at(Cycles::new(10)), timing(200, 256));
        assert_eq!(q, Cycles::new(246));
        fabric.clear_timelines();
        // Accounting survives the window boundary...
        assert_eq!(fabric.grants(), 2);
        assert_eq!(
            fabric
                .initiator_stats(InitiatorId::dma(3))
                .unwrap()
                .queue_cycles,
            246
        );
        // ...but the new window's cycle 0 sees a free bus.
        let q2 = fabric.grant(&burst_req(5, 2048).at(Cycles::ZERO), timing(200, 256));
        assert_eq!(q2, Cycles::ZERO);
    }

    #[test]
    fn priority_wins_arbitration_without_queueing() {
        let mut fabric = Fabric::default();
        // A priority-0 stream holds the bus for [0, 256).
        fabric.grant(&burst_req(1, 2048).at(Cycles::ZERO), timing(200, 256));
        // A priority-1 access arriving mid-interval does not queue...
        let req = burst_req(3, 2048).with_priority(1).at(Cycles::new(10));
        let q = fabric.grant(&req, timing(200, 256));
        assert_eq!(q, Cycles::ZERO);
        assert_eq!(
            fabric
                .initiator_stats(InitiatorId::dma(3))
                .unwrap()
                .queue_cycles,
            0
        );
        // ...but its occupancy [10, 266) still blocks later priority-0
        // traffic from a third initiator.
        let q0 = fabric.grant(&burst_req(5, 2048).at(Cycles::new(20)), timing(200, 256));
        assert_eq!(q0, Cycles::new(246), "queues behind the priority grant");
    }

    #[test]
    fn reservation_window_prunes_correctly_across_magnitudes() {
        // Long-lived timeline: early large interval, then far-future small
        // ones; the max-length window must still find the early conflict.
        let mut fabric = Fabric::default();
        fabric.grant(&burst_req(1, 2048).at(Cycles::ZERO), timing(0, 10_000));
        let q = fabric.grant(&burst_req(3, 64).at(Cycles::new(9_999)), timing(0, 8));
        assert_eq!(q, Cycles::new(1), "tail of the long interval conflicts");
        let q2 = fabric.grant(&burst_req(3, 64).at(Cycles::new(50_000)), timing(0, 8));
        assert_eq!(q2, Cycles::ZERO, "far beyond every reservation");
    }

    /// Compaction folds only finished reservations and is exact for every
    /// grant at or past the watermark: a compacted fabric and an
    /// uncompacted twin place identically while the live set stays bounded.
    #[test]
    fn compaction_is_exact_for_grants_past_the_watermark() {
        let mut compacted = Fabric::default();
        let mut reference = Fabric::default();
        let mut t = 0u64;
        for i in 0..64u64 {
            t += 5 + (i * 7) % 40;
            let occ = 8 + (i * 13) % 120;
            let req = burst_req(1 + (i % 3) as u32 * 2, 2048).at(Cycles::new(t));
            let a = compacted.admit(&req, timing(100, occ));
            let b = reference.admit(&req, timing(100, occ));
            assert_eq!(a, b, "grant {i} diverged under compaction");
            if i % 8 == 7 {
                // Arrivals are monotone in this stream, so "now" is a valid
                // no-earlier-arrival watermark.
                compacted.compact_before(Cycles::new(t));
            }
        }
        assert!(compacted.watermark() > Cycles::ZERO);
        assert!(compacted.compacted_events() > 0);
        assert!(
            compacted.event_count() < reference.event_count(),
            "the live set must shrink: {} vs {}",
            compacted.event_count(),
            reference.event_count()
        );
        assert_eq!(
            compacted.compacted_events() + compacted.event_count() as u64,
            reference.event_count() as u64,
            "folded + live accounts for every reservation"
        );
        assert_eq!(compacted.total(), reference.total());
        assert_eq!(compacted.channel_stats(), reference.channel_stats());
    }

    /// Window boundary: `clear_timelines` resets the compaction watermark
    /// and the live index alongside reservations and credits — cycle 0 of
    /// the new window is insertable again — while the `compacted_events`
    /// run total survives like every other accumulated statistic.
    #[test]
    fn clear_timelines_resets_compaction_state() {
        let mut fabric = Fabric::default();
        for i in 0..16u64 {
            fabric.grant(
                &burst_req(1, 2048).at(Cycles::new(i * 300)),
                timing(100, 256),
            );
        }
        fabric.compact_before(Cycles::new(4000));
        assert_eq!(fabric.watermark(), Cycles::new(4000));
        let folded = fabric.compacted_events();
        assert!(folded > 0);
        fabric.clear_timelines();
        assert_eq!(fabric.watermark(), Cycles::ZERO, "watermark resets");
        assert_eq!(fabric.event_count(), 0, "live index drops");
        assert_eq!(fabric.compacted_events(), folded, "run total survives");
        // The new window's cycle 0 — far below the old watermark — is a
        // legal reservation point again.
        let q = fabric.grant(&burst_req(3, 2048).at(Cycles::ZERO), timing(100, 256));
        assert_eq!(q, Cycles::ZERO);
        assert_eq!(fabric.event_count(), 1);
    }

    /// Compaction never changes `served`-occupancy arbitration outcomes for
    /// the Weighted policy: the deficit counters live outside the index, so
    /// a compacted fabric keeps the exact same service split as its
    /// uncompacted twin.
    #[test]
    fn weighted_arbitration_outcomes_survive_compaction() {
        let run = |compact: bool| -> Vec<GrantOutcome> {
            let mut fabric = Fabric::new(FabricConfig {
                policy: ArbitrationPolicy::Weighted(vec![8, 1]),
                ..FabricConfig::default()
            });
            let mut outcomes = Vec::new();
            for i in 0..48u64 {
                let t = Cycles::new(i * 40);
                outcomes.push(fabric.admit(&burst_req(1, 2048).at(t), timing(200, 256)));
                outcomes.push(fabric.admit(&burst_req(3, 2048).at(t), timing(200, 256)));
                if compact && i % 6 == 5 {
                    fabric.compact_before(t);
                }
            }
            outcomes
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn different_channels_never_conflict() {
        let mut fabric = Fabric::new(FabricConfig {
            channels: DramChannelConfig::interleaved(2),
            ..FabricConfig::default()
        });
        // 0x8000_0000 and 0x8000_1000 are consecutive 4 KiB granules: they
        // land on different channels, so fully overlapping bursts from two
        // initiators both place at their arrival.
        fabric.grant(
            &burst_req_at(1, 0x8000_0000, 2048).at(Cycles::ZERO),
            timing(200, 256),
        );
        let q = fabric.grant(
            &burst_req_at(3, 0x8000_1000, 2048).at(Cycles::new(10)),
            timing(200, 256),
        );
        assert_eq!(q, Cycles::ZERO, "different channel, no conflict");
        // Same channel as the first burst still conflicts.
        let q2 = fabric.grant(
            &burst_req_at(3, 0x8000_0800, 2048).at(Cycles::new(10)),
            timing(200, 256),
        );
        assert_eq!(q2, Cycles::new(246));
        let per_channel = fabric.channel_stats();
        assert_eq!(per_channel.len(), 2);
        assert_eq!(per_channel[0].grants, 2);
        assert_eq!(per_channel[1].grants, 1);
        assert_eq!(per_channel[0].queue_cycles, 246);
        assert_eq!(per_channel[1].queue_cycles, 0);
    }

    #[test]
    fn channel_stats_conserve_totals() {
        let mut fabric = Fabric::new(FabricConfig {
            channels: DramChannelConfig::interleaved(4),
            ..FabricConfig::default()
        });
        for i in 0..16u64 {
            fabric.grant(
                &burst_req_at(1 + 2 * (i % 3) as u32, 0x8000_0000 + i * 4096, 1024)
                    .at(Cycles::new(i * 10)),
                timing(100, 128),
            );
        }
        let total = fabric.total();
        let per_channel = fabric.channel_stats();
        assert_eq!(
            per_channel.iter().map(|c| c.bytes).sum::<u64>(),
            total.bytes
        );
        assert_eq!(
            per_channel.iter().map(|c| c.occupancy_cycles).sum::<u64>(),
            total.occupancy_cycles
        );
        assert_eq!(
            per_channel.iter().map(|c| c.queue_cycles).sum::<u64>(),
            total.queue_cycles
        );
        assert_eq!(per_channel.iter().map(|c| c.grants).sum::<u64>(), 16);
    }

    #[test]
    fn fixed_priority_orders_strictly() {
        let mut fabric = Fabric::new(FabricConfig {
            policy: ArbitrationPolicy::FixedPriority,
            ..FabricConfig::default()
        });
        // Low-priority stream reserves [0, 256).
        fabric.grant(&burst_req(1, 2048).at(Cycles::ZERO), timing(200, 256));
        // A high-priority grant ignores it and places at arrival.
        let hi = burst_req(3, 2048).with_priority(2).at(Cycles::new(10));
        assert_eq!(fabric.grant(&hi, timing(200, 256)), Cycles::ZERO);
        // An equal-priority grant queues behind the high one (strict
        // ordering within a level), not behind the low one it outranks.
        let eq = burst_req(5, 2048).with_priority(2).at(Cycles::new(20));
        let q = fabric.grant(&eq, timing(200, 256));
        assert_eq!(
            q,
            Cycles::new(246),
            "queues to the end of the prio-2 interval"
        );
    }

    #[test]
    fn weighted_equal_weights_alternate_the_queueing_burden() {
        // Under RoundRobin the first-simulated stream never queues; under
        // Weighted([1, 1]) the deficit counter alternates who waits.
        let mut fabric = Fabric::new(FabricConfig {
            policy: ArbitrationPolicy::Weighted(vec![1, 1]),
            ..FabricConfig::default()
        });
        let mut queues = [0u64; 2];
        for i in 0..8u64 {
            let t = Cycles::new(i * 10);
            queues[0] += fabric
                .grant(&burst_req(1, 2048).at(t), timing(200, 256))
                .raw();
            queues[1] += fabric
                .grant(&burst_req(3, 2048).at(t), timing(200, 256))
                .raw();
        }
        assert!(queues[0] > 0, "first stream also queues: {queues:?}");
        assert!(queues[1] > 0, "second stream also queues: {queues:?}");
    }

    #[test]
    fn weighted_ignores_request_priorities() {
        // A priority > 0 must not bypass the weighted service split: an
        // over-served initiator queues even when its requests carry the
        // round-robin escape-hatch priority.
        let mut fabric = Fabric::new(FabricConfig {
            policy: ArbitrationPolicy::Weighted(vec![1, 1]),
            ..FabricConfig::default()
        });
        fabric.grant(&burst_req(1, 2048).at(Cycles::ZERO), timing(200, 256));
        let q1 = fabric.grant(
            &burst_req(3, 2048).with_priority(1).at(Cycles::ZERO),
            timing(200, 256),
        );
        assert_eq!(
            q1,
            Cycles::new(256),
            "equal service: the later grant queues"
        );
        // The same sequence under RoundRobin takes the escape hatch.
        let mut rr = Fabric::default();
        rr.grant(&burst_req(1, 2048).at(Cycles::ZERO), timing(200, 256));
        let q2 = rr.grant(
            &burst_req(3, 2048).with_priority(1).at(Cycles::ZERO),
            timing(200, 256),
        );
        assert_eq!(q2, Cycles::ZERO);
    }

    #[test]
    fn weighted_slots_are_not_consumed_by_host_occupancy() {
        // Under the global-clock engine host accesses reserve occupancy; a
        // host grant arriving before any DMA must not claim the first
        // weight slot — the configured 8:1 split still lands on the two DMA
        // streams, exactly as in the host-free run.
        let run = |with_host: bool| -> [u64; 2] {
            let mut fabric = Fabric::new(FabricConfig {
                policy: ArbitrationPolicy::Weighted(vec![8, 1]),
                timed_host_ptw: true,
                ..FabricConfig::default()
            });
            if with_host {
                fabric.grant(
                    &MemPortReq::read(InitiatorId::Host, PhysAddr::new(0x8000_0000), 64)
                        .at(Cycles::ZERO),
                    timing(30, 8),
                );
            }
            for i in 0..16u64 {
                let t = Cycles::new(1000 + i * 20);
                fabric.grant(&burst_req(1, 2048).at(t), timing(200, 256));
                fabric.grant(&burst_req(3, 2048).at(t), timing(200, 256));
            }
            [
                fabric
                    .initiator_stats(InitiatorId::dma(1))
                    .unwrap()
                    .queue_cycles,
                fabric
                    .initiator_stats(InitiatorId::dma(3))
                    .unwrap()
                    .queue_cycles,
            ]
        };
        let clean = run(false);
        let with_host = run(true);
        assert_eq!(
            clean, with_host,
            "a preceding host reservation must not shift the DMA weight slots"
        );
        assert!(
            with_host[0] < with_host[1],
            "weight 8 stays on the first DMA stream: {with_host:?}"
        );
    }

    fn bounded(req: usize, rsp: usize) -> Fabric {
        Fabric::new(FabricConfig {
            req_queue_depth: req,
            rsp_queue_depth: rsp,
            ..FabricConfig::default()
        })
    }

    /// A full request queue delays admission and the delay is reported as
    /// the issue-stall component, split from the bus queueing.
    #[test]
    fn full_request_queue_stalls_issue_and_splits_the_delay() {
        let mut fabric = bounded(1, usize::MAX);
        // Initiator 1 reserves the bus for [0, 1000): a long head-of-line
        // burst.
        fabric.admit(&burst_req(1, 2048).at(Cycles::ZERO), timing(100, 1000));
        // Initiator 3 arrives at 10: its request is admitted (slot free —
        // owner 1's request drained at its own placement) but queues on the
        // bus until 1000. Its request entry holds the single slot for
        // [10, 1000).
        let o3 = fabric.admit(&burst_req(3, 2048).at(Cycles::new(10)), timing(100, 256));
        assert_eq!(o3.issue_stall, Cycles::ZERO);
        assert_eq!(o3.queue, Cycles::new(990));
        // Initiator 5 arrives at 20: the request queue is full (3's entry
        // covers 20), so issue stalls until 3's request drains at 1000,
        // then queues behind 3's bus occupancy [1000, 1256).
        let o5 = fabric.admit(&burst_req(5, 2048).at(Cycles::new(20)), timing(100, 256));
        assert_eq!(o5.issue_stall, Cycles::new(980), "wait for the req slot");
        assert_eq!(o5.queue, Cycles::new(256), "then queue behind the bus");
        let s5 = fabric.initiator_stats(InitiatorId::dma(5)).unwrap();
        assert_eq!(s5.issue_stall_cycles, 980);
        assert_eq!(s5.queue_cycles, 256);
        assert_eq!(s5.req_queue_peak, 1);
        let total = fabric.total();
        assert_eq!(total.issue_stall_cycles, 980);
        let ch = fabric.channel_stats();
        assert_eq!(ch[0].issue_stall_cycles, 980);
        assert!(ch[0].req_queue_peak >= 1);
    }

    /// Split transaction: a grant is not served while there is no room for
    /// its response, even when the bus itself is free.
    #[test]
    fn full_response_queue_delays_grants() {
        let mut fabric = bounded(usize::MAX, 1);
        // Zero-occupancy device grants: nothing is reserved on the bus, so
        // any delay can only come from the response queue. The first
        // response occupies its slot for [0, 0 + 0 + 500) = [0, 500).
        let o1 = fabric.admit(&burst_req(1, 64).at(Cycles::ZERO), timing(500, 0));
        assert_eq!(o1.queue, Cycles::ZERO);
        let o3 = fabric.admit(&burst_req(3, 64).at(Cycles::new(10)), timing(500, 0));
        assert_eq!(
            o3.queue,
            Cycles::new(490),
            "the grant waits for the response slot"
        );
        assert_eq!(o3.issue_stall, Cycles::ZERO);
        let s3 = fabric.initiator_stats(InitiatorId::dma(3)).unwrap();
        assert_eq!(s3.rsp_queue_peak, 1);
    }

    /// A cloned fabric is an independent simulation: credits acquired in
    /// one must not be consumed from — or leak into — the other.
    #[test]
    fn cloned_fabric_has_independent_credit_queues() {
        let mut a = bounded(1, 1);
        a.admit(&burst_req(1, 2048).at(Cycles::ZERO), timing(100, 1000));
        let mut b = a.clone();
        assert!(
            !a.req_port(0).shares_queue_with(&b.req_port(0)),
            "clones must deep-copy the credit queues"
        );
        // Fill A's request queue further; B's admission point is untouched.
        a.admit(&burst_req(3, 2048).at(Cycles::new(10)), timing(100, 256));
        let before = b.req_port(0).admission_at(Cycles::new(20));
        let ob = b.admit(&burst_req(5, 2048).at(Cycles::new(20)), timing(100, 256));
        assert_eq!(before, Cycles::new(20), "B's slot was still free");
        assert_eq!(ob.issue_stall, Cycles::ZERO, "A's grant must not stall B");
    }

    /// A new measurement window releases every credit: stale queue entries
    /// from the previous window must not stall (or block) arrivals whose
    /// local cursors restarted at zero.
    #[test]
    fn clear_timelines_releases_credits() {
        let mut fabric = bounded(1, 1);
        fabric.admit(&burst_req(1, 2048).at(Cycles::ZERO), timing(100, 1000));
        let stalled = fabric.admit(&burst_req(3, 2048).at(Cycles::new(10)), timing(100, 256));
        assert!(stalled.queue + stalled.issue_stall > Cycles::ZERO);
        fabric.clear_timelines();
        // The new window's cycle 0 sees free queues and a free bus...
        let fresh = fabric.admit(&burst_req(5, 2048).at(Cycles::ZERO), timing(100, 256));
        assert_eq!(fresh.queue, Cycles::ZERO);
        assert_eq!(fresh.issue_stall, Cycles::ZERO);
        // ...while the accumulated statistics survive the boundary.
        assert!(fabric.total().queue_cycles + fabric.total().issue_stall_cycles > 0);
    }

    /// Host and PTW grants only participate in the channel queues under the
    /// global-clock engine, mirroring their bus-occupancy rule — a bounded
    /// fabric without `timed_host_ptw` never stalls them.
    #[test]
    fn host_ptw_only_take_credits_under_the_timed_engine() {
        let run = |timed: bool| -> (Cycles, Cycles) {
            let mut fabric = Fabric::new(FabricConfig {
                req_queue_depth: 1,
                rsp_queue_depth: 1,
                timed_host_ptw: timed,
                ..FabricConfig::default()
            });
            fabric.admit(&burst_req(1, 2048).at(Cycles::ZERO), timing(100, 1000));
            fabric.admit(&burst_req(3, 2048).at(Cycles::new(5)), timing(100, 256));
            let host = fabric.admit(
                &MemPortReq::read(InitiatorId::Host, PhysAddr::new(0x8000_0000), 8)
                    .at(Cycles::new(10)),
                timing(30, if timed { 1 } else { 0 }),
            );
            (host.issue_stall, host.queue)
        };
        let (untimed_stall, _) = run(false);
        assert_eq!(
            untimed_stall,
            Cycles::ZERO,
            "untimed host traffic never takes request-queue credits"
        );
        let (timed_stall, timed_queue) = run(true);
        assert!(
            timed_stall + timed_queue > Cycles::ZERO,
            "the timed engine makes host grants compete for credits"
        );
    }

    #[test]
    fn weighted_favours_the_heavy_initiator() {
        let run = |weights: Vec<u32>| -> [u64; 2] {
            let mut fabric = Fabric::new(FabricConfig {
                policy: ArbitrationPolicy::Weighted(weights),
                ..FabricConfig::default()
            });
            for i in 0..16u64 {
                let t = Cycles::new(i * 20);
                fabric.grant(&burst_req(1, 2048).at(t), timing(200, 256));
                fabric.grant(&burst_req(3, 2048).at(t), timing(200, 256));
            }
            [
                fabric
                    .initiator_stats(InitiatorId::dma(1))
                    .unwrap()
                    .queue_cycles,
                fabric
                    .initiator_stats(InitiatorId::dma(3))
                    .unwrap()
                    .queue_cycles,
            ]
        };
        let fair = run(vec![1, 1]);
        let skewed = run(vec![8, 1]);
        assert!(
            skewed[0] < fair[0],
            "weight 8 must cut the heavy stream's queueing: {skewed:?} vs {fair:?}"
        );
        assert!(
            skewed[1] >= fair[1],
            "the light stream absorbs the burden: {skewed:?} vs {fair:?}"
        );
    }
}
