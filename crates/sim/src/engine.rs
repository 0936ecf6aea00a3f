//! The simulation engine's public face and its classic routing seam.
//!
//! One [`Engine`] run replays a [`Workload`] against a machine described by
//! [`SimConfig`] under a [`MemoryPolicy`], producing a [`SimReport`].
//!
//! # Execution model
//!
//! * Warps are the schedulable entities. Each GPU's warps, caches, TLB and
//!   DRAM form one lane, and one warp-step core (in `lanes.rs`) times every
//!   instruction for both engines. Resume events are ordered by
//!   `(time, sequence)`, so cross-GPU fabric contention is booked in (near)
//!   time order and runs are deterministic.
//! * Each SM owns an issue port: one warp instruction issues per cycle;
//!   `Compute(c)` occupies the port for `c` cycles (other warps on other
//!   SMs proceed; other warps on the *same* SM queue behind it — the
//!   standard throughput abstraction for a system-level model).
//! * Loads stall their warp until every line of the coalesced range has
//!   arrived; stores and atomics never stall (the asymmetry GPS exploits).
//! * CTAs are scheduled onto SMs with bounded residency
//!   ([`GpuConfig::cta_slots_per_sm`]); finished CTAs free their slot for
//!   pending CTAs of the same grid.
//! * Kernels launched on the same GPU within a phase run back-to-back with
//!   a launch overhead; a phase ends with a global barrier at which the
//!   policy may copy data (memcpy paradigm) or drain write queues (GPS).
//!
//! # Two routes, one core
//!
//! The core reaches the memory system through a routing seam. The classic
//! engine's seam, [`ClassicRoute`], calls the policy inline on the shared
//! fabric, and [`drain_global`] drains all lanes in global
//! `(time, push sequence)` order — the order one global event heap would
//! pop. The lane engine's seam routes from lane-local state and defers
//! cross-lane effects to window barriers (see `lanes.rs`).
//!
//! [`GpuConfig::cta_slots_per_sm`]: crate::GpuConfig::cta_slots_per_sm

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gps_interconnect::{Fabric, LinkGen};
use gps_mem::{Tlb, TlbConfig};
use gps_obs::ProbeHandle;
use gps_types::{Cycle, GpsError, GpuId, LineAddr, PageSize, Result, Scope, Vpn, CACHE_LINE_BYTES};

use crate::cache::{Cache, CacheConfig, Lookup};
use crate::config::{GpuConfig, SimConfig};
use crate::dram::DramModel;
use crate::instr::WarpStream;
use crate::lanes::{Lane, Route};
use crate::pipeline::{expand_cta, BufferArena, CtaPrefetcher};
use crate::policy::{LoadRoute, MemCtx, MemoryPolicy, StoreRoute};
use crate::stats::{GpuReport, SimReport, TlbCounts};
use crate::workload::{KernelSpec, Workload};

/// Replays one workload under one memory policy.
///
/// ```
/// use std::sync::Arc;
/// use gps_sim::{AllLocalPolicy, Engine, KernelSpec, SimConfig,
///               WarpCtx, WarpInstr, WorkloadBuilder};
/// use gps_interconnect::LinkGen;
/// use gps_types::{GpuId, PageSize};
///
/// let mut b = WorkloadBuilder::new("demo", PageSize::Standard64K, 1);
/// let data = b.alloc_shared("data", 1 << 20)?;
/// let line = data.base().line();
/// b.phase(vec![KernelSpec {
///     name: "touch".into(),
///     gpu: GpuId::new(0),
///     cta_count: 4,
///     warps_per_cta: 2,
///     program: Arc::new(move |_: WarpCtx| vec![WarpInstr::load1(line)]),
/// }]);
/// let workload = b.build(1)?;
///
/// let mut policy = AllLocalPolicy::new();
/// let report = Engine::new(SimConfig::gv100_system(1), LinkGen::Pcie3,
///                          &workload, &mut policy)?
///     .run();
/// assert_eq!(report.per_gpu[0].warps, 8);
/// # Ok::<(), gps_types::GpsError>(())
/// ```
pub struct Engine<'a> {
    pub(crate) config: SimConfig,
    pub(crate) link: LinkGen,
    pub(crate) workload: &'a Workload,
    pub(crate) policy: &'a mut dyn MemoryPolicy,
    pub(crate) probe: ProbeHandle,
}

pub(crate) struct GpuState {
    pub(crate) sm_issue: Vec<Cycle>,
    pub(crate) sm_busy: u64,
    pub(crate) l1: Vec<Cache>,
    pub(crate) l1_hits: u64,
    pub(crate) l1_misses: u64,
    pub(crate) l2: Cache,
    pub(crate) dram: DramModel,
    pub(crate) tlb: Tlb<()>,
    /// Next time the shared page walker can start a new walk.
    pub(crate) walker_free: Cycle,
    pub(crate) instructions: u64,
    pub(crate) warps_done: u64,
    pub(crate) kernels_done: u64,
}

impl GpuState {
    /// Fresh per-GPU machine state for `config`. Tenancy shrinks the
    /// last-level TLB's ways (sets stay a power of two); with one tenant
    /// this reduces to the exclusive machine exactly.
    pub(crate) fn new(config: &SimConfig) -> Self {
        let gpu_cfg = config.gpu;
        let tlb_cfg = TlbConfig {
            sets: gpu_cfg.tlb_entries / gpu_cfg.tlb_assoc,
            ways: gpu_cfg.tlb_assoc,
        }
        .with_way_share(config.tenants.max(1));
        GpuState {
            sm_issue: vec![Cycle::ZERO; gpu_cfg.sms],
            sm_busy: 0,
            l1: (0..gpu_cfg.sms)
                .map(|_| Cache::new(CacheConfig::new(gpu_cfg.l1_bytes, gpu_cfg.l1_assoc)))
                .collect(),
            l1_hits: 0,
            l1_misses: 0,
            l2: Cache::new(CacheConfig::new(gpu_cfg.l2_bytes, gpu_cfg.l2_assoc)),
            dram: DramModel::new(gpu_cfg.dram_bandwidth, gpu_cfg.dram_latency),
            tlb: Tlb::new(tlb_cfg),
            walker_free: Cycle::ZERO,
            instructions: 0,
            warps_done: 0,
            kernels_done: 0,
        }
    }

    /// Snapshot of this GPU's counters for the final report.
    pub(crate) fn report(&self) -> GpuReport {
        GpuReport {
            l1_hits: self.l1_hits,
            l1_misses: self.l1_misses,
            l2_hits: self.l2.stats().hits,
            l2_misses: self.l2.stats().misses,
            l2_writebacks: self.l2.stats().writebacks,
            tlb: TlbCounts {
                hits: self.tlb.stats().hits,
                misses: self.tlb.stats().misses,
            },
            sm_busy_cycles: self.sm_busy,
            dram_read_bytes: self.dram.read_bytes(),
            dram_write_bytes: self.dram.write_bytes(),
            instructions: self.instructions,
            warps: self.warps_done,
            kernels: self.kernels_done,
        }
    }
}

pub(crate) struct Warp {
    pub(crate) sm: usize,
    pub(crate) cta: u32,
    /// Remaining instructions. The stream subsumes the old `instrs`/`pc`
    /// pair: an owned stream carries its cursor, a replay stream decodes
    /// straight from the shared trace bytes.
    pub(crate) stream: WarpStream,
    pub(crate) ready: Cycle,
}

/// Per-GPU state of the kernel currently running (one at a time per GPU).
pub(crate) struct KernelRun {
    pub(crate) spec: KernelSpec,
    /// Next CTA index not yet launched.
    pub(crate) next_cta: u32,
    /// Live warps per launched CTA (indexed by CTA id).
    pub(crate) cta_live: Vec<u32>,
    /// Warps still running across the grid.
    pub(crate) live_warps: u64,
    /// Launch time (telemetry kernel-span start).
    pub(crate) started: Cycle,
    /// Latest warp completion seen so far.
    pub(crate) last_done: Cycle,
    /// Round-robin SM cursor for CTA placement.
    pub(crate) sm_cursor: usize,
    /// Resident CTAs per SM.
    pub(crate) sm_resident: Vec<u32>,
    /// Producer pre-expanding upcoming CTAs' warp streams
    /// ([`SimConfig::stream_pipeline_depth`] > 0 and the grid is large
    /// enough). `None` expands inline at launch.
    pub(crate) prefetch: Option<CtaPrefetcher>,
}

impl KernelRun {
    /// Streams for CTA `cta_idx` — from the prefetch producer when one is
    /// running, expanded inline otherwise. Both paths walk CTAs in grid
    /// order and generate streams purely from warp coordinates, so the
    /// choice never affects simulated timing.
    pub(crate) fn cta_streams(
        &mut self,
        gpu: usize,
        gpu_count: u32,
        arena: &BufferArena,
    ) -> Vec<WarpStream> {
        let cta_idx = self.next_cta - 1; // caller just claimed this index
        match &mut self.prefetch {
            Some(pf) => pf.take(cta_idx),
            None => expand_cta(
                self.spec.program.as_ref(),
                arena,
                GpuId::new(gpu as u16),
                gpu_count,
                cta_idx,
                self.spec.cta_count,
                self.spec.warps_per_cta,
            ),
        }
    }
}

impl<'a> Engine<'a> {
    /// Creates an engine.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Config`] if the machine configuration is invalid,
    /// the workload was partitioned for a different GPU count, or the page
    /// sizes disagree.
    pub fn new(
        config: SimConfig,
        link: LinkGen,
        workload: &'a Workload,
        policy: &'a mut dyn MemoryPolicy,
    ) -> Result<Self> {
        config.validate()?;
        workload.validate()?;
        if workload.gpu_count != config.gpu_count {
            return Err(GpsError::Config {
                reason: format!(
                    "workload partitioned for {} GPUs, machine has {}",
                    workload.gpu_count, config.gpu_count
                ),
            });
        }
        if workload.page_size != config.page_size {
            return Err(GpsError::PageSizeMismatch {
                expected: config.page_size,
                actual: workload.page_size,
            });
        }
        Ok(Self {
            config,
            link,
            workload,
            policy,
            probe: ProbeHandle::disabled(),
        })
    }

    /// Attaches a telemetry probe for this run. The handle is cloned into
    /// the fabric, every GPU's DRAM model and the policy, so one recorder
    /// sees the whole machine. Probes only observe — a probed run produces
    /// a bit-identical [`SimReport`] to an unprobed one.
    #[must_use]
    pub fn with_probe(mut self, probe: ProbeHandle) -> Self {
        self.probe = probe;
        self
    }

    /// Runs the workload to completion.
    ///
    /// [`SimConfig::parallel_workers`] selects the engine: `0` runs the
    /// classic drive (policy inline, global event order); `N >= 1` runs the
    /// per-GPU lane engine, which itself takes the classic drive when the
    /// policy's [`LaneMode`](crate::LaneMode) or the fabric rules lanes out.
    pub fn run(self) -> SimReport {
        crate::lanes::run(self)
    }
}

/// The classic engine's seam: every routing decision is a
/// [`MemoryPolicy`] call made inline, in global event order, against the
/// shared [`Fabric`]. Peer reads book the owner's DRAM and the fabric at
/// once, peer stores book the fabric, and fences and kernel ends complete
/// when the policy says.
pub(crate) struct ClassicRoute<'a, 'l> {
    policy: &'a mut dyn MemoryPolicy,
    fabric: &'a mut Fabric,
    page_size: PageSize,
    /// The lanes before and after the draining one (peer DRAM).
    before: &'a mut [&'l mut Lane],
    after: &'a mut [&'l mut Lane],
}

impl Route for ClassicRoute<'_, '_> {
    fn tlb_missed(&mut self, g: usize, vpn: Vpn, t: Cycle) {
        let mut ctx = MemCtx {
            now: t,
            fabric: self.fabric,
            page_size: self.page_size,
        };
        self.policy.on_tlb_miss(GpuId::new(g as u16), vpn, &mut ctx);
    }

    fn load_route(&mut self, g: usize, line: LineAddr, t: Cycle) -> LoadRoute {
        let mut ctx = MemCtx {
            now: t,
            fabric: self.fabric,
            page_size: self.page_size,
        };
        self.policy.route_load(GpuId::new(g as u16), line, &mut ctx)
    }

    fn remote_read(
        &mut self,
        gpu: &mut GpuState,
        g: usize,
        sm: usize,
        from: GpuId,
        line: LineAddr,
        t: Cycle,
    ) -> Option<Cycle> {
        let owner: &mut GpuState = match from.index() {
            f if f < g => &mut self.before[f].gpu,
            f if f == g => gpu,
            f => &mut self.after[f - g - 1].gpu,
        };
        let arrived = peer_read(owner, self.fabric, from, GpuId::new(g as u16), t);
        gpu.l1[sm].fill(line, from);
        Some(arrived)
    }

    fn store_route(
        &mut self,
        g: usize,
        line: LineAddr,
        scope: Scope,
        t: Cycle,
        atomic: bool,
    ) -> StoreRoute {
        let gpu = GpuId::new(g as u16);
        let mut ctx = MemCtx {
            now: t,
            fabric: self.fabric,
            page_size: self.page_size,
        };
        let route = if atomic {
            self.policy.route_atomic(gpu, line, &mut ctx)
        } else {
            self.policy.route_store(gpu, line, scope, &mut ctx)
        };
        if let StoreRoute::Remote { to } = route {
            // gps-lint: allow(lane_tier_purity) -- classic seam: runs only in the single-threaded global-order drive, never inside a lane window
            let _ = self.fabric.transfer(gpu, to, CACHE_LINE_BYTES, t);
        }
        route
    }

    fn fence_done(&mut self, g: usize, scope: Scope, t: Cycle) -> Option<Cycle> {
        let mut ctx = MemCtx {
            now: t,
            fabric: self.fabric,
            page_size: self.page_size,
        };
        Some(self.policy.on_fence(GpuId::new(g as u16), scope, &mut ctx))
    }

    fn kernel_done(&mut self, g: usize, t: Cycle) -> Option<Cycle> {
        let mut ctx = MemCtx {
            now: t,
            fabric: self.fabric,
            page_size: self.page_size,
        };
        Some(self.policy.on_kernel_end(GpuId::new(g as u16), &mut ctx))
    }
}

/// The classic drive: drains every lane through [`ClassicRoute`] in global
/// `(time, push sequence)` order, as one event heap over all GPUs would.
/// The lane holding the earliest key drains until its head passes the
/// runner-up lane's head key; the lanes' queues continue one running
/// sequence, so keys compare across lanes. Only the draining lane's head
/// moves, so a heap of lane heads finds the next lane and its limit.
pub(crate) fn drain_global(
    lanes: &mut [&mut Lane],
    policy: &mut dyn MemoryPolicy,
    fabric: &mut Fabric,
    page_size: PageSize,
) {
    let mut seq = lanes.iter().map(|l| l.events.seq).max().unwrap_or(0);
    let mut heads: BinaryHeap<Reverse<(u128, usize)>> = lanes
        .iter()
        .enumerate()
        .filter_map(|(g, l)| l.events.head_key().map(|key| Reverse((key, g))))
        .collect();
    while let Some(Reverse((_, g))) = heads.pop() {
        let limit = heads.peek().map_or(u128::MAX, |&Reverse((key, _))| key);
        let (before, rest) = lanes.split_at_mut(g);
        let Some((lane, after)) = rest.split_first_mut() else {
            return;
        };
        lane.events.seq = seq;
        let mut route = ClassicRoute {
            policy: &mut *policy,
            fabric: &mut *fabric,
            page_size,
            before,
            after,
        };
        lane.drain(&mut route, limit);
        seq = lane.events.seq;
        if let Some(key) = lane.events.head_key() {
            heads.push(Reverse((key, g)));
        }
    }
}

/// Demand-read of one line by GPU `to` from `owner` (GPU `from`) at `t`:
/// request hop, owner DRAM, cut-through fabric transfer. Returns the
/// arrival; the caller fills the requester's L1. Peer loads are not cached
/// in the requester's L2 — remote data is not kept coherent, which is
/// exactly the gap proposals like CARVE fill (§8) — so the per-SM L1 gives
/// the short intra-kernel reuse window real hardware exhibits.
pub(crate) fn peer_read(
    owner: &mut GpuState,
    fabric: &mut Fabric,
    from: GpuId,
    to: GpuId,
    t: Cycle,
) -> Cycle {
    let data_at = owner
        .dram
        .read(CACHE_LINE_BYTES, t + fabric.link().latency());
    fabric
        // gps-lint: allow(lane_tier_purity) -- called by the classic seam and the coordinator's barrier only; the lane seam defers remote reads, so no lane window reaches it
        .transfer(from, to, CACHE_LINE_BYTES, data_at)
        .map(|tr| tr.arrived)
        .unwrap_or(data_at)
}

/// L2 -> DRAM read path for a locally-homed line.
pub(crate) fn l2_read(
    gpu: &mut GpuState,
    gcfg: &GpuConfig,
    line: LineAddr,
    home: GpuId,
    t: Cycle,
) -> Cycle {
    match gpu.l2.access_read(line, home) {
        Lookup::Hit => t + gcfg.l2_latency,
        Lookup::Miss { evicted } => {
            if let Some(e) = evicted {
                if e.dirty {
                    gpu.dram.write(CACHE_LINE_BYTES, t);
                }
            }
            gpu.dram.read(CACHE_LINE_BYTES, t + gcfg.l2_latency)
        }
    }
}

/// Write-validate L2 store path.
pub(crate) fn l2_write(gpu: &mut GpuState, line: LineAddr, home: GpuId, t: Cycle) {
    if let Lookup::Miss { evicted: Some(e) } = gpu.l2.access_write(line, home) {
        if e.dirty {
            gpu.dram.write(CACHE_LINE_BYTES, t);
        }
    }
}
