//! The warp-step core both engines share, and the lane coordinator that
//! drives it.
//!
//! Each GPU's simulation state is one [`Lane`]: its caches, TLB and DRAM
//! ([`GpuState`]), warp slots, a private `(time, sequence)` event queue
//! ([`LaneQueue`]), buffer arena, launch queue and running kernel. One
//! `Lane::step` times every warp instruction and one `Lane::retire`
//! retires every warp; both are generic over a small routing seam
//! ([`Route`]) with static dispatch. Two seams exist:
//!
//! * [`ClassicRoute`] (the classic engine, `parallel_workers == 0` or a
//!   [`LaneMode::Fallback`] policy) calls the [`MemoryPolicy`] inline on
//!   the shared fabric: peer reads book the owner's DRAM at once, peer
//!   stores book the fabric, fences and kernel ends take the policy's
//!   completion times. [`Coordinator::run_phases`] then drains all lanes in one
//!   unbounded window in *global* `(time, push sequence)` order: the
//!   lanes' queues draw their sequence numbers from one running counter
//!   and the lane holding the globally earliest key drains until its head
//!   passes the runner-up's — the pop order of a single global heap.
//! * [`LaneRoute`] (the lane engine) routes from lane-local state —
//!   everything local ([`LaneMode::PureLocal`]), the engine-owned writer
//!   snapshot ([`LaneMode::WriterEpochs`]) or the lane's [`LaneRouter`]
//!   ([`LaneMode::GpsEpochs`]) — and suspends remote loads, sys-scoped
//!   fences and GPS kernel-end releases until the window barrier.
//!
//! Phase hooks, kernel launch, the phase barrier, the telemetry path and
//! report assembly exist once, in [`Coordinator::run_phases`].
//!
//! # Lane tiers
//!
//! The lane engine advances all lanes through conservative time windows,
//! MGSim-style. Cross-lane effects are exchanged only at window barriers,
//! so lanes may be driven by any number of worker threads without
//! changing the result. Tiers are declared by the policy via
//! [`MemoryPolicy::lane_mode`]:
//!
//! * [`LaneMode::PureLocal`] — every access is local, so the lanes never
//!   interact inside a phase: one window of infinite length per phase.
//!   Within a lane, the pop order under `(time, lane seq)` equals the
//!   classic drive's global order restricted to that lane (relative
//!   sequence order is push order in both), and every timing input is
//!   lane-local, so the [`SimReport`] is **bit-identical** to the classic
//!   engine's.
//! * [`LaneMode::WriterEpochs`] — routing depends only on which GPU last
//!   wrote a shared page. Lanes advance in windows of the fabric's minimum
//!   cross-GPU latency `E` ([`Topology::min_cross_gpu_latency`]): an
//!   access at `t < W + E` cannot observe data published after `W`, so
//!   buffering writer updates until the barrier and merging them in
//!   `(cycle, gpu, sequence)` order is *conservative*. Remote loads
//!   suspend their warp; the barrier books them against the owner's DRAM
//!   and the shared fabric in deterministic order and resumes the warp at
//!   its arrival (which lands at or after `W + E` because the request
//!   leaves at `t >= W` and pays at least `E` in flight). Results are
//!   deterministic and worker-count-invariant, but writer visibility is
//!   bounded-stale (at most one window), so this tier is pinned by its own
//!   golden reports rather than the classic engine's.
//! * [`LaneMode::GpsEpochs`] — the conservative GPS tier. Each lane owns a
//!   [`LaneRouter`] (its GPU's write queue, GPS-TLB and a driver-state
//!   snapshot); stores route through the write queue locally while the
//!   router *buffers* every cross-lane effect — RWQ publishes, peer
//!   stores, collapses, access-tracking records. The policy applies the
//!   buffered effects at each window barrier ([`MemoryPolicy::lane_barrier`])
//!   in `(cycle, gpu, sequence)` order and returns per-GPU broadcast
//!   visibility horizons; kernel-end releases and sys-scoped fences defer
//!   to those horizons. Like `WriterEpochs`, subscriber visibility is
//!   bounded-stale by one window, so the tier is pinned by worker-count
//!   invariance and its own goldens.
//! * [`LaneMode::Fallback`] — the classic drive above.
//!
//! # Epoch-window boundary
//!
//! A window `[W, W + E)` drains events *strictly* before its end: an event
//! at exactly `W + E` stays queued. This is load-bearing, not an
//! off-by-one — an access at `W + E` may legally observe a cross-GPU
//! effect published at `W` (the fabric's minimum latency has elapsed), so
//! it must execute only after the barrier has merged the window's
//! publishes. Conversely every barrier-resolved remote load lands at or
//! after `W + E` (request leaves at `t >= W`, pays at least `E` in flight
//! — asserted in [`resolve_suspended`]), so re-queued warps never reenter
//! the closed window.
//!
//! # Worker pool
//!
//! `SimConfig::parallel_workers > 1` drives the lanes from a persistent
//! [`std::thread::scope`] pool: `N` workers pull lane indices from an
//! atomic work queue each window and park on a barrier between windows,
//! while the coordinator thread runs the policy, the shared fabric and all
//! barrier work. Lanes are mutated only between the start/end barriers
//! (workers) or under [`LaneExec::with_all`] (coordinator), never both at
//! once; and because every lane drains its window against the same
//! read-only inputs regardless of which worker claims it, reports *and*
//! telemetry are bit-identical for 1 vs `N` workers (pinned by tests).
//!
//! Telemetry: each lane-engine lane buffers its probe emissions tagged
//! with the event time ([`ProbeHandle::buffering`]); at each phase end the
//! coordinator merges all lanes' buffers by `(tag, lane, queue position)`
//! and replays them into the run's real probe, so `--telemetry` output is
//! independent of lane interleaving. Classic lanes emit straight into the
//! run's probe, already in global order.
//!
//! [`MemoryPolicy::lane_mode`]: crate::MemoryPolicy::lane_mode
//! [`MemoryPolicy::lane_barrier`]: crate::MemoryPolicy::lane_barrier
//! [`LaneMode::PureLocal`]: crate::LaneMode::PureLocal
//! [`LaneMode::WriterEpochs`]: crate::LaneMode::WriterEpochs
//! [`LaneMode::GpsEpochs`]: crate::LaneMode::GpsEpochs
//! [`LaneMode::Fallback`]: crate::LaneMode::Fallback
//! [`LaneRouter`]: crate::LaneRouter
//! [`SimReport`]: crate::SimReport
//! [`Topology::min_cross_gpu_latency`]: gps_interconnect::Topology::min_cross_gpu_latency
//! [`ClassicRoute`]: crate::engine::ClassicRoute

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use gps_interconnect::{Fabric, FabricConfig, LinkGen};
use gps_obs::{names, Emission, ProbeHandle, Track};
use gps_types::{Cycle, GpuId, LineAddr, Scope, Vpn};

use crate::config::SimConfig;
use crate::engine::{
    drain_global, l2_read, l2_write, peer_read, Engine, GpuState, KernelRun, Warp,
};
use crate::instr::{WarpInstr, WarpStream};
use crate::pipeline::{BufferArena, CtaPrefetcher};
use crate::policy::{LaneMode, LaneRouter, LoadRoute, MemCtx, MemoryPolicy, StoreRoute};
use crate::stats::SimReport;
use crate::workload::{KernelSpec, SharedIndex, Workload};

/// Per-lane event queue: a binary heap of `(time, sequence, slot)` keys
/// packed into one `u128` — time in the top 56 bits, a push sequence in
/// the middle 48, the warp slot in the low 24 — so a sift compare is a
/// single branch on 16-byte keys instead of a lexicographic tuple walk.
///
/// Sequences are assigned in push order, so within one lane the pop order
/// under the packed key is `(time, push order)`. The slot bits are never
/// reached as a tie-break (sequences are unique); they just ride along so
/// the pop returns the payload. The classic drive continues one running
/// sequence across all lanes (see module docs), which makes the keys
/// globally ordered too.
pub(crate) struct LaneQueue {
    heap: BinaryHeap<Reverse<u128>>,
    /// The last sequence handed out.
    pub(crate) seq: u64,
}

/// Bit layout of the packed key.
const KEY_SLOT_BITS: u32 = 24;
const KEY_SEQ_BITS: u32 = 48;
const KEY_TIME_SHIFT: u32 = KEY_SEQ_BITS + KEY_SLOT_BITS;

/// Packs one event key.
fn pack(t: u64, seq: u64, slot: usize) -> u128 {
    ((t as u128) << KEY_TIME_SHIFT) | ((seq as u128) << KEY_SLOT_BITS) | slot as u128
}

/// The packed-key bound of a window ending at `window_end`: every event
/// strictly before the end packs below it, every later one at or above.
fn window_key(window_end: u64) -> u128 {
    if window_end >= 1 << (128 - KEY_TIME_SHIFT) {
        u128::MAX
    } else {
        pack(window_end, 0, 0)
    }
}

impl LaneQueue {
    fn new() -> Self {
        LaneQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, t: u64, slot: usize) {
        debug_assert!(
            t < 1 << (128 - KEY_TIME_SHIFT),
            "cycle overflows the packed key"
        );
        debug_assert!(slot < 1 << KEY_SLOT_BITS, "slot overflows the packed key");
        debug_assert!(
            self.seq < (1 << KEY_SEQ_BITS) - 1,
            "push seq overflows the packed key"
        );
        self.seq += 1;
        self.heap.push(Reverse(pack(t, self.seq, slot)));
    }

    /// The earliest queued event's cycle, if any.
    fn peek_time(&self) -> Option<u64> {
        self.head_key().map(|key| (key >> KEY_TIME_SHIFT) as u64)
    }

    /// The earliest queued event's packed key, if any.
    pub(crate) fn head_key(&self) -> Option<u128> {
        self.heap.peek().map(|&Reverse(key)| key)
    }

    /// Pops the earliest event as `(cycle, slot)` if its packed key lies
    /// strictly below `limit` — a [`window_key`] (the epoch-boundary
    /// invariant: an event at exactly the window end may observe that
    /// window's merged publishes, so it drains only after the barrier) or,
    /// in the classic drive, another lane's head key.
    fn pop_below(&mut self, limit: u128) -> Option<(u64, usize)> {
        let key = self.head_key()?;
        if key >= limit {
            return None;
        }
        self.heap.pop();
        Some((
            (key >> KEY_TIME_SHIFT) as u64,
            (key & ((1 << KEY_SLOT_BITS) - 1)) as usize,
        ))
    }

    /// [`pop_below`](Self::pop_below) a window ending at `limit`.
    #[cfg(test)]
    fn pop_before(&mut self, limit: u64) -> Option<(u64, usize)> {
        self.pop_below(window_key(limit))
    }

    /// Whether an event pushed now at cycle `t` would be the next pop
    /// below `limit`. A fresh push takes the highest sequence yet, so it
    /// wins only by being strictly earlier: a tie yields to the event
    /// already queued, as `(time, sequence)` order demands.
    fn runs_ahead(&self, t: u64, limit: u128) -> bool {
        let key = pack(t, self.seq + 1, 0);
        key < limit && self.head_key().is_none_or(|head| key < head)
    }
}

/// Shared, read-only inputs every lane needs while draining a window.
struct LaneCtx<'w> {
    config: &'w SimConfig,
    mode: LaneMode,
    /// Line/page classifier ([`LaneMode::WriterEpochs`] only).
    index: Option<&'w SharedIndex>,
    /// Last-writer map as of the previous barrier (engine-owned). Shared
    /// by `Arc` so the worker pool can snapshot it per window without a
    /// copy; the coordinator mutates it between windows via
    /// [`Arc::make_mut`] while no lane holds a clone.
    writers: &'w Arc<BTreeMap<Vpn, GpuId>>,
}

/// A warp parked mid-instruction: its completion depends on cross-lane
/// state and resolves at the next window barrier.
struct Suspend {
    slot: usize,
    /// Max over the local lines' arrivals (and `issue + 1`); the barrier
    /// raises it to cover the remote arrivals.
    ready: Cycle,
    /// `(owner, line, issue time)` per remote line.
    pending: Vec<(GpuId, LineAddr, Cycle)>,
    /// Sys-scoped fence ([`LaneMode::GpsEpochs`]): the router queued a
    /// write-queue flush; the barrier resumes the warp no earlier than
    /// the lane's broadcast-visibility horizon and the window end.
    flush: bool,
}

enum Stepped {
    Ready,
    Suspended(Suspend),
}

/// The routing seam of the warp-step core: where one lane's line
/// accesses, fences and kernel-end releases go. `g` is the lane's GPU
/// index. Implemented by [`ClassicRoute`](crate::engine::ClassicRoute) (policy inline, effects booked
/// at once) and [`LaneRoute`] (lane-local routing, cross-lane effects
/// deferred to the window barrier).
pub(crate) trait Route {
    /// A conventional-TLB miss on `vpn` at pre-walk time `t`.
    fn tlb_missed(&mut self, g: usize, vpn: Vpn, t: Cycle);

    /// Routes one coalesced load of `line` at translated time `t`.
    fn load_route(&mut self, g: usize, line: LineAddr, t: Cycle) -> LoadRoute;

    /// Demand-reads `line` from peer `from`'s DRAM into SM `sm` of `gpu`
    /// (lane `g`'s own state) at `t`. Returns the arrival, or `None` when
    /// the read is deferred to the window barrier.
    fn remote_read(
        &mut self,
        gpu: &mut GpuState,
        g: usize,
        sm: usize,
        from: GpuId,
        line: LineAddr,
        t: Cycle,
    ) -> Option<Cycle>;

    /// Routes one coalesced store (`atomic`: one atomic) to `line` at
    /// translated time `t`. A peer store's transfer is the seam's to book
    /// or buffer.
    fn store_route(
        &mut self,
        g: usize,
        line: LineAddr,
        scope: Scope,
        t: Cycle,
        atomic: bool,
    ) -> StoreRoute;

    /// A fence at `scope` issued at `t`. Returns when it completes, or
    /// `None` to suspend the warp until the window barrier.
    fn fence_done(&mut self, g: usize, scope: Scope, t: Cycle) -> Option<Cycle>;

    /// The implicit grid-end release of a kernel whose last warp finished
    /// at `t`. Returns when its effects are visible, or `None` to defer
    /// the next launch to the window barrier.
    fn kernel_done(&mut self, g: usize, t: Cycle) -> Option<Cycle>;
}

/// Retired instruction buffers are returned to the arena in batches of
/// this size (one lock acquisition per batch instead of per warp).
const RECYCLE_FLUSH: usize = 256;

/// Grids smaller than this run without a prefetch producer even when
/// [`SimConfig::stream_pipeline_depth`] is non-zero: for tiny kernels the
/// cost of spawning a worker thread exceeds the expansion it would hide.
const PREFETCH_MIN_WARPS: u64 = 1024;

/// One GPU's simulation state, shared by both engines.
pub(crate) struct Lane {
    g: usize,
    config: SimConfig,
    /// GPU count the workload was partitioned for (CTA stream expansion).
    wl_gc: u32,
    pub(crate) gpu: GpuState,
    warps: Vec<Warp>,
    free_slots: Vec<usize>,
    pub(crate) events: LaneQueue,
    /// Buffer pool: retired warps' instruction buffers are recycled into
    /// the warps spawned next (shared with any prefetch producer threads).
    /// Retired buffers are stashed in `retired` and flushed in batches —
    /// per-warp arena traffic would contend the pool lock.
    arena: BufferArena,
    retired: Vec<Vec<WarpInstr>>,
    /// This phase's kernels still to launch on this GPU.
    queue: VecDeque<KernelSpec>,
    running: Option<KernelRun>,
    /// When this GPU finished the phase.
    done: Option<Cycle>,
    probe: ProbeHandle,
    /// `probe` buffers for the barrier merge (lane engine, telemetry on).
    buffered: bool,
    suspended: Vec<Suspend>,
    /// Kernel-end release awaiting the next barrier's visibility horizon
    /// ([`LaneMode::GpsEpochs`] only): the next launch (or lane
    /// completion) happens at `max(horizon, last_done)`.
    pending_kernel: Option<Cycle>,
    /// The lane engine's routing state (untouched by the classic drive).
    routing: LaneRouting,
}

impl Lane {
    /// A lane for GPU `g`. The DRAM model reports to `probe`.
    pub(crate) fn new(
        g: usize,
        config: &SimConfig,
        wl_gc: u32,
        probe: ProbeHandle,
        buffered: bool,
        arena: BufferArena,
    ) -> Self {
        let mut gpu = GpuState::new(config);
        gpu.dram.set_probe(probe.clone(), Track::gpu(g));
        Lane {
            g,
            config: *config,
            wl_gc,
            gpu,
            warps: Vec::new(),
            free_slots: Vec::new(),
            events: LaneQueue::new(),
            arena,
            retired: Vec::new(),
            queue: VecDeque::new(),
            running: None,
            done: None,
            probe,
            buffered,
            suspended: Vec::new(),
            pending_kernel: None,
            routing: LaneRouting::default(),
        }
    }

    /// Steps every queued event whose packed key lies below `limit`
    /// through seam `r`, settling each stepped warp: re-queued, retired or
    /// suspended.
    pub(crate) fn drain<R: Route>(&mut self, r: &mut R, limit: u128) {
        'events: while let Some((t, slot)) = self.events.pop_below(limit) {
            let mut t = t;
            loop {
                if self.buffered {
                    self.probe.set_tag(t);
                }
                match self.step(r, slot) {
                    Stepped::Ready => {
                        if self.warps[slot].stream.is_exhausted() {
                            let done_at = self.warps[slot].ready;
                            self.retire(r, slot, done_at);
                            continue 'events;
                        }
                        let ready = self.warps[slot].ready.as_u64();
                        // Run-ahead: if this warp's next event would be
                        // the next pop anyway, step it now and skip the
                        // push/pop round trip.
                        if self.events.runs_ahead(ready, limit) {
                            t = ready;
                            continue;
                        }
                        self.events.push(ready, slot);
                        continue 'events;
                    }
                    Stepped::Suspended(s) => {
                        self.suspended.push(s);
                        continue 'events;
                    }
                }
            }
        }
    }

    /// Drains this lane's window `[.., window_end)` through the lane seam.
    fn drain_window(&mut self, ctx: &LaneCtx<'_>, window_end: u64) {
        self.with_lane_route(ctx, |lane, r| lane.drain(r, window_key(window_end)));
    }

    /// Runs `f` on this lane with its lane seam ([`LaneRoute`]), which
    /// borrows the routing state for the duration.
    fn with_lane_route<T>(
        &mut self,
        ctx: &LaneCtx<'_>,
        f: impl FnOnce(&mut Lane, &mut LaneRoute<'_, '_>) -> T,
    ) -> T {
        let mut routing = std::mem::take(&mut self.routing);
        let out = f(
            self,
            &mut LaneRoute {
                ctx,
                st: &mut routing,
            },
        );
        self.routing = routing;
        out
    }

    /// Executes one instruction of warp `slot`: SM issue, the L1 and TLB,
    /// then the seam's routing of every line.
    fn step<R: Route>(&mut self, r: &mut R, slot: usize) -> Stepped {
        let gcfg = self.config.gpu;
        let g = self.g;
        let gpu_id = GpuId::new(g as u16);

        let (sm, instr) = {
            let w = &mut self.warps[slot];
            // gps-lint: allow(no_expect) -- queued slots always hold a next instruction; retire removes exhausted warps
            let instr = w.stream.next().expect("stepped an exhausted warp");
            (w.sm, instr)
        };
        let issue = self.warps[slot].ready.max(self.gpu.sm_issue[sm]);
        let next = Cycle::new(issue.as_u64() + 1);
        self.gpu.instructions += 1;

        let ready = match instr {
            WarpInstr::Compute(c) => {
                let end = Cycle::new(issue.as_u64() + c as u64).max(next);
                self.gpu.sm_issue[sm] = end;
                self.gpu.sm_busy += (c as u64).max(1);
                end
            }
            WarpInstr::Load(range) => {
                self.gpu.sm_busy += range.len().max(1) as u64;
                self.gpu.sm_issue[sm] = Cycle::new(issue.as_u64() + range.len().max(1) as u64);
                let mut ready = next;
                let mut pending: Vec<(GpuId, LineAddr, Cycle)> = Vec::new();
                for (i, line) in range.iter().enumerate() {
                    let t0 = Cycle::new(issue.as_u64() + i as u64);
                    if self.gpu.l1[sm].probe(line) {
                        self.gpu.l1_hits += 1;
                        ready = ready.max(t0 + gcfg.l1_latency);
                        continue;
                    }
                    self.gpu.l1_misses += 1;
                    let t = self.translate(r, line, t0);
                    let (remote, at) = match r.load_route(g, line, t) {
                        LoadRoute::Forwarded => {
                            ready = ready.max(t + gcfg.l2_latency);
                            continue;
                        }
                        LoadRoute::Local => (None, t),
                        LoadRoute::StallThenLocal { ready: fault } => (None, fault.max(t)),
                        LoadRoute::Remote { from } => (Some(from), t),
                        // Re-fault on an evicted replica: the warp stalls
                        // for the fault, then reads remotely like any
                        // other peer load.
                        LoadRoute::StallThenRemote { from, ready: fault } => {
                            (Some(from), fault.max(t))
                        }
                    };
                    let Some(from) = remote else {
                        ready = ready.max(l2_read(&mut self.gpu, &gcfg, line, gpu_id, at));
                        self.gpu.l1[sm].fill(line, gpu_id);
                        continue;
                    };
                    match r.remote_read(&mut self.gpu, g, sm, from, line, at) {
                        Some(arrival) => ready = ready.max(arrival),
                        None => pending.push((from, line, at)),
                    }
                }
                if !pending.is_empty() {
                    return Stepped::Suspended(Suspend {
                        slot,
                        ready,
                        pending,
                        flush: false,
                    });
                }
                ready
            }
            WarpInstr::Store(range, scope) => {
                self.gpu.sm_busy += range.len().max(1) as u64;
                self.gpu.sm_issue[sm] = Cycle::new(issue.as_u64() + range.len().max(1) as u64);
                let mut ready = next;
                for (i, line) in range.iter().enumerate() {
                    let t0 = Cycle::new(issue.as_u64() + i as u64);
                    let t = self.translate(r, line, t0);
                    if let Some(stall) = self.store_line(r, sm, line, scope, t, false) {
                        ready = ready.max(stall);
                    }
                }
                ready
            }
            WarpInstr::Atomic(line) => {
                self.gpu.sm_busy += 1;
                self.gpu.sm_issue[sm] = next;
                let t = self.translate(r, line, issue);
                match self.store_line(r, sm, line, Scope::Gpu, t, true) {
                    Some(stall) => next.max(stall),
                    None => next,
                }
            }
            WarpInstr::Fence(scope) => {
                self.gpu.sm_busy += 1;
                self.gpu.sm_issue[sm] = next;
                match r.fence_done(g, scope, issue) {
                    Some(done) => done.max(next),
                    None => {
                        return Stepped::Suspended(Suspend {
                            slot,
                            ready: next,
                            pending: Vec::new(),
                            flush: true,
                        })
                    }
                }
            }
        };
        self.warps[slot].ready = ready;
        Stepped::Ready
    }

    /// Conventional-TLB translation of `line`'s page at `t0`: a miss
    /// inserts the page, serialises a walk on the GPU's shared page walker
    /// and reaches the seam. Returns when translation completes.
    fn translate<R: Route>(&mut self, r: &mut R, line: LineAddr, t0: Cycle) -> Cycle {
        let vpn = line.vpn(self.config.page_size);
        if self.gpu.tlb.lookup(vpn).is_some() {
            self.probe
                .counter(Track::gpu(self.g), names::TLB_HIT, t0, 1.0);
            return t0;
        }
        self.probe
            .counter(Track::gpu(self.g), names::TLB_MISS, t0, 1.0);
        self.gpu.tlb.insert(vpn, ());
        let start = self.gpu.walker_free.max(t0);
        self.gpu.walker_free = start + self.config.gpu.tlb_walker_interval;
        r.tlb_missed(self.g, vpn, t0);
        start + self.config.gpu.tlb_walk_latency
    }

    /// One coalesced store (or atomic) to `line` at translated time `t`.
    /// Returns the stall completion for fault- or collapse-stalled stores.
    fn store_line<R: Route>(
        &mut self,
        r: &mut R,
        sm: usize,
        line: LineAddr,
        scope: Scope,
        t: Cycle,
        atomic: bool,
    ) -> Option<Cycle> {
        let gpu_id = GpuId::new(self.g as u16);
        let route = r.store_route(self.g, line, scope, t, atomic);
        // Write-through L1: update in place if present (probe refreshes
        // LRU); no allocation on store miss.
        let _ = self.gpu.l1[sm].probe(line);
        match route {
            StoreRoute::Local | StoreRoute::LocalReplicated => {
                l2_write(&mut self.gpu, line, gpu_id, t);
                None
            }
            // Peer store: the seam booked or buffered the transfer;
            // nothing is written locally.
            StoreRoute::Remote { .. } => None,
            StoreRoute::StallThenLocal { ready } => {
                let at = ready.max(t);
                l2_write(&mut self.gpu, line, gpu_id, at);
                Some(at)
            }
        }
    }

    /// Retires warp `slot` at `done_at`: frees the slot, recycles the
    /// stream buffer, refills a freed CTA slot, and at grid end runs the
    /// implicit release and launches the next kernel (or finishes the
    /// lane's phase).
    fn retire<R: Route>(&mut self, r: &mut R, slot: usize, done_at: Cycle) {
        let cta = self.warps[slot].cta;
        let sm = self.warps[slot].sm;
        self.gpu.warps_done += 1;
        self.free_slots.push(slot);
        let stream = std::mem::replace(&mut self.warps[slot].stream, WarpStream::owned(Vec::new()));
        if let Some(buf) = stream.into_buffer() {
            self.retired.push(buf);
            if self.retired.len() >= RECYCLE_FLUSH {
                self.arena.put_n(&mut self.retired);
            }
        }

        // gps-lint: allow(no_expect) -- a live warp's lane always has a running kernel
        let run = self.running.as_mut().expect("warp without kernel");
        run.live_warps -= 1;
        run.last_done = run.last_done.max(done_at);
        run.cta_live[cta as usize] -= 1;
        if run.cta_live[cta as usize] == 0 {
            run.sm_resident[sm] -= 1;
            // Launch a pending CTA into the freed slot.
            if run.next_cta < run.spec.cta_count {
                let cta_idx = run.next_cta;
                run.next_cta += 1;
                run.sm_resident[sm] += 1;
                run.cta_live[cta_idx as usize] = run.spec.warps_per_cta;
                let streams = run.cta_streams(self.g, self.wl_gc, &self.arena);
                self.spawn_cta(sm, cta_idx, done_at, streams);
            }
        }

        let Some(run) = self.running.take_if(|run| run.live_warps == 0) else {
            return;
        };
        self.gpu.kernels_done += 1;
        self.probe.span(
            Track::gpu(self.g),
            &run.spec.name,
            "kernel",
            run.started,
            run.last_done,
        );
        // Grid-end implicit release: L1s drop everything, the L2 drops
        // peer-homed lines, the seam drains.
        for l1 in &mut self.gpu.l1[..] {
            l1.invalidate_all();
        }
        self.gpu.l2.invalidate_remote(GpuId::new(self.g as u16));
        match r.kernel_done(self.g, run.last_done) {
            Some(visible) => self.advance_kernel(visible),
            None => self.pending_kernel = Some(run.last_done),
        }
    }

    /// Launches the next queued kernel at `visible` (plus launch overhead)
    /// or marks the lane done for the phase.
    fn advance_kernel(&mut self, visible: Cycle) {
        match self.queue.pop_front() {
            Some(spec) => self.start_kernel(spec, visible + self.config.gpu.kernel_launch_overhead),
            None => self.done = Some(visible),
        }
    }

    /// Creates the runtime state for a kernel and spawns its first wave of
    /// CTAs: round-robin over SMs until residency is full or CTAs run out.
    fn start_kernel(&mut self, spec: KernelSpec, at: Cycle) {
        let gpu_cfg = self.config.gpu;
        let slots_per_sm = gpu_cfg.cta_slots_per_sm(spec.warps_per_cta);
        let depth = self.config.stream_pipeline_depth;
        let prefetch = (depth > 0 && spec.total_warps() >= PREFETCH_MIN_WARPS).then(|| {
            CtaPrefetcher::spawn(
                Arc::clone(&spec.program),
                self.arena.clone(),
                GpuId::new(self.g as u16),
                self.wl_gc,
                spec.cta_count,
                spec.warps_per_cta,
                depth,
            )
        });
        let mut run = KernelRun {
            next_cta: 0,
            cta_live: vec![0; spec.cta_count as usize],
            live_warps: spec.total_warps(),
            started: at,
            last_done: at,
            sm_cursor: 0,
            sm_resident: vec![0; gpu_cfg.sms],
            prefetch,
            spec,
        };
        let capacity = slots_per_sm as u64 * gpu_cfg.sms as u64;
        let first_wave = (run.spec.cta_count as u64).min(capacity) as u32;
        for _ in 0..first_wave {
            let cta_idx = run.next_cta;
            run.next_cta += 1;
            // Find next SM with room.
            let mut sm = run.sm_cursor;
            while run.sm_resident[sm] >= slots_per_sm {
                sm = (sm + 1) % gpu_cfg.sms;
            }
            run.sm_cursor = (sm + 1) % gpu_cfg.sms;
            run.sm_resident[sm] += 1;
            run.cta_live[cta_idx as usize] = run.spec.warps_per_cta;
            let streams = run.cta_streams(self.g, self.wl_gc, &self.arena);
            self.spawn_cta(sm, cta_idx, at, streams);
        }
        self.running = Some(run);
    }

    /// Schedules the warps of one CTA from their pre-built streams.
    fn spawn_cta(&mut self, sm: usize, cta: u32, at: Cycle, streams: Vec<WarpStream>) {
        for mut stream in streams {
            // Degenerate empty warp: give it a single no-op so the retire
            // bookkeeping path still sees it.
            stream.ensure_nonempty();
            let warp = Warp {
                sm,
                cta,
                stream,
                ready: at,
            };
            let slot = match self.free_slots.pop() {
                Some(s) => {
                    self.warps[s] = warp;
                    s
                }
                None => {
                    self.warps.push(warp);
                    self.warps.len() - 1
                }
            };
            self.events.push(at.as_u64(), slot);
        }
    }
}

/// The lane engine's per-GPU routing state, read and written by
/// [`LaneRoute`] inside a window and merged at the barrier.
#[derive(Default)]
struct LaneRouting {
    /// Per-GPU routing state ([`LaneMode::GpsEpochs`] only).
    router: Option<Box<dyn LaneRouter>>,
    /// Shared pages this lane itself wrote (self-visibility is immediate).
    overlay: BTreeSet<Vpn>,
    /// This window's writer updates: `(cycle, lane delta seq, page)`.
    deltas: Vec<(u64, u64, Vpn)>,
    delta_seq: u64,
    remote_loads: u64,
    local_loads: u64,
}

/// The lane engine's seam: routes from lane-local state and defers every
/// cross-lane effect — remote reads, GPS publishes and peer stores,
/// sys-scoped fences, GPS kernel-end releases — to the window barrier.
struct LaneRoute<'a, 'w> {
    ctx: &'a LaneCtx<'w>,
    st: &'a mut LaneRouting,
}

impl LaneRoute<'_, '_> {
    /// The shared-line classifier, if `line` is shared
    /// ([`LaneMode::WriterEpochs`] only).
    fn shared_page(&self, line: LineAddr) -> Option<Vpn> {
        if self.ctx.mode != LaneMode::WriterEpochs {
            return None;
        }
        // gps-lint: allow(no_expect) -- run() builds the index for every WriterEpochs lane
        let index = self.ctx.index.expect("writer mode without a shared index");
        index
            .is_shared(line)
            .then(|| line.vpn(self.ctx.config.page_size))
    }
}

impl Route for LaneRoute<'_, '_> {
    fn tlb_missed(&mut self, _g: usize, vpn: Vpn, t: Cycle) {
        if let Some(router) = self.st.router.as_mut() {
            // gps-lint: allow(lane_tier_purity) -- receiver is the per-lane router, the sanctioned channel; name-based resolution cannot see receiver types
            router.tlb_miss(vpn, t);
        }
    }

    /// Mirrors `RdlPolicy::route_load` exactly in
    /// [`LaneMode::WriterEpochs`] (private lines route local without
    /// touching either counter); defers to the router in
    /// [`LaneMode::GpsEpochs`].
    fn load_route(&mut self, g: usize, line: LineAddr, _t: Cycle) -> LoadRoute {
        if let Some(router) = self.st.router.as_mut() {
            // gps-lint: allow(lane_tier_purity) -- receiver is the per-lane router, the sanctioned channel; name-based resolution cannot see receiver types
            return router.load(line);
        }
        let Some(vpn) = self.shared_page(line) else {
            return LoadRoute::Local;
        };
        let writer = if self.st.overlay.contains(&vpn) {
            Some(GpuId::new(g as u16))
        } else {
            self.ctx.writers.get(&vpn).copied()
        };
        match writer {
            Some(from) if from.index() != g => {
                self.st.remote_loads += 1;
                LoadRoute::Remote { from }
            }
            _ => {
                self.st.local_loads += 1;
                LoadRoute::Local
            }
        }
    }

    fn remote_read(
        &mut self,
        _gpu: &mut GpuState,
        _g: usize,
        _sm: usize,
        _from: GpuId,
        _line: LineAddr,
        _t: Cycle,
    ) -> Option<Cycle> {
        None
    }

    /// The router path buffers GPS publishes and peer stores for the
    /// barrier; otherwise the store completes locally and a shared page
    /// records this lane as its writer ([`LaneMode::WriterEpochs`]).
    fn store_route(
        &mut self,
        _g: usize,
        line: LineAddr,
        scope: Scope,
        t: Cycle,
        atomic: bool,
    ) -> StoreRoute {
        if let Some(router) = self.st.router.as_mut() {
            return if atomic {
                // gps-lint: allow(lane_tier_purity) -- receiver is the per-lane router, the sanctioned channel; name-based resolution cannot see receiver types
                router.atomic(line, t)
            } else {
                // gps-lint: allow(lane_tier_purity) -- receiver is the per-lane router, the sanctioned channel; name-based resolution cannot see receiver types
                router.store(line, scope, t)
            };
        }
        if let Some(vpn) = self.shared_page(line) {
            self.st.overlay.insert(vpn);
            self.st.delta_seq += 1;
            self.st.deltas.push((t.as_u64(), self.st.delta_seq, vpn));
        }
        StoreRoute::Local
    }

    /// A sys-scoped fence on the GPS tier queues a write-queue flush and
    /// resolves at the barrier; other lane-capable policies keep the
    /// default `on_fence` (returns `now`).
    fn fence_done(&mut self, _g: usize, scope: Scope, t: Cycle) -> Option<Cycle> {
        match self.st.router.as_mut() {
            Some(router) if scope.drains_write_queue() => {
                router.flush(t);
                None
            }
            _ => Some(t),
        }
    }

    /// GPS grid-end release: queue the write-queue flush; the next launch
    /// waits on the barrier's visibility horizon. Other lane-capable
    /// policies keep the default `on_kernel_end`.
    fn kernel_done(&mut self, _g: usize, t: Cycle) -> Option<Cycle> {
        match self.st.router.as_mut() {
            Some(router) => {
                router.flush(t);
                None
            }
            None => Some(t),
        }
    }
}

/// Merges every lane's buffered writer updates into the master map in
/// `(cycle, gpu, sequence)` order — the tentpole's deterministic merge.
///
/// Each lane's self-write overlay is cleared afterwards: its entries are
/// now reflected in `writers` (at their true merge rank, so a peer's later
/// write correctly steals ownership), and keeping them would pin pages
/// local to any past writer forever instead of to the *last* writer.
fn barrier_merge(lanes: &mut [&mut Lane], writers: &mut BTreeMap<Vpn, GpuId>) {
    let mut all: Vec<(u64, u16, u64, Vpn)> = Vec::new();
    for lane in lanes.iter_mut() {
        let g = lane.g as u16;
        all.extend(
            lane.routing
                .deltas
                .drain(..)
                .map(|(t, s, vpn)| (t, g, s, vpn)),
        );
        lane.routing.overlay.clear();
    }
    all.sort_unstable();
    for (_, g, _, vpn) in all {
        writers.insert(vpn, GpuId::new(g));
    }
}

/// Books every suspended warp's remote lines against the owners' DRAM and
/// the shared fabric in deterministic `(issue time, lane, position)` order,
/// then resumes (or retires) each warp at its merged arrival time. Fence
/// (flush) suspends resume at the lane's visibility horizon (`vis`,
/// [`LaneMode::GpsEpochs`] only), no earlier than the window end.
fn resolve_suspended(
    lanes: &mut [&mut Lane],
    fabric: &mut Fabric,
    ctx: &LaneCtx<'_>,
    window_end: u64,
    vis: Option<&[Cycle]>,
) {
    if lanes.iter().all(|l| l.suspended.is_empty()) {
        return;
    }
    if lanes.iter().any(|l| l.buffered) {
        // Barrier-time DRAM/fabric emissions land in the owner lanes'
        // buffers; tag them with the barrier so the merge stays ordered.
        for lane in lanes.iter() {
            lane.probe.set_tag(window_end);
        }
    }

    struct Req {
        key: (u64, usize, usize, usize),
        lane: usize,
        sidx: usize,
        from: GpuId,
        line: LineAddr,
    }
    let mut reqs: Vec<Req> = Vec::new();
    for (g, lane) in lanes.iter().enumerate() {
        for (si, susp) in lane.suspended.iter().enumerate() {
            for (pi, &(from, line, t)) in susp.pending.iter().enumerate() {
                reqs.push(Req {
                    key: (t.as_u64(), g, si, pi),
                    lane: g,
                    sidx: si,
                    from,
                    line,
                });
            }
        }
    }
    reqs.sort_unstable_by_key(|r| r.key);

    for r in reqs {
        let arrived = peer_read(
            &mut lanes[r.from.index()].gpu,
            fabric,
            r.from,
            GpuId::new(r.lane as u16),
            Cycle::new(r.key.0),
        );
        debug_assert!(
            window_end == u64::MAX || arrived.as_u64() >= window_end,
            "a barrier-resolved remote load must land at or after the window end"
        );
        let sm = lanes[r.lane].warps[lanes[r.lane].suspended[r.sidx].slot].sm;
        lanes[r.lane].gpu.l1[sm].fill(r.line, r.from);
        let susp = &mut lanes[r.lane].suspended[r.sidx];
        susp.ready = susp.ready.max(arrived);
    }

    for lane in lanes.iter_mut() {
        let susps = std::mem::take(&mut lane.suspended);
        for susp in susps {
            let mut ready = susp.ready;
            if susp.flush {
                if let Some(vis) = vis {
                    ready = ready.max(vis[lane.g]);
                }
                if window_end != u64::MAX {
                    // A resumed fence must not reenter the closed window.
                    ready = ready.max(Cycle::new(window_end));
                }
            }
            lane.warps[susp.slot].ready = ready;
            if !lane.warps[susp.slot].stream.is_exhausted() {
                lane.events.push(ready.as_u64(), susp.slot);
            } else {
                if lane.buffered {
                    lane.probe.set_tag(ready.as_u64());
                }
                lane.with_lane_route(ctx, |lane, r| lane.retire(r, susp.slot, ready));
            }
        }
    }
}

/// How the coordinator reaches the lanes: inline (one worker) or through
/// the [`Pool`]. Window drains go through [`drain`]; all barrier-time
/// mutation goes through [`with_all`], which hands back every lane.
///
/// [`drain`]: LaneExec::drain
/// [`with_all`]: LaneExec::with_all
trait LaneExec {
    /// Drains every lane's events strictly before `window_end`.
    fn drain(&mut self, ctx: &LaneCtx<'_>, window_end: u64);

    /// Runs `f` over all lanes (in lane order) with exclusive access.
    fn with_all<R>(&mut self, f: impl FnOnce(&mut [&mut Lane]) -> R) -> R;
}

/// Single-worker execution: the coordinator drains lanes itself.
struct InlineExec<'l> {
    lanes: &'l mut Vec<Lane>,
}

impl LaneExec for InlineExec<'_> {
    fn drain(&mut self, ctx: &LaneCtx<'_>, window_end: u64) {
        for lane in self.lanes.iter_mut() {
            lane.drain_window(ctx, window_end);
        }
    }

    fn with_all<R>(&mut self, f: impl FnOnce(&mut [&mut Lane]) -> R) -> R {
        let mut lanes: Vec<&mut Lane> = self.lanes.iter_mut().collect();
        f(&mut lanes)
    }
}

/// One window's inputs for the worker pool.
struct PoolJob {
    window_end: u64,
    /// Snapshot of the writer map for this window (cloned handle per
    /// worker; the coordinator drops all pool clones after the window so
    /// its `Arc::make_mut` mutates in place).
    writers: Arc<BTreeMap<Vpn, GpuId>>,
}

/// The persistent worker pool: lanes live in per-lane mutex cells and are
/// claimed by index from an atomic queue, so the lane→worker assignment is
/// irrelevant to the result (each drain sees only the lane itself plus the
/// read-only job). Workers park on `start` between windows; the
/// coordinator holds no cell lock while workers run and workers hold none
/// while the coordinator runs barrier work — `end.wait()` hands exclusive
/// access back.
struct Pool<'w> {
    cells: Vec<Mutex<Lane>>,
    /// Next unclaimed lane index for the current window.
    queue: AtomicUsize,
    job: Mutex<PoolJob>,
    start: Barrier,
    end: Barrier,
    stop: AtomicBool,
    /// Permanently empty map parked in `job.writers` between windows.
    empty: Arc<BTreeMap<Vpn, GpuId>>,
    config: &'w SimConfig,
    mode: LaneMode,
    index: Option<&'w SharedIndex>,
}

/// Worker loop: wait for a window, claim lanes until the queue runs dry,
/// park again. Exits when the coordinator raises `stop` before a start
/// barrier.
fn lane_worker(pool: &Pool<'_>) {
    loop {
        pool.start.wait();
        if pool.stop.load(Ordering::Acquire) {
            return;
        }
        let (window_end, writers) = {
            // gps-lint: allow(no_expect) -- the job mutex is only held across plain field reads/writes
            let job = pool.job.lock().expect("job mutex poisoned");
            (job.window_end, Arc::clone(&job.writers))
        };
        let ctx = LaneCtx {
            config: pool.config,
            mode: pool.mode,
            index: pool.index,
            writers: &writers,
        };
        loop {
            // gps-lint: allow(relaxed_atomic_ordering) -- pure work-claim counter: only claim uniqueness matters, each lane lands in its own cell
            let i = pool.queue.fetch_add(1, Ordering::Relaxed);
            if i >= pool.cells.len() {
                break;
            }
            pool.cells[i]
                .lock()
                // gps-lint: allow(no_expect) -- a poisoned cell means a sibling worker already panicked
                .expect("lane mutex poisoned")
                .drain_window(&ctx, window_end);
        }
        // Release the window's writer snapshot before the end barrier so
        // the coordinator sees the only remaining Arc reference.
        drop(writers);
        pool.end.wait();
    }
}

/// Multi-worker execution: the coordinator publishes a job and rides the
/// start/end barriers.
struct PoolExec<'p, 'w> {
    pool: &'p Pool<'w>,
}

impl LaneExec for PoolExec<'_, '_> {
    fn drain(&mut self, ctx: &LaneCtx<'_>, window_end: u64) {
        // gps-lint: allow(lane_tier_purity) -- receiver is the pool's AtomicUsize claim counter, not the shared system
        self.pool.queue.store(0, Ordering::SeqCst);
        {
            // gps-lint: allow(no_expect) -- the job mutex is only held across plain field reads/writes
            let mut job = self.pool.job.lock().expect("job mutex poisoned");
            job.window_end = window_end;
            job.writers = Arc::clone(ctx.writers);
        }
        self.pool.start.wait();
        self.pool.end.wait();
        // Park the empty map so the coordinator's writer-map handle is
        // unique again (keeps `Arc::make_mut` allocation-free).
        // gps-lint: allow(no_expect) -- the job mutex is only held across plain field reads/writes
        let mut job = self.pool.job.lock().expect("job mutex poisoned");
        job.writers = Arc::clone(&self.pool.empty);
    }

    fn with_all<R>(&mut self, f: impl FnOnce(&mut [&mut Lane]) -> R) -> R {
        let mut guards: Vec<_> = self
            .pool
            .cells
            .iter()
            // gps-lint: allow(no_expect) -- a poisoned cell means a worker already panicked
            .map(|c| c.lock().expect("lane mutex poisoned"))
            .collect();
        let mut lanes: Vec<&mut Lane> = guards.iter_mut().map(|g| &mut **g).collect();
        f(&mut lanes)
    }
}

/// Stops the workers exactly once, on both the success and the unwind
/// path: raise `stop`, then release the start barrier they are parked on.
struct PoolShutdown<'p, 'w> {
    pool: &'p Pool<'w>,
}

impl Drop for PoolShutdown<'_, '_> {
    fn drop(&mut self) {
        self.pool.stop.store(true, Ordering::Release);
        self.pool.start.wait();
    }
}

/// Runs `engine`'s workload: on the lane engine when
/// `parallel_workers >= 1` and the policy's tier and the fabric admit
/// lanes, on the classic drive otherwise.
pub(crate) fn run(engine: Engine<'_>) -> SimReport {
    let Engine {
        config,
        link,
        workload,
        policy,
        probe,
    } = engine;
    let gc = config.gpu_count;
    let mut mode = if config.parallel_workers == 0 {
        LaneMode::Fallback
    } else {
        policy.lane_mode()
    };
    let mut epoch = 0;
    if matches!(mode, LaneMode::WriterEpochs | LaneMode::GpsEpochs) {
        epoch = config.topology.min_cross_gpu_latency(link).as_u64();
        if epoch == 0 {
            // A latency-free fabric admits no conservative window.
            mode = LaneMode::Fallback;
        }
    }

    // Tenancy shrinks each application's share of the contended
    // structures: the last-level TLB loses ways (via `GpuState::new`) and
    // every fabric link serves at 1/tenants of its rate. With one tenant
    // both reduce to the exclusive machine exactly. On the lane engine the
    // coordinator owns the fabric: it books barrier-resolved remote reads
    // and publishes and backs the policy's phase hooks, and lanes never
    // touch it mid-window.
    let mut fabric = Fabric::new(
        FabricConfig::new(gc, link)
            .with_topology(config.topology)
            .with_bandwidth_share(config.tenants.max(1)),
    );
    fabric.set_probe(probe.clone());
    policy.attach_probe(probe.clone());
    policy.init(workload, &config);

    // GPS tier: one router per GPU, moved out of the policy. An empty
    // vector means the policy cannot run this workload on lanes.
    let routers = if mode == LaneMode::GpsEpochs {
        policy.lane_routers()
    } else {
        Vec::new()
    };
    if mode == LaneMode::GpsEpochs && routers.len() != gc {
        mode = LaneMode::Fallback;
    }
    let classic = mode == LaneMode::Fallback;
    let wl_gc = workload.gpu_count as u32;

    // Classic lanes share one buffer pool and emit straight into the run's
    // probe, in global order; lane-engine lanes own their pools and buffer
    // their emissions for the barrier merge.
    let telemetry = probe.is_enabled();
    let shared_arena = BufferArena::new();
    let buffered = telemetry && !classic;
    let mut lanes: Vec<Lane> = (0..gc)
        .map(|g| {
            let (lane_probe, arena) = if classic {
                (probe.clone(), shared_arena.clone())
            } else if buffered {
                (ProbeHandle::buffering(), BufferArena::new())
            } else {
                (ProbeHandle::disabled(), BufferArena::new())
            };
            Lane::new(g, &config, wl_gc, lane_probe, buffered, arena)
        })
        .collect();
    for (lane, mut router) in lanes.iter_mut().zip(routers) {
        router.attach_probe(lane.probe.clone());
        lane.routing.router = Some(router);
    }

    // Engine-owned writer-tracking state (WriterEpochs only): lanes route
    // from a read-only snapshot, so the policy object never crosses a
    // thread boundary.
    let index: Option<SharedIndex> = (mode == LaneMode::WriterEpochs).then(|| workload.index());
    let mut writers: Arc<BTreeMap<Vpn, GpuId>> = Arc::new(BTreeMap::new());
    let mut coord = Coordinator {
        policy,
        workload,
        config: &config,
        link,
        probe: &probe,
        fabric: &mut fabric,
        writers: &mut writers,
        index: index.as_ref(),
        mode,
        epoch,
    };

    let workers = if classic {
        1
    } else {
        config.parallel_workers.min(gc).max(1)
    };
    if workers == 1 {
        return coord.run_phases(&mut InlineExec { lanes: &mut lanes });
    }
    let empty: Arc<BTreeMap<Vpn, GpuId>> = Arc::new(BTreeMap::new());
    let pool = Pool {
        cells: lanes.into_iter().map(Mutex::new).collect(),
        queue: AtomicUsize::new(0),
        job: Mutex::new(PoolJob {
            window_end: 0,
            writers: Arc::clone(&empty),
        }),
        start: Barrier::new(workers + 1),
        end: Barrier::new(workers + 1),
        stop: AtomicBool::new(false),
        empty,
        config: &config,
        mode,
        index: index.as_ref(),
    };
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| lane_worker(&pool));
        }
        let _shutdown = PoolShutdown { pool: &pool };
        coord.run_phases(&mut PoolExec { pool: &pool })
    })
}

/// The coordinator: the run's policy, fabric and writer map, plus the
/// read-only inputs of its phase loop.
struct Coordinator<'c, 'w> {
    policy: &'c mut dyn MemoryPolicy,
    workload: &'w Workload,
    config: &'c SimConfig,
    link: LinkGen,
    probe: &'c ProbeHandle,
    fabric: &'c mut Fabric,
    writers: &'c mut Arc<BTreeMap<Vpn, GpuId>>,
    index: Option<&'c SharedIndex>,
    mode: LaneMode,
    /// Window length; 0 means one unbounded window per phase.
    epoch: u64,
}

impl Coordinator<'_, '_> {
    /// The phase loop of both engines: phase hooks, kernel launch,
    /// windows and barriers, the telemetry merge and the final report —
    /// generic over inline vs pooled lane execution.
    fn run_phases<E: LaneExec>(&mut self, exec: &mut E) -> SimReport {
        let gps = self.mode == LaneMode::GpsEpochs;
        let classic = self.mode == LaneMode::Fallback;
        let config = self.config;
        let telemetry = self.probe.is_enabled();
        let buffered = telemetry && !classic;

        let mut phase_ends: Vec<Cycle> = Vec::new();
        let mut phase_traffic: Vec<u64> = Vec::new();
        let mut phase_start = Cycle::ZERO;

        for (phase_idx, phase) in self.workload.phases.iter().enumerate() {
            let gate = self.policy.on_phase_start(
                phase_idx,
                &mut MemCtx {
                    now: phase_start,
                    fabric: self.fabric,
                    page_size: config.page_size,
                },
            );
            phase_start = phase_start.max(gate);
            let phase_began = phase_start;

            exec.with_all(|lanes| {
                // Launch sequences continue across lanes in GPU order, so
                // at equal times GPU 0's first wave pops before GPU 1's in
                // the classic drive's global order. A lane drain compares
                // keys only within its lane, where this keeps push order.
                let mut seq = lanes.iter().map(|l| l.events.seq).max().unwrap_or(0);
                for lane in lanes.iter_mut() {
                    lane.queue = phase
                        .launches_for(GpuId::new(lane.g as u16))
                        .cloned()
                        .collect();
                    lane.done = None;
                    lane.pending_kernel = None;
                    lane.events.seq = seq;
                    lane.advance_kernel(phase_start);
                    seq = lane.events.seq;
                }
            });

            // Window loop. Each window starts at the earliest pending
            // event across non-empty lanes (idle lanes never hold the
            // epoch back) and spans `E` cycles; barrier work re-queues
            // events at or after the window's end, so the loop terminates
            // when every lane drains. On the GPS tier a kernel-end release
            // may leave a lane with no events but a launch pending on the
            // barrier's visibility horizon: those rounds run barrier work
            // only.
            let mut last_window_end = phase_start.as_u64();
            loop {
                let (next, has_pending) = exec.with_all(|lanes| {
                    let next = lanes.iter().filter_map(|l| l.events.peek_time()).min();
                    let pending = gps && lanes.iter().any(|l| l.pending_kernel.is_some());
                    (next, pending)
                });
                if next.is_none() && !has_pending {
                    break;
                }
                let window_end = match next {
                    Some(_) if self.epoch == 0 => u64::MAX,
                    Some(n) => n.saturating_add(self.epoch),
                    None => last_window_end,
                };
                last_window_end = window_end;
                if classic {
                    exec.with_all(|lanes| {
                        drain_global(lanes, &mut *self.policy, self.fabric, config.page_size)
                    });
                } else if next.is_some() {
                    exec.drain(&self.lane_ctx(), window_end);
                }
                exec.with_all(|lanes| self.barrier(lanes, window_end));
            }

            let barrier = exec.with_all(|lanes| {
                lanes
                    .iter()
                    // gps-lint: allow(no_expect) -- the window loop only exits once every lane drained
                    .map(|l| l.done.expect("phase drained with running GPU"))
                    .max()
                    .unwrap_or(phase_start)
            });

            if buffered {
                let mut all: Vec<(u64, usize, usize, Emission)> = exec.with_all(|lanes| {
                    let mut all = Vec::new();
                    for lane in lanes.iter() {
                        let g = lane.g;
                        for (i, (tag, e)) in lane.probe.drain_buffered().into_iter().enumerate() {
                            all.push((tag, g, i, e));
                        }
                    }
                    all
                });
                all.sort_by_key(|a| (a.0, a.1, a.2));
                for (_, _, _, e) in all {
                    self.probe.replay(e);
                }
            }

            self.probe.instant(Track::SYSTEM, names::BARRIER, barrier);
            let release = self.policy.on_phase_end(
                phase_idx,
                &mut MemCtx {
                    now: barrier,
                    fabric: self.fabric,
                    page_size: config.page_size,
                },
            );
            if gps {
                // The phase hook may have pruned subscriptions or shot down
                // GPS TLBs: resynchronise every router's snapshot.
                exec.with_all(|lanes| {
                    let mut routers: Vec<&mut dyn LaneRouter> = lanes
                        .iter_mut()
                        .filter_map(|l| l.routing.router.as_deref_mut())
                        .collect();
                    self.policy.lane_phase_sync(&mut routers);
                });
            }
            if telemetry {
                self.probe.span(
                    Track::SYSTEM,
                    &format!("phase {phase_idx}"),
                    "phase",
                    phase_began,
                    release,
                );
            }
            phase_ends.push(release);
            phase_traffic.push(self.fabric.counters().total_bytes());
            phase_start = release + config.gpu.phase_sync_overhead;
        }

        match self.mode {
            LaneMode::WriterEpochs => {
                let (remote, local) = exec.with_all(|lanes| {
                    (
                        lanes.iter().map(|l| l.routing.remote_loads).sum(),
                        lanes.iter().map(|l| l.routing.local_loads).sum(),
                    )
                });
                self.policy.absorb_lane_loads(remote, local);
            }
            LaneMode::GpsEpochs => {
                let routers: Vec<Box<dyn LaneRouter>> = exec.with_all(|lanes| {
                    lanes
                        .iter_mut()
                        .filter_map(|l| l.routing.router.take())
                        .collect()
                });
                self.policy.absorb_lane_routers(routers);
            }
            _ => {}
        }

        let per_gpu =
            exec.with_all(|lanes| lanes.iter().map(|l| l.gpu.report()).collect::<Vec<_>>());
        let mut report = SimReport {
            workload: self.workload.name.clone(),
            policy: self.policy.name().to_owned(),
            gpu_count: config.gpu_count,
            link: self.link.label().to_owned(),
            total_cycles: phase_ends.last().copied().unwrap_or(Cycle::ZERO),
            phase_ends,
            phase_traffic,
            interconnect_bytes: 0,
            interconnect_transfers: 0,
            per_gpu,
            policy_metrics: self.policy.metrics(),
        };
        report.absorb_traffic(self.fabric.counters());
        report
    }

    /// Window-barrier work: merge writer updates (WriterEpochs), apply the
    /// GPS routers' buffered effects and release pending kernel ends
    /// (GpsEpochs), then resolve suspended warps. A classic window leaves
    /// nothing behind, so this is a no-op there.
    fn barrier(&mut self, lanes: &mut [&mut Lane], window_end: u64) {
        if self.mode == LaneMode::WriterEpochs {
            barrier_merge(lanes, Arc::make_mut(self.writers));
        }
        let vis = (self.mode == LaneMode::GpsEpochs).then(|| {
            let mut routers: Vec<&mut dyn LaneRouter> = lanes
                .iter_mut()
                .filter_map(|l| l.routing.router.as_deref_mut())
                .collect();
            self.policy.lane_barrier(&mut routers, self.fabric)
        });
        if let Some(vis) = vis.as_deref() {
            for lane in lanes.iter_mut() {
                if let Some(t) = lane.pending_kernel.take() {
                    lane.advance_kernel(vis[lane.g].max(t));
                }
            }
        }
        let ctx = LaneCtx {
            config: self.config,
            mode: self.mode,
            index: self.index,
            writers: self.writers,
        };
        resolve_suspended(lanes, self.fabric, &ctx, window_end, vis.as_deref());
    }

    fn lane_ctx(&self) -> LaneCtx<'_> {
        LaneCtx {
            config: self.config,
            mode: self.mode,
            index: self.index,
            writers: self.writers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::LaneQueue;

    fn drain(q: &mut LaneQueue) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop_before(u64::MAX) {
            out.push(ev);
        }
        out
    }

    #[test]
    fn pops_in_cycle_order_with_fifo_ties() {
        let mut q = LaneQueue::new();
        q.push(5, 0);
        q.push(3, 1);
        q.push(5, 2);
        q.push(3, 3);
        q.push(4, 4);
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(drain(&mut q), vec![(3, 1), (3, 3), (4, 4), (5, 0), (5, 2)]);
        assert!(q.pop_before(u64::MAX).is_none());
    }

    #[test]
    fn pop_is_bounded_and_cycles_at_the_limit_stay_pushable() {
        let mut q = LaneQueue::new();
        q.push(4, 0);
        q.push(9, 1);
        assert_eq!(q.pop_before(8), Some((4, 0)));
        assert_eq!(q.pop_before(8), None);
        // A window barrier re-queues a resumed warp exactly at the window
        // end; it must order ahead of the later event already queued.
        q.push(8, 2);
        assert_eq!(drain(&mut q), vec![(8, 2), (9, 1)]);
    }

    #[test]
    fn packed_keys_round_trip_large_cycles_and_slots() {
        let mut q = LaneQueue::new();
        let t = 1 << 40; // far beyond any realistic run length
        let slot = (1 << 24) - 1;
        q.push(t, slot);
        q.push(t - 1, 0);
        assert_eq!(drain(&mut q), vec![(t - 1, 0), (t, slot)]);
    }

    #[test]
    fn same_cycle_order_is_push_order_across_many_events() {
        let mut q = LaneQueue::new();
        for slot in 0..100 {
            q.push(7, slot);
        }
        let popped: Vec<usize> = drain(&mut q).into_iter().map(|(_, s)| s).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }
}
