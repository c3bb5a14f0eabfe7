//! Deterministic spatial sharding of one network across worker threads.
//!
//! A sharded [`crate::Network`] partitions the mesh into per-row router
//! groups and runs each group's fused router pass (VA then SA/ST per
//! router) on a pool of persistent worker threads: one pool phase, with
//! a start and a done barrier, per network tick. One phase suffices
//! because VA at router `r` reads only router `r`'s state and SA/ST at
//! `r` defers every effect on another router, so no router's pass can
//! observe another's within the tick. The protocol keeps reports
//! **byte-identical** to the sequential loop:
//!
//! - Every mutation the pass performs in place is shard-local: input VC
//!   buffers, allocations, output-VC ownership, credit decrements,
//!   iSLIP pointers, the router's own occupancy words, per-router link
//!   counters, and the ejection budget of the shard's own locally
//!   attached nodes. On a mesh, node `n` attaches to router `n`, so a
//!   contiguous router range owns the identical node range. Occupancy
//!   words are per router, never shared, so no two shards write one
//!   word.
//! - Anything that crosses a shard boundary or lands in shared state —
//!   link transfers, credit returns, completed ejections (slab removal,
//!   global stats, per-node ejection queues) — is recorded in a
//!   per-shard [`ShardScratch`] during the pass and merged on the main
//!   thread *in shard order* after the barrier. Shard order equals
//!   router order, so the merged streams are exactly what the
//!   sequential loop pushes, flit for flit, and the packet-slab free
//!   list (which decides future slot assignment) evolves identically.
//! - Fast-forward composes untouched: shards run in lockstep inside one
//!   `Network::tick`, so the global `next_event`/`advance_to` horizon
//!   is trivially "all shards agree"; workers simply idle at the
//!   barrier while the clock jumps.
//!
//! The pool workers drive shard passes through a raw `*mut Network`
//! published under the barrier (release/acquire on the generation word
//! gives the happens-before edge). Each participant touches only its
//! shard's disjoint state, so there are no data races; the aliasing of
//! the enclosing struct is confined to this module and documented at
//! the single unsafe dereference.

use crate::flit::{Flit, Slot};
use crate::network::Network;
use clognet_proto::{Priority, Topology};
use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Why a shard count cannot be applied to a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError(pub String);

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ShardError {}

/// Check that `shards` partitions cleanly. Sharding is spatial (per-row
/// router groups), so more than one shard requires a mesh whose row
/// count `shards` divides evenly; `1` is valid everywhere (the
/// sequential engine).
pub fn validate(topology: Topology, height: usize, shards: usize) -> Result<(), ShardError> {
    if shards == 0 {
        return Err(ShardError("shard count must be at least 1".into()));
    }
    if shards == 1 {
        return Ok(());
    }
    if topology != Topology::Mesh {
        return Err(ShardError(format!(
            "{shards} shards require a mesh topology; {topology:?} only runs with 1 shard"
        )));
    }
    if shards > height || !height.is_multiple_of(shards) {
        return Err(ShardError(format!(
            "{shards} shards do not evenly divide the {height} mesh rows"
        )));
    }
    Ok(())
}

/// The spatial partition: shard `s` owns the contiguous router range
/// `bounds[s]..bounds[s + 1]` (and, on a mesh, the identical node
/// range).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// The trivial plan: one shard over all `routers`.
    pub fn single(routers: usize) -> Self {
        ShardPlan {
            bounds: vec![0, routers],
        }
    }

    /// Build a per-row mesh plan (or the trivial plan for `shards == 1`).
    ///
    /// # Errors
    ///
    /// Fails when [`validate`] rejects the combination.
    pub fn new(
        topology: Topology,
        width: usize,
        height: usize,
        routers: usize,
        shards: usize,
    ) -> Result<Self, ShardError> {
        validate(topology, height, shards)?;
        if shards == 1 {
            return Ok(Self::single(routers));
        }
        let rows_per = height / shards;
        Ok(ShardPlan {
            bounds: (0..=shards).map(|s| s * rows_per * width).collect(),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Router index range owned by shard `s`.
    pub fn router_range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }
}

/// One switch-allocation request: the input VC at local bit `bit`
/// (input port `inp`, VC `vc`) asks for output port `out`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SaReq {
    pub bit: u32,
    pub out: u16,
    pub inp: u16,
    pub vc: u8,
    pub prio: Priority,
}

/// "No request" in the per-port grant/accept slots.
pub(crate) const NO_REQ: u16 = u16::MAX;

/// Per-shard working set for one tick. Everything a shard defers for
/// the in-order merge lives here, plus the SA scratch buffers (cleared,
/// never reallocated, so steady-state ticks stay heap-free).
#[derive(Debug, Default)]
pub(crate) struct ShardScratch {
    /// SA requests gathered per router, ascending (port, vc).
    pub sa_req: Vec<SaReq>,
    /// Per output port: the request it grants this round.
    pub sa_grant: Vec<u16>,
    /// Per input port: the grant it accepts this round.
    pub sa_accept: Vec<u16>,
    /// Output ports that granted this round.
    pub sa_outs: Vec<u16>,
    /// Accepted requests, in traversal order.
    pub sa_accepted: Vec<u16>,
    /// SA: output ports already matched this cycle.
    pub sa_out_taken: Vec<bool>,
    /// SA: input ports already matched this cycle.
    pub sa_in_taken: Vec<bool>,
    /// Link transfers `(router, local bit, flit)` leaving this shard's
    /// routers (possibly into another shard); applied after the merge.
    pub transfers: Vec<(u32, u32, Flit)>,
    /// Flat output-VC indices owed a credit (possibly in another
    /// shard); applied after the merge.
    pub credit_returns: Vec<u32>,
    /// Packets whose last flit ejected this cycle: (slot, node index).
    /// Slab removal, stats recording, and the ejection-queue push all
    /// touch shared state and happen in the merge.
    pub ejections: Vec<(Slot, usize)>,
}

impl ShardScratch {
    /// Scratch for routers of at most `max_ports` ports.
    pub fn new(max_ports: usize) -> Self {
        ShardScratch {
            sa_grant: vec![NO_REQ; max_ports],
            sa_accept: vec![NO_REQ; max_ports],
            sa_out_taken: vec![false; max_ports],
            sa_in_taken: vec![false; max_ports],
            ..ShardScratch::default()
        }
    }
}

/// Sense-reversing spin barrier: cheap per-cycle rendezvous without
/// kernel futex round-trips (a `std::sync::Barrier` parks threads,
/// which at one barrier every few microseconds dominates the tick).
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver releases everyone: reset the count first so
            // re-entrant waiters of the next barrier start from zero.
            self.count.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    // Oversubscribed host (CI): stop burning the core the
                    // releasing thread may need.
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Work published to the pool for one tick.
#[derive(Clone, Copy)]
struct Work {
    net: *mut Network,
}

struct PoolShared {
    barrier: SpinBarrier,
    /// Written by the coordinating thread strictly before its start-
    /// barrier arrival; read by workers strictly after they pass it.
    /// The barrier's release/acquire pair is the happens-before edge.
    work: UnsafeCell<Work>,
    stop: AtomicBool,
}

// SAFETY: `work` is only written before / read after a barrier
// generation change (see field doc), and the `*mut Network` inside is
// only dereferenced for disjoint per-shard state under that protocol.
unsafe impl Sync for PoolShared {}
unsafe impl Send for PoolShared {}

/// A pool of persistent shard workers. One pool drives every phase of
/// one or more `Network`s (the baseline's request/reply pair shares a
/// single pool) — networks tick strictly one at a time, so the workers
/// only ever see one live `*mut Network`.
///
/// Worker `s` processes shard `s`; the coordinating thread (the caller
/// of [`ShardPool::run`]) processes shard 0 itself, so `n` shards cost
/// `n - 1` threads and the main thread never parks.
pub struct ShardPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    shards: usize,
}

impl fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardPool")
            .field("shards", &self.shards)
            .finish()
    }
}

impl ShardPool {
    /// Spawn a pool for `shards` shards (`shards - 1` worker threads).
    ///
    /// # Panics
    ///
    /// Panics if `shards < 2` (the sequential engine needs no pool).
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 2, "a pool needs at least 2 shards");
        let shared = Arc::new(PoolShared {
            barrier: SpinBarrier::new(shards),
            work: UnsafeCell::new(Work {
                net: std::ptr::null_mut(),
            }),
            stop: AtomicBool::new(false),
        });
        let workers = (1..shards)
            .map(|s| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clognet-shard-{s}"))
                    .spawn(move || worker_loop(&shared, s))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardPool {
            shared,
            workers,
            shards,
        }
    }

    /// Shard count this pool was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Run the router pass of `net` across all shards and wait for
    /// completion.
    pub(crate) fn run(&self, net: &mut Network) {
        let ptr: *mut Network = net;
        // SAFETY: workers are parked at the start barrier, so nothing
        // reads `work` until this thread arrives there below.
        unsafe {
            *self.shared.work.get() = Work { net: ptr };
        }
        self.shared.barrier.wait(); // release the pass
        net.tick_shard(0); // coordinator takes shard 0
        self.shared.barrier.wait(); // all shards done
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Release workers from the start barrier; they observe `stop`
        // and exit without touching `work`.
        self.shared.barrier.wait();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, shard: usize) {
    loop {
        shared.barrier.wait(); // pass start
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let Work { net } = unsafe { *shared.work.get() };
        // SAFETY: the coordinator published a live `&mut Network` for
        // this pass and every participant touches only its own shard's
        // disjoint state (see module docs); the reference does not
        // outlive the done barrier below.
        let net = unsafe { &mut *net };
        net.tick_shard(shard);
        shared.barrier.wait(); // pass done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_dividing_shard_counts() {
        for n in [1, 2, 4, 8] {
            assert!(validate(Topology::Mesh, 8, n).is_ok(), "{n} shards");
        }
    }

    #[test]
    fn validate_rejects_non_dividing_and_oversized() {
        let err = validate(Topology::Mesh, 8, 3).unwrap_err();
        assert!(err.0.contains("3 shards"), "{err}");
        assert!(err.0.contains("8 mesh rows"), "{err}");
        assert!(validate(Topology::Mesh, 8, 16).is_err());
        assert!(validate(Topology::Mesh, 8, 0).is_err());
    }

    #[test]
    fn validate_rejects_non_mesh_topologies() {
        for kind in [
            Topology::Crossbar,
            Topology::FlattenedButterfly,
            Topology::Dragonfly,
        ] {
            assert!(validate(kind, 8, 2).is_err(), "{kind:?}");
            assert!(validate(kind, 8, 1).is_ok(), "{kind:?} single shard");
        }
    }

    #[test]
    fn plan_covers_routers_contiguously() {
        let plan = ShardPlan::new(Topology::Mesh, 8, 8, 64, 4).unwrap();
        assert_eq!(plan.shards(), 4);
        let mut next = 0;
        for s in 0..4 {
            let r = plan.router_range(s);
            assert_eq!(r.start, next);
            assert_eq!(r.len(), 16, "two 8-wide rows per shard");
            next = r.end;
        }
        assert_eq!(next, 64);
    }

    #[test]
    fn spin_barrier_synchronizes_counters() {
        let barrier = Arc::new(SpinBarrier::new(4));
        let hits = Arc::new(AtomicUsize::new(0));
        let rounds = 200;
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let (b, h) = (Arc::clone(&barrier), Arc::clone(&hits));
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        h.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        // After the barrier every participant of this
                        // round has incremented.
                        assert!(h.load(Ordering::SeqCst) >= (round + 1) * 4);
                        b.wait();
                    }
                })
            })
            .collect();
        for round in 0..rounds {
            hits.fetch_add(1, Ordering::SeqCst);
            barrier.wait();
            assert!(hits.load(Ordering::SeqCst) >= (round + 1) * 4);
            barrier.wait();
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 4 * rounds);
    }

    #[test]
    fn pool_drops_cleanly_without_work() {
        let pool = ShardPool::new(4);
        assert_eq!(pool.shards(), 4);
        drop(pool); // workers must exit and join
    }
}
