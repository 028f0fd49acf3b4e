//! The standard sink: a lock-cheap, per-thread-sharded recorder.
//!
//! [`RunRecorder::record`] is called from pool workers, MPI-sim rank
//! threads and the driver thread concurrently. To keep the record path
//! cheap it never takes a lock in steady state: each thread owns one
//! `Shard` of relaxed atomic counters, found through a thread-local
//! cache keyed by the recorder's id. The shard list's mutex is touched
//! only the first time a given thread records into a given recorder.
//! [`RunRecorder::finish`] merges all shards into a [`RunReport`].

use crate::event::{CancelReason, Event, FallbackReason, LeafRoute, StealSource, TuneOutcome};
use crate::report::{RankStats, RouteStats, RunReport, WorkerStats};
use crate::EventSink;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Split-depth histogram capacity; a power-of-two input of length
/// `2^d` produces depths `0..d`, so 64 covers anything addressable.
/// Deeper (or wider) indices fold into the last slot.
const MAX_DEPTH: usize = 64;
/// Per-worker slot capacity; workers beyond this fold into the last slot.
const MAX_WORKERS: usize = 64;
/// Per-rank slot capacity; ranks beyond this fold into the last slot.
const MAX_RANKS: usize = 64;

fn slot(index: u32, cap: usize) -> usize {
    (index as usize).min(cap - 1)
}

fn zeroed<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// One thread's private block of counters. All relaxed: the merge in
/// [`RunRecorder::finish`] happens after the recorded section's joins,
/// which provide the necessary happens-before edges.
struct Shard {
    splits: AtomicU64,
    splits_adaptive: AtomicU64,
    split_depths: [AtomicU64; MAX_DEPTH],
    descend_ns: AtomicU64,
    // Indexed by `route_index` (6 routes).
    route_leaves: [AtomicU64; 5],
    route_items: [AtomicU64; 5],
    leaf_ns: AtomicU64,
    combines: AtomicU64,
    combines_placement: AtomicU64,
    ascend_ns: AtomicU64,
    executed: [AtomicU64; MAX_WORKERS],
    injector_steals: [AtomicU64; MAX_WORKERS],
    peer_steals: [AtomicU64; MAX_WORKERS],
    parks: [AtomicU64; MAX_WORKERS],
    joins: AtomicU64,
    joins_stolen: AtomicU64,
    lock_acquisitions: AtomicU64,
    lock_contended: AtomicU64,
    mpi_sends: [AtomicU64; MAX_RANKS],
    mpi_send_bytes: [AtomicU64; MAX_RANKS],
    mpi_recvs: [AtomicU64; MAX_RANKS],
    mpi_recv_bytes: [AtomicU64; MAX_RANKS],
    // Indexed by `cancel_index` (4 reasons).
    cancels: [AtomicU64; 4],
    // Indexed by `fallback_index` (2 reasons).
    fallbacks: [AtomicU64; 2],
    // Indexed by `tune_index` (3 outcomes).
    tunes: [AtomicU64; 3],
    early_exits: AtomicU64,
    leaves_pruned: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            splits: AtomicU64::new(0),
            splits_adaptive: AtomicU64::new(0),
            split_depths: zeroed(),
            descend_ns: AtomicU64::new(0),
            route_leaves: zeroed(),
            route_items: zeroed(),
            leaf_ns: AtomicU64::new(0),
            combines: AtomicU64::new(0),
            combines_placement: AtomicU64::new(0),
            ascend_ns: AtomicU64::new(0),
            executed: zeroed(),
            injector_steals: zeroed(),
            peer_steals: zeroed(),
            parks: zeroed(),
            joins: AtomicU64::new(0),
            joins_stolen: AtomicU64::new(0),
            lock_acquisitions: AtomicU64::new(0),
            lock_contended: AtomicU64::new(0),
            mpi_sends: zeroed(),
            mpi_send_bytes: zeroed(),
            mpi_recvs: zeroed(),
            mpi_recv_bytes: zeroed(),
            cancels: zeroed(),
            fallbacks: zeroed(),
            tunes: zeroed(),
            early_exits: AtomicU64::new(0),
            leaves_pruned: AtomicU64::new(0),
        }
    }

    fn record(&self, event: &Event) {
        match *event {
            Event::Split { depth, adaptive } => {
                self.splits.fetch_add(1, Relaxed);
                if adaptive {
                    self.splits_adaptive.fetch_add(1, Relaxed);
                }
                self.split_depths[slot(depth, MAX_DEPTH)].fetch_add(1, Relaxed);
            }
            Event::DescendNs { ns } => {
                self.descend_ns.fetch_add(ns, Relaxed);
            }
            Event::Leaf { route, items, ns } => {
                let r = route_index(route);
                self.route_leaves[r].fetch_add(1, Relaxed);
                self.route_items[r].fetch_add(items, Relaxed);
                self.leaf_ns.fetch_add(ns, Relaxed);
            }
            Event::Combine { ns, placement, .. } => {
                self.combines.fetch_add(1, Relaxed);
                if placement {
                    self.combines_placement.fetch_add(1, Relaxed);
                }
                self.ascend_ns.fetch_add(ns, Relaxed);
            }
            Event::PoolExecute { worker } => {
                self.executed[slot(worker, MAX_WORKERS)].fetch_add(1, Relaxed);
            }
            Event::PoolSteal { worker, source } => {
                let w = slot(worker, MAX_WORKERS);
                match source {
                    StealSource::Injector => self.injector_steals[w].fetch_add(1, Relaxed),
                    StealSource::Peer => self.peer_steals[w].fetch_add(1, Relaxed),
                };
            }
            Event::PoolPark { worker } => {
                self.parks[slot(worker, MAX_WORKERS)].fetch_add(1, Relaxed);
            }
            Event::PoolJoin { stolen } => {
                self.joins.fetch_add(1, Relaxed);
                if stolen {
                    self.joins_stolen.fetch_add(1, Relaxed);
                }
            }
            Event::SharedStateLock { contended } => {
                self.lock_acquisitions.fetch_add(1, Relaxed);
                if contended {
                    self.lock_contended.fetch_add(1, Relaxed);
                }
            }
            Event::Cancel { reason } => {
                self.cancels[cancel_index(reason)].fetch_add(1, Relaxed);
            }
            Event::EarlyExit { leaves_pruned } => {
                self.early_exits.fetch_add(1, Relaxed);
                self.leaves_pruned.fetch_add(leaves_pruned, Relaxed);
            }
            Event::Fallback { reason } => {
                self.fallbacks[fallback_index(reason)].fetch_add(1, Relaxed);
            }
            Event::Tune { outcome } => {
                self.tunes[tune_index(outcome)].fetch_add(1, Relaxed);
            }
            Event::MpiSend { from, to, bytes } => {
                let f = slot(from, MAX_RANKS);
                let t = slot(to, MAX_RANKS);
                self.mpi_sends[f].fetch_add(1, Relaxed);
                self.mpi_send_bytes[f].fetch_add(bytes, Relaxed);
                self.mpi_recvs[t].fetch_add(1, Relaxed);
                self.mpi_recv_bytes[t].fetch_add(bytes, Relaxed);
            }
        }
    }
}

fn route_index(route: LeafRoute) -> usize {
    match route {
        LeafRoute::ZeroCopy => 0,
        LeafRoute::FusedBorrow => 1,
        LeafRoute::CloningDrain => 2,
        LeafRoute::Template => 3,
        LeafRoute::Placement => 4,
    }
}

fn cancel_index(reason: CancelReason) -> usize {
    match reason {
        CancelReason::Panic => 0,
        CancelReason::User => 1,
        CancelReason::Deadline => 2,
        CancelReason::Found => 3,
    }
}

fn fallback_index(reason: FallbackReason) -> usize {
    match reason {
        FallbackReason::PoolSaturated => 0,
        FallbackReason::SubmitFailed => 1,
    }
}

fn tune_index(outcome: TuneOutcome) -> usize {
    match outcome {
        TuneOutcome::Hit => 0,
        TuneOutcome::Miss => 1,
        TuneOutcome::Calibrate => 2,
    }
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // (recorder id, this thread's shard of that recorder). One entry is
    // enough: a thread records into one recorder at a time in practice,
    // and a miss just re-registers through the mutex.
    static CACHED_SHARD: RefCell<Option<(u64, Arc<Shard>)>> = const { RefCell::new(None) };
}

/// The standard [`EventSink`]: per-thread shards of relaxed atomic
/// counters, merged on [`finish`](RunRecorder::finish).
pub struct RunRecorder {
    id: u64,
    shards: Mutex<Vec<Arc<Shard>>>,
}

impl Default for RunRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl RunRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        RunRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Relaxed),
            shards: Mutex::new(Vec::new()),
        }
    }

    fn shard(&self) -> Arc<Shard> {
        CACHED_SHARD.with(|cache| {
            let mut cache = cache.borrow_mut();
            match cache.as_ref() {
                Some((id, shard)) if *id == self.id => Arc::clone(shard),
                _ => {
                    let shard = Arc::new(Shard::new());
                    self.shards.lock().push(Arc::clone(&shard));
                    *cache = Some((self.id, Arc::clone(&shard)));
                    shard
                }
            }
        })
    }

    /// Merges every thread's shard into one [`RunReport`]. The
    /// recorder stays usable; later events accumulate on top.
    pub fn finish(&self) -> RunReport {
        let shards = self.shards.lock();
        let mut report = RunReport::default();
        let mut split_depths = [0u64; MAX_DEPTH];
        let mut executed = [0u64; MAX_WORKERS];
        let mut injector_steals = [0u64; MAX_WORKERS];
        let mut peer_steals = [0u64; MAX_WORKERS];
        let mut parks = [0u64; MAX_WORKERS];
        let mut sends = [0u64; MAX_RANKS];
        let mut send_bytes = [0u64; MAX_RANKS];
        let mut recvs = [0u64; MAX_RANKS];
        let mut recv_bytes = [0u64; MAX_RANKS];
        let mut routes = [RouteStats::default(); 5];

        for shard in shards.iter() {
            report.splits += shard.splits.load(Relaxed);
            report.cancels_panic += shard.cancels[0].load(Relaxed);
            report.cancels_user += shard.cancels[1].load(Relaxed);
            report.cancels_deadline += shard.cancels[2].load(Relaxed);
            report.cancels_found += shard.cancels[3].load(Relaxed);
            report.early_exits += shard.early_exits.load(Relaxed);
            report.leaves_pruned += shard.leaves_pruned.load(Relaxed);
            report.fallbacks_saturated += shard.fallbacks[0].load(Relaxed);
            report.fallbacks_submit += shard.fallbacks[1].load(Relaxed);
            report.tune_hits += shard.tunes[0].load(Relaxed);
            report.tune_misses += shard.tunes[1].load(Relaxed);
            report.tune_calibrations += shard.tunes[2].load(Relaxed);
            report.splits_adaptive += shard.splits_adaptive.load(Relaxed);
            report.descend_ns += shard.descend_ns.load(Relaxed);
            report.leaf_ns += shard.leaf_ns.load(Relaxed);
            report.combines += shard.combines.load(Relaxed);
            report.combines_placement += shard.combines_placement.load(Relaxed);
            report.ascend_ns += shard.ascend_ns.load(Relaxed);
            report.joins += shard.joins.load(Relaxed);
            report.joins_stolen += shard.joins_stolen.load(Relaxed);
            report.lock_acquisitions += shard.lock_acquisitions.load(Relaxed);
            report.lock_contended += shard.lock_contended.load(Relaxed);
            for (acc, src) in split_depths.iter_mut().zip(&shard.split_depths) {
                *acc += src.load(Relaxed);
            }
            for (acc, src) in routes.iter_mut().zip(shard.route_leaves.iter()) {
                acc.leaves += src.load(Relaxed);
            }
            for (acc, src) in routes.iter_mut().zip(shard.route_items.iter()) {
                acc.items += src.load(Relaxed);
            }
            for (acc, src) in executed.iter_mut().zip(&shard.executed) {
                *acc += src.load(Relaxed);
            }
            for (acc, src) in injector_steals.iter_mut().zip(&shard.injector_steals) {
                *acc += src.load(Relaxed);
            }
            for (acc, src) in peer_steals.iter_mut().zip(&shard.peer_steals) {
                *acc += src.load(Relaxed);
            }
            for (acc, src) in parks.iter_mut().zip(&shard.parks) {
                *acc += src.load(Relaxed);
            }
            for (acc, src) in sends.iter_mut().zip(&shard.mpi_sends) {
                *acc += src.load(Relaxed);
            }
            for (acc, src) in send_bytes.iter_mut().zip(&shard.mpi_send_bytes) {
                *acc += src.load(Relaxed);
            }
            for (acc, src) in recvs.iter_mut().zip(&shard.mpi_recvs) {
                *acc += src.load(Relaxed);
            }
            for (acc, src) in recv_bytes.iter_mut().zip(&shard.mpi_recv_bytes) {
                *acc += src.load(Relaxed);
            }
        }

        report.split_depths = trimmed(&split_depths);
        report.routes.zero_copy = routes[0];
        report.routes.fused_borrow = routes[1];
        report.routes.cloning_drain = routes[2];
        report.routes.template = routes[3];
        report.routes.placement = routes[4];
        report.executed = executed.iter().sum();

        let used_workers = last_active(&[&executed, &injector_steals, &peer_steals, &parks]);
        report.per_worker = (0..used_workers)
            .map(|w| WorkerStats {
                worker: w as u32,
                executed: executed[w],
                injector_steals: injector_steals[w],
                peer_steals: peer_steals[w],
                parks: parks[w],
            })
            .collect();

        let used_ranks = last_active(&[&sends, &recvs]);
        report.per_rank = (0..used_ranks)
            .map(|r| RankStats {
                rank: r as u32,
                sends: sends[r],
                send_bytes: send_bytes[r],
                recvs: recvs[r],
                recv_bytes: recv_bytes[r],
            })
            .collect();

        report
    }
}

impl EventSink for RunRecorder {
    fn record(&self, event: &Event) {
        self.shard().record(event);
    }
}

/// Index one past the highest slot that is nonzero in any of `columns`.
fn last_active(columns: &[&[u64]]) -> usize {
    columns
        .iter()
        .map(|col| col.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1))
        .max()
        .unwrap_or(0)
}

fn trimmed(hist: &[u64]) -> Vec<u64> {
    let len = hist.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);
    hist[..len].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_merge_across_threads() {
        let rec = Arc::new(RunRecorder::new());
        let hs: Vec<_> = (0..3)
            .map(|w| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        rec.record(&Event::PoolExecute { worker: w });
                        rec.record(&Event::PoolSteal {
                            worker: w,
                            source: StealSource::Peer,
                        });
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let report = rec.finish();
        assert_eq!(report.executed, 15);
        assert_eq!(report.per_worker.len(), 3);
        for (w, stats) in report.per_worker.iter().enumerate() {
            assert_eq!(stats.worker, w as u32);
            assert_eq!(stats.executed, 5);
            assert_eq!(stats.peer_steals, 5);
            assert_eq!(stats.injector_steals, 0);
        }
    }

    #[test]
    fn depth_histogram_is_trimmed() {
        let rec = RunRecorder::new();
        rec.record(&Event::Split {
            depth: 0,
            adaptive: false,
        });
        rec.record(&Event::Split {
            depth: 2,
            adaptive: true,
        });
        rec.record(&Event::Split {
            depth: 2,
            adaptive: true,
        });
        let report = rec.finish();
        assert_eq!(report.splits, 3);
        assert_eq!(report.splits_adaptive, 2);
        assert_eq!(report.split_depths, vec![1, 0, 2]);
        assert_eq!(report.max_split_depth(), 2);
    }

    #[test]
    fn out_of_range_indices_fold_into_last_slot() {
        let rec = RunRecorder::new();
        rec.record(&Event::Split {
            depth: 9999,
            adaptive: false,
        });
        rec.record(&Event::PoolExecute { worker: 9999 });
        let report = rec.finish();
        assert_eq!(report.splits, 1);
        assert_eq!(report.split_depths.len(), MAX_DEPTH);
        assert_eq!(report.per_worker.len(), MAX_WORKERS);
        assert_eq!(report.executed, 1);
    }

    #[test]
    fn mpi_sends_count_both_sides() {
        let rec = RunRecorder::new();
        rec.record(&Event::MpiSend {
            from: 0,
            to: 1,
            bytes: 16,
        });
        rec.record(&Event::MpiSend {
            from: 1,
            to: 0,
            bytes: 8,
        });
        let report = rec.finish();
        assert_eq!(report.per_rank.len(), 2);
        assert_eq!(report.per_rank[0].sends, 1);
        assert_eq!(report.per_rank[0].send_bytes, 16);
        assert_eq!(report.per_rank[0].recvs, 1);
        assert_eq!(report.per_rank[0].recv_bytes, 8);
        assert_eq!(report.per_rank[1].sends, 1);
        assert_eq!(report.per_rank[1].recv_bytes, 16);
    }

    #[test]
    fn cancels_and_fallbacks_counted_by_reason() {
        let rec = RunRecorder::new();
        rec.record(&Event::Cancel {
            reason: CancelReason::Panic,
        });
        rec.record(&Event::Cancel {
            reason: CancelReason::Panic,
        });
        rec.record(&Event::Cancel {
            reason: CancelReason::Deadline,
        });
        rec.record(&Event::Fallback {
            reason: FallbackReason::PoolSaturated,
        });
        let report = rec.finish();
        assert_eq!(report.cancels_panic, 2);
        assert_eq!(report.cancels_user, 0);
        assert_eq!(report.cancels_deadline, 1);
        assert_eq!(report.cancels(), 3);
        assert_eq!(report.fallbacks_saturated, 1);
        assert_eq!(report.fallbacks(), 1);
    }

    #[test]
    fn early_exits_counted_with_found_cancels() {
        let rec = RunRecorder::new();
        rec.record(&Event::Cancel {
            reason: CancelReason::Found,
        });
        rec.record(&Event::EarlyExit { leaves_pruned: 1 });
        rec.record(&Event::EarlyExit { leaves_pruned: 3 });
        let report = rec.finish();
        assert_eq!(report.cancels_found, 1);
        assert_eq!(report.cancels(), 1);
        assert_eq!(report.early_exits, 2);
        assert_eq!(report.leaves_pruned, 4);
    }

    #[test]
    fn tunes_counted_by_outcome() {
        let rec = RunRecorder::new();
        rec.record(&Event::Tune {
            outcome: TuneOutcome::Calibrate,
        });
        rec.record(&Event::Tune {
            outcome: TuneOutcome::Hit,
        });
        rec.record(&Event::Tune {
            outcome: TuneOutcome::Hit,
        });
        rec.record(&Event::Tune {
            outcome: TuneOutcome::Miss,
        });
        let report = rec.finish();
        assert_eq!(report.tune_hits, 2);
        assert_eq!(report.tune_misses, 1);
        assert_eq!(report.tune_calibrations, 1);
        assert_eq!(report.tunes(), 4);
    }

    #[test]
    fn finish_is_cumulative_and_reusable() {
        let rec = RunRecorder::new();
        rec.record(&Event::PoolJoin { stolen: true });
        assert_eq!(rec.finish().joins, 1);
        rec.record(&Event::PoolJoin { stolen: false });
        let report = rec.finish();
        assert_eq!(report.joins, 2);
        assert_eq!(report.joins_stolen, 1);
    }
}
