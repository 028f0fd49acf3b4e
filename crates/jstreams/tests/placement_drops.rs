//! The unsafe surface of the typed placement writer.
//!
//! Leaves of a fused zip→zip collect fill their output window through
//! `RunWriter::sink`, which writes `MaybeUninit` cells through a raw
//! pointer and records its progress only when it drops. A mapper that
//! panics in the middle of a leaf must therefore surface as
//! `ExecError::Panicked` with every initialised cell dropped exactly
//! once — no leak, no double drop — on the sequential route (one
//! whole-output leaf) and on the parallel block route (contiguous
//! windows). A drop-counting element type makes both failure modes
//! visible as wrong counts.

use forkjoin::ForkJoinPool;
use jstreams::{
    stream_support, Decomposition, ExecConfig, ExecError, PowerListCollector, ZipSpliterator,
};
use powerlist::{PowerArray, PowerList};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serialises the tests in this binary: one of them records a global
/// `plobs` report, which a concurrently running collect would pollute.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// For every element ever created, how many times it was dropped.
#[derive(Default)]
struct Ledger {
    drops: Mutex<Vec<u32>>,
}

impl Ledger {
    fn drops(&self) -> MutexGuard<'_, Vec<u32>> {
        self.drops.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn mint(self: &Arc<Self>) -> Tally {
        let mut drops = self.drops();
        drops.push(0);
        Tally {
            id: drops.len() - 1,
            ledger: Arc::clone(self),
        }
    }

    /// `(created, still alive)`, panicking on any double drop.
    fn audit(&self) -> (usize, usize) {
        let drops = self.drops();
        if let Some(id) = drops.iter().position(|&d| d > 1) {
            panic!("element {id} dropped {} times", drops[id]);
        }
        (drops.len(), drops.iter().filter(|&&d| d == 0).count())
    }
}

/// A drop-counted element.
struct Tally {
    id: usize,
    ledger: Arc<Ledger>,
}

impl Clone for Tally {
    fn clone(&self) -> Self {
        self.ledger.mint()
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        self.ledger.drops()[self.id] += 1;
    }
}

const N: i64 = 64;

/// zip source → `map` minting one `Tally` per element (panicking at
/// `poison`) → `PowerListCollector(Zip)`: the matched pairing that
/// takes the block route in parallel.
fn collect_tallies(
    ledger: &Arc<Ledger>,
    poison: i64,
    cfg: &ExecConfig,
) -> Result<PowerArray<Tally>, ExecError> {
    let list = PowerList::from_vec((0..N).collect()).unwrap();
    let ledger = Arc::clone(ledger);
    stream_support(ZipSpliterator::over(list), true)
        .map(move |x: i64| {
            assert!(x != poison, "mapper poison {x}");
            ledger.mint()
        })
        .try_collect(PowerListCollector::new(Decomposition::Zip), cfg)
}

fn configs() -> [(&'static str, ExecConfig); 2] {
    [
        ("seq", ExecConfig::seq()),
        (
            "par",
            ExecConfig::par()
                .with_pool(Arc::new(ForkJoinPool::new(2)))
                .with_leaf_size(8),
        ),
    ]
}

#[test]
fn mapper_panic_mid_leaf_drops_every_written_cell_once() {
    let _serial = serial();
    // Poison the first, a middle and the last element of a leaf (leaves
    // are the 8-element blocks [8i, 8i + 8) in parallel) and both ends
    // of the whole output.
    for poison in [0, 7, 8, 37, 63] {
        for (route, cfg) in configs() {
            let ledger = Arc::new(Ledger::default());
            let err = collect_tallies(&ledger, poison, &cfg)
                .err()
                .unwrap_or_else(|| panic!("{route}/{poison}: the poisoned collect must fail"));
            assert!(matches!(err, ExecError::Panicked(_)), "{route}/{poison}");
            let msg = format!("mapper poison {poison}");
            assert_eq!(err.panic_message(), Some(msg.as_str()));
            let (created, alive) = ledger.audit();
            assert!(
                created < N as usize,
                "{route}/{poison}: the poisoned element must never be minted"
            );
            assert_eq!(
                alive, 0,
                "{route}/{poison}: {alive} of {created} cells leaked"
            );
        }
    }
}

#[test]
fn finished_output_owns_each_cell_once() {
    let _serial = serial();
    for (route, cfg) in configs() {
        let ledger = Arc::new(Ledger::default());
        let (out, report) = plobs::recorded(|| collect_tallies(&ledger, -1, &cfg).unwrap());
        assert_eq!(
            report.routes.placement.leaves,
            report.routes.total_leaves(),
            "{route}: every leaf takes the placement route"
        );
        assert_eq!(
            ledger.audit(),
            (N as usize, N as usize),
            "{route}: nothing dropped yet"
        );
        // Slot r holds the element minted for rank r: ids follow the
        // leaves' minting order, so only their multiset is fixed, but each
        // output cell must be a distinct live element.
        let mut ids: Vec<usize> = out.as_slice().iter().map(|t| t.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..N as usize).collect::<Vec<_>>(), "{route}");
        drop(out);
        assert_eq!(
            ledger.audit(),
            (N as usize, 0),
            "{route}: each cell dropped once"
        );
    }
}
