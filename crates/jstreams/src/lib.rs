//! # jstreams — Java-Streams semantics in Rust, with the PowerList adaptation
//!
//! This crate reproduces the machinery of the paper *"Enhancing Java
//! Streams API with PowerList Computation"*: a stream pipeline whose
//! parallel execution is directed by a splittable iterator
//! ([`Spliterator`]) and whose terminal mutable reduction
//! ([`Stream::collect`] with a [`Collector`]) acts as the **template
//! method of a divide-and-conquer skeleton**:
//!
//! * the splitting phase is controlled by *which spliterator* the stream
//!   was created from — [`TieSpliterator`] halves (`p | q`),
//!   [`ZipSpliterator`] splits by parity (`p ♮ q`) exactly like the
//!   paper's `trySplit`;
//! * the leaf phase runs the collector's supplier + accumulator (or an
//!   overridden [`Collector::leaf`] kernel). When the leaf's spliterator
//!   exposes its remaining elements as a borrowed strided run
//!   ([`LeafAccess`]; contiguous when the step is 1) and the collector
//!   provides a matching kernel ([`Collector::leaf_strided`]), the
//!   driver runs the leaf **zero-copy** over that borrow — no
//!   per-element callback dispatch and no clones;
//! * the combining phase runs the combiner — for PowerList results,
//!   [`PowerArray::tie_all`](powerlist::PowerArray::tie_all) /
//!   [`PowerArray::zip_all`](powerlist::PowerArray::zip_all);
//! * the [`Characteristics::POWER2`] flag gates PowerList collects, and
//!   [`SharedState`] + [`HookedZipSpliterator`] implement the paper's
//!   split-phase ↔ collect-phase communication mechanism (the Java
//!   inner-class trick).
//!
//! ## The paper's identity example
//!
//! ```
//! use jstreams::{power_stream, collect_powerlist, Decomposition};
//! use powerlist::tabulate;
//!
//! let data = tabulate(16, |i| i as f64).unwrap();
//! // create the stream from a ZipSpliterator, collect with zipAll:
//! let stream = power_stream(data.clone(), Decomposition::Zip);
//! let out = collect_powerlist(stream, Decomposition::Zip).unwrap();
//! assert_eq!(out, data); // decomposition and combining verified
//! ```

#![warn(missing_docs)]

pub mod characteristics;
pub mod collect;
pub mod collector;
pub mod exec;
pub mod fused;
pub mod nway;
pub mod placement;
pub mod power;
pub mod prelude;
pub mod search;
pub mod shared;
pub mod spliterator;
pub mod stream;
pub mod tie;
pub mod truncate;
pub mod walk;
pub mod zip;

pub use characteristics::Characteristics;
pub use collect::{default_leaf_size, run_leaf, try_collect_with};
pub use collector::{
    Collector, CountCollector, ExtremumCollector, FnCollector, JoiningCollector, ReduceCollector,
    VecCollector,
};
pub use exec::{ExecConfig, ExecError, ExecMode, ExecSession, Interrupt};
pub use forkjoin::{AdaptiveSplit, CancelReason, CancelToken, Deadline, SplitPolicy};
pub use fused::{
    FilterStage, FusePipe, FusedSpliterator, FusedStage, IdentityStage, InspectStage, MapStage,
};
pub use nway::{
    try_collect_nway, NTieSpliterator, NWayCollector, NWayDecomposition, NWaySpliterator,
    NZipSpliterator, PListCollector,
};
pub use placement::{
    descend, fixed_leaves, JoiningPlacement, OutputBuffer, PlacementBuf, PlacementSpec, RunWriter,
    VecPlacement, Window, WindowRule,
};
pub use pltune::{Fingerprint, Plan, PlanCache};
pub use power::{
    collect_powerlist, power_stream, try_collect_powerlist, Decomposition, PowerListCollector,
    PowerMapCollector, PowerSpliterator,
};
pub use search::{
    try_all_match_with, try_any_match_with, try_find_any_with, try_find_first_with,
    try_none_match_with, FirstHit, SearchSession,
};
pub use shared::SharedState;
pub use spliterator::{
    check_descriptor, require_power2, ItemSource, LeafAccess, SliceSpliterator, Spliterator,
};
pub use stream::{stream_support, Stream};
pub use tie::TieSpliterator;
pub use truncate::{LimitSpliterator, SkipSpliterator};
pub use zip::{HookedZipSpliterator, ZipSpliterator};

/// Serialises unit tests around the process-global `plobs` sink: a test
/// that records a `RunReport` holds [`exclusive`](test_serial::exclusive)
/// so no concurrently running collect or search leaks events into it;
/// every other test that runs a driver holds
/// [`shared`](test_serial::shared).
#[cfg(test)]
mod test_serial {
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    static LOCK: RwLock<()> = RwLock::new(());

    pub(crate) fn shared() -> RwLockReadGuard<'static, ()> {
        LOCK.read().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        LOCK.write().unwrap_or_else(|e| e.into_inner())
    }
}
