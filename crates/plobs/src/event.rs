//! The structured event vocabulary shared by every instrumented layer.
//!
//! Each variant of [`Event`] corresponds to one occurrence the paper's
//! evaluation cares about: tree structure (`Split`/`Combine`), leaf
//! dispatch ([`LeafRoute`]), scheduler behaviour (`Pool*`), shared-state
//! contention, and MPI-sim traffic. Events are small `Copy` values so
//! emission never allocates.

/// Which leaf kernel the collect driver dispatched to for one leaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LeafRoute {
    /// `Collector::leaf_strided` over a borrowed strided run
    /// (contiguous when its step is 1).
    ZeroCopy,
    /// A fused adapter chain (map/filter/inspect stages) folded over
    /// the *source's* borrowed run into the collector's
    /// accumulator — zero-copy traversal through adapters.
    FusedBorrow,
    /// The generic fallback: items cloned out one by one via
    /// `try_advance` and fed to `accumulate`.
    CloningDrain,
    /// A leaf computed by a template/executor leaf case (JPLF) rather
    /// than a streams collector kernel.
    Template,
    /// A destination-passing leaf: the leaf wrote its results straight
    /// into its `(base, step, len)` window of the root-allocated output
    /// buffer, so the ancestors' combines are no-op window merges.
    Placement,
}

impl LeafRoute {
    /// Stable lowercase name, used as the JSON key for the route.
    pub fn name(self) -> &'static str {
        match self {
            LeafRoute::ZeroCopy => "zero_copy",
            LeafRoute::FusedBorrow => "fused_borrow",
            LeafRoute::CloningDrain => "cloning_drain",
            LeafRoute::Template => "template",
            LeafRoute::Placement => "placement",
        }
    }
}

/// Why an execution session was cancelled.
///
/// Carried by [`Event::Cancel`] and stored inside a fork-join
/// `CancelToken`; first cancellation wins, so every pruned subtree of one
/// run reports the same reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// A sibling task panicked; the failure tripped the per-collect token
    /// so the rest of the tree short-circuits.
    Panic,
    /// The caller cancelled through its own token.
    User,
    /// The session's deadline expired.
    Deadline,
    /// A short-circuiting search terminal found its answer; the search
    /// driver tripped its internal token so every sibling subtree prunes
    /// at its next checkpoint. Success, not failure — search drivers
    /// intercept this reason instead of surfacing it as an error.
    Found,
}

impl CancelReason {
    /// Stable lowercase name, used as the JSON key for the reason.
    pub fn name(self) -> &'static str {
        match self {
            CancelReason::Panic => "panic",
            CancelReason::User => "user",
            CancelReason::Deadline => "deadline",
            CancelReason::Found => "found",
        }
    }
}

/// Why a parallel driver degraded to the sequential route.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FallbackReason {
    /// The pool's queued backlog exceeded the configured saturation
    /// threshold.
    PoolSaturated,
    /// Submission failed (the pool was shut down).
    SubmitFailed,
}

impl FallbackReason {
    /// Stable lowercase name, used as the JSON key for the reason.
    pub fn name(self) -> &'static str {
        match self {
            FallbackReason::PoolSaturated => "pool_saturated",
            FallbackReason::SubmitFailed => "submit_failed",
        }
    }
}

/// How the plan cache served one tuned execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TuneOutcome {
    /// The pipeline's fingerprint was found in the plan cache; the
    /// cached split policy was used with no measurement overhead.
    Hit,
    /// The fingerprint was absent (or invalidated) and another thread
    /// already owned the calibration ticket, so this run proceeded with
    /// the default policy instead of waiting.
    Miss,
    /// The fingerprint was absent and this thread ran the candidate
    /// sweep, installing the winner in the cache.
    Calibrate,
}

impl TuneOutcome {
    /// Stable lowercase name, used as the JSON key for the outcome.
    pub fn name(self) -> &'static str {
        match self {
            TuneOutcome::Hit => "hit",
            TuneOutcome::Miss => "miss",
            TuneOutcome::Calibrate => "calibrate",
        }
    }
}

/// Where a worker found a job it did not pop from its own deque.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealSource {
    /// The pool-global injector queue.
    Injector,
    /// Another worker's deque.
    Peer,
}

/// One structured occurrence in an instrumented run.
///
/// Durations are in nanoseconds and are measured by the emitting site
/// *only when a sink is installed* (see the crate-level
/// zero-cost-when-disabled contract).
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A spliterator was split; `depth` is the tree depth of the node
    /// that split (root = 0).
    Split {
        /// Tree depth of the node that split.
        depth: u32,
        /// Whether a demand-driven (adaptive) policy made this split
        /// decision, as opposed to a static size threshold.
        adaptive: bool,
    },
    /// Time attributed to the descending phase (splitting and task
    /// setup), excluding leaf and combine work.
    DescendNs {
        /// Nanoseconds spent descending.
        ns: u64,
    },
    /// A leaf was evaluated.
    Leaf {
        /// Which kernel the driver dispatched to.
        route: LeafRoute,
        /// Number of items the leaf covered.
        items: u64,
        /// Nanoseconds spent inside the leaf kernel.
        ns: u64,
    },
    /// Two child results were combined.
    Combine {
        /// Tree depth of the combining node (root = 0).
        depth: u32,
        /// Nanoseconds spent in the combiner.
        ns: u64,
        /// `true` when this was a destination-passing window merge (an
        /// O(1) bookkeeping step over the shared output buffer) rather
        /// than a splice of two materialized partial containers.
        placement: bool,
    },
    /// A pool worker executed one job.
    PoolExecute {
        /// Worker index within its pool.
        worker: u32,
    },
    /// A pool worker obtained a job by stealing.
    PoolSteal {
        /// The thief.
        worker: u32,
        /// Where the job came from.
        source: StealSource,
    },
    /// A pool worker parked (went to sleep awaiting work).
    PoolPark {
        /// Worker index within its pool.
        worker: u32,
    },
    /// A `join` resolved; `stolen` is true when the pending half had
    /// been stolen by another worker (the joiner helped while waiting).
    PoolJoin {
        /// Whether the pending half was executed by a thief.
        stolen: bool,
    },
    /// A `SharedState` lock acquisition; `contended` is true when the
    /// uncontended `try_lock` fast path failed and the caller blocked.
    SharedStateLock {
        /// Whether the acquisition had to block.
        contended: bool,
    },
    /// An execution-session checkpoint (split, leaf entry or combine)
    /// observed a tripped cancel token or an expired deadline and pruned
    /// its subtree. One event per short-circuited checkpoint.
    Cancel {
        /// Why the session was cancelled.
        reason: CancelReason,
    },
    /// A search driver abandoned a subtree without scanning it — either
    /// a sibling's hit tripped the `Found` cancellation, or (for
    /// `find_first`) the shared best-prefix index proved the subtree
    /// cannot contain an earlier hit. One event per pruned subtree root.
    EarlyExit {
        /// Pruned subtree roots this event accounts for (currently
        /// always 1; the field keeps the schema open for batched
        /// emission).
        leaves_pruned: u64,
    },
    /// A parallel driver degraded to the sequential route instead of
    /// submitting to its pool.
    Fallback {
        /// Why the driver fell back.
        reason: FallbackReason,
    },
    /// A self-tuning driver consulted its plan cache before executing.
    Tune {
        /// How the cache served this run.
        outcome: TuneOutcome,
    },
    /// One MPI-sim point-to-point message (collectives decompose into
    /// these).
    MpiSend {
        /// Sending rank.
        from: u32,
        /// Receiving rank.
        to: u32,
        /// Payload size in bytes (`size_of` the message type).
        bytes: u64,
    },
}
