//! The merged view of a recorded run, plus its JSON rendering.

use std::fmt::Write as _;

/// Leaf statistics for one dispatch route.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Number of leaves that took this route.
    pub leaves: u64,
    /// Total items those leaves covered.
    pub items: u64,
}

/// Leaf counts broken down by [`LeafRoute`](crate::LeafRoute).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteHistogram {
    /// Leaves served by `Collector::leaf_strided` over a borrowed run.
    pub zero_copy: RouteStats,
    /// Leaves served by a fused adapter chain driven over the source's
    /// borrowed run.
    pub fused_borrow: RouteStats,
    /// Leaves that fell back to the cloning drain.
    pub cloning_drain: RouteStats,
    /// Leaves computed by a JPLF template leaf case.
    pub template: RouteStats,
    /// Leaves that wrote straight into a destination-passing output
    /// window (the placement collect route).
    pub placement: RouteStats,
}

impl RouteHistogram {
    /// Total number of leaves across all routes.
    pub fn total_leaves(&self) -> u64 {
        self.zero_copy.leaves
            + self.fused_borrow.leaves
            + self.cloning_drain.leaves
            + self.template.leaves
            + self.placement.leaves
    }

    /// Total items across all routes.
    pub fn total_items(&self) -> u64 {
        self.zero_copy.items
            + self.fused_borrow.items
            + self.cloning_drain.items
            + self.template.items
            + self.placement.items
    }
}

/// Scheduler activity attributed to one pool worker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within its pool.
    pub worker: u32,
    /// Jobs this worker executed.
    pub executed: u64,
    /// Jobs it claimed from the global injector.
    pub injector_steals: u64,
    /// Jobs it stole from peer deques.
    pub peer_steals: u64,
    /// Times it parked awaiting work.
    pub parks: u64,
}

/// MPI-sim traffic attributed to one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Rank number.
    pub rank: u32,
    /// Messages this rank sent.
    pub sends: u64,
    /// Bytes this rank sent.
    pub send_bytes: u64,
    /// Messages this rank received.
    pub recvs: u64,
    /// Bytes this rank received.
    pub recv_bytes: u64,
}

/// The merged result of one recorded section: tree shape, phase times,
/// leaf-route histogram, scheduler activity and MPI traffic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Number of splits in the divide phase.
    pub splits: u64,
    /// Splits decided by a demand-driven (adaptive) policy rather than a
    /// static size threshold.
    pub splits_adaptive: u64,
    /// Histogram of split counts by tree depth (index = depth), trimmed
    /// of trailing zeros.
    pub split_depths: Vec<u64>,
    /// Nanoseconds attributed to the descending phase.
    pub descend_ns: u64,
    /// Leaf counts by dispatch route.
    pub routes: RouteHistogram,
    /// Nanoseconds spent inside leaf kernels.
    pub leaf_ns: u64,
    /// Number of combine steps in the ascending phase.
    pub combines: u64,
    /// Combine steps that were destination-passing window merges (O(1)
    /// bookkeeping over the shared output buffer, no splice).
    pub combines_placement: u64,
    /// Nanoseconds spent combining.
    pub ascend_ns: u64,
    /// Jobs executed across all pool workers.
    pub executed: u64,
    /// Per-worker scheduler activity (trimmed to the workers that did
    /// anything).
    pub per_worker: Vec<WorkerStats>,
    /// Joins resolved.
    pub joins: u64,
    /// Joins whose pending half was executed by a thief.
    pub joins_stolen: u64,
    /// `SharedState` lock acquisitions.
    pub lock_acquisitions: u64,
    /// Acquisitions that had to block past the `try_lock` fast path.
    pub lock_contended: u64,
    /// Per-rank MPI-sim traffic (empty for non-MPI runs).
    pub per_rank: Vec<RankStats>,
    /// Subtrees pruned because a sibling panicked.
    pub cancels_panic: u64,
    /// Subtrees pruned by a caller-held cancel token.
    pub cancels_user: u64,
    /// Subtrees pruned by an expired deadline.
    pub cancels_deadline: u64,
    /// Checkpoints that observed a search's `Found` short-circuit.
    pub cancels_found: u64,
    /// Subtrees a search driver abandoned without scanning (one per
    /// [`Event::EarlyExit`](crate::Event::EarlyExit)).
    pub early_exits: u64,
    /// Total pruned subtree roots those early exits accounted for.
    pub leaves_pruned: u64,
    /// Parallel collects that degraded to the sequential route because
    /// the pool backlog exceeded the saturation threshold.
    pub fallbacks_saturated: u64,
    /// Parallel collects that degraded because pool submission failed.
    pub fallbacks_submit: u64,
    /// Tuned executions served by a cached plan.
    pub tune_hits: u64,
    /// Tuned executions that found no plan and could not claim the
    /// calibration ticket (another thread held it).
    pub tune_misses: u64,
    /// Tuned executions that ran the candidate sweep and installed a
    /// plan.
    pub tune_calibrations: u64,
}

impl RunReport {
    /// Deepest tree level at which a split occurred (0 when no splits).
    pub fn max_split_depth(&self) -> u32 {
        self.split_depths.len().saturating_sub(1) as u32
    }

    /// Total phase time: descend + leaf + ascend, in nanoseconds.
    pub fn phase_ns(&self) -> u64 {
        self.descend_ns + self.leaf_ns + self.ascend_ns
    }

    /// Fraction of phase time spent descending (0 when nothing timed).
    pub fn descend_share(&self) -> f64 {
        share(self.descend_ns, self.phase_ns())
    }

    /// Fraction of phase time spent in leaf kernels.
    pub fn leaf_share(&self) -> f64 {
        share(self.leaf_ns, self.phase_ns())
    }

    /// Fraction of phase time spent combining.
    pub fn ascend_share(&self) -> f64 {
        share(self.ascend_ns, self.phase_ns())
    }

    /// Total steals (injector + peer) across all workers.
    pub fn steals(&self) -> u64 {
        self.per_worker
            .iter()
            .map(|w| w.injector_steals + w.peer_steals)
            .sum()
    }

    /// Steals per executed job (0 when nothing executed).
    pub fn steal_ratio(&self) -> f64 {
        share(self.steals(), self.executed)
    }

    /// Contended fraction of `SharedState` lock acquisitions.
    pub fn contention_ratio(&self) -> f64 {
        share(self.lock_contended, self.lock_acquisitions)
    }

    /// Total subtrees pruned by session cancellation, over all reasons.
    pub fn cancels(&self) -> u64 {
        self.cancels_panic + self.cancels_user + self.cancels_deadline + self.cancels_found
    }

    /// Total sequential-route fallbacks, over all reasons.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks_saturated + self.fallbacks_submit
    }

    /// Total plan-cache consultations, over all outcomes.
    pub fn tunes(&self) -> u64 {
        self.tune_hits + self.tune_misses + self.tune_calibrations
    }

    /// Renders the report as a self-describing JSON object (schema tag
    /// `plobs.run_report.v3`; v2 added the `placement` route and
    /// `combines_placement`, v3 merged v2's contiguous and strided
    /// zero-copy routes into one `zero_copy`). The output always passes
    /// [`crate::json::validate`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":\"plobs.run_report.v3\",");

        out.push_str("\"tree\":{");
        let _ = write!(
            out,
            "\"splits\":{},\"adaptive_splits\":{},\"max_split_depth\":{},\"split_depths\":[",
            self.splits,
            self.splits_adaptive,
            self.max_split_depth()
        );
        push_u64_list(&mut out, self.split_depths.iter().copied());
        let _ = write!(
            out,
            "],\"combines\":{},\"combines_placement\":{}}},",
            self.combines, self.combines_placement
        );

        out.push_str("\"phases\":{");
        let _ = write!(
            out,
            "\"descend_ns\":{},\"leaf_ns\":{},\"ascend_ns\":{},\
             \"descend_share\":{},\"leaf_share\":{},\"ascend_share\":{}}},",
            self.descend_ns,
            self.leaf_ns,
            self.ascend_ns,
            json_f64(self.descend_share()),
            json_f64(self.leaf_share()),
            json_f64(self.ascend_share()),
        );

        out.push_str("\"routes\":{");
        push_route(&mut out, "zero_copy", self.routes.zero_copy);
        out.push(',');
        push_route(&mut out, "fused_borrow", self.routes.fused_borrow);
        out.push(',');
        push_route(&mut out, "cloning_drain", self.routes.cloning_drain);
        out.push(',');
        push_route(&mut out, "template", self.routes.template);
        out.push(',');
        push_route(&mut out, "placement", self.routes.placement);
        let _ = write!(
            out,
            ",\"total_leaves\":{},\"total_items\":{}}},",
            self.routes.total_leaves(),
            self.routes.total_items()
        );

        out.push_str("\"pool\":{");
        let _ = write!(
            out,
            "\"executed\":{},\"joins\":{},\"joins_stolen\":{},\"steals\":{},\
             \"steal_ratio\":{},\"workers\":[",
            self.executed,
            self.joins,
            self.joins_stolen,
            self.steals(),
            json_f64(self.steal_ratio()),
        );
        for (i, w) in self.per_worker.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"worker\":{},\"executed\":{},\"injector_steals\":{},\
                 \"peer_steals\":{},\"parks\":{}}}",
                w.worker, w.executed, w.injector_steals, w.peer_steals, w.parks
            );
        }
        out.push_str("]},");

        let _ = write!(
            out,
            "\"shared_state\":{{\"acquisitions\":{},\"contended\":{},\
             \"contention_ratio\":{}}},",
            self.lock_acquisitions,
            self.lock_contended,
            json_f64(self.contention_ratio()),
        );

        let _ = write!(
            out,
            "\"sessions\":{{\"cancels\":{},\"cancel_panic\":{},\"cancel_user\":{},\
             \"cancel_deadline\":{},\"cancel_found\":{},\"early_exits\":{},\
             \"leaves_pruned\":{},\"fallbacks\":{},\"fallback_saturated\":{},\
             \"fallback_submit\":{}}},",
            self.cancels(),
            self.cancels_panic,
            self.cancels_user,
            self.cancels_deadline,
            self.cancels_found,
            self.early_exits,
            self.leaves_pruned,
            self.fallbacks(),
            self.fallbacks_saturated,
            self.fallbacks_submit,
        );

        let _ = write!(
            out,
            "\"tune\":{{\"consults\":{},\"hits\":{},\"misses\":{},\
             \"calibrations\":{}}},",
            self.tunes(),
            self.tune_hits,
            self.tune_misses,
            self.tune_calibrations,
        );

        out.push_str("\"mpi\":{\"ranks\":[");
        for (i, r) in self.per_rank.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rank\":{},\"sends\":{},\"send_bytes\":{},\
                 \"recvs\":{},\"recv_bytes\":{}}}",
                r.rank, r.sends, r.send_bytes, r.recvs, r.recv_bytes
            );
        }
        out.push_str("]}}");
        out
    }

    /// Renders a short human-readable tree summary (used by the
    /// polynomial example): one line per phase plus route and
    /// scheduler totals.
    pub fn tree_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  tree: {} splits ({} adaptive, max depth {}), {} leaves, {} combines",
            self.splits,
            self.splits_adaptive,
            self.max_split_depth(),
            self.routes.total_leaves(),
            self.combines
        );
        let _ = writeln!(
            out,
            "  phases: descend {:.1}% | leaf {:.1}% | ascend {:.1}%  ({} ns timed)",
            100.0 * self.descend_share(),
            100.0 * self.leaf_share(),
            100.0 * self.ascend_share(),
            self.phase_ns()
        );
        let _ = writeln!(
            out,
            "  routes: zero-copy {} / fused {} / cloned {} / template {} / placement {} (leaves)",
            self.routes.zero_copy.leaves,
            self.routes.fused_borrow.leaves,
            self.routes.cloning_drain.leaves,
            self.routes.template.leaves,
            self.routes.placement.leaves
        );
        let _ = write!(
            out,
            "  pool: {} executed, {} steals (ratio {:.2}), {} joins ({} stolen)",
            self.executed,
            self.steals(),
            self.steal_ratio(),
            self.joins,
            self.joins_stolen
        );
        out
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Formats a finite `f64` as a JSON number. Shares and ratios are
/// always finite by construction.
fn json_f64(v: f64) -> String {
    debug_assert!(v.is_finite());
    format!("{:.6}", v)
}

fn push_u64_list(out: &mut String, items: impl Iterator<Item = u64>) {
    for (i, v) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", v);
    }
}

fn push_route(out: &mut String, name: &str, stats: RouteStats) {
    let _ = write!(
        out,
        "\"{}\":{{\"leaves\":{},\"items\":{}}}",
        name, stats.leaves, stats.items
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            splits: 7,
            splits_adaptive: 3,
            split_depths: vec![1, 2, 4],
            descend_ns: 100,
            routes: RouteHistogram {
                zero_copy: RouteStats {
                    leaves: 8,
                    items: 64,
                },
                fused_borrow: RouteStats {
                    leaves: 2,
                    items: 16,
                },
                placement: RouteStats {
                    leaves: 4,
                    items: 32,
                },
                ..Default::default()
            },
            leaf_ns: 700,
            combines: 7,
            combines_placement: 3,
            ascend_ns: 200,
            executed: 14,
            per_worker: vec![
                WorkerStats {
                    worker: 0,
                    executed: 8,
                    injector_steals: 1,
                    peer_steals: 0,
                    parks: 2,
                },
                WorkerStats {
                    worker: 1,
                    executed: 6,
                    injector_steals: 0,
                    peer_steals: 3,
                    parks: 1,
                },
            ],
            joins: 7,
            joins_stolen: 2,
            lock_acquisitions: 10,
            lock_contended: 1,
            per_rank: vec![RankStats {
                rank: 0,
                sends: 3,
                send_bytes: 24,
                recvs: 3,
                recv_bytes: 24,
            }],
            cancels_panic: 2,
            cancels_user: 0,
            cancels_deadline: 1,
            cancels_found: 1,
            early_exits: 2,
            leaves_pruned: 2,
            fallbacks_saturated: 1,
            fallbacks_submit: 0,
            tune_hits: 4,
            tune_misses: 1,
            tune_calibrations: 2,
        }
    }

    #[test]
    fn shares_sum_to_one_when_timed() {
        let r = sample();
        let total = r.descend_share() + r.leaf_share() + r.ascend_share();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((r.leaf_share() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn empty_report_has_zero_shares_not_nan() {
        let r = RunReport::default();
        assert_eq!(r.descend_share(), 0.0);
        assert_eq!(r.steal_ratio(), 0.0);
        assert_eq!(r.contention_ratio(), 0.0);
    }

    #[test]
    fn steal_ratio_counts_both_sources() {
        let r = sample();
        assert_eq!(r.steals(), 4);
        assert!((r.steal_ratio() - 4.0 / 14.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_valid_and_self_describing() {
        let r = sample();
        let json = r.to_json();
        crate::json::validate(&json).unwrap();
        assert!(json.starts_with("{\"schema\":\"plobs.run_report.v3\""));
        assert!(json.contains("\"adaptive_splits\":3"));
        assert!(json.contains("\"split_depths\":[1,2,4]"));
        assert!(json.contains("\"zero_copy\":{\"leaves\":8,\"items\":64}"));
        assert!(json.contains("\"fused_borrow\":{\"leaves\":2,\"items\":16}"));
        assert!(json.contains("\"placement\":{\"leaves\":4,\"items\":32}"));
        assert!(json.contains("\"combines_placement\":3"));
        assert_eq!(r.routes.total_leaves(), 14);
        assert_eq!(r.routes.total_items(), 112);
        assert!(json.contains("\"leaf_share\":0.700000"));
        assert!(json.contains("\"ranks\":[{\"rank\":0"));
        assert!(json.contains("\"sessions\":{\"cancels\":4,\"cancel_panic\":2"));
        assert!(json.contains("\"cancel_found\":1"));
        assert!(json.contains("\"early_exits\":2"));
        assert!(json.contains("\"leaves_pruned\":2"));
        assert!(json.contains("\"fallback_saturated\":1"));
        assert!(
            json.contains("\"tune\":{\"consults\":7,\"hits\":4,\"misses\":1,\"calibrations\":2}")
        );
    }

    #[test]
    fn session_totals_sum_reasons() {
        let r = sample();
        assert_eq!(r.cancels(), 4);
        assert_eq!(r.fallbacks(), 1);
        assert_eq!(r.tunes(), 7);
        assert_eq!(RunReport::default().cancels(), 0);
        assert_eq!(RunReport::default().tunes(), 0);
    }

    #[test]
    fn empty_report_json_is_valid() {
        crate::json::validate(&RunReport::default().to_json()).unwrap();
    }
}
