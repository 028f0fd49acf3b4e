//! Collective operations over the simulated communicator.
//!
//! Binomial-tree implementations of the collectives the JPLF MPI
//! executors use: broadcast, scatter, gather, reduce, barrier. All are
//! written point-to-point against [`Comm`], so they exercise the same
//! log-depth communication structure a real MPI run has.

use super::comm::Comm;

/// Tag space reserved for collectives (avoids colliding with user tags).
const BCAST_TAG: u64 = u64::MAX - 1;
const SCATTER_TAG: u64 = u64::MAX - 2;
const GATHER_TAG: u64 = u64::MAX - 3;
const REDUCE_TAG: u64 = u64::MAX - 4;
const BARRIER_TAG: u64 = u64::MAX - 5;

/// Broadcasts `value` from `root` to all ranks; every rank returns the
/// value. Binomial tree: log2(size) rounds.
pub fn bcast<M: Clone + Send + 'static>(comm: &Comm, root: usize, value: Option<M>) -> M {
    let size = comm.size();
    // Work in a rotated rank space where the root is 0.
    let vrank = (comm.rank() + size - root) % size;
    let mut have: Option<M> = if vrank == 0 {
        Some(value.expect("root must supply the broadcast value"))
    } else {
        None
    };
    // Round k: ranks < 2^k send to rank + 2^k.
    let mut step = 1usize;
    while step < size {
        if vrank < step {
            let dst = vrank + step;
            if dst < size {
                let real = (dst + root) % size;
                comm.send(
                    real,
                    BCAST_TAG,
                    have.clone().expect("sender holds the value"),
                );
            }
        } else if vrank < 2 * step && have.is_none() {
            let src = (vrank - step + root) % size;
            have = Some(comm.recv::<M>(src, BCAST_TAG));
        }
        step *= 2;
    }
    have.expect("broadcast reaches every rank")
}

/// Scatters `parts` (one per rank, supplied at `root`) so each rank
/// returns its own part. Root sends directly (star pattern — segment
/// sizes are equal so the tree buys little here and the code stays
/// obviously correct).
pub fn scatter<M: Send + 'static>(comm: &Comm, root: usize, parts: Option<Vec<M>>) -> M {
    if comm.rank() == root {
        let parts = parts.expect("root must supply the parts");
        assert_eq!(
            parts.len(),
            comm.size(),
            "scatter needs exactly one part per rank"
        );
        let mut own: Option<M> = None;
        for (dst, part) in parts.into_iter().enumerate() {
            if dst == root {
                own = Some(part);
            } else {
                comm.send(dst, SCATTER_TAG, part);
            }
        }
        own.expect("root keeps its own part")
    } else {
        comm.recv::<M>(root, SCATTER_TAG)
    }
}

/// Gathers one value from every rank at `root`; `root` returns
/// `Some(values in rank order)`, others `None`.
pub fn gather<M: Send + 'static>(comm: &Comm, root: usize, value: M) -> Option<Vec<M>> {
    if comm.rank() == root {
        let mut out: Vec<Option<M>> = (0..comm.size()).map(|_| None).collect();
        out[root] = Some(value);
        for (src, slot) in out.iter_mut().enumerate() {
            if src != root {
                *slot = Some(comm.recv::<M>(src, GATHER_TAG));
            }
        }
        Some(out.into_iter().map(|o| o.expect("gathered")).collect())
    } else {
        comm.send(root, GATHER_TAG, value);
        None
    }
}

/// Reduces one value per rank with an associative `op` down a binomial
/// tree; rank `root` (= 0 in rotated space) returns `Some(result)`.
///
/// Combination order is rank order, so non-commutative (but associative)
/// operators are safe — same guarantee as `MPI_Reduce`.
pub fn reduce<M, Op>(comm: &Comm, root: usize, value: M, op: Op) -> Option<M>
where
    M: Send + 'static,
    Op: Fn(M, M) -> M,
{
    let size = comm.size();
    let vrank = (comm.rank() + size - root) % size;
    let mut acc = value;
    let mut step = 1usize;
    while step < size {
        if vrank.is_multiple_of(2 * step) {
            let partner = vrank + step;
            if partner < size {
                let real = (partner + root) % size;
                let theirs = comm.recv::<M>(real, REDUCE_TAG);
                // Partner covers higher ranks: ours is the left operand.
                acc = op(acc, theirs);
            }
        } else if vrank % (2 * step) == step {
            let real = (vrank - step + root) % size;
            comm.send(real, REDUCE_TAG, acc);
            return None; // this rank's value has been handed off
        }
        step *= 2;
    }
    if vrank == 0 {
        Some(acc)
    } else {
        None
    }
}

const ALLREDUCE_TAG: u64 = u64::MAX - 6;
const ALLTOALL_TAG: u64 = u64::MAX - 7;

/// Reduce-to-0 followed by broadcast: every rank returns the reduction
/// of all ranks' values (`MPI_Allreduce`). Combination is in rank order,
/// so associative non-commutative operators are safe.
pub fn allreduce<M, Op>(comm: &Comm, value: M, op: Op) -> M
where
    M: Clone + Send + 'static,
    Op: Fn(M, M) -> M,
{
    let size = comm.size();
    let rank = comm.rank();
    let mut acc = value;
    let mut step = 1usize;
    while step < size {
        if rank.is_multiple_of(2 * step) {
            let partner = rank + step;
            if partner < size {
                let theirs = comm.recv::<M>(partner, ALLREDUCE_TAG);
                acc = op(acc, theirs);
            }
        } else if rank % (2 * step) == step {
            comm.send(rank - step, ALLREDUCE_TAG, acc);
            // Hand-off done; wait for the broadcast below.
            return bcast(comm, 0, None);
        }
        step *= 2;
    }
    if rank == 0 {
        bcast(comm, 0, Some(acc))
    } else {
        bcast(comm, 0, None)
    }
}

/// Gather-to-0 followed by broadcast: every rank returns the vector of
/// all ranks' values in rank order (`MPI_Allgather`).
pub fn allgather<M: Clone + Send + 'static>(comm: &Comm, value: M) -> Vec<M> {
    let gathered = gather(comm, 0, value);
    bcast(comm, 0, gathered)
}

/// Personalised all-to-all: rank `r` supplies one message per
/// destination and receives one from every source, in rank order
/// (`MPI_Alltoall`).
pub fn alltoall<M: Send + 'static>(comm: &Comm, outgoing: Vec<M>) -> Vec<M> {
    assert_eq!(
        outgoing.len(),
        comm.size(),
        "alltoall needs one message per destination"
    );
    let rank = comm.rank();
    let mut keep: Option<M> = None;
    for (dst, m) in outgoing.into_iter().enumerate() {
        if dst == rank {
            keep = Some(m);
        } else {
            comm.send(dst, ALLTOALL_TAG, m);
        }
    }
    (0..comm.size())
        .map(|src| {
            if src == rank {
                keep.take().expect("own slot present")
            } else {
                comm.recv::<M>(src, ALLTOALL_TAG)
            }
        })
        .collect()
}

/// Synchronisation barrier: no rank returns before every rank entered.
/// Implemented as gather-to-0 + broadcast.
pub fn barrier(comm: &Comm) {
    let size = comm.size();
    if comm.rank() == 0 {
        for src in 1..size {
            let _: u8 = comm.recv(src, BARRIER_TAG);
        }
        for dst in 1..size {
            comm.send(dst, BARRIER_TAG, 1u8);
        }
    } else {
        comm.send(0, BARRIER_TAG, 1u8);
        let _: u8 = comm.recv(0, BARRIER_TAG);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpisim::comm::run_mpi;

    #[test]
    fn bcast_from_zero() {
        let _serial = crate::test_serial::shared();
        for n in [1, 2, 3, 4, 7, 8] {
            let r = run_mpi(n, |c| {
                let v = if c.rank() == 0 { Some(99i64) } else { None };
                bcast(&c, 0, v)
            });
            assert_eq!(r, vec![99i64; n]);
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let _serial = crate::test_serial::shared();
        let r = run_mpi(5, |c| {
            let v = if c.rank() == 3 {
                Some("hi".to_string())
            } else {
                None
            };
            bcast(&c, 3, v)
        });
        assert_eq!(r, vec!["hi".to_string(); 5]);
    }

    #[test]
    fn scatter_distributes_parts() {
        let _serial = crate::test_serial::shared();
        let r = run_mpi(4, |c| {
            let parts = if c.rank() == 0 {
                Some(vec![10, 20, 30, 40])
            } else {
                None
            };
            scatter(&c, 0, parts)
        });
        assert_eq!(r, vec![10, 20, 30, 40]);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let _serial = crate::test_serial::shared();
        let r = run_mpi(4, |c| gather(&c, 0, c.rank() * 2));
        assert_eq!(r[0], Some(vec![0, 2, 4, 6]));
        assert!(r[1..].iter().all(|x| x.is_none()));
    }

    #[test]
    fn gather_at_nonzero_root() {
        let _serial = crate::test_serial::shared();
        let r = run_mpi(3, |c| gather(&c, 2, c.rank() as i64));
        assert_eq!(r[2], Some(vec![0, 1, 2]));
        assert!(r[0].is_none() && r[1].is_none());
    }

    #[test]
    fn reduce_sums() {
        let _serial = crate::test_serial::shared();
        for n in [1, 2, 3, 5, 8] {
            let r = run_mpi(n, |c| reduce(&c, 0, c.rank() as i64 + 1, |a, b| a + b));
            let expected: i64 = (1..=n as i64).sum();
            assert_eq!(r[0], Some(expected), "n={n}");
        }
    }

    #[test]
    fn reduce_preserves_rank_order_for_noncommutative_op() {
        let _serial = crate::test_serial::shared();
        // String concatenation is associative but not commutative.
        let r = run_mpi(4, |c| {
            reduce(&c, 0, c.rank().to_string(), |a, b| format!("{a}{b}"))
        });
        assert_eq!(r[0], Some("0123".to_string()));
    }

    #[test]
    fn barrier_completes() {
        let _serial = crate::test_serial::shared();
        let r = run_mpi(6, |c| {
            barrier(&c);
            barrier(&c);
            c.rank()
        });
        assert_eq!(r, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn allreduce_every_rank_gets_result() {
        let _serial = crate::test_serial::shared();
        for n in [1, 2, 3, 5, 8] {
            let r = run_mpi(n, |c| allreduce(&c, c.rank() as i64 + 1, |a, b| a + b));
            let expected: i64 = (1..=n as i64).sum();
            assert_eq!(r, vec![expected; n], "n={n}");
        }
    }

    #[test]
    fn allreduce_rank_order_for_noncommutative() {
        let _serial = crate::test_serial::shared();
        let r = run_mpi(4, |c| {
            allreduce(&c, c.rank().to_string(), |a, b| format!("{a}{b}"))
        });
        assert_eq!(r, vec!["0123".to_string(); 4]);
    }

    #[test]
    fn allgather_every_rank_gets_vector() {
        let _serial = crate::test_serial::shared();
        let r = run_mpi(5, |c| allgather(&c, c.rank() * 10));
        for row in &r {
            assert_eq!(row, &vec![0, 10, 20, 30, 40]);
        }
    }

    #[test]
    fn alltoall_transposes() {
        let _serial = crate::test_serial::shared();
        // Rank r sends (r, d) to each d; receives (s, r) from each s.
        let r = run_mpi(4, |c| {
            let rank = c.rank();
            let out: Vec<(usize, usize)> = (0..c.size()).map(|d| (rank, d)).collect();
            alltoall(&c, out)
        });
        for (rank, row) in r.iter().enumerate() {
            let expected: Vec<(usize, usize)> = (0..4).map(|s| (s, rank)).collect();
            assert_eq!(row, &expected, "rank {rank}");
        }
    }

    #[test]
    fn scatter_then_reduce_roundtrip() {
        let _serial = crate::test_serial::shared();
        let r = run_mpi(4, |c| {
            let parts = if c.rank() == 0 {
                Some(vec![vec![1i64, 2], vec![3, 4], vec![5, 6], vec![7, 8]])
            } else {
                None
            };
            let mine = scatter(&c, 0, parts);
            let local: i64 = mine.iter().sum();
            reduce(&c, 0, local, |a, b| a + b)
        });
        assert_eq!(r[0], Some(36));
    }
}
