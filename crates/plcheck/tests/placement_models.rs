//! plcheck models of the destination-passing placement buffer
//! (`jstreams::PlacementBuf`): the disjoint-window invariant makes two
//! concurrent leaf writers race-free and exactly-once per output slot,
//! in every explored interleaving — and a deliberately overlapping
//! window assignment (the invariant's violation) is always caught
//! before any slot is read back.

use jstreams::{
    descend, stream_support, ItemSource, LeafAccess, PlacementBuf, Spliterator, Window, WindowRule,
    ZipSpliterator,
};
use powerlist::tabulate;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Writes `mark + j` into every slot of `w`, yielding to the explorer
/// between slots and counting each write per absolute slot index.
fn write_counted(
    buf: &PlacementBuf<usize>,
    w: Window,
    mark: usize,
    counts: &[AtomicUsize],
    label: &'static str,
) {
    let wrote = buf.write(w, &mut |sink| {
        for j in 0..w.len {
            plcheck::yield_op(label);
            counts[w.slot(j)].fetch_add(1, Ordering::SeqCst);
            sink(mark + j);
        }
    });
    assert_eq!(wrote as usize, w.len);
}

fn slot_counts(n: usize) -> Arc<Vec<AtomicUsize>> {
    Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect())
}

/// Concat descent: two leaves writing the adjacent halves of the root
/// window interleave freely, yet every slot is written exactly once
/// and the finished vector is the in-order concatenation.
#[test]
fn adjacent_windows_are_race_free_and_exactly_once() {
    let report = plcheck::Explorer::exhaustive(5_000).run(|| {
        let buf = Arc::new(PlacementBuf::<usize>::new(8));
        let counts = slot_counts(8);
        let (left, right) = descend(Window::root(8), WindowRule::Concat, 4, 0);

        let (b, c) = (Arc::clone(&buf), Arc::clone(&counts));
        let t = plcheck::spawn(move || write_counted(&b, left, 100, &c, "left-leaf"));
        write_counted(&buf, right, 200, &counts, "right-leaf");
        t.join();

        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "slot {i} written != once");
        }
        let v = Arc::try_unwrap(buf)
            .unwrap_or_else(|_| panic!("buffer still shared"))
            .finish_vec();
        assert_eq!(v, vec![100, 101, 102, 103, 200, 201, 202, 203]);
    });
    report.assert_ok();
}

/// Interleave descent: two leaves writing the even and odd residue
/// classes of the root window (strided, step 2) stay exactly-once per
/// slot and reassemble into the paper's zip order.
#[test]
fn strided_windows_are_race_free_and_exactly_once() {
    let report = plcheck::Explorer::exhaustive(5_000).run(|| {
        let buf = Arc::new(PlacementBuf::<usize>::new(8));
        let counts = slot_counts(8);
        let (evens, odds) = descend(Window::root(8), WindowRule::Interleave, 4, 0);
        assert_eq!((evens.base, evens.step), (0, 2));
        assert_eq!((odds.base, odds.step), (1, 2));

        let (b, c) = (Arc::clone(&buf), Arc::clone(&counts));
        let t = plcheck::spawn(move || write_counted(&b, evens, 100, &c, "even-leaf"));
        write_counted(&buf, odds, 200, &counts, "odd-leaf");
        t.join();

        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "slot {i} written != once");
        }
        let v = Arc::try_unwrap(buf)
            .unwrap_or_else(|_| panic!("buffer still shared"))
            .finish_vec();
        assert_eq!(v, vec![100, 200, 101, 201, 102, 202, 103, 203]);
    });
    report.assert_ok();
}

/// Block mode: a zip source collected by a zip collector is cut into
/// encounter-order blocks (`try_split_prefix`) with `Concat` windows,
/// and each leaf pushes its fused map chain through the typed slot sink
/// (`RunWriter::sink`) — the production leaf kernel. Two such leaves
/// interleave freely (the mapper yields per element), yet the buffer's
/// exactly-once audit passes and the output is the source's encounter
/// order, mapped. Checked for a contiguous root and for a stride-2
/// parity class as root.
#[test]
fn block_windows_from_prefix_cuts_are_race_free_and_exactly_once() {
    for strided in [false, true] {
        let report = plcheck::Explorer::exhaustive(5_000).run(move || {
            let mut root = ZipSpliterator::over(tabulate(8, |i| i as i64).unwrap());
            if strided {
                // Keep the odd parity class: 1, 3, 5, 7 at stride 2.
                let _evens = root.try_split().unwrap();
            }
            let expect: Vec<i64> = if strided {
                vec![10, 30, 50, 70]
            } else {
                (0..8).map(|i| 10 * i).collect()
            };
            let mut right = stream_support(root, true)
                .map(|x: i64| {
                    plcheck::yield_op("map");
                    10 * x
                })
                .into_spliterator();
            let n = right.estimate_size();
            let left = right.try_split_prefix().expect("zip sources cut blocks");
            let (w_left, w_right) =
                descend(Window::root(n), WindowRule::Concat, left.estimate_size(), 0);
            assert_eq!((w_left.step, w_right.step), (1, 1), "blocks are contiguous");

            let buf = Arc::new(PlacementBuf::<i64>::new(n));
            let b = Arc::clone(&buf);
            let t = plcheck::spawn(move || {
                let mut left = left;
                let mut writer = b.writer(w_left);
                left.fused_fill(writer.sink(w_left.len)).unwrap();
                assert_eq!(writer.count() as usize, w_left.len);
            });
            let mut writer = buf.writer(w_right);
            right.fused_fill(writer.sink(w_right.len)).unwrap();
            assert_eq!(writer.count() as usize, w_right.len);
            drop(writer);
            t.join();

            let v = Arc::try_unwrap(buf)
                .unwrap_or_else(|_| panic!("buffer still shared"))
                .finish_vec();
            assert_eq!(v, expect);
        });
        report.assert_ok();
    }
}

/// The mutant: two windows that *overlap* (slots 3 and 4 have two
/// writers) violate the disjointness invariant — the buffer's
/// exactly-once audit must refuse to finish in **every** interleaving,
/// never handing back a vector with lost or duplicated writes.
#[test]
fn overlapping_windows_are_always_caught() {
    let report = plcheck::Explorer::exhaustive(5_000).run(|| {
        let buf = Arc::new(PlacementBuf::<usize>::new(8));
        let counts = slot_counts(8);
        let left = Window {
            base: 0,
            step: 1,
            len: 5,
        };
        let right = Window {
            base: 3,
            step: 1,
            len: 5,
        };

        let (b, c) = (Arc::clone(&buf), Arc::clone(&counts));
        let t = plcheck::spawn(move || write_counted(&b, left, 100, &c, "left-mutant"));
        write_counted(&buf, right, 200, &counts, "right-mutant");
        t.join();

        let doubled = counts
            .iter()
            .filter(|c| c.load(Ordering::SeqCst) > 1)
            .count();
        assert_eq!(doubled, 2, "slots 3 and 4 must have two writers");

        let buf = Arc::try_unwrap(buf).unwrap_or_else(|_| panic!("buffer still shared"));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| buf.finish_vec()));
        assert!(
            caught.is_err(),
            "overlapping windows must never pass the exactly-once audit"
        );
    });
    report.assert_ok();
}
