//! Destination-passing collect: root-allocated output windows that make
//! the combine phase O(1).
//!
//! The splice collect route materialises one container per leaf and
//! merges them pairwise on the way up, so every element is copied once
//! per tree level (`1 + log2(n / leaf)` times in total). This module is
//! the alternative the paper's *tie* structure invites: when the output
//! size is known up front, allocate the result **once** at the root,
//! thread disjoint `(base, step, len)` windows down the split tree, let
//! each leaf write its survivors straight into its window, and turn
//! `combine` into a no-op window merge (or a constant-size fix-up, e.g.
//! the joining separator or the FFT butterfly).
//!
//! Three pieces cooperate:
//!
//! * [`Window`] / [`WindowRule`] / [`descend`] — the window protocol.
//!   The descent rule follows the **collector's combine algebra**, not
//!   the split geometry: a concatenating combiner
//!   ([`WindowRule::Concat`]) hands the left child a contiguous prefix
//!   of the parent window, an interleaving combiner
//!   ([`WindowRule::Interleave`], zip recomposition) doubles the stride
//!   and offsets the right child by one. This is what keeps placement
//!   bit-compatible with the splice route even for *mismatched*
//!   decompositions (a tie-split source collected with a zip
//!   recomposition scrambles identically either way).
//! * [`PlacementSpec`] — the per-collector capability record
//!   ([`Collector::placement_spec`](crate::Collector::placement_spec)):
//!   the rule, the per-combine `gap` (separator slots the combiner
//!   writes between siblings) and whether one input item occupies
//!   exactly one slot (`unit`) or the slot count must be measured
//!   (joining: bytes).
//! * [`PlacementBuf`] / [`OutputBuffer`] — the shared destination. A
//!   `MaybeUninit` allocation plus a mutex-guarded log of written runs;
//!   writers record exactly what they initialised (an RAII guard makes
//!   the record survive a panicking element clone), so dropping a
//!   poisoned buffer frees only initialised slots and
//!   [`PlacementBuf::finish_vec`] refuses to assemble an output unless
//!   every slot was written exactly once. Identity buffers also hand
//!   out a typed [`RunWriter`] ([`OutputBuffer::writer`]), so a fused
//!   leaf fills its window in one monomorphic, once-bounds-checked loop.
//!
//! When the source splits by parity and the collector recombines by
//! interleaving (zip→zip), the two cancel: the element at encounter
//! rank `r` lands in slot `r`. The driver then cuts encounter-order
//! blocks ([`Spliterator::try_split_prefix`](crate::Spliterator::try_split_prefix))
//! with [`WindowRule::Concat`] windows instead of parity classes — same
//! output, but every leaf reads and writes one contiguous run.
//!
//! # Safety contract
//!
//! The unsafety is confined to [`PlacementBuf`] and rests on the
//! **disjoint-window invariant**: the driver derives all windows from
//! one root via [`descend`], which partitions the parent's slot set, so
//! no two concurrent writers ever touch the same slot. The
//! `plcheck`-explored model in `crates/plcheck/tests/placement_models.rs`
//! checks exactly-once coverage under interleaved schedules, and the
//! exactly-once audit in `finish_vec` re-verifies coverage (fully in
//! debug builds, by total count in release) before any slot is read.

use parking_lot::Mutex;
use std::mem::MaybeUninit;
use std::sync::Arc;

/// A disjoint strided view into the root output allocation: the slots
/// `base, base + step, …, base + (len - 1) * step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// First slot index.
    pub base: usize,
    /// Distance between consecutive slots (doubles per zip descent).
    pub step: usize,
    /// Number of slots in the window.
    pub len: usize,
}

impl Window {
    /// The whole-output window: `len` contiguous slots from 0.
    pub fn root(len: usize) -> Window {
        Window {
            base: 0,
            step: 1,
            len,
        }
    }

    /// Slot index of the window's `j`-th element.
    pub fn slot(&self, j: usize) -> usize {
        self.base + j * self.step
    }
}

/// How a collector's `combine` lays sibling results out in the merged
/// container — the algebra the window descent must mirror.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowRule {
    /// `combine` concatenates: left's slots precede right's
    /// (tie recomposition, joining, the FFT butterfly halves).
    Concat,
    /// `combine` interleaves element-wise: left takes the even parity,
    /// right the odd (zip recomposition). Requires equal halves. Over a
    /// parity-splitting source the driver may descend `Concat` blocks
    /// instead (see the module docs), so a buffer for this rule must
    /// write leaf elements unchanged and keep its `combine` a no-op.
    Interleave,
}

/// A collector's placement capability: how to derive child windows and
/// how input items map to output slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementSpec {
    /// The combine algebra the descent mirrors.
    pub rule: WindowRule,
    /// Slots the combiner itself writes **between** siblings at every
    /// merge point (the joining separator, in bytes). Non-zero gaps
    /// require a deterministic tree shape ([`fixed_leaves`]) so the
    /// root allocation can budget them exactly.
    pub gap: usize,
    /// `true` when one input item fills exactly one slot; `false` when
    /// the slot count must be measured from the source run via
    /// [`Collector::placement_measure`](crate::Collector::placement_measure)
    /// (joining: slots are bytes).
    pub unit: bool,
}

/// Splits `parent` into the two sibling windows under `rule`, giving
/// the left child `left_slots` slots and reserving `gap` slots between
/// the siblings for the combiner.
///
/// # Panics
///
/// Panics when the children do not fit in `parent`, or when an
/// [`WindowRule::Interleave`] descent is asked for unequal halves or a
/// non-zero gap (interleaving combiners insert nothing between
/// siblings).
pub fn descend(
    parent: Window,
    rule: WindowRule,
    left_slots: usize,
    gap: usize,
) -> (Window, Window) {
    match rule {
        WindowRule::Concat => {
            assert!(
                left_slots + gap <= parent.len,
                "window descent overflow: {left_slots} + {gap} > {}",
                parent.len
            );
            let left = Window {
                base: parent.base,
                step: parent.step,
                len: left_slots,
            };
            let right = Window {
                base: parent.base + (left_slots + gap) * parent.step,
                step: parent.step,
                len: parent.len - left_slots - gap,
            };
            (left, right)
        }
        WindowRule::Interleave => {
            assert_eq!(gap, 0, "interleaving combiners have no separator slots");
            assert!(
                parent.len.is_multiple_of(2) && left_slots == parent.len / 2,
                "interleave descent needs equal halves: {left_slots} of {}",
                parent.len
            );
            let half = parent.len / 2;
            let left = Window {
                base: parent.base,
                step: parent.step * 2,
                len: half,
            };
            let right = Window {
                base: parent.base + parent.step,
                step: parent.step * 2,
                len: half,
            };
            (left, right)
        }
    }
}

/// Leaf count of the deterministic [`forkjoin::SplitPolicy::Fixed`]
/// split tree over `m` exactly-sized
/// elements: a node stops at `m <= leaf_size` (or when it can no longer
/// split, `m < 2`), otherwise it splits `floor(m/2)` / `ceil(m/2)`.
///
/// Used to budget combine-inserted separator slots: a subtree of `m`
/// elements performs `fixed_leaves(m, leaf_size) - 1` combines.
pub fn fixed_leaves(m: usize, leaf_size: usize) -> usize {
    if m < 2 || m <= leaf_size {
        1
    } else {
        fixed_leaves(m / 2, leaf_size) + fixed_leaves(m - m / 2, leaf_size)
    }
}

/// A shared destination the placement drivers write leaves into:
/// object-safe so the recursion can thread one `Arc<dyn OutputBuffer>`
/// through `forkjoin::join`'s `'static` closures.
///
/// All methods take `&self`: the buffer outlives stray `Arc` clones
/// held by already-satisfied join stubs still queued in worker deques,
/// so exclusive ownership can never be assumed — interior mutability
/// plus the disjoint-window contract stand in for `&mut`.
pub trait OutputBuffer<T, O>: Send + Sync {
    /// A typed writer over `w` when one input element lands unchanged
    /// in one slot (the identity buffers behind `Vec` and PowerList
    /// collects): leaves then fill the window through monomorphic
    /// [`RunWriter`] loops instead of the dynamic
    /// [`OutputBuffer::fill_with`] sink.
    /// `None` for buffers that transform what leaves deliver (the FFT,
    /// joining's bytes); those override [`OutputBuffer::fill_with`].
    fn writer(&self, w: Window) -> Option<RunWriter<'_, T>>;

    /// Writes the borrowed strided run (`items[0], items[step], …`,
    /// last element always included) into `w`, one logical element per
    /// slot in window order. Returns the number of elements written.
    /// (Required: cloning the borrowed run needs `T: Clone`, which only
    /// the implementations know.)
    fn fill_run(&self, w: Window, items: &[T], step: usize) -> u64;

    /// Writes a pushed stream of elements into `w`: `drive` is called
    /// once with a sink and must push every element of the leaf into
    /// it. Returns the number written. The default sinks into
    /// [`OutputBuffer::writer`]; the driver only comes here for buffers
    /// without one.
    #[allow(clippy::type_complexity)]
    fn fill_with(&self, w: Window, drive: &mut dyn FnMut(&mut dyn FnMut(T))) -> u64 {
        let mut writer = self
            .writer(w)
            .expect("a buffer without a typed writer must override fill_with");
        drive(&mut writer.sink(w.len));
        writer.count()
    }

    /// The ascend-phase step for the merge of `parent`'s two children,
    /// of which the left occupied `left_slots` slots. A no-op for plain
    /// containers; writes the separator for joining; butterflies in
    /// place for the FFT. Runs strictly after both children quiesced
    /// (the `join` barrier) and before the parent's own `combine`.
    fn combine(&self, parent: Window, left_slots: usize);

    /// Assembles the finished output. Single-shot: called once, on the
    /// success path only, after the whole tree quiesced.
    ///
    /// # Panics
    ///
    /// Panics when any slot was not written exactly once (a driver
    /// bug), or on a second call.
    fn finish(&self) -> O;
}

/// Bookkeeping behind the [`PlacementBuf`] mutex: the log of
/// initialised runs plus the single-shot finish flag.
struct RunLog {
    runs: Vec<Window>,
    finished: bool,
}

/// The root output allocation: `slots` uninitialised cells plus a log
/// of which runs have been written. See the module docs for the safety
/// contract; construction, writing, auditing and teardown all live
/// here so the `unsafe` surface stays in one place.
pub struct PlacementBuf<S> {
    ptr: *mut MaybeUninit<S>,
    slots: usize,
    state: Mutex<RunLog>,
}

// SAFETY: the buffer owns its cells; values of `S` are moved in from
// writer threads and moved out (or dropped) from whichever thread
// finishes or drops the buffer — exactly the `S: Send` contract.
// Shared `&PlacementBuf` access from many threads is safe because the
// disjoint-window contract gives every slot at most one writer and the
// run log is mutex-guarded.
unsafe impl<S: Send> Send for PlacementBuf<S> {}
unsafe impl<S: Send> Sync for PlacementBuf<S> {}

impl<S> PlacementBuf<S> {
    /// Allocates `slots` uninitialised cells.
    pub fn new(slots: usize) -> Self {
        let mut cells: Vec<MaybeUninit<S>> = Vec::with_capacity(slots);
        // SAFETY: `MaybeUninit` cells need no initialisation.
        unsafe { cells.set_len(slots) };
        let ptr = Box::into_raw(cells.into_boxed_slice()) as *mut MaybeUninit<S>;
        PlacementBuf {
            ptr,
            slots,
            state: Mutex::new(RunLog {
                runs: Vec::new(),
                finished: false,
            }),
        }
    }

    /// The allocation size in slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Writes into `w`: `produce` is called once with a sink and pushes
    /// the window's elements in window order. The written prefix is
    /// recorded even if `produce` panics mid-way (RAII), so teardown
    /// drops exactly the initialised cells. Returns the count written.
    ///
    /// # Panics
    ///
    /// Panics when `produce` pushes more than `w.len` elements or `w`
    /// reaches outside the allocation.
    #[allow(clippy::type_complexity)]
    pub fn write(&self, w: Window, produce: &mut dyn FnMut(&mut dyn FnMut(S))) -> u64 {
        let mut writer = self.writer(w);
        produce(&mut writer.sink(w.len));
        writer.count()
    }

    /// An incremental writer over `w` for monomorphic leaf kernels: the
    /// bulk [`RunWriter::push_run`] and [`RunWriter::sink`] paths skip
    /// the per-element dynamic dispatch that [`PlacementBuf::write`]'s
    /// sink pays, which is what makes the placement leaf competitive
    /// with a splicing `memcpy` leaf. The written prefix is recorded
    /// when the writer drops — including a panic unwind — so teardown
    /// drops exactly the initialised cells.
    pub fn writer(&self, w: Window) -> RunWriter<'_, S> {
        RunWriter {
            buf: self,
            w,
            written: 0,
        }
    }

    /// Clones the strided run `items[0], items[step], …` into `w` and
    /// returns the count — the [`OutputBuffer::fill_run`] body of the
    /// identity buffers.
    pub fn fill_run(&self, w: Window, items: &[S], step: usize) -> u64
    where
        S: Clone,
    {
        let mut writer = self.writer(w);
        writer.push_run(items, step);
        writer.count()
    }

    /// Read-modify-write over a **contiguous** window (`w.step == 1`)
    /// whose slots were all initialised by already-quiesced children —
    /// the in-place ascend hook (the FFT butterfly). The closure gets
    /// the window as a mutable slice.
    ///
    /// # Safety
    ///
    /// The caller must guarantee every slot of `w` is initialised and
    /// that no other thread accesses any slot of `w` for the duration
    /// of the call (true for a combine node: its children quiesced at
    /// the `join` barrier and ancestors only run after it returns).
    pub unsafe fn with_initialized_mut(&self, w: Window, f: &mut dyn FnMut(&mut [S])) {
        assert_eq!(w.step, 1, "in-place combine needs a contiguous window");
        assert!(w.base + w.len <= self.slots, "combine window out of bounds");
        // SAFETY (caller contract): slots `base..base+len` are
        // initialised and exclusively ours, so viewing them as `&mut
        // [S]` is sound; the slice never aliases another thread's
        // window.
        let slice =
            unsafe { std::slice::from_raw_parts_mut(self.ptr.add(w.base) as *mut S, w.len) };
        f(slice);
    }

    /// Audits exactly-once coverage and assembles the output vector,
    /// transferring the allocation (boxed-slice layout is a `Vec` with
    /// `capacity == len`). Single-shot.
    ///
    /// # Panics
    ///
    /// Panics unless every slot was written exactly once, or on a
    /// second call.
    pub fn finish_vec(&self) -> Vec<S> {
        let mut st = self.state.lock();
        assert!(!st.finished, "placement buffer finished twice");
        let total: usize = st.runs.iter().map(|w| w.len).sum();
        assert_eq!(
            total, self.slots,
            "placement finish: {total} of {} slots written",
            self.slots
        );
        // Debug builds re-verify full disjoint coverage, not just the
        // total: an overlapping-window driver bug would otherwise pair
        // a double-write with an uninitialised slot.
        #[cfg(debug_assertions)]
        {
            let mut seen = vec![false; self.slots];
            for w in &st.runs {
                for j in 0..w.len {
                    let idx = w.slot(j);
                    assert!(!seen[idx], "slot {idx} written twice");
                    seen[idx] = true;
                }
            }
        }
        st.finished = true;
        drop(st);
        // SAFETY: every slot is initialised exactly once (audited
        // above), the allocation came from a boxed slice of exactly
        // `slots` cells, and `finished` stops both re-entry and the
        // destructor from touching it again.
        unsafe { Vec::from_raw_parts(self.ptr as *mut S, self.slots, self.slots) }
    }
}

/// Incremental writer over one window of a [`PlacementBuf`] — see
/// [`PlacementBuf::writer`]. Dropping the writer records the written
/// prefix in the buffer's run log (panic-safe bookkeeping).
pub struct RunWriter<'a, S> {
    buf: &'a PlacementBuf<S>,
    w: Window,
    written: usize,
}

impl<S> RunWriter<'_, S> {
    /// Clones every `step`-th element of `items` into the window's next
    /// slots — the bulk leaf path, bounds-checked once up front so the
    /// copy loop carries no per-element dispatch.
    ///
    /// # Panics
    ///
    /// Panics when the run does not fit the window's remaining slots.
    pub fn push_run(&mut self, items: &[S], step: usize)
    where
        S: Clone,
    {
        let n = if items.is_empty() {
            0
        } else {
            (items.len() - 1) / step + 1
        };
        let (dst, stride, mut guard) = self.reserve(n);
        if stride == 1 && step == 1 {
            for (j, x) in items.iter().enumerate() {
                // SAFETY: `reserve` checked the `n` slots from `dst`;
                // `j < n`.
                unsafe { dst.add(j).write(MaybeUninit::new(x.clone())) };
                guard.done = j + 1;
            }
        } else {
            for (j, x) in items.iter().step_by(step).enumerate() {
                // SAFETY: as above, with the window's stride.
                unsafe { dst.add(j * stride).write(MaybeUninit::new(x.clone())) };
                guard.done = j + 1;
            }
        }
    }

    /// A typed sink over the window's next `n` slots — the bulk entry
    /// for pushed leaves (a fused chain's `fused_fill`). The run is
    /// bounds-checked once here; the sink only compares its progress
    /// count against `n`, so a monomorphic producer inlines it into one
    /// store loop. Dropping the sink — on a panic unwind too — records
    /// exactly the slots it initialised.
    ///
    /// # Panics
    ///
    /// Panics when `n` slots do not fit the window's remaining slots;
    /// the sink panics on an `n + 1`-th element.
    pub fn sink(&mut self, n: usize) -> impl FnMut(S) + '_ {
        let (dst, stride, mut guard) = self.reserve(n);
        move |x: S| {
            // Use the whole guard: a closure naming only `guard.done`
            // would capture a copy of that field and drop the guard —
            // and its write-back — right here.
            let guard = &mut guard;
            let j = guard.done;
            assert!(j < n, "placement window overflow: run holds {n} slots");
            // SAFETY: `reserve` checked the `n` slots from `dst`;
            // `j < n`.
            unsafe { dst.add(j * stride).write(MaybeUninit::new(x)) };
            guard.done = j + 1;
        }
    }

    /// Bounds-checks the next `n` slots once and hands back their first
    /// cell, the window stride, and a progress guard. The guard keeps
    /// the per-element count in a local (the buffer holds a mutex, so
    /// `self.buf.ptr` read through `&self` cannot be hoisted out of a
    /// loop — and a per-element `self.written += 1` store blocks the
    /// memcpy idiom); its `Drop`, on a panic too, adds the exact
    /// initialised prefix to `self.written`.
    fn reserve(&mut self, n: usize) -> (*mut MaybeUninit<S>, usize, PrefixGuard<'_>) {
        assert!(
            self.written + n <= self.w.len,
            "placement window overflow: window holds {} slots",
            self.w.len
        );
        if n > 0 {
            let last = self.w.base + (self.written + n - 1) * self.w.step;
            assert!(
                last < self.buf.slots,
                "placement window out of bounds: slot {last} of {}",
                self.buf.slots
            );
        }
        // In bounds whenever `n > 0` (asserted above); by the
        // disjoint-window contract no other thread touches these slots,
        // and the raw pointer never materialises a `&mut` over the
        // whole allocation.
        let dst = self
            .buf
            .ptr
            .wrapping_add(self.w.base + self.written * self.w.step);
        let guard = PrefixGuard {
            written: &mut self.written,
            done: 0,
        };
        (dst, self.w.step, guard)
    }

    /// Elements written so far.
    pub fn count(&self) -> u64 {
        self.written as u64
    }
}

/// Write-back of a bulk run's progress: see [`RunWriter::reserve`].
struct PrefixGuard<'a> {
    written: &'a mut usize,
    done: usize,
}

impl Drop for PrefixGuard<'_> {
    fn drop(&mut self) {
        *self.written += self.done;
    }
}

impl<S> Drop for RunWriter<'_, S> {
    fn drop(&mut self) {
        // Record the initialised prefix no matter how the leaf exits: a
        // panicking element clone must not leak (or double-free) what
        // was already moved in.
        if self.written > 0 {
            self.buf.state.lock().runs.push(Window {
                base: self.w.base,
                step: self.w.step,
                len: self.written,
            });
        }
    }
}

impl<S> Drop for PlacementBuf<S> {
    fn drop(&mut self) {
        let st = self.state.get_mut();
        if st.finished {
            return; // ownership moved into the finished Vec
        }
        // A poisoned (panicked / cancelled) run: drop exactly the
        // initialised cells, then free the allocation.
        if std::mem::needs_drop::<S>() {
            for w in &st.runs {
                for j in 0..w.len {
                    // SAFETY: the run log records initialised slots
                    // only, each exactly once per writer; `&mut self`
                    // gives exclusive access.
                    unsafe { (*self.ptr.add(w.slot(j))).assume_init_drop() };
                }
            }
        }
        // SAFETY: reconstructs the boxed slice taken apart in `new`;
        // `MaybeUninit` cells drop nothing.
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                self.ptr, self.slots,
            )));
        }
    }
}

/// [`OutputBuffer`] for [`VecCollector`](crate::VecCollector): leaves
/// clone straight into the window, combine is a true no-op, finish is
/// the assembled `Vec`.
pub struct VecPlacement<T> {
    buf: PlacementBuf<T>,
}

impl<T> VecPlacement<T> {
    /// A destination of `slots` elements.
    pub fn new(slots: usize) -> Self {
        VecPlacement {
            buf: PlacementBuf::new(slots),
        }
    }
}

impl<T: Clone + Send + 'static> OutputBuffer<T, Vec<T>> for VecPlacement<T> {
    fn writer(&self, w: Window) -> Option<RunWriter<'_, T>> {
        Some(self.buf.writer(w))
    }

    fn fill_run(&self, w: Window, items: &[T], step: usize) -> u64 {
        self.buf.fill_run(w, items, step)
    }

    fn combine(&self, _parent: Window, _left_slots: usize) {}

    fn finish(&self) -> Vec<T> {
        self.buf.finish_vec()
    }
}

/// [`OutputBuffer`] for
/// [`JoiningCollector`](crate::JoiningCollector): slots are **bytes**
/// (a length prepass measures them), leaves copy their strings' bytes
/// into the window, and `combine` writes the separator into the gap
/// the descent reserved between the siblings.
pub struct JoiningPlacement {
    buf: PlacementBuf<u8>,
    separator: Box<[u8]>,
}

impl JoiningPlacement {
    /// A destination of `slots` bytes joined by `separator`.
    pub fn new(slots: usize, separator: &str) -> Self {
        JoiningPlacement {
            buf: PlacementBuf::new(slots),
            separator: separator.as_bytes().into(),
        }
    }
}

impl OutputBuffer<String, String> for JoiningPlacement {
    // Slots are bytes, not strings: no typed writer.
    fn writer(&self, _w: Window) -> Option<RunWriter<'_, String>> {
        None
    }

    fn fill_run(&self, w: Window, items: &[String], step: usize) -> u64 {
        assert_eq!(w.step, 1, "joining windows are contiguous byte runs");
        let mut writer = self.buf.writer(w);
        let mut elements = 0u64;
        for s in items.iter().step_by(step) {
            elements += 1;
            writer.push_run(s.as_bytes(), 1);
        }
        elements
    }

    fn fill_with(&self, w: Window, drive: &mut dyn FnMut(&mut dyn FnMut(String))) -> u64 {
        assert_eq!(w.step, 1, "joining windows are contiguous byte runs");
        let mut writer = self.buf.writer(w);
        let mut elements = 0u64;
        drive(&mut |s: String| {
            elements += 1;
            writer.push_run(s.as_bytes(), 1);
        });
        elements
    }

    fn combine(&self, parent: Window, left_slots: usize) {
        if self.separator.is_empty() {
            return;
        }
        let gap = Window {
            base: parent.base + left_slots,
            step: parent.step,
            len: self.separator.len(),
        };
        let mut writer = self.buf.writer(gap);
        writer.push_run(&self.separator, 1);
    }

    fn finish(&self) -> String {
        // Concatenating whole UTF-8 strings (and separators) keeps the
        // byte stream valid UTF-8.
        String::from_utf8(self.buf.finish_vec()).expect("joined windows hold whole UTF-8 strings")
    }
}

/// Convenience for collector implementations: wraps a buffer into the
/// `Arc<dyn OutputBuffer>` shape
/// [`Collector::try_reserve`](crate::Collector::try_reserve) returns.
pub fn reserve<T, O, B: OutputBuffer<T, O> + 'static>(
    buffer: B,
) -> Option<Arc<dyn OutputBuffer<T, O>>> {
    Some(Arc::new(buffer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn root_window_covers_everything() {
        let w = Window::root(8);
        assert_eq!((w.base, w.step, w.len), (0, 1, 8));
        assert_eq!(w.slot(3), 3);
    }

    #[test]
    fn concat_descent_partitions() {
        let (l, r) = descend(Window::root(10), WindowRule::Concat, 4, 0);
        assert_eq!(
            l,
            Window {
                base: 0,
                step: 1,
                len: 4
            }
        );
        assert_eq!(
            r,
            Window {
                base: 4,
                step: 1,
                len: 6
            }
        );
        // A second-level descent of the right child offsets the base.
        let (rl, rr) = descend(r, WindowRule::Concat, 3, 0);
        assert_eq!(
            rl,
            Window {
                base: 4,
                step: 1,
                len: 3
            }
        );
        assert_eq!(
            rr,
            Window {
                base: 7,
                step: 1,
                len: 3
            }
        );
    }

    #[test]
    fn concat_descent_reserves_the_gap() {
        let (l, r) = descend(Window::root(9), WindowRule::Concat, 4, 1);
        assert_eq!(l.len, 4);
        assert_eq!(
            r,
            Window {
                base: 5,
                step: 1,
                len: 4
            }
        );
    }

    #[test]
    fn interleave_descent_doubles_stride() {
        let (l, r) = descend(Window::root(8), WindowRule::Interleave, 4, 0);
        assert_eq!(
            l,
            Window {
                base: 0,
                step: 2,
                len: 4
            }
        );
        assert_eq!(
            r,
            Window {
                base: 1,
                step: 2,
                len: 4
            }
        );
        // Parity of parity: the four residue classes mod 4.
        let (ll, lr) = descend(l, WindowRule::Interleave, 2, 0);
        assert_eq!(
            ll,
            Window {
                base: 0,
                step: 4,
                len: 2
            }
        );
        assert_eq!(
            lr,
            Window {
                base: 2,
                step: 4,
                len: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "equal halves")]
    fn interleave_rejects_unequal_halves() {
        descend(Window::root(8), WindowRule::Interleave, 3, 0);
    }

    #[test]
    fn fixed_leaves_matches_the_split_tree() {
        assert_eq!(fixed_leaves(8, 1), 8);
        assert_eq!(fixed_leaves(8, 2), 4);
        assert_eq!(fixed_leaves(8, 8), 1);
        assert_eq!(fixed_leaves(1, 1), 1);
        // Odd sizes: 5 -> 2 | 3 -> (1|1) | (1|2) with leaf 1 = 5 leaves.
        assert_eq!(fixed_leaves(5, 1), 5);
        assert_eq!(fixed_leaves(5, 2), 3);
        // Floor/ceil order does not change the count.
        assert_eq!(fixed_leaves(7, 2), fixed_leaves(4, 2) + fixed_leaves(3, 2));
    }

    #[test]
    fn write_and_finish_roundtrip() {
        let buf = PlacementBuf::<u32>::new(4);
        let (l, r) = descend(Window::root(4), WindowRule::Interleave, 2, 0);
        buf.write(r, &mut |sink| {
            sink(10);
            sink(30);
        });
        buf.write(l, &mut |sink| {
            sink(0);
            sink(20);
        });
        assert_eq!(buf.finish_vec(), vec![0, 10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "3 of 4 slots written")]
    fn finish_refuses_uncovered_slots() {
        let buf = PlacementBuf::<u32>::new(4);
        buf.write(
            Window {
                base: 0,
                step: 1,
                len: 3,
            },
            &mut |sink| {
                for i in 0..3 {
                    sink(i);
                }
            },
        );
        let _ = buf.finish_vec();
    }

    #[test]
    #[should_panic(expected = "window overflow")]
    fn writer_cannot_escape_its_window() {
        let buf = PlacementBuf::<u32>::new(4);
        buf.write(
            Window {
                base: 0,
                step: 1,
                len: 2,
            },
            &mut |sink| {
                sink(1);
                sink(2);
                sink(3);
            },
        );
    }

    /// Counts drops so leak/double-free bugs show as wrong counts.
    struct DropTally<'a>(&'a AtomicUsize);
    impl Drop for DropTally<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn poisoned_buffer_drops_only_initialised_cells() {
        let drops = AtomicUsize::new(0);
        {
            let buf = PlacementBuf::<DropTally>::new(8);
            // Partial leaf: writes 2 of its 4 slots, then panics.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                buf.write(
                    Window {
                        base: 0,
                        step: 2,
                        len: 4,
                    },
                    &mut |sink| {
                        sink(DropTally(&drops));
                        sink(DropTally(&drops));
                        panic!("leaf bang");
                    },
                );
            }));
            assert!(r.is_err());
            // A disjoint healthy leaf still lands.
            buf.write(
                Window {
                    base: 1,
                    step: 2,
                    len: 2,
                },
                &mut |sink| {
                    sink(DropTally(&drops));
                    sink(DropTally(&drops));
                },
            );
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "nothing dropped while live"
            );
        }
        // Exactly the four initialised cells dropped, none double-dropped.
        assert_eq!(drops.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn finished_vec_owns_the_cells() {
        let drops = AtomicUsize::new(0);
        let buf = PlacementBuf::<DropTally>::new(2);
        buf.write(Window::root(2), &mut |sink| {
            sink(DropTally(&drops));
            sink(DropTally(&drops));
        });
        let v = buf.finish_vec();
        drop(buf);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "finish transfers ownership"
        );
        drop(v);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn in_place_combine_sees_initialised_halves() {
        let buf = PlacementBuf::<i64>::new(4);
        let (l, r) = descend(Window::root(4), WindowRule::Concat, 2, 0);
        buf.write(l, &mut |sink| {
            sink(1);
            sink(2);
        });
        buf.write(r, &mut |sink| {
            sink(10);
            sink(20);
        });
        // SAFETY: both halves written above, single thread.
        unsafe {
            buf.with_initialized_mut(Window::root(4), &mut |w| {
                let (a, b) = w.split_at_mut(2);
                for (x, y) in a.iter_mut().zip(b) {
                    let (p, q) = (*x, *y);
                    *x = p + q;
                    *y = p - q;
                }
            });
        }
        assert_eq!(buf.finish_vec(), vec![11, 22, -9, -18]);
    }

    #[test]
    fn joining_placement_writes_separators_at_combines() {
        // "ab" + sep + "cde"  over window split 2 | gap 2 | 3.
        let j = JoiningPlacement::new(7, ", ");
        let parent = Window::root(7);
        let (l, r) = descend(parent, WindowRule::Concat, 2, 2);
        let left = vec!["a".to_string(), "b".to_string()];
        let right = vec!["cde".to_string()];
        assert_eq!(j.fill_run(l, &left, 1), 2);
        assert_eq!(j.fill_run(r, &right, 1), 1);
        j.combine(parent, 2);
        assert_eq!(j.finish(), "ab, cde");
    }

    #[test]
    fn vec_placement_strided_fill() {
        let v = VecPlacement::<u8>::new(2);
        // Strided-run contract: last element included, len % step == 1.
        let items = [9u8, 0, 8];
        assert_eq!(v.fill_run(Window::root(2), &items, 2), 2);
        assert_eq!(v.finish(), vec![9, 8]);
    }

    #[test]
    fn empty_buffer_finishes_empty() {
        let buf = PlacementBuf::<String>::new(0);
        assert_eq!(buf.finish_vec(), Vec::<String>::new());
    }
}
