//! Fast Fourier Transform over PowerLists (paper, Eq. 3).
//!
//! Cooley–Tukey has "a very simple PowerList representation":
//!
//! ```text
//! fft([a])    = [a]
//! fft(p ♮ q)  = (P + u×Q) | (P − u×Q)
//!    where P = fft(p), Q = fft(q), u = powers(p)
//! ```
//!
//! `powers(p) = (w⁰, w¹, …, wⁿ⁻¹)` with `w` the `2n`-th principal root of
//! unity, and `+`, `×` the extended element-wise operators — this is the
//! flagship function needing **both** deconstruction operators: the
//! input splits with `zip`, the output recombines with `tie`.
//!
//! Provided here:
//!
//! * [`dft_naive`] — the O(n²) definition, the correctness oracle;
//! * [`fft_seq`] — Eq. 3 as direct structural recursion;
//! * [`FftFunction`] — Eq. 3 as a JPLF [`PowerFunction`] (runs on every
//!   executor);
//! * [`fft_stream`] — Eq. 3 through the streams adaptation: a
//!   `ZipSpliterator`-driven collect whose combiner performs the
//!   butterfly;
//! * [`ifft`] — inverse transform via conjugation.

use crate::complex::Complex;
use jplf::{Decomp, PowerFunction};
use jstreams::{
    power_stream, Collector, Decomposition, OutputBuffer, PlacementBuf, PlacementSpec, RunWriter,
    Window, WindowRule,
};
use powerlist::{PowerArray, PowerList};
use std::sync::Arc;

/// The `powers` function of Eq. 3: `(w⁰, …, wⁿ⁻¹)` with `w` the `2n`-th
/// principal root of unity (sign convention: forward transform uses
/// `e^{-2πi/(2n)}`).
pub fn powers(n: usize, inverse: bool) -> Vec<Complex> {
    let sign = if inverse { 1.0 } else { -1.0 };
    let step = sign * std::f64::consts::PI / n as f64; // 2π / 2n
    (0..n).map(|k| Complex::cis(step * k as f64)).collect()
}

/// O(n²) discrete Fourier transform — the oracle.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let angle = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = acc + x * Complex::cis(angle);
            }
            acc
        })
        .collect()
}

fn butterfly(p_hat: Vec<Complex>, q_hat: Vec<Complex>, inverse: bool) -> Vec<Complex> {
    let n = p_hat.len();
    let u = powers(n, inverse);
    let mut out = Vec::with_capacity(2 * n);
    // (P + u×Q) | (P − u×Q)
    for i in 0..n {
        out.push(p_hat[i] + u[i] * q_hat[i]);
    }
    for i in 0..n {
        out.push(p_hat[i] - u[i] * q_hat[i]);
    }
    out
}

fn fft_rec(
    input: &[Complex],
    stride: usize,
    offset: usize,
    n: usize,
    inverse: bool,
) -> Vec<Complex> {
    if n == 1 {
        return vec![input[offset]];
    }
    // zip deconstruction: evens (p) and odds (q) of the current view.
    let p_hat = fft_rec(input, stride * 2, offset, n / 2, inverse);
    let q_hat = fft_rec(input, stride * 2, offset + stride, n / 2, inverse);
    butterfly(p_hat, q_hat, inverse)
}

/// Eq. 3 by direct structural recursion (sequential).
pub fn fft_seq(input: &PowerList<Complex>) -> PowerList<Complex> {
    let out = fft_rec(input.as_slice(), 1, 0, input.len(), false);
    PowerList::from_vec(out).expect("fft preserves length")
}

/// Inverse FFT: conjugate trick plus 1/n scaling; `ifft(fft(x)) = x`.
pub fn ifft(input: &PowerList<Complex>) -> PowerList<Complex> {
    let n = input.len();
    let out = fft_rec(input.as_slice(), 1, 0, n, true);
    PowerList::from_vec(out.into_iter().map(|z| z.scale(1.0 / n as f64)).collect())
        .expect("ifft preserves length")
}

/// Eq. 3 as a JPLF PowerFunction: zip decomposition, butterfly combine.
#[derive(Debug, Clone, Copy, Default)]
pub struct FftFunction;

impl PowerFunction for FftFunction {
    type Elem = Complex;
    type Out = PowerList<Complex>;

    fn decomposition(&self) -> Decomp {
        Decomp::Zip
    }

    fn basic_case(&self, a: &Complex) -> PowerList<Complex> {
        PowerList::singleton(*a)
    }

    fn create_left(&self) -> Self {
        FftFunction
    }

    fn create_right(&self) -> Self {
        FftFunction
    }

    /// The combining phase carries the real work: `u = powers(p)` is
    /// recomputed from the sub-result length (it depends only on the
    /// level), then the butterfly recombines with **tie**.
    fn combine(&self, p_hat: PowerList<Complex>, q_hat: PowerList<Complex>) -> PowerList<Complex> {
        let out = butterfly(p_hat.into_vec(), q_hat.into_vec(), false);
        PowerList::from_vec(out).expect("butterfly doubles length")
    }

    /// Leaf kernel: transform the materialised sub-list with the
    /// sequential FFT instead of singleton recursion.
    fn leaf_case(&self, view: &powerlist::PowerView<Complex>) -> PowerList<Complex> {
        let elems: Vec<Complex> = view.iter().copied().collect();
        let n = elems.len();
        PowerList::from_vec(fft_rec(&elems, 1, 0, n, false)).expect("fft preserves length")
    }
}

/// Collector running the FFT through the streams adaptation: the
/// accumulation container is the frequency-domain partial result, the
/// combiner the butterfly. The leaf phase runs the sequential FFT on the
/// leaf sub-list — the Section V observation that `forEachRemaining`
/// leaves can get a specialised sequential kernel.
pub struct FftCollector;

impl Collector<Complex> for FftCollector {
    type Acc = PowerArray<Complex>;
    type Out = PowerList<Complex>;

    fn supplier(&self) -> PowerArray<Complex> {
        PowerArray::new()
    }

    fn accumulate(&self, acc: &mut PowerArray<Complex>, item: Complex) {
        acc.push(item);
    }

    fn combine(
        &self,
        left: PowerArray<Complex>,
        right: PowerArray<Complex>,
    ) -> PowerArray<Complex> {
        PowerArray::from(butterfly(left.into_vec(), right.into_vec(), false))
    }

    /// Specialised leaf: the accumulated sub-list is itself a PowerList
    /// (a residue class of the input); transform it sequentially.
    fn leaf(&self, source: &mut dyn jstreams::ItemSource<Complex>) -> PowerArray<Complex> {
        let mut acc = self.supplier();
        source.for_each_remaining(&mut |x| acc.push(x));
        let n = acc.len();
        if n <= 1 {
            return acc;
        }
        PowerArray::from(fft_rec(acc.as_slice(), 1, 0, n, false))
    }

    fn finish(&self, acc: PowerArray<Complex>) -> PowerList<Complex> {
        acc.into_powerlist()
            .expect("fft preserves the shape invariant")
    }

    /// Zero-copy leaf: `fft_rec` already walks `(slice, stride, offset)`
    /// descriptors, so a borrowed residue class transforms in place —
    /// no materialisation of the leaf sub-list at all.
    fn leaf_strided(&self, items: &[Complex], step: usize) -> Option<PowerArray<Complex>> {
        if items.is_empty() {
            return Some(PowerArray::new());
        }
        let n = (items.len() - 1) / step + 1;
        if n == 1 {
            let mut acc = PowerArray::new();
            acc.push(items[0]);
            return Some(acc);
        }
        Some(PowerArray::from(fft_rec(items, step, 0, n, false)))
    }

    /// Placement windows concatenate — the butterfly writes
    /// `(P + u×Q) | (P − u×Q)` over the two sub-spectra sitting
    /// side-by-side, so the combined result occupies exactly the
    /// parent's contiguous window.
    fn placement_spec(&self) -> Option<PlacementSpec> {
        Some(PlacementSpec {
            rule: WindowRule::Concat,
            gap: 0,
            unit: true,
        })
    }

    fn try_reserve(
        &self,
        slots: usize,
    ) -> Option<Arc<dyn OutputBuffer<Complex, PowerList<Complex>>>> {
        Some(Arc::new(FftPlacement {
            buf: PlacementBuf::new(slots),
        }))
    }
}

/// Destination-passing output for [`FftCollector`]: each leaf writes
/// the sub-spectrum of its residue class straight into its window, and
/// `combine` runs the butterfly **in place** over the parent window —
/// no intermediate `Vec` per tree level at all.
struct FftPlacement {
    buf: PlacementBuf<Complex>,
}

impl OutputBuffer<Complex, PowerList<Complex>> for FftPlacement {
    // Leaves write spectra, not the elements they read: no typed writer.
    fn writer(&self, _w: Window) -> Option<RunWriter<'_, Complex>> {
        None
    }

    fn fill_run(&self, w: Window, items: &[Complex], step: usize) -> u64 {
        if items.is_empty() {
            return 0;
        }
        let n = (items.len() - 1) / step + 1;
        let hat = if n == 1 {
            vec![items[0]]
        } else {
            fft_rec(items, step, 0, n, false)
        };
        self.buf.fill_run(w, &hat, 1)
    }

    fn fill_with(&self, w: Window, drive: &mut dyn FnMut(&mut dyn FnMut(Complex))) -> u64 {
        let mut elems = Vec::with_capacity(w.len);
        drive(&mut |z| elems.push(z));
        let n = elems.len();
        let hat = if n <= 1 {
            elems
        } else {
            fft_rec(&elems, 1, 0, n, false)
        };
        self.buf.fill_run(w, &hat, 1)
    }

    fn combine(&self, parent: Window, left_slots: usize) {
        let h = left_slots;
        let u = powers(h, false);
        // SAFETY: the driver combines a node only after both children
        // returned, so the parent window is fully initialised and no
        // other thread can touch it (sibling windows are disjoint).
        unsafe {
            self.buf.with_initialized_mut(parent, &mut |w| {
                // (P + u×Q) | (P − u×Q), expression-identical to the
                // splice `butterfly` so both routes agree bit-for-bit.
                for i in 0..h {
                    let p = w[i];
                    let q = w[h + i];
                    w[i] = p + u[i] * q;
                    w[h + i] = p - u[i] * q;
                }
            });
        }
    }

    fn finish(&self) -> PowerList<Complex> {
        PowerList::from_vec(self.buf.finish_vec()).expect("fft preserves the shape invariant")
    }
}

/// FFT through the parallel streams adaptation.
pub fn fft_stream(input: PowerList<Complex>) -> PowerList<Complex> {
    power_stream(input, Decomposition::Zip).collect(FftCollector)
}

/// Convenience: transforms a real-valued signal.
pub fn fft_real(signal: &[f64]) -> PowerList<Complex> {
    let input = PowerList::from_vec(signal.iter().map(|&x| Complex::from_re(x)).collect())
        .expect("signal length must be a power of two");
    fft_seq(&input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jplf::{Executor, ForkJoinExecutor, MpiExecutor, SequentialExecutor};
    use powerlist::tabulate;

    const EPS: f64 = 1e-7;

    fn signal(n: usize) -> PowerList<Complex> {
        tabulate(n, |i| {
            Complex::new(
                ((i * 13 + 5) % 23) as f64 - 11.0,
                ((i * 7) % 17) as f64 * 0.25,
            )
        })
        .unwrap()
    }

    fn assert_close(a: &[Complex], b: &[Complex]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.approx_eq(*y, EPS), "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_dft() {
        for k in 0..8 {
            let s = signal(1 << k);
            let expected = dft_naive(s.as_slice());
            let got = fft_seq(&s);
            assert_close(got.as_slice(), &expected);
        }
    }

    #[test]
    fn singleton_is_identity() {
        let s = PowerList::singleton(Complex::new(2.0, -3.0));
        assert_eq!(fft_seq(&s), s);
    }

    #[test]
    fn roundtrip_ifft() {
        let s = signal(128);
        let back = ifft(&fft_seq(&s));
        assert_close(back.as_slice(), s.as_slice());
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let mut v = vec![Complex::ZERO; 8];
        v[0] = Complex::ONE;
        let s = PowerList::from_vec(v).unwrap();
        let out = fft_seq(&s);
        for z in out.iter() {
            assert!(z.approx_eq(Complex::ONE, EPS));
        }
    }

    #[test]
    fn constant_gives_impulse_spectrum() {
        let s = PowerList::repeat(Complex::ONE, 16).unwrap();
        let out = fft_seq(&s);
        assert!(out[0].approx_eq(Complex::from_re(16.0), EPS));
        for z in out.iter().skip(1) {
            assert!(z.approx_eq(Complex::ZERO, EPS), "{z}");
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let s = signal(64);
        let time: f64 = s.iter().map(|z| z.norm_sqr()).sum();
        let freq: f64 = fft_seq(&s).iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        assert!((time - freq).abs() < 1e-6 * time.abs().max(1.0));
    }

    #[test]
    fn jplf_executors_agree() {
        let s = signal(256);
        let expected = fft_seq(&s);
        let v = s.view();
        let seq = SequentialExecutor::new().execute(&FftFunction, &v);
        assert_close(seq.as_slice(), expected.as_slice());
        let fj = ForkJoinExecutor::new(3, 16).execute(&FftFunction, &v);
        assert_close(fj.as_slice(), expected.as_slice());
        let mpi = MpiExecutor::new(4).execute(&FftFunction, &v);
        assert_close(mpi.as_slice(), expected.as_slice());
    }

    #[test]
    fn leaf_kernel_matches_template_recursion() {
        let s = signal(64);
        let v = s.view();
        let (even, odd) = v.unzip().unwrap();
        for view in [&v, &even, &odd] {
            let a = FftFunction.leaf_case(view);
            let b = jplf::compute_sequential(&FftFunction, view);
            assert_close(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn stream_fft_agrees() {
        for k in [0usize, 1, 3, 6, 9] {
            let s = signal(1 << k);
            let expected = fft_seq(&s);
            let got = fft_stream(s);
            assert_close(got.as_slice(), expected.as_slice());
        }
    }

    /// The placement butterfly runs the same expressions over the same
    /// operands as the splice butterfly, so the two routes must agree
    /// **bit-for-bit**, not just within epsilon.
    #[test]
    fn placement_and_splice_spectra_are_bit_identical() {
        for k in [1usize, 4, 8] {
            let s = signal(1 << k);
            let splice = power_stream(s.clone(), Decomposition::Zip)
                .with_leaf_size(16)
                .with_placement(false)
                .collect(FftCollector);
            let placed = power_stream(s, Decomposition::Zip)
                .with_leaf_size(16)
                .collect(FftCollector);
            assert_eq!(placed.as_slice(), splice.as_slice());
        }
    }

    #[test]
    fn fft_real_wraps() {
        let out = fft_real(&[1.0, 0.0, 0.0, 0.0]);
        for z in out.iter() {
            assert!(z.approx_eq(Complex::ONE, EPS));
        }
    }

    #[test]
    fn linearity() {
        let a = signal(32);
        let b = tabulate(32, |i| Complex::new(i as f64, -(i as f64) / 3.0)).unwrap();
        let sum = powerlist::ops::add(&a, &b).unwrap();
        let lhs = fft_seq(&sum);
        let rhs = powerlist::ops::add(&fft_seq(&a), &fft_seq(&b)).unwrap();
        assert_close(lhs.as_slice(), rhs.as_slice());
    }
}
