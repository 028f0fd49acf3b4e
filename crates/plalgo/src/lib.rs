//! # plalgo — the PowerList algorithm catalogue
//!
//! All the functions the paper names as expressible in the PowerList
//! framework (Sections II–III), each implemented through the
//! repository's execution routes and cross-validated:
//!
//! | Function | Module | Routes |
//! |---|---|---|
//! | `map` / `reduce` (Eq. 1) | [`mapred`] | JPLF (tie & zip), streams, spec |
//! | polynomial evaluation (Eq. 4) | [`poly`] | JPLF, streams (hooked spliterator + shared state), Horner oracle |
//! | FFT (Eq. 3) | [`fft`] | recursion, JPLF, streams, naive-DFT oracle |
//! | prefix sums (Ladner–Fischer) | [`scan`] | recursion, fork-join tiles, fold oracle |
//! | Batcher & bitonic sort | [`sort`] | recursion, fork-join, `sort()` oracle |
//! | Gray codes | [`gray`] | recursion, closed-form oracle |
//! | Eq. 5 tie-descent functions | [`descent`] | JPLF (all executors) |
//! | `inv`, `rev` | re-exported from [`powerlist::perm`] | index & structural |

#![warn(missing_docs)]

pub mod complex;
pub mod descent;
pub mod fft;
pub mod gray;
pub mod mapred;
pub mod mss;
pub mod perm;
pub mod poly;
pub mod polymul;
pub mod scan;
pub mod sort;

pub use complex::Complex;
pub use descent::{haar_like, TieDescentFunction};
pub use fft::{dft_naive, fft_real, fft_seq, fft_stream, ifft, FftCollector, FftFunction};
pub use gray::{gray_closed, gray_decode, gray_structural};
pub use mapred::{map_stream, reduce_stream, MapFunction, ReduceFunction};
pub use mss::{mss, mss_kadane, mss_spec, mss_stream, MssCollector, MssFunction, MssState};
pub use perm::{inv_via, InvFunctionTyped};
pub use poly::{
    eval_par_stream, eval_par_stream_with, eval_seq_stream, eval_tupled_stream, horner,
    poly_spliterator, power_sum, PolynomialCollector, TupledVp, TupledVpCollector, VpFunction,
};
pub use polymul::{convolve, poly_mul_fft, poly_mul_naive};
pub use scan::{scan_exclusive, scan_par, scan_seq, scan_spec};
pub use sort::{batcher_sort, batcher_sort_par, bitonic_sort, odd_even_merge};
