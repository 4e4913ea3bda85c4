//! Explicit-SIMD variants of the hot block kernels.
//!
//! The batch kernels in [`crate::kernel`] are written so LLVM *can*
//! autovectorize them, but autovectorization of the widening (`f32` →
//! `f64`), mixed-arm loops is brittle — a missed vectorization silently
//! costs 2–4×.  This module makes the vector shape explicit: a small local
//! shim type ([`F64x4`]) models one 256-bit lane of four `f64`s as a plain
//! `[f64; 4]` with element-wise IEEE operations, and the kernel bodies walk
//! the entry dimension four entries at a time (scalar tail).  The bodies are
//! monomorphised behind `#[target_feature(enable = "avx2")]` wrappers and
//! selected at runtime ([`avx2_available`]), so a binary built for the
//! baseline target still uses AVX2 registers on machines that have them.
//!
//! **Bit-exactness.**  Every lane op is the *same* IEEE-754 scalar
//! expression the reference loop uses (add, sub, mul, div, sqrt, abs,
//! `f64::max` — never a fused multiply-add, which would change rounding),
//! and each entry's accumulator still receives its per-dimension terms in
//! ascending-dimension order.  The SIMD path is therefore bit-identical to
//! the scalar reference in both column precisions; the parity tests in
//! `crates/stats/tests/block_kernels.rs` assert it with `to_bits`.
//!
//! **Scope (measure first).**  Only the kernels where the explicit lanes
//! demonstrably win are dispatched here: squared distances, Gaussian
//! log-terms (plain and variance-smoothed), the three box-bound kernels and
//! the diagonal-Gaussian log-pdf *with a precomputed log-variance column*.
//! The diag kernel's per-element `ln` has no vector form without a
//! vector-libm dependency — but `ln(var)` is query-independent, so the
//! gather hoists it into [`crate::SummaryBlock::fill_log_vars`] (cached
//! with the block) and the remaining add/mul/div arithmetic vectorizes
//! here.  Without that column the diag kernel stays scalar.
//!
//! Everything degrades gracefully: with the `simd` cargo feature off, on
//! non-`x86_64` targets, or on CPUs without AVX2, [`avx2_available`] is
//! `false` and callers fall through to the scalar reference loops.

use crate::block::ColumnElement;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use crate::{LN_2PI, VARIANCE_FLOOR};

/// Lanes per vector: one AVX2 register holds four `f64`s.
pub const LANES: usize = 4;

/// Whether the runtime-dispatched AVX2 kernel variants may be used.
///
/// `true` only when the `simd` feature is enabled, the target is `x86_64`
/// and the executing CPU reports AVX2; the answer is detected once and
/// cached.
#[must_use]
pub fn avx2_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// One 256-bit lane of four `f64`s, modelled portably as `[f64; 4]`.
///
/// All operations are element-wise scalar IEEE expressions; compiled inside
/// an AVX2 `#[target_feature]` region LLVM lowers them to single vector
/// instructions, anywhere else they stay four scalar ops with identical
/// results.
#[derive(Debug, Clone, Copy)]
pub struct F64x4(pub [f64; 4]);

// The lane-wise arithmetic deliberately uses the intrinsic-style names
// (`add`/`sub`/`mul`/`div`) rather than operator overloads: the kernel code
// reads like the `_mm256_*` sequence it compiles down to.
#[allow(clippy::should_implement_trait)]
impl F64x4 {
    /// All four lanes set to `v`.
    #[inline(always)]
    #[must_use]
    pub fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// Widening load of four consecutive column elements.
    #[inline(always)]
    #[must_use]
    pub fn load<E: ColumnElement>(col: &[E]) -> Self {
        Self([
            col[0].widen(),
            col[1].widen(),
            col[2].widen(),
            col[3].widen(),
        ])
    }

    /// Stores the four lanes into `out[..4]`.
    #[inline(always)]
    pub fn store(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Self([
            f(self.0[0], other.0[0]),
            f(self.0[1], other.0[1]),
            f(self.0[2], other.0[2]),
            f(self.0[3], other.0[3]),
        ])
    }

    #[inline(always)]
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Self([f(self.0[0]), f(self.0[1]), f(self.0[2]), f(self.0[3])])
    }

    /// Lane-wise addition.
    #[inline(always)]
    #[must_use]
    pub fn add(self, other: Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Lane-wise subtraction.
    #[inline(always)]
    #[must_use]
    pub fn sub(self, other: Self) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    #[must_use]
    pub fn mul(self, other: Self) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Lane-wise division.
    #[inline(always)]
    #[must_use]
    pub fn div(self, other: Self) -> Self {
        self.zip(other, |a, b| a / b)
    }

    /// Lane-wise square root.
    #[inline(always)]
    #[must_use]
    pub fn sqrt(self) -> Self {
        self.map(f64::sqrt)
    }

    /// Lane-wise absolute value.
    #[inline(always)]
    #[must_use]
    pub fn abs(self) -> Self {
        self.map(f64::abs)
    }

    /// Lane-wise `f64::max` (same NaN semantics as the scalar reference).
    #[inline(always)]
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        self.zip(other, f64::max)
    }
}

// ---------------------------------------------------------------------------
// Kernel bodies: `#[inline(always)]` so the `#[target_feature]` wrappers can
// absorb them into their AVX2-enabled codegen region.  Each body mirrors one
// scalar `_impl` loop in `crate::kernel` expression for expression.
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn sq_dists_body<M: ColumnElement>(query: &[f64], means: &[M], len: usize, out: &mut [f64]) {
    let chunks = len - len % LANES;
    for (d, &q) in query.iter().enumerate() {
        let col = &means[d * len..(d + 1) * len];
        let qv = F64x4::splat(q);
        let mut i = 0;
        while i < chunks {
            let diff = F64x4::load(&col[i..]).sub(qv);
            let acc = diff.mul(diff).add(F64x4::load(&out[i..]));
            acc.store(&mut out[i..]);
            i += LANES;
        }
        while i < len {
            let diff = col[i].widen() - q;
            out[i] += diff * diff;
            i += 1;
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn gaussian_log_terms_body<M: ColumnElement, V: ColumnElement>(
    query: &[f64],
    bandwidth: &[f64],
    means: &[M],
    vars: Option<&[V]>,
    len: usize,
    out: &mut [f64],
) {
    let chunks = len - len % LANES;
    for (d, &q) in query.iter().enumerate() {
        let h = bandwidth[d].max(VARIANCE_FLOOR.sqrt());
        let ln_h = h.ln();
        let mcol = &means[d * len..(d + 1) * len];
        let qv = F64x4::splat(q);
        let hv = F64x4::splat(h);
        let ln_2pi = F64x4::splat(LN_2PI);
        let ln_h_v = F64x4::splat(ln_h);
        let neg_half = F64x4::splat(-0.5);
        if let Some(vars) = vars {
            let vcol = &vars[d * len..(d + 1) * len];
            let mut i = 0;
            while i < chunks {
                let diff = qv.sub(F64x4::load(&mcol[i..]));
                let t = diff.mul(diff).add(F64x4::load(&vcol[i..]));
                let u = t.sqrt().div(hv);
                // -0.5 * (LN_2PI + u * u) - ln_h, same op order as scalar.
                let term = neg_half.mul(u.mul(u).add(ln_2pi)).sub(ln_h_v);
                F64x4::load(&out[i..]).add(term).store(&mut out[i..]);
                i += LANES;
            }
            while i < len {
                let diff = q - mcol[i].widen();
                let t = diff * diff + vcol[i].widen();
                let u = t.sqrt() / h;
                out[i] += -0.5 * (u * u + LN_2PI) - ln_h;
                i += 1;
            }
        } else {
            let mut i = 0;
            while i < chunks {
                let u = qv.sub(F64x4::load(&mcol[i..])).div(hv);
                let term = neg_half.mul(u.mul(u).add(ln_2pi)).sub(ln_h_v);
                F64x4::load(&out[i..]).add(term).store(&mut out[i..]);
                i += LANES;
            }
            while i < len {
                let u = (q - mcol[i].widen()) / h;
                out[i] += -0.5 * (u * u + LN_2PI) - ln_h;
                i += 1;
            }
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn diag_log_pdfs_body<M: ColumnElement, V: ColumnElement>(
    query: &[f64],
    means: &[M],
    vars: &[V],
    log_vars: &[f64],
    len: usize,
    out: &mut [f64],
) {
    let chunks = len - len % LANES;
    for (d, &q) in query.iter().enumerate() {
        let mcol = &means[d * len..(d + 1) * len];
        let vcol = &vars[d * len..(d + 1) * len];
        let lcol = &log_vars[d * len..(d + 1) * len];
        let qv = F64x4::splat(q);
        let ln_2pi = F64x4::splat(LN_2PI);
        let neg_half = F64x4::splat(-0.5);
        let mut i = 0;
        while i < chunks {
            let diff = qv.sub(F64x4::load(&mcol[i..]));
            let var = F64x4::load(&vcol[i..]);
            let lv = F64x4::load(&lcol[i..]);
            // -0.5 * ((LN_2PI + ln(var)) + diff * diff / var), the ln
            // precomputed at gather time, same op order as scalar.
            let sum = ln_2pi.add(lv).add(diff.mul(diff).div(var));
            let acc = neg_half.mul(sum).add(F64x4::load(&out[i..]));
            acc.store(&mut out[i..]);
            i += LANES;
        }
        while i < len {
            let diff = q - mcol[i].widen();
            let var = vcol[i].widen();
            let sum = LN_2PI + lcol[i] + diff * diff / var;
            out[i] += -0.5 * sum;
            i += 1;
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn box_kernel_body<
    L: ColumnElement,
    U: ColumnElement,
    const FARTHEST: bool,
    const SMOOTHED: bool,
>(
    query: &[f64],
    bandwidth: &[f64],
    lower: &[L],
    upper: &[U],
    len: usize,
    out: &mut [f64],
) {
    let chunks = len - len % LANES;
    for (d, &q) in query.iter().enumerate() {
        let h = bandwidth[d].max(VARIANCE_FLOOR.sqrt());
        let ln_h = h.ln();
        let lcol = &lower[d * len..(d + 1) * len];
        let ucol = &upper[d * len..(d + 1) * len];
        let qv = F64x4::splat(q);
        let hv = F64x4::splat(h);
        let zero = F64x4::splat(0.0);
        let half_f = F64x4::splat(0.5);
        let ln_2pi = F64x4::splat(LN_2PI);
        let ln_h_v = F64x4::splat(ln_h);
        let neg_half = F64x4::splat(-0.5);
        let mut i = 0;
        while i < chunks {
            let lo = F64x4::load(&lcol[i..]);
            let hi = F64x4::load(&ucol[i..]);
            let dist = if FARTHEST {
                qv.sub(lo).abs().max(qv.sub(hi).abs())
            } else {
                // max(lo - q, 0) + max(q - hi, 0): at most one term is
                // positive and the other is exactly 0.0, so the sum equals
                // the branchy clamp bit for bit.
                lo.sub(qv).max(zero).add(qv.sub(hi).max(zero))
            };
            let u = if SMOOTHED {
                let half = half_f.mul(hi.sub(lo));
                dist.mul(dist).add(half.mul(half)).sqrt().div(hv)
            } else {
                dist.div(hv)
            };
            let term = neg_half.mul(u.mul(u).add(ln_2pi)).sub(ln_h_v);
            F64x4::load(&out[i..]).add(term).store(&mut out[i..]);
            i += LANES;
        }
        while i < len {
            let lo = lcol[i].widen();
            let hi = ucol[i].widen();
            let dist = if FARTHEST {
                (q - lo).abs().max((q - hi).abs())
            } else if q < lo {
                lo - q
            } else if q > hi {
                q - hi
            } else {
                0.0
            };
            let u = if SMOOTHED {
                let half = 0.5 * (hi - lo);
                let t = dist * dist + half * half;
                t.sqrt() / h
            } else {
                dist / h
            };
            out[i] += -0.5 * (u * u + LN_2PI) - ln_h;
            i += 1;
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline(always)]
fn box_min_sq_dists_body<L: ColumnElement, U: ColumnElement>(
    query: &[f64],
    lower: &[L],
    upper: &[U],
    len: usize,
    out: &mut [f64],
) {
    let chunks = len - len % LANES;
    for (d, &q) in query.iter().enumerate() {
        let lcol = &lower[d * len..(d + 1) * len];
        let ucol = &upper[d * len..(d + 1) * len];
        let qv = F64x4::splat(q);
        let zero = F64x4::splat(0.0);
        let mut i = 0;
        while i < chunks {
            let lo = F64x4::load(&lcol[i..]);
            let hi = F64x4::load(&ucol[i..]);
            let diff = lo.sub(qv).max(zero).add(qv.sub(hi).max(zero));
            diff.mul(diff)
                .add(F64x4::load(&out[i..]))
                .store(&mut out[i..]);
            i += LANES;
        }
        while i < len {
            let lo = lcol[i].widen();
            let hi = ucol[i].widen();
            let diff = if q < lo {
                lo - q
            } else if q > hi {
                q - hi
            } else {
                0.0
            };
            out[i] += diff * diff;
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2-enabled wrappers: same signatures as the scalar `_impl` loops, unsafe
// only because the caller must have verified `avx2_available()`.
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::*;

    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dists<M: ColumnElement>(
        query: &[f64],
        means: &[M],
        len: usize,
        out: &mut [f64],
    ) {
        sq_dists_body::<M>(query, means, len, out);
    }

    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gaussian_log_terms<M: ColumnElement, V: ColumnElement>(
        query: &[f64],
        bandwidth: &[f64],
        means: &[M],
        vars: Option<&[V]>,
        len: usize,
        out: &mut [f64],
    ) {
        gaussian_log_terms_body::<M, V>(query, bandwidth, means, vars, len, out);
    }

    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn diag_log_pdfs<M: ColumnElement, V: ColumnElement>(
        query: &[f64],
        means: &[M],
        vars: &[V],
        log_vars: &[f64],
        len: usize,
        out: &mut [f64],
    ) {
        diag_log_pdfs_body::<M, V>(query, means, vars, log_vars, len, out);
    }

    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn box_kernel<
        L: ColumnElement,
        U: ColumnElement,
        const FARTHEST: bool,
        const SMOOTHED: bool,
    >(
        query: &[f64],
        bandwidth: &[f64],
        lower: &[L],
        upper: &[U],
        len: usize,
        out: &mut [f64],
    ) {
        box_kernel_body::<L, U, FARTHEST, SMOOTHED>(query, bandwidth, lower, upper, len, out);
    }

    /// # Safety
    /// The executing CPU must support AVX2 (`avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn box_min_sq_dists<L: ColumnElement, U: ColumnElement>(
        query: &[f64],
        lower: &[L],
        upper: &[U],
        len: usize,
        out: &mut [f64],
    ) {
        box_min_sq_dists_body::<L, U>(query, lower, upper, len, out);
    }
}

/// Runtime-dispatched squared-distance kernel; returns `false` when the
/// SIMD path is unavailable and the caller must run the scalar reference.
#[inline]
pub(crate) fn sq_dists<M: ColumnElement>(
    query: &[f64],
    means: &[M],
    len: usize,
    out: &mut [f64],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified.
            unsafe { avx2::sq_dists(query, means, len, out) };
            return true;
        }
    }
    let _ = (query, means, len, out);
    false
}

/// Runtime-dispatched Gaussian log-term kernel (see [`sq_dists`]).
#[inline]
pub(crate) fn gaussian_log_terms<M: ColumnElement, V: ColumnElement>(
    query: &[f64],
    bandwidth: &[f64],
    means: &[M],
    vars: Option<&[V]>,
    len: usize,
    out: &mut [f64],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified.
            unsafe { avx2::gaussian_log_terms(query, bandwidth, means, vars, len, out) };
            return true;
        }
    }
    let _ = (query, bandwidth, means, vars, len, out);
    false
}

/// Runtime-dispatched diagonal-Gaussian log-pdf kernel for gathers that
/// precomputed their log-variance column (see [`sq_dists`]).
#[inline]
pub(crate) fn diag_log_pdfs<M: ColumnElement, V: ColumnElement>(
    query: &[f64],
    means: &[M],
    vars: &[V],
    log_vars: &[f64],
    len: usize,
    out: &mut [f64],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified.
            unsafe { avx2::diag_log_pdfs(query, means, vars, log_vars, len, out) };
            return true;
        }
    }
    let _ = (query, means, vars, log_vars, len, out);
    false
}

/// Runtime-dispatched box-bound kernel (see [`sq_dists`]).
#[inline]
pub(crate) fn box_kernel<
    L: ColumnElement,
    U: ColumnElement,
    const FARTHEST: bool,
    const SMOOTHED: bool,
>(
    query: &[f64],
    bandwidth: &[f64],
    lower: &[L],
    upper: &[U],
    len: usize,
    out: &mut [f64],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified.
            unsafe {
                avx2::box_kernel::<L, U, FARTHEST, SMOOTHED>(
                    query, bandwidth, lower, upper, len, out,
                );
            }
            return true;
        }
    }
    let _ = (query, bandwidth, lower, upper, len, out);
    false
}

/// Runtime-dispatched box minimum-squared-distance kernel (see
/// [`sq_dists`]).
#[inline]
pub(crate) fn box_min_sq_dists<L: ColumnElement, U: ColumnElement>(
    query: &[f64],
    lower: &[L],
    upper: &[U],
    len: usize,
    out: &mut [f64],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified.
            unsafe { avx2::box_min_sq_dists(query, lower, upper, len, out) };
            return true;
        }
    }
    let _ = (query, lower, upper, len, out);
    false
}
