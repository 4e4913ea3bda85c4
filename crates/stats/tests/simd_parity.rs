//! SIMD-vs-scalar parity: the runtime-dispatched AVX2 kernel variants must
//! reproduce the scalar reference loops **bit for bit** in `f64` mode.
//!
//! The property tests in `block_kernels.rs` already pin the block kernels to
//! the entry-major scalar formulas; this file is the explicit, deterministic
//! smoke for the SIMD dispatch itself: odd lengths (lane tails), lengths
//! below one lane, degenerate bandwidths and inverted/point boxes.  With the
//! `simd` feature off (or on a non-AVX2 host) the dispatched path *is* the
//! scalar loop and the assertions are trivially true — which is exactly the
//! property CI's feature-off build checks.

use bt_stats::kernel::{
    box_min_sq_dists_block, diag_log_pdfs_block, farthest_point_log_kernels_block,
    gaussian_log_term, gaussian_log_terms_block, nearest_point_log_kernels_block,
    smoothed_farthest_log_kernels_block, sq_dists_block,
};
use bt_stats::{Columns, LN_2PI, VARIANCE_FLOOR};

/// Deterministic value generator (SplitMix64 over the unit interval).
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn coord(&mut self) -> f64 {
        self.next_f64() * 100.0 - 50.0
    }
}

struct Case {
    len: usize,
    query: Vec<f64>,
    bandwidth: Vec<f64>,
    means: Columns,
    vars: Columns,
    lower: Columns,
    upper: Columns,
}

fn case(dims: usize, len: usize, seed: u64) -> Case {
    let mut rng = SplitMix(seed);
    let query: Vec<f64> = (0..dims).map(|_| rng.coord()).collect();
    // Include sub-floor bandwidths so the flooring path is covered.
    let bandwidth: Vec<f64> = (0..dims)
        .map(|d| {
            if d % 3 == 0 {
                rng.next_f64() * 1e-5
            } else {
                0.05 + rng.next_f64() * 3.0
            }
        })
        .collect();
    let mut means = Columns::F64(Vec::new());
    let mut vars = Columns::F64(Vec::new());
    let mut lower = Columns::F64(Vec::new());
    let mut upper = Columns::F64(Vec::new());
    means.reset(dims * len);
    vars.reset(dims * len);
    lower.reset(dims * len);
    upper.reset(dims * len);
    for d in 0..dims {
        for i in 0..len {
            let idx = d * len + i;
            means.set(idx, rng.coord());
            // Zero variances every few entries: the smoothing degenerate.
            vars.set(
                idx,
                if i % 5 == 0 {
                    0.0
                } else {
                    rng.next_f64() * 4.0
                },
            );
            let lo = rng.coord();
            // Point boxes (width 0) every few entries.
            let width = if i % 4 == 0 {
                0.0
            } else {
                rng.next_f64() * 8.0
            };
            lower.set(idx, lo);
            upper.set(idx, lo + width);
        }
    }
    Case {
        len,
        query,
        bandwidth,
        means,
        vars,
        lower,
        upper,
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: entry {i} diverges ({g} vs {w})"
        );
    }
}

/// Lane-exercising lengths: below one lane, exact lanes, tails of 1..3.
const LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 65];

#[test]
fn sq_dists_block_matches_scalar_bitwise() {
    for &len in LENS {
        let c = case(5, len, 0x51ED * (len as u64 + 1));
        let mut out = Vec::new();
        sq_dists_block(&c.query, &c.means, c.len, &mut out);
        let want: Vec<f64> = (0..len)
            .map(|i| {
                let mut acc = 0.0;
                for (d, &q) in c.query.iter().enumerate() {
                    let diff = c.means.get(d * len + i) - q;
                    acc += diff * diff;
                }
                acc
            })
            .collect();
        assert_bits_eq(&out, &want, "sq_dists");
    }
}

#[test]
fn gaussian_log_terms_block_matches_scalar_bitwise() {
    for &len in LENS {
        let c = case(6, len, 0xBEEF + len as u64);
        for with_vars in [false, true] {
            let mut out = Vec::new();
            let vars = with_vars.then_some(&c.vars);
            gaussian_log_terms_block(&c.query, &c.bandwidth, &c.means, vars, c.len, &mut out);
            let want: Vec<f64> = (0..len)
                .map(|i| {
                    let mut acc = 0.0;
                    for (d, &q) in c.query.iter().enumerate() {
                        let m = c.means.get(d * len + i);
                        let dist = if with_vars {
                            let diff = q - m;
                            (diff * diff + c.vars.get(d * len + i)).sqrt()
                        } else {
                            q - m
                        };
                        acc += gaussian_log_term(dist, c.bandwidth[d]);
                    }
                    acc
                })
                .collect();
            assert_bits_eq(&out, &want, "gaussian_log_terms");
        }
    }
}

#[test]
fn diag_log_pdfs_block_matches_scalar_bitwise() {
    // The SIMD diag path only exists for gathers that precomputed their
    // log-variance column; substituting the stored `ln` must not move a bit
    // against the inline-`ln` scalar reference.
    for &len in LENS {
        let c = case(5, len, 0xD1A6 + ((len as u64) << 2));
        // Floor the variances like a real gather would (DiagGaussian's
        // clamp), so `ln` and the division stay finite.
        let mut vars = Columns::F64(Vec::new());
        vars.reset(5 * len);
        for idx in 0..5 * len {
            vars.set(idx, c.vars.get(idx).max(VARIANCE_FLOOR));
        }
        let log_vars: Vec<f64> = (0..5 * len).map(|idx| vars.get(idx).ln()).collect();
        let mut with_column = Vec::new();
        diag_log_pdfs_block(
            &c.query,
            &c.means,
            &vars,
            Some(&log_vars),
            len,
            &mut with_column,
        );
        let mut inline_ln = Vec::new();
        diag_log_pdfs_block(&c.query, &c.means, &vars, None, len, &mut inline_ln);
        let want: Vec<f64> = (0..len)
            .map(|i| {
                let mut acc = 0.0;
                for (d, &q) in c.query.iter().enumerate() {
                    let diff = q - c.means.get(d * len + i);
                    let var = vars.get(d * len + i);
                    acc += -0.5 * (LN_2PI + var.ln() + diff * diff / var);
                }
                acc
            })
            .collect();
        assert_bits_eq(&inline_ln, &want, "diag inline-ln");
        assert_bits_eq(&with_column, &want, "diag log-var column");
    }
}

#[test]
fn box_kernels_match_scalar_bitwise() {
    for &len in LENS {
        let c = case(4, len, 0xB0CE5 ^ (len as u64) << 3);
        let mut near = Vec::new();
        let mut far = Vec::new();
        let mut smooth = Vec::new();
        let mut dist_sq = Vec::new();
        nearest_point_log_kernels_block(&c.query, &c.bandwidth, &c.lower, &c.upper, len, &mut near);
        farthest_point_log_kernels_block(&c.query, &c.bandwidth, &c.lower, &c.upper, len, &mut far);
        smoothed_farthest_log_kernels_block(
            &c.query,
            &c.bandwidth,
            &c.lower,
            &c.upper,
            len,
            &mut smooth,
        );
        box_min_sq_dists_block(&c.query, &c.lower, &c.upper, len, &mut dist_sq);
        let mut want_near = vec![0.0; len];
        let mut want_far = vec![0.0; len];
        let mut want_smooth = vec![0.0; len];
        let mut want_dist = vec![0.0; len];
        for (d, &q) in c.query.iter().enumerate() {
            for i in 0..len {
                let lo = c.lower.get(d * len + i);
                let hi = c.upper.get(d * len + i);
                let clamp = if q < lo {
                    lo - q
                } else if q > hi {
                    q - hi
                } else {
                    0.0
                };
                let farthest = (q - lo).abs().max((q - hi).abs());
                let half = 0.5 * (hi - lo);
                let t = farthest * farthest + half * half;
                want_near[i] += gaussian_log_term(clamp, c.bandwidth[d]);
                want_far[i] += gaussian_log_term(farthest, c.bandwidth[d]);
                want_smooth[i] += gaussian_log_term(t.sqrt(), c.bandwidth[d]);
                want_dist[i] += clamp * clamp;
            }
        }
        assert_bits_eq(&near, &want_near, "nearest");
        assert_bits_eq(&far, &want_far, "farthest");
        assert_bits_eq(&smooth, &want_smooth, "smoothed_farthest");
        assert_bits_eq(&dist_sq, &want_dist, "box_min_sq_dists");
    }
}

#[test]
fn dispatch_reports_consistent_availability() {
    let available = bt_stats::simd::avx2_available();
    if cfg!(not(all(feature = "simd", target_arch = "x86_64"))) {
        assert!(!available, "SIMD must be off without the feature/arch");
    }
    // Either way the answer must be stable across calls (cached detection).
    assert_eq!(available, bt_stats::simd::avx2_available());
}

#[test]
fn f32_columns_stay_close_through_the_simd_path() {
    // In f32 mode only the stored operands are quantised; the SIMD path
    // must widen exactly like the scalar path, so the result must equal the
    // scalar recomputation on the *quantised* values bit for bit.
    let len = 13;
    let c = case(3, len, 0xF32F32);
    let mut means32 = Columns::F32(Vec::new());
    means32.reset(3 * len);
    for idx in 0..3 * len {
        means32.set(idx, c.means.get(idx));
    }
    let mut out = Vec::new();
    sq_dists_block(&c.query, &means32, len, &mut out);
    let want: Vec<f64> = (0..len)
        .map(|i| {
            let mut acc = 0.0;
            for (d, &q) in c.query.iter().enumerate() {
                let diff = means32.get(d * len + i) - q;
                acc += diff * diff;
            }
            acc
        })
        .collect();
    assert_bits_eq(&out, &want, "sq_dists f32");
}
