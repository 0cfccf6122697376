//! f64 cell-array arithmetic for the grid backend's hot loops.
//!
//! The grid engine's inner kernels (message scatter, belief products,
//! normalization) all run on `f64` cell slices. The dominant operation
//! is the fused scaled accumulate `out[i] += a · k[i]` ([`axpy`]) and
//! its reversed-kernel twin ([`axpy_rev`]); both dispatch at runtime to
//! AVX2+FMA kernels when the CPU has them and otherwise fall back to a
//! chunked portable loop the compiler can autovectorize at the build's
//! baseline feature level.

/// Sequential sum of a cell slice in slice order — the engine's
/// normalization arithmetic.
fn sum_f64(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in xs {
        acc += x;
    }
    acc
}

/// Normalizes a mass vector in place (sum in slice order, then one
/// division per cell); a zero or non-finite total falls back to uniform.
pub(crate) fn normalize_cells(mass: &mut [f64]) {
    let total = sum_f64(mass);
    if total > 0.0 && total.is_finite() {
        for m in mass.iter_mut() {
            *m /= total;
        }
    } else {
        let cells = mass.len();
        mass.fill(1.0 / cells as f64);
    }
}

/// Pointwise product with renormalization — the belief × message update.
pub(crate) fn product_cells(mass: &mut [f64], other: &[f64]) {
    debug_assert_eq!(mass.len(), other.len(), "grid shape mismatch");
    for (m, &o) in mass.iter_mut().zip(other) {
        *m *= o;
    }
    normalize_cells(mass);
}

/// Message finalization guard: a zero or non-finite message total is
/// replaced by a flat message. Returns whether the fallback fired
/// (surfaced as `ObsEvent::GridUniformFallback`).
pub(crate) fn finalize_cells(msg: &mut [f64]) -> bool {
    let total = sum_f64(msg);
    if total <= 0.0 || !total.is_finite() {
        msg.fill(1.0);
        true
    } else {
        false
    }
}

/// Staleness tempering `m^alpha` per positive cell; `alpha ≥ 1` is the
/// identity.
pub(crate) fn temper_cells(msg: &mut [f64], alpha: f64) {
    if alpha >= 1.0 {
        return;
    }
    let a = alpha.max(0.0);
    for m in msg.iter_mut() {
        if *m > 0.0 {
            *m = m.powf(a);
        }
    }
}

/// Damped belief blend `new = (1 − d)·new + d·old`, renormalized.
pub(crate) fn damp_cells(new: &mut [f64], old: &[f64], damping: f64) {
    let keep = 1.0 - damping;
    for (n, &o) in new.iter_mut().zip(old) {
        *n = keep * *n + damping * o;
    }
    normalize_cells(new);
}

/// `out[i] += a · k[i]` over equal-length slices — the stencil scatter's
/// inner loop.
pub(crate) fn axpy(out: &mut [f64], a: f64, k: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2_fma() {
        // SAFETY: guarded by runtime AVX2+FMA detection.
        unsafe { x86::axpy_f64(out, a, k) };
        return;
    }
    axpy_portable(out, a, k);
}

/// `out[i] += a · k[len − 1 − i]`: accumulate against the *reversed*
/// kernel slice. The mirrored stencil unfolds its rows instead (see
/// `stencil::scatter_mirrored`), so only the tests call this today.
#[allow(
    dead_code,
    reason = "reversed-kernel twin of `axpy`, pinned by its tests"
)]
fn axpy_rev(out: &mut [f64], a: f64, k: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2_fma() {
        // SAFETY: guarded by runtime AVX2+FMA detection.
        unsafe { x86::axpy_rev_f64(out, a, k) };
        return;
    }
    axpy_rev_portable(out, a, k);
}

/// Portable `out[i] += a · k[i]`: fixed-width chunks of exact `zip`s so
/// the inner loop carries no bounds checks and autovectorizes at the
/// build's baseline feature level (SSE2 on x86-64 by default).
fn axpy_portable(out: &mut [f64], a: f64, k: &[f64]) {
    let n = out.len().min(k.len());
    debug_assert_eq!(out.len(), k.len());
    let (out, k) = (&mut out[..n], &k[..n]);
    for (oc, kc) in out.chunks_exact_mut(8).zip(k.chunks_exact(8)) {
        for (t, &kv) in oc.iter_mut().zip(kc) {
            *t += a * kv;
        }
    }
    let tail = n - n % 8;
    for (t, &kv) in out[tail..].iter_mut().zip(&k[tail..]) {
        *t += a * kv;
    }
}

/// Portable `out[i] += a · k[len − 1 − i]` (reversed kernel).
fn axpy_rev_portable(out: &mut [f64], a: f64, k: &[f64]) {
    let n = out.len().min(k.len());
    debug_assert_eq!(out.len(), k.len());
    for (t, &kv) in out[..n].iter_mut().zip(k[..n].iter().rev()) {
        *t += a * kv;
    }
}

/// Runtime-dispatched AVX2+FMA kernels. The crate builds at the default
/// x86-64 baseline (SSE2), so these paths are selected per process via
/// `is_x86_feature_detected!` and reached only through that guard.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether this CPU supports the AVX2+FMA kernels (detected once).
    pub(super) fn have_avx2_fma() -> bool {
        static FLAG: OnceLock<bool> = OnceLock::new();
        *FLAG.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// `out[i] += a · k[i]` with 4-wide f64 FMA.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and FMA (gate with
    /// [`have_avx2_fma`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy_f64(out: &mut [f64], a: f64, k: &[f64]) {
        debug_assert_eq!(out.len(), k.len());
        let n = out.len().min(k.len());
        let va = _mm256_set1_pd(a);
        let op = out.as_mut_ptr();
        let kp = k.as_ptr();
        let mut i = 0usize;
        // SAFETY: every unaligned load/store covers `[i, i + 4)` (or the
        // second lane `[i + 4, i + 8)`) with the loop condition keeping
        // the upper bound ≤ n ≤ both slice lengths.
        unsafe {
            while i + 8 <= n {
                let o0 = _mm256_loadu_pd(op.add(i));
                let o1 = _mm256_loadu_pd(op.add(i + 4));
                let k0 = _mm256_loadu_pd(kp.add(i));
                let k1 = _mm256_loadu_pd(kp.add(i + 4));
                _mm256_storeu_pd(op.add(i), _mm256_fmadd_pd(va, k0, o0));
                _mm256_storeu_pd(op.add(i + 4), _mm256_fmadd_pd(va, k1, o1));
                i += 8;
            }
            while i + 4 <= n {
                let o0 = _mm256_loadu_pd(op.add(i));
                let k0 = _mm256_loadu_pd(kp.add(i));
                _mm256_storeu_pd(op.add(i), _mm256_fmadd_pd(va, k0, o0));
                i += 4;
            }
        }
        // Scalar FMA tail: same fused rounding as the vector body.
        for j in i..n {
            out[j] = a.mul_add(k[j], out[j]);
        }
    }

    /// `out[i] += a · k[n − 1 − i]` with 4-wide f64 FMA over a
    /// lane-reversed kernel load.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and FMA (gate with
    /// [`have_avx2_fma`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy_rev_f64(out: &mut [f64], a: f64, k: &[f64]) {
        debug_assert_eq!(out.len(), k.len());
        let n = out.len().min(k.len());
        let va = _mm256_set1_pd(a);
        let op = out.as_mut_ptr();
        let kp = k.as_ptr();
        let mut i = 0usize;
        // SAFETY: stores cover `[i, i + 4)` with `i + 4 ≤ n`; the kernel
        // load covers `[n − 4 − i, n − i)`, in bounds for the same reason.
        unsafe {
            while i + 4 <= n {
                let o0 = _mm256_loadu_pd(op.add(i));
                let kk = _mm256_loadu_pd(kp.add(n - 4 - i));
                // Reverse the 4 lanes: imm8 0b00_01_10_11 selects 3,2,1,0.
                let kr = _mm256_permute4x64_pd(kk, 0b0001_1011);
                _mm256_storeu_pd(op.add(i), _mm256_fmadd_pd(va, kr, o0));
                i += 4;
            }
        }
        for j in i..n {
            out[j] = a.mul_add(k[n - 1 - j], out[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_axpy(out: &mut [f64], a: f64, k: &[f64]) {
        for (t, &kv) in out.iter_mut().zip(k) {
            *t += a * kv;
        }
    }

    #[test]
    fn axpy_matches_reference_at_all_lengths() {
        // Cover every tail-length case around the 4/8-lane boundaries.
        for n in 0..40 {
            let k: Vec<f64> = (0..n).map(|i| 0.1 + i as f64 * 0.37).collect();
            let mut out: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
            let mut expect = out.clone();
            axpy(&mut out, 0.625, &k);
            reference_axpy(&mut expect, 0.625, &k);
            for (i, (a, b)) in out.iter().zip(&expect).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-15 * b.abs().max(1.0),
                    "n={n} i={i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn axpy_rev_reverses_kernel() {
        for n in 0..40 {
            let k: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let mut out = vec![0.0f64; n];
            axpy_rev(&mut out, 2.0, &k);
            for i in 0..n {
                let want = 2.0 * k[n - 1 - i];
                assert!(
                    (out[i] - want).abs() <= 1e-12,
                    "n={n} i={i}: {} vs {want}",
                    out[i]
                );
            }
        }
    }

    #[test]
    fn normalize_replicates_grid_belief_semantics() {
        let mut m = vec![1.0f64, 3.0, 4.0];
        normalize_cells(&mut m);
        assert_eq!(m, vec![1.0 / 8.0, 3.0 / 8.0, 4.0 / 8.0]);
        // Zero total: uniform fallback.
        let mut z = vec![0.0f64; 4];
        normalize_cells(&mut z);
        assert_eq!(z, vec![0.25; 4]);
        // Non-finite total: uniform fallback.
        let mut nan = vec![f64::NAN, 1.0];
        normalize_cells(&mut nan);
        assert_eq!(nan, vec![0.5, 0.5]);
    }

    #[test]
    fn finalize_flags_collapse() {
        let mut ok = vec![0.0f64, 2.0];
        assert!(!finalize_cells(&mut ok));
        let mut dead = vec![0.0f64, 0.0];
        assert!(finalize_cells(&mut dead));
        assert_eq!(dead, vec![1.0, 1.0]);
    }

    #[test]
    fn temper_flattens_toward_one() {
        let mut m = vec![0.25f64, 0.0, 1.0];
        temper_cells(&mut m, 0.5);
        assert_eq!(m, vec![0.5, 0.0, 1.0]);
        let mut id = vec![0.25f64];
        temper_cells(&mut id, 1.0);
        assert_eq!(id, vec![0.25]);
    }
}
