//! Scalar and vectorized numeric kernels.
//!
//! Every kernel takes a [`KernelMode`]; `Vectorized` uses 8-lane unrolled
//! loops that LLVM auto-vectorizes into SIMD (the portable stand-in for
//! the paper's Intel AVX intrinsics), with explicit prefetch hints on
//! x86-64 standing in for the paper's software pipelining. `Scalar` is the
//! naive loop. Figure 10's "SLIDE-CPU Optimized vs SLIDE-CPU" experiment
//! toggles exactly this switch.

/// Which kernel implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// Naive element-at-a-time loops.
    Scalar,
    /// Unrolled, auto-vectorizable loops with prefetch hints.
    #[default]
    Vectorized,
}

impl KernelMode {
    /// Parses `"scalar"` or `"vectorized"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelMode::Scalar),
            "vectorized" | "simd" => Some(KernelMode::Vectorized),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelMode::Scalar => write!(f, "scalar"),
            KernelMode::Vectorized => write!(f, "vectorized"),
        }
    }
}

/// The instruction set the `Vectorized` kernels actually dispatch to on
/// this machine: `"avx2+fma"` when runtime detection finds both,
/// `"portable-unrolled"` otherwise; `Scalar` always reports `"scalar"`.
/// Benchmarks record this so committed numbers are attributable to an ISA.
pub fn dispatched_isa(mode: KernelMode) -> &'static str {
    match mode {
        KernelMode::Scalar => "scalar",
        KernelMode::Vectorized => {
            #[cfg(target_arch = "x86_64")]
            if crate::fused::have_avx2_fma() {
                return "avx2+fma";
            }
            "portable-unrolled"
        }
    }
}

/// Prefetches the cache line containing `ptr` (x86-64 only; a no-op
/// elsewhere). Stands in for the paper's `PREFETCHT0`-based software
/// pipeline.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: _mm_prefetch has no memory safety requirements; any address
    // is allowed (it is a hint).
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Prefetches every cache line `slice` overlaps (hint only): one
/// [`prefetch_read`] per 64-byte line from the line holding the first
/// element through the line holding the last.
#[inline(always)]
pub fn prefetch_slice<T>(slice: &[T]) {
    let base = slice.as_ptr() as *const u8;
    let line = crate::aligned::CACHE_LINE_BYTES;
    let end = std::mem::size_of_val(slice);
    let mut off = -((base as usize % line) as isize);
    while off < end as isize {
        prefetch_read(base.wrapping_offset(off));
        off += line as isize;
    }
}

/// Dot product `a · b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// use slide_kernels::{dot, KernelMode};
///
/// let a = [1.0, 2.0, 3.0];
/// let b = [4.0, 5.0, 6.0];
/// assert_eq!(dot(&a, &b, KernelMode::Vectorized), 32.0);
/// ```
pub fn dot(a: &[f32], b: &[f32], mode: KernelMode) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    match mode {
        KernelMode::Scalar => {
            let mut acc = 0.0f32;
            for (x, y) in a.iter().zip(b) {
                acc += x * y;
            }
            acc
        }
        KernelMode::Vectorized => {
            // 8 independent accumulators break the loop-carried dependency
            // so LLVM vectorizes and the FMA ports stay busy.
            let mut acc = [0.0f32; 8];
            let chunks = a.len() / 8;
            for c in 0..chunks {
                let i = c * 8;
                if i + 64 < a.len() {
                    prefetch_read(a.as_ptr().wrapping_add(i + 64));
                    prefetch_read(b.as_ptr().wrapping_add(i + 64));
                }
                for lane in 0..8 {
                    acc[lane] += a[i + lane] * b[i + lane];
                }
            }
            let mut total: f32 = acc.iter().sum();
            for i in chunks * 8..a.len() {
                total += a[i] * b[i];
            }
            total
        }
    }
}

/// `y += alpha * x` (the BLAS axpy).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32], mode: KernelMode) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match mode {
        KernelMode::Scalar => {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
            }
        }
        KernelMode::Vectorized => {
            let chunks = x.len() / 8;
            for c in 0..chunks {
                let i = c * 8;
                if i + 64 < x.len() {
                    prefetch_read(x.as_ptr().wrapping_add(i + 64));
                }
                for lane in 0..8 {
                    y[i + lane] += alpha * x[i + lane];
                }
            }
            for i in chunks * 8..x.len() {
                y[i] += alpha * x[i];
            }
        }
    }
}

/// ReLU in place: `x = max(x, 0)`.
pub fn relu_in_place(x: &mut [f32], mode: KernelMode) {
    match mode {
        KernelMode::Scalar => {
            for v in x.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        KernelMode::Vectorized => {
            // max() compiles to a branchless maxps under vectorization.
            for v in x.iter_mut() {
                *v = v.max(0.0);
            }
        }
    }
}

/// Numerically-stable softmax in place over an *active subset* of logits.
///
/// This is the paper's sparse softmax: "the normalizing constant ... is no
/// longer the sum over all neurons but only the active ones" (§3.1).
///
/// Empty input is a no-op. All-equal logits yield the uniform
/// distribution.
pub fn softmax_in_place(logits: &mut [f32], mode: KernelMode) {
    if logits.is_empty() {
        return;
    }
    let _ = mode; // same code path; exp dominates and is scalar either way
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in logits.iter_mut() {
        *v *= inv;
    }
}

/// Adam hyper-parameters (paper uses Adam with defaults; Kingma & Ba 2014).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamParams {
    /// Step size α.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator fuzz ε.
    pub eps: f32,
}

impl Default for AdamParams {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

impl AdamParams {
    /// Creates params with the given learning rate and standard betas.
    pub fn with_lr(lr: f32) -> Self {
        Self {
            lr,
            ..Self::default()
        }
    }

    /// Bias-corrected step size for timestep `t` (1-based):
    /// `α · √(1 − β₂ᵗ) / (1 − β₁ᵗ)`.
    pub fn corrected_lr(&self, t: u64) -> f32 {
        let t = t.max(1) as i32;
        self.lr * (1.0 - self.beta2.powi(t)).sqrt() / (1.0 - self.beta1.powi(t))
    }
}

/// One Adam update of a single scalar parameter.
///
/// Returns the new `(weight, m, v)` triple given gradient `g` and the
/// *pre-corrected* step size from [`AdamParams::corrected_lr`]. Kept as a
/// scalar primitive because SLIDE's updates are sparse and scattered — the
/// engine iterates over touched weights only.
#[inline(always)]
pub fn adam_step(
    weight: f32,
    m: f32,
    v: f32,
    g: f32,
    params: &AdamParams,
    corrected_lr: f32,
) -> (f32, f32, f32) {
    let m = params.beta1 * m + (1.0 - params.beta1) * g;
    let v = params.beta2 * v + (1.0 - params.beta2) * g * g;
    let w = weight - corrected_lr * m / (v.sqrt() + params.eps);
    (w, m, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MODES: [KernelMode; 2] = [KernelMode::Scalar, KernelMode::Vectorized];

    #[test]
    fn dot_known_values() {
        for mode in MODES {
            assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0], mode), 11.0);
            assert_eq!(dot(&[], &[], mode), 0.0);
        }
    }

    #[test]
    fn dot_modes_agree_on_long_vectors() {
        let a: Vec<f32> = (0..1003).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..1003).map(|i| (i as f32 * 0.11).cos()).collect();
        let s = dot(&a, &b, KernelMode::Scalar);
        let v = dot(&a, &b, KernelMode::Vectorized);
        assert!((s - v).abs() < 1e-2 * (1.0 + s.abs()), "{s} vs {v}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0], KernelMode::Scalar);
    }

    #[test]
    fn axpy_known_values() {
        for mode in MODES {
            let x = [1.0f32, 2.0, 3.0];
            let mut y = [10.0f32, 20.0, 30.0];
            axpy(2.0, &x, &mut y, mode);
            assert_eq!(y, [12.0, 24.0, 36.0]);
        }
    }

    #[test]
    fn axpy_modes_agree() {
        let x: Vec<f32> = (0..517).map(|i| (i as f32).sqrt()).collect();
        let mut y1: Vec<f32> = (0..517).map(|i| i as f32 * 0.1).collect();
        let mut y2 = y1.clone();
        axpy(-0.3, &x, &mut y1, KernelMode::Scalar);
        axpy(-0.3, &x, &mut y2, KernelMode::Vectorized);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        for mode in MODES {
            let mut x = [-1.0f32, 0.0, 2.5, -0.1];
            relu_in_place(&mut x, mode);
            assert_eq!(x, [0.0, 0.0, 2.5, 0.0]);
        }
    }

    #[test]
    fn softmax_sums_to_one_and_is_ordered() {
        let mut x = [1.0f32, 3.0, 2.0];
        softmax_in_place(&mut x, KernelMode::Vectorized);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(x[1] > x[2] && x[2] > x[0]);
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let mut x = [1000.0f32, 999.0, -1000.0];
        softmax_in_place(&mut x, KernelMode::Scalar);
        assert!(x.iter().all(|v| v.is_finite()));
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_uniform_on_equal_logits() {
        let mut x = [5.0f32; 4];
        softmax_in_place(&mut x, KernelMode::Vectorized);
        for v in x {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut x: [f32; 0] = [];
        softmax_in_place(&mut x, KernelMode::Scalar);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(w) = (w - 3)^2 with Adam; must approach w = 3.
        let params = AdamParams::with_lr(0.1);
        let (mut w, mut m, mut v) = (0.0f32, 0.0f32, 0.0f32);
        for t in 1..=2000u64 {
            let g = 2.0 * (w - 3.0);
            let clr = params.corrected_lr(t);
            (w, m, v) = adam_step(w, m, v, g, &params, clr);
        }
        assert!((w - 3.0).abs() < 0.05, "w = {w}");
    }

    #[test]
    fn adam_corrected_lr_approaches_lr() {
        let p = AdamParams::with_lr(0.01);
        // With the default betas, √(1−β₂)/(1−β₁) ≈ 0.316 at t = 1, so the
        // corrected step starts damped and converges up to lr.
        let first = p.corrected_lr(1);
        assert!((first - 0.01 * 0.316).abs() < 1e-4, "first {first}");
        assert!(first < p.corrected_lr(10_000));
        assert!((p.corrected_lr(1_000_000) - 0.01).abs() < 1e-4);
    }

    #[test]
    fn kernel_mode_parse() {
        assert_eq!(KernelMode::parse("scalar"), Some(KernelMode::Scalar));
        assert_eq!(KernelMode::parse("SIMD"), Some(KernelMode::Vectorized));
        assert_eq!(KernelMode::parse("avx"), None);
        assert_eq!(KernelMode::Vectorized.to_string(), "vectorized");
    }

    proptest! {
        #[test]
        fn prop_dot_modes_agree(
            v in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 0..200)
        ) {
            let (a, b): (Vec<f32>, Vec<f32>) = v.into_iter().unzip();
            let s = dot(&a, &b, KernelMode::Scalar);
            let x = dot(&a, &b, KernelMode::Vectorized);
            prop_assert!((s - x).abs() <= 1e-3 * (1.0 + s.abs()));
        }

        #[test]
        fn prop_softmax_is_distribution(
            mut x in proptest::collection::vec(-50.0f32..50.0, 1..100)
        ) {
            softmax_in_place(&mut x, KernelMode::Vectorized);
            let sum: f32 = x.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(x.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }

        #[test]
        fn prop_relu_idempotent(
            mut x in proptest::collection::vec(-10.0f32..10.0, 0..50)
        ) {
            relu_in_place(&mut x, KernelMode::Scalar);
            let once = x.clone();
            relu_in_place(&mut x, KernelMode::Vectorized);
            prop_assert_eq!(once, x);
        }
    }
}
