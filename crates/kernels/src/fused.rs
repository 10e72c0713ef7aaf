//! Fused slice-based kernels over HOGWILD parameter rows.
//!
//! The engine's hot path used to walk shared weights one element at a
//! time through bounds-checked flat-index accessors; these kernels take
//! whole rows instead and make one pass per row.
//!
//! # The bit-level HOGWILD slice protocol
//!
//! The kernels operate on `&[AtomicU32]` row slices whose cells follow
//! one convention:
//!
//! * every cell holds an `f32` bit pattern (`f32::to_bits`);
//! * a **scalar** access is a relaxed atomic load reinterpreted with
//!   `f32::from_bits` ([`read`]) or `f32::to_bits` stored relaxed
//!   ([`write()`]);
//! * no read-modify-write is atomic: concurrent updates to the same cell
//!   may lose one of them — the HOGWILD tolerance (paper §3.1) the
//!   storage layer documents;
//! * the **vectorized** kernels reinterpret the cells as plain `f32`
//!   data (each lane of a SIMD load/store is the same whole-word,
//!   4-byte-aligned machine access a relaxed atomic `mov` performs, so
//!   lanes never tear on any supported target). Racing lanes can drop an
//!   update exactly like racing scalar stores — the same tolerance, now
//!   eight lanes at a time. This mirrors the reference implementation's
//!   unsynchronized `float*` arithmetic, and shedding the per-element
//!   atomic ops is what lets the compiler (and the explicit AVX2/FMA
//!   paths below, dispatched at runtime) emit real SIMD: per-element
//!   atomic loads pin the loop to scalar code.
//!
//! `KernelMode::Scalar` is always the strict sequential loop over
//! per-element atomic accesses — the bit-reproducible reference that
//! `tests/equivalence.rs` pins.
//!
//! Four fused ops cover the training/inference hot loops:
//!
//! * [`gather_dot`] — `init + Σᵢ row[ids[i]]·vals[i]`, the per-neuron
//!   pre-activation for sparse inputs (forward pass, candidate scoring);
//! * [`axpy_row`] — `y += v · row`, one input's contribution to every
//!   neuron of an input-major layer (forward pass over sparse features);
//! * [`gather_dot_batch`] — one weight row scored against several
//!   examples that share an id list, loading each weight once per
//!   register block (batched serving);
//! * [`adam_step_gather`] — backward's per-`(neuron, prev-active)` loop
//!   fused into one pass: load `w/m/v` once per id, accumulate the
//!   back-propagated error signal through the pre-update weight, apply
//!   the Adam step, store once.
//!
//! All vectorized entry points validate every id against the row length
//! **before** touching memory (one auto-vectorizable integer pass that
//! also detects the dense-identity id list `0, 1, 2, …`, the common case
//! on hidden-to-output edges, which unlocks the contiguous SIMD paths).

use std::sync::atomic::{AtomicU32, Ordering};

use crate::ops::{adam_step, prefetch_read, AdamParams, KernelMode};

/// Reads one cell of a HOGWILD slice: relaxed load + `from_bits`.
#[inline(always)]
pub fn read(cell: &AtomicU32) -> f32 {
    f32::from_bits(cell.load(Ordering::Relaxed))
}

/// Writes one cell of a HOGWILD slice: `to_bits` + relaxed store.
#[inline(always)]
pub fn write(cell: &AtomicU32, value: f32) {
    cell.store(value.to_bits(), Ordering::Relaxed);
}

/// Validates that every id indexes below `limit` and reports whether the
/// id list is the dense identity `0, 1, …, ids.len()-1` (one pass,
/// auto-vectorizable integer reductions).
///
/// # Panics
///
/// Panics if any id is out of bounds.
#[inline]
fn validate_ids(ids: &[u32], limit: usize) -> bool {
    let n = ids.len();
    if n == 0 {
        return true;
    }
    // Cheap endpoint pre-test, then a branch-free xor-fold the compiler
    // vectorizes; a confirmed identity needs only the O(1) length check.
    if ids[0] == 0 && ids[n - 1] == (n - 1) as u32 {
        let mut acc = 0u32;
        for (i, &id) in ids.iter().enumerate() {
            acc |= id ^ i as u32;
        }
        if acc == 0 {
            assert!(n <= limit, "gather id out of bounds: {} >= {limit}", n - 1);
            return true;
        }
    }
    let mut max = 0u32;
    for &id in ids {
        max = max.max(id);
    }
    assert!(
        (max as usize) < limit,
        "gather id out of bounds: {max} >= {limit}"
    );
    false
}

/// The vectorized kernels' raw view of a row (see the module-level
/// protocol): the pointer is read and written with plain `f32` ops.
#[inline(always)]
fn raw(cells: &[AtomicU32]) -> *mut f32 {
    // AtomicU32 has interior mutability, so writing through a pointer
    // derived from a shared slice is permitted.
    cells.as_ptr() as *mut f32
}

#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn have_avx2_fma() -> bool {
    // `is_x86_feature_detected!` caches in an atomic; steady-state cost
    // is one relaxed load per call.
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Fused sparse dot against one parameter row:
/// `init + Σᵢ row[ids[i]] · vals[i]`.
///
/// `init` seeds the accumulator (the neuron's bias), so the `Scalar` mode
/// reproduces the strict sequential accumulation
/// `((init + w₀v₀) + w₁v₁) + …` bit-for-bit — the order
/// `tests/equivalence.rs` pins. `Vectorized` validates the ids up front,
/// then runs 8-lane blocks: contiguous FMA over dense-identity ids,
/// hardware `vgatherdps` (AVX2) or an unrolled raw gather otherwise;
/// for fewer than 8 ids it degrades to the sequential tail and agrees
/// with `Scalar` exactly.
///
/// Duplicate ids are fine (reads only).
///
/// # Panics
///
/// Panics if `ids` and `vals` lengths differ or an id indexes past the
/// row.
pub fn gather_dot(
    row: &[AtomicU32],
    ids: &[u32],
    vals: &[f32],
    init: f32,
    mode: KernelMode,
) -> f32 {
    assert_eq!(ids.len(), vals.len(), "gather_dot: length mismatch");
    match mode {
        KernelMode::Scalar => {
            let mut z = init;
            for (&id, &v) in ids.iter().zip(vals) {
                z += read(&row[id as usize]) * v;
            }
            z
        }
        KernelMode::Vectorized => {
            let identity = validate_ids(ids, row.len());
            let n = ids.len();
            let rp = raw(row) as *const f32;

            #[cfg(target_arch = "x86_64")]
            if n >= 16 && have_avx2_fma() {
                // SAFETY: ids validated above; AVX2+FMA presence checked.
                return init + unsafe { avx::gather_dot(rp, ids, vals, identity) };
            }

            // Portable fallback: 8 independent accumulators (ILP) over
            // the raw view, bounds already validated.
            let mut acc = [0.0f32; 8];
            let chunks = n / 8;
            if identity {
                for c in 0..chunks {
                    let i = c * 8;
                    for lane in 0..8 {
                        // SAFETY: identity ids => i + lane < n <= row.len().
                        acc[lane] += unsafe { *rp.add(i + lane) } * vals[i + lane];
                    }
                }
            } else {
                for c in 0..chunks {
                    let i = c * 8;
                    if i + 15 < n {
                        prefetch_read(rp.wrapping_add(ids[i + 8] as usize));
                        prefetch_read(rp.wrapping_add(ids[i + 15] as usize));
                    }
                    for lane in 0..8 {
                        // SAFETY: all ids validated against row.len().
                        acc[lane] += unsafe { *rp.add(ids[i + lane] as usize) } * vals[i + lane];
                    }
                }
            }
            let mut z = init + acc.iter().sum::<f32>();
            for i in chunks * 8..n {
                // SAFETY: ids validated against row.len().
                z += unsafe { *rp.add(ids[i] as usize) } * vals[i];
            }
            z
        }
    }
}

/// HOGWILD-row AXPY: `y[k] += alpha · row[k]` for every `k`.
///
/// The forward kernel of an input-major layer: `row` is one input's
/// weight on every neuron and `alpha` that input's value, so one call per
/// nonzero feature accumulates all pre-activations, each seeded with its
/// bias. Both modes multiply then add — never FMA — so every `y[k]` sees
/// the strict sequential `((b + w₀v₀) + w₁v₁) + …` that [`gather_dot`]'s
/// `Scalar` mode computes for a neuron-major row, bit for bit. `Scalar`
/// is the per-cell atomic loop; `Vectorized` runs 8-lane blocks over the
/// raw view (AVX when available), the same per-lane arithmetic.
///
/// # Panics
///
/// Panics if `row` and `y` lengths differ.
pub fn axpy_row(alpha: f32, row: &[AtomicU32], y: &mut [f32], mode: KernelMode) {
    assert_eq!(row.len(), y.len(), "axpy_row: length mismatch");
    match mode {
        KernelMode::Scalar => {
            for (yk, cell) in y.iter_mut().zip(row) {
                *yk += read(cell) * alpha;
            }
        }
        KernelMode::Vectorized => {
            let rp = raw(row) as *const f32;

            #[cfg(target_arch = "x86_64")]
            if have_avx2_fma() {
                // SAFETY: row and y have equal lengths; AVX presence
                // checked (the block uses no FMA).
                unsafe { avx::axpy_row(alpha, rp, y) };
                return;
            }

            let n = y.len();
            let chunks = n / 8;
            for c in 0..chunks {
                let i = c * 8;
                for lane in 0..8 {
                    // SAFETY: i + lane < n == row.len().
                    y[i + lane] += unsafe { *rp.add(i + lane) } * alpha;
                }
            }
            for (i, yk) in y.iter_mut().enumerate().skip(chunks * 8) {
                // SAFETY: i < n == row.len().
                *yk += unsafe { *rp.add(i) } * alpha;
            }
        }
    }
}

/// Scores **one** parameter row against several examples that share an id
/// list: `out[e] = init + Σᵢ row[ids[i]] · vals[e·ids.len() + i]`.
///
/// `vals` is example-major: example `e`'s values for `ids` occupy
/// `vals[e * ids.len() .. (e + 1) * ids.len()]`. This is the batched
/// serving kernel — with `B` queued requests, a candidate neuron's row is
/// loaded once per register block and reused across examples instead of
/// re-gathered `B` times.
///
/// `Scalar` runs [`gather_dot`] per example (the reference); `Vectorized`
/// blocks examples four at a time over shared row loads.
///
/// # Panics
///
/// Panics if `vals.len() != ids.len() * out.len()` or an id indexes past
/// the row.
pub fn gather_dot_batch(
    row: &[AtomicU32],
    ids: &[u32],
    vals: &[f32],
    init: f32,
    out: &mut [f32],
    mode: KernelMode,
) {
    assert_eq!(
        vals.len(),
        ids.len() * out.len(),
        "gather_dot_batch: vals must hold ids.len() values per example"
    );
    let n = ids.len();
    match mode {
        KernelMode::Scalar => {
            for (e, o) in out.iter_mut().enumerate() {
                *o = gather_dot(
                    row,
                    ids,
                    &vals[e * n..(e + 1) * n],
                    init,
                    KernelMode::Scalar,
                );
            }
        }
        KernelMode::Vectorized => {
            let identity = validate_ids(ids, row.len());
            let rp = raw(row) as *const f32;

            #[cfg(target_arch = "x86_64")]
            if identity && n >= 16 && have_avx2_fma() {
                // SAFETY: identity ids validated; AVX2+FMA checked.
                unsafe { avx::dot_batch(rp, n, vals, init, out) };
                return;
            }

            for o in out.iter_mut() {
                *o = init;
            }
            let chunks = n / 4;
            for c in 0..chunks {
                let i = c * 4;
                // SAFETY: ids validated against row.len().
                let w = unsafe {
                    [
                        *rp.add(ids[i] as usize),
                        *rp.add(ids[i + 1] as usize),
                        *rp.add(ids[i + 2] as usize),
                        *rp.add(ids[i + 3] as usize),
                    ]
                };
                for (e, o) in out.iter_mut().enumerate() {
                    let ex = &vals[e * n + i..e * n + i + 4];
                    *o += w[0] * ex[0] + w[1] * ex[1] + w[2] * ex[2] + w[3] * ex[3];
                }
            }
            for i in chunks * 4..n {
                // SAFETY: ids validated against row.len().
                let w = unsafe { *rp.add(ids[i] as usize) };
                for (e, o) in out.iter_mut().enumerate() {
                    *o += w * vals[e * n + i];
                }
            }
        }
    }
}

/// Fused HOGWILD Adam update of one neuron's row over the prev-active
/// ids, replacing backward's per-pair accessor loop with a single sweep.
///
/// For each `i`, with `idx = ids[i]`:
///
/// 1. load the **pre-update** weight `w[idx]` once;
/// 2. if `prev_delta` is given, accumulate the back-propagated error
///    signal `prev_delta[i] += delta · w_old` (the message the previous
///    layer receives, computed through the weight *before* this step);
/// 3. apply one Adam step with gradient `g = delta · vals[i]` to
///    `(w[idx], m[idx], v[idx])` and store each exactly once.
///
/// `Scalar` is the strict sequential loop (bit-identical to the old
/// per-pair `update_weight` path single-threaded). `Vectorized` uses the
/// same per-element arithmetic — on dense-identity ids as 8-lane AVX2
/// blocks whose `mul/add/sqrt/div` sequence mirrors the scalar ops
/// exactly, otherwise as an unrolled gather — so for **unique** ids the
/// two modes agree bit-for-bit. A duplicated id inside one unrolled block
/// may read a stale weight in `Vectorized` mode — the same lost-update
/// tolerance HOGWILD already grants concurrent threads. The engine's id
/// lists (active sets, sparse-feature indices) are unique by
/// construction.
///
/// # Panics
///
/// Panics if `ids`/`vals` (and `prev_delta` when given) lengths differ or
/// an id indexes past the row slices.
#[allow(clippy::too_many_arguments)]
pub fn adam_step_gather(
    w: &[AtomicU32],
    m: &[AtomicU32],
    v: &[AtomicU32],
    ids: &[u32],
    vals: &[f32],
    delta: f32,
    mut prev_delta: Option<&mut [f32]>,
    adam: &AdamParams,
    clr: f32,
    mode: KernelMode,
) {
    assert_eq!(ids.len(), vals.len(), "adam_step_gather: length mismatch");
    if let Some(pd) = prev_delta.as_deref() {
        assert_eq!(
            pd.len(),
            ids.len(),
            "adam_step_gather: prev_delta length mismatch"
        );
    }
    match mode {
        KernelMode::Scalar => {
            for (i, (&id, &val)) in ids.iter().zip(vals).enumerate() {
                let idx = id as usize;
                let w_old = read(&w[idx]);
                if let Some(pd) = prev_delta.as_deref_mut() {
                    pd[i] += delta * w_old;
                }
                let (w2, m2, v2) =
                    adam_step(w_old, read(&m[idx]), read(&v[idx]), delta * val, adam, clr);
                write(&w[idx], w2);
                write(&m[idx], m2);
                write(&v[idx], v2);
            }
        }
        KernelMode::Vectorized => {
            let limit = w.len().min(m.len()).min(v.len());
            let identity = validate_ids(ids, limit);
            let n = ids.len();
            let (wp, mp, vp) = (raw(w), raw(m), raw(v));

            #[cfg(target_arch = "x86_64")]
            if identity && n >= 8 && have_avx2_fma() {
                // SAFETY: identity ids validated against all three rows;
                // AVX2 presence checked (the block uses no FMA so its
                // arithmetic matches Scalar bit-for-bit).
                unsafe {
                    avx::adam_contiguous(wp, mp, vp, vals, delta, prev_delta, adam, clr);
                }
                return;
            }
            let _ = identity;

            let chunks = n / 4;
            for c in 0..chunks {
                let i = c * 4;
                if i + 4 < n {
                    let nid = ids[i + 4] as usize;
                    prefetch_read(wp.wrapping_add(nid));
                    prefetch_read(mp.wrapping_add(nid));
                    prefetch_read(vp.wrapping_add(nid));
                }
                let idx = [
                    ids[i] as usize,
                    ids[i + 1] as usize,
                    ids[i + 2] as usize,
                    ids[i + 3] as usize,
                ];
                // Batch the weight loads so the error-signal accumulation
                // and the Adam math run on independent registers.
                // SAFETY: ids validated against every row's length.
                let w_old = unsafe {
                    [
                        *wp.add(idx[0]),
                        *wp.add(idx[1]),
                        *wp.add(idx[2]),
                        *wp.add(idx[3]),
                    ]
                };
                if let Some(pd) = prev_delta.as_deref_mut() {
                    for lane in 0..4 {
                        pd[i + lane] += delta * w_old[lane];
                    }
                }
                for lane in 0..4 {
                    let j = idx[lane];
                    // SAFETY: ids validated against every row's length.
                    unsafe {
                        let (w2, m2, v2) = adam_step(
                            w_old[lane],
                            *mp.add(j),
                            *vp.add(j),
                            delta * vals[i + lane],
                            adam,
                            clr,
                        );
                        *wp.add(j) = w2;
                        *mp.add(j) = m2;
                        *vp.add(j) = v2;
                    }
                }
            }
            for i in chunks * 4..n {
                let idx = ids[i] as usize;
                // SAFETY: ids validated against every row's length.
                unsafe {
                    let w_old = *wp.add(idx);
                    if let Some(pd) = prev_delta.as_deref_mut() {
                        pd[i] += delta * w_old;
                    }
                    let (w2, m2, v2) = adam_step(
                        w_old,
                        *mp.add(idx),
                        *vp.add(idx),
                        delta * vals[i],
                        adam,
                        clr,
                    );
                    *wp.add(idx) = w2;
                    *mp.add(idx) = m2;
                    *vp.add(idx) = v2;
                }
            }
        }
    }
}

/// Runtime-dispatched AVX2/FMA implementations (x86-64 only) — the
/// stand-in for the paper's hand-written Intel AVX kernels (§5.4,
/// Appendix D). Callers check `have_avx2_fma()` and validate ids first.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::*;

    use crate::ops::AdamParams;

    /// Horizontal sum of a 256-bit accumulator.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (register-only shuffles, touches no memory).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(acc: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(acc, 1);
        let lo = _mm256_castps256_ps128(acc);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
        _mm_cvtss_f32(s)
    }

    /// `Σᵢ row[ids[i]]·vals[i]` — contiguous FMA when `identity`,
    /// hardware gather otherwise.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; every id must index below the row length;
    /// `ids.len() == vals.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gather_dot(rp: *const f32, ids: &[u32], vals: &[f32], identity: bool) -> f32 {
        let n = ids.len();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let chunks = n / 16;
        if identity {
            for c in 0..chunks {
                let i = c * 16;
                acc0 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(rp.add(i)),
                    _mm256_loadu_ps(vals.as_ptr().add(i)),
                    acc0,
                );
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(rp.add(i + 8)),
                    _mm256_loadu_ps(vals.as_ptr().add(i + 8)),
                    acc1,
                );
            }
        } else {
            for c in 0..chunks {
                let i = c * 16;
                let idx0 = _mm256_loadu_si256(ids.as_ptr().add(i) as *const __m256i);
                let idx1 = _mm256_loadu_si256(ids.as_ptr().add(i + 8) as *const __m256i);
                acc0 = _mm256_fmadd_ps(
                    _mm256_i32gather_ps::<4>(rp, idx0),
                    _mm256_loadu_ps(vals.as_ptr().add(i)),
                    acc0,
                );
                acc1 = _mm256_fmadd_ps(
                    _mm256_i32gather_ps::<4>(rp, idx1),
                    _mm256_loadu_ps(vals.as_ptr().add(i + 8)),
                    acc1,
                );
            }
        }
        let mut z = hsum(_mm256_add_ps(acc0, acc1));
        for i in chunks * 16..n {
            z += *rp.add(ids[i] as usize) * vals[i];
        }
        z
    }

    /// `y += alpha · row` in 8-lane mul-then-add blocks.
    ///
    /// # Safety
    ///
    /// Requires AVX; `rp` must point at `y.len()` valid elements.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_row(alpha: f32, rp: *const f32, y: &mut [f32]) {
        let n = y.len();
        let a = _mm256_set1_ps(alpha);
        let yp = y.as_mut_ptr();
        let chunks = n / 8;
        for c in 0..chunks {
            let i = c * 8;
            let prod = _mm256_mul_ps(_mm256_loadu_ps(rp.add(i)), a);
            _mm256_storeu_ps(yp.add(i), _mm256_add_ps(_mm256_loadu_ps(yp.add(i)), prod));
        }
        for i in chunks * 8..n {
            *yp.add(i) += *rp.add(i) * alpha;
        }
    }

    /// One contiguous row against `out.len()` examples (example-major
    /// `vals`), examples blocked four at a time over shared row loads.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; the row must hold at least `n` elements;
    /// `vals.len() == n * out.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_batch(rp: *const f32, n: usize, vals: &[f32], init: f32, out: &mut [f32]) {
        let b = out.len();
        let chunks = n / 8;
        let mut e = 0;
        while e + 4 <= b {
            let mut acc = [_mm256_setzero_ps(); 4];
            let base = [e * n, (e + 1) * n, (e + 2) * n, (e + 3) * n];
            for c in 0..chunks {
                let i = c * 8;
                let w8 = _mm256_loadu_ps(rp.add(i));
                for k in 0..4 {
                    acc[k] = _mm256_fmadd_ps(
                        w8,
                        _mm256_loadu_ps(vals.as_ptr().add(base[k] + i)),
                        acc[k],
                    );
                }
            }
            for k in 0..4 {
                let mut z = init + hsum(acc[k]);
                for i in chunks * 8..n {
                    z += *rp.add(i) * vals[base[k] + i];
                }
                out[e + k] = z;
            }
            e += 4;
        }
        while e < b {
            let mut acc = _mm256_setzero_ps();
            let base = e * n;
            for c in 0..chunks {
                let i = c * 8;
                acc = _mm256_fmadd_ps(
                    _mm256_loadu_ps(rp.add(i)),
                    _mm256_loadu_ps(vals.as_ptr().add(base + i)),
                    acc,
                );
            }
            let mut z = init + hsum(acc);
            for i in chunks * 8..n {
                z += *rp.add(i) * vals[base + i];
            }
            out[e] = z;
            e += 1;
        }
    }

    /// Contiguous fused Adam sweep over `vals.len()` elements starting at
    /// the row heads. Uses `mul/add/sqrt/div` (no FMA) in exactly the
    /// scalar `adam_step` operation order, so each lane is bit-identical
    /// to the Scalar path.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `wp/mp/vp` must each point at `vals.len()` valid
    /// elements; `prev_delta`, when given, has `vals.len()` elements.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn adam_contiguous(
        wp: *mut f32,
        mp: *mut f32,
        vp: *mut f32,
        vals: &[f32],
        delta: f32,
        mut prev_delta: Option<&mut [f32]>,
        adam: &AdamParams,
        clr: f32,
    ) {
        let n = vals.len();
        let b1 = _mm256_set1_ps(adam.beta1);
        let c1 = _mm256_set1_ps(1.0 - adam.beta1);
        let b2 = _mm256_set1_ps(adam.beta2);
        let c2 = _mm256_set1_ps(1.0 - adam.beta2);
        let eps = _mm256_set1_ps(adam.eps);
        let lr = _mm256_set1_ps(clr);
        let dv = _mm256_set1_ps(delta);
        let chunks = n / 8;
        for c in 0..chunks {
            let i = c * 8;
            let w_old = _mm256_loadu_ps(wp.add(i));
            if let Some(pd) = prev_delta.as_deref_mut() {
                let p = pd.as_mut_ptr().add(i);
                _mm256_storeu_ps(
                    p,
                    _mm256_add_ps(_mm256_loadu_ps(p), _mm256_mul_ps(dv, w_old)),
                );
            }
            // g = delta * val;  m = β₁m + (1−β₁)g;  v = β₂v + ((1−β₂)g)g;
            // w = w_old − clr·m / (√v + ε)  — the scalar op order.
            let g = _mm256_mul_ps(dv, _mm256_loadu_ps(vals.as_ptr().add(i)));
            let m2 = _mm256_add_ps(
                _mm256_mul_ps(b1, _mm256_loadu_ps(mp.add(i))),
                _mm256_mul_ps(c1, g),
            );
            let v2 = _mm256_add_ps(
                _mm256_mul_ps(b2, _mm256_loadu_ps(vp.add(i))),
                _mm256_mul_ps(_mm256_mul_ps(c2, g), g),
            );
            let den = _mm256_add_ps(_mm256_sqrt_ps(v2), eps);
            let w2 = _mm256_sub_ps(w_old, _mm256_div_ps(_mm256_mul_ps(lr, m2), den));
            _mm256_storeu_ps(wp.add(i), w2);
            _mm256_storeu_ps(mp.add(i), m2);
            _mm256_storeu_ps(vp.add(i), v2);
        }
        for i in chunks * 8..n {
            let w_old = *wp.add(i);
            if let Some(pd) = prev_delta.as_deref_mut() {
                pd[i] += delta * w_old;
            }
            let (w2, m2, v2) =
                crate::ops::adam_step(w_old, *mp.add(i), *vp.add(i), delta * vals[i], adam, clr);
            *wp.add(i) = w2;
            *mp.add(i) = m2;
            *vp.add(i) = v2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn atomic_row(values: &[f32]) -> Vec<AtomicU32> {
        values.iter().map(|v| AtomicU32::new(v.to_bits())).collect()
    }

    fn row_values(row: &[AtomicU32]) -> Vec<f32> {
        row.iter().map(read).collect()
    }

    /// Pseudo-random but deterministic test data.
    fn wave(n: usize, f: f32, scale: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * f).sin() * scale).collect()
    }

    #[test]
    fn read_write_round_trip() {
        let cell = AtomicU32::new(0);
        write(&cell, -3.25);
        assert_eq!(read(&cell), -3.25);
    }

    #[test]
    fn gather_dot_known_values() {
        let row = atomic_row(&[1.0, 2.0, 3.0, 4.0]);
        let ids = [3u32, 0];
        let vals = [10.0f32, 100.0];
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            assert_eq!(gather_dot(&row, &ids, &vals, 0.5, mode), 0.5 + 40.0 + 100.0);
        }
    }

    #[test]
    fn gather_dot_exact_agreement_on_short_ascending_ids() {
        // Fewer than 8 ids: the vectorized kernel takes the sequential
        // tail, so the summation order matches Scalar exactly.
        let row = atomic_row(&wave(32, 0.7, 2.0));
        let ids: Vec<u32> = (0..7).map(|i| i * 4).collect();
        let vals = wave(7, 0.3, 1.5);
        let s = gather_dot(&row, &ids, &vals, 0.125, KernelMode::Scalar);
        let v = gather_dot(&row, &ids, &vals, 0.125, KernelMode::Vectorized);
        assert_eq!(s.to_bits(), v.to_bits());
    }

    #[test]
    fn gather_dot_dense_identity_agrees_with_scalar() {
        // The contiguous SIMD path (dense-identity ids, n >= 16).
        let row = atomic_row(&wave(200, 0.61, 1.5));
        let ids: Vec<u32> = (0..200u32).collect();
        let vals = wave(200, 0.23, 1.0);
        let s = gather_dot(&row, &ids, &vals, 0.5, KernelMode::Scalar);
        let v = gather_dot(&row, &ids, &vals, 0.5, KernelMode::Vectorized);
        assert!((s - v).abs() <= 1e-4 * (1.0 + s.abs()), "{s} vs {v}");
    }

    #[test]
    fn axpy_row_known_values() {
        let row = atomic_row(&[1.0, -2.0, 0.5]);
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            let mut y = vec![10.0f32, 20.0, 30.0];
            axpy_row(2.0, &row, &mut y, mode);
            assert_eq!(y, vec![12.0, 16.0, 31.0], "mode {mode}");
        }
    }

    #[test]
    fn axpy_rows_reproduce_scalar_gather_dot_per_neuron() {
        // An input-major layer's forward (one axpy_row per feature) must
        // give each neuron exactly the Scalar gather_dot over its
        // neuron-major row: same products, same summation order.
        let (units, fan_in) = (21, 40);
        let w = wave(units * fan_in, 0.37, 1.3); // neuron-major
        let ids: Vec<u32> = vec![3, 7, 8, 19, 22, 30, 31, 39];
        let vals = wave(ids.len(), 0.71, 2.0);
        let bias = wave(units, 0.53, 0.4);
        let input_rows: Vec<Vec<AtomicU32>> = (0..fan_in)
            .map(|i| atomic_row(&(0..units).map(|j| w[j * fan_in + i]).collect::<Vec<_>>()))
            .collect();
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            let mut z = bias.clone();
            for (&id, &v) in ids.iter().zip(&vals) {
                axpy_row(v, &input_rows[id as usize], &mut z, mode);
            }
            for j in 0..units {
                let row = atomic_row(&w[j * fan_in..(j + 1) * fan_in]);
                let expect = gather_dot(&row, &ids, &vals, bias[j], KernelMode::Scalar);
                assert_eq!(z[j].to_bits(), expect.to_bits(), "mode {mode}, neuron {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "axpy_row: length mismatch")]
    fn axpy_row_validates_lengths() {
        let row = atomic_row(&[1.0, 2.0]);
        axpy_row(1.0, &row, &mut [0.0], KernelMode::Vectorized);
    }

    #[test]
    fn gather_dot_batch_matches_per_example() {
        let row = atomic_row(&wave(64, 0.9, 1.0));
        let ids: Vec<u32> = (0..64u32).collect();
        let examples = 5;
        let vals = wave(64 * examples, 0.21, 1.0);
        let mut out = vec![0.0f32; examples];
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            gather_dot_batch(&row, &ids, &vals, -0.25, &mut out, mode);
            for (e, &o) in out.iter().enumerate() {
                let single = gather_dot(
                    &row,
                    &ids,
                    &vals[e * 64..(e + 1) * 64],
                    -0.25,
                    KernelMode::Scalar,
                );
                assert!(
                    (o - single).abs() <= 1e-4 * (1.0 + single.abs()),
                    "mode {mode}, example {e}: {o} vs {single}"
                );
            }
        }
    }

    #[test]
    fn gather_dot_batch_scattered_ids_match_too() {
        // Non-identity ids take the portable 4-at-a-time path.
        let row = atomic_row(&wave(50, 0.33, 2.0));
        let ids: Vec<u32> = (0..30u32).map(|i| (i * 7) % 50).collect();
        let examples = 3;
        let vals = wave(30 * examples, 0.19, 1.0);
        let mut s_out = vec![0.0f32; examples];
        let mut v_out = vec![0.0f32; examples];
        gather_dot_batch(&row, &ids, &vals, 1.0, &mut s_out, KernelMode::Scalar);
        gather_dot_batch(&row, &ids, &vals, 1.0, &mut v_out, KernelMode::Vectorized);
        for (s, v) in s_out.iter().zip(&v_out) {
            assert!((s - v).abs() <= 1e-4 * (1.0 + s.abs()));
        }
    }

    #[test]
    fn gather_dot_batch_empty_ids_yields_init() {
        let row = atomic_row(&[1.0]);
        let mut out = vec![9.0f32; 3];
        gather_dot_batch(&row, &[], &[], 0.75, &mut out, KernelMode::Vectorized);
        assert_eq!(out, vec![0.75; 3]);
    }

    #[test]
    fn adam_step_gather_matches_sequential_reference() {
        let adam = AdamParams::with_lr(0.01);
        let clr = adam.corrected_lr(3);
        let fan_in = 37;
        let ids: Vec<u32> = (0..fan_in as u32).rev().collect(); // unique, descending
        let vals = wave(fan_in, 0.51, 2.0);
        let delta = 0.7f32;

        let run = |mode: KernelMode| {
            let w = atomic_row(&wave(fan_in, 0.13, 1.0));
            let m = atomic_row(&wave(fan_in, 0.29, 0.1));
            let v = atomic_row(
                &wave(fan_in, 0.37, 0.01)
                    .iter()
                    .map(|x| x * x)
                    .collect::<Vec<_>>(),
            );
            let mut pd = vec![0.5f32; fan_in];
            adam_step_gather(
                &w,
                &m,
                &v,
                &ids,
                &vals,
                delta,
                Some(&mut pd),
                &adam,
                clr,
                mode,
            );
            (row_values(&w), row_values(&m), row_values(&v), pd)
        };
        let (ws, ms, vs, pds) = run(KernelMode::Scalar);
        let (wv, mv, vv, pdv) = run(KernelMode::Vectorized);
        // Unique ids + identical per-element arithmetic: exact agreement.
        for i in 0..fan_in {
            assert_eq!(ws[i].to_bits(), wv[i].to_bits(), "w[{i}]");
            assert_eq!(ms[i].to_bits(), mv[i].to_bits(), "m[{i}]");
            assert_eq!(vs[i].to_bits(), vv[i].to_bits(), "v[{i}]");
            assert_eq!(pds[i].to_bits(), pdv[i].to_bits(), "prev_delta[{i}]");
        }
    }

    #[test]
    fn adam_step_gather_identity_simd_block_is_bit_exact() {
        // Dense-identity ids, n >= 8: the AVX block (when available) must
        // still match Scalar bit-for-bit — it uses the same op sequence.
        let adam = AdamParams::default();
        let clr = adam.corrected_lr(12);
        let n = 61; // 7 full 8-lane blocks + remainder
        let ids: Vec<u32> = (0..n as u32).collect();
        let vals = wave(n, 0.47, 1.7);
        let run = |mode: KernelMode| {
            let w = atomic_row(&wave(n, 0.11, 1.0));
            let m = atomic_row(&wave(n, 0.31, 0.2));
            let v = atomic_row(&vec![0.003f32; n]);
            let mut pd = vec![0.25f32; n];
            adam_step_gather(
                &w,
                &m,
                &v,
                &ids,
                &vals,
                -0.9,
                Some(&mut pd),
                &adam,
                clr,
                mode,
            );
            (row_values(&w), row_values(&m), row_values(&v), pd)
        };
        let (ws, ms, vs, pds) = run(KernelMode::Scalar);
        let (wv, mv, vv, pdv) = run(KernelMode::Vectorized);
        for i in 0..n {
            assert_eq!(ws[i].to_bits(), wv[i].to_bits(), "w[{i}]");
            assert_eq!(ms[i].to_bits(), mv[i].to_bits(), "m[{i}]");
            assert_eq!(vs[i].to_bits(), vv[i].to_bits(), "v[{i}]");
            assert_eq!(pds[i].to_bits(), pdv[i].to_bits(), "prev_delta[{i}]");
        }
    }

    #[test]
    fn adam_step_gather_without_prev_delta() {
        let adam = AdamParams::default();
        let clr = adam.corrected_lr(1);
        let w = atomic_row(&[1.0, 2.0]);
        let m = atomic_row(&[0.0, 0.0]);
        let v = atomic_row(&[0.0, 0.0]);
        adam_step_gather(
            &w,
            &m,
            &v,
            &[0, 1],
            &[1.0, -1.0],
            0.5,
            None,
            &adam,
            clr,
            KernelMode::Vectorized,
        );
        // Positive gradient moves the weight down, negative up.
        assert!(read(&w[0]) < 1.0);
        assert!(read(&w[1]) > 2.0);
        assert!(read(&m[0]) > 0.0 && read(&v[0]) > 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn gather_dot_validates_lengths() {
        let row = atomic_row(&[1.0]);
        let _ = gather_dot(&row, &[0, 0], &[1.0], 0.0, KernelMode::Scalar);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn vectorized_gather_validates_ids_before_touching_memory() {
        let row = atomic_row(&[1.0, 2.0]);
        let _ = gather_dot(&row, &[0, 5], &[1.0, 1.0], 0.0, KernelMode::Vectorized);
    }

    proptest! {
        #[test]
        fn prop_gather_dot_modes_agree(
            pairs in proptest::collection::vec((0u32..64, -4.0f32..4.0), 0..120),
            init in -2.0f32..2.0
        ) {
            let row = atomic_row(&wave(64, 0.77, 3.0));
            let (ids, vals): (Vec<u32>, Vec<f32>) = pairs.into_iter().unzip();
            let s = gather_dot(&row, &ids, &vals, init, KernelMode::Scalar);
            let v = gather_dot(&row, &ids, &vals, init, KernelMode::Vectorized);
            prop_assert!((s - v).abs() <= 1e-5 * (1.0 + s.abs()) * ids.len().max(1) as f32,
                "scalar {s} vs vectorized {v}");
        }

        #[test]
        fn prop_axpy_row_modes_agree_bit_for_bit(
            pairs in proptest::collection::vec((-4.0f32..4.0, -4.0f32..4.0), 0..140),
            alpha in -3.0f32..3.0
        ) {
            let (cells, y0): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
            let row = atomic_row(&cells);
            let mut ys = y0.clone();
            let mut yv = y0;
            axpy_row(alpha, &row, &mut ys, KernelMode::Scalar);
            axpy_row(alpha, &row, &mut yv, KernelMode::Vectorized);
            for k in 0..ys.len() {
                prop_assert!(ys[k].to_bits() == yv[k].to_bits(), "y[{}]: {} vs {}", k, ys[k], yv[k]);
            }
        }

        #[test]
        fn prop_adam_step_gather_modes_agree(
            raw_ids in proptest::collection::vec(0u32..96, 1..80),
            delta in -2.0f32..2.0,
            step in 1u64..200
        ) {
            // Unique ids (the engine's id lists never repeat).
            let mut ids = raw_ids;
            ids.sort_unstable();
            ids.dedup();
            let vals = wave(ids.len(), 0.43, 2.0);
            let adam = AdamParams::default();
            let clr = adam.corrected_lr(step);
            let run = |mode: KernelMode| {
                let w = atomic_row(&wave(96, 0.17, 1.0));
                let m = atomic_row(&wave(96, 0.23, 0.1));
                let v = atomic_row(&vec![0.01f32; 96]);
                let mut pd = vec![0.0f32; ids.len()];
                adam_step_gather(&w, &m, &v, &ids, &vals, delta, Some(&mut pd), &adam, clr, mode);
                (row_values(&w), pd)
            };
            let (ws, pds) = run(KernelMode::Scalar);
            let (wv, pdv) = run(KernelMode::Vectorized);
            for i in 0..96 {
                prop_assert!((ws[i] - wv[i]).abs() <= 1e-5 * (1.0 + ws[i].abs()), "w[{}]", i);
            }
            for i in 0..ids.len() {
                prop_assert!((pds[i] - pdv[i]).abs() <= 1e-5 * (1.0 + pds[i].abs()), "pd[{}]", i);
            }
        }
    }
}
