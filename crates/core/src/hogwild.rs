//! Lock-free shared parameter storage for HOGWILD-style SGD.
//!
//! The paper (§3.1) relies on Recht et al.'s HOGWILD result: with very
//! sparse gradients, threads may update shared weights *without any
//! synchronization* — occasional lost updates are statistically harmless
//! and convergence is unaffected. In C++ this is a plain `float*` racing
//! across OpenMP threads. In Rust, unsynchronized aliased writes are
//! undefined behaviour, so we get the same machine behaviour soundly with
//! **relaxed atomics**: a relaxed `AtomicU32` load/store of an `f32` bit
//! pattern compiles to the very same `mov` instructions as the C++ race,
//! with defined semantics.
//!
//! [`HogwildArray::add_racy`] is the paper's update: read-modify-write as
//! two independent atomic ops, so concurrent adds may drop one update
//! (exactly the HOGWILD tolerance). [`HogwildArray::add_cas`] is the
//! strict alternative (a compare-exchange loop) used as the ablation
//! baseline in the `hogwild_accumulate` bench.

use std::sync::atomic::{AtomicU32, Ordering};

/// A shared array of `f32` supporting lock-free concurrent reads and
/// writes with relaxed ordering.
///
/// # Example
///
/// ```
/// use slide_core::hogwild::HogwildArray;
///
/// let a = HogwildArray::zeroed(4);
/// a.set(2, 1.5);
/// a.add_racy(2, 0.5);
/// assert_eq!(a.get(2), 2.0);
/// ```
#[derive(Debug)]
pub struct HogwildArray {
    data: Vec<AtomicU32>,
}

impl HogwildArray {
    /// Allocates `len` zeros.
    pub fn zeroed(len: usize) -> Self {
        let mut data = Vec::with_capacity(len);
        data.resize_with(len, || AtomicU32::new(0));
        Self { data }
    }

    /// Builds from existing values.
    pub fn from_values(values: &[f32]) -> Self {
        Self {
            data: values.iter().map(|v| AtomicU32::new(v.to_bits())).collect(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Relaxed load of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> f32 {
        f32::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Relaxed store of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&self, i: usize, value: f32) {
        self.data[i].store(value.to_bits(), Ordering::Relaxed);
    }

    /// HOGWILD add: `a[i] += delta` as a racy load-then-store. Concurrent
    /// adds to the same element may lose one of the updates — the
    /// documented HOGWILD semantics the paper depends on.
    #[inline]
    pub fn add_racy(&self, i: usize, delta: f32) {
        let cell = &self.data[i];
        let old = f32::from_bits(cell.load(Ordering::Relaxed));
        cell.store((old + delta).to_bits(), Ordering::Relaxed);
    }

    /// Lossless concurrent add via a compare-exchange loop. Slower under
    /// contention; the ablation comparator for [`HogwildArray::add_racy`].
    #[inline]
    pub fn add_cas(&self, i: usize, delta: f32) {
        let cell = &self.data[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + delta).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The backing atomic cells as a slice, for handing whole parameter
    /// ranges to the fused kernels in `slide_kernels::fused`.
    ///
    /// The cells follow the **bit-level HOGWILD slice protocol** those
    /// kernels document: every cell holds an `f32` bit pattern, read with
    /// a relaxed load + `f32::from_bits` ([`slide_kernels::fused::read`])
    /// and written with `f32::to_bits` + a relaxed store
    /// ([`slide_kernels::fused::write`]). No read-modify-write is atomic,
    /// so concurrent updates may lose one — the documented HOGWILD
    /// tolerance.
    #[inline]
    pub fn as_atomics(&self) -> &[AtomicU32] {
        &self.data
    }

    /// The cells of `[start, start + len)` as a slice (see
    /// [`HogwildArray::as_atomics`] for the access protocol).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub fn atomic_slice(&self, start: usize, len: usize) -> &[AtomicU32] {
        &self.data[start..start + len]
    }

    /// Prefetches the cache line holding element `i` (hint only).
    #[inline]
    pub fn prefetch(&self, i: usize) {
        if i < self.data.len() {
            slide_kernels::ops::prefetch_read(self.data.as_ptr().wrapping_add(i));
        }
    }

    /// Copies element range `[start, start + out.len())` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_into(&self, start: usize, out: &mut [f32]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.get(start + j);
        }
    }

    /// Snapshot of the whole array.
    pub fn to_vec(&self) -> Vec<f32> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Overwrites all elements from a slice.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn copy_from(&self, values: &[f32]) {
        assert_eq!(values.len(), self.len(), "length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self.set(i, v);
        }
    }
}

impl Clone for HogwildArray {
    fn clone(&self) -> Self {
        Self::from_values(&self.to_vec())
    }
}

/// Which index of a [`HogwildMatrix`] is contiguous in memory.
///
/// The logical shape is always `rows × cols` = neurons × fan-in, and
/// every accessor takes `(neuron, input)`; the order only decides which
/// slices the fused kernels can take whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageOrder {
    /// One neuron's fan-in weights are contiguous (`rows × cols`): the
    /// unit LSH hashing and per-neuron sparse dots consume.
    NeuronMajor,
    /// One input's fan-out weights — every neuron's weight on that input
    /// — are contiguous (`cols × rows`): a sparse input then touches one
    /// short row per nonzero feature instead of one cache line per
    /// neuron per feature.
    InputMajor,
}

/// A 2-D view over a [`HogwildArray`]: `rows × cols` weights where row
/// `r` is one neuron's fan-in weight vector, stored in either
/// [`StorageOrder`].
#[derive(Debug, Clone)]
pub struct HogwildMatrix {
    data: HogwildArray,
    rows: usize,
    cols: usize,
    order: StorageOrder,
}

impl HogwildMatrix {
    /// Allocates a zeroed neuron-major matrix.
    pub fn zeroed(rows: usize, cols: usize) -> Self {
        Self::zeroed_in(StorageOrder::NeuronMajor, rows, cols)
    }

    /// Allocates a zeroed matrix stored in `order`.
    pub fn zeroed_in(order: StorageOrder, rows: usize, cols: usize) -> Self {
        Self {
            data: HogwildArray::zeroed(rows * cols),
            rows,
            cols,
            order,
        }
    }

    /// Builds a neuron-major matrix from a row-major value slice.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols`.
    pub fn from_values(rows: usize, cols: usize, values: &[f32]) -> Self {
        Self::from_values_in(StorageOrder::NeuronMajor, rows, cols, values)
    }

    /// Builds a matrix stored in `order` from a **row-major** (neuron-major)
    /// value slice, transposing it when `order` is input-major.
    ///
    /// The transposes here walk the input-major side in memory order, one
    /// input's fan-out at a time, so that side streams while the
    /// neuron-major side keeps one cache line per neuron live, reused for
    /// the 16 inputs it holds: a transpose blocked by the cache line.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols`.
    pub fn from_values_in(order: StorageOrder, rows: usize, cols: usize, values: &[f32]) -> Self {
        assert_eq!(values.len(), rows * cols, "shape mismatch");
        let data = match order {
            StorageOrder::NeuronMajor => HogwildArray::from_values(values),
            StorageOrder::InputMajor => {
                let mut data = Vec::with_capacity(rows * cols);
                for c in 0..cols {
                    data.extend((0..rows).map(|r| AtomicU32::new(values[r * cols + c].to_bits())));
                }
                HogwildArray { data }
            }
        };
        Self {
            data,
            rows,
            cols,
            order,
        }
    }

    /// Number of rows (neurons).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (fan-in).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The storage order.
    #[inline]
    pub fn order(&self) -> StorageOrder {
        self.order
    }

    /// The flat element index of `(row, col)` in the backing array.
    #[inline]
    pub fn index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        match self.order {
            StorageOrder::NeuronMajor => row * self.cols + col,
            StorageOrder::InputMajor => col * self.rows + row,
        }
    }

    /// Relaxed load of `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data.get(self.index(row, col))
    }

    /// Relaxed store of `(row, col)`.
    #[inline]
    pub fn set(&self, row: usize, col: usize, value: f32) {
        self.data.set(self.index(row, col), value);
    }

    /// Row `row`'s cells as an atomic slice of length `cols`, the unit
    /// the fused kernels consume (one neuron's fan-in weights or Adam
    /// moments). Access follows the bit-level protocol documented on
    /// [`HogwildArray::as_atomics`].
    ///
    /// # Panics
    ///
    /// Panics if the matrix is input-major or `row >= rows`.
    #[inline]
    pub fn row(&self, row: usize) -> &[AtomicU32] {
        assert!(
            self.order == StorageOrder::NeuronMajor,
            "row() needs a neuron-major matrix"
        );
        self.data.atomic_slice(row * self.cols, self.cols)
    }

    /// Column `col`'s cells — input `col`'s weight on every neuron — as an
    /// atomic slice of length `rows`, under the same access protocol as
    /// [`HogwildMatrix::row`].
    ///
    /// # Panics
    ///
    /// Panics if the matrix is neuron-major or `col >= cols`.
    #[inline]
    pub fn input_row(&self, col: usize) -> &[AtomicU32] {
        assert!(
            self.order == StorageOrder::InputMajor,
            "input_row() needs an input-major matrix"
        );
        self.data.atomic_slice(col * self.rows, self.rows)
    }

    /// Copies row `row` into `out` (`out.len()` must equal `cols`); a
    /// strided gather when the matrix is input-major.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn read_row_into(&self, row: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "row buffer size mismatch");
        match self.order {
            StorageOrder::NeuronMajor => self.data.read_into(row * self.cols, out),
            StorageOrder::InputMajor => {
                for (c, o) in out.iter_mut().enumerate() {
                    *o = self.get(row, c);
                }
            }
        }
    }

    /// Every element in row-major (neuron-major) order, whatever the
    /// storage order: the layout snapshots put on disk.
    pub fn to_neuron_major(&self) -> Vec<f32> {
        match self.order {
            StorageOrder::NeuronMajor => self.data.to_vec(),
            StorageOrder::InputMajor => {
                let (rows, cols) = (self.rows, self.cols);
                let mut out = vec![0.0f32; rows * cols];
                for c in 0..cols {
                    for r in 0..rows {
                        out[r * cols + c] = self.data.get(c * rows + r);
                    }
                }
                out
            }
        }
    }

    /// Overwrites every element from a row-major (neuron-major) slice,
    /// whatever the storage order.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols`.
    pub fn copy_from_neuron_major(&self, values: &[f32]) {
        assert_eq!(values.len(), self.rows * self.cols, "length mismatch");
        match self.order {
            StorageOrder::NeuronMajor => self.data.copy_from(values),
            StorageOrder::InputMajor => {
                let (rows, cols) = (self.rows, self.cols);
                for c in 0..cols {
                    for r in 0..rows {
                        self.data.set(c * rows + r, values[r * cols + c]);
                    }
                }
            }
        }
    }

    /// The backing flat array, in storage order.
    #[inline]
    pub fn flat(&self) -> &HogwildArray {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_get_set() {
        let a = HogwildArray::zeroed(3);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0), 0.0);
        a.set(1, -2.5);
        assert_eq!(a.get(1), -2.5);
    }

    #[test]
    fn from_values_roundtrip() {
        let v = vec![1.0f32, -2.0, 3.5];
        let a = HogwildArray::from_values(&v);
        assert_eq!(a.to_vec(), v);
    }

    #[test]
    fn add_variants_agree_single_threaded() {
        let a = HogwildArray::from_values(&[1.0, 1.0]);
        a.add_racy(0, 0.5);
        a.add_cas(1, 0.5);
        assert_eq!(a.get(0), a.get(1));
    }

    #[test]
    fn cas_add_is_lossless_under_contention() {
        let a = Arc::new(HogwildArray::zeroed(1));
        let threads = 8;
        let per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        a.add_cas(0, 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.get(0), (threads * per_thread) as f32);
    }

    #[test]
    fn racy_add_loses_few_updates_under_contention() {
        // HOGWILD's premise: racy adds lose *some* updates under
        // contention. This test hammers a SINGLE element from all threads
        // — the worst case, far harsher than SLIDE's sparse updates — so
        // only require that a nontrivial fraction survives and that
        // updates are never fabricated.
        let a = Arc::new(HogwildArray::zeroed(1));
        let threads = 4;
        let per_thread = 50_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        a.add_racy(0, 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (threads * per_thread) as f32;
        let got = a.get(0);
        assert!(got > total * 0.2, "kept only {got} of {total}");
        assert!(got <= total, "gained updates from nowhere: {got}");
    }

    #[test]
    fn matrix_indexing() {
        let m = HogwildMatrix::zeroed(3, 4);
        m.set(2, 3, 7.0);
        assert_eq!(m.get(2, 3), 7.0);
        assert_eq!(m.flat().get(11), 7.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
    }

    #[test]
    fn matrix_row_read() {
        let m = HogwildMatrix::from_values(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut row = [0.0f32; 3];
        m.read_row_into(1, &mut row);
        assert_eq!(row, [4.0, 5.0, 6.0]);
    }

    #[test]
    fn atomic_row_views_follow_bit_protocol() {
        let m = HogwildMatrix::from_values(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let row = m.row(1);
        assert_eq!(row.len(), 3);
        assert_eq!(slide_kernels::fused::read(&row[2]), 6.0);
        slide_kernels::fused::write(&row[0], -4.5);
        assert_eq!(m.get(1, 0), -4.5);
        // The flat view aliases the same cells.
        assert_eq!(m.flat().as_atomics().len(), 6);
        assert_eq!(
            slide_kernels::fused::read(&m.flat().atomic_slice(3, 1)[0]),
            -4.5
        );
    }

    /// A neuron-major `rows × cols` value grid with distinct entries.
    fn grid(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols).map(|k| k as f32 * 0.5 - 7.0).collect()
    }

    #[test]
    fn accessors_mean_neuron_input_in_both_orders() {
        let (rows, cols) = (37, 70);
        let values = grid(rows, cols);
        for order in [StorageOrder::NeuronMajor, StorageOrder::InputMajor] {
            let m = HogwildMatrix::from_values_in(order, rows, cols, &values);
            assert_eq!(m.order(), order);
            assert_eq!((m.rows(), m.cols()), (rows, cols));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(m.get(r, c), values[r * cols + c], "{order:?} ({r},{c})");
                    assert_eq!(m.flat().get(m.index(r, c)), m.get(r, c));
                }
            }
            let mut row = vec![0.0f32; cols];
            m.read_row_into(5, &mut row);
            assert_eq!(row, values[5 * cols..6 * cols]);
            m.set(36, 69, 123.0);
            assert_eq!(m.get(36, 69), 123.0);
            m.read_row_into(36, &mut row);
            assert_eq!(row[69], 123.0);
        }
    }

    #[test]
    fn neuron_major_round_trip_is_exact_in_both_orders() {
        let (rows, cols) = (33, 65);
        let values = grid(rows, cols);
        let a = HogwildMatrix::from_values_in(StorageOrder::NeuronMajor, rows, cols, &values);
        let b = HogwildMatrix::from_values_in(StorageOrder::InputMajor, rows, cols, &values);
        assert_eq!(a.to_neuron_major(), values);
        assert_eq!(b.to_neuron_major(), values);
        // Input-major storage really is transposed.
        assert_eq!(b.flat().get(1), values[cols]);
        let reversed: Vec<f32> = values.iter().rev().copied().collect();
        b.copy_from_neuron_major(&reversed);
        assert_eq!(b.to_neuron_major(), reversed);
        assert_eq!(b.get(0, 0), reversed[0]);
    }

    #[test]
    fn input_rows_hold_one_inputs_fan_out() {
        let m = HogwildMatrix::from_values_in(StorageOrder::InputMajor, 3, 2, &grid(3, 2));
        let col = m.input_row(1);
        assert_eq!(col.len(), 3);
        for (r, cell) in col.iter().enumerate() {
            assert_eq!(slide_kernels::fused::read(cell), m.get(r, 1));
        }
        slide_kernels::fused::write(&col[2], 9.5);
        assert_eq!(m.get(2, 1), 9.5);
    }

    #[test]
    #[should_panic(expected = "row() needs a neuron-major matrix")]
    fn neuron_rows_refused_on_input_major() {
        let m = HogwildMatrix::zeroed_in(StorageOrder::InputMajor, 2, 2);
        let _ = m.row(0);
    }

    #[test]
    #[should_panic(expected = "input_row() needs an input-major matrix")]
    fn input_rows_refused_on_neuron_major() {
        let _ = HogwildMatrix::zeroed(2, 2).input_row(0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matrix_shape_validated() {
        let _ = HogwildMatrix::from_values(2, 2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn concurrent_disjoint_writes_are_exact() {
        // Threads writing disjoint elements must never interfere — the
        // actual sparse-update pattern SLIDE produces.
        let a = Arc::new(HogwildArray::zeroed(64));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..8 {
                        let idx = t * 8 + i;
                        for _ in 0..1000 {
                            a.add_racy(idx, 1.0);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..64 {
            assert_eq!(a.get(i), 1000.0, "element {i}");
        }
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HogwildArray>();
        assert_send_sync::<HogwildMatrix>();
    }
}
