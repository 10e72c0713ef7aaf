//! Versioned serialization of a trained [`Network`] — the handoff point
//! between training and serving.
//!
//! The paper trains on one beefy CPU box; a production deployment trains
//! somewhere, freezes the model, and serves it elsewhere. A snapshot
//! captures exactly what inference needs — the full [`NetworkConfig`]
//! (architecture, LSH parameters, seed) plus every layer's weights and
//! biases — and *rebuilds the hash tables on load* from the restored
//! weights, because bucket contents are a pure function of the weights
//! and the (seeded) hash family. Adam moments and the optimizer step are
//! deliberately not captured: a snapshot is a frozen inference artifact,
//! not a training checkpoint.
//!
//! ## Format (version 2, little-endian)
//!
//! ```text
//! magic   b"SLIDSNAP"                      8 bytes
//! version u32 = 2
//! config  (see encode_config: dims, adam, per-layer LSH params)
//! layers  per layer:
//!           enc u8                         0 = f32, 1 = q16
//!           enc 0: weights len u64 + f32 bits
//!           enc 1: code count u64, per-row f32 scales (units of them),
//!                  i16 codes (count of them, stored as u16 bits)
//!           biases len u64 + f32 bits      (always f32)
//! check   u64 FNV-1a over everything above
//! ```
//!
//! Version 1 (no per-layer `enc` tag; every layer f32) is still read.
//! [`write_network`] emits version 2 with every layer f32 — a round trip
//! is bit-identical, so restored dense predictions equal the source
//! network's exactly (pinned by `tests/serving.rs`).
//! [`Network::to_quantized_snapshot_bytes`] stores the *output layer* as
//! i16 fixed-point with per-row scales ([`QuantizedRows`]): the reader
//! dequantizes into the network weights (so selection tables are built
//! from the same values serving dots against) and also hands back the
//! quantized rows for the fused [`slide_kernels::gather_dot_q16`] /
//! [`slide_kernels::dot_batch_q16`] inference path.
//!
//! ## Decoding
//!
//! Full snapshots and slices (see [`slice_snapshot`]) decode through one
//! path. `open` checks a container's envelope: length, checksum, magic
//! and version. `read_section` borrows one layer's parameter section as
//! byte ranges (enc, scales, rows, biases). It sizes the whole section
//! against the config with checked arithmetic and takes it in one piece,
//! so a header claiming more than the bytes hold fails before anything
//! dimension-derived is allocated. `install` copies a section into a
//! layer, decoding q16 through `decode_q16`. Nothing here panics on
//! malformed bytes; every failure is a typed [`SnapshotError`].

use std::io::Write;
use std::ops::RangeInclusive;
use std::path::Path;

use slide_kernels::{AdamParams, KernelMode};
use slide_lsh::policy::InsertionPolicy;
use slide_lsh::sampling::SamplingStrategy;

use crate::config::{Activation, FamilySpec, LayerConfig, LshLayerConfig, NetworkConfig};
use crate::error::ConfigError;
use crate::layer::Layer;
use crate::network::Network;
use crate::quant::QuantizedRows;
use crate::schedule::RebuildSchedule;

const MAGIC: &[u8; 8] = b"SLIDSNAP";
const VERSION: u32 = 2;
/// Oldest format version this build still reads.
const MIN_VERSION: u32 = 1;

/// Per-layer weight encoding tag (version ≥ 2).
const ENC_F32: u8 = 0;
const ENC_Q16: u8 = 1;

/// A layer section that does not fit the bytes that hold it.
const SIZE_MISMATCH: &str = "parameter payload size inconsistent with config";

/// Error restoring a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error reading or writing the snapshot.
    Io(std::io::Error),
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The snapshot's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The byte stream is truncated or internally inconsistent.
    Corrupt(&'static str),
    /// The embedded configuration failed validation.
    Config(ConfigError),
    /// A snapshot-slice operation failed: invalid shard count or neuron
    /// range, or a slice set that does not reassemble into one snapshot
    /// (gaps, overlaps, mismatched origins).
    Slice(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::BadMagic => write!(f, "not a SLIDE snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (max {VERSION})")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Config(e) => write!(f, "snapshot config invalid: {e}"),
            SnapshotError::Slice(what) => write!(f, "snapshot slice: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<ConfigError> for SnapshotError {
    fn from(e: ConfigError) -> Self {
        SnapshotError::Config(e)
    }
}

// ---------------------------------------------------------------------
// Little-endian writer/reader over a byte buffer.

#[derive(Debug, Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&(v as u16).to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Appends the FNV-1a checksum of everything written and returns the
    /// finished container.
    fn finish(mut self) -> Vec<u8> {
        let check = fnv1a(&self.buf);
        self.u64(check);
        self.buf
    }
}

#[derive(Debug)]
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let s = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or(SnapshotError::Corrupt("truncated"))?;
        self.pos += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(u8::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("size overflow"))
    }
    /// Bytes not yet read.
    fn rest(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// The little-endian f32s in `bytes`.
fn f32s(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// `a · b`, or a size error on overflow.
fn mul(a: usize, b: usize) -> Result<usize, SnapshotError> {
    a.checked_mul(b)
        .ok_or(SnapshotError::Corrupt(SIZE_MISMATCH))
}

// ---------------------------------------------------------------------
// Config encoding.

fn encode_config(e: &mut Enc, c: &NetworkConfig) {
    e.u64(c.input_dim as u64);
    e.u64(c.seed);
    e.u8(match c.kernel_mode {
        KernelMode::Scalar => 0,
        KernelMode::Vectorized => 1,
    });
    e.f32(c.adam.lr);
    e.f32(c.adam.beta1);
    e.f32(c.adam.beta2);
    e.f32(c.adam.eps);
    e.u32(c.layers.len() as u32);
    for layer in &c.layers {
        e.u64(layer.units as u64);
        e.u8(match layer.activation {
            Activation::Relu => 0,
            Activation::Softmax => 1,
        });
        match &layer.lsh {
            None => e.u8(0),
            Some(lsh) => {
                e.u8(1);
                match lsh.family {
                    FamilySpec::SimHash { sparsity } => {
                        e.u8(0);
                        e.f64(sparsity);
                    }
                    FamilySpec::Wta { m } => {
                        e.u8(1);
                        e.u64(m as u64);
                    }
                    FamilySpec::Dwta { m } => {
                        e.u8(2);
                        e.u64(m as u64);
                    }
                    FamilySpec::Doph { bin_width, top_t } => {
                        e.u8(3);
                        e.u32(bin_width);
                        e.u64(top_t as u64);
                    }
                }
                e.u64(lsh.k as u64);
                e.u64(lsh.l as u64);
                e.u32(lsh.table_bits);
                e.u64(lsh.bucket_capacity as u64);
                e.u8(match lsh.policy {
                    InsertionPolicy::Reservoir => 0,
                    InsertionPolicy::Fifo => 1,
                });
                match lsh.strategy {
                    SamplingStrategy::Vanilla { budget } => {
                        e.u8(0);
                        e.u64(budget as u64);
                    }
                    SamplingStrategy::TopK { budget } => {
                        e.u8(1);
                        e.u64(budget as u64);
                    }
                    SamplingStrategy::HardThreshold { min_count } => {
                        e.u8(2);
                        e.u64(min_count as u64);
                    }
                }
                e.u64(lsh.rebuild.initial_period);
                e.f64(lsh.rebuild.decay);
                e.u8(lsh.center_rows as u8);
            }
        }
    }
}

fn decode_config(d: &mut Dec<'_>) -> Result<NetworkConfig, SnapshotError> {
    let input_dim = d.usize()?;
    let seed = d.u64()?;
    let kernel_mode = match d.u8()? {
        0 => KernelMode::Scalar,
        1 => KernelMode::Vectorized,
        _ => return Err(SnapshotError::Corrupt("kernel mode tag")),
    };
    let adam = AdamParams {
        lr: d.f32()?,
        beta1: d.f32()?,
        beta2: d.f32()?,
        eps: d.f32()?,
    };
    let n_layers = d.u32()? as usize;
    if n_layers > 1024 {
        return Err(SnapshotError::Corrupt("layer count implausible"));
    }
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let units = d.usize()?;
        let activation = match d.u8()? {
            0 => Activation::Relu,
            1 => Activation::Softmax,
            _ => return Err(SnapshotError::Corrupt("activation tag")),
        };
        let lsh = match d.u8()? {
            0 => None,
            1 => {
                let family = match d.u8()? {
                    0 => FamilySpec::SimHash { sparsity: d.f64()? },
                    1 => FamilySpec::Wta { m: d.usize()? },
                    2 => FamilySpec::Dwta { m: d.usize()? },
                    3 => FamilySpec::Doph {
                        bin_width: d.u32()?,
                        top_t: d.usize()?,
                    },
                    _ => return Err(SnapshotError::Corrupt("family tag")),
                };
                let k = d.usize()?;
                let l = d.usize()?;
                let table_bits = d.u32()?;
                let bucket_capacity = d.usize()?;
                let policy = match d.u8()? {
                    0 => InsertionPolicy::Reservoir,
                    1 => InsertionPolicy::Fifo,
                    _ => return Err(SnapshotError::Corrupt("policy tag")),
                };
                let strategy = match d.u8()? {
                    0 => SamplingStrategy::Vanilla { budget: d.usize()? },
                    1 => SamplingStrategy::TopK { budget: d.usize()? },
                    2 => SamplingStrategy::HardThreshold {
                        min_count: d.usize()?,
                    },
                    _ => return Err(SnapshotError::Corrupt("strategy tag")),
                };
                let rebuild = RebuildSchedule {
                    initial_period: d.u64()?,
                    decay: d.f64()?,
                };
                let center_rows = match d.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(SnapshotError::Corrupt("center_rows flag")),
                };
                Some(LshLayerConfig {
                    family,
                    k,
                    l,
                    table_bits,
                    bucket_capacity,
                    policy,
                    strategy,
                    rebuild,
                    center_rows,
                })
            }
            _ => return Err(SnapshotError::Corrupt("lsh flag")),
        };
        layers.push(LayerConfig {
            units,
            activation,
            lsh,
        });
    }
    Ok(NetworkConfig {
        input_dim,
        layers,
        seed,
        kernel_mode,
        adam,
    })
}

/// Overrides every LSH layer's centering mode when `center_rows` is set.
/// Applied to the config before the network is built, so the tables are
/// built once in the requested geometry instead of being rebuilt again
/// by a later [`Network::set_lsh_centering`] call.
fn override_centering(config: &mut NetworkConfig, center_rows: Option<bool>) {
    if let Some(center) = center_rows {
        for lsh in config.layers.iter_mut().filter_map(|l| l.lsh.as_mut()) {
            lsh.center_rows = center;
        }
    }
}

// ---------------------------------------------------------------------
// Encoding.

/// A restored snapshot: the network plus, when the snapshot stored the
/// output layer as i16 fixed-point, the decoded [`QuantizedRows`] for the
/// fused quantized inference path.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The restored network (quantized layers dequantized in place,
    /// hash tables rebuilt).
    pub network: Network,
    /// The output layer's quantized rows, when the snapshot carried them.
    pub quantized: Option<QuantizedRows>,
}

fn write_with(network: &Network, quantize_output: bool) -> Vec<u8> {
    let mut e = Enc::default();
    e.buf.extend_from_slice(MAGIC);
    e.u32(VERSION);
    encode_config(&mut e, network.config());
    let last = network.layers().len() - 1;
    for (li, layer) in network.layers().iter().enumerate() {
        if quantize_output && li == last {
            let q = QuantizedRows::from_layer(layer);
            e.u8(ENC_Q16);
            e.u64(q.codes().len() as u64);
            for &s in q.scales() {
                e.f32(s);
            }
            for &c in q.codes() {
                e.i16(c);
            }
        } else {
            // On disk every layer is neuron-major, whatever its storage
            // order in memory.
            let w = layer.weights().to_neuron_major();
            e.u8(ENC_F32);
            e.u64(w.len() as u64);
            for &v in &w {
                e.f32(v);
            }
        }
        let b = layer.biases();
        e.u64(b.len() as u64);
        for i in 0..b.len() {
            e.f32(b.get(i));
        }
    }
    e.finish()
}

/// Serializes `network` (config + weights + biases) to the version-2 byte
/// format with every layer stored as exact f32.
pub fn write_network(network: &Network) -> Vec<u8> {
    write_with(network, false)
}

// ---------------------------------------------------------------------
// Decoding: one envelope check, one section walker, one installer.

/// Checks a container's envelope: long enough, trailing FNV-1a checksum
/// intact, `magic` first, then a version in `versions`. Returns that
/// version and a decoder over the payload (checksum excluded) positioned
/// just past it.
fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    versions: RangeInclusive<u32>,
) -> Result<(u32, Dec<'a>), SnapshotError> {
    if bytes.len() < magic.len() + 4 + 8 {
        return Err(SnapshotError::Corrupt("too short"));
    }
    let (payload, check) = bytes.split_at(bytes.len() - 8);
    if fnv1a(payload) != Dec::new(check).u64()? {
        return Err(SnapshotError::Corrupt("checksum mismatch"));
    }
    let mut d = Dec::new(payload);
    if d.take(magic.len())? != magic {
        return Err(SnapshotError::BadMagic);
    }
    let version = d.u32()?;
    if !versions.contains(&version) {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    Ok((version, d))
}

/// How a layer section is framed on disk.
#[derive(Debug, Clone, Copy)]
enum Framing {
    /// A version-1 snapshot layer: no enc tag (always f32); a u64
    /// element count before the weights and before the biases.
    V1,
    /// A version-2 snapshot layer: an enc tag, then as [`Framing::V1`].
    V2,
    /// A slice's output rows: an enc tag and no counts.
    SliceRows,
}

impl Framing {
    fn of(version: u32) -> Self {
        if version >= 2 {
            Framing::V2
        } else {
            Framing::V1
        }
    }
}

/// One layer's parameter section, borrowed from the container bytes and
/// already sized against the layer's shape.
#[derive(Debug)]
struct Section<'a> {
    /// Offset of the section's first byte in the buffer it was read from.
    start: usize,
    enc: u8,
    /// Rows (neurons) held, and the length of each (the fan-in).
    units: usize,
    fan_in: usize,
    /// Per-row f32 scales (q16 only; empty for f32).
    scales: &'a [u8],
    /// Weight rows, neuron-major: f32 bits, or i16 codes for q16.
    rows: &'a [u8],
    /// Bias f32 bits.
    biases: &'a [u8],
}

impl<'a> Section<'a> {
    /// The scales, weight rows and biases of neurons `lo..hi`, with
    /// `lo ≤ hi ≤ units`.
    fn neurons(&self, lo: usize, hi: usize) -> [&'a [u8]; 3] {
        let row = self.rows.len() / self.units.max(1);
        let scales = if self.scales.is_empty() {
            self.scales
        } else {
            &self.scales[lo * 4..hi * 4]
        };
        [
            scales,
            &self.rows[lo * row..hi * row],
            &self.biases[lo * 4..hi * 4],
        ]
    }
}

/// Reads one layer section of `units` rows of `fan_in` weights from `d`.
/// The whole section is sized first, with checked arithmetic, and taken
/// in one piece; only then are its element counts compared with the
/// shape.
fn read_section<'a>(
    d: &mut Dec<'a>,
    framing: Framing,
    units: usize,
    fan_in: usize,
) -> Result<Section<'a>, SnapshotError> {
    let start = d.pos;
    let enc = match framing {
        Framing::V1 => ENC_F32,
        Framing::V2 | Framing::SliceRows => {
            d.u8().map_err(|_| SnapshotError::Corrupt(SIZE_MISMATCH))?
        }
    };
    let (width, scales_len) = match enc {
        ENC_F32 => (4, 0),
        ENC_Q16 => (2, mul(units, 4)?),
        _ => return Err(SnapshotError::Corrupt("layer encoding tag")),
    };
    let counted = !matches!(framing, Framing::SliceRows);
    let count_len = if counted { 8 } else { 0 };
    let count = mul(units, fan_in)?;
    let rows_len = mul(count, width)?;
    let biases_len = mul(units, 4)?;
    let size = [count_len, scales_len, rows_len, count_len, biases_len]
        .into_iter()
        .try_fold(0usize, usize::checked_add)
        .ok_or(SnapshotError::Corrupt(SIZE_MISMATCH))?;
    let mut s = Dec::new(
        d.take(size)
            .map_err(|_| SnapshotError::Corrupt(SIZE_MISMATCH))?,
    );
    if counted && s.u64()? != count as u64 {
        return Err(SnapshotError::Corrupt("weight count mismatch"));
    }
    let scales = s.take(scales_len)?;
    let rows = s.take(rows_len)?;
    if counted && s.u64()? != units as u64 {
        return Err(SnapshotError::Corrupt("bias count mismatch"));
    }
    Ok(Section {
        start,
        enc,
        units,
        fan_in,
        scales,
        rows,
        biases: s.take(biases_len)?,
    })
}

/// Reads the sections of `layers`, the first fed by `input_dim` inputs
/// and each later one by its predecessor's units.
fn read_sections<'a>(
    d: &mut Dec<'a>,
    framing: Framing,
    input_dim: usize,
    layers: &[LayerConfig],
) -> Result<Vec<Section<'a>>, SnapshotError> {
    let mut fan_in = input_dim;
    let mut sections = Vec::with_capacity(layers.len());
    for layer in layers {
        sections.push(read_section(d, framing, layer.units, fan_in)?);
        fan_in = layer.units;
    }
    Ok(sections)
}

/// A snapshot parsed down to borrowed sections.
struct Snapshot<'a> {
    version: u32,
    config: NetworkConfig,
    /// The snapshot bytes before the output layer's section: magic,
    /// version, config and every hidden section, verbatim.
    prefix: &'a [u8],
    /// One section per layer. For a slice: the hidden layers only.
    sections: Vec<Section<'a>>,
}

/// Parses a full `.slidesnap` container: envelope, config, and every
/// layer section, which together must use up the payload exactly.
fn parse_snapshot(bytes: &[u8]) -> Result<Snapshot<'_>, SnapshotError> {
    let (version, mut d) = open(bytes, MAGIC, MIN_VERSION..=VERSION)?;
    let config = decode_config(&mut d)?;
    let sections = read_sections(
        &mut d,
        Framing::of(version),
        config.input_dim,
        &config.layers,
    )?;
    if d.rest() != 0 {
        return Err(SnapshotError::Corrupt(SIZE_MISMATCH));
    }
    let prefix_len = sections.last().map_or(d.pos, |s| s.start);
    Ok(Snapshot {
        version,
        config,
        prefix: d.buf.get(..prefix_len).unwrap_or_default(),
        sections,
    })
}

/// Decodes a q16 section's per-row scales (each must be finite and
/// non-negative) and codes; `None` for an f32 section.
fn decode_q16(sec: &Section<'_>) -> Result<Option<QuantizedRows>, SnapshotError> {
    if sec.enc != ENC_Q16 {
        return Ok(None);
    }
    let scales = f32s(sec.scales)
        .map(|s| {
            if s.is_finite() && s >= 0.0 {
                Ok(s)
            } else {
                Err(SnapshotError::Corrupt("quantized scale invalid"))
            }
        })
        .collect::<Result<Vec<f32>, _>>()?;
    let codes = sec
        .rows
        .chunks_exact(2)
        .map(|c| i16::from_le_bytes([c[0], c[1]]))
        .collect();
    Ok(Some(QuantizedRows::from_parts(
        sec.units, sec.fan_in, codes, scales,
    )))
}

/// Installs a section into `layer`: weights (q16 rows dequantized, so
/// table rebuilds and the f32 fallback see exactly the values the
/// quantized kernels compute against), then biases. Returns the q16
/// rows. Does **not** rebuild the layer's tables.
fn install(
    layer: &Layer,
    sec: &Section<'_>,
    values: &mut Vec<f32>,
) -> Result<Option<QuantizedRows>, SnapshotError> {
    if (layer.units(), layer.fan_in()) != (sec.units, sec.fan_in) {
        return Err(SnapshotError::Corrupt(SIZE_MISMATCH));
    }
    let q = decode_q16(sec)?;
    let weights = layer.weights();
    match &q {
        Some(q) => {
            values.resize(sec.fan_in, 0.0);
            for j in 0..sec.units {
                q.dequantize_row(j, values);
                for (i, &v) in values.iter().enumerate() {
                    weights.set(j, i, v);
                }
            }
        }
        None => {
            values.clear();
            values.extend(f32s(sec.rows));
            weights.copy_from_neuron_major(values);
        }
    }
    values.clear();
    values.extend(f32s(sec.biases));
    layer.biases().copy_from(values);
    Ok(q)
}

/// Installs `sections` into `network`'s layers in order, rebuilding each
/// layer's tables once its weights are in place (bucket contents are a
/// function of the weights). `center` is the output layer's fixed
/// centering vector, when it has one. The quantized rows returned are
/// the output layer's.
fn install_all(
    mut network: Network,
    sections: &[Section<'_>],
    center: Option<Vec<f32>>,
) -> Result<LoadedSnapshot, SnapshotError> {
    if let Some(out) = network.layers_mut().last_mut() {
        out.set_center_override(center);
    }
    let mut values = Vec::new();
    let mut quantized = None;
    for (layer, sec) in network.layers_mut().iter_mut().zip(sections) {
        quantized = install(layer, sec, &mut values)?;
        layer.rebuild_tables();
    }
    Ok(LoadedSnapshot { network, quantized })
}

/// Restores a network *and* any quantized output rows from snapshot
/// bytes: validates magic, version, checksum and every section's size,
/// rebuilds the network from the embedded config, copies the weights and
/// biases in, and rebuilds every LSH layer's hash tables from them. When
/// `center_rows` is `Some`, every LSH layer's
/// [`LshLayerConfig::center_rows`] is overridden *before* the tables are
/// built, so they are built once in the requested geometry. The serving
/// engine loads snapshots through this path.
///
/// Quantized layers are dequantized into the network's weights — hash
/// tables are therefore built over exactly the values the quantized dot
/// kernels reproduce — and the output layer's codes are returned in
/// [`LoadedSnapshot::quantized`].
pub fn read_snapshot_with_centering(
    bytes: &[u8],
    center_rows: Option<bool>,
) -> Result<LoadedSnapshot, SnapshotError> {
    let Snapshot {
        mut config,
        sections,
        ..
    } = parse_snapshot(bytes)?;
    override_centering(&mut config, center_rows);
    install_all(Network::new(config)?, &sections, None)
}

// ---------------------------------------------------------------------
// Snapshot slices: scatter a snapshot's output layer across shards.
//
// A *slice* carries one shard's contiguous output-neuron range — its
// weight rows (f32 or q16 with per-row scales) and biases — plus
// everything a shard engine needs to reproduce the unsharded engine's
// behaviour bit-for-bit: the full network's config and hidden layers
// verbatim, and the full output layer's centering vector (a shard cannot
// recompute the mean of rows it does not hold). `slice_snapshot`
// produces the slices, `assemble_slices` reassembles the original bytes
// exactly, and `read_slice` restores a shard-sized network whose hash
// family, tables and scores match the full network's over the shard's
// range.
//
// ```text
// magic      b"SLIDSLCE"                     8 bytes
// version    u32 = 1                         slice container version
// snap ver   u32                             the snapshot's version (1 or 2)
// lo hi      u64 u64                         output neurons lo..hi
// total      u64                             the full output width
// prefix     len u64 + bytes                 the snapshot before its output
//                                            section, verbatim
// center     len u64 + f32 bits              0 or fan-in of them
// enc        u8                              always present
// scales     f32 bits × (hi − lo)            q16 only
// rows       (hi − lo) × fan-in f32 or i16
// biases     f32 bits × (hi − lo)
// check      u64 FNV-1a over everything above
// ```

/// Slice container magic.
const SLICE_MAGIC: &[u8; 8] = b"SLIDSLCE";
/// Slice container format version.
const SLICE_VERSION: u32 = 1;

/// The column mean of a section's rows: the serial f64 sum over **all**
/// rows, exactly as `Layer::rebuild_tables` computes it after a full
/// snapshot load (q16 rows dequantized first, like the reader does).
fn column_mean(sec: &Section<'_>) -> Result<Vec<f32>, SnapshotError> {
    let q = decode_q16(sec)?;
    let mut acc = vec![0.0f64; sec.fan_in];
    let mut row = vec![0.0f32; sec.fan_in];
    for j in 0..sec.units {
        match &q {
            Some(q) => q.dequantize_row(j, &mut row),
            None => {
                let [_, bytes, _] = sec.neurons(j, j + 1);
                for (r, v) in row.iter_mut().zip(f32s(bytes)) {
                    *r = v;
                }
            }
        }
        for (a, &r) in acc.iter_mut().zip(&row) {
            *a += r as f64;
        }
    }
    Ok(acc.iter().map(|&a| (a / sec.units as f64) as f32).collect())
}

/// Splits a full snapshot into `num_shards` self-contained slices, shard
/// `s` carrying output neurons `s·units/n .. (s+1)·units/n`. The slices
/// reassemble byte-identically via [`assemble_slices`] and each loads as
/// a shard engine via [`read_slice`].
///
/// # Errors
///
/// Any full-snapshot validation error, plus [`SnapshotError::Slice`] for
/// a zero shard count or more shards than output neurons.
pub fn slice_snapshot(bytes: &[u8], num_shards: usize) -> Result<Vec<Vec<u8>>, SnapshotError> {
    if num_shards == 0 {
        return Err(SnapshotError::Slice("num_shards must be positive"));
    }
    let snap = parse_snapshot(bytes)?;
    let (Some(out_cfg), Some(out)) = (snap.config.layers.last(), snap.sections.last()) else {
        return Err(SnapshotError::Corrupt("no layers"));
    };
    let units = out.units;
    if num_shards > units {
        return Err(SnapshotError::Slice("more shards than output neurons"));
    }
    let center = match out_cfg.lsh {
        Some(_) => column_mean(out)?,
        None => Vec::new(),
    };
    let bound = |s: usize| (s as u128 * units as u128 / num_shards as u128) as usize;
    let slices = (0..num_shards)
        .map(|s| {
            let (lo, hi) = (bound(s), bound(s + 1));
            let mut e = Enc::default();
            e.buf.extend_from_slice(SLICE_MAGIC);
            e.u32(SLICE_VERSION);
            e.u32(snap.version);
            e.u64(lo as u64);
            e.u64(hi as u64);
            e.u64(units as u64);
            e.u64(snap.prefix.len() as u64);
            e.buf.extend_from_slice(snap.prefix);
            e.u64(center.len() as u64);
            for &c in &center {
                e.f32(c);
            }
            e.u8(out.enc);
            for part in out.neurons(lo, hi) {
                e.buf.extend_from_slice(part);
            }
            e.finish()
        })
        .collect();
    Ok(slices)
}

/// A parsed slice, borrowing section byte ranges from the input.
struct SlicePart<'a> {
    lo: usize,
    hi: usize,
    total: usize,
    /// The embedded snapshot: its prefix, config and hidden sections.
    snap: Snapshot<'a>,
    /// The full output layer's centering vector (f32 bits; may be empty).
    center: &'a [u8],
    /// The shard's output rows.
    out: Section<'a>,
}

fn parse_slice(bytes: &[u8]) -> Result<SlicePart<'_>, SnapshotError> {
    let (_, mut d) = open(bytes, SLICE_MAGIC, SLICE_VERSION..=SLICE_VERSION)?;
    let version = d.u32()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let (lo, hi, total) = (d.usize()?, d.usize()?, d.usize()?);
    if !(lo < hi && hi <= total) {
        return Err(SnapshotError::Slice("invalid neuron range"));
    }
    let prefix_len = d.usize()?;
    let prefix = d.take(prefix_len)?;
    let mut p = Dec::new(prefix);
    if p.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::Corrupt("embedded snapshot magic"));
    }
    if p.u32()? != version {
        return Err(SnapshotError::Corrupt("embedded snapshot version"));
    }
    let config = decode_config(&mut p)?;
    let Some((out_cfg, hidden)) = config.layers.split_last() else {
        return Err(SnapshotError::Corrupt("no layers"));
    };
    let sections = read_sections(&mut p, Framing::of(version), config.input_dim, hidden)?;
    if p.rest() != 0 {
        return Err(SnapshotError::Corrupt(SIZE_MISMATCH));
    }
    if out_cfg.units != total {
        return Err(SnapshotError::Slice("total differs from embedded config"));
    }
    let fan_in = hidden.last().map_or(config.input_dim, |l| l.units);
    // The full layer this slice was cut from held `total × fan_in` f32
    // weights; a layer too large to allocate never existed.
    if mul(mul(total, fan_in)?, 4)? > isize::MAX as usize {
        return Err(SnapshotError::Corrupt(SIZE_MISMATCH));
    }
    let center_len = d.usize()?;
    if center_len != 0 && center_len != fan_in {
        return Err(SnapshotError::Corrupt("center length"));
    }
    let center = d.take(mul(center_len, 4)?)?;
    let out = read_section(&mut d, Framing::SliceRows, hi - lo, fan_in)?;
    if version < 2 && out.enc != ENC_F32 {
        return Err(SnapshotError::Corrupt("layer encoding tag"));
    }
    if d.rest() != 0 {
        return Err(SnapshotError::Corrupt("trailing bytes"));
    }
    Ok(SlicePart {
        lo,
        hi,
        total,
        snap: Snapshot {
            version,
            config,
            prefix,
            sections,
        },
        center,
        out,
    })
}

/// Reassembles slices produced by [`slice_snapshot`] into the original
/// full snapshot, **byte-identical** to the input `slice_snapshot` was
/// given. Order-insensitive.
///
/// # Errors
///
/// [`SnapshotError::Slice`] when the set does not partition one
/// snapshot's output layer: slices from different snapshots, overlapping
/// or gapped ranges, or incomplete coverage. Individual malformed slices
/// yield the usual typed errors ([`SnapshotError::Corrupt`] etc.).
pub fn assemble_slices(slices: &[Vec<u8>]) -> Result<Vec<u8>, SnapshotError> {
    let mut parts = slices
        .iter()
        .map(|s| parse_slice(s))
        .collect::<Result<Vec<_>, _>>()?;
    let Some(first) = parts.first() else {
        return Err(SnapshotError::Slice("no slices"));
    };
    let same_origin = |p: &SlicePart<'_>| {
        p.snap.prefix == first.snap.prefix
            && p.snap.version == first.snap.version
            && p.total == first.total
            && p.out.enc == first.out.enc
            && p.center == first.center
    };
    if !parts.iter().all(same_origin) {
        return Err(SnapshotError::Slice("slices come from different snapshots"));
    }
    let (version, total, fan_in) = (first.snap.version, first.total, first.out.fan_in);
    parts.sort_by_key(|p| p.lo);
    let mut expect = 0usize;
    for p in &parts {
        if p.lo > expect {
            return Err(SnapshotError::Slice("gap between slices"));
        }
        if p.lo < expect {
            return Err(SnapshotError::Slice("overlapping slices"));
        }
        expect = p.hi;
    }
    if expect != total {
        return Err(SnapshotError::Slice("slices do not cover the output layer"));
    }
    let mut e = Enc::default();
    e.buf.extend_from_slice(parts[0].snap.prefix);
    if version >= 2 {
        e.u8(parts[0].out.enc);
    }
    // parse_slice bounded total × fan_in × 4 by isize::MAX.
    e.u64((total * fan_in) as u64);
    for p in &parts {
        e.buf.extend_from_slice(p.out.scales);
    }
    for p in &parts {
        e.buf.extend_from_slice(p.out.rows);
    }
    e.u64(total as u64);
    for p in &parts {
        e.buf.extend_from_slice(p.out.biases);
    }
    Ok(e.finish())
}

/// A restored snapshot slice: a network whose output layer holds only
/// neurons `lo..hi` of a `total`-wide original, hashing and scoring
/// bit-identically to the full network over that range.
#[derive(Debug)]
pub struct LoadedSlice {
    /// The shard network (plus its quantized rows for q16 slices).
    pub snapshot: LoadedSnapshot,
    /// First global output-neuron id this shard holds.
    pub lo: usize,
    /// One past the last global output-neuron id this shard holds.
    pub hi: usize,
    /// The original network's output width.
    pub total: usize,
}

/// Restores a shard network from slice bytes. `center_rows` overrides
/// every LSH layer's centering mode up front, exactly like
/// [`read_snapshot_with_centering`] — and the output layer additionally
/// gets the *full* layer's centering vector installed (carried by the
/// slice), so centered hashing subtracts the same mean the unsharded
/// engine computes. The output layer's sampling budget is clamped to the
/// shard's width; serving-path retrieval does not consult it.
///
/// # Errors
///
/// Typed [`SnapshotError`]s for malformed bytes, plus the embedded
/// config's validation errors.
pub fn read_slice(bytes: &[u8], center_rows: Option<bool>) -> Result<LoadedSlice, SnapshotError> {
    let SlicePart {
        lo,
        hi,
        total,
        snap,
        center,
        out,
    } = parse_slice(bytes)?;
    let (mut config, mut sections) = (snap.config, snap.sections);
    override_centering(&mut config, center_rows);
    let n = hi - lo;
    if let Some(out_cfg) = config.layers.last_mut() {
        out_cfg.units = n;
        if let Some(lsh) = &mut out_cfg.lsh {
            lsh.strategy = match lsh.strategy {
                SamplingStrategy::Vanilla { budget } => SamplingStrategy::Vanilla {
                    budget: budget.min(n),
                },
                SamplingStrategy::TopK { budget } => SamplingStrategy::TopK {
                    budget: budget.min(n),
                },
                other => other,
            };
        }
    }
    sections.push(out);
    let center = (!center.is_empty()).then(|| f32s(center).collect());
    let network = Network::new_output_sliced(config, total)?;
    Ok(LoadedSlice {
        snapshot: install_all(network, &sections, center)?,
        lo,
        hi,
        total,
    })
}

/// Atomically publishes `bytes` at `path`: the bytes are written to a
/// uniquely-named sibling temp file, fsynced, and then renamed over
/// `path` in one step. Because the rename is atomic (POSIX, same
/// directory), a concurrent reader — in particular a polling
/// `SnapshotWatcher` — can never observe a partially-written snapshot:
/// the path always names either the previous complete file or the new
/// complete one.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] on filesystem failure; the temp file is
/// removed on a failed rename so aborted publishes leave no debris.
pub fn publish_bytes<P: AsRef<Path>>(path: P, bytes: &[u8]) -> Result<(), SnapshotError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    // Process-unique temp names: pid guards against a concurrent
    // publisher process, the sequence against concurrent threads.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("snapshot");
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // The data must be durable before the rename makes it visible,
        // or a crash could publish a name pointing at unwritten blocks.
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = result {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    // Best-effort directory sync so the rename itself survives a crash;
    // not all platforms allow opening a directory for sync.
    if let Ok(d) = std::fs::File::open(&dir) {
        d.sync_all().ok();
    }
    Ok(())
}

impl Network {
    /// Serializes this network to snapshot bytes ([`write_network`]).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        write_network(self)
    }

    /// Serializes this network with the *output layer* stored as i16
    /// fixed-point rows with per-row scales ([`QuantizedRows`]) — roughly
    /// half the bytes of [`write_network`] when the output layer
    /// dominates. Hidden layers and all biases stay exact f32; training
    /// state is unaffected.
    pub fn to_quantized_snapshot_bytes(&self) -> Vec<u8> {
        write_with(self, true)
    }

    /// Restores a network from snapshot bytes, discarding any quantized
    /// rows ([`read_snapshot_with_centering`] keeps them).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on a malformed snapshot.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        read_snapshot_with_centering(bytes, None).map(|s| s.network)
    }

    /// Writes a snapshot file via the atomic tmp+fsync+rename
    /// publication path ([`publish_bytes`]), so a watcher polling `path`
    /// never sees a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] on filesystem failure.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        publish_bytes(path, &self.to_snapshot_bytes())
    }

    /// Writes a quantized snapshot file
    /// ([`Network::to_quantized_snapshot_bytes`]), also atomically
    /// published.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] on filesystem failure.
    pub fn save_quantized_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        publish_bytes(path, &self.to_quantized_snapshot_bytes())
    }

    /// Loads a snapshot file and restores the network (tables rebuilt).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on filesystem failure or a malformed
    /// snapshot.
    pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LshLayerConfig;
    use proptest::prelude::*;

    fn trained_network() -> Network {
        let cfg = NetworkConfig::builder(32, 60)
            .hidden(12)
            .output_lsh(
                LshLayerConfig::dwta(3, 6).with_strategy(SamplingStrategy::TopK { budget: 20 }),
            )
            .seed(99)
            .build()
            .unwrap();
        let net = Network::new(cfg).unwrap();
        // Perturb weights away from init so the round trip is not trivial.
        net.layers()[0].weights().set(3, 5, 1.25);
        net.layers()[1].biases().set(7, -0.5);
        net
    }

    #[test]
    fn publish_is_atomic_and_leaves_no_temp_debris() {
        let net = trained_network();
        let dir = std::env::temp_dir().join(format!("slide_publish_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.slidesnap");
        // Publish twice (an initial write and an overwrite): both must
        // land complete and loadable.
        net.save_snapshot(&path).unwrap();
        net.save_quantized_snapshot(&path).unwrap();
        let restored = Network::load_snapshot(&path).unwrap();
        assert_eq!(restored.config().input_dim, net.config().input_dim);
        // No temp siblings survive a successful publish.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp debris: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_trip_preserves_config_and_parameters() {
        let net = trained_network();
        let bytes = net.to_snapshot_bytes();
        let restored = Network::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.config(), net.config());
        for (a, b) in net.layers().iter().zip(restored.layers()) {
            let (wa, wb) = (a.weights().flat(), b.weights().flat());
            assert_eq!(wa.len(), wb.len());
            for i in 0..wa.len() {
                assert_eq!(wa.get(i).to_bits(), wb.get(i).to_bits(), "weight {i}");
            }
            for i in 0..a.biases().len() {
                assert_eq!(
                    a.biases().get(i).to_bits(),
                    b.biases().get(i).to_bits(),
                    "bias {i}"
                );
            }
        }
    }

    #[test]
    fn weights_go_to_disk_neuron_major_in_every_storage_order() {
        let net = trained_network();
        let hidden = net.layers()[0].weights();
        assert_eq!(hidden.order(), crate::hogwild::StorageOrder::InputMajor);
        let bytes = net.to_snapshot_bytes();
        let mut section = vec![ENC_F32];
        section.extend_from_slice(&((hidden.rows() * hidden.cols()) as u64).to_le_bytes());
        for j in 0..hidden.rows() {
            for i in 0..hidden.cols() {
                section.extend_from_slice(&hidden.get(j, i).to_le_bytes());
            }
        }
        assert!(
            bytes.windows(section.len()).any(|w| w == section),
            "the input-major layer's weights are not on disk neuron-major"
        );
        // Decoding back into input-major storage and re-encoding is exact.
        let restored = Network::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.to_snapshot_bytes(), bytes);
    }

    #[test]
    fn restored_tables_reflect_restored_weights() {
        let net = trained_network();
        let restored = Network::from_snapshot_bytes(&net.to_snapshot_bytes()).unwrap();
        let lsh = restored.layers()[1].lsh().expect("output layer has LSH");
        // One initial build at Network::new + one rebuild after the weight
        // copy.
        assert_eq!(lsh.rebuild_count(), 2);
        assert!(lsh.tables().stats().total_items > 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = trained_network().to_snapshot_bytes();
        bytes[0] = b'X';
        // Checksum now fails first; flip the stored checksum too to reach
        // the magic check.
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
        assert!(matches!(
            Network::from_snapshot_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = trained_network().to_snapshot_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            Network::from_snapshot_bytes(&bytes),
            Err(SnapshotError::Corrupt("checksum mismatch"))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = trained_network().to_snapshot_bytes();
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Network::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn inflated_dimensions_rejected_before_allocation() {
        // A crafted header claiming absurd layer sizes (with a fixed-up
        // checksum — FNV is not tamper-proof) must fail the payload-size
        // check instead of attempting a huge allocation.
        let mut bytes = trained_network().to_snapshot_bytes();
        // First layer's `units` sits after magic(8) + version(4) +
        // input_dim(8) + seed(8) + kernel_mode(1) + adam(16) +
        // n_layers(4) = 49 bytes.
        bytes[49..57].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
        assert!(matches!(
            Network::from_snapshot_bytes(&bytes),
            Err(SnapshotError::Corrupt(
                "parameter payload size inconsistent with config"
            ))
        ));
    }

    #[test]
    fn overflowing_dimensions_rejected_without_panic() {
        // input_dim = units = 2^63: the first layer's weight count
        // overflows any fixed-width size computation, so sizing must be
        // checked, not wrapped or trapped.
        let mut bytes = trained_network().to_snapshot_bytes();
        bytes[12..20].copy_from_slice(&(1u64 << 63).to_le_bytes());
        bytes[49..57].copy_from_slice(&(1u64 << 63).to_le_bytes());
        fix_checksum(&mut bytes);
        assert!(matches!(
            Network::from_snapshot_bytes(&bytes),
            Err(SnapshotError::Corrupt(SIZE_MISMATCH))
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = trained_network().to_snapshot_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
        assert!(matches!(
            Network::from_snapshot_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn malformed_snapshots_return_matching_typed_errors() {
        // Table-driven failure paths: every mutation must surface as the
        // matching typed error — never a panic, never a wrong category.
        // The checksum is recomputed after each mutation (except in the
        // corruption cases, where the stale checksum *is* the failure) so
        // each case reaches the check it targets.
        enum Expect {
            Corrupt,
            BadMagic,
            UnsupportedVersion(u32),
        }
        let fix_checksum = |bytes: &mut Vec<u8>| {
            let n = bytes.len();
            let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
            bytes[n - 8..].copy_from_slice(&check);
        };
        type Case = (&'static str, Box<dyn Fn(Vec<u8>) -> Vec<u8>>, Expect);
        let cases: Vec<Case> = vec![
            ("empty", Box::new(|_| Vec::new()), Expect::Corrupt),
            (
                "truncated inside magic",
                Box::new(|b: Vec<u8>| b[..4].to_vec()),
                Expect::Corrupt,
            ),
            (
                "truncated inside config",
                Box::new(|b: Vec<u8>| b[..30].to_vec()),
                Expect::Corrupt,
            ),
            (
                "truncated inside parameters",
                Box::new(|b: Vec<u8>| {
                    let cut = b.len() * 3 / 4;
                    let mut t = b[..cut].to_vec();
                    // Long enough to carry its own (recomputed) checksum,
                    // so the *payload* truncation is what fails.
                    let n = t.len();
                    let check = fnv1a(&t[..n - 8]).to_le_bytes();
                    t[n - 8..].copy_from_slice(&check);
                    t
                }),
                Expect::Corrupt,
            ),
            (
                "last byte missing",
                Box::new(|b: Vec<u8>| b[..b.len() - 1].to_vec()),
                Expect::Corrupt,
            ),
            (
                "checksum bytes flipped",
                Box::new(|mut b: Vec<u8>| {
                    let n = b.len();
                    b[n - 1] ^= 0xFF;
                    b
                }),
                Expect::Corrupt,
            ),
            (
                "header byte corrupted",
                Box::new(|mut b: Vec<u8>| {
                    b[20] ^= 0x10;
                    b
                }),
                Expect::Corrupt,
            ),
            (
                "weight byte corrupted",
                Box::new(|mut b: Vec<u8>| {
                    let mid = b.len() / 2;
                    b[mid] ^= 0x01;
                    b
                }),
                Expect::Corrupt,
            ),
            (
                "bad magic (checksum fixed up)",
                Box::new(move |mut b: Vec<u8>| {
                    b[..8].copy_from_slice(b"NOTSNAPS");
                    fix_checksum(&mut b);
                    b
                }),
                Expect::BadMagic,
            ),
            (
                "future version 3 (checksum fixed up)",
                Box::new(move |mut b: Vec<u8>| {
                    b[8..12].copy_from_slice(&3u32.to_le_bytes());
                    fix_checksum(&mut b);
                    b
                }),
                Expect::UnsupportedVersion(3),
            ),
            (
                "version 0 (checksum fixed up)",
                Box::new(move |mut b: Vec<u8>| {
                    b[8..12].copy_from_slice(&0u32.to_le_bytes());
                    fix_checksum(&mut b);
                    b
                }),
                Expect::UnsupportedVersion(0),
            ),
            (
                "future version u32::MAX (checksum fixed up)",
                Box::new(move |mut b: Vec<u8>| {
                    b[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
                    fix_checksum(&mut b);
                    b
                }),
                Expect::UnsupportedVersion(u32::MAX),
            ),
        ];
        let good = trained_network().to_snapshot_bytes();
        for (name, mutate, expect) in cases {
            let bytes = mutate(good.clone());
            let got = Network::from_snapshot_bytes(&bytes);
            match (expect, got) {
                (Expect::Corrupt, Err(SnapshotError::Corrupt(_))) => {}
                (Expect::BadMagic, Err(SnapshotError::BadMagic)) => {}
                (Expect::UnsupportedVersion(want), Err(SnapshotError::UnsupportedVersion(v)))
                    if v == want => {}
                (_, got) => panic!("case {name:?}: wrong outcome {got:?}"),
            }
        }
    }

    /// Emits `net` in the legacy version-1 layout: no per-layer encoding
    /// tags, every layer f32. This is byte-for-byte what `write_network`
    /// produced before version 2.
    fn v1_bytes(net: &Network) -> Vec<u8> {
        let mut e = Enc::default();
        e.buf.extend_from_slice(MAGIC);
        e.u32(1);
        encode_config(&mut e, net.config());
        for layer in net.layers() {
            let w = layer.weights().to_neuron_major();
            e.u64(w.len() as u64);
            for &v in &w {
                e.f32(v);
            }
            let b = layer.biases();
            e.u64(b.len() as u64);
            for i in 0..b.len() {
                e.f32(b.get(i));
            }
        }
        e.finish()
    }

    #[test]
    fn legacy_v1_snapshots_still_load() {
        let net = trained_network();
        let loaded = read_snapshot_with_centering(&v1_bytes(&net), None).unwrap();
        assert!(loaded.quantized.is_none());
        assert_eq!(loaded.network.config(), net.config());
        for (a, b) in net.layers().iter().zip(loaded.network.layers()) {
            let (wa, wb) = (a.weights().flat(), b.weights().flat());
            for i in 0..wa.len() {
                assert_eq!(wa.get(i).to_bits(), wb.get(i).to_bits(), "weight {i}");
            }
        }
    }

    #[test]
    fn legacy_v1_corruption_still_detected() {
        let mut bytes = v1_bytes(&trained_network());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            Network::from_snapshot_bytes(&bytes),
            Err(SnapshotError::Corrupt("checksum mismatch"))
        ));
    }

    #[test]
    fn quantized_round_trip_bounds_error_and_returns_rows() {
        let net = trained_network();
        let bytes = net.to_quantized_snapshot_bytes();
        let loaded = read_snapshot_with_centering(&bytes, None).unwrap();
        let q = loaded.quantized.as_ref().expect("quantized rows present");
        let out = &net.layers()[1];
        assert_eq!(q.units(), out.units());
        assert_eq!(q.fan_in(), out.fan_in());
        // Hidden layer and all biases are exact.
        let (ha, hb) = (
            net.layers()[0].weights().flat(),
            loaded.network.layers()[0].weights().flat(),
        );
        for i in 0..ha.len() {
            assert_eq!(
                ha.get(i).to_bits(),
                hb.get(i).to_bits(),
                "hidden weight {i}"
            );
        }
        for (a, b) in net.layers().iter().zip(loaded.network.layers()) {
            for i in 0..a.biases().len() {
                assert_eq!(a.biases().get(i).to_bits(), b.biases().get(i).to_bits());
            }
        }
        // Output rows are within half a quantization step, and the
        // network's restored weights equal the dequantized codes exactly
        // (tables and any f32 fallback see the same values).
        let mut row = vec![0.0f32; out.fan_in()];
        let mut deq = vec![0.0f32; out.fan_in()];
        for j in 0..q.units() {
            out.weights().read_row_into(j, &mut row);
            q.dequantize_row(j, &mut deq);
            // Half a quantization step, padded for f32 rounding in the
            // encode (the reciprocal 32767/max is not exact).
            let bound = q.scale(j) * 0.505 + 1e-12;
            for i in 0..row.len() {
                assert!((row[i] - deq[i]).abs() <= bound, "row {j} col {i}");
                assert_eq!(
                    loaded.network.layers()[1].weights().get(j, i).to_bits(),
                    deq[i].to_bits(),
                    "restored weight must equal dequantized code ({j},{i})"
                );
            }
        }
    }

    #[test]
    fn quantized_snapshot_is_smaller() {
        let net = trained_network();
        let f32_len = net.to_snapshot_bytes().len();
        let q_len = net.to_quantized_snapshot_bytes().len();
        // The 60×12 output layer dominates this net; q16 halves its rows.
        assert!(q_len < f32_len, "{q_len} vs {f32_len}");
        let out_w_bytes = 60 * 12 * 4;
        assert!(f32_len - q_len > out_w_bytes / 3, "{q_len} vs {f32_len}");
    }

    #[test]
    fn quantized_corruption_and_bad_tags_detected() {
        let net = trained_network();
        let good = net.to_quantized_snapshot_bytes();
        // Flipped code byte → checksum.
        let mut bytes = good.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            read_snapshot_with_centering(&bytes, None),
            Err(SnapshotError::Corrupt("checksum mismatch"))
        ));
        // Unknown encoding tag (checksum fixed up) → typed error from the
        // payload-size walk, before any allocation.
        let mut ce = Enc::default();
        ce.buf.extend_from_slice(MAGIC);
        ce.u32(VERSION);
        encode_config(&mut ce, net.config());
        let tag_pos = ce.buf.len();
        assert_eq!(good[tag_pos], ENC_F32, "first layer is f32");
        let mut bytes = good.clone();
        bytes[tag_pos] = 7;
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
        assert!(matches!(
            read_snapshot_with_centering(&bytes, None),
            Err(SnapshotError::Corrupt("layer encoding tag"))
        ));
        // Truncation inside the quantized section (own checksum) → size
        // inconsistency.
        let cut = good.len() - 100;
        let mut bytes = good[..cut].to_vec();
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
        assert!(matches!(
            read_snapshot_with_centering(&bytes, None),
            Err(SnapshotError::Corrupt(
                "parameter payload size inconsistent with config"
            ))
        ));
    }

    /// A network with *centered* output-row hashing, so slice tests
    /// exercise the carried centering vector, not just the rows.
    fn centered_network() -> Network {
        let cfg = NetworkConfig::builder(32, 60)
            .hidden(12)
            .output_lsh(
                LshLayerConfig::simhash(3, 6)
                    .with_strategy(SamplingStrategy::TopK { budget: 20 })
                    .with_centered_rows(true),
            )
            .seed(123)
            .build()
            .unwrap();
        let net = Network::new(cfg).unwrap();
        net.layers()[0].weights().set(2, 9, -0.75);
        net.layers()[1].weights().set(41, 3, 2.5);
        net.layers()[1].biases().set(17, 0.25);
        net
    }

    #[test]
    fn slices_reassemble_byte_identically() {
        let net = centered_network();
        for (label, bytes) in [
            ("f32", net.to_snapshot_bytes()),
            ("q16", net.to_quantized_snapshot_bytes()),
            ("v1", v1_bytes(&net)),
        ] {
            for n in [1usize, 2, 3, 7] {
                let slices = slice_snapshot(&bytes, n).unwrap();
                assert_eq!(slices.len(), n, "{label}/{n}");
                let back = assemble_slices(&slices).unwrap();
                assert_eq!(back, bytes, "{label}/{n} reassembly not byte-identical");
                // Order-insensitive: reversed input reassembles too.
                let mut rev = slices.clone();
                rev.reverse();
                assert_eq!(
                    assemble_slices(&rev).unwrap(),
                    bytes,
                    "{label}/{n} reversed"
                );
            }
        }
    }

    #[test]
    fn slice_restores_shard_rows_center_and_codes_bit_identically() {
        let net = centered_network();
        for bytes in [net.to_snapshot_bytes(), net.to_quantized_snapshot_bytes()] {
            let full = read_snapshot_with_centering(&bytes, Some(true)).unwrap();
            let full_out = &full.network.layers()[1];
            let (units, fan_in) = (full_out.units(), full_out.fan_in());
            let slices = slice_snapshot(&bytes, 3).unwrap();
            let mut covered = 0usize;
            for slice in &slices {
                let loaded = read_slice(slice, Some(true)).unwrap();
                let (lo, hi) = (loaded.lo, loaded.hi);
                assert_eq!(loaded.total, units);
                covered += hi - lo;
                let shard_out = &loaded.snapshot.network.layers()[1];
                assert_eq!(shard_out.units(), hi - lo);
                // Rows and biases equal the full layer's, bit for bit.
                for j in 0..hi - lo {
                    for i in 0..fan_in {
                        assert_eq!(
                            shard_out.weights().get(j, i).to_bits(),
                            full_out.weights().get(lo + j, i).to_bits(),
                            "row {j} col {i}"
                        );
                    }
                    assert_eq!(
                        shard_out.biases().get(j).to_bits(),
                        full_out.biases().get(lo + j).to_bits()
                    );
                }
                // Hidden layer identical.
                let (ha, hb) = (
                    full.network.layers()[0].weights().flat(),
                    loaded.snapshot.network.layers()[0].weights().flat(),
                );
                for i in 0..ha.len() {
                    assert_eq!(ha.get(i).to_bits(), hb.get(i).to_bits());
                }
                // The shard's hash codes for its rows equal the full
                // layer's for the same global rows: same family draws,
                // same centering vector.
                let mut full_codes = Vec::new();
                let mut shard_codes = Vec::new();
                full_out.hash_row_range(lo, hi, &mut full_codes);
                shard_out.hash_row_range(0, hi - lo, &mut shard_codes);
                assert_eq!(full_codes, shard_codes, "codes diverged for {lo}..{hi}");
                // Quantized slices return the shard's rows.
                match (&full.quantized, &loaded.snapshot.quantized) {
                    (None, None) => {}
                    (Some(fq), Some(sq)) => {
                        assert_eq!(sq.units(), hi - lo);
                        for j in 0..hi - lo {
                            assert_eq!(sq.scale(j).to_bits(), fq.scale(lo + j).to_bits());
                            assert_eq!(sq.row(j), fq.row(lo + j));
                        }
                    }
                    other => panic!("quantization mismatch: {other:?}"),
                }
            }
            assert_eq!(covered, units, "shards must partition the output layer");
        }
    }

    #[test]
    fn malformed_slice_sets_return_matching_typed_errors() {
        let net = centered_network();
        let bytes = net.to_snapshot_bytes();
        let other = trained_network().to_snapshot_bytes();
        // Table-driven: (case, mutated slice set) → expected typed error.
        type Mutate = Box<dyn Fn(Vec<Vec<u8>>) -> Vec<Vec<u8>>>;
        enum Expect {
            Slice(&'static str),
            Corrupt,
        }
        let other_slices = slice_snapshot(&other, 3).unwrap();
        let cases: Vec<(&'static str, Mutate, Expect)> = vec![
            (
                "empty set",
                Box::new(|_| Vec::new()),
                Expect::Slice("no slices"),
            ),
            (
                "gap (middle slice dropped)",
                Box::new(|mut s: Vec<Vec<u8>>| {
                    s.remove(1);
                    s
                }),
                Expect::Slice("gap between slices"),
            ),
            (
                "missing tail",
                Box::new(|mut s: Vec<Vec<u8>>| {
                    s.pop();
                    s
                }),
                Expect::Slice("slices do not cover the output layer"),
            ),
            (
                "overlap (slice duplicated)",
                Box::new(|mut s: Vec<Vec<u8>>| {
                    let dup = s[1].clone();
                    s.push(dup);
                    s
                }),
                Expect::Slice("overlapping slices"),
            ),
            (
                "slice from a different snapshot",
                Box::new(move |mut s: Vec<Vec<u8>>| {
                    s[1] = other_slices[1].clone();
                    s
                }),
                Expect::Slice("slices come from different snapshots"),
            ),
            (
                "truncated slice",
                Box::new(|mut s: Vec<Vec<u8>>| {
                    let n = s[0].len();
                    s[0].truncate(n - 10);
                    s
                }),
                Expect::Corrupt,
            ),
            (
                "corrupted slice byte",
                Box::new(|mut s: Vec<Vec<u8>>| {
                    let mid = s[2].len() / 2;
                    s[2][mid] ^= 0xFF;
                    s
                }),
                Expect::Corrupt,
            ),
        ];
        for (name, mutate, expect) in cases {
            let slices = mutate(slice_snapshot(&bytes, 3).unwrap());
            let got = assemble_slices(&slices);
            match (expect, got) {
                (Expect::Slice(want), Err(SnapshotError::Slice(what))) if what == want => {}
                (Expect::Corrupt, Err(SnapshotError::Corrupt(_))) => {}
                (_, got) => panic!("case {name:?}: wrong outcome {got:?}"),
            }
        }
        // Degenerate shard counts are typed errors, not panics.
        assert!(matches!(
            slice_snapshot(&bytes, 0),
            Err(SnapshotError::Slice("num_shards must be positive"))
        ));
        assert!(matches!(
            slice_snapshot(&bytes, 61),
            Err(SnapshotError::Slice("more shards than output neurons"))
        ));
        // A slice is not a snapshot, and vice versa.
        let slices = slice_snapshot(&bytes, 2).unwrap();
        assert!(matches!(
            Network::from_snapshot_bytes(&slices[0]),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            read_slice(&bytes, None),
            Err(SnapshotError::BadMagic)
        ));
    }

    /// Overwrites the trailing checksum so a mutation reaches the checks
    /// behind it (FNV is not tamper-proof).
    fn fix_checksum(bytes: &mut [u8]) {
        if let Some(n) = bytes.len().checked_sub(8) {
            let check = fnv1a(&bytes[..n]).to_le_bytes();
            bytes[n..].copy_from_slice(&check);
        }
    }

    /// A slice of a single-layer network of `input_dim` inputs whose
    /// header and embedded config claim an output layer of `total`
    /// neurons, holding rows `lo..hi`; `tail` follows the centering
    /// vector (its enc tag, rows and biases).
    fn crafted_slice(input_dim: usize, lo: u64, hi: u64, total: u64, tail: &[u8]) -> Vec<u8> {
        let mut config = NetworkConfig::builder(input_dim, 4).build().unwrap();
        config.layers[0].units = total as usize;
        let mut prefix = Enc::default();
        prefix.buf.extend_from_slice(MAGIC);
        prefix.u32(VERSION);
        encode_config(&mut prefix, &config);
        let mut e = Enc::default();
        e.buf.extend_from_slice(SLICE_MAGIC);
        e.u32(SLICE_VERSION);
        e.u32(VERSION);
        for v in [lo, hi, total, prefix.buf.len() as u64] {
            e.u64(v);
        }
        e.buf.extend_from_slice(&prefix.buf);
        e.u64(0);
        e.buf.extend_from_slice(tail);
        e.finish()
    }

    #[test]
    fn read_slice_rejects_malformed_slices_with_typed_errors() {
        enum Expect {
            Corrupt,
            BadMagic,
            UnsupportedVersion(u32),
            Slice(&'static str),
        }
        // Header offsets: magic 0..8, slice version 8..12, snapshot
        // version 12..16, lo 16..24, hi 24..32, total 32..40, prefix
        // length 40..48, prefix from 48.
        let set = |at: usize, v: &[u8]| -> Box<dyn Fn(Vec<u8>) -> Vec<u8>> {
            let v = v.to_vec();
            Box::new(move |mut b: Vec<u8>| {
                b[at..at + v.len()].copy_from_slice(&v);
                fix_checksum(&mut b);
                b
            })
        };
        type Case = (&'static str, Box<dyn Fn(Vec<u8>) -> Vec<u8>>, Expect);
        let cases: Vec<Case> = vec![
            ("empty", Box::new(|_| Vec::new()), Expect::Corrupt),
            (
                "truncated",
                Box::new(|b: Vec<u8>| b[..b.len() - 10].to_vec()),
                Expect::Corrupt,
            ),
            (
                "truncated, checksum fixed up",
                Box::new(|b: Vec<u8>| {
                    let mut t = b[..b.len() - 10].to_vec();
                    fix_checksum(&mut t);
                    t
                }),
                Expect::Corrupt,
            ),
            (
                "trailing byte, checksum fixed up",
                Box::new(|mut b: Vec<u8>| {
                    b.push(0);
                    fix_checksum(&mut b);
                    b
                }),
                Expect::Corrupt,
            ),
            (
                "corrupted byte",
                Box::new(|mut b: Vec<u8>| {
                    let mid = b.len() / 2;
                    b[mid] ^= 0x40;
                    b
                }),
                Expect::Corrupt,
            ),
            ("bad magic", set(0, b"SLIDSNAP"), Expect::BadMagic),
            (
                "slice version 2",
                set(8, &2u32.to_le_bytes()),
                Expect::UnsupportedVersion(2),
            ),
            (
                "snapshot version 3",
                set(12, &3u32.to_le_bytes()),
                Expect::UnsupportedVersion(3),
            ),
            (
                "embedded snapshot version differs",
                set(12, &1u32.to_le_bytes()),
                Expect::Corrupt,
            ),
            (
                "empty neuron range",
                set(24, &20u64.to_le_bytes()),
                Expect::Slice("invalid neuron range"),
            ),
            (
                "range past total",
                set(24, &61u64.to_le_bytes()),
                Expect::Slice("invalid neuron range"),
            ),
            (
                "total differs from the embedded config",
                set(32, &61u64.to_le_bytes()),
                Expect::Slice("total differs from embedded config"),
            ),
            (
                "range and total inflated",
                set(
                    24,
                    &[u64::MAX.to_le_bytes(), u64::MAX.to_le_bytes()].concat(),
                ),
                Expect::Slice("total differs from embedded config"),
            ),
            (
                "prefix length inflated",
                set(40, &u64::MAX.to_le_bytes()),
                Expect::Corrupt,
            ),
            (
                "prefix length short by one",
                Box::new(|mut b: Vec<u8>| {
                    let len = u64::from_le_bytes(b[40..48].try_into().unwrap());
                    b[40..48].copy_from_slice(&(len - 1).to_le_bytes());
                    fix_checksum(&mut b);
                    b
                }),
                Expect::Corrupt,
            ),
        ];
        let net = centered_network();
        let good = slice_snapshot(&net.to_snapshot_bytes(), 3).unwrap()[1].clone();
        for (name, mutate, expect) in cases {
            let got = read_slice(&mutate(good.clone()), Some(true)).map(|s| s.lo);
            match (expect, got) {
                (Expect::Corrupt, Err(SnapshotError::Corrupt(_))) => {}
                (Expect::BadMagic, Err(SnapshotError::BadMagic)) => {}
                (Expect::UnsupportedVersion(want), Err(SnapshotError::UnsupportedVersion(v)))
                    if v == want => {}
                (Expect::Slice(want), Err(SnapshotError::Slice(what))) if what == want => {}
                (_, got) => panic!("case {name:?}: wrong outcome {got:?}"),
            }
        }
        // Header fields that agree with each other but describe a layer
        // too large to exist fail typed: q16 rows of 2^62 neurons (their
        // scales alone would take 2^64 bytes), and f32 rows whose byte
        // count overflows.
        for (input_dim, hi, enc) in [(1, 1u64 << 62, ENC_Q16), (4, 1u64 << 62, ENC_F32)] {
            let slice = crafted_slice(input_dim, 0, hi, hi, &[enc]);
            assert!(
                matches!(read_slice(&slice, None), Err(SnapshotError::Corrupt(_))),
                "{input_dim}/{enc}"
            );
        }
        // A v1 slice carries f32 rows only.
        let v1 = slice_snapshot(&v1_bytes(&net), 3).unwrap()[0].clone();
        let enc_at = v1.len() - 8 - 20 * 4 - 20 * 12 * 4 - 1;
        assert_eq!(v1[enc_at], ENC_F32);
        let mut q = v1.clone();
        q[enc_at] = ENC_Q16;
        fix_checksum(&mut q);
        assert!(matches!(
            read_slice(&q, None),
            Err(SnapshotError::Corrupt("layer encoding tag"))
        ));
    }

    /// Byte positions, within `encode_config`'s output for `config`, that
    /// change when `edit` is applied: the bytes of the edited fields.
    fn config_field_bytes(config: &NetworkConfig, edit: impl Fn(&mut NetworkConfig)) -> Vec<usize> {
        let (mut a, mut b) = (Enc::default(), Enc::default());
        let mut edited = config.clone();
        edit(&mut edited);
        encode_config(&mut a, config);
        encode_config(&mut b, &edited);
        assert_eq!(a.buf.len(), b.buf.len(), "edits must keep the layout");
        (0..a.buf.len()).filter(|&i| a.buf[i] != b.buf[i]).collect()
    }

    /// A seed input for the mutation property: the bytes, where the
    /// embedded config starts in them, and the offsets of the length and
    /// count fields worth inflating.
    struct Seed {
        bytes: Vec<u8>,
        config_at: usize,
        counts: Vec<usize>,
    }

    /// Snapshots (f32, q16, v1) and slices of each, with their count
    /// fields: input_dim, n_layers and every layer's units in the
    /// config; every section's weight and bias counts; a slice's lo, hi,
    /// total, prefix and center lengths.
    fn mutation_seeds(net: &Network) -> (Vec<Seed>, Vec<Seed>) {
        let config = net.config();
        let dims: Vec<usize> = config_field_bytes(config, |c| {
            c.input_dim = usize::MAX;
            for l in &mut c.layers {
                l.units = usize::MAX;
            }
        })
        .chunks(8)
        .map(|c| c[0])
        .chain([45 - 12])
        .collect();
        let mut snapshots = Vec::new();
        let mut slices = Vec::new();
        for bytes in [
            net.to_snapshot_bytes(),
            net.to_quantized_snapshot_bytes(),
            v1_bytes(net),
        ] {
            let snap = parse_snapshot(&bytes).unwrap();
            let tag = usize::from(snap.version >= 2);
            let mut counts: Vec<usize> = dims.iter().map(|&o| o + 12).collect();
            for sec in &snap.sections {
                counts.push(sec.start + tag);
                counts.push(sec.start + tag + 8 + sec.scales.len() + sec.rows.len());
            }
            for slice in slice_snapshot(&bytes, 3).unwrap() {
                let prefix_len = snap.prefix.len();
                let mut slice_counts = vec![16, 24, 32, 40, 48 + prefix_len];
                slice_counts.extend(counts.iter().filter(|&&o| o < prefix_len).map(|&o| o + 48));
                slices.push(Seed {
                    bytes: slice,
                    config_at: 48 + 12,
                    counts: slice_counts,
                });
            }
            snapshots.push(Seed {
                bytes,
                config_at: 12,
                counts,
            });
        }
        (snapshots, slices)
    }

    /// Applies mutation `kind` to `bytes`, drawing positions from `pick`;
    /// `None` when the mutation would land on a skipped byte.
    fn mutate(seed: &Seed, geometry: &[usize], kind: u64, pick: u64, bit: u32) -> Option<Vec<u8>> {
        let mut b = seed.bytes.clone();
        let at = (pick % b.len() as u64) as usize;
        match kind {
            // Bit flip, checksum fixed up so it reaches the decoder.
            0 | 1 => {
                if geometry.iter().any(|&g| g + seed.config_at == at) {
                    return None;
                }
                b[at] ^= 1 << bit;
                if kind == 0 {
                    fix_checksum(&mut b);
                }
            }
            // Truncation with a recomputed checksum.
            2 => {
                b.truncate(at);
                fix_checksum(&mut b);
            }
            // An inflated length or count field.
            _ => {
                let field = seed.counts[(pick % seed.counts.len() as u64) as usize];
                let old = u32::from_le_bytes(b[field..field + 4].try_into().unwrap()) as u64;
                let value = [
                    1u64 << 63,
                    u64::MAX,
                    1 << 40,
                    1 << 32,
                    old + 1,
                    old.wrapping_sub(1),
                    old << 20,
                    old << 31,
                ][bit as usize];
                // n_layers is the one u32 count field.
                let width = if field == seed.config_at + 33 { 4 } else { 8 };
                b[field..field + width].copy_from_slice(&value.to_le_bytes()[..width]);
                fix_checksum(&mut b);
            }
        }
        Some(b)
    }

    proptest! {
        /// Mutated snapshots and slice sets never panic a decoder; each
        /// call returns a typed error or `Ok`, and an f32 v2 snapshot
        /// that still decodes re-encodes to exactly its bytes. Flips of
        /// the LSH table-geometry fields (k, l, table_bits,
        /// bucket_capacity) are skipped: they yield valid configs whose
        /// hash tables can take gigabytes, which no size check against
        /// the input can catch.
        #[test]
        fn prop_mutated_snapshots_and_slices_decode_typed(
            which in 0usize..6,
            kind in 0u64..4,
            pick in 0u64..u64::MAX,
            bit in 0u32..8,
        ) {
            thread_local! {
                static SEEDS: (Vec<Seed>, Vec<Seed>, Vec<usize>) = {
                    let net = centered_network();
                    let (snapshots, slices) = mutation_seeds(&net);
                    let geometry = config_field_bytes(net.config(), |c| {
                        for lsh in c.layers.iter_mut().filter_map(|l| l.lsh.as_mut()) {
                            lsh.k = usize::MAX;
                            lsh.l = usize::MAX;
                            lsh.table_bits = u32::MAX;
                            lsh.bucket_capacity = usize::MAX;
                        }
                    });
                    (snapshots, slices, geometry)
                };
            }
            SEEDS.with(|(snapshots, slices, geometry)| {
                if which < 3 {
                    let seed = &snapshots[which];
                    let Some(bytes) = mutate(seed, geometry, kind, pick, bit) else {
                        return Ok(());
                    };
                    let loaded = read_snapshot_with_centering(&bytes, None);
                    if let (0, Ok(loaded)) = (which, &loaded) {
                        prop_assert!(
                            write_network(&loaded.network) == bytes,
                            "decoded mutant does not re-encode to its bytes"
                        );
                    }
                    if let Ok(parts) = slice_snapshot(&bytes, 3) {
                        prop_assert!(
                            assemble_slices(&parts).ok().as_ref() == Some(&bytes),
                            "slices of a decodable mutant do not reassemble to it"
                        );
                    }
                } else {
                    let i = (which - 3) * 3 + (pick % 3) as usize;
                    let Some(bytes) = mutate(&slices[i], geometry, kind, pick / 3, bit) else {
                        return Ok(());
                    };
                    let _ = read_slice(&bytes, Some(true));
                    let mut set: Vec<Vec<u8>> =
                        slices[(which - 3) * 3..][..3].iter().map(|s| s.bytes.clone()).collect();
                    set[i % 3] = bytes;
                    let _ = assemble_slices(&set);
                }
                Ok(())
            })?;
        }
    }

    #[test]
    fn file_round_trip() {
        let net = trained_network();
        let path = std::env::temp_dir().join("slide_snapshot_test.slidesnap");
        net.save_snapshot(&path).unwrap();
        let restored = Network::load_snapshot(&path).unwrap();
        assert_eq!(restored.config(), net.config());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::UnsupportedVersion(7)
            .to_string()
            .contains('7'));
        assert!(SnapshotError::Corrupt("x").to_string().contains('x'));
    }
}
