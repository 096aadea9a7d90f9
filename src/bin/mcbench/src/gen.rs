//! The benchmark's own input generators. Every input is a pure function
//! of the run seed, so a seed names an input exactly.

use mc_core::MonotoneClassifier;
use std::io::{self, Write};

/// SplitMix64 finalizer, the counter-based generator the repository's
/// scale family is defined by.
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

/// Seed of a run's `k`-th input: the run seed itself for the first, so a
/// run seed still names one input exactly.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        mix(seed, k as u64, 0x5EED_5EED)
    }
}

/// A sequential stream over the same generator, for the inputs that are
/// drawn in order rather than addressed by `(point, dim)`.
#[derive(Debug, Clone)]
pub struct Stream {
    seed: u64,
    counter: u64,
}

impl Stream {
    /// A stream for `seed`; `salt` separates the streams of one run.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self {
            seed: splitmix64(seed ^ salt),
            counter: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        mix(self.seed, self.counter, 0)
    }

    /// A uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// A uniform integer in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The banded minority-positive scale family: coordinates uniform in
/// `[0, 1)`, label 1 iff the coordinate mean exceeds `threshold`, except
/// inside a band of half-width `band` around it where labels are coin
/// flips. A copy of `mc_data::columnar::ScaleConfig`, kept here so the
/// benchmark's inputs cannot change under it; a unit test holds the two
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleFamily {
    /// Number of points.
    pub n: usize,
    /// Dimensions.
    pub dim: usize,
    /// Generator seed.
    pub seed: u64,
    /// Label threshold on the coordinate mean.
    pub threshold: f64,
    /// Half-width of the coin-flip band.
    pub band: f64,
}

impl ScaleFamily {
    fn value(&self, i: usize, k: usize) -> f64 {
        unit(mix(self.seed, i as u64, k as u64 + 1))
    }

    fn label(&self, i: usize) -> u8 {
        let mean = (0..self.dim).map(|k| self.value(i, k)).sum::<f64>() / self.dim as f64;
        let one = if (mean - self.threshold).abs() < self.band {
            mix(self.seed, i as u64, 0) & 1 == 1
        } else {
            mean > self.threshold
        };
        u8::from(one)
    }

    fn weight(&self, i: usize) -> f64 {
        1.0 + unit(mix(self.seed ^ 0x57EA_D715, i as u64, 0))
    }

    /// Writes the family in the `MCC1` columnar format.
    pub fn write_mcc1(&self, out: &mut impl Write) -> io::Result<()> {
        let columns: Vec<Vec<f64>> = (0..self.dim)
            .map(|k| (0..self.n).map(|i| self.value(i, k)).collect())
            .collect();
        let labels: Vec<u8> = (0..self.n).map(|i| self.label(i)).collect();
        let weights: Vec<f64> = (0..self.n).map(|i| self.weight(i)).collect();
        write_mcc1(out, &columns, &labels, &weights)
    }
}

/// Writes `MCC1` bytes: magic, `dim` as u32 LE, `n` as u64 LE, the
/// columns as f64 LE, one label byte per point, then the weights.
pub fn write_mcc1(
    out: &mut impl Write,
    columns: &[Vec<f64>],
    labels: &[u8],
    weights: &[f64],
) -> io::Result<()> {
    let n = labels.len();
    out.write_all(b"MCC1")?;
    out.write_all(&(columns.len() as u32).to_le_bytes())?;
    out.write_all(&(n as u64).to_le_bytes())?;
    for column in columns {
        assert_eq!(column.len(), n, "column length");
        for v in column {
            out.write_all(&v.to_le_bytes())?;
        }
    }
    out.write_all(labels)?;
    for w in weights {
        out.write_all(&w.to_le_bytes())?;
    }
    Ok(())
}

/// `width` chains of `len` points in 3-D. Chain `c`'s `x` block sits
/// above and its `y` block below those of every later chain, so no point
/// of one chain is comparable to a point of another; `z` rises along
/// each chain with the position. Each chain gets a clean label boundary
/// at a random position (below it 0, from it on 1), labels flip with
/// probability `noise`, and the point order is shuffled.
#[derive(Debug, Clone)]
pub struct ChainSet {
    /// Row-major coordinates, 3 per point.
    pub coords: Vec<f64>,
    /// Labels, 0 or 1.
    pub labels: Vec<u8>,
    /// Point indices of each chain, in ascending dominance order.
    pub chains: Vec<Vec<usize>>,
}

impl ChainSet {
    /// Dimensions of the layout.
    pub const DIM: usize = 3;

    /// Generates the layout from `seed`.
    pub fn generate(width: usize, len: usize, noise: f64, seed: u64) -> Self {
        let mut rng = Stream::new(seed, 0xC4A1_5E75);
        let n = width * len;
        let block = (len + 2) as f64;
        // Shuffled slot of each generated point.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut coords = vec![0.0; n * Self::DIM];
        let mut labels = vec![0u8; n];
        let mut chains = Vec::with_capacity(width);
        for c in 0..width {
            let boundary = rng.below(len + 1);
            let mut chain = Vec::with_capacity(len);
            for t in 0..len {
                let slot = order[c * len + t];
                let p = &mut coords[slot * Self::DIM..(slot + 1) * Self::DIM];
                p[0] = c as f64 * block + t as f64 + 1.0;
                p[1] = (width - 1 - c) as f64 * block + t as f64 + 1.0;
                p[2] = t as f64 + 1.0;
                let clean = t >= boundary;
                let flip = rng.unit() < noise;
                labels[slot] = u8::from(clean != flip);
                chain.push(slot);
            }
            chains.push(chain);
        }
        Self {
            coords,
            labels,
            chains,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Writes the set as `MCC1` with unit weights.
    pub fn write_mcc1(&self, out: &mut impl Write) -> io::Result<()> {
        let n = self.len();
        let columns: Vec<Vec<f64>> = (0..Self::DIM)
            .map(|k| (0..n).map(|i| self.coords[i * Self::DIM + k]).collect())
            .collect();
        write_mcc1(out, &columns, &self.labels, &vec![1.0; n])
    }

    /// The exact optimum `k*`: with no point comparable across chains, a
    /// classifier is monotone iff it is monotone on each chain, so `k*`
    /// is the sum of the per-chain 1-D optima (best suffix of ones).
    pub fn optimal_error(&self) -> u64 {
        self.chains
            .iter()
            .map(|chain| {
                // Start with every point classified 1: the errors are the zeros.
                let zeros = chain.iter().filter(|&&i| self.labels[i] == 0).count() as u64;
                let mut best = zeros;
                let mut err = zeros;
                for &i in chain {
                    // Move the boundary past point i (i is now classified 0).
                    if self.labels[i] == 0 {
                        err -= 1;
                    } else {
                        err += 1;
                    }
                    best = best.min(err);
                }
                best
            })
            .sum()
    }
}

/// Dimensions of the served model.
pub const MODEL_DIM: usize = 4;

/// `count` anchors on the hyperplane `x₁ + … + x₄ = 2`. Two distinct
/// points with the same coordinate sum never dominate each other, so
/// the anchors form an antichain and the model keeps every one of them.
pub fn antichain_anchors(count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Stream::new(seed, 0xA7C4_0125);
    (0..count).map(|_| on_plane(&mut rng, 2.0)).collect()
}

fn on_plane(rng: &mut Stream, sum: f64) -> Vec<f64> {
    let u: Vec<f64> = (0..MODEL_DIM).map(|_| 1.0 - rng.unit()).collect();
    let total: f64 = u.iter().sum();
    u.iter().map(|v| sum * v / total).collect()
}

/// `count` query points spread around the anchor plane (coordinate sums
/// from 1.7 to 2.3), so that both labels occur and the index has to
/// narrow its bitset for most of them.
pub fn query_points(count: usize, seed: u64) -> Vec<f64> {
    let mut rng = Stream::new(seed, 0x9E5E_0001);
    let mut out = Vec::with_capacity(count * MODEL_DIM);
    for _ in 0..count {
        let sum = 1.7 + 0.6 * rng.unit();
        out.extend(on_plane(&mut rng, sum));
    }
    out
}

/// Expected labels for `points` (flat, `MODEL_DIM` per row) from the
/// naive anchor scan.
pub fn naive_labels(model: &MonotoneClassifier, points: &[f64]) -> Vec<u8> {
    points
        .chunks_exact(MODEL_DIM)
        .map(|p| model.classify(p).as_u8())
        .collect()
}

/// A single-point classify frame written with spaces, which the server's
/// classify fast path rejects, so it goes through the generic JSON parser.
pub fn spaced_point_frame(p: &[f64]) -> Vec<u8> {
    let cells: Vec<String> = p.iter().map(|v| v.to_string()).collect();
    format!(
        "{{\"op\": \"classify\", \"points\": [[{}]]}}",
        cells.join(", ")
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_data::columnar::{write_scale_dataset, ScaleConfig};

    fn library_bytes(family: &ScaleFamily, name: &str) -> Vec<u8> {
        let path = std::env::temp_dir().join(format!("mcbench_{}_{name}.mcc", std::process::id()));
        let config = ScaleConfig {
            threshold: family.threshold,
            band: family.band,
            ..ScaleConfig::new(family.n, family.dim, family.seed)
        };
        write_scale_dataset(&path, &config).expect("library writer");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn scale_family_is_byte_identical_to_the_library_writer() {
        for (name, family) in [
            (
                "match",
                crate::passive::Shape::Match.family(20_000, 379_422),
            ),
            ("sweep", crate::passive::Shape::Sweep.family(20_000, 7)),
        ] {
            let mut ours = Vec::new();
            family.write_mcc1(&mut ours).unwrap();
            assert_eq!(ours, library_bytes(&family, name), "{name}");
        }
        // The library's defaults are the passive-match shape's.
        let default = ScaleConfig::new(10, 3, 1);
        let family = crate::passive::Shape::Match.family(10, 1);
        assert_eq!(
            (default.threshold, default.band),
            (family.threshold, family.band)
        );
    }

    #[test]
    fn chains_are_chains_and_mutually_incomparable() {
        let set = ChainSet::generate(4, 50, 0.05, 11);
        let p = |i: usize| &set.coords[i * 3..i * 3 + 3];
        let dominates = |a: usize, b: usize| (0..3).all(|k| p(a)[k] >= p(b)[k]);
        let mut seen = vec![false; set.len()];
        for (c, chain) in set.chains.iter().enumerate() {
            for w in chain.windows(2) {
                assert!(dominates(w[1], w[0]) && !dominates(w[0], w[1]));
            }
            for &i in chain {
                assert!(!std::mem::replace(&mut seen[i], true), "point {i} twice");
                for other in set.chains.iter().skip(c + 1).flatten() {
                    assert!(!dominates(i, *other) && !dominates(*other, i));
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn optimal_error_is_exact_on_a_small_chain_set() {
        // Brute force over every per-chain boundary.
        for seed in 0..20 {
            let set = ChainSet::generate(3, 7, 0.3, seed);
            let brute: u64 = set
                .chains
                .iter()
                .map(|chain| {
                    (0..=chain.len())
                        .map(|b| {
                            chain
                                .iter()
                                .enumerate()
                                .filter(|&(t, &i)| u8::from(t >= b) != set.labels[i])
                                .count() as u64
                        })
                        .min()
                        .unwrap()
                })
                .sum();
            assert_eq!(set.optimal_error(), brute, "seed {seed}");
        }
    }

    #[test]
    fn the_model_keeps_every_anchor() {
        let model = MonotoneClassifier::from_anchors(MODEL_DIM, antichain_anchors(4096, 379_422));
        assert_eq!(model.anchors().len(), 4096);
        let csv = mc_data::csv::classifier_to_csv(&model);
        assert_eq!(
            mc_data::csv::classifier_from_csv_auto(&csv).unwrap(),
            model,
            "the model file must carry the anchors exactly"
        );
        let labels = naive_labels(&model, &query_points(2000, 379_422));
        let ones = labels.iter().filter(|&&l| l == 1).count();
        assert!(ones > 100 && ones < 1900, "both labels must occur: {ones}");
    }

    #[test]
    fn spaced_frames_take_the_generic_parser() {
        let frame = spaced_point_frame(&[0.5, 1.25, 0.0, 2.0]);
        assert!(mc_serve::json_in::fast_classify_frame(&frame).is_none());
        match mc_serve::protocol::parse_request(&frame).unwrap() {
            mc_serve::Request::Classify { data, dim, n } => {
                assert_eq!((data, dim, n), (vec![0.5, 1.25, 0.0, 2.0], 4, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
