//! `passive-match` and `passive-sweep`: the streaming passive solve
//! (`solve_passive_scale`) on the banded scale family. The two shapes
//! split the same solve differently: at d=3 the Lemma-6 matching
//! dominates, at d=5 with the lower threshold the ladder zero sweep and
//! the flow do.
//!
//! Solve time varies by up to 1.6× between inputs of one shape (the
//! number of Hopcroft–Karp phases differs), so a run solves [`INPUTS`]
//! inputs drawn from its seed in turn and reports over all of them.

use crate::gen::{self, ScaleFamily};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{end_to_end, ms, obs_counters, per_layer, stats, with_obs, Ctx, DEFAULT_SEED};
use mc_chains::ChainDecomposition;
use mc_core::passive::{certify_passive, solve_passive_scale, ScaleSolution};
use mc_data::columnar::{ColumnarDataset, ColumnarError};
use mc_geom::{Label, RankOracle, RankTable};
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

/// Inputs per run; each is solved at least twice, so every answer is
/// checked against the input's first one.
const INPUTS: usize = 8;

/// The two passive workloads.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// d=3, n=100,000, threshold 0.82: matching-bound.
    Match,
    /// d=5, n=200,000, threshold 0.80: sweep- and flow-bound.
    Sweep,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Match => "passive-match",
            Shape::Sweep => "passive-sweep",
        }
    }

    fn n(self) -> usize {
        match self {
            Shape::Match => 100_000,
            Shape::Sweep => 200_000,
        }
    }

    /// The scale family of this shape with `n` points.
    pub fn family(self, n: usize, seed: u64) -> ScaleFamily {
        let (dim, threshold) = match self {
            Shape::Match => (3, 0.82),
            Shape::Sweep => (5, 0.80),
        };
        ScaleFamily {
            n,
            dim,
            seed,
            threshold,
            band: 0.02,
        }
    }

    /// The answer for the first input at [`DEFAULT_SEED`].
    fn golden(self) -> Answer {
        match self {
            Shape::Match => Answer {
                weighted_error: 638.6519285541411,
                width: 519,
                contending: 1061,
            },
            Shape::Sweep => Answer {
                weighted_error: 38.02546192134591,
                width: 1140,
                contending: 60,
            },
        }
    }
}

/// What a solve must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Answer {
    weighted_error: f64,
    width: usize,
    contending: usize,
}

impl Answer {
    fn of(s: &ScaleSolution) -> Self {
        Self {
            weighted_error: s.weighted_error,
            width: s.width,
            contending: s.contending_zeros + s.contending_ones,
        }
    }

    fn agrees(&self, other: &Answer) -> bool {
        self.width == other.width
            && self.contending == other.contending
            && close(self.weighted_error, other.weighted_error)
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(1.0)
}

/// One input as the program holds it, with the answer its solves must
/// reproduce.
struct Input {
    path: PathBuf,
    table: RankTable,
    labels: Vec<Label>,
    weights: Vec<f64>,
    /// The golden answer, or else the input's first solve.
    reference: Option<Answer>,
}

fn columnar(e: ColumnarError) -> io::Error {
    io::Error::other(e.to_string())
}

/// The program's set-up before a solve: open the MCC1 file, rank its
/// columns, read labels and weights.
fn load(path: PathBuf) -> io::Result<Input> {
    let mut ds = ColumnarDataset::open(&path).map_err(columnar)?;
    Ok(Input {
        table: ds.rank_table().map_err(columnar)?,
        labels: ds.read_labels().map_err(columnar)?,
        weights: ds.read_weights().map_err(columnar)?,
        path,
        reference: None,
    })
}

/// Runs one passive workload.
pub fn run(shape: Shape, ctx: &Ctx) -> io::Result<Outcome> {
    let mut inputs = Vec::with_capacity(INPUTS);
    let mut setup = Vec::with_capacity(INPUTS);
    let mut written = Vec::with_capacity(INPUTS);
    let result = (|| {
        for k in 0..INPUTS {
            let family = shape.family(shape.n(), gen::sub_seed(ctx.seed, k));
            let path = ctx.input(&format!("{}-{k}.mcc", shape.name()));
            written.push(path.clone());
            let mut w = BufWriter::new(std::fs::File::create(&path)?);
            family.write_mcc1(&mut w)?;
            w.flush()?;
            drop(w);
            let t = Instant::now();
            let mut input = black_box(load(path)?);
            setup.push(t.elapsed().as_secs_f64());
            if k == 0 && ctx.seed == DEFAULT_SEED {
                input.reference = Some(shape.golden());
            }
            inputs.push(input);
        }
        if ctx.trace {
            traced(ctx, &mut inputs, &setup)
        } else {
            plain(ctx, &mut inputs, setup)
        }
    })();
    for path in written {
        std::fs::remove_file(path)?;
    }
    result
}

/// Times one solve and checks it against the input's reference.
fn solve_checked(input: &mut Input, out: &mut Outcome) -> (ScaleSolution, f64) {
    let t = Instant::now();
    let s = black_box(solve_passive_scale(
        &input.table,
        &input.labels,
        &input.weights,
    ));
    let elapsed = ms(t.elapsed());
    let got = Answer::of(&s);
    let want = *input.reference.get_or_insert(got);
    out.check(got.agrees(&want), &format!("solve {got:?} != {want:?}"));
    (s, elapsed)
}

/// Whether to start solve number `done`: whole passes over the inputs,
/// at least two, until the run's time is up.
fn keep_going(ctx: &Ctx, start: Instant, done: usize) -> bool {
    done < 2 * INPUTS || !done.is_multiple_of(INPUTS) || start.elapsed().as_secs_f64() < ctx.seconds
}

fn plain(ctx: &Ctx, inputs: &mut [Input], mut setup: Vec<f64>) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut solves_ms = Vec::new();
    let start = Instant::now();
    while keep_going(ctx, start, solves_ms.len()) {
        let k = solves_ms.len() % INPUTS;
        // The load is timed again before every solve, so the set-up
        // median spans the run as the solve times do, not its first second.
        let t = Instant::now();
        black_box(load(inputs[k].path.clone())?);
        setup.push(t.elapsed().as_secs_f64());
        solves_ms.push(solve_checked(&mut inputs[k], &mut out).1);
    }
    let median_s = stats::median(&solves_ms) / 1e3;
    end_to_end(
        &mut out,
        &setup,
        &solves_ms,
        inputs[0].table.len() as f64 / median_s,
        mc_obs::peak_rss_bytes(),
    );
    let first = inputs[0].reference.expect("input 0 was solved");
    out.diag("input0.weighted_error", first.weighted_error, "weight");
    out.diag("input0.width", first.width as f64, "chains");
    out.diag("input0.contending", first.contending as f64, "points");
    Ok(out)
}

fn traced(ctx: &Ctx, inputs: &mut [Input], setup: &[f64]) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let never = mc_obs::CancelToken::never();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    // Per traced solve: each stage's share of it, and the counters.
    let mut shares: Vec<[f64; 3]> = Vec::new();
    let mut counts: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut decompose_vs_path_cover = Vec::new();
    let start = Instant::now();
    // Untraced and traced solves of the same input alternate, so their
    // ratio is the overhead of the library's own instrumentation plus
    // these spans.
    while keep_going(ctx, start, traced_ms.len()) {
        let input = &mut inputs[traced_ms.len() % INPUTS];
        let plain = solve_checked(input, &mut out).1;
        let ((s, t), snap) =
            with_obs(|| tracer.time("passive.solve", |_| solve_checked(input, &mut out).0));
        let traced = ms(t);
        // The solve's first two stages, repeated through their public
        // entry points; the rest of the solve is the ladder and the flow.
        let ones: Vec<usize> = (0..input.labels.len())
            .filter(|&i| input.labels[i].is_one())
            .collect();
        let (oracle, gather) = tracer.time("geom.gather", |_| {
            RankOracle::try_from_table_subset(&input.table, &ones, &never)
                .expect("a never-token cannot cancel")
        });
        let (dec, decompose) = tracer.time("chains.decompose", |_| {
            ChainDecomposition::compute_from_oracle(&oracle)
        });
        out.check(
            dec.width() == s.width,
            "decomposition width differs from the solve's",
        );
        let (gather, decompose) = (ms(gather) / traced, ms(decompose) / traced);
        shares.push([gather, decompose, 1.0 - gather - decompose]);
        let path_cover_ns: u64 = snap
            .spans
            .iter()
            .filter(|x| x.name == "path_cover")
            .map(|x| x.total_ns)
            .sum();
        decompose_vs_path_cover.push(decompose * traced / (path_cover_ns as f64 / 1e6));
        let zeros = input.labels.len() - ones.len();
        let mut c = obs_counters(&snap);
        c.push((
            "passive.sweep_hit_rate",
            s.contending_zeros as f64 / zeros.max(1) as f64,
        ));
        counts.push(c);
        plain_ms.push(plain);
        traced_ms.push(traced);
    }

    // Audit one answer independently: the dual certificate must verify
    // against the raw data and certify the same optimum.
    let ws = ColumnarDataset::open(&inputs[0].path)
        .and_then(|mut ds| ds.to_weighted_set())
        .map_err(columnar)?;
    let ((sol, cert), _) = tracer.time("core.certify", |_| certify_passive(&ws));
    let want = inputs[0]
        .reference
        .expect("input 0 was solved")
        .weighted_error;
    let verified = cert.verify(&ws);
    out.check(
        verified.is_ok() && close(sol.weighted_error, want) && close(cert.optimal_error, want),
        &format!(
            "certificate: {verified:?}, error {} vs {want}",
            sol.weighted_error
        ),
    );

    let share = |i: usize| stats::median(&shares.iter().map(|s| s[i]).collect::<Vec<_>>());
    let (gather, decompose, ladder_flow) = (share(0), share(1), share(2));
    let overhead: Vec<f64> = traced_ms
        .iter()
        .zip(&plain_ms)
        .map(|(t, p)| t / p - 1.0)
        .collect();
    let mut values = vec![
        (
            "trace.latency_p50_ms",
            stats::nearest_rank(&stats::sorted(&traced_ms), 0.5),
        ),
        ("trace_overhead_frac", stats::median(&overhead)),
        (
            "unattributed_frac",
            1.0 - (gather + decompose + ladder_flow),
        ),
        ("geom.gather_frac", gather),
        ("chains.decompose_frac", decompose),
        ("core.ladder_flow_frac", ladder_flow),
    ];
    // Every traced solve lists the same counters in the same order.
    for (i, &(name, _)) in counts[0].iter().enumerate() {
        let v: Vec<f64> = counts.iter().map(|c| c[i].1).collect();
        values.push((name, stats::nearest_rank(&stats::sorted(&v), 0.5)));
    }
    per_layer(&mut out, &values);
    out.diag("setup_s", stats::median(setup), "s");
    out.diag(
        "decompose_vs_path_cover",
        stats::median(&decompose_vs_path_cover),
        "ratio",
    );
    out.diag("traced_solves", traced_ms.len() as f64, "count");
    out.spans = tracer.spans().to_vec();
    Ok(out)
}
