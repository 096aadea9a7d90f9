//! `active-chains`: the paper's headline algorithm (Theorem 2) on two
//! mutually incomparable chains, where the optimum `k*` is known exactly.

use crate::gen::ChainSet;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{end_to_end, ms, obs_counters, per_layer, stats, with_obs, Ctx};
use mc_chains::ChainDecomposition;
use mc_core::{ActiveParams, ActiveSolution, ActiveSolver, InMemoryOracle, PassiveSolver};
use mc_data::columnar::ColumnarDataset;
use mc_geom::{DominanceIndex, LabeledSet, WeightedSet};
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Chains in the layout (the dominance width).
const WIDTH: usize = 2;
/// Points per chain.
const CHAIN_LEN: usize = 12_000;
/// Label-flip probability.
const NOISE: f64 = 0.05;
/// Approximation slack ε.
const EPSILON: f64 = 1.0;
/// Loads timed for `setup_s` before the first solve; one more is timed
/// before each solve.
const SETUP_LOADS: usize = 11;
/// Least number of timed solves in a run, however long each takes.
const MIN_SOLVES: usize = 3;

/// Whether to start another solve: at least [`MIN_SOLVES`], then until
/// the run's time is up.
fn keep_going(ctx: &Ctx, start: Instant, done: usize) -> bool {
    done < MIN_SOLVES || start.elapsed().as_secs_f64() < ctx.seconds
}

/// The program's set-up before a solve: read the points and labels from
/// the MCC1 file and hide the labels behind an oracle.
fn load(path: &Path) -> io::Result<(LabeledSet, InMemoryOracle)> {
    let ws = ColumnarDataset::open(path)
        .and_then(|mut ds| ds.to_weighted_set())
        .map_err(|e| io::Error::other(e.to_string()))?;
    let data = ws.to_labeled();
    let oracle = InMemoryOracle::from_labeled(&data);
    Ok((data, oracle))
}

/// The input rows Σ kept: Σ lists its points in input order, and no two
/// input points coincide, so one merge pass recovers them.
fn sigma_rows(data: &LabeledSet, sigma: &WeightedSet) -> Vec<usize> {
    let mut rows = Vec::with_capacity(sigma.len());
    let mut next = 0;
    for i in 0..data.len() {
        if next < sigma.len() && data.points().point(i) == sigma.points().point(next) {
            rows.push(i);
            next += 1;
        }
    }
    assert_eq!(
        rows.len(),
        sigma.len(),
        "Σ must be a subset of the input in input order"
    );
    rows
}

/// What every solve of one run must reproduce, plus the guarantee.
struct Checker {
    k_star: u64,
    first: Option<(usize, u64)>,
}

impl Checker {
    /// Checks one solution: `err_P(h) ≤ (1+ε)·k*`, and the same probes
    /// and error as the run's first solve (the solver is seeded).
    fn check(&mut self, sol: &ActiveSolution, data: &LabeledSet, out: &mut Outcome) -> f64 {
        let err = sol.classifier.error_on(data);
        let ratio = err as f64 / self.k_star.max(1) as f64;
        let first = *self.first.get_or_insert((sol.probes_used, err));
        out.check(
            ratio <= 1.0 + EPSILON && (sol.probes_used, err) == first,
            &format!(
                "active: err {err} (k* {}), probes {} vs first {first:?}",
                self.k_star, sol.probes_used
            ),
        );
        ratio
    }
}

/// Runs `active-chains`.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let set = ChainSet::generate(WIDTH, CHAIN_LEN, NOISE, ctx.seed);
    let path = ctx.input("active-chains");
    let mut w = BufWriter::new(std::fs::File::create(&path)?);
    set.write_mcc1(&mut w)?;
    w.flush()?;
    drop(w);
    let result = measure(ctx, &set, &path);
    std::fs::remove_file(&path)?;
    result
}

fn measure(ctx: &Ctx, set: &ChainSet, path: &Path) -> io::Result<Outcome> {
    let mut setup = Vec::with_capacity(SETUP_LOADS);
    let mut loaded = None;
    for _ in 0..SETUP_LOADS {
        let t = Instant::now();
        let l = black_box(load(path)?);
        setup.push(t.elapsed().as_secs_f64());
        loaded = Some(l);
    }
    let (data, mut oracle) = loaded.expect("at least one load");
    let mut checker = Checker {
        k_star: set.optimal_error(),
        first: None,
    };
    let solver = ActiveSolver::new(ActiveParams::new(EPSILON).with_seed(ctx.seed));
    let solve = |oracle: &mut InMemoryOracle| {
        oracle.reset();
        solver.solve(data.points(), oracle)
    };

    let mut out = Outcome::default();
    let mut solves_ms = Vec::new();
    let start = Instant::now();
    if !ctx.trace {
        let mut last = None;
        while keep_going(ctx, start, solves_ms.len()) {
            // So that the set-up median spans the run as the solve times do.
            let t = Instant::now();
            black_box(load(path)?);
            setup.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let sol = black_box(solve(&mut oracle));
            solves_ms.push(ms(t.elapsed()));
            let ratio = checker.check(&sol, &data, &mut out);
            last = Some((sol, ratio));
        }
        let n = data.len() as f64;
        end_to_end(
            &mut out,
            &setup,
            &solves_ms,
            n / (stats::median(&solves_ms) / 1e3),
            mc_obs::peak_rss_bytes(),
        );
        let (sol, ratio) = last.expect("at least one solve");
        out.diag("probes", sol.probes_used as f64, "labels");
        out.diag("error_ratio", ratio, "ratio");
        out.diag("k_star", checker.k_star as f64, "points");
        out.diag("width", sol.width as f64, "chains");
        return Ok(out);
    }

    let mut tracer = Tracer::new();
    let (mut traced_ms, mut index_ms, mut decompose_ms, mut sampling_ms, mut sigma_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut values = Vec::new();
    while keep_going(ctx, start, traced_ms.len()) {
        let t = Instant::now();
        let sol = black_box(solve(&mut oracle));
        solves_ms.push(ms(t.elapsed()));
        checker.check(&sol, &data, &mut out);

        let ((sol, t), snap) = with_obs(|| tracer.time("active.solve", |_| solve(&mut oracle)));
        traced_ms.push(ms(t));
        let ratio = checker.check(&sol, &data, &mut out);
        values = obs_counters(&snap);
        values.push(("active.probes", sol.probes_used as f64));
        values.push(("active.error_ratio", ratio));
        values.push(("active.sigma_size", sol.sigma.len() as f64));

        // The solve's stages through their public entry points: the
        // dominance index, the Lemma-6 decomposition, the per-chain
        // sampling, and the passive solve on the sample Σ over the index
        // restricted to Σ's rows.
        let (index, t) = tracer.time("geom.index_build", |_| DominanceIndex::build(data.points()));
        index_ms.push(ms(t));
        let (dec, t) = tracer.time("chains.decompose", |_| {
            ChainDecomposition::compute_from_index(&index)
        });
        decompose_ms.push(ms(t));
        oracle.reset();
        let ((sigma, probes), t) = tracer.time("active.sampling", |_| {
            solver.collect_sigma_with_chains(data.points(), dec.chains(), &mut oracle)
        });
        sampling_ms.push(ms(t));
        let rows = sigma_rows(&data, &sigma);
        let (sigma_sol, t) = tracer.time("core.sigma_solve", |_| {
            PassiveSolver::new().solve_with_index(&sigma, &index.subset(&rows))
        });
        sigma_ms.push(ms(t));
        out.check(
            probes == sol.probes_used
                && sigma.len() == sol.sigma.len()
                && sigma_sol.weighted_error == sol.sigma_weighted_error,
            "the staged pipeline must probe, sample and solve like the solve",
        );
    }
    let traced_med = stats::median(&traced_ms);
    let share = |v: &[f64]| stats::median(v) / traced_med;
    let parts = [
        ("geom.index_build_frac", share(&index_ms)),
        ("chains.decompose_frac", share(&decompose_ms)),
        ("active.sampling_frac", share(&sampling_ms)),
        ("core.sigma_solve_frac", share(&sigma_ms)),
    ];
    values.extend(parts);
    values.push((
        "unattributed_frac",
        1.0 - parts.iter().map(|(_, v)| v).sum::<f64>(),
    ));
    values.push((
        "trace.latency_p50_ms",
        stats::nearest_rank(&stats::sorted(&traced_ms), 0.5),
    ));
    values.push((
        "trace_overhead_frac",
        traced_med / stats::median(&solves_ms) - 1.0,
    ));
    per_layer(&mut out, &values);
    out.diag("setup_s", stats::median(&setup), "s");
    out.diag("traced_solves", traced_ms.len() as f64, "count");
    out.spans = tracer.spans().to_vec();
    Ok(out)
}
