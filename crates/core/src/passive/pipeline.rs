//! The one passive pipeline — Theorem 4 off rank columns.
//!
//! Every production passive solve runs [`solve_ranked`]: Lemma-15
//! contending discovery, the type-3 gadget, Dinic, and the Lemma-16/17
//! cut readout, all on `(RankTable, labels, weights)`. Dominance is a
//! rank comparison, so the f64 coordinates are never read here.
//! [`super::PassiveSolver`] ranks a [`mc_geom::WeightedSet`] and anchors
//! a classifier on the flips; [`super::scale`] counts them. Both see the
//! same network, so both read the same cut.
//!
//! The type-3 edges matter only through reachability (every gadget edge
//! is infinite), so any gadget that keeps "zero reaches one ⟺ zero ⪰
//! one" has the paper-literal network's min cuts. [`solve_ranked`] is the
//! one place that picks the gadget, through [`discover`]:
//!
//! * `d ≤ 2` — the divide-and-conquer sweep ladder of
//!   [`super::sparse`], `O(n log n)` edges, after its `O(n log n)`
//!   contending sweep;
//! * `d ≥ 3` — the Lemma-6 chain ladder of [`super::ladder`], `O(w·n)`
//!   edges, whose chain searches double as contending discovery.
//!
//! [`ContendingPoints::compute`] runs the same [`discover`] and drops
//! the network. The dense reference
//! [`super::brute::solve_passive_dense`] builds its own network over
//! [`ContendingPoints::compute_generic`] and shares only [`read_cut`].

use crate::passive::certificate::{decompose_flow, Certificate};
use crate::passive::contending::ContendingPoints;
use crate::passive::ladder::{self, LadderOutcome};
use crate::passive::sparse;
use mc_flow::{Dinic, FlowNetwork, MaxFlowAlgorithm, NodeId};
use mc_geom::{Label, RankTable};
use mc_obs::{CancelToken, Cancelled};

/// A flow network for Problem 2 with gadget-based type-3 connectivity,
/// plus the node ids of the contending points.
pub(crate) struct ClassifierNetwork {
    pub net: FlowNetwork,
    /// Node of `con.zeros[i]`.
    pub zero_nodes: Vec<NodeId>,
    /// Node of `con.ones[i]`.
    pub one_nodes: Vec<NodeId>,
}

/// What one solve reads off its min cut. The flips are index lists, not
/// an `n`-length assignment: only contending points can flip.
pub(crate) struct CutReadout {
    /// The Lemma-15 contending sets, both ascending.
    pub con: ContendingPoints,
    /// The min-cut weight, which is the optimal weighted error.
    pub weighted_error: f64,
    /// Contending label-0 points whose source edge is cut (relabelled
    /// to 1), ascending.
    pub to_one: Vec<usize>,
    /// Contending label-1 points whose sink edge is cut (relabelled to
    /// 0), ascending.
    pub to_zero: Vec<usize>,
    /// Lemma-6 chain count of the label-1 points; 0 when no
    /// decomposition ran (`d ≤ 2`, or one label class empty).
    pub width: usize,
    /// Nodes in the flow network (0 when nothing contends).
    pub network_nodes: usize,
    /// Edges in the flow network (0 when nothing contends).
    pub network_edges: usize,
    /// The flow's inversion packing, when asked for and something
    /// contends.
    pub certificate: Option<Certificate>,
}

/// Solves Problem 2 on rank columns: the gadget for `table.dim()`, then
/// Dinic and the cut readout. `labels` and `weights` must both have
/// `table.len()` entries. The token reaches the ladder's stages and the
/// max flow; the `d ≤ 2` sweeps are `O(n log n)` and poll it once.
/// `cover`, a chain cover of the label-1 points the caller already
/// holds, goes to the `d ≥ 3` ladder, which uses it only when it is
/// certified minimum; the answer is the same either way.
pub(crate) fn solve_ranked(
    table: &RankTable,
    labels: &[Label],
    weights: &[f64],
    cover: Option<&[Vec<usize>]>,
    token: &CancelToken,
    certify: bool,
) -> Result<CutReadout, Cancelled> {
    let LadderOutcome {
        con,
        network,
        width,
    } = discover(table, labels, weights, cover, token)?;
    let readout = read_cut(con, network, labels.len(), token, certify)?;
    Ok(CutReadout { width, ..readout })
}

/// Lemma-15 contending discovery and the type-3 gadget for
/// `table.dim()`: the sweep ladder at `d ≤ 2`, the chain ladder at
/// `d ≥ 3`. The one discovery engine: [`solve_ranked`] cuts the network,
/// and [`ContendingPoints::compute`] keeps only the contending sets.
/// `labels` and `weights` must both have `table.len()` entries; `cover`
/// is [`solve_ranked`]'s.
pub(crate) fn discover(
    table: &RankTable,
    labels: &[Label],
    weights: &[f64],
    cover: Option<&[Vec<usize>]>,
    token: &CancelToken,
) -> Result<LadderOutcome, Cancelled> {
    debug_assert_eq!(table.len(), labels.len());
    debug_assert_eq!(table.len(), weights.len());
    if table.dim() > 2 {
        return ladder::try_discover_and_build_from_table(table, labels, weights, cover, token);
    }
    let con = {
        let _span = mc_obs::span("contending");
        sparse::contending_sweep(table, labels)
    };
    token.poll()?;
    let network = (!con.is_empty()).then(|| sparse::build_sparse_network(table, weights, &con));
    Ok(LadderOutcome {
        con,
        network,
        width: 0,
    })
}

/// Max flow, min cut and flip readout over a built network, shared by
/// [`solve_ranked`] and the dense reference. `network` is `None` exactly
/// when nothing contends; `n` is the number of input points.
pub(crate) fn read_cut(
    con: ContendingPoints,
    network: Option<ClassifierNetwork>,
    n: usize,
    token: &CancelToken,
    certify: bool,
) -> Result<CutReadout, Cancelled> {
    mc_obs::counter_add("passive.points", n as u64);
    mc_obs::counter_add("passive.contending", con.len() as u64);
    let mut readout = CutReadout {
        con,
        weighted_error: 0.0,
        to_one: Vec::new(),
        to_zero: Vec::new(),
        width: 0,
        network_nodes: 0,
        network_edges: 0,
        certificate: None,
    };
    let Some(network) = network else {
        return Ok(readout);
    };
    readout.network_nodes = network.net.num_nodes();
    readout.network_edges = network.net.num_edges();
    mc_obs::counter_add("passive.network_nodes", readout.network_nodes as u64);
    mc_obs::counter_add("passive.network_edges", readout.network_edges as u64);

    let flow = Dinic.try_solve(&network.net, token)?;
    let cut = flow.min_cut(&network.net);
    mc_obs::gauge_set("passive.cut_weight", cut.weight);
    debug_assert!(
        !cut.crosses_infinite,
        "every label-1 contender has a finite sink edge, so a finite cut exists"
    );
    readout.weighted_error = cut.weight;

    let con = &readout.con;
    // Edge (source, p) is cut ⟺ p left the source side.
    readout.to_one = con
        .zeros
        .iter()
        .zip(&network.zero_nodes)
        .filter(|&(_, &node)| !cut.on_source_side(node))
        .map(|(&p, _)| p)
        .collect();
    // Edge (q, sink) is cut ⟺ q stayed on the source side.
    readout.to_zero = con
        .ones
        .iter()
        .zip(&network.one_nodes)
        .filter(|&(_, &node)| cut.on_source_side(node))
        .map(|(&q, _)| q)
        .collect();
    if certify {
        token.poll()?;
        readout.certificate = Some(Certificate {
            optimal_error: readout.weighted_error,
            charges: decompose_flow(con, &network, &flow),
        });
    }
    Ok(readout)
}
