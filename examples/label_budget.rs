//! Labeling under a hard budget — the practical face of active learning.
//!
//! ```bash
//! cargo run --release --example label_budget
//! ```
//!
//! The paper's algorithm spends whatever its bound costs; real labeling
//! campaigns fix the spend upfront. This demo sweeps a probe budget on a
//! simulated entity-matching workload and shows held-out quality
//! converging to the exact optimum as the budget grows.

use monotone_classification::core::active::try_solve_with_budget;
use monotone_classification::core::metrics::{train_test_split, ConfusionMatrix};
use monotone_classification::core::passive::solve_passive;
use monotone_classification::core::InMemoryOracle;
use monotone_classification::data::entity_matching::{generate, EntityMatchingConfig};

fn main() {
    let ds = generate(&EntityMatchingConfig {
        pairs: 3000,
        metrics: 3,
        match_rate: 0.3,
        reliability: 0.85,
        seed: 99,
    });
    let (train, test) = train_test_split(&ds.data, 0.7, 1);
    println!(
        "entity-matching pool: {} train pairs, {} held-out pairs\n",
        train.len(),
        test.len()
    );

    // Reference: the exact optimum with unlimited labels.
    let exact = solve_passive(&train.with_unit_weights());
    let exact_m = ConfusionMatrix::evaluate(&exact.classifier, &test);
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>8}",
        "budget", "probes", "test acc", "test F1", "vs exact"
    );

    for budget in [50usize, 150, 400, 1000, train.len()] {
        let mut oracle = InMemoryOracle::from_labeled(&train);
        let sol = try_solve_with_budget(train.points(), &mut oracle, budget, 7)
            .expect("the oracle labels exactly the training points");
        let m = ConfusionMatrix::evaluate(&sol.classifier, &test);
        println!(
            "{:>8} {:>10} {:>10.3} {:>10.3} {:>+8.3}",
            budget,
            sol.probes_used,
            m.accuracy(),
            m.f1(),
            m.accuracy() - exact_m.accuracy()
        );
    }

    println!(
        "\nexact optimum (all {} labels): accuracy {:.3}, F1 {:.3}",
        train.len(),
        exact_m.accuracy(),
        exact_m.f1()
    );
}
