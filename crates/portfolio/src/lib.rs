//! Fault-isolated engine racing for the passive solver.
//!
//! Theorem 4's min cut can be found by more than one max-flow
//! algorithm — Dinic and FIFO push-relabel, both over the solver's one
//! network per dimension class (the `d ≤ 2` sweep gadget, the `d ≥ 3`
//! chain ladder) — whose relative speed depends on the instance. Rather
//! than predict, this crate **races** a portfolio of engines on worker
//! threads and returns the first answer that survives refereeing:
//!
//! * every engine runs a cancellable solve over shared immutable
//!   inputs, polling a [`CancelToken`](mc_obs::CancelToken) at least
//!   every ~64k units of work, so losers stop within milliseconds of
//!   the winner finishing;
//! * every worker is wrapped in `catch_unwind`: a panicking engine is
//!   isolated, tallied in [`SolveReport::engine_panics`], and the race
//!   continues on the survivors;
//! * the referee ([`Certificate::verify`]) audits each candidate
//!   answer against the raw data before declaring it the winner — an
//!   engine whose flow decomposition does not prove its own optimum is
//!   disqualified, not trusted;
//! * a race-wide deadline degrades gracefully: on total timeout the
//!   coordinator falls back to the certified reference engine (or
//!   surfaces [`McError::Timeout`] when fallback is disabled).
//!
//! Outcome rates per engine flow through `mc-obs` as
//! `portfolio.engine.<name>.{wins,panics,timeouts,cancelled,…}`
//! counters, and an in-process [`History`] ranks engines by win rate so
//! later races in the same process start their likeliest winners first.
//!
//! [`SolveReport::engine_panics`]: mc_core::SolveReport
//! [`Certificate::verify`]: mc_core::passive::Certificate::verify
//! [`McError::Timeout`]: mc_core::McError
//!
//! # Example
//!
//! ```
//! use mc_geom::{Label, WeightedSet};
//! use mc_portfolio::{race, EngineSpec, PortfolioConfig};
//!
//! let mut data = WeightedSet::empty(1);
//! data.push(&[0.0], Label::One, 3.0);
//! data.push(&[1.0], Label::Zero, 1.0);
//! // A real engine races injected faults and still wins with the
//! // certified optimum.
//! let config = PortfolioConfig::new(vec![
//!     EngineSpec::Panic,
//!     EngineSpec::Dinic,
//! ]);
//! let out = race(&data, &config).unwrap();
//! assert_eq!(out.solution.weighted_error, 1.0);
//! assert_eq!(out.report.engine_panics, 1);
//! out.certificate.verify(&data).unwrap();
//! ```

pub mod engine;
pub mod history;
pub mod race;

pub use engine::EngineSpec;
pub use history::History;
pub use race::{race, EngineOutcome, PortfolioConfig, PortfolioOutcome, RaceReport};
