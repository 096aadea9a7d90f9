//! The race coordinator: launch, referee, cancel, fall back.
//!
//! [`race`] spawns every configured engine on its own worker thread
//! over the same borrowed immutable input, then plays referee:
//!
//! 1. the first engine to finish has its [`Certificate`] independently
//!    audited against the raw data — a failed audit **disqualifies**
//!    that engine and the race continues;
//! 2. the first *verified* finisher wins; every other engine's
//!    [`CancelToken`] is cancelled and the coordinator drains their
//!    exits, measuring cancellation latency (`portfolio.cancel_latency_ms`);
//! 3. a panicking engine is contained by `catch_unwind` — its thread's
//!    state is dropped wholesale, the panic is tallied, and nobody else
//!    notices;
//! 4. if a deadline is set, every token carries it, so engines unwind
//!    on their own; should *no* engine produce a verified answer, the
//!    coordinator either falls back to the certified reference engine
//!    ([`EngineSpec::Dinic`], run without a deadline) or surfaces
//!    [`McError::Timeout`] when fallback is disabled.
//!
//! Every outcome is double-booked: globally
//! (`portfolio.{wins,losses,panics,timeouts,cancelled,disqualified,fallbacks}`)
//! and per engine (`portfolio.engine.<name>.*`), and recorded in the
//! process-wide [`History`] so subsequent races start likelier winners
//! first.

use crate::engine::EngineSpec;
use crate::history::History;
use mc_core::passive::{Certificate, PassiveSolution};
use mc_core::{McError, SolveReport};
use mc_geom::WeightedSet;
use mc_obs::json::Value;
use mc_obs::{CancelCause, CancelToken, Cancelled};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Configuration of one race.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// The engines to launch, in preference order (history may reorder;
    /// see [`rank_by_history`](Self::rank_by_history)).
    pub engines: Vec<EngineSpec>,
    /// Race-wide deadline carried by every engine's token. `None` races
    /// without a watchdog — fine for all-real rosters, but a
    /// non-terminating engine can then only be stopped by a winner.
    pub time_limit: Option<Duration>,
    /// When no engine produces a verified answer before the deadline,
    /// run the certified reference engine synchronously instead of
    /// failing (default `true`). With `false` the race surfaces
    /// [`McError::Timeout`].
    pub fallback_on_timeout: bool,
    /// Let the process-wide [`History`] reorder the roster by win rate
    /// (default `true`; stable, so ties keep the configured order).
    pub rank_by_history: bool,
    /// External kill switch: when this token stops (e.g. the telemetry
    /// stall watchdog cancelled it), the coordinator cancels every
    /// engine token and the race drains as `Cancelled` (default
    /// `None`). Distinct from the per-engine deadline tokens: those
    /// belong to the race; this one belongs to whoever is watching it.
    pub watchdog: Option<CancelToken>,
}

impl PortfolioConfig {
    /// A config racing `engines` with fallback enabled and no deadline.
    pub fn new(engines: Vec<EngineSpec>) -> Self {
        Self {
            engines,
            time_limit: None,
            fallback_on_timeout: true,
            rank_by_history: true,
            watchdog: None,
        }
    }

    /// Sets the race-wide deadline.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Disables the reference-engine fallback (timeouts become errors).
    pub fn without_fallback(mut self) -> Self {
        self.fallback_on_timeout = false;
        self
    }

    /// Attaches an external kill-switch token (see
    /// [`watchdog`](Self::watchdog)).
    pub fn with_watchdog(mut self, token: CancelToken) -> Self {
        self.watchdog = Some(token);
        self
    }
}

impl Default for PortfolioConfig {
    /// The default roster: both max-flow algorithms over the solver's
    /// one network, Dinic (the reference engine) first.
    fn default() -> Self {
        Self::new(vec![EngineSpec::Dinic, EngineSpec::PushRelabel])
    }
}

/// How one engine's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOutcome {
    /// First verified finisher.
    Won,
    /// Finished a correct-looking answer after the winner (its result
    /// is discarded — answers are only compared by the referee's audit,
    /// never mixed).
    Lost,
    /// Finished first but failed the referee's certificate audit.
    Disqualified {
        /// The audit's complaint, verbatim.
        reason: String,
    },
    /// Observed its token's explicit cancellation (a rival won).
    Cancelled,
    /// Observed its token's deadline expiry.
    TimedOut,
    /// Panicked; the worker was isolated and its state dropped.
    Panicked {
        /// The payload, when it was a string.
        message: String,
    },
}

/// What happened across one race.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// The verified winner, if any engine produced one.
    pub winner: Option<EngineSpec>,
    /// Outcome per launched engine, in launch order.
    pub outcomes: Vec<(EngineSpec, EngineOutcome)>,
    /// `true` iff the answer came from the synchronous reference
    /// fallback rather than the race.
    pub fallback_used: bool,
    /// Wall time from cancelling the losers to the last worker exiting.
    pub cancel_latency: Option<Duration>,
}

impl RaceReport {
    /// Count of outcomes matching `pred`.
    fn count(&self, pred: impl Fn(&EngineOutcome) -> bool) -> usize {
        self.outcomes.iter().filter(|(_, o)| pred(o)).count()
    }
}

/// A race's answer: the winning (or fallback) solution, its audited
/// certificate, and the two reports.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The optimal passive solution.
    pub solution: PassiveSolution,
    /// The dual certificate that survived [`Certificate::verify`].
    pub certificate: Certificate,
    /// Per-engine racing outcomes.
    pub race: RaceReport,
    /// The solver-level resilience report (`engine_panics` counts the
    /// isolated workers).
    pub report: SolveReport,
}

type EngineMessage = (
    usize,
    Duration,
    std::thread::Result<Result<(PassiveSolution, Certificate), Cancelled>>,
);

/// Races `config.engines` on `data` and returns the first verified
/// answer. See the module docs for the protocol.
///
/// # Errors
///
/// [`McError::InvalidParameter`] on an empty roster;
/// [`McError::Timeout`] / [`McError::Cancelled`] when no engine
/// produced a verified answer and fallback is disabled.
pub fn race(data: &WeightedSet, config: &PortfolioConfig) -> Result<PortfolioOutcome, McError> {
    let _span = mc_obs::span("portfolio");
    if config.engines.is_empty() {
        return Err(McError::invalid_parameter(
            "portfolio: engine roster is empty",
        ));
    }
    let history = History::global();
    let mut engines = config.engines.clone();
    if config.rank_by_history {
        history.rank(&mut engines);
    }
    mc_obs::counter_add("portfolio.races", 1);

    let (tx, rx) = mpsc::channel::<EngineMessage>();
    let tokens: Vec<CancelToken> = engines
        .iter()
        .map(|_| match config.time_limit {
            Some(limit) => CancelToken::with_deadline(limit),
            None => CancelToken::new(),
        })
        .collect();

    let mut outcomes: Vec<Option<EngineOutcome>> = vec![None; engines.len()];
    let mut winner: Option<(usize, PassiveSolution, Certificate)> = None;
    let mut cancel_latency = None;

    std::thread::scope(|scope| {
        for (i, &spec) in engines.iter().enumerate() {
            let tx = tx.clone();
            let token = tokens[i].clone();
            scope.spawn(move || {
                let _span = mc_obs::span(spec.name());
                let started = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| spec.run(data, &token)));
                // The receiver only disappears once every worker has
                // reported, so this send cannot fail while we run.
                let _ = tx.send((i, started.elapsed(), result));
            });
        }
        drop(tx);

        // Watchdog margin past the engines' own deadline: a cooperative
        // engine observes expiry within one checkpoint, so a generous
        // grace only matters if one wedges in non-polling code.
        let grace = Duration::from_millis(500);
        let started = Instant::now();
        let mut cancel_started: Option<Instant> = None;
        let mut pending = engines.len();
        while pending > 0 {
            let waiting =
                winner.is_none() && (config.time_limit.is_some() || config.watchdog.is_some());
            let message = if waiting {
                let budget = match config.time_limit {
                    Some(limit) => (limit + grace).saturating_sub(started.elapsed()),
                    None => Duration::MAX,
                };
                // With an external watchdog attached, wake periodically
                // to check it — its trip arrives on another thread's
                // schedule, not through the channel.
                let slice = if config.watchdog.is_some() {
                    budget.min(Duration::from_millis(25))
                } else {
                    budget
                };
                match rx.recv_timeout(slice) {
                    Ok(m) => m,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        let watchdog_tripped =
                            config.watchdog.as_ref().is_some_and(|w| w.poll().is_err());
                        let deadline_over = config
                            .time_limit
                            .is_some_and(|limit| started.elapsed() >= limit + grace);
                        if watchdog_tripped || deadline_over {
                            // Force-cancel and keep draining (deadline
                            // tokens may already be expired, so workers
                            // exit on their next poll either way).
                            for t in &tokens {
                                t.cancel();
                            }
                            cancel_started.get_or_insert_with(Instant::now);
                        }
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            } else {
                match rx.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            };
            pending -= 1;
            let (i, _elapsed, result) = message;
            outcomes[i] = Some(match result {
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    // Land the panic in the flight recorder while the
                    // other workers' span stacks are still live.
                    mc_obs::telemetry::flight_event(
                        "portfolio.worker_panic",
                        &[
                            ("engine", Value::S(engines[i].name().to_string())),
                            ("message", Value::S(message.clone())),
                        ],
                    );
                    EngineOutcome::Panicked { message }
                }
                Ok(Err(cancelled)) => match cancelled.cause {
                    CancelCause::Explicit => EngineOutcome::Cancelled,
                    CancelCause::Deadline => EngineOutcome::TimedOut,
                },
                Ok(Ok((solution, certificate))) => {
                    if winner.is_some() {
                        EngineOutcome::Lost
                    } else {
                        match certificate.verify(data) {
                            Ok(()) => {
                                winner = Some((i, solution, certificate));
                                cancel_started = Some(Instant::now());
                                for (j, t) in tokens.iter().enumerate() {
                                    if j != i {
                                        t.cancel();
                                    }
                                }
                                EngineOutcome::Won
                            }
                            Err(reason) => {
                                mc_obs::warn_once(
                                    "portfolio_disqualified",
                                    "an engine's certificate failed the referee's audit; \
                                     racing on without it",
                                );
                                EngineOutcome::Disqualified { reason }
                            }
                        }
                    }
                }
            });
        }
        // All workers have exited (the scope would otherwise still hold
        // senders); latency spans cancel → last exit.
        cancel_latency = cancel_started.map(|t| t.elapsed());
    });

    let outcomes: Vec<(EngineSpec, EngineOutcome)> =
        engines
            .iter()
            .copied()
            .zip(outcomes.into_iter().map(|o| {
                o.expect("every worker sends exactly one message before the scope closes")
            }))
            .collect();
    if let Some(latency) = cancel_latency {
        mc_obs::gauge_set("portfolio.cancel_latency_ms", latency.as_secs_f64() * 1e3);
    }
    let mut engine_panics = 0usize;
    for (spec, outcome) in &outcomes {
        let (global, per_engine) = match outcome {
            EngineOutcome::Won => ("portfolio.wins", spec.wins_counter()),
            EngineOutcome::Lost => ("portfolio.losses", spec.losses_counter()),
            EngineOutcome::Disqualified { .. } => {
                ("portfolio.disqualified", spec.disqualified_counter())
            }
            EngineOutcome::Cancelled => ("portfolio.cancelled", spec.cancelled_counter()),
            EngineOutcome::TimedOut => ("portfolio.timeouts", spec.timeouts_counter()),
            EngineOutcome::Panicked { .. } => {
                engine_panics += 1;
                ("portfolio.panics", spec.panics_counter())
            }
        };
        mc_obs::counter_add(global, 1);
        mc_obs::counter_add(per_engine, 1);
        history.record(*spec, |t| match outcome {
            EngineOutcome::Won => t.wins += 1,
            EngineOutcome::Lost | EngineOutcome::Cancelled => t.losses += 1,
            EngineOutcome::Disqualified { .. } => t.disqualifications += 1,
            EngineOutcome::TimedOut => t.timeouts += 1,
            EngineOutcome::Panicked { .. } => t.panics += 1,
        });
    }
    let report = SolveReport {
        engine_panics,
        ..SolveReport::default()
    };

    if let Some((i, solution, certificate)) = winner {
        return Ok(PortfolioOutcome {
            solution,
            certificate,
            race: RaceReport {
                winner: Some(engines[i]),
                outcomes,
                fallback_used: false,
                cancel_latency,
            },
            report,
        });
    }

    // No verified answer. Either degrade gracefully onto the reference
    // engine, or surface the dominant failure as a typed error.
    let race_report = RaceReport {
        winner: None,
        outcomes,
        fallback_used: true,
        cancel_latency,
    };
    if config.fallback_on_timeout {
        mc_obs::counter_add("portfolio.fallbacks", 1);
        let (solution, certificate) = EngineSpec::Dinic
            .run(data, &CancelToken::never())
            .expect("a never-token cannot cancel");
        certificate
            .verify(data)
            .expect("the reference engine's certificate must audit clean");
        return Ok(PortfolioOutcome {
            solution,
            certificate,
            race: race_report,
            report,
        });
    }
    let timed_out = race_report
        .count(|o| matches!(o, EngineOutcome::TimedOut))
        .max(usize::from(config.time_limit.is_some()));
    Err(if timed_out > 0 {
        McError::Timeout
    } else {
        McError::Cancelled
    })
}

/// Best-effort panic payload rendering (strings are the common case).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
