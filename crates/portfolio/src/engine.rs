//! The portfolio's engine roster.
//!
//! An [`EngineSpec`] names one complete passive pipeline — a max-flow
//! algorithm over the solver's one network per dimension class — plus two
//! deliberately faulty injectors ([`Panic`](EngineSpec::Panic) and
//! [`Hang`](EngineSpec::Hang)) used by tests and CI to prove the race
//! coordinator isolates misbehaving engines. Every engine solves the
//! *same* instance and must justify its answer with a dual certificate;
//! they differ only in how fast they get there.

use mc_core::passive::{Certificate, PassiveSolution, PassiveSolver};
use mc_flow::PushRelabel;
use mc_geom::WeightedSet;
use mc_obs::{CancelToken, Cancelled};

/// One runnable engine of the portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineSpec {
    /// Dinic over the solver's network (`d ≤ 2` sweep, `d ≥ 3` chain
    /// ladder). The certified reference engine the coordinator falls
    /// back to on total timeout.
    Dinic,
    /// FIFO push-relabel over the same network.
    PushRelabel,
    /// Fault injector: panics immediately. The coordinator must isolate
    /// it and keep racing.
    Panic,
    /// Fault injector: never produces an answer, but polls its token
    /// every millisecond — it exits only by cancellation or deadline.
    Hang,
}

/// Expands to `name()` plus one `&'static str` counter accessor per
/// outcome, since `mc_obs::counter_add` requires static names and the
/// roster is a closed set.
macro_rules! engine_names {
    ($($variant:ident => $name:literal),+ $(,)?) => {
        impl EngineSpec {
            /// The CLI/JSONL spelling of this engine.
            pub fn name(self) -> &'static str {
                match self { $(EngineSpec::$variant => $name),+ }
            }

            pub(crate) fn wins_counter(self) -> &'static str {
                match self {
                    $(EngineSpec::$variant =>
                        concat!("portfolio.engine.", $name, ".wins")),+
                }
            }

            pub(crate) fn losses_counter(self) -> &'static str {
                match self {
                    $(EngineSpec::$variant =>
                        concat!("portfolio.engine.", $name, ".losses")),+
                }
            }

            pub(crate) fn panics_counter(self) -> &'static str {
                match self {
                    $(EngineSpec::$variant =>
                        concat!("portfolio.engine.", $name, ".panics")),+
                }
            }

            pub(crate) fn timeouts_counter(self) -> &'static str {
                match self {
                    $(EngineSpec::$variant =>
                        concat!("portfolio.engine.", $name, ".timeouts")),+
                }
            }

            pub(crate) fn cancelled_counter(self) -> &'static str {
                match self {
                    $(EngineSpec::$variant =>
                        concat!("portfolio.engine.", $name, ".cancelled")),+
                }
            }

            pub(crate) fn disqualified_counter(self) -> &'static str {
                match self {
                    $(EngineSpec::$variant =>
                        concat!("portfolio.engine.", $name, ".disqualified")),+
                }
            }
        }
    };
}

engine_names! {
    Dinic => "dinic",
    PushRelabel => "push-relabel",
    Panic => "panic",
    Hang => "hang",
}

impl EngineSpec {
    /// Every engine, in the roster's canonical order (real engines
    /// first, injectors last).
    pub const ALL: [EngineSpec; 4] = [
        EngineSpec::Dinic,
        EngineSpec::PushRelabel,
        EngineSpec::Panic,
        EngineSpec::Hang,
    ];

    /// Dense position of this engine in [`ALL`](Self::ALL), for tally
    /// tables.
    pub(crate) fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&e| e == self)
            .expect("ALL lists every variant")
    }

    /// `true` for the deliberately faulty test engines.
    pub fn is_injected(self) -> bool {
        matches!(self, EngineSpec::Panic | EngineSpec::Hang)
    }

    /// Parses one engine name (the spellings of [`name`](Self::name),
    /// case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        Self::ALL
            .into_iter()
            .find(|e| s.eq_ignore_ascii_case(e.name()))
    }

    /// Parses a comma-separated engine list, e.g.
    /// `"dinic,push-relabel"`. Rejects unknown names and empty
    /// lists with a human-readable message.
    pub fn parse_list(s: &str) -> Result<Vec<Self>, String> {
        let engines: Vec<Self> = s
            .split(',')
            .filter(|part| !part.trim().is_empty())
            .map(|part| {
                Self::parse(part).ok_or_else(|| {
                    format!(
                        "unknown engine {:?} (expected one of: {})",
                        part.trim(),
                        Self::ALL.map(Self::name).join(", ")
                    )
                })
            })
            .collect::<Result<_, _>>()?;
        if engines.is_empty() {
            return Err("engine list is empty".into());
        }
        Ok(engines)
    }

    /// Runs this engine to a certified answer, observing `token`
    /// cooperatively. The injectors do exactly what their names say:
    /// `Panic` dies (the coordinator's `catch_unwind` must contain it),
    /// `Hang` spins on the token until cancelled or expired.
    pub fn run(
        self,
        data: &WeightedSet,
        token: &CancelToken,
    ) -> Result<(PassiveSolution, Certificate), Cancelled> {
        match self {
            EngineSpec::Dinic => PassiveSolver::new().solve_certified_cancellable(data, token),
            EngineSpec::PushRelabel => {
                PassiveSolver::with_algorithm(PushRelabel).solve_certified_cancellable(data, token)
            }
            EngineSpec::Panic => panic!("injected fault: the panic engine always dies"),
            EngineSpec::Hang => loop {
                token.poll()?;
                std::thread::sleep(std::time::Duration::from_millis(1));
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for e in EngineSpec::ALL {
            assert_eq!(EngineSpec::parse(e.name()), Some(e));
            assert_eq!(EngineSpec::parse(&e.name().to_uppercase()), Some(e));
        }
        assert_eq!(EngineSpec::parse(" dinic "), Some(EngineSpec::Dinic));
        assert_eq!(EngineSpec::parse("bogus"), None);
    }

    #[test]
    fn parse_list_handles_spaces_and_rejects_unknown() {
        assert_eq!(
            EngineSpec::parse_list("dinic, push-relabel").unwrap(),
            vec![EngineSpec::Dinic, EngineSpec::PushRelabel]
        );
        assert!(EngineSpec::parse_list("dinic,bogus")
            .unwrap_err()
            .contains("bogus"));
        assert!(EngineSpec::parse_list("").is_err());
    }

    #[test]
    fn counter_names_are_distinct_per_engine() {
        let mut names: Vec<&str> = EngineSpec::ALL
            .iter()
            .flat_map(|e| [e.wins_counter(), e.panics_counter(), e.cancelled_counter()])
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EngineSpec::ALL.len() * 3);
    }

    #[test]
    fn hang_engine_obeys_its_deadline() {
        use mc_obs::CancelCause;
        let mut ws = WeightedSet::empty(1);
        ws.push(&[0.0], mc_geom::Label::One, 1.0);
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(5));
        let err = EngineSpec::Hang.run(&ws, &token).unwrap_err();
        assert_eq!(err.cause, CancelCause::Deadline);
    }
}
