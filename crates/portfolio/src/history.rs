//! In-process engine selection memory.
//!
//! Each race records one outcome per engine; [`History::rank`] then
//! orders future rosters by smoothed win rate, so a long-running
//! process (batch evaluation, a service) converges on starting its
//! empirically fastest engines first without any configuration. The
//! table is process-local and deliberately unpersisted — hardware and
//! instance mix change between runs, and a stale prior is worse than a
//! cold one.

use crate::engine::EngineSpec;
use std::sync::Mutex;

/// Per-engine outcome tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Races this engine won (first verified finisher).
    pub wins: u64,
    /// Races it finished or was cancelled in after another engine won.
    pub losses: u64,
    /// Times it panicked and was isolated.
    pub panics: u64,
    /// Times it hit the race deadline.
    pub timeouts: u64,
    /// Times its certificate failed the referee's audit.
    pub disqualifications: u64,
}

impl Tally {
    /// Races this engine participated in.
    pub fn runs(&self) -> u64 {
        self.wins + self.losses + self.panics + self.timeouts + self.disqualifications
    }
}

/// Win-rate table over the engine roster.
#[derive(Debug, Default)]
pub struct History {
    tallies: Mutex<[Tally; EngineSpec::ALL.len()]>,
}

static GLOBAL: History = History {
    tallies: Mutex::new(
        [Tally {
            wins: 0,
            losses: 0,
            panics: 0,
            timeouts: 0,
            disqualifications: 0,
        }; EngineSpec::ALL.len()],
    ),
};

impl History {
    /// The process-wide table every [`race`](crate::race::race)
    /// records into.
    pub fn global() -> &'static History {
        &GLOBAL
    }

    /// A fresh, empty table (tests; isolated schedulers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current tallies for `engine`.
    pub fn tally(&self, engine: EngineSpec) -> Tally {
        self.tallies.lock().expect("history lock")[engine.index()]
    }

    /// Smoothed win rate in `(0, 1)`: `(wins + 1) / (runs + 2)`
    /// (Laplace), so unseen engines score 0.5 and one early loss does
    /// not bury an engine forever. Panics and disqualifications count
    /// as (lost) runs, which steadily sinks chronically faulty engines.
    pub fn score(&self, engine: EngineSpec) -> f64 {
        let t = self.tally(engine);
        (t.wins + 1) as f64 / (t.runs() + 2) as f64
    }

    /// Stable-sorts `engines` by descending score: the configured order
    /// breaks ties, so a fresh process keeps the caller's roster order.
    pub fn rank(&self, engines: &mut [EngineSpec]) {
        engines.sort_by(|&a, &b| {
            self.score(b)
                .partial_cmp(&self.score(a))
                .expect("scores are finite")
        });
    }

    /// Clears every tally.
    pub fn reset(&self) {
        *self.tallies.lock().expect("history lock") = Default::default();
    }

    pub(crate) fn record(&self, engine: EngineSpec, f: impl FnOnce(&mut Tally)) {
        f(&mut self.tallies.lock().expect("history lock")[engine.index()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseen_engines_score_half_and_keep_roster_order() {
        let h = History::new();
        let mut roster = vec![
            EngineSpec::Panic,
            EngineSpec::Dinic,
            EngineSpec::PushRelabel,
        ];
        let original = roster.clone();
        h.rank(&mut roster);
        assert_eq!(roster, original, "ties must preserve the caller's order");
        assert_eq!(h.score(EngineSpec::Dinic), 0.5);
    }

    #[test]
    fn winners_rise_and_panickers_sink() {
        let h = History::new();
        for _ in 0..5 {
            h.record(EngineSpec::Dinic, |t| t.wins += 1);
            h.record(EngineSpec::PushRelabel, |t| t.losses += 1);
            h.record(EngineSpec::Panic, |t| t.panics += 1);
        }
        // One win keeps the chronic loser strictly above the chronic
        // panicker (they otherwise tie at the same smoothed rate).
        h.record(EngineSpec::PushRelabel, |t| t.wins += 1);
        let mut roster = vec![
            EngineSpec::Panic,
            EngineSpec::PushRelabel,
            EngineSpec::Dinic,
        ];
        h.rank(&mut roster);
        assert_eq!(
            roster,
            vec![
                EngineSpec::Dinic,
                EngineSpec::PushRelabel,
                EngineSpec::Panic,
            ]
        );
        assert!(h.score(EngineSpec::Dinic) > 0.5);
        assert!(h.score(EngineSpec::Panic) < 0.5);
        h.reset();
        assert_eq!(h.tally(EngineSpec::Dinic), Tally::default());
    }
}
