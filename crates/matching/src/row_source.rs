//! Abstraction over bitset-row providers for the word-parallel engine.
//!
//! [`HopcroftKarpBitset`](crate::HopcroftKarpBitset) consumes left-side
//! neighbourhoods as `⌈nr/64⌉`-word bitset rows. Where those words come
//! from is the difference between the Θ(n²/64) memory wall and the
//! matrix-free path:
//!
//! * [`BitsetGraph`](crate::BitsetGraph) owns every row up front —
//!   O(n²/64) words resident;
//! * [`OracleGraph`](crate::OracleGraph) computes each row on demand
//!   from a `mc_geom::RankOracle`, optionally keeping the rows the
//!   Hopcroft–Karp phases ask for.
//!
//! [`RowSource`] is the seam between them. The engine always offers a
//! scratch buffer when it asks for a row; materialized sources ignore
//! it and hand back a borrow, on-demand sources fill it and report
//! `cached = true` so the engine can reuse the buffer without
//! recomputing while the same left vertex stays resident at that DFS
//! depth. The greedy seed asks only for each left's lowest free
//! neighbour ([`RowSource::first_free_neighbour`]), which an on-demand
//! source answers without building the row; the BFS/DFS phases, which
//! revisit rows, ask through [`RowSource::phase_row`] /
//! [`RowSource::or_row_into`]. A source whose vertices are labelled in a
//! linear extension of the poset reports, per left, the first word its
//! row can touch ([`RowSource::first_word`]), and every scan starts
//! there.

/// One resolved left-vertex row. `cached` is `true` iff the words were
/// written into the scratch buffer the caller supplied (and can
/// therefore be reused until the buffer is handed to a different
/// vertex).
pub struct ResolvedRow<'s> {
    /// The row's words (`words()` of them).
    pub row: &'s [u64],
    /// `true` iff `row` aliases the caller's scratch buffer.
    pub cached: bool,
}

/// A provider of left-side neighbourhood bitset rows for the
/// word-parallel matching engine. `Sync` because the BFS fans row ORs
/// out over `mc_geom::parallel_chunks`.
pub trait RowSource: Sync {
    /// Number of left vertices.
    fn num_left(&self) -> usize;

    /// Number of right vertices.
    fn num_right(&self) -> usize;

    /// Words per row: `ceil(num_right / 64)`.
    fn words(&self) -> usize;

    /// The first word of left vertex `l`'s row that can hold a bit:
    /// every word below it is zero. `0` unless the source knows better;
    /// a Lemma-6 split graph labelled in a linear extension starts each
    /// row at the diagonal word `⌊l/64⌋`.
    fn first_word(&self, _l: usize) -> usize {
        0
    }

    /// The lowest right vertex adjacent to `l` whose bit is set in
    /// `free`, scanning words from [`first_word`](Self::first_word); the
    /// greedy seed's one question per left. The default resolves the row
    /// through [`phase_row`](Self::phase_row); on-demand sources answer
    /// without building it.
    fn first_free_neighbour(&self, l: usize, free: &[u64], scratch: &mut [u64]) -> Option<usize> {
        let from = self.first_word(l);
        let row = self.phase_row(l, scratch).row;
        (from..free.len()).find_map(|wi| {
            let cand = row[wi] & free[wi];
            (cand != 0).then(|| (wi << 6) | cand.trailing_zeros() as usize)
        })
    }

    /// Resolves left vertex `l`'s full row for a Hopcroft–Karp phase.
    /// `scratch` has exactly [`words`](Self::words) words; sources that
    /// compute rows on demand fill it and return it (`cached = true`),
    /// materialized sources return their own storage untouched, and a
    /// source with a row cache may serve the row from it (or fill it).
    fn phase_row<'s>(&'s self, l: usize, scratch: &'s mut [u64]) -> ResolvedRow<'s>;

    /// ORs left vertex `l`'s row into `acc` for a BFS layer, using
    /// `scratch` as working space if the row must be computed first.
    /// Returns the number of words charged to the scan statistics.
    fn or_row_into(&self, l: usize, acc: &mut [u64], scratch: &mut [u64]) -> u64;
}
