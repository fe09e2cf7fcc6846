//! ASCII rendering of BFW executions — the beep waves of Section 1.3
//! made visible.
//!
//! On a path or cycle, rendering one character per node and one line per
//! round shows waves expanding from leaders, crashing into each other,
//! and eliminating the leaders they cross — exactly the narrative of the
//! paper's "Beep waves" paragraph. The `two_leader_duel` example prints
//! such a trace.
//!
//! Legend:
//!
//! | char | state |
//! |------|-------|
//! | `L`  | `W•` waiting leader |
//! | `!`  | `B•` beeping leader |
//! | `=`  | `F•` frozen leader |
//! | `.`  | `W◦` waiting non-leader |
//! | `*`  | `B◦` beeping non-leader |
//! | `-`  | `F◦` frozen non-leader |

use crate::state::BfwState;
use std::fmt::Write as _;

/// Returns the single-character glyph for a state (see module legend).
pub const fn glyph(state: BfwState) -> char {
    match state {
        BfwState::LeaderWaiting => 'L',
        BfwState::LeaderBeeping => '!',
        BfwState::LeaderFrozen => '=',
        BfwState::Waiting => '.',
        BfwState::Beeping => '*',
        BfwState::Frozen => '-',
    }
}

/// Renders one round as a string, one glyph per node in index order.
///
/// # Example
///
/// ```
/// use bfw_core::{viz, BfwState};
///
/// let row = viz::render_round(&[
///     BfwState::LeaderWaiting,
///     BfwState::Beeping,
///     BfwState::Waiting,
/// ]);
/// assert_eq!(row, "L*.");
/// ```
pub fn render_round(states: &[BfwState]) -> String {
    states.iter().map(|&s| glyph(s)).collect()
}

/// Renders a recorded execution (`rounds[t]` holds the states of round
/// `t`) as a round-per-line block with round numbers, suitable for
/// printing to a terminal.
pub fn render_trace(rounds: &[Vec<BfwState>]) -> String {
    let mut out = String::new();
    let width = rounds.len().saturating_sub(1).to_string().len().max(1);
    for (t, states) in rounds.iter().enumerate() {
        let _ = writeln!(out, "{t:>width$} | {}", render_round(states));
    }
    out
}

/// Returns the legend explaining the glyphs, one mapping per line.
pub fn legend() -> String {
    BfwState::ALL
        .iter()
        .map(|&s| format!("{} = {}", glyph(s), s.symbol()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders one round of a `rows × cols` grid topology as a 2-D block
/// (row-major node order, matching
/// [`bfw_graph::generators::grid`]).
///
/// # Panics
///
/// Panics if `states.len() != rows * cols`.
///
/// # Example
///
/// ```
/// use bfw_core::{viz, BfwState};
///
/// let block = viz::render_grid_round(
///     &[BfwState::LeaderWaiting, BfwState::Waiting,
///       BfwState::Beeping, BfwState::Frozen],
///     2, 2,
/// );
/// assert_eq!(block, "L.\n*-\n");
/// ```
pub fn render_grid_round(states: &[BfwState], rows: usize, cols: usize) -> String {
    assert_eq!(
        states.len(),
        rows * cols,
        "states must cover the whole grid"
    );
    let mut out = String::with_capacity(rows * (cols + 1));
    for r in 0..rows {
        for c in 0..cols {
            out.push(glyph(states[r * cols + c]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Bfw, InitialConfig};
    use bfw_graph::{generators, NodeId};
    use bfw_sim::Network;

    #[test]
    fn glyphs_are_distinct() {
        let mut glyphs: Vec<char> = BfwState::ALL.iter().map(|&s| glyph(s)).collect();
        glyphs.sort_unstable();
        glyphs.dedup();
        assert_eq!(glyphs.len(), 6);
    }

    #[test]
    fn render_round_order_and_length() {
        use BfwState::*;
        let s = render_round(&[
            LeaderWaiting,
            LeaderBeeping,
            LeaderFrozen,
            Waiting,
            Beeping,
            Frozen,
        ]);
        assert_eq!(s, "L!=.*-");
    }

    #[test]
    fn render_trace_shape() {
        let n = 7;
        let bfw = Bfw::new(0.5).with_initial_config(InitialConfig::Nodes(vec![
            NodeId::new(0),
            NodeId::new(n - 1),
        ]));
        let mut trace = Vec::new();
        let mut net = Network::new(bfw, generators::path(n).into(), 3);
        net.run_until(12, |v| {
            trace.push(v.states.to_vec());
            false
        });
        let text = render_trace(&trace);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 13);
        // Round 0: leaders at the ends, everyone waiting.
        assert!(lines[0].ends_with("L.....L"));
        // Every line has the round-number prefix and n glyphs.
        for line in &lines {
            let (_, glyphs) = line.split_once(" | ").expect("separator present");
            assert_eq!(glyphs.chars().count(), n);
        }
    }

    #[test]
    fn legend_mentions_every_symbol() {
        let l = legend();
        for s in BfwState::ALL {
            assert!(l.contains(s.symbol()), "missing {}", s.symbol());
        }
        assert_eq!(l.lines().count(), 6);
    }

    #[test]
    fn grid_rendering_shape() {
        use BfwState::*;
        let block = render_grid_round(&[LeaderWaiting; 6], 2, 3);
        assert_eq!(block, "LLL\nLLL\n");
        let mixed = render_grid_round(&[LeaderBeeping, Waiting, Frozen, Waiting], 2, 2);
        assert_eq!(mixed, "!.\n-.\n");
    }

    #[test]
    #[should_panic(expected = "cover the whole grid")]
    fn grid_rendering_validates_shape() {
        let _ = render_grid_round(&[BfwState::Waiting; 5], 2, 3);
    }
}
