//! The clock-edge ordering graph and analysis-pass minimisation
//! (Section 7 of the paper, Figure 4).
//!
//! Cluster-level block analysis needs every ideal assertion time and
//! ideal closure time expressed against a single reference — the clock
//! period must be "broken open" into a linear window. A *requirement*
//! (one per cluster input→output combination with a connecting path)
//! states that the assertion edge must appear before the closure edge in
//! the window. No single break point satisfies all requirements in
//! general (Figure 1 of the paper needs two), so the analyzer selects a
//! **minimum set of break points** — one analysis pass each — such that
//! every requirement is satisfied in at least one pass.

use std::collections::HashSet;
use std::fmt;

use hb_units::Time;

use crate::timeline::{EdgeId, Timeline};

/// A clock-edge ordering requirement: `assert_edge` must appear strictly
/// before `close_edge` in some analysis window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Requirement {
    /// The ideal assertion edge of a cluster input.
    pub assert_edge: EdgeId,
    /// The ideal closure edge of a cluster output reachable from it.
    pub close_edge: EdgeId,
}

/// The selected set of analysis passes: one "broken open" clock period
/// per pass, identified by its window start time.
///
/// Within a pass starting at `s`, times are placed as
///
/// * assertion position `(t − s) mod T ∈ [0, T)`;
/// * closure position `((t − s − 1) mod T) + 1 ∈ (0, T]`,
///
/// so a closure edge coinciding with the window start lands at the *end*
/// of the window. Each cluster output is analyzed in the pass that places
/// its ideal closure time closest to the end ([`PassPlan::pass_for_closure`]);
/// that pass provably satisfies every requirement into the output that
/// any selected pass satisfies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassPlan {
    overall: Time,
    starts: Vec<Time>,
}

impl PassPlan {
    /// A single-pass plan with the given window start.
    pub fn single(overall: Time, start: Time) -> PassPlan {
        PassPlan {
            overall,
            starts: vec![start.rem_euclid(overall)],
        }
    }

    /// The overall period the windows span.
    pub fn overall_period(&self) -> Time {
        self.overall
    }

    /// The window start times, one per pass.
    pub fn starts(&self) -> &[Time] {
        &self.starts
    }

    /// The number of passes — the paper's "minimum number of settling
    /// times" that must be evaluated per node.
    pub fn pass_count(&self) -> usize {
        self.starts.len()
    }

    /// The position of an assertion time within pass `pass`, in `[0, T)`.
    ///
    /// # Panics
    ///
    /// Panics if `pass` is out of range.
    pub fn pos_assert(&self, pass: usize, time: Time) -> Time {
        (time - self.starts[pass]).rem_euclid(self.overall)
    }

    /// The position of a closure time within pass `pass`, in `(0, T]`.
    ///
    /// # Panics
    ///
    /// Panics if `pass` is out of range.
    pub fn pos_close(&self, pass: usize, time: Time) -> Time {
        (time - self.starts[pass]).rem_euclid_end(self.overall)
    }

    /// The pass in which a closure at `time` appears closest to the end
    /// of the window.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no passes.
    pub fn pass_for_closure(&self, time: Time) -> usize {
        assert!(!self.starts.is_empty(), "plan has no passes");
        (0..self.starts.len())
            .max_by_key(|&p| self.pos_close(p, time))
            .expect("non-empty")
    }

    /// Whether requirement `(assert_time, close_time)` is satisfied in
    /// pass `pass`.
    pub fn satisfies(&self, pass: usize, assert_time: Time, close_time: Time) -> bool {
        self.pos_close(pass, close_time) > self.pos_assert(pass, assert_time)
    }
}

/// The directed graph representing the cyclic sequence of clock edges,
/// with the pass-minimisation search.
#[derive(Clone, Debug)]
pub struct EdgeGraph<'a> {
    timeline: &'a Timeline,
    /// Candidate window starts: the distinct edge times. Breaking the
    /// cycle on the arc *into* an edge makes that edge's time the window
    /// start; arcs between simultaneous edges are equivalent and deduped.
    starts: Vec<Time>,
}

impl<'a> EdgeGraph<'a> {
    /// Builds the graph for a timeline.
    pub fn new(timeline: &'a Timeline) -> EdgeGraph<'a> {
        let mut starts: Vec<Time> = timeline.edges().map(|(_, e)| e.time).collect();
        starts.dedup();
        EdgeGraph { timeline, starts }
    }

    /// The timeline the graph was built from.
    pub fn timeline(&self) -> &Timeline {
        self.timeline
    }

    /// Whether breaking the period at `start` satisfies `req`.
    pub fn start_satisfies(&self, start: Time, req: Requirement) -> bool {
        let overall = self.timeline.overall_period();
        let a = (self.timeline.edge_time(req.assert_edge) - start).rem_euclid(overall);
        let c = (self.timeline.edge_time(req.close_edge) - start).rem_euclid_end(overall);
        c > a
    }

    /// Finds a minimum-size set of passes covering all requirements.
    ///
    /// The search is exhaustive over subsets of size 1, 2 and 3 (the
    /// paper: "very seldom is it necessary to remove more than two
    /// arcs"); beyond that a greedy set cover finishes the job. With no
    /// requirements a single pass starting at the first edge is returned,
    /// so downstream analysis always has a window to work in.
    pub fn minimal_passes(&self, requirements: &[Requirement]) -> PassPlan {
        let overall = self.timeline.overall_period();
        let unique: Vec<Requirement> = {
            let mut seen = HashSet::new();
            requirements
                .iter()
                .copied()
                .filter(|r| seen.insert(*r))
                .collect()
        };
        if unique.is_empty() || self.starts.is_empty() {
            let first = self.starts.first().copied().unwrap_or(Time::ZERO);
            return PassPlan::single(overall, first);
        }

        // sat[c] = bitset over requirements satisfied by candidate c.
        let blocks = unique.len().div_ceil(64);
        let sat: Vec<Vec<u64>> = self
            .starts
            .iter()
            .map(|&s| {
                let mut bits = vec![0u64; blocks];
                for (i, &req) in unique.iter().enumerate() {
                    if self.start_satisfies(s, req) {
                        bits[i / 64] |= 1 << (i % 64);
                    }
                }
                bits
            })
            .collect();
        let full: Vec<u64> = (0..blocks)
            .map(|b| {
                let rem = unique.len() - b * 64;
                if rem >= 64 {
                    u64::MAX
                } else {
                    (1u64 << rem) - 1
                }
            })
            .collect();
        let covers = |chosen: &[usize]| -> bool {
            (0..blocks).all(|b| chosen.iter().fold(0u64, |acc, &c| acc | sat[c][b]) == full[b])
        };

        let n = self.starts.len();
        for i in 0..n {
            if covers(&[i]) {
                return PassPlan {
                    overall,
                    starts: vec![self.starts[i]],
                };
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if covers(&[i, j]) {
                    return PassPlan {
                        overall,
                        starts: vec![self.starts[i], self.starts[j]],
                    };
                }
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                for k in (j + 1)..n {
                    if covers(&[i, j, k]) {
                        return PassPlan {
                            overall,
                            starts: vec![self.starts[i], self.starts[j], self.starts[k]],
                        };
                    }
                }
            }
        }

        // Greedy fallback: always terminates because the break just after
        // each closure edge satisfies every requirement into it.
        let mut remaining = full.clone();
        let mut chosen: Vec<usize> = Vec::new();
        while remaining.iter().any(|&b| b != 0) {
            let best = (0..n)
                .filter(|c| !chosen.contains(c))
                .max_by_key(|&c| {
                    (0..blocks)
                        .map(|b| (sat[c][b] & remaining[b]).count_ones())
                        .sum::<u32>()
                })
                .expect("candidates remain while requirements do");
            let gained: u32 = (0..blocks)
                .map(|b| (sat[best][b] & remaining[b]).count_ones())
                .sum();
            assert!(gained > 0, "every requirement is satisfiable by some break");
            for b in 0..blocks {
                remaining[b] &= !sat[best][b];
            }
            chosen.push(best);
        }
        PassPlan {
            overall,
            starts: chosen.into_iter().map(|c| self.starts[c]).collect(),
        }
    }
}

impl fmt::Display for EdgeGraph<'_> {
    /// Prints the cyclic edge order in the style of Figure 4(b).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "clock edge graph (overall period {}):",
            self.timeline.overall_period()
        )?;
        let edges: Vec<_> = self.timeline.edges().collect();
        for (i, (id, edge)) in edges.iter().enumerate() {
            let next = &edges[(i + 1) % edges.len()];
            writeln!(f, "  {id} ({edge}) -> {}", next.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockSet;
    use hb_units::Transition;

    /// Four evenly spaced phases of a 100 ns clock, Figure 1 style.
    fn four_phase() -> ClockSet {
        let mut set = ClockSet::new();
        for (i, name) in ["p1", "p2", "p3", "p4"].iter().enumerate() {
            let start = Time::from_ns(25 * i as i64);
            set.add_clock(*name, Time::from_ns(100), start, start + Time::from_ns(10))
                .unwrap();
        }
        set
    }

    fn edge(tl: &Timeline, clock: u32, pol: Transition, ns: i64) -> EdgeId {
        tl.find_edge(crate::ClockId(clock), pol, Time::from_ns(ns))
            .expect("edge exists")
    }

    #[test]
    fn no_requirements_yields_one_pass() {
        let set = four_phase();
        let tl = set.timeline();
        let graph = EdgeGraph::new(&tl);
        let plan = graph.minimal_passes(&[]);
        assert_eq!(plan.pass_count(), 1);
    }

    #[test]
    fn forward_chain_is_single_pass() {
        let set = four_phase();
        let tl = set.timeline();
        let graph = EdgeGraph::new(&tl);
        // p1 leading -> p2 trailing, p2 leading -> p3 trailing.
        let reqs = vec![
            Requirement {
                assert_edge: edge(&tl, 0, Transition::Rise, 0),
                close_edge: edge(&tl, 1, Transition::Fall, 35),
            },
            Requirement {
                assert_edge: edge(&tl, 1, Transition::Rise, 25),
                close_edge: edge(&tl, 2, Transition::Fall, 60),
            },
        ];
        let plan = graph.minimal_passes(&reqs);
        assert_eq!(plan.pass_count(), 1);
        for r in &reqs {
            let p = plan.pass_for_closure(tl.edge_time(r.close_edge));
            assert!(plan.satisfies(p, tl.edge_time(r.assert_edge), tl.edge_time(r.close_edge)));
        }
    }

    #[test]
    fn figure1_wraparound_needs_two_passes() {
        // The Figure 1 situation: a gate with inputs from latches on p1
        // and p3 and outputs captured by latches on p2 and p4 is "time
        // multiplexed within each overall clock period". The cluster
        // generates all four input→output combinations, and in
        // particular "p3-asserted data before the (wrapping) next p2
        // trailing edge" conflicts with "p1-asserted data before the p2
        // trailing edge" in any single window.
        let set = four_phase();
        let tl = set.timeline();
        let graph = EdgeGraph::new(&tl);
        let p1_lead = edge(&tl, 0, Transition::Rise, 0);
        let p3_lead = edge(&tl, 2, Transition::Rise, 50);
        let p2_trail = edge(&tl, 1, Transition::Fall, 35);
        let p4_trail = edge(&tl, 3, Transition::Fall, 85);
        let mut reqs = Vec::new();
        for a in [p1_lead, p3_lead] {
            for c in [p2_trail, p4_trail] {
                reqs.push(Requirement {
                    assert_edge: a,
                    close_edge: c,
                });
            }
        }
        let plan = graph.minimal_passes(&reqs);
        assert_eq!(plan.pass_count(), 2, "paper: two cluster analysis passes");
        for r in &reqs {
            let p = plan.pass_for_closure(tl.edge_time(r.close_edge));
            assert!(
                plan.satisfies(p, tl.edge_time(r.assert_edge), tl.edge_time(r.close_edge)),
                "closure-latest pass must satisfy {r:?}"
            );
        }
    }

    #[test]
    fn same_edge_requirement_gets_full_period() {
        // FF -> FF on the same clock edge: the break just after the edge
        // puts the closure at the end of the window.
        let mut set = ClockSet::new();
        set.add_clock("ck", Time::from_ns(20), Time::ZERO, Time::from_ns(10))
            .unwrap();
        let tl = set.timeline();
        let graph = EdgeGraph::new(&tl);
        let rise = edge(&tl, 0, Transition::Rise, 0);
        let req = Requirement {
            assert_edge: rise,
            close_edge: rise,
        };
        let plan = graph.minimal_passes(&[req]);
        assert_eq!(plan.pass_count(), 1);
        let p = plan.pass_for_closure(tl.edge_time(rise));
        assert_eq!(plan.pos_close(p, tl.edge_time(rise)), Time::from_ns(20));
        assert_eq!(plan.pos_assert(p, tl.edge_time(rise)), Time::ZERO);
        assert!(plan.satisfies(p, Time::ZERO, Time::ZERO));
    }

    #[test]
    fn pass_positions_are_well_formed() {
        let set = four_phase();
        let tl = set.timeline();
        let graph = EdgeGraph::new(&tl);
        let plan = graph.minimal_passes(&[]);
        let overall = tl.overall_period();
        for (_, e) in tl.edges() {
            let a = plan.pos_assert(0, e.time);
            let c = plan.pos_close(0, e.time);
            assert!(Time::ZERO <= a && a < overall);
            assert!(Time::ZERO < c && c <= overall);
            // Positions agree except at the window boundary.
            assert!(c == a || (a == Time::ZERO && c == overall));
        }
    }

    #[test]
    fn every_requirement_is_always_coverable() {
        // Adversarial set: all ordered pairs of edges as requirements.
        let set = four_phase();
        let tl = set.timeline();
        let graph = EdgeGraph::new(&tl);
        let ids: Vec<EdgeId> = tl.edges().map(|(id, _)| id).collect();
        let mut reqs = Vec::new();
        for &a in &ids {
            for &c in &ids {
                reqs.push(Requirement {
                    assert_edge: a,
                    close_edge: c,
                });
            }
        }
        let plan = graph.minimal_passes(&reqs);
        for r in &reqs {
            let found = (0..plan.pass_count()).any(|p| {
                plan.satisfies(p, tl.edge_time(r.assert_edge), tl.edge_time(r.close_edge))
            });
            assert!(found, "requirement {r:?} uncovered");
            // And specifically the closure-latest pass covers it.
            let p = plan.pass_for_closure(tl.edge_time(r.close_edge));
            assert!(plan.satisfies(p, tl.edge_time(r.assert_edge), tl.edge_time(r.close_edge)));
        }
    }

    #[test]
    fn display_shows_cycle() {
        let set = four_phase();
        let tl = set.timeline();
        let graph = EdgeGraph::new(&tl);
        let text = graph.to_string();
        assert!(text.contains("e0"));
        assert!(text.contains("->"));
    }
}
