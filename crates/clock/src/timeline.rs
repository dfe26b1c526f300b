//! Enumeration of all clock edges within one overall period.

use std::collections::HashMap;
use std::fmt;

use hb_units::{Sense, Time, Transition};

use crate::clock::{ClockId, ClockSet};

/// Handle to one clock-generator edge occurrence within the overall
/// period.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Creates an id from a raw index.
    ///
    /// Intended for test fixtures and serialization layers that mirror a
    /// timeline's own numbering; a fabricated id panics on first use
    /// against the wrong timeline.
    pub fn from_raw(index: u32) -> EdgeId {
        EdgeId(index)
    }

    /// Returns the raw index (the rank of the edge in time order).
    pub fn as_raw(self) -> u32 {
        self.0
    }

    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One edge occurrence: which clock, which direction, and when (within
/// `[0, overall_period)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockEdge {
    /// The clock that produces the edge.
    pub clock: ClockId,
    /// Rising or falling.
    pub polarity: Transition,
    /// The time of the edge within the overall period.
    pub time: Time,
}

impl fmt::Display for ClockEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} @ {}", self.clock, self.polarity, self.time)
    }
}

/// One control pulse as seen by a synchronising element: a leading edge
/// (output assertion in the ideal system for transparent latches), a
/// trailing edge (input closure), and the pulse width.
///
/// An element clocked at `n×` the overall frequency sees `n` pulses per
/// overall period; the paper represents such an element by `n` parallel
/// replicas, one per pulse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pulse {
    /// The pulse index within the overall period, `0..n`.
    pub index: u32,
    /// The edge that starts the enabled window.
    pub lead: EdgeId,
    /// The edge that ends the enabled window.
    pub trail: EdgeId,
    /// The window width.
    pub width: Time,
}

/// All clock edges of a [`ClockSet`] within one overall period, sorted by
/// time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Timeline {
    overall: Time,
    edges: Vec<ClockEdge>,
    by_key: HashMap<(ClockId, Transition, Time), EdgeId>,
    /// Pulses per clock for the enabled-high phase, indexed by clock.
    pulses_high: Vec<Vec<Pulse>>,
    /// Pulses per clock for the enabled-low phase.
    pulses_low: Vec<Vec<Pulse>>,
}

impl Timeline {
    pub(crate) fn build(set: &ClockSet) -> Timeline {
        let overall = set.overall_period();
        let mut edges = Vec::new();
        for (id, clock) in set.clocks() {
            let n = overall / clock.period();
            for k in 0..n {
                for (polarity, offset) in [
                    (Transition::Rise, clock.rise()),
                    (Transition::Fall, clock.fall()),
                ] {
                    edges.push(ClockEdge {
                        clock: id,
                        polarity,
                        time: (offset + clock.period() * k).rem_euclid(overall),
                    });
                }
            }
        }
        edges.sort_by_key(|e| (e.time, e.clock, e.polarity));
        let by_key = edges
            .iter()
            .enumerate()
            .map(|(i, e)| ((e.clock, e.polarity, e.time), EdgeId(i as u32)))
            .collect();
        let mut timeline = Timeline {
            overall,
            edges,
            by_key,
            pulses_high: Vec::new(),
            pulses_low: Vec::new(),
        };
        for (id, clock) in set.clocks() {
            debug_assert_eq!(id.idx(), timeline.pulses_high.len());
            let n = overall / clock.period();
            let mut high = Vec::with_capacity(n as usize);
            let mut low = Vec::with_capacity(n as usize);
            for k in 0..n {
                let rise_t = (clock.rise() + clock.period() * k).rem_euclid(overall);
                let fall_after_rise = (rise_t + clock.high_width()).rem_euclid(overall);
                high.push(Pulse {
                    index: k as u32,
                    lead: timeline
                        .find_edge(id, Transition::Rise, rise_t)
                        .expect("rise edge exists"),
                    trail: timeline
                        .find_edge(id, Transition::Fall, fall_after_rise)
                        .expect("fall edge exists"),
                    width: clock.high_width(),
                });
                let fall_t = (clock.fall() + clock.period() * k).rem_euclid(overall);
                let rise_after_fall = (fall_t + clock.low_width()).rem_euclid(overall);
                low.push(Pulse {
                    index: k as u32,
                    lead: timeline
                        .find_edge(id, Transition::Fall, fall_t)
                        .expect("fall edge exists"),
                    trail: timeline
                        .find_edge(id, Transition::Rise, rise_after_fall)
                        .expect("rise edge exists"),
                    width: clock.low_width(),
                });
            }
            timeline.pulses_high.push(high);
            timeline.pulses_low.push(low);
        }
        timeline
    }

    /// The overall period (LCM of all clock periods).
    pub fn overall_period(&self) -> Time {
        self.overall
    }

    /// Iterates over `(id, edge)` pairs in time order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &ClockEdge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// The number of edges in one overall period.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns an edge.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this timeline.
    pub fn edge(&self, id: EdgeId) -> &ClockEdge {
        &self.edges[id.idx()]
    }

    /// The time of an edge, within `[0, overall_period)`.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this timeline.
    pub fn edge_time(&self, id: EdgeId) -> Time {
        self.edges[id.idx()].time
    }

    /// Finds the edge of `clock` with the given polarity at time `time`
    /// (normalized into the overall period).
    pub fn find_edge(&self, clock: ClockId, polarity: Transition, time: Time) -> Option<EdgeId> {
        self.by_key
            .get(&(clock, polarity, time.rem_euclid(self.overall)))
            .copied()
    }

    /// The control pulses of `clock` for an element whose control is
    /// enabled while the clock is high ([`Sense::Positive`]) or low
    /// ([`Sense::Negative`]).
    ///
    /// # Panics
    ///
    /// Panics on [`Sense::NonUnate`]: the paper's assumptions require
    /// every control signal to be a monotonic function of its clock.
    pub fn pulses(&self, clock: ClockId, control_sense: Sense) -> &[Pulse] {
        match control_sense {
            Sense::Positive => &self.pulses_high[clock.idx()],
            Sense::Negative => &self.pulses_low[clock.idx()],
            Sense::NonUnate => {
                panic!("control signals must be monotonic functions of one clock")
            }
        }
    }

    /// The ideal path constraint `D_p` between an assertion edge and a
    /// closure edge: the elapsed time from the assertion to the *very
    /// next* occurrence of the closure edge, in `(0, overall_period]`.
    ///
    /// For a path launched and captured by the same edge this yields
    /// exactly one overall period (the paper's special case b in
    /// Section 4).
    pub fn ideal_constraint(&self, assert_edge: EdgeId, close_edge: EdgeId) -> Time {
        (self.edge_time(close_edge) - self.edge_time(assert_edge)).rem_euclid_end(self.overall)
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "timeline (overall period {}):", self.overall)?;
        for (id, edge) in self.edges() {
            writeln!(f, "  {id}: {edge}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockSet;

    fn two_phase() -> ClockSet {
        let mut set = ClockSet::new();
        set.add_clock("phi1", Time::from_ns(100), Time::ZERO, Time::from_ns(40))
            .unwrap();
        set.add_clock(
            "phi2",
            Time::from_ns(100),
            Time::from_ns(50),
            Time::from_ns(90),
        )
        .unwrap();
        set
    }

    #[test]
    fn edges_are_sorted() {
        let set = two_phase();
        let tl = set.timeline();
        let times: Vec<i64> = tl.edges().map(|(_, e)| e.time.as_ps()).collect();
        assert_eq!(times, vec![0, 40_000, 50_000, 90_000]);
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    #[test]
    fn multirate_replication() {
        let mut set = ClockSet::new();
        let slow = set
            .add_clock("slow", Time::from_ns(100), Time::ZERO, Time::from_ns(50))
            .unwrap();
        let fast = set
            .add_clock(
                "fast",
                Time::from_ns(25),
                Time::from_ns(5),
                Time::from_ns(15),
            )
            .unwrap();
        let tl = set.timeline();
        assert_eq!(tl.overall_period(), Time::from_ns(100));
        // fast contributes 4 pulses -> 8 edges; slow contributes 2.
        assert_eq!(tl.edge_count(), 10);
        assert_eq!(tl.pulses(fast, Sense::Positive).len(), 4);
        assert_eq!(tl.pulses(slow, Sense::Positive).len(), 1);
        let p1 = tl.pulses(fast, Sense::Positive)[1];
        assert_eq!(tl.edge_time(p1.lead), Time::from_ns(30));
        assert_eq!(tl.edge_time(p1.trail), Time::from_ns(40));
        assert_eq!(p1.width, Time::from_ns(10));
    }

    #[test]
    fn low_phase_pulses_wrap() {
        let set = two_phase();
        let tl = set.timeline();
        let phi1 = ClockId(0);
        let low = tl.pulses(phi1, Sense::Negative);
        assert_eq!(low.len(), 1);
        // Low window: 40 ns .. 100 ns (wraps to next rise at 0 = 100).
        assert_eq!(tl.edge_time(low[0].lead), Time::from_ns(40));
        assert_eq!(tl.edge_time(low[0].trail), Time::ZERO);
        assert_eq!(low[0].width, Time::from_ns(60));
    }

    #[test]
    fn ideal_constraints() {
        let set = two_phase();
        let tl = set.timeline();
        let phi1_rise = tl
            .find_edge(ClockId(0), Transition::Rise, Time::ZERO)
            .unwrap();
        let phi2_fall = tl
            .find_edge(ClockId(1), Transition::Fall, Time::from_ns(90))
            .unwrap();
        // Leading phi1 edge to next phi2 trailing edge: 90 ns.
        assert_eq!(tl.ideal_constraint(phi1_rise, phi2_fall), Time::from_ns(90));
        // Reverse direction wraps: 10 ns.
        assert_eq!(tl.ideal_constraint(phi2_fall, phi1_rise), Time::from_ns(10));
        // Same edge: exactly one overall period.
        assert_eq!(
            tl.ideal_constraint(phi1_rise, phi1_rise),
            Time::from_ns(100)
        );
    }

    #[test]
    fn find_edge_normalizes() {
        let set = two_phase();
        let tl = set.timeline();
        let e = tl.find_edge(ClockId(0), Transition::Rise, Time::from_ns(100));
        assert!(e.is_some(), "time is taken modulo the overall period");
        assert_eq!(
            tl.find_edge(ClockId(0), Transition::Rise, Time::from_ns(1)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn non_unate_control_panics() {
        let set = two_phase();
        let tl = set.timeline();
        let _ = tl.pulses(ClockId(0), Sense::NonUnate);
    }

    #[test]
    fn display_lists_edges() {
        let set = two_phase();
        let tl = set.timeline();
        let text = tl.to_string();
        assert!(text.contains("overall period 100ns"));
        assert!(text.contains("e0"));
    }
}
