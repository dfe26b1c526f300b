//! Analysis specifications: clock bindings, boundary timing, options.

use std::collections::HashMap;

use hb_units::{Time, Transition};

/// A reference to a clock edge: which clock, which direction, and which
/// occurrence within the overall period (relevant when the clock runs at
/// a multiple of the overall frequency).
///
/// # Examples
///
/// ```
/// use hb_units::Transition;
/// use hummingbird::EdgeSpec;
///
/// let launch = EdgeSpec::new("phi1", Transition::Rise);
/// assert_eq!(launch.occurrence, 0);
/// let third = EdgeSpec::new("fast", Transition::Fall).at_occurrence(2);
/// assert_eq!(third.occurrence, 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeSpec {
    /// The clock name (resolved against the [`hb_clock::ClockSet`]).
    pub clock: String,
    /// The edge direction.
    pub transition: Transition,
    /// Which occurrence within the overall period (0-based).
    pub occurrence: u32,
}

impl EdgeSpec {
    /// References occurrence 0 of the given edge.
    pub fn new(clock: impl Into<String>, transition: Transition) -> EdgeSpec {
        EdgeSpec {
            clock: clock.into(),
            transition,
            occurrence: 0,
        }
    }

    /// Selects a later occurrence within the overall period.
    pub fn at_occurrence(mut self, occurrence: u32) -> EdgeSpec {
        self.occurrence = occurrence;
        self
    }
}

/// How level-sensitive latches are modelled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LatchModel {
    /// The paper's model: transparent latches have adjustable
    /// closure/assertion offsets within the control pulse, enabling slack
    /// transfer (Algorithm 1).
    #[default]
    Transparent,
    /// The McWilliams (DAC'80) style baseline: every latch captures and
    /// asserts on the trailing edge of its pulse, with no transparency.
    /// Used by the comparison benchmarks; safe but pessimistic.
    EdgeTriggered,
}

/// Which slack-evaluation engine runs the per-pass sweeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The cluster-sharded engine: per-`(cluster, pass)` sweeps over
    /// compact CSR subgraphs, scheduled onto a thread pool, with
    /// incremental reuse of clusters whose seeds did not move.
    /// Bit-identical to [`EngineKind::Reference`] at any thread count.
    #[default]
    Sharded,
    /// The reference engine: one dense whole-graph forward and backward
    /// sweep per global pass, single-threaded, on a timing graph it
    /// builds for each analysis. Kept for differential testing and
    /// benchmarking.
    Reference,
}

/// Tuning knobs for the analysis algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// The latch model (paper vs baseline).
    pub latch_model: LatchModel,
    /// Safety cap on slack-transfer cycles per direction. The paper
    /// bounds each iteration by one more than the number of
    /// synchronising elements in a directed path; this cap guards
    /// against pathological inputs.
    pub max_cycles: usize,
    /// Also evaluate the supplementary (minimum-delay) path constraints
    /// after Algorithm 1. The paper defines these but notes its
    /// algorithms do not check them; this is an extension.
    pub check_min_delays: bool,
    /// Worker threads for the sharded engine's sweeps. `0` (the
    /// default) uses [`std::thread::available_parallelism`]. The result
    /// is bit-identical at any thread count.
    pub threads: usize,
    /// Which slack-evaluation engine to use.
    pub engine: EngineKind,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            latch_model: LatchModel::Transparent,
            max_cycles: 64,
            check_min_delays: false,
            threads: 0,
            engine: EngineKind::Sharded,
        }
    }
}

impl AnalysisOptions {
    /// Resolves [`AnalysisOptions::threads`]: `0` becomes the machine's
    /// available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// The boundary specification of an analysis: which ports carry clocks,
/// when primary inputs are asserted, and when primary outputs must
/// settle.
///
/// Built fluently:
///
/// ```
/// use hb_units::{Time, Transition};
/// use hummingbird::{EdgeSpec, Spec};
///
/// let spec = Spec::new()
///     .clock_port("ck", "phi1")
///     .input_arrival("data_in", EdgeSpec::new("phi1", Transition::Rise), Time::from_ns(2))
///     .output_required("data_out", EdgeSpec::new("phi1", Transition::Rise), Time::ZERO);
/// assert_eq!(spec.clock_ports().count(), 1);
/// ```
///
/// Defaults: data input ports without an explicit arrival are asserted
/// at the first timeline edge with zero offset; output ports without an
/// explicit requirement are unconstrained.
#[derive(Clone, Debug, Default)]
pub struct Spec {
    clock_ports: HashMap<String, String>,
    input_arrivals: HashMap<String, (EdgeSpec, Time)>,
    output_requireds: HashMap<String, (EdgeSpec, Time)>,
}

impl Spec {
    /// Creates an empty spec.
    pub fn new() -> Spec {
        Spec::default()
    }

    /// Declares that module port `port` carries clock `clock`.
    pub fn clock_port(mut self, port: impl Into<String>, clock: impl Into<String>) -> Spec {
        self.clock_ports.insert(port.into(), clock.into());
        self
    }

    /// Declares that input port `port` is asserted `offset` after `edge`.
    pub fn input_arrival(mut self, port: impl Into<String>, edge: EdgeSpec, offset: Time) -> Spec {
        self.input_arrivals.insert(port.into(), (edge, offset));
        self
    }

    /// Declares that output port `port` must settle by `offset` after
    /// `edge` (its closure time).
    pub fn output_required(
        mut self,
        port: impl Into<String>,
        edge: EdgeSpec,
        offset: Time,
    ) -> Spec {
        self.output_requireds.insert(port.into(), (edge, offset));
        self
    }

    /// Iterates over `(port, clock)` bindings.
    pub fn clock_ports(&self) -> impl Iterator<Item = (&str, &str)> {
        self.clock_ports
            .iter()
            .map(|(p, c)| (p.as_str(), c.as_str()))
    }

    /// The clock bound to `port`, if any.
    pub fn clock_for_port(&self, port: &str) -> Option<&str> {
        self.clock_ports.get(port).map(String::as_str)
    }

    /// The explicit arrival of input `port`, if any.
    pub fn arrival_for_port(&self, port: &str) -> Option<(&EdgeSpec, Time)> {
        self.input_arrivals.get(port).map(|(e, t)| (e, *t))
    }

    /// The explicit requirement on output `port`, if any.
    pub fn required_for_port(&self, port: &str) -> Option<(&EdgeSpec, Time)> {
        self.output_requireds.get(port).map(|(e, t)| (e, *t))
    }

    /// Iterates over explicit input arrivals.
    pub fn input_arrivals(&self) -> impl Iterator<Item = (&str, &EdgeSpec, Time)> {
        self.input_arrivals
            .iter()
            .map(|(p, (e, t))| (p.as_str(), e, *t))
    }

    /// Iterates over explicit output requirements.
    pub fn output_requireds(&self) -> impl Iterator<Item = (&str, &EdgeSpec, Time)> {
        self.output_requireds
            .iter()
            .map(|(p, (e, t))| (p.as_str(), e, *t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder() {
        let spec = Spec::new()
            .clock_port("ck1", "phi1")
            .clock_port("ck2", "phi2")
            .input_arrival(
                "a",
                EdgeSpec::new("phi1", Transition::Rise),
                Time::from_ns(1),
            )
            .output_required("y", EdgeSpec::new("phi2", Transition::Fall), Time::ZERO);
        assert_eq!(spec.clock_for_port("ck1"), Some("phi1"));
        assert_eq!(spec.clock_for_port("nope"), None);
        let (edge, off) = spec.arrival_for_port("a").unwrap();
        assert_eq!(edge.clock, "phi1");
        assert_eq!(off, Time::from_ns(1));
        assert!(spec.required_for_port("y").is_some());
        assert_eq!(spec.input_arrivals().count(), 1);
        assert_eq!(spec.output_requireds().count(), 1);
    }

    #[test]
    fn options_default() {
        let o = AnalysisOptions::default();
        assert_eq!(o.latch_model, LatchModel::Transparent);
        const _: () = assert!(crate::algorithms::PARTIAL_DIVISOR > 1);
        assert!(o.max_cycles > 0);
        assert!(!o.check_min_delays);
    }

    #[test]
    fn edge_spec_occurrence() {
        let e = EdgeSpec::new("c", Transition::Fall).at_occurrence(3);
        assert_eq!(e.occurrence, 3);
        assert_eq!(e.transition, Transition::Fall);
    }
}
