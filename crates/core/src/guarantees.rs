//! The guarantee oracle, [`Guarantees`]: which flows and chains a scenario
//! guarantees against which bound, and the check of a run against them.

use crate::admission::{AdmissionOutcome, FlowGrant};
use crate::scatternet_scenario::ScatternetScenario;
use crate::scenario::{GsFlowPlan, PaperScenario};
use btgs_baseband::PiconetId;
use btgs_des::SimDuration;
use btgs_piconet::{ChainReport, RunReport, ScatternetReport};
use btgs_traffic::FlowId;

/// What a guarantee covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subject {
    /// A GS flow that is not a chain hop.
    Flow {
        /// The piconet the flow runs in (`P0` in a single piconet).
        piconet: PiconetId,
        /// The flow.
        flow: FlowId,
    },
    /// An admitted chain, end to end, by its index in the scatternet's
    /// chains.
    Chain(usize),
}

/// One guarantee checked against a run's reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Check {
    /// The flow or chain guaranteed.
    pub subject: Subject,
    /// The bound every delay sample of the subject must stay within.
    pub bound: SimDuration,
    /// Delay samples the run measured for the subject.
    pub samples: usize,
    /// The worst measured delay, if there was a sample.
    pub max: Option<SimDuration>,
    /// Samples strictly over the bound; a violation when non-zero.
    pub over: usize,
}

/// The reports a [`Guarantees`] is checked against: a single piconet's
/// [`RunReport`], a [`ScatternetReport`], or a grid cell's own reports
/// (from a [`CellResult`](crate::CellResult)).
#[derive(Clone, Copy, Debug)]
pub struct Measured<'a>(&'a [RunReport], &'a [ChainReport]);

impl<'a> From<&'a RunReport> for Measured<'a> {
    fn from(report: &'a RunReport) -> Self {
        Measured(std::slice::from_ref(report), &[])
    }
}

impl<'a> From<&'a ScatternetReport> for Measured<'a> {
    fn from(report: &'a ScatternetReport) -> Self {
        Measured(&report.piconets, &report.chains)
    }
}

/// Every guarantee of one scenario, under one rule — the paper's §4.2
/// claim, extended to chains:
///
/// * a GS flow that is not a chain hop answers to its plan's achievable
///   Eq. 1 bound, also when that bound misses the request
///   (`guaranteed == false`); a bare [`AdmissionOutcome`]'s flows answer
///   to their grant's bound;
/// * an admitted chain (one with a deadline) answers to its composed
///   end-to-end bound;
/// * a chain hop answers to nothing on its own: a measured-only hop's
///   plan ignores the bridge's absence, and an admitted hop's guarantee
///   is its chain's.
///
/// Flows come piconet by piconet in plan order, then chains. A violation
/// is a [`Check`] with samples over; `max / bound` is the margin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Guarantees(Vec<(Subject, SimDuration)>);

impl Guarantees {
    /// Checks `reports` against every guarantee, in order, without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if the reports lack a guaranteed piconet, flow or chain:
    /// they are not this scenario's ([`first_missing`](Self::first_missing)
    /// names the first such subject).
    pub fn check<'a>(
        &'a self,
        reports: impl Into<Measured<'a>>,
    ) -> impl Iterator<Item = Check> + 'a {
        let Measured(piconets, chains) = reports.into();
        self.0.iter().map(move |&(subject, bound)| {
            let delay = match subject {
                Subject::Flow { piconet, flow } => &piconets[piconet.index()].flow(flow).delay,
                Subject::Chain(chain) => &chains[chain].e2e,
            };
            // Sorts the samples in place first, so `max` and every later
            // order statistic of the subject are lookups.
            let over = delay.violations_of(bound);
            let (samples, max) = (delay.count(), delay.max());
            Check {
                subject,
                bound,
                samples,
                max,
                over,
            }
        })
    }

    /// The first guaranteed subject `reports` lack — a flow missing from
    /// its piconet's report (or whose piconet has none), or a chain index
    /// past the chain list — or `None` when [`check`](Self::check) finds
    /// every subject.
    pub fn first_missing<'a>(&self, reports: impl Into<Measured<'a>>) -> Option<Subject> {
        let Measured(piconets, chains) = reports.into();
        let lacks = |subject: &Subject| match *subject {
            Subject::Flow { piconet, flow } => (piconets.get(piconet.index()))
                .is_none_or(|report| !report.per_flow.contains_key(&flow)),
            Subject::Chain(chain) => chain >= chains.len(),
        };
        self.0.iter().map(|&(subject, _)| subject).find(lacks)
    }
}

/// The guarantees of piconet `p`'s plans, chain hops left out.
fn plan_guarantees<'a>(
    p: usize,
    plans: &'a [GsFlowPlan],
    hops: &'a [FlowId],
) -> impl Iterator<Item = (Subject, SimDuration)> + 'a {
    let piconet = PiconetId(p as u16);
    plans
        .iter()
        .filter(|plan| !hops.contains(&plan.request.id))
        .map(move |plan| {
            let flow = plan.request.id;
            (Subject::Flow { piconet, flow }, plan.achievable_bound)
        })
}

impl From<&ScatternetScenario> for Guarantees {
    /// Every non-hop GS flow of every piconet, then every admitted chain.
    fn from(scenario: &ScatternetScenario) -> Guarantees {
        let chains = scenario.config.chains.iter();
        let hops: Vec<FlowId> = chains.flat_map(|c| c.hops.iter().copied()).collect();
        let flows = (scenario.gs_plans.iter().enumerate())
            .flat_map(|(p, plans)| plan_guarantees(p, plans, &hops));
        let chains = (scenario.chain_grants.iter().enumerate())
            .map(|(c, grant)| (Subject::Chain(c), grant.composed_bound));
        Guarantees(flows.chain(chains).collect())
    }
}

impl From<&PaperScenario> for Guarantees {
    /// The Fig. 4 piconet's GS flows.
    fn from(scenario: &PaperScenario) -> Guarantees {
        Guarantees(plan_guarantees(0, &scenario.gs_plans, &[]).collect())
    }
}

impl From<&AdmissionOutcome> for Guarantees {
    /// Every admitted flow of one piconet, against its grant's bound.
    fn from(outcome: &AdmissionOutcome) -> Guarantees {
        let piconet = PiconetId(0);
        let flow = |g: &FlowGrant| {
            let flow = g.id;
            (Subject::Flow { piconet, flow }, g.bound)
        };
        Guarantees(outcome.flows.iter().map(flow).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scatternet_scenario::ScatternetScenarioParams;
    use crate::scenario::{PaperScenarioParams, PollerKind};
    use btgs_des::SimTime;
    use btgs_metrics::DelayStats;

    const MS: SimDuration = SimDuration::from_millis(1);

    /// The reports of a 2 ms run (1 ms warm-up) with every delay sample
    /// cleared, so a test checks exactly the samples it records.
    fn cleared(params: ScatternetScenarioParams) -> (ScatternetScenario, ScatternetReport) {
        let scenario = ScatternetScenario::build(ScatternetScenarioParams {
            warmup: MS,
            ..params
        });
        let run = scenario.run(PollerKind::PfpGs, SimTime::ZERO + 2 * MS);
        let mut report = run.expect("a derived scenario runs");
        for f in report
            .piconets
            .iter_mut()
            .flat_map(|r| r.per_flow.values_mut())
        {
            f.delay = DelayStats::new();
        }
        for c in &mut report.chains {
            c.e2e = DelayStats::new();
        }
        (scenario, report)
    }

    fn record(report: &mut ScatternetReport, p: usize, flow: FlowId, delay: SimDuration) {
        let flow = report.piconets[p].per_flow.get_mut(&flow);
        flow.expect("a configured flow").delay.record(delay);
    }

    /// Paper flow `f` (id `100·p + k`) of piconet `p`.
    fn flow(f: u32) -> Subject {
        let (piconet, flow) = (PiconetId((f / 100) as u16), FlowId(f));
        Subject::Flow { piconet, flow }
    }

    fn violations(g: &Guarantees, report: &ScatternetReport) -> Vec<(Subject, usize)> {
        let over = g.check(report).filter(|c| c.over > 0);
        over.map(|c| (c.subject, c.over)).collect()
    }

    /// The validation grid's admission-controlled two-piconet chain.
    fn admitted() -> ScatternetScenarioParams {
        ScatternetScenarioParams {
            delay_requirement: 46 * MS,
            bridge_cycle: 10 * MS,
            chain_deadline: Some(150 * MS),
            ..ScatternetScenarioParams::chained(2)
        }
    }

    #[test]
    fn hops_of_measured_only_chains_are_exempt() {
        let (scenario, mut report) = cleared(ScatternetScenarioParams::chained(2));
        assert_eq!(scenario.config.chains[0].hops, [FlowId(901), FlowId(902)]);
        // Every planned flow, both hops included, runs past its bound.
        for (p, plans) in scenario.gs_plans.iter().enumerate() {
            for plan in plans {
                record(&mut report, p, plan.request.id, plan.achievable_bound + MS);
            }
        }
        let expected = [1, 2, 3, 4, 101, 102, 103, 104].map(|f| (flow(f), 1));
        assert_eq!(violations(&Guarantees::from(&scenario), &report), expected);
    }

    #[test]
    fn hops_of_admitted_chains_are_exempt() {
        let (scenario, mut report) = cleared(admitted());
        // Every hop runs past its own grant; the chain holds its bound.
        let grant = &scenario.chain_grants[0];
        for hop in &grant.hops {
            record(&mut report, hop.piconet.index(), hop.flow, hop.bound + MS);
        }
        report.chains[0].e2e.record(grant.composed_bound);
        let guarantees = Guarantees::from(&scenario);
        assert_eq!(violations(&guarantees, &report), []);
        // End piconets trade S3's flow 4 for the hop's slot.
        let subjects: Vec<Subject> = guarantees.check(&report).map(|c| c.subject).collect();
        let paper = [1, 2, 3, 101, 102, 103].map(flow);
        assert_eq!(subjects, [&paper[..], &[Subject::Chain(0)]].concat());
    }

    #[test]
    fn first_missing_names_the_subject_the_reports_lack() {
        let (scenario, report) = cleared(admitted());
        let guarantees = Guarantees::from(&scenario);
        assert_eq!(guarantees.first_missing(&report), None);
        assert_eq!(guarantees.0.len(), 7, "six paper flows and the chain");
        for &(subject, _) in &guarantees.0 {
            let mut lacking = report.clone();
            match subject {
                Subject::Flow { piconet, flow } => {
                    let per_flow = &mut lacking.piconets[piconet.index()].per_flow;
                    assert!(per_flow.remove(&flow).is_some(), "{flow} was reported");
                }
                Subject::Chain(_) => lacking.chains.clear(),
            }
            assert_eq!(guarantees.first_missing(&lacking), Some(subject));
        }
        // Piconet 1's flows are missing from piconet 0's report alone.
        assert_eq!(
            guarantees.first_missing(&report.piconets[0]),
            Some(flow(101))
        );
    }

    #[test]
    fn an_unmet_request_answers_to_its_achievable_bound() {
        // Below 36.25 ms flow 4 saturates: its plan misses the request but
        // still promises its achievable bound.
        let (scenario, mut report) = cleared(ScatternetScenarioParams {
            delay_requirement: 30 * MS,
            ..ScatternetScenarioParams::chained(1)
        });
        let plan = &scenario.gs_plans[0][3];
        assert_eq!(plan.request.id, FlowId(4));
        assert!(!plan.guaranteed && plan.achievable_bound > 30 * MS);
        let paper = PaperScenario::build(PaperScenarioParams {
            delay_requirement: 30 * MS,
            ..Default::default()
        });
        let guarantees = Guarantees::from(&paper);
        assert_eq!(guarantees, Guarantees::from(&scenario));
        record(&mut report, 0, FlowId(4), plan.achievable_bound);
        assert_eq!(violations(&guarantees, &report), []);
        let just_over = plan.achievable_bound + SimDuration::from_nanos(1);
        record(&mut report, 0, FlowId(4), just_over);
        assert_eq!(violations(&guarantees, &report), [(flow(4), 1)]);
    }

    #[test]
    fn violations_name_subject_max_bound_and_count() {
        let (scenario, mut report) = cleared(admitted());
        let bound = (scenario.gs_plans[1].iter())
            .find(|p| p.request.id == FlowId(102))
            .expect("flow 102 has a plan")
            .achievable_bound;
        for delay in [bound, bound + 2 * MS, bound + MS] {
            record(&mut report, 1, FlowId(102), delay);
        }
        let composed = scenario.chain_grants[0].composed_bound;
        let e2e = &mut report.chains[0].e2e;
        e2e.record(composed);
        e2e.record(composed + SimDuration::from_nanos(1));
        let flow_102 = Check {
            subject: flow(102),
            bound,
            samples: 3,
            max: Some(bound + 2 * MS),
            over: 2,
        };
        let chain = Check {
            subject: Subject::Chain(0),
            bound: composed,
            samples: 2,
            max: Some(composed + SimDuration::from_nanos(1)),
            over: 1,
        };
        let guarantees = Guarantees::from(&scenario);
        let violations: Vec<Check> = guarantees.check(&report).filter(|c| c.over > 0).collect();
        assert_eq!(violations, [flow_102, chain]);
    }
}
