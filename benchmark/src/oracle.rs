//! The correctness oracle: one round of the workload through bare
//! [`SessionEngine`]s (no applier, no runtime), recording which burst event of
//! each cycle triggers the accepted inference and what it decides. The run
//! under measurement must reproduce these decisions in every round.

use crate::workloads::Workload;
use swift_bgp::{AsLink, PeerId};
use swift_core::pipeline::session_engines;

/// What SWIFT decides for one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The session the reroute is installed for.
    pub session: PeerId,
    /// The inferred links, highest fit score first.
    pub links: Vec<AsLink>,
    /// Number of prefixes rerouted.
    pub predicted: usize,
}

/// The oracle's verdict on one cycle that reroutes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trigger {
    /// Index into the cycle's burst of the event whose processing accepts the
    /// inference.
    pub index: usize,
    /// The accepted inference.
    pub decision: Decision,
}

/// One round's expected outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Per cycle: the trigger, or `None` when the burst never reroutes.
    pub cycles: Vec<Option<Trigger>>,
}

impl Expected {
    /// Reroute decisions per round.
    pub fn decisions(&self) -> usize {
        self.cycles.iter().flatten().count()
    }

    /// Share of the decisions whose links contain the generator's failed link.
    pub fn localisation_hit_share(&self, workload: &Workload) -> f64 {
        let hits = self
            .cycles
            .iter()
            .zip(&workload.cycles)
            .filter_map(|(trigger, cycle)| Some((trigger.as_ref()?, cycle)))
            .filter(|(trigger, cycle)| trigger.decision.links.contains(&cycle.failed_link))
            .count();
        hits as f64 / self.decisions().max(1) as f64
    }

    /// FNV-1a digest of the round's decisions, the value pinned under
    /// `expected/` for seed 1.
    pub fn digest(&self) -> String {
        let mut text = String::new();
        for (k, trigger) in self.cycles.iter().enumerate() {
            let Some(trigger) = trigger else { continue };
            let d = &trigger.decision;
            text.push_str(&format!(
                "{k}:{}:{}:{}",
                d.session.0, trigger.index, d.predicted
            ));
            for link in &d.links {
                text.push_str(&format!(":{}-{}", link.from.value(), link.to.value()));
            }
            text.push(';');
        }
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in text.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }
}

/// Runs the oracle pass over round 0 of `workload`.
pub fn expect(workload: &Workload) -> Expected {
    let mut engines = session_engines(&workload.swift, &workload.table);
    let cycles = workload
        .cycles
        .iter()
        .map(|cycle| {
            let engine = engines
                .get_mut(&cycle.peer)
                .expect("cycle session is in the table");
            let mut trigger = None;
            for (index, event) in cycle.burst.iter().enumerate() {
                let (_, result) = engine.process(event);
                if let Some(result) = result {
                    trigger = Some(Trigger {
                        index,
                        decision: Decision {
                            session: cycle.peer,
                            links: result.links.links,
                            predicted: result.prediction.predicted.len(),
                        },
                    });
                }
            }
            for event in &cycle.recovery {
                let (_, result) = engine.process(event);
                assert!(result.is_none(), "a recovery announcement rerouted");
            }
            trigger
        })
        .collect();
    Expected { cycles }
}
