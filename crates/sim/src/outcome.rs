//! The functional outcome model of the timing simulator.
//!
//! Paper §3.1 trains every predictor in program order with idealized,
//! immediate updates, so the outcome of each prediction is a function of
//! the execution alone and never of the cycle count. This module steps
//! those predictors in program order and hands the cycle core in
//! [`crate::timing`] nothing but resolved outcomes:
//!
//! * [`MachineModel`] — the intra-task branch predictor and the ARB: one
//!   miss bit per intra-task conditional branch, one bank-full bit per
//!   load or store. A function of the execution and the
//!   [`TimingConfig`].
//! * [`TaskModel`] — the inter-task [`NextTaskPredictor`] and the
//!   [`ConfidenceEstimator`]: a miss bit, a gated bit and the predicted
//!   target per task boundary. A function of the boundary stream, the
//!   predictor and the confidence gate.
//!
//! The ARB cannot depend on timing either: the machine retires the head
//! task (`commit_head`) and opens the next (`begin_task`) at every
//! boundary and never squashes, so the ARB's stage window holds exactly
//! one task and a reference overflows its bank only through the address
//! stream and the task boundaries. Memory-order violations are timed
//! events and stay in the cycle core (its `last_store` check).
//!
//! The interpreter feed steps both models inline; the replay engine runs
//! them once over a recording ([`crate::replay::MachineOutcomes`],
//! [`crate::replay::TaskOutcomes`]) ahead of the cycle walk.

use crate::arb::{Arb, ArbEvent};
use crate::timing::{IntraPredictorKind, NextTaskPredictor, TimingConfig};
use multiscalar_core::confidence::ConfidenceEstimator;
use multiscalar_core::predictor::TaskDesc;
use multiscalar_core::scalar::{Bimodal, McFarling, TwoLevelGag};
use multiscalar_isa::{Addr, ExitIndex};

/// Runtime state for the selected intra-task predictor.
#[derive(Debug, Clone)]
enum IntraState {
    Bimodal(Bimodal),
    Gshare(TwoLevelGag),
    McFarling(McFarling),
}

impl IntraState {
    fn new(kind: IntraPredictorKind, bits: u32) -> IntraState {
        match kind {
            IntraPredictorKind::Bimodal => IntraState::Bimodal(Bimodal::new(bits)),
            IntraPredictorKind::Gshare => IntraState::Gshare(TwoLevelGag::new(bits, bits.min(12))),
            IntraPredictorKind::McFarling => IntraState::McFarling(McFarling::new(bits)),
        }
    }

    fn predict(&self, pc: Addr) -> bool {
        match self {
            IntraState::Bimodal(p) => p.predict(pc),
            IntraState::Gshare(p) => p.predict(pc),
            IntraState::McFarling(p) => p.predict(pc),
        }
    }

    fn update(&mut self, pc: Addr, taken: bool) {
        match self {
            IntraState::Bimodal(p) => p.update(pc, taken),
            IntraState::Gshare(p) => p.update(pc, taken),
            IntraState::McFarling(p) => p.update(pc, taken),
        }
    }
}

/// The intra-task branch predictor and the ARB, stepped in program order.
pub(crate) struct MachineModel {
    intra: IntraState,
    /// `None` models an ideal, conflict-free memory system.
    arb: Option<Arb>,
    /// Dynamic index of the task the references belong to.
    task_index: u64,
}

impl MachineModel {
    pub(crate) fn new(config: &TimingConfig) -> MachineModel {
        let mut arb = config.arb.map(|mut c| {
            c.stages = c.stages.max(config.n_units);
            Arb::new(c)
        });
        if let Some(arb) = arb.as_mut() {
            arb.begin_task(0);
        }
        MachineModel {
            intra: IntraState::new(config.intra_predictor, config.bimodal_bits),
            arb,
            task_index: 0,
        }
    }

    /// Predicts and trains one intra-task conditional branch; `true` when
    /// the prediction missed.
    #[inline]
    pub(crate) fn branch(&mut self, pc: Addr, taken: bool) -> bool {
        let miss = self.intra.predict(pc) != taken;
        self.intra.update(pc, taken);
        miss
    }

    /// Records one load or store of word `ea` in the ARB; `true` when its
    /// bank had no free entry (the reference stalls).
    #[inline]
    pub(crate) fn mem(&mut self, ea: u32, is_load: bool) -> bool {
        match self.arb.as_mut() {
            Some(arb) => {
                let ev = if is_load {
                    arb.load(ea, self.task_index)
                } else {
                    arb.store(ea, self.task_index)
                };
                ev == ArbEvent::Full
            }
            None => false,
        }
    }

    /// Retires the current task at a boundary: commit is strictly FIFO, so
    /// the head task's ARB entries are freed and the next task's stage
    /// opens.
    #[inline]
    pub(crate) fn boundary(&mut self) {
        if let Some(arb) = self.arb.as_mut() {
            arb.commit_head();
            arb.begin_task(self.task_index + 1);
        }
        self.task_index += 1;
    }
}

/// The resolved inter-task prediction at one boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaskOutcome {
    /// The predicted next-task address was wrong.
    pub miss: bool,
    /// Confidence gating withheld speculation.
    pub gated: bool,
    /// The predicted next-task address (`Some(next)` under perfect
    /// prediction, `None` when the predictor had no target).
    pub predicted: Option<Addr>,
}

/// The inter-task predictor and its confidence estimator, stepped in
/// program order. No predictor is the paper's "Perfect" row: every
/// boundary predicts its actual next task and nothing is gated.
pub(crate) struct TaskModel<'p> {
    predictor: Option<&'p mut dyn NextTaskPredictor>,
    confidence: Option<ConfidenceEstimator>,
}

impl<'p> TaskModel<'p> {
    pub(crate) fn new(
        predictor: Option<&'p mut dyn NextTaskPredictor>,
        config: &TimingConfig,
    ) -> TaskModel<'p> {
        TaskModel {
            predictor,
            confidence: config
                .confidence_gate
                .map(|t| ConfidenceEstimator::new(12, t)),
        }
    }

    /// Predicts the task after `desc`, then trains on the actual exit and
    /// next-task address.
    #[inline]
    pub(crate) fn resolve(&mut self, desc: &TaskDesc, exit: ExitIndex, next: Addr) -> TaskOutcome {
        let Some(p) = self.predictor.as_deref_mut() else {
            return TaskOutcome {
                miss: false,
                gated: false,
                predicted: Some(next),
            };
        };
        let predicted = p.predict_next(desc);
        p.resolve(desc, exit, next);
        let miss = predicted != Some(next);
        let gated = match self.confidence.as_mut() {
            Some(c) => {
                let gated = !c.high_confidence(desc.entry());
                c.update(desc.entry(), !miss);
                gated
            }
            None => false,
        };
        TaskOutcome {
            miss,
            gated,
            predicted,
        }
    }
}
