//! Delayed-update (stale) prediction — quantifying the paper's §3.1
//! idealisation.
//!
//! The paper's functional simulator updates predictor state *immediately*
//! after each prediction and notes: "A real implementation may make
//! predictions based on stale information while waiting for non-speculative
//! outcome information to return from the execution processors." This
//! module implements that real behaviour so the idealisation can be
//! measured: [`StalePathPredictor`] applies each PHT update only after the
//! outcome has "returned from the ring" — `delay` further task predictions
//! later.
//!
//! The path register itself is *not* delayed: the global sequencer knows
//! which task it is dispatching (the path is speculative but, under the
//! paper's perfect-repair assumption, always matches the actual task
//! sequence in a trace-driven run). Only pattern-table training lags.
//!
//! The harness's `ext-staleness` experiment sweeps the delay; the paper's
//! idealisation turns out to cost a few tenths of a percent at ring-sized
//! delays — see EXPERIMENTS.md.

use crate::automata::Automaton;
use crate::dolc::Dolc;
use crate::history::PathPredictor;
use crate::predictor::{ExitPredictor, TaskDesc};
use multiscalar_isa::ExitIndex;
use std::collections::VecDeque;

/// A path-based exit predictor whose PHT updates are applied `delay` task
/// predictions late. With `delay == 0` it behaves exactly like
/// [`PathPredictor`], which it wraps.
#[derive(Debug, Clone)]
pub struct StalePathPredictor<A: Automaton> {
    inner: PathPredictor<A>,
    delay: usize,
    pending: VecDeque<(usize, ExitIndex)>,
}

impl<A: Automaton> StalePathPredictor<A> {
    /// Creates a predictor whose training lags by `delay` task predictions.
    pub fn new(dolc: Dolc, delay: usize) -> StalePathPredictor<A> {
        StalePathPredictor {
            inner: PathPredictor::new(dolc),
            delay,
            pending: VecDeque::new(),
        }
    }

    /// The configured training delay in task predictions.
    pub fn delay(&self) -> usize {
        self.delay
    }
}

impl<A: Automaton> ExitPredictor for StalePathPredictor<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        self.inner.predict(task)
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        if let Some(slot) = self.inner.slot(task) {
            self.pending.push_back((slot, actual));
            while self.pending.len() > self.delay {
                let (slot, actual) = self.pending.pop_front().expect("non-empty");
                self.inner.train(slot, actual);
            }
        }
        self.inner.push_path(task.entry());
    }

    fn states_touched(&self) -> usize {
        self.inner.states_touched()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automata::LastExitHysteresis;
    use crate::pollution::{PollutedExitAdapter, PollutedPathPredictor};
    use crate::predictor::ExitInfo;
    use crate::rng::XorShift64;
    use multiscalar_isa::{Addr, ExitKind};

    type Leh2 = LastExitHysteresis<2>;

    fn task(entry: u32, n: usize) -> TaskDesc {
        let exits = (0..n)
            .map(|i| ExitInfo {
                kind: ExitKind::Branch,
                target: Some(Addr(entry + 10 + i as u32)),
                return_addr: None,
            })
            .collect();
        TaskDesc::new(Addr(entry), exits)
    }

    fn e(i: u8) -> ExitIndex {
        ExitIndex::new(i).unwrap()
    }

    /// Drives both predictors over the same pseudo-random stream and
    /// returns their miss counts on multi-exit tasks, with the number of
    /// those tasks; at delay 0 they must agree on every prediction.
    /// Alongside them, a polluted predictor that never leaves the right
    /// path (wrong-path depth 0) must miss exactly where the immediate
    /// predictor does.
    fn race(delay: usize, steps: usize) -> (u64, u64, u64) {
        let d = Dolc::new(3, 4, 6, 6, 2);
        let mut fresh: PathPredictor<Leh2> = PathPredictor::new(d);
        let mut stale: StalePathPredictor<Leh2> = StalePathPredictor::new(d, delay);
        let mut polluted: PollutedExitAdapter<Leh2> =
            PollutedExitAdapter::new(PollutedPathPredictor::new(d, 0, false));
        let mut rng = XorShift64::new(42);
        let (mut fm, mut sm, mut multi) = (0, 0, 0);
        let mut prev = 0;
        for step in 0..steps {
            // Every fourth task has one exit, so the skip rule is raced too;
            // it always takes exit 0 and so cannot miss, and only multi-exit
            // tasks are counted. A multi-exit task's exit follows bit 4 of
            // its predecessor's address, which the fold leaves unaliased,
            // so only a correctly kept path predicts it.
            let t = task(0x10 + rng.next_below(8) * 0x8, 1 + (step % 4 != 0) as usize);
            let actual = e((prev >> 4 & 1) as u8 * (t.num_exits() as u8 - 1));
            prev = t.entry().0;
            let counted = !t.single_exit() as u64;
            multi += counted;
            let predicted = fresh.predict(&t);
            fm += counted * (predicted != actual) as u64;
            let stale_predicted = stale.predict(&t);
            sm += counted * (stale_predicted != actual) as u64;
            if delay == 0 {
                assert_eq!(stale_predicted, predicted, "step {step}");
            }
            assert_eq!(polluted.predict(&t), predicted, "step {step}");
            fresh.update(&t, actual);
            stale.update(&t, actual);
            polluted.update(&t, actual);
        }
        assert_eq!(polluted.pollutions(), 0);
        assert_eq!(polluted.states_touched(), fresh.states_touched());
        if delay == 0 {
            assert_eq!(stale.states_touched(), fresh.states_touched());
        }
        (fm, sm, multi)
    }

    #[test]
    fn zero_delay_matches_the_immediate_predictor() {
        let (fresh, stale, _) = race(0, 2000);
        assert_eq!(fresh, stale, "delay 0 must be bit-identical");
    }

    #[test]
    fn staleness_costs_accuracy_but_converges() {
        let (fresh, stale, multi) = race(8, 4000);
        assert_eq!(multi, 3000);
        assert!(
            stale >= fresh,
            "stale training cannot beat immediate training"
        );
        // On a stationary pattern the stale predictor still learns: chance
        // is half the multi-exit tasks, as single-exit ones cannot miss.
        assert!(
            (stale as f64) < multi as f64 * 0.5,
            "even badly stale training must beat chance: {stale} of {multi}"
        );
    }

    #[test]
    fn pending_queue_is_bounded_by_delay() {
        let d = Dolc::new(2, 4, 5, 5, 1);
        let mut p: StalePathPredictor<Leh2> = StalePathPredictor::new(d, 3);
        let t = task(0x20, 2);
        for _ in 0..50 {
            let _ = p.predict(&t);
            p.update(&t, e(1));
            assert!(p.pending.len() <= 3);
        }
        assert_eq!(p.delay(), 3);
    }
}
