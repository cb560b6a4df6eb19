//! The unified front door: one builder carrying every cross-cutting
//! concern — worker threads, analysis budget, fault injection, trace
//! sink, certificate emission — into every analysis entry point.
//!
//! A [`Session`] is built once and reused across calls. It is the only
//! way into the optimizer and the front door to the simulator: nest
//! simulation, program simulation, the §4 search, the program optimizer
//! and the shared-scratchpad sizing each have exactly one (governed)
//! implementation, and an unlimited budget with no trace sink is simply
//! its fast path. Each call materializes its budget into one tracker that
//! every layer beneath it reads. The optimizer keeps no process-wide
//! state, so equal calls do equal work.
//!
//! ```
//! use loopmem_core::Session;
//! use loopmem_sim::AnalysisBudget;
//!
//! let nest = loopmem_ir::parse(r#"
//!     array X[200]
//!     for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }
//! "#).unwrap();
//!
//! let session = Session::new()
//!     .threads(2)
//!     .budget(AnalysisBudget::unlimited().with_max_iterations(100_000));
//! let sim = session.simulate(&nest).unwrap();
//! let opt = session.optimize(&nest).unwrap();
//! assert_eq!(opt.mws_before, sim.mws_total);
//! assert!(opt.mws_after <= opt.mws_before);
//! ```

use crate::optimize::{try_minimize_mws_tracked, Optimization, SearchMode};
use crate::program_opt::{governed_optimize_program, GovernedProgramOptimization};
use crate::scratchpad::{
    fusion_search, fusion_step_events, try_scratchpad_program_tracked, GovernedScratchpad,
    ScratchpadPlan,
};
use loopmem_ir::{AnalysisError, Bounds, LoopNest, Program};
use loopmem_obs::TraceSink;
use loopmem_sim::{
    try_simulate_program_tracked, try_simulate_with_threads, AnalysisBudget, BudgetTracker,
    FaultPlan, GovernedProgramSim, SimResult,
};
use loopmem_verify::Certificate;
use std::sync::Arc;

/// A reusable, cloneable bundle of analysis configuration: thread count,
/// budget (with optional fault plan and trace sink), search mode, and
/// certificate emission. See the [module docs](self) for the rationale
/// and an example.
///
/// Every method is governed: it respects the configured
/// [`AnalysisBudget`], never panics, and reports failure as a typed
/// [`AnalysisError`]. The default session (`Session::new()`) carries an
/// unlimited budget, so its answers are exact whenever the input can be
/// simulated at all.
#[derive(Clone, Debug, Default)]
pub struct Session {
    threads: Option<usize>,
    budget: AnalysisBudget,
    mode: SearchMode,
    certify: bool,
}

impl Session {
    /// A session with auto thread count, unlimited budget, the default
    /// compound search mode, and certification off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the worker-thread count (clamped to at least 1). Every result
    /// is bit-identical for every thread count; unset means
    /// [`loopmem_sim::thread_count`].
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Replaces the whole analysis budget (including any fault plan or
    /// trace sink set earlier — set those after the budget).
    pub fn budget(mut self, budget: AnalysisBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Injects a deterministic fault plan into the budget (see
    /// [`FaultPlan`]).
    pub fn fault_plan(self, plan: Arc<FaultPlan>) -> Self {
        Self {
            budget: self.budget.with_fault_plan(plan),
            ..self
        }
    }

    /// Attaches a trace sink; every governed call narrates its phases,
    /// polls, chunk commits, prunes, faults, sizing terms and fusion
    /// steps into it. A disabled sink (e.g.
    /// [`loopmem_obs::NullSink`]) keeps the zero-cost fast paths.
    pub fn trace(self, sink: Arc<dyn TraceSink>) -> Self {
        Self {
            budget: self.budget.with_trace(sink),
            ..self
        }
    }

    /// Selects the transformation search mode used by
    /// [`Session::optimize`] and [`Session::optimize_program`].
    pub fn search_mode(mut self, mode: SearchMode) -> Self {
        self.mode = mode;
        self
    }

    /// When on *and* a trace sink is attached, every answer additionally
    /// emits its proof-carrying certificates (see [`crate::cert`]) as
    /// `certificate` trace events. To obtain certificate payloads for the
    /// independent checker, call the `certify_*` functions directly.
    pub fn certify(mut self, on: bool) -> Self {
        self.certify = on;
        self
    }

    /// The session's budget, exactly as the governed calls consume it.
    pub fn analysis_budget(&self) -> &AnalysisBudget {
        &self.budget
    }

    fn thread_count(&self) -> usize {
        self.threads.unwrap_or_else(loopmem_sim::thread_count)
    }

    fn wants_certs(&self) -> bool {
        self.certify && self.budget.trace().is_some()
    }

    fn emit_certs(&self, certs: &[Certificate]) {
        if let Some(sink) = self.budget.trace() {
            crate::cert::trace_certificates(sink, certs);
        }
    }

    /// Governed exact simulation of one nest:
    /// `loopmem_sim::try_simulate_with_threads` without a window profile,
    /// on the session's threads and budget.
    ///
    /// # Errors
    ///
    /// A budget trip degrades to [`AnalysisError::Exhausted`] with
    /// salvaged or analytic bounds; contained panics surface as
    /// [`AnalysisError::NestPanicked`].
    pub fn simulate(&self, nest: &LoopNest) -> Result<SimResult, AnalysisError> {
        let sim = try_simulate_with_threads(nest, false, self.thread_count(), &self.budget)?;
        if self.wants_certs() {
            let bounds = Bounds::exact(sim.mws_total);
            self.emit_certs(&[crate::cert::certify_bounds(
                Some(0),
                "nest-mws",
                &bounds,
                "exact simulation",
            )]);
        }
        Ok(sim)
    }

    /// Governed whole-program simulation:
    /// `loopmem_sim::try_simulate_program_tracked` on a tracker built from
    /// the session's budget. Per-nest failures degrade inside the result;
    /// see [`GovernedProgramSim`].
    ///
    /// # Errors
    ///
    /// Whole-program failures only (e.g. the global table fold exceeding
    /// the budget's table cap).
    pub fn simulate_program(&self, program: &Program) -> Result<GovernedProgramSim, AnalysisError> {
        let tracker = BudgetTracker::new(&self.budget);
        try_simulate_program_tracked(program, self.thread_count(), &tracker)
    }

    /// Governed §4 transformation search on one nest (see
    /// [`crate::optimize`]) for the transformation minimizing the exact
    /// MWS. The identity is a candidate in the compound and
    /// interchange/reversal modes, so `mws_after <= mws_before` there.
    /// Candidates are ranked in closed form and the best few simulated
    /// exactly; the budget governs the whole search (one deadline, one
    /// cumulative iteration count, one poll per candidate). The answer is
    /// bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// A budget trip degrades to [`AnalysisError::Exhausted`] carrying
    /// the original nest's analytical MWS bounds. An empty candidate space
    /// (Li–Pingali on the paper's Example 8) reports
    /// [`AnalysisError::Invalid`] ("no legal transformation in the search
    /// space"); contained panics surface as
    /// [`AnalysisError::NestPanicked`].
    pub fn optimize(&self, nest: &LoopNest) -> Result<Optimization, AnalysisError> {
        let tracker = BudgetTracker::new(&self.budget);
        let opt = try_minimize_mws_tracked(0, nest, self.mode, self.thread_count(), &tracker)?;
        if self.wants_certs() {
            self.emit_certs(&crate::cert::certify_optimization(0, nest, &opt));
        }
        Ok(opt)
    }

    /// Governed program-wide optimization: the §4 search on every nest,
    /// then a greedy accept pass that keeps a nest's transformation only
    /// when the whole program does not regress (see
    /// [`crate::program_opt`]). Per-nest failures stay in
    /// [`GovernedProgramOptimization::per_nest`] and keep the nest's
    /// original form.
    ///
    /// # Errors
    ///
    /// Whole-program failures of the baseline simulation only (e.g. the
    /// global table fold exceeding the budget's table cap).
    pub fn optimize_program(
        &self,
        program: &Program,
    ) -> Result<GovernedProgramOptimization, AnalysisError> {
        governed_optimize_program(program, self.mode, self.thread_count(), &self.budget)
    }

    /// Governed shared-scratchpad sizing without the fusion search (see
    /// [`crate::scratchpad`]). A nest that degrades widens
    /// [`GovernedScratchpad::words`] into an interval; every other nest
    /// still contributes exactly.
    ///
    /// # Errors
    ///
    /// Whole-program failures of the underlying simulation only (e.g. the
    /// global table fold exceeding the budget's table cap).
    pub fn scratchpad_sizing(
        &self,
        program: &Program,
    ) -> Result<GovernedScratchpad, AnalysisError> {
        let tracker = BudgetTracker::new(&self.budget);
        let governed = try_scratchpad_program_tracked(program, self.thread_count(), &tracker)?;
        if self.wants_certs() {
            self.emit_certs(&crate::cert::certify_governed_scratchpad(&governed));
        }
        Ok(governed)
    }

    /// Governed scratchpad sizing plus the greedy fusion search. The
    /// search starts from the baseline's exact sizing and runs only when
    /// every nest sized exactly; on a degraded baseline the plan is `None`
    /// and the interval stands alone. The candidate re-sizings are not
    /// charged to the session's budget: fusion's legality check sweeps
    /// each candidate pair ungoverned, which is affordable exactly when
    /// the budget already covered the whole-program sweep.
    ///
    /// # Errors
    ///
    /// As [`Session::scratchpad_sizing`].
    pub fn scratchpad(
        &self,
        program: &Program,
    ) -> Result<(GovernedScratchpad, Option<ScratchpadPlan>), AnalysisError> {
        let baseline = self.scratchpad_sizing(program)?;
        let plan = baseline
            .all_exact()
            .then(|| fusion_search(program, baseline.sizing.clone(), self.thread_count()));
        if let (Some(sink), Some(plan)) = (self.budget.trace(), plan.as_ref()) {
            sink.record_all(fusion_step_events(&plan.steps));
        }
        if self.wants_certs() {
            if let Some(plan) = plan.as_ref() {
                self.emit_certs(&[crate::cert::certify_fusion(plan)]);
            }
        }
        Ok((baseline, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::{parse, parse_program};
    use loopmem_obs::CollectingSink;

    const EXAMPLE8: &str = "array X[200]\n\
        for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }";

    #[test]
    fn default_session_simulates_exactly() {
        let nest = parse(EXAMPLE8).unwrap();
        let sim = Session::new().simulate(&nest).unwrap();
        assert_eq!(sim.mws_total, 44);
    }

    #[test]
    fn certify_with_trace_emits_certificate_events() {
        let nest = parse(EXAMPLE8).unwrap();
        let sink = Arc::new(CollectingSink::new());
        let session = Session::new()
            .threads(1)
            .budget(AnalysisBudget::unlimited().with_max_iterations(100_000))
            .trace(sink.clone())
            .certify(true);
        session.optimize(&nest).unwrap();
        let report = sink.drain();
        assert!(
            report.counters.certificates >= 3,
            "optimization certifies legality + optimality + bounds, got {}",
            report.counters.certificates
        );
    }

    #[test]
    fn certify_without_sink_is_inert() {
        let nest = parse(EXAMPLE8).unwrap();
        let with = Session::new().certify(true).optimize(&nest).unwrap();
        let without = Session::new().optimize(&nest).unwrap();
        assert_eq!(with.transform, without.transform);
        assert_eq!(with.mws_after, without.mws_after);
    }

    #[test]
    fn session_scratchpad_matches_fusion_search() {
        let program = parse_program(
            "array A[8][8]\narray B[8][8]\narray C[8][8]\n\
             for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap();
        let (baseline, plan) = Session::new().threads(1).scratchpad(&program).unwrap();
        assert!(baseline.all_exact());
        let plan = plan.expect("exact baseline runs the fusion search");
        assert!(plan.fused.words < plan.unfused.words);
    }
}
