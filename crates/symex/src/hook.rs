//! The guidance seam: function-boundary event hooks.
//!
//! This is the interface through which `statsym-core` injects the
//! paper's two guidance mechanisms (§V-C) into the engine without the
//! engine knowing anything about statistics:
//!
//! * **inter-function search** — the hook tracks candidate-path progress
//!   and diverted hops in [`StateMeta`] and may *suspend* states that
//!   stray more than τ hops from the candidate path;
//! * **intra-function search** — the hook returns predicate constraints
//!   to be added to the state's *soft* constraint set; branches that
//!   contradict them get suspended rather than killed.

use crate::state::StateMeta;
use crate::value::SymValue;
use concrete::Location;
use solver::{Constraint, TermCtx};
use std::sync::Arc;

/// Everything a hook can observe at one function-boundary event.
#[derive(Debug)]
pub struct EventCtx<'a> {
    /// The event location (`f():enter` / `f():leave`).
    pub loc: &'a Location,
    /// Callee parameter names/types (entry events; empty on exit).
    pub params: &'a [(Arc<str>, minic::Type)],
    /// Argument values parallel to `params` (entry events).
    pub args: &'a [SymValue],
    /// Return value (exit events).
    pub ret: Option<&'a SymValue>,
    /// Module global definitions.
    pub global_defs: &'a [sir::GlobalDef],
    /// Current global values, parallel to `global_defs`.
    pub globals: &'a [SymValue],
}

impl EventCtx<'_> {
    /// Looks up a parameter value by name (entry events).
    pub fn arg(&self, name: &str) -> Option<&SymValue> {
        self.params
            .iter()
            .position(|(n, _)| &**n == name)
            .and_then(|i| self.args.get(i))
    }

    /// Looks up a global value by name.
    pub fn global(&self, name: &str) -> Option<&SymValue> {
        self.global_defs
            .iter()
            .position(|g| &*g.name == name)
            .and_then(|i| self.globals.get(i))
    }
}

/// What the hook wants done with the state after an event.
#[derive(Debug, Clone, Default)]
pub struct GuidanceResult {
    /// Constraints to add to the state's soft set.
    pub constraints: Vec<Constraint>,
    /// Suspend this state (resumed only when no active states remain).
    pub suspend: bool,
    /// Candidate-path node index this event matched, if any. Feeds the
    /// `candidate.node` coverage events under lineage tracing; has no
    /// effect on exploration.
    pub matched: Option<usize>,
}

/// Observer/guide for symbolic execution, called at every function entry
/// and exit the engine executes.
pub trait EventHook {
    /// Reacts to one function-boundary event. May mutate the state's
    /// guidance bookkeeping (`meta`) and build constraint terms in `ctx`.
    fn on_event(
        &mut self,
        ev: &EventCtx<'_>,
        meta: &mut StateMeta,
        ctx: &mut TermCtx,
    ) -> GuidanceResult;

    /// Scheduling priority for a state (lower runs sooner). The default
    /// treats all states equally.
    fn priority(&self, _meta: &StateMeta, _depth: u32) -> i64 {
        0
    }
}

/// The no-guidance hook: pure symbolic execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGuidance;

impl EventHook for NoGuidance {
    fn on_event(
        &mut self,
        _ev: &EventCtx<'_>,
        _meta: &mut StateMeta,
        _ctx: &mut TermCtx,
    ) -> GuidanceResult {
        GuidanceResult::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_guidance_is_inert() {
        let mut hook = NoGuidance;
        let loc = Location::enter("f");
        let ev = EventCtx {
            loc: &loc,
            params: &[],
            args: &[],
            ret: None,
            global_defs: &[],
            globals: &[],
        };
        let mut meta = StateMeta::default();
        let mut ctx = TermCtx::new();
        let r = hook.on_event(&ev, &mut meta, &mut ctx);
        assert!(r.constraints.is_empty());
        assert!(!r.suspend);
        assert_eq!(hook.priority(&meta, 3), 0);
    }
}
