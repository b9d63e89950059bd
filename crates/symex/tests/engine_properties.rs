//! Property tests for the symbolic engine: on programs with small input
//! domains, the engine is *sound* (generated inputs really crash the VM)
//! and *complete* (if any input in the domain crashes, the engine finds
//! a fault; if none does, it reports `Completed`). On random fork trees
//! the scheduling policy decides only the exploration order, never the
//! verdict or the total work of an exhaustive run.

use concrete::{InputMap, InputValue, Vm, VmConfig};
use proptest::prelude::*;
use statsym_telemetry::{render_trace, Clock, MemRecorder};
use symex::{
    Engine, EngineConfig, EventCtx, EventHook, GuidanceResult, RunOutcome, SchedulerKind, StateMeta,
};

/// Linear guard `a*x + b*y <op> k` with small coefficients.
#[derive(Debug, Clone, Copy)]
struct Guard {
    a: i64,
    b: i64,
    k: i64,
    op: usize,
}

const OPS: [&str; 6] = ["==", "!=", "<", "<=", ">", ">="];

fn guard() -> impl Strategy<Value = Guard> {
    (-4i64..=4, -4i64..=4, -20i64..=20, 0usize..6).prop_map(|(a, b, k, op)| Guard { a, b, k, op })
}

fn holds(g: Guard, x: i64, y: i64) -> bool {
    let v = g.a * x + g.b * y;
    match OPS[g.op] {
        "==" => v == g.k,
        "!=" => v != g.k,
        "<" => v < g.k,
        "<=" => v <= g.k,
        ">" => v > g.k,
        _ => v >= g.k,
    }
}

/// The generated program bounds x and y to [-5, 5] with early returns,
/// then asserts the negation of `g1 && g2` — so a fault exists iff some
/// in-domain (x, y) satisfies both guards.
fn source(g1: Guard, g2: Guard) -> String {
    let guard_src = |g: Guard| format!("(({}) * x + ({}) * y {} {})", g.a, g.b, OPS[g.op], g.k);
    format!(
        "fn main() {{\n\
         \x20   let x: int = input_int(\"x\");\n\
         \x20   let y: int = input_int(\"y\");\n\
         \x20   if (x < -5 || x > 5) {{ return; }}\n\
         \x20   if (y < -5 || y > 5) {{ return; }}\n\
         \x20   if ({}) {{\n\
         \x20       if ({}) {{ assert(false); }}\n\
         \x20   }}\n\
         }}\n",
        guard_src(g1),
        guard_src(g2),
    )
}

fn brute_force_crashes(g1: Guard, g2: Guard) -> bool {
    for x in -5i64..=5 {
        for y in -5i64..=5 {
            if holds(g1, x, y) && holds(g2, x, y) {
                return true;
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn engine_is_sound_and_complete_on_small_domains(g1 in guard(), g2 in guard()) {
        let src = source(g1, g2);
        let program = minic::parse_program(&src).expect("generated source parses");
        let module = sir::lower(&program).expect("lowers");
        let mut engine = Engine::new(&module, EngineConfig::default());
        let report = engine.run();
        let expected_crash = brute_force_crashes(g1, g2);
        match report.outcome {
            RunOutcome::Found(found) => {
                prop_assert!(expected_crash, "engine found a fault brute force says is impossible:\n{src}");
                // Soundness: the generated input reproduces the crash.
                let vm = Vm::new(&module, VmConfig::default());
                let replay = vm.run(&found.inputs).unwrap();
                prop_assert!(replay.outcome.is_fault(), "input does not replay:\n{src}");
            }
            RunOutcome::Completed => {
                prop_assert!(!expected_crash, "engine missed a reachable fault:\n{src}");
            }
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn schedulers_agree_on_fault_existence(g1 in guard(), g2 in guard(), seed in 0u64..100) {
        let src = source(g1, g2);
        let module = sir::lower(&minic::parse_program(&src).unwrap()).unwrap();
        let mut outcomes = Vec::new();
        for scheduler in [
            SchedulerKind::Bfs,
            SchedulerKind::Dfs,
            SchedulerKind::Random { seed },
        ] {
            let mut engine = Engine::new(&module, EngineConfig { scheduler, ..EngineConfig::default() });
            outcomes.push(engine.run().outcome.is_found());
        }
        prop_assert!(outcomes.iter().all(|&o| o == outcomes[0]), "{outcomes:?}\n{src}");
    }
}

#[test]
fn pinned_inputs_constrain_the_search() {
    // With x pinned to a non-crashing value, the fault is unreachable.
    let src = r#"
        fn main() {
            let x: int = input_int("x");
            let y: int = input_int("y");
            if (x == 7) { assert(y != 3); }
        }
    "#;
    let module = sir::lower(&minic::parse_program(src).unwrap()).unwrap();

    let mut free = Engine::new(&module, EngineConfig::default());
    assert!(
        free.run().outcome.is_found(),
        "unpinned engine finds x=7,y=3"
    );

    let mut pinned = Engine::new(&module, EngineConfig::default());
    pinned.pin_input("x", InputValue::Int(0));
    assert!(
        matches!(pinned.run().outcome, RunOutcome::Completed),
        "pinning x=0 removes the fault"
    );

    let mut pinned_hot = Engine::new(&module, EngineConfig::default());
    pinned_hot.pin_input("x", InputValue::Int(7));
    let report = pinned_hot.run();
    let found = report
        .outcome
        .found()
        .expect("x=7 keeps the fault reachable");
    assert_eq!(found.inputs.get("x"), Some(&InputValue::Int(7)));
    // Replay for good measure.
    let vm = Vm::new(&module, VmConfig::default());
    let mut inputs: InputMap = found.inputs.clone();
    inputs.insert("x".into(), InputValue::Int(7));
    assert!(vm.run(&inputs).unwrap().outcome.is_fault());
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Generates a random mini-C program: nested symbolic branches, bounded
/// loops, asserts (some violable → fault children), and a guarded
/// buffer access (concretization queries). Deterministic per seed.
fn gen_program(seed: u64) -> String {
    let mut r = Rng(seed ^ 0xfeed_beef);
    let mut vars: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
    let mut body = String::new();
    for v in &vars {
        body.push_str(&format!("    let {v}: int = input_int(\"{v}\");\n"));
    }
    let mut counter = 0u32;
    gen_block(&mut r, 2, &mut vars, &mut body, 1, &mut counter);
    format!("fn main() {{\n{body}}}\n")
}

fn pick<'a>(r: &mut Rng, vars: &'a [String]) -> &'a str {
    &vars[r.below(vars.len() as u64) as usize]
}

fn expr(r: &mut Rng, vars: &[String]) -> String {
    match r.below(4) {
        0 => pick(r, vars).to_string(),
        1 => format!("{} + {}", pick(r, vars), r.below(20)),
        2 => format!("{} * {}", pick(r, vars), 1 + r.below(3)),
        _ => format!("{} - {}", pick(r, vars), pick(r, vars)),
    }
}

fn cond(r: &mut Rng, vars: &[String]) -> String {
    let op = ["<", ">", "=="][r.below(3) as usize];
    format!("{} {} {}", expr(r, vars), op, r.below(60) as i64 - 10)
}

fn gen_block(
    r: &mut Rng,
    depth: u32,
    vars: &mut Vec<String>,
    out: &mut String,
    indent: usize,
    counter: &mut u32,
) {
    let pad = "    ".repeat(indent);
    let stmts = 2 + r.below(2);
    for _ in 0..stmts {
        let choice = if depth > 0 { r.below(6) } else { r.below(4) };
        match choice {
            0 => {
                *counter += 1;
                let name = format!("t{}", *counter);
                out.push_str(&format!("{pad}let {name}: int = {};\n", expr(r, vars)));
                vars.push(name);
            }
            1 => {
                out.push_str(&format!("{pad}assert({});\n", cond(r, vars)));
            }
            2 => {
                *counter += 1;
                let k = format!("k{}", *counter);
                let n = 2 + r.below(4);
                out.push_str(&format!(
                    "{pad}let {k}: int = 0;\n{pad}while ({k} < {n}) {{ {k} = {k} + 1; }}\n"
                ));
            }
            3 => {
                *counter += 1;
                let b = format!("bb{}", *counter);
                let i = pick(r, vars).to_string();
                out.push_str(&format!(
                    "{pad}if ({i} > 0) {{\n{pad}    if ({i} < 7) {{\n{pad}        let {b}: buf[8];\n{pad}        buf_set({b}, {i}, 1);\n{pad}    }}\n{pad}}}\n"
                ));
            }
            4 => {
                out.push_str(&format!("{pad}if ({}) {{\n", cond(r, vars)));
                let before = vars.len();
                gen_block(r, depth - 1, vars, out, indent + 1, counter);
                vars.truncate(before);
                out.push_str(&format!("{pad}}} else {{\n"));
                gen_block(r, depth - 1, vars, out, indent + 1, counter);
                vars.truncate(before);
                out.push_str(&format!("{pad}}}\n"));
            }
            _ => {
                out.push_str(&format!("{pad}if ({}) {{\n", cond(r, vars)));
                let before = vars.len();
                gen_block(r, depth - 1, vars, out, indent + 1, counter);
                vars.truncate(before);
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

/// Every scheduling policy the engine supports.
const SCHEDULERS: [SchedulerKind; 5] = [
    SchedulerKind::Bfs,
    SchedulerKind::Dfs,
    SchedulerKind::Random { seed: 11 },
    SchedulerKind::Priority,
    SchedulerKind::Coverage,
];

#[test]
fn scheduler_kind_never_changes_the_verdict_or_exhaustive_work() {
    let (mut completed, mut found) = (0, 0);
    for seed in 0..16u64 {
        let src = gen_program(seed);
        let module = sir::lower(&minic::parse_program(&src).unwrap()).unwrap();
        let reports: Vec<_> = SCHEDULERS
            .iter()
            .map(|&scheduler| {
                Engine::new(
                    &module,
                    EngineConfig {
                        scheduler,
                        ..EngineConfig::default()
                    },
                )
                .run()
            })
            .collect();
        let base = &reports[0];
        for (kind, r) in SCHEDULERS.iter().zip(&reports) {
            assert_eq!(
                r.outcome.is_found(),
                base.outcome.is_found(),
                "{kind:?}: fault reachability diverged (seed {seed})\n{src}"
            );
            if matches!(base.outcome, RunOutcome::Completed) {
                // Exhaustive exploration does the same total work in any
                // order.
                assert!(
                    matches!(r.outcome, RunOutcome::Completed),
                    "{kind:?}: {:?} (seed {seed})",
                    r.outcome
                );
                assert_eq!(
                    r.stats.exec.steps, base.stats.exec.steps,
                    "{kind:?} seed {seed}"
                );
                assert_eq!(
                    r.stats.exec.forks, base.stats.exec.forks,
                    "{kind:?} seed {seed}"
                );
                assert_eq!(
                    r.stats.paths_completed, base.stats.paths_completed,
                    "{kind:?} seed {seed}"
                );
            }
        }
        match base.outcome {
            RunOutcome::Completed => completed += 1,
            RunOutcome::Found(_) => found += 1,
            RunOutcome::Exhausted(r) => panic!("seed {seed}: exhausted ({r})"),
        }
    }
    // Both halves of the property must actually be exercised.
    assert!(
        completed > 0 && found > 0,
        "{completed} completed, {found} found"
    );
}

/// Suspends every state at its second function event, so the run must
/// park these, drain the active states, and resume them with guidance
/// off.
struct SuspendSecondHop;

impl EventHook for SuspendSecondHop {
    fn on_event(
        &mut self,
        _ev: &EventCtx<'_>,
        meta: &mut StateMeta,
        _ctx: &mut solver::TermCtx,
    ) -> GuidanceResult {
        meta.hops += 1;
        GuidanceResult {
            constraints: Vec::new(),
            suspend: meta.hops >= 2,
            matched: None,
        }
    }
}

#[test]
fn suspend_and_resume_phases_are_deterministic() {
    let src = r#"
        fn step_a(v: int) -> int { return v + 1; }
        fn step_b(v: int) -> int { return v * 2; }
        fn boom(v: int) { assert(v < 50); }
        fn main() {
            let v: int = input_int("v");
            let w: int = step_a(step_b(v));
            boom(w);
        }
    "#;
    let module = sir::lower(&minic::parse_program(src).unwrap()).unwrap();
    let run = || {
        let rec = MemRecorder::new(Clock::steps());
        let report = {
            let config = EngineConfig {
                lineage: true,
                ..EngineConfig::default()
            };
            let mut eng = Engine::with_hook(&module, config, Box::new(SuspendSecondHop));
            eng.set_recorder(&rec);
            eng.run()
        };
        (render_trace(&rec.finish()), report)
    };
    let (trace, report) = run();
    assert!(
        report.outcome.is_found(),
        "fault found despite hostile suspension"
    );
    assert!(report.stats.exec.suspended > 0);
    assert!(
        trace.contains("\"name\":\"symex.resume\""),
        "resumed states must be counted\n{trace}"
    );
    assert!(
        trace.contains("\"op\":\"resume\""),
        "lineage resume events expected"
    );
    let (again, again_report) = run();
    assert_eq!(trace, again, "suspend/resume trace must be byte-identical");
    assert_eq!(report.stats.exec.steps, again_report.stats.exec.steps);
}
