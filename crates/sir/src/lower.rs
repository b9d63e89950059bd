//! AST → SIR lowering.
//!
//! Notable choices:
//!
//! * Short-circuit `&&`/`||` are lowered to control flow, so a symbolic
//!   path condition is always a conjunction of *atomic* comparisons —
//!   the same property KLEE gets from LLVM's `br` lowering.
//! * Named locals and parameters keep dedicated registers with debug
//!   names so the program monitor can log them by source name.
//! * Named inputs (`input_str`/`input_int`) are interned per module; the
//!   same name always maps to the same [`InputId`].

use crate::ir::*;
use minic::ast::{Builtin, ExprKind, StmtKind};
use minic::{BinOp, Error, Expr, Program, Result, Span, Stmt, Type};
use std::collections::HashMap;

/// Lowers a checked MiniC program to a SIR module.
///
/// # Errors
///
/// Returns an error if the program re-declares an input name with a
/// different kind or capacity, or uses a `buf` return type.
pub fn lower(program: &Program) -> Result<Module> {
    let mut module = Module::default();

    for g in &program.globals {
        let init = match (&g.init, g.ty) {
            (Some(e), _) => match &e.kind {
                ExprKind::Int(v) => ConstValue::Int(*v),
                ExprKind::Bool(b) => ConstValue::Bool(*b),
                ExprKind::Str(s) => ConstValue::Str(s.clone()),
                _ => unreachable!("checker enforces literal global initializers"),
            },
            (None, Type::Int) => ConstValue::Int(0),
            (None, Type::Bool) => ConstValue::Bool(false),
            (None, Type::Str) => ConstValue::Str(String::new()),
            (None, Type::Buf(_)) => unreachable!("checker rejects global buffers"),
        };
        module.globals.push(GlobalDef {
            name: g.name.as_str().into(),
            ty: g.ty,
            init,
        });
    }

    let fn_ids: HashMap<&str, FuncId> = program
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), FuncId(i as u32)))
        .collect();

    for f in &program.functions {
        if matches!(f.ret, Some(Type::Buf(_))) {
            return Err(Error::new(f.span, "functions cannot return buffers"));
        }
        let mut lowerer = FnLowerer::new(program, &fn_ids, &mut module);
        let body = lowerer.lower_fn(f)?;
        module.funcs.push(body);
    }

    module.main = *fn_ids.get("main").expect("checker guarantees main exists");
    Ok(module)
}

struct FnLowerer<'a> {
    program: &'a Program,
    fn_ids: &'a HashMap<&'a str, FuncId>,
    module: &'a mut Module,
    blocks: Vec<BasicBlock>,
    /// Block currently being appended to; `None` after a terminator.
    current: BlockId,
    terminated: bool,
    next_reg: u32,
    vars: HashMap<String, Reg>,
    reg_names: Vec<Option<String>>,
    /// `(continue_target, break_target)` per enclosing loop.
    loops: Vec<(BlockId, BlockId)>,
}

impl<'a> FnLowerer<'a> {
    fn new(
        program: &'a Program,
        fn_ids: &'a HashMap<&'a str, FuncId>,
        module: &'a mut Module,
    ) -> Self {
        FnLowerer {
            program,
            fn_ids,
            module,
            blocks: Vec::new(),
            current: BlockId(0),
            terminated: false,
            next_reg: 0,
            vars: HashMap::new(),
            reg_names: Vec::new(),
            loops: Vec::new(),
        }
    }

    fn fresh(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        self.reg_names.push(None);
        r
    }

    fn named(&mut self, name: &str) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        self.reg_names.push(Some(name.to_owned()));
        self.vars.insert(name.to_owned(), r);
        r
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock {
            insts: Vec::new(),
            term: (Terminator::Return(None), Span::default()),
        });
        id
    }

    fn emit(&mut self, inst: Inst, span: Span) {
        debug_assert!(!self.terminated, "emit into terminated block");
        self.blocks[self.current.index()].insts.push((inst, span));
    }

    fn terminate(&mut self, term: Terminator, span: Span) {
        debug_assert!(!self.terminated, "double terminator");
        self.blocks[self.current.index()].term = (term, span);
        self.terminated = true;
    }

    fn switch_to(&mut self, block: BlockId) {
        self.current = block;
        self.terminated = false;
    }

    fn lower_fn(&mut self, f: &minic::Function) -> Result<FuncBody> {
        for p in &f.params {
            self.named(&p.name);
        }
        let entry = self.new_block();
        self.switch_to(entry);
        // Pre-allocate every named local at function entry with its
        // type default (C-style stack frame with zero initialization).
        // MiniC scoping is function-level, so a local declared in one
        // branch may legally be *read* on a path that never executed its
        // `let`; entry initialization makes that read well-defined.
        let mut locals = Vec::new();
        collect_locals(&f.body, &mut locals);
        for (name, ty) in &locals {
            let dst = self.named(name);
            match ty {
                Type::Buf(Some(cap)) => self.emit(Inst::AllocBuf { dst, cap: *cap }, f.span),
                // Dynamic handles (`let h: buf = alloc(n);`) stay unbound
                // until their `let` runs; reading one on a path that never
                // executed the `let` is an invalid-handle (use-after-free
                // class) fault, which both VMs detect.
                Type::Buf(None) => {}
                Type::Int => self.emit(
                    Inst::Const {
                        dst,
                        value: ConstValue::Int(0),
                    },
                    f.span,
                ),
                Type::Bool => self.emit(
                    Inst::Const {
                        dst,
                        value: ConstValue::Bool(false),
                    },
                    f.span,
                ),
                Type::Str => self.emit(
                    Inst::Const {
                        dst,
                        value: ConstValue::Str(String::new()),
                    },
                    f.span,
                ),
            }
        }
        self.lower_block(&f.body)?;
        if !self.terminated {
            self.default_return(f);
        }
        Ok(FuncBody {
            name: f.name.as_str().into(),
            params: f
                .params
                .iter()
                .map(|p| (p.name.as_str().into(), p.ty))
                .collect(),
            ret: f.ret,
            blocks: std::mem::take(&mut self.blocks),
            num_regs: self.next_reg,
            reg_names: std::mem::take(&mut self.reg_names),
            span: f.span,
        })
    }

    /// Emits `return <default>` matching the function's return type, used
    /// when control can fall off the end of the body (C semantics).
    fn default_return(&mut self, f: &minic::Function) {
        let span = f.span;
        match f.ret {
            None => self.terminate(Terminator::Return(None), span),
            Some(ty) => {
                let r = self.fresh();
                let value = match ty {
                    Type::Int => ConstValue::Int(0),
                    Type::Bool => ConstValue::Bool(false),
                    Type::Str => ConstValue::Str(String::new()),
                    Type::Buf(_) => unreachable!("buf returns rejected"),
                };
                self.emit(Inst::Const { dst: r, value }, span);
                self.terminate(Terminator::Return(Some(r)), span);
            }
        }
    }

    fn lower_block(&mut self, block: &minic::Block) -> Result<()> {
        for stmt in &block.stmts {
            if self.terminated {
                // Unreachable code after return/break/continue: skip. Kept
                // lenient so handwritten benchmark programs may use early
                // returns inside branches freely.
                break;
            }
            self.lower_stmt(stmt)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<()> {
        let span = stmt.span;
        match &stmt.kind {
            StmtKind::Let { name, ty, init } => {
                // The register was allocated and default-initialized at
                // function entry; the `let` itself only runs the
                // initializer (sized buffers are allocation-hoisted no-ops;
                // dynamic `buf` handles bind their initializer here).
                match ty {
                    Type::Buf(Some(_)) => {}
                    _ => {
                        if let Some(e) = init {
                            let value = self.lower_expr(e)?;
                            let dst = *self.vars.get(name).expect("local pre-allocated at entry");
                            self.emit(Inst::Move { dst, src: value }, span);
                        }
                    }
                }
                Ok(())
            }
            StmtKind::Assign { name, value } => {
                let src = self.lower_expr(value)?;
                if let Some(&dst) = self.vars.get(name) {
                    self.emit(Inst::Move { dst, src }, span);
                } else {
                    let global = self
                        .module
                        .global_id(name)
                        .expect("checker resolves assignment targets");
                    self.emit(Inst::StoreGlobal { global, src }, span);
                }
                Ok(())
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.lower_expr(cond)?;
                let then_bb = self.new_block();
                let end_bb = self.new_block();
                let else_bb = if else_blk.is_some() {
                    self.new_block()
                } else {
                    end_bb
                };
                self.terminate(
                    Terminator::Branch {
                        cond: c,
                        then_bb,
                        else_bb,
                    },
                    span,
                );
                self.switch_to(then_bb);
                self.lower_block(then_blk)?;
                if !self.terminated {
                    self.terminate(Terminator::Jump(end_bb), span);
                }
                if let Some(eb) = else_blk {
                    self.switch_to(else_bb);
                    self.lower_block(eb)?;
                    if !self.terminated {
                        self.terminate(Terminator::Jump(end_bb), span);
                    }
                }
                self.switch_to(end_bb);
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let header = self.new_block();
                let body_bb = self.new_block();
                let end_bb = self.new_block();
                self.terminate(Terminator::Jump(header), span);
                self.switch_to(header);
                let c = self.lower_expr(cond)?;
                self.terminate(
                    Terminator::Branch {
                        cond: c,
                        then_bb: body_bb,
                        else_bb: end_bb,
                    },
                    span,
                );
                self.switch_to(body_bb);
                self.loops.push((header, end_bb));
                self.lower_block(body)?;
                self.loops.pop();
                if !self.terminated {
                    self.terminate(Terminator::Jump(header), span);
                }
                self.switch_to(end_bb);
                Ok(())
            }
            StmtKind::Return(value) => {
                let r = match value {
                    Some(e) => Some(self.lower_expr(e)?),
                    None => None,
                };
                self.terminate(Terminator::Return(r), span);
                Ok(())
            }
            StmtKind::Assert(cond) => {
                let c = self.lower_expr(cond)?;
                self.emit(Inst::Assert { cond: c }, span);
                Ok(())
            }
            StmtKind::Break => {
                let (_, end) = *self
                    .loops
                    .last()
                    .ok_or_else(|| Error::new(span, "`break` outside of a loop"))?;
                self.terminate(Terminator::Jump(end), span);
                Ok(())
            }
            StmtKind::Continue => {
                let (header, _) = *self
                    .loops
                    .last()
                    .ok_or_else(|| Error::new(span, "`continue` outside of a loop"))?;
                self.terminate(Terminator::Jump(header), span);
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.lower_call_stmt(e)?;
                Ok(())
            }
        }
    }

    /// Lowers a call in statement position, discarding any return value.
    fn lower_call_stmt(&mut self, e: &Expr) -> Result<()> {
        let ExprKind::Call { callee, args } = &e.kind else {
            unreachable!("checker enforces call statements");
        };
        if Builtin::from_name(callee).is_some() {
            self.lower_builtin(e.span, callee, args, false)?;
        } else {
            let arg_regs = self.lower_args(args)?;
            let func = self.fn_ids[callee.as_str()];
            self.emit(
                Inst::Call {
                    dst: None,
                    func,
                    args: arg_regs,
                },
                e.span,
            );
        }
        Ok(())
    }

    fn lower_args(&mut self, args: &[Expr]) -> Result<Vec<Reg>> {
        args.iter().map(|a| self.lower_expr(a)).collect()
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<Reg> {
        let span = e.span;
        match &e.kind {
            ExprKind::Int(v) => {
                let dst = self.fresh();
                self.emit(
                    Inst::Const {
                        dst,
                        value: ConstValue::Int(*v),
                    },
                    span,
                );
                Ok(dst)
            }
            ExprKind::Bool(b) => {
                let dst = self.fresh();
                self.emit(
                    Inst::Const {
                        dst,
                        value: ConstValue::Bool(*b),
                    },
                    span,
                );
                Ok(dst)
            }
            ExprKind::Str(s) => {
                let dst = self.fresh();
                self.emit(
                    Inst::Const {
                        dst,
                        value: ConstValue::Str(s.clone()),
                    },
                    span,
                );
                Ok(dst)
            }
            ExprKind::Var(name) => {
                if let Some(&r) = self.vars.get(name) {
                    Ok(r)
                } else {
                    let global = self
                        .module
                        .global_id(name)
                        .expect("checker resolves variables");
                    let dst = self.fresh();
                    self.emit(Inst::LoadGlobal { dst, global }, span);
                    Ok(dst)
                }
            }
            ExprKind::Un { op, operand } => {
                let src = self.lower_expr(operand)?;
                let dst = self.fresh();
                match op {
                    minic::UnOp::Neg => self.emit(Inst::Neg { dst, src }, span),
                    minic::UnOp::Not => self.emit(Inst::Not { dst, src }, span),
                }
                Ok(dst)
            }
            ExprKind::Bin { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => self.lower_short_circuit(*op, lhs, rhs, span),
                _ => {
                    let a = self.lower_expr(lhs)?;
                    let b = self.lower_expr(rhs)?;
                    let dst = self.fresh();
                    self.emit(Inst::Bin { op: *op, dst, a, b }, span);
                    Ok(dst)
                }
            },
            ExprKind::Call { callee, args } => {
                if Builtin::from_name(callee).is_some() {
                    Ok(self
                        .lower_builtin(span, callee, args, true)?
                        .expect("value-position builtin produces a value"))
                } else {
                    let arg_regs = self.lower_args(args)?;
                    let func = self.fn_ids[callee.as_str()];
                    let has_ret = self.program.function(callee).and_then(|f| f.ret).is_some();
                    debug_assert!(has_ret, "checker rejects void calls in value position");
                    let dst = self.fresh();
                    self.emit(
                        Inst::Call {
                            dst: Some(dst),
                            func,
                            args: arg_regs,
                        },
                        span,
                    );
                    Ok(dst)
                }
            }
        }
    }

    /// Lowers `lhs && rhs` / `lhs || rhs` with short-circuit control flow.
    fn lower_short_circuit(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        span: Span,
    ) -> Result<Reg> {
        let result = self.fresh();
        let l = self.lower_expr(lhs)?;
        self.emit(
            Inst::Move {
                dst: result,
                src: l,
            },
            span,
        );
        let rhs_bb = self.new_block();
        let end_bb = self.new_block();
        let (then_bb, else_bb) = match op {
            BinOp::And => (rhs_bb, end_bb),
            BinOp::Or => (end_bb, rhs_bb),
            _ => unreachable!(),
        };
        self.terminate(
            Terminator::Branch {
                cond: l,
                then_bb,
                else_bb,
            },
            span,
        );
        self.switch_to(rhs_bb);
        let r = self.lower_expr(rhs)?;
        self.emit(
            Inst::Move {
                dst: result,
                src: r,
            },
            span,
        );
        self.terminate(Terminator::Jump(end_bb), span);
        self.switch_to(end_bb);
        Ok(result)
    }

    /// Lowers a builtin call. Returns `Some(reg)` when the builtin
    /// produces a value and `want_value` is true.
    fn lower_builtin(
        &mut self,
        span: Span,
        callee: &str,
        args: &[Expr],
        want_value: bool,
    ) -> Result<Option<Reg>> {
        let b = Builtin::from_name(callee).expect("caller checked");
        match b {
            Builtin::Len => {
                let s = self.lower_expr(&args[0])?;
                let dst = self.fresh();
                self.emit(Inst::StrLen { dst, s }, span);
                Ok(Some(dst))
            }
            Builtin::CharAt => {
                let s = self.lower_expr(&args[0])?;
                let idx = self.lower_expr(&args[1])?;
                let dst = self.fresh();
                self.emit(Inst::StrAt { dst, s, idx }, span);
                Ok(Some(dst))
            }
            Builtin::BufSet => {
                let buf = self.lower_expr(&args[0])?;
                let idx = self.lower_expr(&args[1])?;
                let val = self.lower_expr(&args[2])?;
                self.emit(Inst::BufSet { buf, idx, val }, span);
                Ok(None)
            }
            Builtin::BufGet => {
                let buf = self.lower_expr(&args[0])?;
                let idx = self.lower_expr(&args[1])?;
                let dst = self.fresh();
                self.emit(Inst::BufGet { dst, buf, idx }, span);
                Ok(Some(dst))
            }
            Builtin::BufCap => {
                let buf = self.lower_expr(&args[0])?;
                let dst = self.fresh();
                self.emit(Inst::BufCap { dst, buf }, span);
                Ok(Some(dst))
            }
            Builtin::InputStr | Builtin::InputInt => {
                let ExprKind::Str(name) = &args[0].kind else {
                    unreachable!("checker enforces literal input names");
                };
                let kind = match b {
                    Builtin::InputStr => {
                        let ExprKind::Int(cap) = &args[1].kind else {
                            unreachable!("checker enforces literal input capacity");
                        };
                        if !(1..=u32::MAX as i64).contains(cap) {
                            return Err(Error::new(span, "input capacity must be positive"));
                        }
                        InputKind::Str { cap: *cap as u32 }
                    }
                    _ => InputKind::Int,
                };
                let input = match self.module.input_id(name) {
                    Some(id) => {
                        let existing = &self.module.inputs[id.index()];
                        if existing.kind != kind {
                            return Err(Error::new(
                                span,
                                format!("input `{name}` re-declared with a different kind"),
                            ));
                        }
                        id
                    }
                    None => {
                        let id = InputId(self.module.inputs.len() as u32);
                        self.module.inputs.push(InputDef {
                            name: name.clone(),
                            kind,
                        });
                        id
                    }
                };
                let dst = self.fresh();
                self.emit(Inst::Input { dst, input }, span);
                Ok(Some(dst))
            }
            Builtin::Print => {
                let arg_regs = self.lower_args(args)?;
                self.emit(Inst::Print { args: arg_regs }, span);
                Ok(None)
            }
            Builtin::Exit => {
                let code = self.lower_expr(&args[0])?;
                self.emit(Inst::Exit { code }, span);
                Ok(None)
            }
            Builtin::Alloc => {
                let size = self.lower_expr(&args[0])?;
                let dst = self.fresh();
                self.emit(Inst::Alloc { dst, size }, span);
                Ok(Some(dst))
            }
            Builtin::Free => {
                let buf = self.lower_expr(&args[0])?;
                self.emit(Inst::Free { buf }, span);
                Ok(None)
            }
            Builtin::Format => {
                let fmt = self.lower_expr(&args[0])?;
                self.emit(Inst::Format { fmt }, span);
                Ok(None)
            }
        }
        .map(|r| if want_value { r } else { None })
    }
}

/// Collects every `let` declaration in source order (the checker has
/// already rejected duplicates).
fn collect_locals(block: &minic::Block, out: &mut Vec<(String, Type)>) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Let { name, ty, .. } => out.push((name.clone(), *ty)),
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                collect_locals(then_blk, out);
                if let Some(e) = else_blk {
                    collect_locals(e, out);
                }
            }
            StmtKind::While { body, .. } => collect_locals(body, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;

    fn lower_src(src: &str) -> Module {
        let p = minic::parse_program(src).unwrap();
        let m = lower(&p).unwrap();
        verify(&m).unwrap();
        m
    }

    #[test]
    fn lowers_arithmetic_return() {
        let m = lower_src("fn main() -> int { return 2 + 3 * 4; }");
        let f = m.function_by_name("main").unwrap();
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.blocks[0].term.0, Terminator::Return(Some(_))));
    }

    #[test]
    fn short_circuit_becomes_control_flow() {
        let m = lower_src(
            "fn main() -> int { let a: int = 1; if (a > 0 && a < 10) { return 1; } return 0; }",
        );
        let f = m.function_by_name("main").unwrap();
        // &&-lowering introduces extra blocks beyond the plain if/else.
        assert!(
            f.blocks.len() >= 4,
            "expected >=4 blocks, got {}",
            f.blocks.len()
        );
        // No Bin instruction may carry And/Or.
        for b in &f.blocks {
            for (i, _) in &b.insts {
                if let Inst::Bin { op, .. } = i {
                    assert!(!matches!(op, BinOp::And | BinOp::Or));
                }
            }
        }
    }

    #[test]
    fn while_loop_has_backedge() {
        let m = lower_src("fn main() { let i: int = 0; while (i < 5) { i = i + 1; } return; }");
        let f = m.function_by_name("main").unwrap();
        let mut has_backedge = false;
        for (bi, b) in f.blocks.iter().enumerate() {
            for succ in b.term.0.successors() {
                if succ.index() <= bi {
                    has_backedge = true;
                }
            }
        }
        assert!(has_backedge);
    }

    #[test]
    fn inputs_are_interned_by_name() {
        let m = lower_src(
            r#"fn main() { let a: str = input_str("x", 8); let b: str = input_str("x", 8); print(a, b); }"#,
        );
        assert_eq!(m.inputs.len(), 1);
        assert_eq!(m.inputs[0].kind, InputKind::Str { cap: 8 });
    }

    #[test]
    fn conflicting_input_kinds_rejected() {
        let p = minic::parse_program(
            r#"fn main() { let a: str = input_str("x", 8); let b: int = input_int("x"); print(a, b); }"#,
        )
        .unwrap();
        assert!(lower(&p).is_err());
    }

    #[test]
    fn break_continue_lower_to_jumps() {
        lower_src(
            r#"fn main() {
                let i: int = 0;
                while (true) {
                    i = i + 1;
                    if (i > 10) { break; }
                    if (i > 5) { continue; }
                }
                return;
            }"#,
        );
    }

    #[test]
    fn break_outside_loop_is_an_error() {
        let p = minic::parse_program("fn main() { break; }").unwrap();
        assert!(lower(&p).is_err());
    }

    #[test]
    fn globals_get_default_inits() {
        let m = lower_src("global g: int; global s: str; fn main() { return; }");
        assert_eq!(m.globals[0].init, ConstValue::Int(0));
        assert_eq!(m.globals[1].init, ConstValue::Str(String::new()));
    }

    #[test]
    fn params_occupy_leading_registers() {
        let m = lower_src(
            "fn f(a: int, b: str) -> int { return a; } fn main() { print(f(1, \"x\")); }",
        );
        let f = m.function_by_name("f").unwrap();
        assert_eq!(f.reg_names[0].as_deref(), Some("a"));
        assert_eq!(f.reg_names[1].as_deref(), Some("b"));
    }

    #[test]
    fn missing_return_gets_default() {
        let m = lower_src(
            "fn f(x: int) -> int { if (x > 0) { return 1; } } fn main() { print(f(0)); }",
        );
        let f = m.function_by_name("f").unwrap();
        // Fall-through path ends in Return(Some(default)).
        let last = f.blocks.last().unwrap();
        assert!(matches!(last.term.0, Terminator::Return(Some(_))));
    }
}
