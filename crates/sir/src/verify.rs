//! Structural validation of SIR modules.
//!
//! Run after lowering (and in tests) to catch malformed IR early: every
//! register must be in range, every block target must exist, call arities
//! must match, and ids must resolve.

use crate::ir::*;
use std::fmt;

/// A structural defect found in a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the defect was found, if any.
    pub function: Option<String>,
    /// Description of the defect.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.function {
            Some(name) => write!(f, "in `{name}`: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Validates the structure of `module`.
///
/// # Errors
///
/// Returns the first defect found. A module produced by [`crate::lower()`]
/// always verifies; this exists to guard hand-constructed or mutated IR.
pub fn verify(module: &Module) -> Result<(), VerifyError> {
    if module.funcs.is_empty() {
        return Err(VerifyError {
            function: None,
            message: "module has no functions".into(),
        });
    }
    if module.main.index() >= module.funcs.len() {
        return Err(VerifyError {
            function: None,
            message: format!("main id {} out of range", module.main),
        });
    }
    for f in &module.funcs {
        verify_func(module, f).map_err(|message| VerifyError {
            function: Some(f.name.to_string()),
            message,
        })?;
    }
    Ok(())
}

fn verify_func(module: &Module, f: &FuncBody) -> Result<(), String> {
    if f.blocks.is_empty() {
        return Err("function has no blocks".into());
    }
    if f.reg_names.len() != f.num_regs as usize {
        return Err(format!(
            "reg_names has {} entries for {} registers",
            f.reg_names.len(),
            f.num_regs
        ));
    }
    if (f.params.len() as u32) > f.num_regs {
        return Err("fewer registers than parameters".into());
    }
    let check_reg = |r: Reg| -> Result<(), String> {
        if r.0 < f.num_regs {
            Ok(())
        } else {
            Err(format!(
                "register {r} out of range (num_regs={})",
                f.num_regs
            ))
        }
    };
    let check_block = |b: BlockId| -> Result<(), String> {
        if b.index() < f.blocks.len() {
            Ok(())
        } else {
            Err(format!("block {b} out of range"))
        }
    };
    for block in &f.blocks {
        for (inst, _) in &block.insts {
            if let Some(d) = inst.dst() {
                check_reg(d)?;
            }
            for s in inst.sources() {
                check_reg(s)?;
            }
            match inst {
                Inst::Call { func, args, dst } => {
                    let callee = module
                        .funcs
                        .get(func.index())
                        .ok_or_else(|| format!("call target {func} out of range"))?;
                    if callee.params.len() != args.len() {
                        return Err(format!(
                            "call to `{}` passes {} args for {} params",
                            callee.name,
                            args.len(),
                            callee.params.len()
                        ));
                    }
                    if dst.is_some() && callee.ret.is_none() {
                        return Err(format!("call to void `{}` expects a value", callee.name));
                    }
                }
                Inst::LoadGlobal { global, .. } | Inst::StoreGlobal { global, .. }
                    if global.index() >= module.globals.len() =>
                {
                    return Err(format!("global {global} out of range"));
                }
                Inst::Input { input, .. } if input.index() >= module.inputs.len() => {
                    return Err(format!("input {input} out of range"));
                }
                Inst::AllocBuf { cap, .. } if *cap == 0 => {
                    return Err("zero-capacity buffer".into());
                }
                _ => {}
            }
        }
        match &block.term.0 {
            Terminator::Jump(b) => check_block(*b)?,
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                check_reg(*cond)?;
                check_block(*then_bb)?;
                check_block(*else_bb)?;
            }
            Terminator::Return(Some(r)) => check_reg(*r)?,
            Terminator::Return(None) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::Span;

    fn tiny_module() -> Module {
        Module {
            funcs: vec![FuncBody {
                name: "main".into(),
                params: vec![],
                ret: None,
                blocks: vec![BasicBlock {
                    insts: vec![],
                    term: (Terminator::Return(None), Span::default()),
                }],
                num_regs: 0,
                reg_names: vec![],
                span: Span::default(),
            }],
            globals: vec![],
            inputs: vec![],
            main: FuncId(0),
        }
    }

    #[test]
    fn accepts_minimal_module() {
        verify(&tiny_module()).unwrap();
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut m = tiny_module();
        m.funcs[0].blocks[0].insts.push((
            Inst::Move {
                dst: Reg(0),
                src: Reg(1),
            },
            Span::default(),
        ));
        let err = verify(&m).unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn rejects_bad_jump_target() {
        let mut m = tiny_module();
        m.funcs[0].blocks[0].term = (Terminator::Jump(BlockId(9)), Span::default());
        assert!(verify(&m).is_err());
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut m = tiny_module();
        m.funcs[0].blocks[0].insts.push((
            Inst::Call {
                dst: None,
                func: FuncId(0),
                args: vec![Reg(0)],
            },
            Span::default(),
        ));
        // Register 0 is also out of range, but arity triggers only after
        // the register check passes, so bump num_regs first.
        m.funcs[0].num_regs = 1;
        m.funcs[0].reg_names = vec![None];
        let err = verify(&m).unwrap_err();
        assert!(err.message.contains("args"));
    }

    #[test]
    fn rejects_empty_module() {
        let m = Module::default();
        assert!(verify(&m).is_err());
    }
}
