//! Migration-unsafe feature detection.
//!
//! The paper (§1): "Smith and Hutchinson \[5\] have identified the
//! migration-unsafe features of the C language. With the help of a
//! compiler, most of the migration-unsafe features can be detected and
//! avoided." This pass is that screen for mini-C. Some constructs are
//! rejected during parsing (`union`, `goto`, `switch`, varargs, function
//! pointers); this pass catches the value-level ones that parse fine:
//!
//! * casting a pointer to an integer type (the integer would carry a
//!   machine-specific address across the migration);
//! * casting an integer to a pointer type (forging addresses the MSRLT
//!   cannot translate);
//! * casting between pointers whose pointee types have different shapes
//!   (the TI table could mis-restore the target block).

use crate::ast::*;
use crate::CError;

/// A migration-unsafe feature, with the source line and column where it
/// occurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnsafeFeature {
    /// `union` types: the live variant is unknowable at migration time.
    Union {
        /// Source line.
        line: u32,
        /// Source column.
        col: u32,
    },
    /// `goto`: resume points would not dominate their uses.
    Goto {
        /// Source line.
        line: u32,
        /// Source column.
        col: u32,
    },
    /// `switch`: fall-through labels complicate resume points (rejected
    /// in this subset; a full pre-compiler can transform them).
    Switch {
        /// Source line.
        line: u32,
        /// Source column.
        col: u32,
    },
    /// Variadic functions: unknown live data at call sites.
    Varargs {
        /// Source line.
        line: u32,
        /// Source column.
        col: u32,
    },
    /// Function pointers: code addresses are not portable.
    FunctionPointer {
        /// Source line.
        line: u32,
        /// Source column.
        col: u32,
    },
    /// Pointer value cast to an integer type.
    PointerToInt {
        /// Source line.
        line: u32,
        /// Source column.
        col: u32,
    },
    /// Integer value cast to a pointer type.
    IntToPointer {
        /// Source line.
        line: u32,
        /// Source column.
        col: u32,
    },
}

impl UnsafeFeature {
    /// Source position `(line, col)` of the feature.
    pub fn position(&self) -> (u32, u32) {
        match *self {
            UnsafeFeature::Union { line, col }
            | UnsafeFeature::Goto { line, col }
            | UnsafeFeature::Switch { line, col }
            | UnsafeFeature::Varargs { line, col }
            | UnsafeFeature::FunctionPointer { line, col }
            | UnsafeFeature::PointerToInt { line, col }
            | UnsafeFeature::IntToPointer { line, col } => (line, col),
        }
    }
}

impl std::fmt::Display for UnsafeFeature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (line, col) = self.position();
        let what = match self {
            UnsafeFeature::Union { .. } => "union",
            UnsafeFeature::Goto { .. } => "goto",
            UnsafeFeature::Switch { .. } => "switch",
            UnsafeFeature::Varargs { .. } => "varargs",
            UnsafeFeature::FunctionPointer { .. } => "function pointer",
            UnsafeFeature::PointerToInt { .. } => "pointer cast to integer",
            UnsafeFeature::IntToPointer { .. } => "integer cast to pointer",
        };
        write!(f, "{what} (line {line}, col {col})")
    }
}

/// Scan a parsed program for migration-unsafe casts.
///
/// Cast direction is judged *syntactically*: a cast to an integer type
/// whose operand is a pointer-shaped expression (`&x`, a pointer
/// variable, `malloc`, pointer arithmetic) is pointer→int; a cast to a
/// pointer type whose operand is integer-shaped is int→pointer. Casts
/// between pointer types (e.g. `(struct node *) malloc(…)`) are safe:
/// the MSRLT translates them like any other pointer.
pub fn check_migration_safety(program: &Program) -> Vec<UnsafeFeature> {
    let mut ck = Checker {
        program,
        found: Vec::new(),
        seen: Default::default(),
        ptr_vars: Default::default(),
    };
    for f in &program.functions {
        ck.ptr_vars.clear();
        for d in program.globals.iter().chain(&f.params).chain(&f.locals) {
            if d.ty.pointer_depth() > 0 || d.array.is_some() {
                ck.ptr_vars.insert(d.name.clone());
            }
        }
        for s in &f.body {
            ck.stmt(s);
        }
    }
    ck.found
}

/// Validate a program completely: parse-level rejections happened
/// already; this returns `Err` if the cast screen finds anything.
pub fn require_safe(program: &Program) -> Result<(), CError> {
    match check_migration_safety(program).into_iter().next() {
        None => Ok(()),
        Some(u) => Err(CError::Unsafe(u)),
    }
}

struct Checker<'a> {
    #[allow(dead_code)]
    program: &'a Program,
    found: Vec<UnsafeFeature>,
    // The parser desugars `e OP= v` and `e++` by cloning `e` into the
    // value side, so one source cast can be visited twice; report each
    // source position once.
    seen: std::collections::HashSet<UnsafeFeature>,
    ptr_vars: std::collections::HashSet<String>,
}

impl Checker<'_> {
    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { target, value, .. } => {
                self.expr(target);
                self.expr(value);
            }
            Stmt::Expr { expr, .. } => self.expr(expr),
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                self.expr(cond);
                for s in then_body.iter().chain(else_body) {
                    self.stmt(s);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.expr(cond);
                for s in body {
                    self.stmt(s);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(st) = step {
                    self.stmt(st);
                }
                for s in body {
                    self.stmt(s);
                }
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.expr(v);
                }
            }
            Stmt::Free { ptr, .. } => self.expr(ptr),
            Stmt::Print { value, .. } => self.expr(value),
            Stmt::Break { .. } | Stmt::Continue { .. } => {}
        }
    }

    /// Whether an expression is pointer-shaped (syntactic judgement).
    fn is_pointerish(&self, e: &Expr) -> bool {
        match e {
            Expr::AddrOf(_) | Expr::Malloc(..) => true,
            Expr::Ident(n) => self.ptr_vars.contains(n),
            Expr::Cast(t, _, _) => t.pointer_depth() > 0,
            Expr::Binary(BinOp::Add | BinOp::Sub, a, b) => {
                self.is_pointerish(a) || self.is_pointerish(b)
            }
            _ => false,
        }
    }

    fn report(&mut self, u: UnsafeFeature) {
        if self.seen.insert(u) {
            self.found.push(u);
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Cast(ty, inner, span) => {
                let to_ptr = ty.pointer_depth() > 0;
                let from_ptr = self.is_pointerish(inner);
                let (line, col) = (span.line, span.col);
                if !to_ptr && from_ptr && !matches!(ty, TypeExpr::Scalar(s) if s.is_float()) {
                    self.report(UnsafeFeature::PointerToInt { line, col });
                }
                if to_ptr && !from_ptr {
                    self.report(UnsafeFeature::IntToPointer { line, col });
                }
                self.expr(inner);
            }
            Expr::Binary(_, a, b) | Expr::Index(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Expr::Unary(_, a) | Expr::Deref(a) | Expr::AddrOf(a) => self.expr(a),
            Expr::Member(a, _) | Expr::Arrow(a, _) => self.expr(a),
            Expr::Call(_, args) => {
                for a in args {
                    self.expr(a);
                }
            }
            Expr::Malloc(n, _) => self.expr(n),
            Expr::Int(_) | Expr::Float(_) | Expr::Ident(_) | Expr::Sizeof(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn clean_program_passes() {
        let p = parse(
            "struct n { int v; struct n *next; };\n\
             int main() { struct n *p; p = (struct n *) malloc(sizeof(struct n)); return 0; }",
        )
        .unwrap();
        assert!(check_migration_safety(&p).is_empty());
        assert!(require_safe(&p).is_ok());
    }

    #[test]
    fn pointer_to_int_cast_flagged() {
        let p = parse("int main() { int x; int *p; p = &x; x = (int) p; return x; }").unwrap();
        let found = check_migration_safety(&p);
        assert!(
            matches!(found[0], UnsafeFeature::PointerToInt { .. }),
            "{found:?}"
        );
        assert!(require_safe(&p).is_err());
    }

    #[test]
    fn int_to_pointer_cast_flagged() {
        let p = parse("int main() { int *p; p = (int *) 1234; return 0; }").unwrap();
        let found = check_migration_safety(&p);
        assert!(
            matches!(found[0], UnsafeFeature::IntToPointer { .. }),
            "{found:?}"
        );
    }

    #[test]
    fn addr_of_cast_to_int_flagged() {
        let p = parse("int main() { int x; long l; l = (long) &x; return 0; }").unwrap();
        assert_eq!(check_migration_safety(&p).len(), 1);
    }

    #[test]
    fn pointer_to_pointer_cast_ok() {
        let p = parse(
            "struct a { int x; };\n\
             int main() { struct a *p; p = (struct a *) malloc(sizeof(struct a)); return 0; }",
        )
        .unwrap();
        assert!(check_migration_safety(&p).is_empty());
    }

    #[test]
    fn cast_report_carries_column() {
        let p = parse("int main() { int x; int *p; p = &x; x = (int) p; return x; }").unwrap();
        let found = check_migration_safety(&p);
        assert_eq!(found.len(), 1);
        // The cast's opening parenthesis is at column 41.
        assert_eq!(found[0], UnsafeFeature::PointerToInt { line: 1, col: 41 });
        assert!(found[0].to_string().contains("col 41"), "{}", found[0]);
    }

    #[test]
    fn desugared_compound_assign_reports_cast_once() {
        // `*((int *) 9000) += 1` desugars by cloning the target into the
        // value side; the single source cast must be reported once.
        let p = parse("int main() { *((int *) 9000) += 1; return 0; }").unwrap();
        let found = check_migration_safety(&p);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(matches!(found[0], UnsafeFeature::IntToPointer { .. }));
    }

    #[test]
    fn distinct_casts_on_one_line_both_reported() {
        let p = parse("int main() { int *p; int *q; p = (int *) 1; q = (int *) 2; return 0; }")
            .unwrap();
        let found = check_migration_safety(&p);
        assert_eq!(found.len(), 2, "{found:?}");
        let (l0, c0) = found[0].position();
        let (l1, c1) = found[1].position();
        assert_eq!(l0, l1);
        assert_ne!(c0, c1, "distinct casts keep distinct columns");
    }

    #[test]
    fn nested_unsafe_found_in_loops() {
        let p = parse(
            "int main() { int i; int *q; for (i = 0; i < 3; i++) { q = (int *) i; } return 0; }",
        )
        .unwrap();
        assert_eq!(check_migration_safety(&p).len(), 1);
    }
}
