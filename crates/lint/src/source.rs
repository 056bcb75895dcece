//! Per-unit front-end pass: parse, screen, and type-shape checks.
//!
//! The first pass family over a mini-C unit. Everything the
//! pre-compiler's own screens reject — at parse time (`union`, `goto`,
//! `switch`, varargs, function pointers) or in the cast screen
//! (pointer↔integer casts) — becomes a coded diagnostic instead of a
//! hard error, so one run reports *every* problem in the unit. On top
//! of those, this pass adds the pointer-compatibility check the cast
//! screen deliberately skips: casts between pointers to differently
//! shaped pointees (**HPM008**), which the TI table would mis-restore.

use crate::diag::{Diagnostic, LintCode, Report};
use hpm_annotate::ast::{Expr, Function, Program, Span, Stmt, TypeExpr};
use hpm_annotate::safety::{check_migration_safety, UnsafeFeature};
use hpm_annotate::{parse, CError};
use std::collections::BTreeMap;

/// Lint the front end of one unit. Returns the report plus the program
/// when it parsed (so later passes can run).
pub fn lint_front_end(unit: &str, src: &str) -> (Report, Option<Program>) {
    let mut report = Report::new();
    let program = match parse(src) {
        Ok(p) => p,
        Err(e) => {
            report.push(front_end_error(unit, &e));
            return (report, None);
        }
    };
    if let Err(e) = hpm_annotate::sema::check_names(&program) {
        report.push(front_end_error(unit, &e));
        return (report, Some(program));
    }
    for u in check_migration_safety(&program) {
        report.push(unsafe_feature(unit, &u));
    }
    for f in &program.functions {
        check_pointer_casts(&program, f, unit, &mut report);
    }
    (report, Some(program))
}

/// Map a pre-compiler error to its stable code. Parse-level unsafe
/// rejections keep their feature codes; everything else is `HPM009`.
fn front_end_error(unit: &str, e: &CError) -> Diagnostic {
    match e {
        CError::Unsafe(u) => unsafe_feature(unit, u),
        CError::Lex(m, line) | CError::Parse(m, line) => Diagnostic::new(
            LintCode::FrontEnd,
            unit,
            Some(Span::new(*line, 1)),
            m.clone(),
        ),
        other => Diagnostic::new(LintCode::FrontEnd, unit, None, other.to_string()),
    }
}

/// The diagnostic for a migration-unsafe feature, wherever the
/// pre-compiler's screens found it.
fn unsafe_feature(unit: &str, u: &UnsafeFeature) -> Diagnostic {
    let code = match u {
        UnsafeFeature::PointerToInt { .. } => LintCode::PointerToInt,
        UnsafeFeature::IntToPointer { .. } => LintCode::IntToPointer,
        UnsafeFeature::Union { .. } => LintCode::Union,
        UnsafeFeature::Goto { .. } => LintCode::Goto,
        UnsafeFeature::Switch { .. } => LintCode::Switch,
        UnsafeFeature::Varargs { .. } => LintCode::Varargs,
        UnsafeFeature::FunctionPointer { .. } => LintCode::FunctionPointer,
    };
    let (line, col) = u.position();
    Diagnostic::new(
        code,
        unit,
        Some(Span::new(line, col)),
        format!("migration-unsafe feature: {u}"),
    )
}

/// Declared types visible inside one function.
fn decl_types(program: &Program, f: &Function) -> BTreeMap<String, (TypeExpr, bool)> {
    let mut map = BTreeMap::new();
    for d in program.globals.iter().chain(&f.params).chain(&f.locals) {
        map.insert(d.name.clone(), (d.ty.clone(), d.array.is_some()));
    }
    map
}

/// HPM008: a cast between pointers whose pointee shapes differ.
fn check_pointer_casts(program: &Program, f: &Function, unit: &str, report: &mut Report) {
    let decls = decl_types(program, f);
    let mut visit = |e: &Expr| {
        if let Expr::Cast(to, inner, span) = e {
            if let (TypeExpr::Pointer(to_pointee), Some(from_pointee)) =
                (to, pointee_of(inner, &decls))
            {
                if **to_pointee != from_pointee {
                    report.push(Diagnostic::new(
                        LintCode::IncompatiblePointerCast,
                        unit,
                        Some(*span),
                        format!(
                            "cast between incompatible pointee shapes in {}: the TI table \
                             would restore the target block with the wrong plan",
                            f.name
                        ),
                    ));
                }
            }
        }
    };
    for s in &f.body {
        walk_stmt_exprs(s, &mut visit);
    }
}

/// The pointee type of a pointer-shaped expression, when statically
/// known from declarations. `malloc` is untyped (C's `void *`) and
/// never reported.
fn pointee_of(e: &Expr, decls: &BTreeMap<String, (TypeExpr, bool)>) -> Option<TypeExpr> {
    match e {
        Expr::Ident(n) => match decls.get(n) {
            Some((TypeExpr::Pointer(p), false)) => Some((**p).clone()),
            // An array decays to a pointer to its element type.
            Some((elem, true)) => Some(elem.clone()),
            _ => None,
        },
        Expr::AddrOf(inner) => match &**inner {
            Expr::Ident(n) => match decls.get(n) {
                Some((ty, false)) => Some(ty.clone()),
                _ => None,
            },
            _ => None,
        },
        Expr::Cast(TypeExpr::Pointer(p), _, _) => Some((**p).clone()),
        _ => None,
    }
}

/// Apply `visit` to every expression in `s`, recursively.
fn walk_stmt_exprs(s: &Stmt, visit: &mut impl FnMut(&Expr)) {
    match s {
        Stmt::Assign { target, value, .. } => {
            walk_expr(target, visit);
            walk_expr(value, visit);
        }
        Stmt::Expr { expr, .. } => walk_expr(expr, visit),
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            walk_expr(cond, visit);
            for s in then_body.iter().chain(else_body) {
                walk_stmt_exprs(s, visit);
            }
        }
        Stmt::While { cond, body, .. } => {
            walk_expr(cond, visit);
            for s in body {
                walk_stmt_exprs(s, visit);
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
                walk_stmt_exprs(i, visit);
            }
            if let Some(c) = cond {
                walk_expr(c, visit);
            }
            if let Some(st) = step {
                walk_stmt_exprs(st, visit);
            }
            for s in body {
                walk_stmt_exprs(s, visit);
            }
        }
        Stmt::Return { value, .. } => {
            if let Some(v) = value {
                walk_expr(v, visit);
            }
        }
        Stmt::Free { ptr, .. } => walk_expr(ptr, visit),
        Stmt::Print { value, .. } => walk_expr(value, visit),
        Stmt::Break { .. } | Stmt::Continue { .. } => {}
    }
}

fn walk_expr(e: &Expr, visit: &mut impl FnMut(&Expr)) {
    visit(e);
    match e {
        Expr::Binary(_, a, b) | Expr::Index(a, b) => {
            walk_expr(a, visit);
            walk_expr(b, visit);
        }
        Expr::Unary(_, a)
        | Expr::Deref(a)
        | Expr::AddrOf(a)
        | Expr::Cast(_, a, _)
        | Expr::Malloc(a, _)
        | Expr::Member(a, _)
        | Expr::Arrow(a, _) => walk_expr(a, visit),
        Expr::Call(_, args) => {
            for a in args {
                walk_expr(a, visit);
            }
        }
        Expr::Int(_) | Expr::Float(_) | Expr::Ident(_) | Expr::Sizeof(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Report {
        let (mut r, _) = lint_front_end("t.c", src);
        r.finish();
        r
    }

    #[test]
    fn union_maps_to_hpm001() {
        let r = lint("union u { int a; float b; };\nint main() { return 0; }");
        assert!(r.has_code(LintCode::Union), "{r:?}");
    }

    #[test]
    fn parse_error_maps_to_hpm009() {
        let r = lint("int main( { return 0; }");
        assert!(r.has_code(LintCode::FrontEnd), "{r:?}");
    }

    #[test]
    fn ptr_int_casts_carry_spans() {
        let r = lint("int main() { int x; int *p; p = &x; x = (int) p; return x; }");
        let d = r
            .diagnostics()
            .iter()
            .find(|d| d.code == LintCode::PointerToInt)
            .unwrap();
        assert_eq!(d.span, Some(Span::new(1, 41)));
    }

    #[test]
    fn incompatible_pointer_cast_flagged() {
        let r = lint(
            "struct a { int x; };\n\
             struct b { double y; double z; };\n\
             int main() {\n\
               struct a *pa;\n\
               struct b *pb;\n\
               pa = (struct a *) malloc(sizeof(struct a));\n\
               pb = (struct b *) pa;\n\
               print(0);\n\
               return 0;\n\
             }",
        );
        assert!(r.has_code(LintCode::IncompatiblePointerCast), "{r:?}");
        let d = r
            .diagnostics()
            .iter()
            .find(|d| d.code == LintCode::IncompatiblePointerCast)
            .unwrap();
        assert_eq!(d.span.unwrap().line, 7);
    }

    #[test]
    fn malloc_cast_not_flagged() {
        let r = lint(
            "struct a { int x; };\n\
             int main() { struct a *p; p = (struct a *) malloc(sizeof(struct a)); return 0; }",
        );
        assert!(!r.has_code(LintCode::IncompatiblePointerCast), "{r:?}");
    }

    #[test]
    fn same_pointee_cast_not_flagged() {
        let r = lint("int main() { int *p; int *q; q = p; p = (int *) q; return 0; }");
        assert!(!r.has_code(LintCode::IncompatiblePointerCast), "{r:?}");
    }

    #[test]
    fn array_decay_cast_checked() {
        let r = lint("int main() { int buf[4]; double *d; d = (double *) buf; return 0; }");
        assert!(r.has_code(LintCode::IncompatiblePointerCast), "{r:?}");
    }
}
