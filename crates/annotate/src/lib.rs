//! # hpm-annotate — the mini-C pre-compiler and interpreter
//!
//! §2 of the paper: "The selection of poll-points as well as the macro
//! insertion are performed automatically by a source-to-source
//! transformation software (or a pre-compiler). … At every poll-point,
//! the pre-compiler defines live variables whose data values are needed
//! for computation beyond the poll-point."
//!
//! This crate is that pre-compiler for a C subset ("mini-C"), plus an
//! execution engine so transformed programs actually run — and migrate —
//! on the simulated machines:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — front end for the C subset
//!   (scalars, pointers, 1-D arrays, structs, `malloc`/`free`, `if`/
//!   `while`/`for`, function calls);
//! * [`safety`] — migration-unsafe feature detection in the spirit of
//!   Smith & Hutchinson's TUI analysis (pointer↔integer casts, unions,
//!   varargs, function pointers, address arithmetic escaping the MSR
//!   model);
//! * [`sema`] — symbol/type resolution onto the `hpm-types` TI table;
//! * [`mod@cfg`] / [`liveness`] — statement-level control-flow graph and the
//!   backward live-variable dataflow analysis;
//! * [`annotate`] — poll-point selection (function entries and loop
//!   headers) and annotated-source emission, the paper's source-to-source
//!   transformation made visible;
//! * [`compile`] / [`vm`] — a bytecode compiler and interpreter that runs
//!   mini-C programs as [`MigratableProgram`](hpm_migrate::MigratableProgram)s:
//!   poll instructions carry the liveness analysis results, and the VM
//!   speaks the same save/restore protocol as the hand-annotated
//!   workloads, so mini-C processes migrate across heterogeneous
//!   machines mid-execution.

#![forbid(unsafe_code)]

pub mod annotate;
pub mod ast;
pub mod cfg;
pub mod compile;
pub mod lexer;
pub mod liveness;
pub mod parser;
pub mod safety;
pub mod sema;
pub mod vm;

pub use annotate::{annotate_source, PollSite};
pub use compile::{compile_program, CompiledProgram};
pub use lexer::{lex, Token, TokenKind};
pub use parser::parse;
pub use safety::{check_migration_safety, UnsafeFeature};
pub use vm::MiniCProcess;

/// Errors across the pre-compiler pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CError {
    /// Lexical error with line number.
    Lex(String, u32),
    /// Parse error with line number.
    Parse(String, u32),
    /// Semantic error (unknown name, type mismatch, …).
    Sema(String),
    /// The program uses a migration-unsafe feature.
    Unsafe(UnsafeFeature),
    /// Runtime error in the VM.
    Runtime(String),
}

impl std::fmt::Display for CError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CError::Lex(m, l) => write!(f, "lex error at line {l}: {m}"),
            CError::Parse(m, l) => write!(f, "parse error at line {l}: {m}"),
            CError::Sema(m) => write!(f, "semantic error: {m}"),
            CError::Unsafe(u) => write!(f, "migration-unsafe feature: {u}"),
            CError::Runtime(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl std::error::Error for CError {}

impl From<hpm_migrate::MigError> for CError {
    fn from(e: hpm_migrate::MigError) -> Self {
        CError::Runtime(e.to_string())
    }
}

impl From<hpm_memory::MemError> for CError {
    fn from(e: hpm_memory::MemError) -> Self {
        CError::Runtime(e.to_string())
    }
}
