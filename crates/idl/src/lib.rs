//! An IDL compiler for the Spring interface definition language.
//!
//! "The unifying principle of Spring is that all the key interfaces are
//! defined in an interface definition language called IDL. This language is
//! object-oriented and includes support for multiple inheritance. It is
//! purely concerned with interface properties and does not provide any
//! implementation information. From the IDL interfaces it is possible to
//! generate language-specific stubs." (§3.1)
//!
//! This crate compiles a practical subset of OMG-style IDL to Rust stubs and
//! skeletons that target the `subcontract` API:
//!
//! * modules, interfaces with **multiple inheritance**, structs, enums,
//!   exceptions, typedefs, and constants;
//! * parameter modes `in`, `out`, `inout`, and the paper's **`copy`** mode
//!   (§5.1.5) for object parameters;
//! * `raises` clauses mapping to typed Rust error enums;
//! * a `[subcontract = name]` interface annotation selecting the type's
//!   default subcontract (§6.1: "For each type we can specify a default
//!   subcontract for use when talking to that type").
//!
//! The generated stubs are fully subcontract-independent: every remote call
//! flows through `start_call` → argument marshalling → `invoke`, and every
//! object argument or result is marshalled by its own subcontract. The
//! method-table numbering is a 32-bit hash of the operation name, checked
//! collision-free across each interface's full inherited method set.
//!
//! # Examples
//!
//! ```
//! let source = r#"
//!     module demo {
//!         interface greeter {
//!             string greet(in string name);
//!         };
//!     };
//! "#;
//! let rust = spring_idl::compile(source).unwrap();
//! assert!(rust.contains("pub struct Greeter"));
//! assert!(rust.contains("pub trait GreeterServant"));
//! ```

mod ast;
mod check;
mod codegen;
mod layout;
mod lexer;
mod parser;

pub use ast::*;
pub use check::{check, CheckedSpec};
pub use codegen::generate;
pub use lexer::{lex, Token, TokenKind};
pub use parser::parse;

use std::fmt;

/// A compilation error with source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdlError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl IdlError {
    pub(crate) fn new(line: usize, col: usize, message: impl Into<String>) -> IdlError {
        IdlError {
            line,
            col,
            message: message.into(),
        }
    }
}

impl fmt::Display for IdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for IdlError {}

/// Compiles IDL source text to Rust code (lex → parse → check → generate).
pub fn compile(source: &str) -> Result<String, IdlError> {
    let tokens = lex(source)?;
    let spec = parse(&tokens)?;
    let checked = check(&spec)?;
    Ok(generate(&checked))
}
