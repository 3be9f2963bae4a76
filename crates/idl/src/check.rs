//! Semantic analysis: name resolution, inheritance, and type rules.
//!
//! The checker normalizes every scoped name to its absolute form (so code
//! generation is purely mechanical), flattens each interface's inherited
//! method set, and enforces the rules that keep the generated stubs sound:
//!
//! * parents must be interfaces, acyclic, and diamond inheritance is
//!   deduplicated;
//! * operation names must be unique across the flattened method set, and
//!   their 32-bit wire hashes must not collide; no operation may take the
//!   name of one of the client stub's own methods (`obj`, `copy`, ...);
//! * `raises` clauses must name exceptions;
//! * `out`/`inout` modes are rejected for object types (an object's
//!   round-trip identity is not well-defined under Spring's move semantics);
//!   `copy` mode is *only* valid for object types (§5.1.5);
//! * structs, exceptions, and sequences may not contain objects — object
//!   arguments and results are handled by subcontracts at the top level;
//! * a struct may not contain itself by value.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::ast::*;
use crate::codegen::STUB_METHODS;
use crate::{layout, IdlError};

/// One operation of a flattened method set, tagged with the interface that
/// declared it (whose error enum the operation uses).
#[derive(Clone, Debug)]
pub struct FlatOp {
    /// Absolute name of the declaring interface.
    pub owner: String,
    /// The operation.
    pub op: Operation,
}

/// Everything code generation needs about one interface.
#[derive(Clone, Debug)]
pub struct InterfaceInfo {
    /// Absolute name, e.g. `fs::cacheable_file`.
    pub abs: String,
    /// The normalized declaration (absolute scoped names throughout).
    pub decl: Interface,
    /// Direct parents, absolute.
    pub parents: Vec<String>,
    /// All ancestors (no duplicates, depth-first order).
    pub ancestors: Vec<String>,
    /// The full method set: inherited operations first, then own.
    pub flat_ops: Vec<FlatOp>,
    /// Exceptions raised by this interface's *own* operations (the
    /// interface's error enum covers exactly these).
    pub exceptions: Vec<String>,
}

/// The result of semantic analysis, consumed by code generation.
#[derive(Clone, Debug, Default)]
pub struct CheckedSpec {
    /// The normalized syntax tree.
    pub spec: Spec,
    /// Interfaces by absolute name.
    pub interfaces: BTreeMap<String, InterfaceInfo>,
    /// Structs by absolute name.
    pub structs: BTreeMap<String, StructDef>,
    /// Enums by absolute name.
    pub enums: BTreeMap<String, EnumDef>,
    /// Exceptions by absolute name.
    pub exceptions: BTreeMap<String, ExceptionDef>,
    /// Typedefs by absolute name, fully resolved to a non-typedef type.
    pub typedefs: BTreeMap<String, Type>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Interface,
    Struct,
    Enum,
    Exception,
    Typedef,
    Const,
}

struct Checker {
    /// Absolute name -> kind.
    kinds: HashMap<String, Kind>,
    /// Absolute typedef name -> declaration position, for cycle diagnostics.
    typedef_pos: HashMap<String, (usize, usize)>,
    out: CheckedSpec,
}

fn err_at(line: usize, col: usize, message: impl Into<String>) -> IdlError {
    IdlError::new(line, col, message)
}

impl Checker {
    /// Pass 1: collect every definition's absolute name.
    fn collect(&mut self, scope: &[String], defs: &[Definition]) -> Result<(), IdlError> {
        for def in defs {
            let (name, kind, line, col) = match def {
                Definition::Module(m) => {
                    let mut inner = scope.to_vec();
                    inner.push(m.name.clone());
                    self.collect(&inner, &m.definitions)?;
                    continue;
                }
                Definition::Interface(i) => (&i.name, Kind::Interface, i.line, i.col),
                Definition::Struct(s) => (&s.name, Kind::Struct, s.line, s.col),
                Definition::Enum(e) => (&e.name, Kind::Enum, e.line, e.col),
                Definition::Exception(e) => (&e.name, Kind::Exception, e.line, e.col),
                Definition::Typedef(t) => (&t.name, Kind::Typedef, t.line, t.col),
                Definition::Const(c) => (&c.name, Kind::Const, c.line, c.col),
            };
            let abs = abs_name(scope, name);
            if self.kinds.insert(abs.clone(), kind).is_some() {
                return Err(err_at(
                    line,
                    col,
                    format!("duplicate definition of {abs:?}"),
                ));
            }
        }
        Ok(())
    }

    /// Resolves a scoped name from `scope`, innermost first.
    fn resolve(&self, scope: &[String], name: &ScopedName) -> Result<(String, Kind), IdlError> {
        for depth in (0..=scope.len()).rev() {
            let mut candidate = scope[..depth].join("::");
            if !candidate.is_empty() {
                candidate.push_str("::");
            }
            candidate.push_str(&name.joined());
            if let Some(&kind) = self.kinds.get(&candidate) {
                return Ok((candidate, kind));
            }
        }
        Err(err_at(
            name.line,
            name.col,
            format!("unresolved name {:?}", name.joined()),
        ))
    }

    /// Rewrites a type to absolute form and validates its structure. `at` is
    /// the position reported for anonymous types (`object`, `sequence<...>`),
    /// which carry no position of their own.
    fn norm_type(
        &self,
        scope: &[String],
        ty: &Type,
        in_data: bool,
        at: (usize, usize),
    ) -> Result<Type, IdlError> {
        match ty {
            Type::Named(n) => {
                let (abs, kind) = self.resolve(scope, n)?;
                match kind {
                    Kind::Exception => Err(err_at(
                        n.line,
                        n.col,
                        format!("{abs:?} is an exception; use it in a raises clause"),
                    )),
                    Kind::Const => Err(err_at(
                        n.line,
                        n.col,
                        format!("{abs:?} is a constant, not a type"),
                    )),
                    Kind::Interface if in_data => Err(err_at(
                        n.line,
                        n.col,
                        format!("object type {abs:?} cannot appear inside data types"),
                    )),
                    _ => Ok(Type::Named(ScopedName {
                        segments: abs.split("::").map(str::to_owned).collect(),
                        line: n.line,
                        col: n.col,
                    })),
                }
            }
            Type::Object if in_data => Err(err_at(
                at.0,
                at.1,
                "`object` cannot appear inside data types".to_owned(),
            )),
            Type::Sequence(inner) => Ok(Type::Sequence(Box::new(
                self.norm_type(scope, inner, true, at)?,
            ))),
            other => Ok(other.clone()),
        }
    }

    /// True when a (normalized) type is an object type at this use site.
    fn is_object_type(&self, ty: &Type) -> bool {
        match ty {
            Type::Object => true,
            Type::Named(n) => {
                matches!(self.kinds.get(&n.joined()), Some(Kind::Interface))
                    || matches!(
                        self.out.typedefs.get(&n.joined()),
                        Some(t) if self.is_object_type(t)
                    )
            }
            _ => false,
        }
    }

    /// Pass 2: normalize and validate, filling `self.out`.
    fn normalize(
        &mut self,
        scope: &[String],
        defs: &[Definition],
    ) -> Result<Vec<Definition>, IdlError> {
        let mut out = Vec::with_capacity(defs.len());
        for def in defs {
            out.push(match def {
                Definition::Module(m) => {
                    let mut inner = scope.to_vec();
                    inner.push(m.name.clone());
                    Definition::Module(Module {
                        name: m.name.clone(),
                        definitions: self.normalize(&inner, &m.definitions)?,
                    })
                }
                Definition::Struct(s) => {
                    let fields = self.norm_fields(scope, &s.fields)?;
                    let normalized = StructDef {
                        name: s.name.clone(),
                        fields,
                        line: s.line,
                        col: s.col,
                    };
                    self.out
                        .structs
                        .insert(abs_name(scope, &s.name), normalized.clone());
                    Definition::Struct(normalized)
                }
                Definition::Exception(e) => {
                    let fields = self.norm_fields(scope, &e.fields)?;
                    let normalized = ExceptionDef {
                        name: e.name.clone(),
                        fields,
                        line: e.line,
                        col: e.col,
                    };
                    self.out
                        .exceptions
                        .insert(abs_name(scope, &e.name), normalized.clone());
                    Definition::Exception(normalized)
                }
                Definition::Enum(e) => {
                    let mut seen = HashSet::new();
                    for v in &e.variants {
                        if !seen.insert(v) {
                            return Err(err_at(
                                e.line,
                                e.col,
                                format!("duplicate enum variant {v:?}"),
                            ));
                        }
                    }
                    self.out.enums.insert(abs_name(scope, &e.name), e.clone());
                    Definition::Enum(e.clone())
                }
                Definition::Typedef(t) => {
                    let ty = self.norm_type(scope, &t.ty, false, (t.line, t.col))?;
                    let abs = abs_name(scope, &t.name);
                    self.typedef_pos.insert(abs.clone(), (t.line, t.col));
                    self.out.typedefs.insert(abs, ty.clone());
                    Definition::Typedef(Typedef {
                        name: t.name.clone(),
                        ty,
                        line: t.line,
                        col: t.col,
                    })
                }
                Definition::Const(c) => {
                    let ty = self.norm_type(scope, &c.ty, true, (c.line, c.col))?;
                    let ok = matches!(
                        (&ty, &c.value),
                        (
                            Type::Short
                                | Type::UShort
                                | Type::Long
                                | Type::ULong
                                | Type::LongLong
                                | Type::ULongLong
                                | Type::Octet,
                            ConstValue::Int(_)
                        ) | (Type::Str, ConstValue::Str(_))
                            | (Type::Bool, ConstValue::Bool(_))
                    );
                    if !ok {
                        return Err(err_at(
                            c.line,
                            c.col,
                            format!("constant {:?} has a value of the wrong type", c.name),
                        ));
                    }
                    Definition::Const(ConstDef {
                        name: c.name.clone(),
                        ty,
                        value: c.value.clone(),
                        line: c.line,
                        col: c.col,
                    })
                }
                Definition::Interface(i) => Definition::Interface(self.norm_interface(scope, i)?),
            });
        }
        Ok(out)
    }

    fn norm_fields(&self, scope: &[String], fields: &[Field]) -> Result<Vec<Field>, IdlError> {
        let mut seen = HashSet::new();
        fields
            .iter()
            .map(|f| {
                if !seen.insert(&f.name) {
                    return Err(err_at(
                        f.line,
                        f.col,
                        format!("duplicate field {:?}", f.name),
                    ));
                }
                Ok(Field {
                    ty: self.norm_type(scope, &f.ty, true, (f.line, f.col))?,
                    name: f.name.clone(),
                    line: f.line,
                    col: f.col,
                })
            })
            .collect()
    }

    fn norm_interface(&mut self, scope: &[String], i: &Interface) -> Result<Interface, IdlError> {
        let abs = abs_name(scope, &i.name);
        let mut parents = Vec::new();
        for p in &i.parents {
            let (p_abs, kind) = self.resolve(scope, p)?;
            if kind != Kind::Interface {
                return Err(err_at(
                    p.line,
                    p.col,
                    format!("parent {p_abs:?} is not an interface"),
                ));
            }
            if p_abs == abs {
                return Err(err_at(
                    p.line,
                    p.col,
                    format!("interface {abs:?} inherits from itself"),
                ));
            }
            parents.push(ScopedName {
                segments: p_abs.split("::").map(str::to_owned).collect(),
                line: p.line,
                col: p.col,
            });
        }

        let mut ops = Vec::new();
        for op in &i.ops {
            if let Some((method, ..)) = STUB_METHODS.iter().find(|(m, ..)| *m == op.name) {
                return Err(err_at(
                    op.line,
                    op.col,
                    format!(
                        "operation {:?} in {abs:?} collides with the client stub's own method \
                         `{method}`; rename it",
                        op.name
                    ),
                ));
            }
            let ret = self.norm_type(scope, &op.ret, false, (op.line, op.col))?;
            let mut params = Vec::new();
            let mut seen = HashSet::new();
            for p in &op.params {
                if !seen.insert(&p.name) {
                    return Err(err_at(
                        op.line,
                        op.col,
                        format!("duplicate parameter {:?}", p.name),
                    ));
                }
                let ty = self.norm_type(scope, &p.ty, false, (op.line, op.col))?;
                let is_obj = self.is_object_type(&ty) || matches!(ty, Type::Object);
                match p.mode {
                    ParamMode::Copy if !is_obj => {
                        return Err(err_at(
                            op.line,
                            op.col,
                            format!(
                                "`copy` mode requires an object type (parameter {:?})",
                                p.name
                            ),
                        ))
                    }
                    ParamMode::Out | ParamMode::InOut if is_obj => {
                        return Err(err_at(
                            op.line,
                            op.col,
                            format!(
                                "object parameters cannot be out/inout (parameter {:?})",
                                p.name
                            ),
                        ))
                    }
                    _ => {}
                }
                params.push(Param {
                    mode: p.mode,
                    ty,
                    name: p.name.clone(),
                });
            }
            let mut raises = Vec::new();
            for r in &op.raises {
                let (r_abs, kind) = self.resolve(scope, r)?;
                if kind != Kind::Exception {
                    return Err(err_at(
                        r.line,
                        r.col,
                        format!("{r_abs:?} in raises is not an exception"),
                    ));
                }
                raises.push(ScopedName {
                    segments: r_abs.split("::").map(str::to_owned).collect(),
                    line: r.line,
                    col: r.col,
                });
            }
            ops.push(Operation {
                name: op.name.clone(),
                ret,
                params,
                raises,
                line: op.line,
                col: op.col,
            });
        }

        Ok(Interface {
            name: i.name.clone(),
            parents,
            ops,
            subcontract: i.subcontract.clone(),
            line: i.line,
            col: i.col,
        })
    }

    /// Pass 3: flatten inheritance for every interface.
    fn flatten(&mut self) -> Result<(), IdlError> {
        // Index normalized interfaces by absolute name.
        let mut decls: BTreeMap<String, Interface> = BTreeMap::new();
        collect_interfaces(
            &self.out.spec.definitions.clone(),
            &mut Vec::new(),
            &mut decls,
        );

        for (abs, decl) in &decls {
            let mut ancestors = Vec::new();
            let mut visiting = HashSet::new();
            ancestry(abs, &decls, &mut ancestors, &mut visiting).map_err(|cycle| {
                err_at(
                    decl.line,
                    decl.col,
                    format!("inheritance cycle through {cycle:?}"),
                )
            })?;
            // `ancestry` puts `abs` itself last; drop it.
            ancestors.pop();

            let mut flat_ops = Vec::new();
            let mut op_names = HashSet::new();
            let mut op_hashes: HashMap<u32, String> = HashMap::new();
            let mut exceptions = Vec::new();
            for owner in ancestors.iter().chain(std::iter::once(abs)) {
                let owner_decl = &decls[owner];
                for op in &owner_decl.ops {
                    if !op_names.insert(op.name.clone()) {
                        return Err(err_at(
                            op.line,
                            op.col,
                            format!(
                                "operation {:?} declared more than once in the method set of {abs:?}",
                                op.name
                            ),
                        ));
                    }
                    let hash = op_hash32(&op.name);
                    if let Some(prev) = op_hashes.insert(hash, op.name.clone()) {
                        return Err(err_at(
                            op.line,
                            op.col,
                            format!(
                                "operation hash collision between {:?} and {:?} in {abs:?}; rename one",
                                prev, op.name
                            ),
                        ));
                    }
                    if owner == abs {
                        for r in &op.raises {
                            let r = r.joined();
                            if !exceptions.contains(&r) {
                                exceptions.push(r);
                            }
                        }
                    }
                    flat_ops.push(FlatOp {
                        owner: owner.clone(),
                        op: op.clone(),
                    });
                }
            }

            self.out.interfaces.insert(
                abs.clone(),
                InterfaceInfo {
                    abs: abs.clone(),
                    decl: decl.clone(),
                    parents: decl.parents.iter().map(ScopedName::joined).collect(),
                    ancestors,
                    flat_ops,
                    exceptions,
                },
            );
        }
        Ok(())
    }
}

/// Depth-first ancestor collection with cycle detection. Appends each
/// ancestor once (first visit wins), ending with `abs` itself.
fn ancestry(
    abs: &str,
    decls: &BTreeMap<String, Interface>,
    out: &mut Vec<String>,
    visiting: &mut HashSet<String>,
) -> Result<(), String> {
    if out.iter().any(|a| a == abs) {
        return Ok(());
    }
    if !visiting.insert(abs.to_owned()) {
        return Err(abs.to_owned());
    }
    if let Some(decl) = decls.get(abs) {
        for p in &decl.parents {
            ancestry(&p.joined(), decls, out, visiting)?;
        }
    }
    visiting.remove(abs);
    out.push(abs.to_owned());
    Ok(())
}

fn collect_interfaces(
    defs: &[Definition],
    scope: &mut Vec<String>,
    out: &mut BTreeMap<String, Interface>,
) {
    for def in defs {
        match def {
            Definition::Module(m) => {
                scope.push(m.name.clone());
                collect_interfaces(&m.definitions, scope, out);
                scope.pop();
            }
            Definition::Interface(i) => {
                out.insert(abs_name(scope, &i.name), i.clone());
            }
            _ => {}
        }
    }
}

fn abs_name(scope: &[String], name: &str) -> String {
    if scope.is_empty() {
        name.to_owned()
    } else {
        format!("{}::{}", scope.join("::"), name)
    }
}

/// The same FNV-1a hash the runtime uses for operation numbers.
pub(crate) fn op_hash32(name: &str) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for b in name.as_bytes() {
        hash ^= *b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Runs semantic analysis over a parsed spec.
pub fn check(spec: &Spec) -> Result<CheckedSpec, IdlError> {
    let mut checker = Checker {
        kinds: HashMap::new(),
        typedef_pos: HashMap::new(),
        out: CheckedSpec::default(),
    };
    checker.collect(&[], &spec.definitions)?;
    let definitions = checker.normalize(&[], &spec.definitions)?;
    checker.out.spec = Spec { definitions };

    // Resolve typedef chains (and reject cycles).
    let raw: BTreeMap<String, Type> = checker.out.typedefs.clone();
    for (name, _) in raw.iter() {
        let mut seen = HashSet::new();
        let mut cur = name.clone();
        loop {
            if !seen.insert(cur.clone()) {
                let (line, col) = checker.typedef_pos.get(name).copied().unwrap_or((0, 0));
                return Err(err_at(line, col, format!("typedef cycle through {name:?}")));
            }
            match raw.get(&cur) {
                Some(Type::Named(n)) if raw.contains_key(&n.joined()) => cur = n.joined(),
                Some(t) => {
                    checker.out.typedefs.insert(name.clone(), t.clone());
                    break;
                }
                None => break,
            }
        }
    }

    // A struct may hold itself through a sequence, never by value: that
    // value would have no finite size.
    let out = &checker.out;
    for (abs, s) in &out.structs {
        if nests(out, abs, abs, &mut HashSet::new()) {
            return Err(err_at(
                s.line,
                s.col,
                format!("struct {abs:?} contains itself by value"),
            ));
        }
    }

    checker.flatten()?;
    Ok(checker.out)
}

/// True when struct `outer` holds struct `target` by value, directly or
/// through other structs (typedefs resolved).
fn nests(out: &CheckedSpec, outer: &str, target: &str, seen: &mut HashSet<String>) -> bool {
    out.structs[outer].fields.iter().any(|f| {
        let Type::Named(n) = layout::resolve(out, &f.ty) else {
            return false;
        };
        let inner = n.joined();
        out.structs.contains_key(&inner)
            && (inner == target || (seen.insert(inner.clone()) && nests(out, &inner, target, seen)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn checked(src: &str) -> Result<CheckedSpec, IdlError> {
        check(&parse(&lex(src).unwrap()).unwrap())
    }

    #[test]
    fn flattening_includes_inherited_ops() {
        let c = checked(
            r#"
            interface base { void ping(); };
            interface mid : base { void pong(); };
            interface leaf : mid { void peng(); };
            "#,
        )
        .unwrap();
        let leaf = &c.interfaces["leaf"];
        let names: Vec<&str> = leaf.flat_ops.iter().map(|o| o.op.name.as_str()).collect();
        assert_eq!(names, vec!["ping", "pong", "peng"]);
        assert_eq!(leaf.ancestors, vec!["base".to_owned(), "mid".to_owned()]);
    }

    #[test]
    fn diamond_inheritance_dedups() {
        let c = checked(
            r#"
            interface a { void fa(); };
            interface b : a { void fb(); };
            interface cc : a { void fc(); };
            interface d : b, cc { void fd(); };
            "#,
        )
        .unwrap();
        let d = &c.interfaces["d"];
        let names: Vec<&str> = d.flat_ops.iter().map(|o| o.op.name.as_str()).collect();
        assert_eq!(names, vec!["fa", "fb", "fc", "fd"]);
    }

    #[test]
    fn inheritance_cycle_rejected() {
        let err = checked(
            r#"
            interface a : b { };
            interface b : a { };
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("cycle"));
    }

    #[test]
    fn duplicate_op_across_parents_rejected() {
        let err = checked(
            r#"
            interface a { void f(); };
            interface b { void f(); };
            interface c : a, b { };
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("more than once"));
    }

    #[test]
    fn scoped_resolution_walks_outward() {
        let c = checked(
            r#"
            struct point { double x; };
            module m {
                interface uses_outer { point get(); };
                struct point { long y; };
                interface uses_inner { point get(); };
            };
            "#,
        )
        .unwrap();
        let outer = &c.interfaces["m::uses_outer"];
        // Declared before m::point exists in scope? Both resolve innermost
        // first: m::point shadows the global point for both interfaces.
        let Type::Named(n) = &outer.flat_ops[0].op.ret else {
            panic!()
        };
        assert_eq!(n.joined(), "m::point");
        let inner = &c.interfaces["m::uses_inner"];
        let Type::Named(n) = &inner.flat_ops[0].op.ret else {
            panic!()
        };
        assert_eq!(n.joined(), "m::point");
    }

    #[test]
    fn copy_mode_requires_object_type() {
        let err = checked("interface x { void f(copy long v); };").unwrap_err();
        assert!(err.message.contains("copy"));
        // And it works for interfaces and `object`.
        checked(
            r#"
            interface y { };
            interface x { void f(copy y v); void g(copy object o); };
            "#,
        )
        .unwrap();
    }

    #[test]
    fn object_out_params_rejected() {
        let err = checked(
            r#"
            interface y { };
            interface x { void f(out y v); };
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("out/inout"));
    }

    #[test]
    fn objects_inside_data_rejected() {
        let err = checked(
            r#"
            interface y { };
            struct s { y field; };
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("inside data"));
        let err = checked("interface x { void f(in sequence<object> os); };").unwrap_err();
        assert!(err.message.contains("inside data"));
    }

    #[test]
    fn raises_must_name_exceptions() {
        let err = checked(
            r#"
            struct s { long x; };
            interface x { void f() raises (s); };
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("not an exception"));
    }

    #[test]
    fn typedef_chains_resolve() {
        let c = checked(
            r#"
            typedef sequence<long> longs;
            typedef longs more_longs;
            "#,
        )
        .unwrap();
        assert_eq!(
            c.typedefs["more_longs"],
            Type::Sequence(Box::new(Type::Long))
        );
    }

    #[test]
    fn typedef_cycle_rejected() {
        let err = checked(
            r#"
            typedef b a;
            typedef a b;
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("cycle"));
    }

    #[test]
    fn struct_holding_itself_by_value_rejected() {
        let err = checked(
            r#"
            struct a { long n; b x; };
            typedef a a_alias;
            struct b { a_alias y; };
            "#,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"2:13: struct "a" contains itself by value"#
        );
        // Through a sequence it has a size, and is allowed.
        checked("struct a { sequence<a> xs; };").unwrap();
    }

    #[test]
    fn duplicate_constants_rejected() {
        let err = checked(
            r#"
            const long x = 1;
            const long x = 2;
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn constant_used_as_type_rejected() {
        let err = checked(
            r#"
            const long limit = 1;
            interface x { limit f(); };
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("constant"));
    }

    #[test]
    fn unresolved_names_error() {
        let err = checked("interface x : ghost { };").unwrap_err();
        assert!(err.message.contains("unresolved"));
    }

    #[test]
    fn diagnostics_carry_exact_positions() {
        // Pin the full rendered form — line AND column — so span regressions
        // (reverting to the old `line:0` placeholders) fail loudly.
        let err = checked(r#"struct p { long x; long x; };"#).unwrap_err();
        assert_eq!(err.to_string(), r#"1:20: duplicate field "x""#);

        let err = checked(r#"interface x : ghost { };"#).unwrap_err();
        assert_eq!(err.to_string(), r#"1:15: unresolved name "ghost""#);
    }

    #[test]
    fn subcontract_annotation_flows_through() {
        let c = checked("[subcontract = caching] interface f { };").unwrap();
        assert_eq!(c.interfaces["f"].decl.subcontract, "caching");
    }
}
