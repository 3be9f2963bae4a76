//! Rust code generation: lower, then emit.
//!
//! [`generate`] first lowers the checked spec to its wire layout
//! ([`crate::layout`]), which decides once what every struct, exception and
//! operation looks like on the wire. It then walks the IDL module tree and
//! emits, for each interface:
//!
//! * a `TypeInfo` static encoding the inheritance graph and the default
//!   subcontract chosen by the `[subcontract = ...]` annotation;
//! * an operations module with the 32-bit wire numbers;
//! * a client struct (the "method table" of §4) whose methods run
//!   `start_call` → marshal → `invoke` → unmarshal, fully independent of
//!   the object's subcontract;
//! * a servant trait (inheriting its parents' servant traits) and a
//!   skeleton implementing `subcontract::Dispatch` over the *flattened*
//!   method set, which passes the kernel's `unreferenced` notice on to the
//!   servant;
//! * an error enum per interface covering its declared exceptions plus a
//!   `System` variant.
//!
//! Structs, enums, and exceptions get `idl_encode`/`idl_decode` methods, and
//! flat structs a `footprint`, a `validate` and a borrowing `*View`, all
//! from the struct's record. Client and skeleton share one record encoder
//! (client arguments, skeleton replies) and one record decoder, with a flat
//! arm that reads in place and a copying arm (skeleton arguments, client
//! replies). Object-typed parameters and results are marshalled through
//! their own subcontracts (`in` moves, `copy` copies — §5.1.5).

use std::fmt::Write as _;

use crate::ast::*;
use crate::check::{op_hash32, CheckedSpec, InterfaceInfo};
use crate::layout::{self, Layout, Member, Prim, Record, Shape};

/// The servant trait's own method, which the skeleton calls when the
/// kernel reports the object unreferenced (§7). The checker rejects an
/// operation of this name too.
pub(crate) const SERVANT_METHOD: &str = "unreferenced";

/// The client stub's own methods, emitted ahead of its operations: name,
/// doc line, signature after the name, and body lines, where `$T` stands
/// for the stub type and `$I` for its `TypeInfo`. The checker rejects an
/// operation that takes one of these names.
pub(crate) const STUB_METHODS: [(&str, &str, &str, &str); 4] = [
    (
        "from_obj",
        "Wraps an object, verifying its run-time type.",
        "(obj: ::subcontract::SpringObj) -> ::subcontract::Result<Self>",
        "obj.narrow(&$I)?;\nOk($T { obj })",
    ),
    (
        "obj",
        "The wrapped object.",
        "(&self) -> &::subcontract::SpringObj",
        "&self.obj",
    ),
    (
        "into_obj",
        "Unwraps the object.",
        "(self) -> ::subcontract::SpringObj",
        "self.obj",
    ),
    (
        "copy",
        "Shallow-copies the object (§7).",
        "(&self) -> ::subcontract::Result<Self>",
        "Ok($T { obj: self.obj.copy()? })",
    ),
];

/// Converts `snake_or_lower` to `UpperCamel`.
fn camel(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut upper = true;
    for c in s.chars() {
        if c == '_' {
            upper = true;
        } else if upper {
            out.extend(c.to_uppercase());
            upper = false;
        } else {
            out.push(c);
        }
    }
    out
}

/// Converts to `UPPER_SNAKE`.
fn upper_snake(s: &str) -> String {
    s.to_uppercase()
}

/// Escapes Rust keywords in value position (parameters, fields).
fn sanitize(s: &str) -> String {
    const KEYWORDS: &[&str] = &[
        "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false",
        "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
        "ref", "return", "self", "static", "struct", "super", "trait", "true", "type", "unsafe",
        "use", "where", "while", "async", "await", "box", "final", "macro", "override", "priv",
        "try", "typeof", "unsized", "virtual", "yield",
    ];
    if KEYWORDS.contains(&s) {
        format!("{s}_")
    } else {
        s.to_owned()
    }
}

/// A buffer expression in argument position: `(&mut b)` loses the
/// reborrow parens, which are redundant there.
fn arg(buf: &str) -> &str {
    buf.strip_prefix('(')
        .and_then(|b| b.strip_suffix(')'))
        .unwrap_or(buf)
}

/// The buffer itself, as a method receiver.
fn receiver(buf: &str) -> &str {
    arg(buf).trim_start_matches("&mut ")
}

/// `()`, `a`, or `(a, b, ...)`: the Rust spelling of a reply's values.
fn tuple(items: &[String]) -> String {
    match items {
        [one] => one.clone(),
        _ => format!("({})", items.join(", ")),
    }
}

/// An operation record's members; none where nothing travels.
fn members(rec: &Option<Record>) -> &[Member] {
    rec.as_ref().map_or(&[], |r| &r.members)
}

/// `__r0, __r1, ...`: the variables holding a reply's values.
fn reply_vars(reply: &Option<Record>) -> Vec<String> {
    (0..members(reply).len())
        .map(|i| format!("__r{i}"))
        .collect()
}

/// Indentation-aware output writer.
struct Out {
    buf: String,
    indent: usize,
}

impl Out {
    fn line(&mut self, s: impl AsRef<str>) {
        let s = s.as_ref();
        if s.is_empty() {
            self.buf.push('\n');
        } else {
            for _ in 0..self.indent {
                self.buf.push_str("    ");
            }
            self.buf.push_str(s);
            self.buf.push('\n');
        }
    }

    fn open(&mut self, s: impl AsRef<str>) {
        self.line(s);
        self.indent += 1;
    }

    fn close(&mut self, s: impl AsRef<str>) {
        self.indent -= 1;
        self.line(s);
    }
}

struct Gen<'a> {
    checked: &'a CheckedSpec,
    layout: &'a Layout,
    out: Out,
    /// The IDL module the emitted items belong to.
    scope: Vec<String>,
}

impl<'a> Gen<'a> {
    /// Absolute IDL name of `name` declared in the current module.
    fn abs(&self, name: &str) -> String {
        [&self.scope[..], &[name.to_owned()]].concat().join("::")
    }

    /// Rust path from the current module to the item for `abs`, whose local
    /// Rust name is produced by `name_of`.
    fn path_to(&self, abs: &str, name_of: impl Fn(&str) -> String) -> String {
        let mut segments: Vec<&str> = abs.split("::").collect();
        let leaf = segments.pop().expect("non-empty path");
        let mut path = if self.scope.is_empty() {
            "self::".to_owned()
        } else {
            "super::".repeat(self.scope.len())
        };
        for m in segments {
            let _ = write!(path, "{m}::");
        }
        path + &name_of(leaf)
    }

    fn type_info_path(&self, abs: &str) -> String {
        self.path_to(abs, |n| format!("{}_TYPE", upper_snake(n)))
    }

    fn error_path(&self, abs: &str) -> String {
        self.path_to(abs, |n| format!("{}Error", camel(n)))
    }

    fn servant_path(&self, abs: &str) -> String {
        self.path_to(abs, |n| format!("{}Servant", camel(n)))
    }

    fn ops_mod_path(&self, abs: &str) -> String {
        self.path_to(abs, |n| format!("{n}_ops"))
    }

    fn view_path(&self, abs: &str) -> String {
        self.path_to(abs, |n| format!("{}View", camel(n)))
    }

    /// The Rust type for values of `ty` (client-facing and servant-facing).
    fn rust_type(&self, ty: &Type) -> String {
        match ty {
            Type::Void => "()".into(),
            Type::Str => "String".into(),
            Type::Object => "::subcontract::SpringObj".into(),
            Type::Sequence(inner) => format!("Vec<{}>", self.rust_type(inner)),
            Type::Named(n) => self.path_to(&n.joined(), camel),
            prim => layout::prim(prim).expect("a primitive").rust.into(),
        }
    }

    /// Emits statements encoding `value`, a data value (not an object) of
    /// `shape`, into the buffer expression `buf`.
    fn encode(&mut self, shape: &Shape, value: &str, buf: &str) {
        match shape {
            Shape::Prim(p) => self.out.line(format!("{buf}.put_{}({value});", p.rust)),
            Shape::Str => self.out.line(format!("{buf}.put_string(&{value});")),
            Shape::Bytes => self.out.line(format!("{buf}.put_bytes(&{value});")),
            Shape::Seq(elem) => {
                self.out.line(format!("{buf}.put_seq_len({value}.len());"));
                self.out.open(format!("for __it in &{value} {{"));
                self.encode(elem, "(*__it)", buf);
                self.out.close("}");
            }
            Shape::Enum { .. } | Shape::Struct(_) => {
                self.out
                    .line(format!("({value}).idl_encode({});", arg(buf)));
            }
            Shape::Object(_) => unreachable!("objects are marshalled by their subcontract"),
        }
    }

    /// Expression decoding one data value of `shape` from `buf`.
    fn decode(&self, shape: &Shape, buf: &str) -> String {
        match shape {
            Shape::Prim(p) => format!("{buf}.get_{}()?", p.rust),
            Shape::Str => format!("{buf}.get_string()?"),
            Shape::Bytes => format!("{buf}.get_bytes()?"),
            Shape::Seq(elem) => format!(
                "{{ let __n = {buf}.get_seq_len({})?; \
                 let mut __v = Vec::with_capacity(__n); \
                 for _ in 0..__n {{ __v.push({}); }} __v }}",
                self.layout.min_size(elem),
                self.decode(elem, buf)
            ),
            Shape::Enum { name, .. } | Shape::Struct(name) => {
                format!("{}::idl_decode({})?", self.path_to(name, camel), arg(buf))
            }
            Shape::Object(_) => unreachable!("objects are unmarshalled by their subcontract"),
        }
    }

    /// Emits the encoding of a record's members, held in `values`, into
    /// `buf` — 8-aligned first when the record is flat, so its offsets hold
    /// absolutely. Used for client arguments and skeleton replies.
    fn encode_record(&mut self, rec: &Option<Record>, buf: &str, values: &[String]) {
        let Some(rec) = rec else { return };
        if rec.footprint.is_some() {
            self.out.line(format!("{}.align8();", receiver(buf)));
        }
        for (m, value) in rec.members.iter().zip(values) {
            let Shape::Object(iface) = &m.shape else {
                self.encode(&m.shape, value, buf);
                continue;
            };
            let unwrap = match (iface, m.copy) {
                (None, _) => "",
                (Some(_), true) => ".obj()",
                (Some(_), false) => ".into_obj()",
            };
            let marshal = if m.copy { "marshal_copy" } else { "marshal" };
            self.out
                .line(format!("{value}{unwrap}.{marshal}({})?;", arg(buf)));
        }
    }

    /// Emits a `let` binding per member of a record, named by `vars`, read
    /// from `buf`: in place from one validated slice when the record is
    /// flat — no payload copies — else by the copying decoder, with objects
    /// unmarshalled in `ctx`. Used for skeleton arguments and client
    /// replies.
    fn decode_record(&mut self, rec: &Option<Record>, buf: &str, ctx: &str, vars: &[String]) {
        let Some(rec) = rec else { return };
        if rec.footprint.is_some() {
            self.out
                .line(format!("let __flat = {}.flat_remaining()?;", receiver(buf)));
            self.flat_checks("__flat", rec);
        }
        for (m, var) in rec.members.iter().zip(vars) {
            let expr = if rec.footprint.is_some() {
                self.flat_read(m, "__flat")
            } else if let Shape::Object(iface) = &m.shape {
                let expected = match iface {
                    None => "&::subcontract::OBJECT_TYPE".to_owned(),
                    Some(iface) => format!("&{}", self.type_info_path(iface)),
                };
                let obj = format!(
                    "::subcontract::unmarshal_object({ctx}, {expected}, {})?",
                    arg(buf)
                );
                if iface.is_none() {
                    obj
                } else {
                    // An interface: narrow to its client stub.
                    self.out.line(format!("let {var} = {obj};"));
                    format!("{}::from_obj({var})?", self.rust_type(&m.ty))
                }
            } else {
                self.decode(&m.shape, buf)
            };
            self.out.line(format!("let {var} = {expr};"));
        }
    }

    /// Emits the length check and the per-member tag/bool/nested-struct
    /// checks of a flat record in `b`. Each emitted line ends in `?`, so
    /// the surrounding function needs a `From<WireError>` error.
    fn flat_checks(&mut self, b: &str, rec: &Record) {
        let footprint = rec.footprint.expect("a flat record");
        self.out
            .line(format!("::spring_buf::flat::check_len({b}, {footprint})?;"));
        for m in &rec.members {
            let off = m.offset;
            let check = match &m.shape {
                Shape::Prim(Prim { rust: "bool", .. }) => {
                    format!("::spring_buf::flat::check_bool({b}, {off})?;")
                }
                Shape::Enum { variants, .. } => {
                    format!("::spring_buf::flat::check_tag({b}, {off}, {variants})?;")
                }
                Shape::Struct(name) => {
                    let path = self.path_to(name, camel);
                    format!("{path}::validate(&{b}[{off}..{}])?;", m.end)
                }
                _ => continue,
            };
            self.out.line(check);
        }
    }

    /// The borrowing view of a nested flat struct member of the frame `b`.
    fn flat_view(&self, m: &Member, name: &str, b: &str) -> String {
        let view = self.view_path(name);
        format!("{view}::assume_valid(&{b}[{}..{}])", m.offset, m.end)
    }

    /// Expression reading one member of a *validated* flat record in `b` as
    /// an owned value. Infallible: validate already checked every tag.
    fn flat_read(&self, m: &Member, b: &str) -> String {
        let off = m.offset;
        match &m.shape {
            Shape::Prim(p) => format!("::spring_buf::flat::get_{}({b}, {off})", p.rust),
            Shape::Enum { name, .. } => format!(
                "{}::from_tag(::spring_buf::flat::get_u32({b}, {off}))",
                self.path_to(name, camel)
            ),
            Shape::Struct(name) => format!("{}.to_owned()", self.flat_view(m, name, b)),
            _ => unreachable!("flat members are fixed-shape"),
        }
    }

    fn spec(&mut self, defs: &[Definition]) {
        for def in defs {
            match def {
                Definition::Module(m) => {
                    self.out.line("");
                    self.out.open(format!("pub mod {} {{", sanitize(&m.name)));
                    self.scope.push(m.name.clone());
                    self.spec(&m.definitions);
                    self.scope.pop();
                    self.out.close("}");
                }
                Definition::Interface(i) => self.interface(i),
                Definition::Struct(s) => self.struct_def(&s.name),
                Definition::Exception(e) => self.struct_def(&e.name),
                Definition::Enum(e) => self.enum_def(e),
                Definition::Typedef(t) => {
                    let rust = self.rust_type(&t.ty);
                    self.out
                        .line(format!("pub type {} = {};", camel(&t.name), rust));
                }
                Definition::Const(c) => self.const_def(c),
            }
        }
    }

    fn const_def(&mut self, c: &ConstDef) {
        let (ty, value) = match (&c.ty, &c.value) {
            (Type::Str, ConstValue::Str(s)) => ("&str".to_owned(), format!("{s:?}")),
            (Type::Bool, ConstValue::Bool(b)) => ("bool".to_owned(), b.to_string()),
            (t, ConstValue::Int(v)) => (self.rust_type(t), v.to_string()),
            _ => unreachable!("validated by the checker"),
        };
        self.out.line(format!(
            "pub const {}: {} = {};",
            upper_snake(&c.name),
            ty,
            value
        ));
    }

    /// Emits a struct or an exception from its record. Flat structs also
    /// get a footprint, a validate and a zero-copy borrowing view.
    fn struct_def(&mut self, name: &str) {
        let rec = &self.layout.records[&self.abs(name)];
        let rust_name = camel(name);
        self.out.line("");
        self.out.line("#[derive(Clone, Debug, PartialEq)]");
        self.out.open(format!("pub struct {rust_name} {{"));
        for m in &rec.members {
            let field_ty = self.rust_type(&m.ty);
            self.out
                .line(format!("pub {}: {},", sanitize(&m.name), field_ty));
        }
        self.out.close("}");
        self.out.line("");
        self.out.open(format!("impl {rust_name} {{"));
        self.out
            .open("pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {");
        // Every struct frame starts 8-aligned so the flat offsets computed
        // relative to the frame start equal the absolute buffer offsets.
        self.out.line("buf.align8();");
        for m in &rec.members {
            self.encode(&m.shape, &format!("self.{}", sanitize(&m.name)), "buf");
        }
        self.out.close("}");
        self.out.line("");
        self.out.open(
            "pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) \
             -> ::std::result::Result<Self, ::subcontract::SpringError> {",
        );
        self.out.line("buf.skip_align8()?;");
        self.out.open("Ok(Self {");
        for m in &rec.members {
            let expr = self.decode(&m.shape, "buf");
            self.out.line(format!("{}: {},", sanitize(&m.name), expr));
        }
        self.out.close("})");
        self.out.close("}");
        if let Some(footprint) = rec.footprint {
            self.out.line("");
            self.out
                .line("/// Exact flat-frame size from an 8-aligned frame start.");
            self.out.open("pub const fn footprint() -> usize {");
            self.out.line(format!("{footprint}"));
            self.out.close("}");
            self.out.line("");
            self.out
                .line("/// Bounds-and-tags check over one flat frame; views and");
            self.out
                .line("/// accessors are infallible afterwards (validate-then-cast).");
            self.out.open(
                "pub fn validate(__b: &[u8]) -> \
                 ::std::result::Result<(), ::spring_buf::WireError> {",
            );
            self.flat_checks("__b", rec);
            self.out.line("Ok(())");
            self.out.close("}");
        }
        self.out.close("}");

        if let Some(footprint) = rec.footprint {
            self.struct_view(&rust_name, rec, footprint);
        }
    }

    /// Emits the zero-copy borrowing view for a fixed-shape struct.
    fn struct_view(&mut self, rust_name: &str, rec: &Record, footprint: usize) {
        self.out.line("");
        self.out.line(format!(
            "/// Zero-copy view over a validated `{rust_name}` flat frame."
        ));
        self.out.line("#[derive(Clone, Copy, Debug)]");
        self.out.open(format!("pub struct {rust_name}View<'a> {{"));
        self.out.line("bytes: &'a [u8],");
        self.out.close("}");
        self.out.line("");
        self.out.open(format!("impl<'a> {rust_name}View<'a> {{"));
        self.out
            .line("/// Validates `bytes` and wraps them without copying.");
        self.out.open(
            "pub fn new(bytes: &'a [u8]) -> \
             ::std::result::Result<Self, ::spring_buf::WireError> {",
        );
        self.out.line(format!("{rust_name}::validate(bytes)?;"));
        self.out.line(format!("Ok({rust_name}View {{ bytes }})"));
        self.out.close("}");
        self.out.line("");
        self.out
            .line("/// Wraps bytes already covered by an enclosing `validate`.");
        self.out.line("#[doc(hidden)]");
        self.out
            .open("pub fn assume_valid(bytes: &'a [u8]) -> Self {");
        self.out.line(format!("{rust_name}View {{ bytes }}"));
        self.out.close("}");
        self.out.line("");
        self.out.line("/// The underlying frame bytes.");
        self.out.open("pub fn as_bytes(&self) -> &'a [u8] {");
        self.out.line("self.bytes");
        self.out.close("}");
        for m in &rec.members {
            self.out.line("");
            self.out.line(format!(
                "/// Reads `{}` in place (offset {}).",
                m.name, m.offset
            ));
            let (ret, expr) = match &m.shape {
                Shape::Struct(name) => (
                    format!("{}<'a>", self.view_path(name)),
                    self.flat_view(m, name, "self.bytes"),
                ),
                _ => (self.rust_type(&m.ty), self.flat_read(m, "self.bytes")),
            };
            self.out
                .open(format!("pub fn {}(&self) -> {ret} {{", sanitize(&m.name)));
            self.out.line(expr);
            self.out.close("}");
        }
        self.out.line("");
        self.out
            .line("/// Copies the view into an owned value (scalar loads only).");
        self.out
            .open(format!("pub fn to_owned(self) -> {rust_name} {{"));
        self.out.open(format!("{rust_name} {{"));
        for m in &rec.members {
            let fname = sanitize(&m.name);
            let to_owned = if matches!(m.shape, Shape::Struct(_)) {
                ".to_owned()"
            } else {
                ""
            };
            self.out.line(format!("{fname}: self.{fname}(){to_owned},"));
        }
        self.out.close("}");
        self.out.close("}");
        self.out.close("}");
        self.out.line("");
        self.out.open(format!(
            "impl<'a> ::subcontract::FlatMessage<'a> for {rust_name}View<'a> {{"
        ));
        self.out
            .line(format!("const FOOTPRINT: usize = {footprint};"));
        self.out.line("");
        self.out.open(
            "fn validate(__b: &[u8]) -> \
             ::std::result::Result<(), ::spring_buf::WireError> {",
        );
        self.out.line(format!("{rust_name}::validate(__b)"));
        self.out.close("}");
        self.out.line("");
        self.out.open(
            "fn view(__b: &'a [u8]) -> \
             ::std::result::Result<Self, ::spring_buf::WireError> {",
        );
        self.out.line("Self::new(__b)");
        self.out.close("}");
        self.out.close("}");
    }

    fn enum_def(&mut self, e: &EnumDef) {
        let rust_name = camel(&e.name);
        self.out.line("");
        self.out
            .line("#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]");
        self.out.open(format!("pub enum {rust_name} {{"));
        for v in &e.variants {
            self.out.line(format!("{},", camel(v)));
        }
        self.out.close("}");
        self.out.line("");
        self.out.open(format!("impl {rust_name} {{"));
        self.out
            .open("pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {");
        self.out.open("buf.put_u32(match self {");
        for (i, v) in e.variants.iter().enumerate() {
            self.out.line(format!("{rust_name}::{} => {i},", camel(v)));
        }
        self.out.close("});");
        self.out.close("}");
        self.out.line("");
        self.out.open(
            "pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) \
             -> ::std::result::Result<Self, ::subcontract::SpringError> {",
        );
        self.out.open("Ok(match buf.get_u32()? {");
        for (i, v) in e.variants.iter().enumerate() {
            self.out.line(format!("{i} => {rust_name}::{},", camel(v)));
        }
        self.out.line(
            "__tag => return Err(::subcontract::SpringError::Buf(\
             ::spring_buf::BufError::InvalidEnumTag(__tag))),",
        );
        self.out.close("})");
        self.out.close("}");
        self.out.line("");
        self.out
            .line("/// Flat-frame check: a single in-range `u32` tag.");
        self.out.open(
            "pub fn validate(__b: &[u8]) -> \
             ::std::result::Result<(), ::spring_buf::WireError> {",
        );
        self.out.line("::spring_buf::flat::check_len(__b, 4)?;");
        self.out.line(format!(
            "::spring_buf::flat::check_tag(__b, 0, {})?;",
            e.variants.len()
        ));
        self.out.line("Ok(())");
        self.out.close("}");
        self.out.line("");
        self.out
            .line("/// Decodes a tag already range-checked by `validate`.");
        self.out.line("#[doc(hidden)]");
        self.out.open("pub fn from_tag(__tag: u32) -> Self {");
        self.out.open("match __tag {");
        for (i, v) in e.variants.iter().enumerate() {
            self.out.line(format!("{i} => {rust_name}::{},", camel(v)));
        }
        self.out
            .line("__t => unreachable!(\"enum tag {} after validate\", __t),");
        self.out.close("}");
        self.out.close("}");
        self.out.close("}");
    }

    fn interface(&mut self, i: &Interface) {
        let checked = self.checked;
        let info = &checked.interfaces[&self.abs(&i.name)];
        self.type_info_static(info);
        self.ops_module(info);
        self.error_enum(info);
        self.client_struct(info);
        self.servant_trait(info);
        self.skeleton(info);
    }

    fn type_info_static(&mut self, info: &InterfaceInfo) {
        let name = upper_snake(&info.decl.name);
        self.out.line("");
        self.out
            .line(format!("/// Run-time type information for `{}`.", info.abs));
        self.out.open(format!(
            "pub static {name}_TYPE: ::subcontract::TypeInfo = ::subcontract::TypeInfo {{"
        ));
        self.out.line(format!("name: {:?},", info.abs));
        if info.parents.is_empty() {
            self.out.line("parents: &[&::subcontract::OBJECT_TYPE],");
        } else {
            let list: Vec<String> = info
                .parents
                .iter()
                .map(|p| format!("&{}", self.type_info_path(p)))
                .collect();
            self.out.line(format!("parents: &[{}],", list.join(", ")));
        }
        self.out.line(format!(
            "default_subcontract: ::subcontract::ScId::from_name({:?}),",
            info.decl.subcontract
        ));
        self.out.close("};");
    }

    fn ops_module(&mut self, info: &InterfaceInfo) {
        self.out.line("");
        self.out
            .line(format!("/// Operation numbers for `{}`.", info.abs));
        self.out.open(format!("pub mod {}_ops {{", info.decl.name));
        for f in &info.flat_ops {
            self.out.line(format!(
                "pub const {}: u32 = {:#010x};",
                upper_snake(&f.op.name),
                op_hash32(&f.op.name)
            ));
        }
        self.out.close("}");
    }

    fn error_enum(&mut self, info: &InterfaceInfo) {
        let name = format!("{}Error", camel(&info.decl.name));
        self.out.line("");
        self.out.line(format!(
            "/// Errors raised by `{}`'s own operations.",
            info.abs
        ));
        self.out.line("#[derive(Debug)]");
        self.out.open(format!("pub enum {name} {{"));
        for e in &info.exceptions {
            let variant = camel(e.rsplit("::").next().unwrap());
            self.out
                .line(format!("{variant}({}),", self.path_to(e, camel)));
        }
        self.out.line("System(::subcontract::SpringError),");
        self.out.close("}");
        self.out.line("");
        self.out.open(format!(
            "impl From<::subcontract::SpringError> for {name} {{"
        ));
        self.out
            .open("fn from(e: ::subcontract::SpringError) -> Self {");
        self.out.line(format!("{name}::System(e)"));
        self.out.close("}");
        self.out.close("}");
        self.out.line("");
        self.out
            .open(format!("impl From<::spring_buf::BufError> for {name} {{"));
        self.out
            .open("fn from(e: ::spring_buf::BufError) -> Self {");
        self.out.line(format!(
            "{name}::System(::subcontract::SpringError::Buf(e))"
        ));
        self.out.close("}");
        self.out.close("}");
        self.out.line("");
        self.out
            .open(format!("impl From<::spring_buf::WireError> for {name} {{"));
        self.out
            .open("fn from(e: ::spring_buf::WireError) -> Self {");
        self.out.line(format!(
            "{name}::System(::subcontract::SpringError::Wire(e))"
        ));
        self.out.close("}");
        self.out.close("}");
        self.out.line("");
        self.out
            .open(format!("impl ::std::fmt::Display for {name} {{"));
        self.out
            .open("fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {");
        self.out.open("match self {");
        for e in &info.exceptions {
            let variant = camel(e.rsplit("::").next().unwrap());
            self.out.line(format!(
                "{name}::{variant}(__e) => write!(f, \"{e}: {{:?}}\", __e),"
            ));
        }
        self.out
            .line(format!("{name}::System(__e) => write!(f, \"{{}}\", __e),"));
        self.out.close("}");
        self.out.close("}");
        self.out.close("}");
        self.out.line("");
        self.out
            .line(format!("impl ::std::error::Error for {name} {{}}"));
    }

    /// The Rust type of what an operation yields: `()`, one value, or a
    /// tuple of its reply record's members.
    fn returns_type(&self, reply: &Option<Record>) -> String {
        let types: Vec<String> = members(reply)
            .iter()
            .map(|m| self.rust_type(&m.ty))
            .collect();
        tuple(&types)
    }

    fn client_struct(&mut self, info: &InterfaceInfo) {
        let name = camel(&info.decl.name);
        let tinfo = format!("{}_TYPE", upper_snake(&info.decl.name));
        self.out.line("");
        self.out.line(format!(
            "/// Client stub for `{}` (subcontract-independent).",
            info.abs
        ));
        self.out.line("#[derive(Debug)]");
        self.out.open(format!("pub struct {name} {{"));
        self.out.line("obj: ::subcontract::SpringObj,");
        self.out.close("}");
        self.out.line("");
        self.out.open(format!("impl {name} {{"));
        for (i, (method, doc, sig, body)) in STUB_METHODS.iter().enumerate() {
            if i > 0 {
                self.out.line("");
            }
            self.out.line(format!("/// {doc}"));
            self.out.open(format!("pub fn {method}{sig} {{"));
            for l in body.lines() {
                self.out.line(l.replace("$T", &name).replace("$I", &tinfo));
            }
            self.out.close("}");
        }
        for f in &info.flat_ops {
            self.client_method(info, &f.owner, &f.op);
        }
        self.out.close("}");
    }

    fn client_method(&mut self, info: &InterfaceInfo, owner: &str, op: &Operation) {
        let err_ty = self.error_path(owner);
        let ops_mod = self.ops_mod_path(&info.abs);
        let layout = self.layout.op(owner, &op.name);
        let ret_ty = self.returns_type(&layout.reply);

        // Scalars, enums and moved objects pass by value, the rest by
        // reference.
        let mut sig_params = String::new();
        let mut values = Vec::new();
        for m in members(&layout.args) {
            let pname = sanitize(&m.name);
            let by_value = matches!(
                m.shape,
                Shape::Prim(_) | Shape::Enum { .. } | Shape::Object(_)
            );
            let ty = match layout::resolve(self.checked, &m.ty) {
                _ if m.copy => format!("&{}", self.rust_type(&m.ty)),
                _ if by_value => self.rust_type(&m.ty),
                Type::Str => "&str".to_owned(),
                Type::Sequence(elem) => format!("&[{}]", self.rust_type(elem)),
                ty => format!("&{}", self.rust_type(ty)),
            };
            let _ = write!(sig_params, ", {pname}: {ty}");
            values.push(if by_value {
                pname
            } else {
                format!("(*{pname})")
            });
        }

        self.out.line("");
        self.out.line(format!(
            "/// Invokes `{}::{}` on the remote object.",
            owner, op.name
        ));
        self.out.open(format!(
            "pub fn {}(&self{sig_params}) -> ::std::result::Result<{ret_ty}, {err_ty}> {{",
            sanitize(&op.name),
        ));
        self.out.line(format!(
            "let mut __call = self.obj.start_call({ops_mod}::{})?;",
            upper_snake(&op.name)
        ));
        self.encode_record(&layout.args, "(&mut __call)", &values);
        self.out.line("let mut __reply = self.obj.invoke(__call)?;");
        self.out
            .open("match ::subcontract::decode_reply_status(&mut __reply)? {");
        self.out.open("::subcontract::ReplyStatus::Ok => {");
        let rets = reply_vars(&layout.reply);
        self.decode_record(&layout.reply, "(&mut __reply)", "self.obj.ctx()", &rets);
        self.out.line(format!("Ok({})", tuple(&rets)));
        self.out.close("}");
        self.out
            .open("::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {");
        for r in &op.raises {
            let abs = r.joined();
            let variant = camel(abs.rsplit("::").next().unwrap());
            let exn = self.path_to(&abs, camel);
            self.out.line(format!(
                "{:?} => Err({err_ty}::{variant}({exn}::idl_decode(&mut __reply)?)),",
                abs
            ));
        }
        self.out.line(format!(
            "__other => Err({err_ty}::System(\
             ::subcontract::SpringError::UnknownUserException(__other.to_owned()))),"
        ));
        self.out.close("},");
        self.out.close("}");
        self.out.close("}");
    }

    fn servant_trait(&mut self, info: &InterfaceInfo) {
        let name = format!("{}Servant", camel(&info.decl.name));
        let supertraits = if info.parents.is_empty() {
            "Send + Sync + 'static".to_owned()
        } else {
            info.parents
                .iter()
                .map(|p| self.servant_path(p))
                .collect::<Vec<_>>()
                .join(" + ")
        };
        self.out.line("");
        self.out.line(format!(
            "/// Server application interface for `{}`.",
            info.abs
        ));
        self.out.open(format!("pub trait {name}: {supertraits} {{"));
        for op in &info.decl.ops {
            let err_ty = self.error_path(&info.abs);
            let layout = self.layout.op(&info.abs, &op.name);
            let ret_ty = self.returns_type(&layout.reply);
            let params: String = members(&layout.args)
                .iter()
                .map(|m| format!(", {}: {}", sanitize(&m.name), self.rust_type(&m.ty)))
                .collect();
            self.out
                .line(format!("/// Serves `{}::{}`.", info.abs, op.name));
            self.out.line(format!(
                "fn {}(&self{params}) -> ::std::result::Result<{ret_ty}, {err_ty}>;",
                sanitize(&op.name),
            ));
        }
        self.out
            .line("/// The last door identifier for this object died (§7).");
        self.out.line(format!("fn {SERVANT_METHOD}(&self) {{}}"));
        self.out.close("}");
    }

    fn skeleton(&mut self, info: &InterfaceInfo) {
        let iface = camel(&info.decl.name);
        let name = format!("{iface}Skeleton");
        let servant = format!("{iface}Servant");
        let tinfo = format!("{}_TYPE", upper_snake(&info.decl.name));
        self.out.line("");
        self.out.line(format!(
            "/// Server-side stub (skeleton) for `{}`: unmarshals arguments \
             and calls into the server application (§4).",
            info.abs
        ));
        self.out.open(format!("pub struct {name}<S: {servant}> {{"));
        self.out.line("servant: ::std::sync::Arc<S>,");
        self.out.close("}");
        self.out.line("");
        self.out.open(format!("impl<S: {servant}> {name}<S> {{"));
        self.out
            .line("/// Wraps a servant for export through any server subcontract.");
        self.out
            .open("pub fn new(servant: ::std::sync::Arc<S>) -> ::std::sync::Arc<Self> {");
        self.out
            .line(format!("::std::sync::Arc::new({name} {{ servant }})"));
        self.out.close("}");
        self.out.close("}");
        self.out.line("");
        self.out.open(format!(
            "impl<S: {servant}> ::subcontract::Dispatch for {name}<S> {{"
        ));
        self.out
            .open("fn type_info(&self) -> &'static ::subcontract::TypeInfo {");
        self.out.line(format!("&{tinfo}"));
        self.out.close("}");
        self.out.line("");
        self.out.open(
            "fn dispatch(&self, __sctx: &::subcontract::ServerCtx, __op: u32, \
             __args: &mut ::spring_buf::CommBuffer, __reply: &mut ::spring_buf::CommBuffer) \
             -> ::subcontract::Result<()> {",
        );
        self.out.open("match __op {");
        for f in &info.flat_ops {
            self.skeleton_arm(info, &f.owner, &f.op);
        }
        self.out
            .line("__other => Err(::subcontract::SpringError::UnknownOp(__other)),");
        self.out.close("}");
        self.out.close("}");
        self.out.line("");
        self.out.open(format!("fn {SERVANT_METHOD}(&self) {{"));
        self.out
            .line(format!("<S as {servant}>::{SERVANT_METHOD}(&self.servant)"));
        self.out.close("}");
        self.out.close("}");
    }

    fn skeleton_arm(&mut self, info: &InterfaceInfo, owner: &str, op: &Operation) {
        let ops_mod = self.ops_mod_path(&info.abs);
        let err_ty = self.error_path(owner);
        let layout = self.layout.op(owner, &op.name);
        self.out.open(format!(
            "__x if __x == {ops_mod}::{} => {{",
            upper_snake(&op.name)
        ));
        let args: Vec<String> = members(&layout.args)
            .iter()
            .map(|m| format!("__a_{}", sanitize(&m.name)))
            .collect();
        self.decode_record(&layout.args, "__args", "&__sctx.ctx", &args);
        let rets = reply_vars(&layout.reply);
        self.out.open(format!(
            "match self.servant.{}({}) {{",
            sanitize(&op.name),
            args.join(", ")
        ));
        self.out.open(format!("Ok({}) => {{", tuple(&rets)));
        self.out.line("::subcontract::encode_ok(__reply);");
        self.encode_record(&layout.reply, "__reply", &rets);
        self.out.close("}");
        for r in &op.raises {
            let abs = r.joined();
            let variant = camel(abs.rsplit("::").next().unwrap());
            self.out
                .open(format!("Err({err_ty}::{variant}(__e)) => {{"));
            self.out.line(format!(
                "::subcontract::encode_user_exception(__reply, {abs:?});"
            ));
            self.out.line("__e.idl_encode(__reply);");
            self.out.close("}");
        }
        self.out
            .line(format!("Err({err_ty}::System(__e)) => return Err(__e),"));
        // Exceptions the operation did not declare are protocol violations;
        // report them as system errors rather than leaking them raw.
        let owner_exn_count = self.checked.interfaces[owner].exceptions.len();
        if op.raises.len() < owner_exn_count {
            self.out.open("Err(__e) => {");
            self.out.line(
                "::subcontract::encode_system_error(__reply, \
                 &::std::string::ToString::to_string(&__e));",
            );
            self.out.close("}");
        }
        self.out.close("}");
        self.out.line("Ok(())");
        self.out.close("}");
    }
}

/// Generates Rust code for a checked spec.
pub fn generate(checked: &CheckedSpec) -> String {
    let layout = layout::lower(checked);
    let mut gen = Gen {
        checked,
        layout: &layout,
        out: Out {
            buf: String::new(),
            indent: 0,
        },
        scope: Vec::new(),
    };
    gen.out
        .line("// Generated by idlc (spring-idl). Do not edit.");
    gen.out.line("");
    gen.spec(&checked.spec.definitions);
    gen.out.buf
}
