//! The wire layout of a checked spec: what every type, record and
//! operation looks like on the wire, decided once, typedefs resolved.
//!
//! [`lower`] describes every struct and exception, and every operation's
//! arguments and reply, as a [`Record`] of [`Shape`]d members; the emitter
//! (`codegen`) writes stubs and skeletons from that description alone. The
//! flat layout rules (DESIGN.md §5.13) live here and nowhere else:
//!
//! * a primitive is aligned to its size relative to an 8-aligned frame
//!   start, an enum is a 4-byte tag, and a nested struct is aligned to 8
//!   and occupies its own footprint;
//! * a record is flat (fixed-shape) when every member is; its footprint is
//!   the offset after its last member, with no trailing padding;
//! * strings, sequences and objects are variable-shape, a `copy` parameter
//!   makes its argument record non-flat, and an exception is never flat (it
//!   travels after its variable-length name).

use std::collections::BTreeMap;

use crate::ast::{Param, ParamMode, Type};
use crate::check::CheckedSpec;

/// One entry of the primitive table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Prim {
    /// The Rust type, which is also the suffix of the buffer's `put_`/`get_`
    /// methods and of the flat reader `flat::get_`.
    pub(crate) rust: &'static str,
    /// Encoded size (and flat alignment) in bytes.
    pub(crate) size: usize,
}

/// The primitive table: `None` for every type that is not a primitive.
pub(crate) fn prim(ty: &Type) -> Option<Prim> {
    let (rust, size) = match ty {
        Type::Bool => ("bool", 1),
        Type::Octet => ("u8", 1),
        Type::Short => ("i16", 2),
        Type::UShort => ("u16", 2),
        Type::Long => ("i32", 4),
        Type::ULong => ("u32", 4),
        Type::Float => ("f32", 4),
        Type::LongLong => ("i64", 8),
        Type::ULongLong => ("u64", 8),
        Type::Double => ("f64", 8),
        _ => return None,
    };
    Some(Prim { rust, size })
}

/// What a value looks like on the wire. Names are absolute IDL names.
#[derive(Debug, PartialEq)]
pub(crate) enum Shape {
    /// A primitive.
    Prim(Prim),
    /// An enum: a 4-byte tag below `variants`.
    Enum { name: String, variants: usize },
    /// A struct, laid out by its own [`Record`].
    Struct(String),
    /// A length-prefixed string.
    Str,
    /// A sequence of octets: a length-prefixed byte run.
    Bytes,
    /// Any other sequence: a length, then each element.
    Seq(Box<Shape>),
    /// An object, marshalled by its subcontract: `None` for `object`, else
    /// the interface.
    Object(Option<String>),
}

/// One member of a record, in wire order.
#[derive(Debug, PartialEq)]
pub(crate) struct Member {
    /// IDL name: a field, a parameter, or `return` for a return value.
    pub(crate) name: String,
    /// The type as declared, which spells the member's Rust type.
    pub(crate) ty: Type,
    /// The declared type resolved to its wire shape.
    pub(crate) shape: Shape,
    /// A `copy`-mode object parameter.
    pub(crate) copy: bool,
    /// Byte range `offset..end` from the frame start; meaningful in a flat
    /// record only.
    pub(crate) offset: usize,
    pub(crate) end: usize,
}

/// A struct, an exception, or one direction of an operation.
#[derive(Debug, PartialEq)]
pub(crate) struct Record {
    /// The members in wire order.
    pub(crate) members: Vec<Member>,
    /// The footprint when the record is flat; `None` sends it down the
    /// copying path.
    pub(crate) footprint: Option<usize>,
}

/// An operation's two records; `None` where nothing travels.
#[derive(Debug, PartialEq)]
pub(crate) struct OpLayout {
    /// The `in`, `inout` and `copy` parameters, in declaration order.
    pub(crate) args: Option<Record>,
    /// The return value, then the `out` and `inout` parameters.
    pub(crate) reply: Option<Record>,
}

/// The whole spec's layout.
#[derive(Debug, Default)]
pub(crate) struct Layout {
    /// Structs and exceptions by absolute name.
    pub(crate) records: BTreeMap<String, Record>,
    /// Operations by declaring interface and name.
    ops: BTreeMap<(String, String), OpLayout>,
}

impl Layout {
    /// The layout of operation `op` declared by interface `owner`.
    pub(crate) fn op(&self, owner: &str, op: &str) -> &OpLayout {
        &self.ops[&(owner.to_owned(), op.to_owned())]
    }

    /// The fewest bytes one value encodes to: the guard a sequence's
    /// declared length is checked against.
    pub(crate) fn min_size(&self, shape: &Shape) -> usize {
        match shape {
            Shape::Prim(p) => p.size,
            Shape::Enum { .. } | Shape::Str | Shape::Bytes | Shape::Seq(_) => 4,
            Shape::Struct(name) => self.records[name]
                .members
                .iter()
                .map(|m| self.min_size(&m.shape))
                .sum::<usize>()
                .max(1),
            // Header plus door slot, at least.
            Shape::Object(_) => 12,
        }
    }
}

/// Resolves a typedef name to the type it stands for.
pub(crate) fn resolve<'t>(checked: &'t CheckedSpec, ty: &'t Type) -> &'t Type {
    match ty {
        // The checker resolved every typedef chain to its end.
        Type::Named(n) => checked.typedefs.get(&n.joined()).unwrap_or(ty),
        _ => ty,
    }
}

struct Lower<'c> {
    checked: &'c CheckedSpec,
    layout: Layout,
}

impl Lower<'_> {
    fn shape(&self, ty: &Type) -> Shape {
        let ty = resolve(self.checked, ty);
        if let Some(p) = prim(ty) {
            return Shape::Prim(p);
        }
        match ty {
            Type::Str => Shape::Str,
            Type::Object => Shape::Object(None),
            Type::Sequence(elem) => match self.shape(elem) {
                Shape::Prim(Prim { rust: "u8", .. }) => Shape::Bytes,
                elem => Shape::Seq(Box::new(elem)),
            },
            Type::Named(n) => {
                let name = n.joined();
                if let Some(e) = self.checked.enums.get(&name) {
                    let variants = e.variants.len();
                    Shape::Enum { name, variants }
                } else if self.checked.structs.contains_key(&name) {
                    Shape::Struct(name)
                } else {
                    Shape::Object(Some(name))
                }
            }
            _ => unreachable!("`void` is no member"),
        }
    }

    /// Flat `(size, alignment)` of a value, or `None` if variable-shape.
    fn flat(&mut self, shape: &Shape) -> Option<(usize, usize)> {
        match shape {
            Shape::Prim(p) => Some((p.size, p.size)),
            Shape::Enum { .. } => Some((4, 4)),
            Shape::Struct(name) => Some((self.struct_record(name).footprint?, 8)),
            _ => None,
        }
    }

    /// Lays out `(name, type, copy)` members from an 8-aligned frame start.
    fn record<'t>(
        &mut self,
        members: impl IntoIterator<Item = (&'t str, &'t Type, bool)>,
        may_be_flat: bool,
    ) -> Record {
        let mut cursor = may_be_flat.then_some(0usize);
        let mut laid = Vec::new();
        for (name, ty, copy) in members {
            let shape = self.shape(ty);
            let flat = self.flat(&shape).filter(|_| !copy);
            let at = cursor.zip(flat).map(|(at, (size, align))| {
                let offset = at.next_multiple_of(align);
                (offset, offset + size)
            });
            cursor = at.map(|(_, end)| end);
            let (offset, end) = at.unwrap_or_default();
            laid.push(Member {
                name: name.to_owned(),
                ty: ty.clone(),
                shape,
                copy,
                offset,
                end,
            });
        }
        Record {
            members: laid,
            footprint: cursor,
        }
    }

    /// The record of a struct or an exception, laid out on first use.
    fn struct_record(&mut self, abs: &str) -> &Record {
        if !self.layout.records.contains_key(abs) {
            let checked = self.checked;
            let (fields, may_be_flat) = match checked.structs.get(abs) {
                Some(s) => (&s.fields, true),
                None => (&checked.exceptions[abs].fields, false),
            };
            let members = fields.iter().map(|f| (f.name.as_str(), &f.ty, false));
            let record = self.record(members, may_be_flat);
            self.layout.records.insert(abs.to_owned(), record);
        }
        &self.layout.records[abs]
    }
}

/// Lowers a checked spec to its layout.
pub(crate) fn lower(checked: &CheckedSpec) -> Layout {
    fn member(p: &Param) -> (&str, &Type, bool) {
        (&p.name, &p.ty, p.mode == ParamMode::Copy)
    }
    let mut lower = Lower {
        checked,
        layout: Layout::default(),
    };
    for abs in checked.structs.keys().chain(checked.exceptions.keys()) {
        lower.struct_record(abs);
    }
    let some = |r: Record| (!r.members.is_empty()).then_some(r);
    for (owner, info) in &checked.interfaces {
        for op in &info.decl.ops {
            let args = op.params.iter().filter(|p| p.mode != ParamMode::Out);
            let args = some(lower.record(args.map(member), true));
            let ret = (op.ret != Type::Void).then_some(("return", &op.ret, false));
            let outs = op
                .params
                .iter()
                .filter(|p| matches!(p.mode, ParamMode::Out | ParamMode::InOut))
                .map(member);
            let reply = some(lower.record(ret.into_iter().chain(outs), true));
            let key = (owner.clone(), op.name.clone());
            lower.layout.ops.insert(key, OpLayout { args, reply });
        }
    }
    lower.layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check, lex, parse};

    fn lowered(src: &str) -> Layout {
        lower(&check(&parse(&lex(src).unwrap()).unwrap()).unwrap())
    }

    fn offsets(rec: &Record) -> Vec<usize> {
        rec.members.iter().map(|m| m.offset).collect()
    }

    #[test]
    fn the_bench_sample_lays_out_at_its_pinned_offsets() {
        let layout = lowered(include_str!("../../bench/idl/bench.idl"));
        let sample = &layout.records["flatbench::sample"];
        assert_eq!(sample.footprint, Some(60));
        assert_eq!(offsets(sample), [0, 16, 24, 32, 40, 48, 52, 53, 56]);
        assert_eq!(sample.members[0].end, 12);
        assert_eq!(layout.records["flatbench::stamp"].footprint, Some(12));
        let ping = layout.op("flatbench::flat_ping", "echo_sample");
        let args = ping.args.as_ref().unwrap();
        assert_eq!((args.footprint, args.members[0].end), (Some(60), 60));
    }

    #[test]
    fn variable_shapes_and_exceptions_are_never_flat() {
        let layout = lowered(
            r#"
            struct named { long id; string label; };
            struct blob { sequence<octet> data; sequence<long> ids; };
            exception oops { long code; };
            "#,
        );
        assert_eq!(layout.records["named"].footprint, None);
        let blob = &layout.records["blob"];
        assert_eq!(blob.footprint, None);
        assert_eq!(blob.members[0].shape, Shape::Bytes);
        assert_eq!(layout.min_size(&blob.members[1].shape), 4);
        assert_eq!(layout.records["oops"].footprint, None);
    }

    #[test]
    fn copy_parameters_and_empty_records() {
        let layout = lowered(
            r#"
            interface thing {
                void give(in long n, copy thing t);
                void poke();
                void fill(out long a, out double b);
                long bump(inout long n);
            };
            "#,
        );
        let give = layout.op("thing", "give");
        let args = give.args.as_ref().unwrap();
        assert_eq!(args.footprint, None);
        assert!(args.members[1].copy);
        assert_eq!(args.members[1].shape, Shape::Object(Some("thing".into())));
        assert_eq!(give.reply, None);
        let poke = layout.op("thing", "poke");
        assert_eq!((&poke.args, &poke.reply), (&None, &None));
        let fill = layout.op("thing", "fill");
        assert_eq!(fill.args, None);
        let reply = fill.reply.as_ref().unwrap();
        assert_eq!((reply.footprint, offsets(reply)), (Some(16), vec![0, 8]));
        let bump = layout.op("thing", "bump");
        let names: Vec<&str> = bump
            .reply
            .as_ref()
            .unwrap()
            .members
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, ["return", "n"]);
        assert_eq!(bump.args.as_ref().unwrap().footprint, Some(4));
    }

    #[test]
    fn a_typedef_of_a_flat_struct_lays_out_like_the_struct() {
        let layout = lowered(
            r#"
            struct stamp { unsigned long long secs; unsigned long nanos; };
            typedef stamp when;
            struct direct { octet k; stamp at; boolean b; };
            struct aliased { octet k; when at; boolean b; };
            "#,
        );
        let (direct, aliased) = (&layout.records["direct"], &layout.records["aliased"]);
        assert_eq!(direct.footprint, Some(21));
        assert_eq!(aliased.footprint, direct.footprint);
        assert_eq!(offsets(aliased), offsets(direct));
        assert_eq!(aliased.members[1].shape, Shape::Struct("stamp".into()));
        assert_eq!(layout.min_size(&aliased.members[1].shape), 12);
    }
}
