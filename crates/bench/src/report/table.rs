//! The one description of an experiment's result, and the only two things
//! done with it: [`Table::render`] prints it and [`Table::to_json`]
//! serialises it.
//!
//! An experiment measures, then says what it measured exactly once: the
//! columns of its table, one row of typed values per measured arm, the
//! named scalar *figures* derived from them (`simplex_vs_raw_ns`,
//! `speedup_1ms` — what `bench_compare` gates and what a trajectory is made
//! of), and the sentences that read those figures back. A sentence is a
//! template: `{name}` is replaced by the figure or run parameter of that
//! name, formatted by its kind, so the text and the JSON cannot disagree.

use spring_trace::json::Json;

use crate::timing::fmt_ns;

/// A typed value: a cell of a row, a figure or a run parameter. A column's
/// kind is the kind of the values in it.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A whole number of things (doors, messages, calls).
    Count(u64),
    /// Nanoseconds, printed with the unit that fits ([`fmt_ns`]).
    Ns(f64),
    /// A quotient — a speed-up, a share, a rate per second — printed with
    /// this many decimals.
    Ratio(f64, usize),
    /// Not a number: an arm's name, a fixed description.
    Text(String),
}

impl Value {
    /// `count`, `ns`, `ratio` or `text`.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Count(_) => "count",
            Value::Ns(_) => "ns",
            Value::Ratio(..) => "ratio",
            Value::Text(_) => "text",
        }
    }

    /// The number, unless this is text.
    pub fn number(&self) -> Option<f64> {
        match self {
            Value::Count(n) => Some(*n as f64),
            Value::Ns(v) | Value::Ratio(v, _) => Some(*v),
            Value::Text(_) => None,
        }
    }

    fn show(&self) -> String {
        match self {
            Value::Count(n) => n.to_string(),
            Value::Ns(ns) => fmt_ns(*ns),
            Value::Ratio(v, decimals) => format!("{v:.decimals$}"),
            Value::Text(text) => text.clone(),
        }
    }

    /// A quotient whose denominator was zero is `null`, which
    /// `bench_compare` reports as a missing figure.
    fn to_json(&self) -> Json {
        match (self, self.number()) {
            (Value::Text(text), _) => Json::from(text.as_str()),
            (_, Some(v)) if v.is_finite() => Json::Num(v),
            _ => Json::Null,
        }
    }
}

macro_rules! value_from {
    ($($ty:ty => $make:expr),+) => {$(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Value {
                $make(v)
            }
        }
    )+};
}
value_from!(
    u64 => Value::Count,
    u32 => |v| Value::Count(v as u64),
    usize => |v| Value::Count(v as u64),
    &str => |v: &str| Value::Text(v.to_owned()),
    String => Value::Text
);

/// Builds a row from values of mixed types; whole numbers are counts and
/// strings text: `row![t; "raw door", Ns(85.0), 0u64]`.
#[macro_export]
macro_rules! row {
    ($table:expr; $($cell:expr),+ $(,)?) => {
        $table.row(vec![$($crate::report::table::Value::from($cell)),+])
    };
}

/// A row or a sentence, in the order the experiment produced them.
#[derive(Clone, Debug)]
enum Line {
    Row(Vec<Value>),
    Note(String),
}

/// What one experiment measured.
#[derive(Clone, Debug)]
pub struct Table {
    /// The experiment's identifier, `e1` … `e17`; names its `BENCH_<id>.json`.
    pub id: &'static str,
    /// Heading of the printed section.
    pub title: &'static str,
    /// Where the claim is made: paper or DESIGN.md sections.
    pub sections: &'static str,
    /// Column headings.
    pub columns: &'static [&'static str],
    params: Vec<(String, Value)>,
    lines: Vec<Line>,
    figures: Vec<(String, Value)>,
}

impl Table {
    /// An empty table with the given column headings.
    pub fn new(
        id: &'static str,
        title: &'static str,
        sections: &'static str,
        columns: &'static [&'static str],
    ) -> Table {
        Table {
            id,
            title,
            sections,
            columns,
            params: Vec::new(),
            lines: Vec::new(),
            figures: Vec::new(),
        }
    }

    /// Records a parameter of the run (iteration counts, sweep sizes).
    pub fn param(&mut self, name: &str, value: impl Into<Value>) {
        self.params.push((name.to_owned(), value.into()));
    }

    /// Records a named scalar result.
    pub fn figure(&mut self, name: &str, value: impl Into<Value>) {
        self.figures.push((name.to_owned(), value.into()));
    }

    /// Appends a row; see [`row!`](crate::row).
    pub fn row(&mut self, cells: Vec<Value>) {
        self.lines.push(Line::Row(cells));
    }

    /// Appends a sentence; `{name}` stands for that figure or parameter.
    pub fn note(&mut self, template: impl Into<String>) {
        self.lines.push(Line::Note(template.into()));
    }

    /// The rows, in order.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        self.lines.iter().filter_map(|line| match line {
            Line::Row(cells) => Some(cells.as_slice()),
            Line::Note(_) => None,
        })
    }

    /// The value of a numeric figure, if the experiment recorded it.
    pub fn get(&self, figure: &str) -> Option<f64> {
        let (_, value) = self.figures.iter().find(|(name, _)| name == figure)?;
        value.number()
    }

    /// Replaces each `{name}` of a note by its figure or parameter.
    fn fill(&self, template: &str) -> String {
        let mut out = String::new();
        let mut rest = template;
        while let Some((before, after)) = rest.split_once('{') {
            let (name, after) = after
                .split_once('}')
                .unwrap_or_else(|| panic!("{}: unclosed `{{` in note `{template}`", self.id));
            let (_, value) = (self.figures.iter().chain(&self.params))
                .find(|(known, _)| known == name)
                .unwrap_or_else(|| panic!("{}: note names unknown figure `{name}`", self.id));
            out.push_str(before);
            out.push_str(&value.show());
            rest = after;
        }
        out + rest
    }

    /// The kind of each column: that of the first row's values.
    fn kinds(&self) -> Vec<&'static str> {
        let first = self.rows().next();
        first.map_or(Vec::new(), |row| row.iter().map(Value::kind).collect())
    }

    /// The printed section: heading, column header above the first row,
    /// rows and sentences in the order they were added. Text columns align
    /// left, numbers right; a column is as wide as its widest entry.
    pub fn render(&self) -> String {
        // The header and every row, formatted once.
        let header = self.columns.iter().map(|c| c.to_string()).collect();
        let body = self.rows().map(|cells| {
            assert_eq!(cells.len(), self.columns.len(), "{}: row width", self.id);
            cells.iter().map(Value::show).collect()
        });
        let shown: Vec<Vec<String>> = std::iter::once(header).chain(body).collect();
        let width = |i: usize| shown.iter().map(|row| row[i].chars().count()).max();
        let widths: Vec<usize> = (0..self.columns.len()).filter_map(width).collect();
        let kinds = self.kinds();
        let layout = |cells: &[String]| {
            let padded = cells
                .iter()
                .enumerate()
                .map(|(i, s)| match (kinds[i], widths[i]) {
                    ("text", w) => format!("{s:<w$}"),
                    (_, w) => format!("{s:>w$}"),
                });
            padded.collect::<Vec<_>>().join("  ").trim_end().to_owned() + "\n"
        };

        let mut out = match self.sections {
            "" => format!("\n== {} ==\n", self.title),
            sections => format!("\n== {} ({sections}) ==\n", self.title),
        };
        let mut next_row = 1;
        for line in &self.lines {
            match line {
                Line::Note(template) => out += &(self.fill(template) + "\n"),
                Line::Row(_) => {
                    if next_row == 1 {
                        out += &layout(&shown[0]);
                    }
                    out += &layout(&shown[next_row]);
                    next_row += 1;
                }
            }
        }
        out
    }

    /// The `BENCH_<id>.json` document: everything [`Table::render`] prints
    /// plus the parameters and every figure, sentences already filled in.
    pub fn to_json(&self) -> Json {
        let scalars = |list: &[(String, Value)]| {
            Json::Obj(
                list.iter()
                    .map(|(name, value)| (name.clone(), value.to_json()))
                    .collect(),
            )
        };
        let kinds = self.kinds();
        let columns = self.columns.iter().zip(kinds).map(|(name, kind)| {
            Json::obj([("name", Json::from(*name)), ("kind", Json::from(kind))])
        });
        let rows = self
            .rows()
            .map(|cells| Json::Arr(cells.iter().map(Value::to_json).collect()));
        let notes = self.lines.iter().filter_map(|line| match line {
            Line::Note(template) => Some(Json::from(self.fill(template))),
            Line::Row(_) => None,
        });
        Json::obj([
            ("id", Json::from(self.id)),
            ("title", Json::from(self.title)),
            ("sections", Json::from(self.sections)),
            ("params", scalars(&self.params)),
            ("columns", Json::Arr(columns.collect())),
            ("rows", Json::Arr(rows.collect())),
            ("figures", scalars(&self.figures)),
            ("notes", Json::Arr(notes.collect())),
        ])
    }
}
