//! Offline stand-in for `serde_derive` (see `stubs/README.md`).
//!
//! `derive(Serialize)` supports plain (non-generic) named-field structs —
//! the only shape the workspace derives on — and emits an impl of the stub
//! `serde::Serialize` trait that writes a JSON object with one member per
//! field, in declaration order. It honours upstream's two field attributes
//! the workspace uses: `#[serde(skip)]` leaves the field out, and
//! `#[serde(skip_serializing_if = "path")]` leaves it out when
//! `path(&self.field)` is true. Any other `serde(...)` attribute is a
//! compile error.
//!
//! Parsing is done directly on the token stream (no `syn`): attributes are
//! skipped, the struct name is taken after the `struct` keyword, and field
//! names are the identifiers preceding each top-level `:` in the body.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive the stub `serde::Serialize` for a named-field struct.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, fields) = parse_struct(input);
    let mut body = String::from("out.push('{');\n");
    for (field, skip_if) in fields {
        let member = format!(
            "out.push_str(\"\\\"{field}\\\":\");\n\
             ::serde::Serialize::write_json(&self.{field}, out);\n\
             out.push(',');\n"
        );
        match skip_if {
            Some(path) => body.push_str(&format!("if !{path}(&self.{field}) {{\n{member}}}\n")),
            None => body.push_str(&member),
        }
    }
    // Every member ends in a separator: the last one becomes the brace.
    body.push_str("if out.ends_with(',') {\nout.pop();\n}\nout.push('}');\n");
    let impl_src = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn write_json(&self, out: &mut String) {{\n{body}}}\n\
         }}"
    );
    impl_src.parse().expect("generated Serialize impl should parse")
}

/// Extract (struct name, fields) from a named-field struct item.
fn parse_struct(input: TokenStream) -> (String, Vec<(String, Option<String>)>) {
    let mut tokens = input.into_iter().peekable();
    let mut name = None;
    while let Some(tt) = tokens.next() {
        match tt {
            // Attribute: `#` followed by a bracketed group.
            TokenTree::Punct(p) if p.as_char() == '#' => {
                let _ = tokens.next();
            }
            TokenTree::Ident(id) if id.to_string() == "struct" => {
                match tokens.next() {
                    Some(TokenTree::Ident(n)) => name = Some(n.to_string()),
                    other => panic!("expected struct name, found {other:?}"),
                }
            }
            // `pub`, `pub(crate)` groups, etc. before `struct`.
            _ if name.is_none() => {}
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_fields(g.stream());
                return (name.expect("struct name before body"), fields);
            }
            TokenTree::Punct(p) if p.as_char() == '<' => {
                panic!("derive(Serialize) stub does not support generic structs");
            }
            other => panic!("unsupported struct shape at {other:?} (named fields only)"),
        }
    }
    panic!("derive(Serialize) stub requires a braced struct body");
}

/// The serialized fields — the identifier right before each top-level `:`,
/// unless `#[serde(skip)]` is above it — with their `skip_serializing_if`.
fn parse_fields(body: TokenStream) -> Vec<(String, Option<String>)> {
    let mut fields = Vec::new();
    let (mut skip, mut skip_if) = (false, None);
    let mut last_ident: Option<String> = None;
    let mut in_type = false;
    let mut angle_depth = 0i32;
    for tt in body {
        match tt {
            // A field attribute's `[...]` (doc comments included).
            TokenTree::Group(g) if !in_type && g.delimiter() == Delimiter::Bracket => {
                let (s, i) = serde_attr(g.stream());
                skip |= s;
                skip_if = skip_if.or(i);
            }
            TokenTree::Punct(p) => match p.as_char() {
                ':' if !in_type => {
                    let name = last_ident.take().expect("field name before ':'");
                    let (skipped, skip_if) = (std::mem::take(&mut skip), skip_if.take());
                    if !skipped {
                        fields.push((name, skip_if));
                    }
                    in_type = true;
                }
                '<' if in_type => angle_depth += 1,
                '>' if in_type => angle_depth -= 1,
                ',' if in_type && angle_depth == 0 => in_type = false,
                _ => {}
            },
            TokenTree::Ident(id) if !in_type => {
                let s = id.to_string();
                if s != "pub" {
                    last_ident = Some(s);
                }
            }
            // `pub(...)` parens or type-position groups.
            _ => {}
        }
    }
    fields
}

/// `(skip, skip_serializing_if path)` of one attribute body; attributes
/// other than `serde(...)` ask for neither.
fn serde_attr(attr: TokenStream) -> (bool, Option<String>) {
    let mut tokens = attr.into_iter();
    let args = match (tokens.next(), tokens.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            args.stream().into_iter().collect::<Vec<_>>()
        }
        _ => return (false, None),
    };
    match args.as_slice() {
        [TokenTree::Ident(k)] if k.to_string() == "skip" => (true, None),
        [TokenTree::Ident(k), TokenTree::Punct(eq), TokenTree::Literal(path)]
            if k.to_string() == "skip_serializing_if" && eq.as_char() == '=' =>
        {
            (false, Some(path.to_string().trim_matches('"').to_string()))
        }
        other => panic!("serde stub: unsupported attribute serde({other:?})"),
    }
}
