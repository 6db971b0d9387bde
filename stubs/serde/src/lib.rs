//! Offline stand-in for `serde` (see `stubs/README.md`).
//!
//! The workspace serializes plain named-field record structs to JSON, so the
//! data model here is a single trait that writes JSON text directly.
//! `serde_json::to_string` and `derive(Serialize)` build on it; reading JSON
//! back is `serde_json::from_str` into a `serde_json::Value`.

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

use std::fmt::Write;

/// Types that can write themselves as a JSON value.
pub trait Serialize {
    /// Append this value's JSON encoding to `out`.
    fn write_json(&self, out: &mut String);
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out)
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    // Shortest round-trip decimal (`{}` never uses an
                    // exponent); an integral value keeps a `.0`, as
                    // serde_json writes it, so it reads back as a float.
                    let start = out.len();
                    let _ = write!(out, "{self}");
                    if !out[start..].contains('.') {
                        out.push_str(".0");
                    }
                } else {
                    // Matches serde_json: non-finite floats become null.
                    out.push_str("null");
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out)
    }
}

#[cfg(test)]
mod tests {
    use super::Serialize;

    fn json(v: &impl Serialize) -> String {
        let mut out = String::new();
        v.write_json(&mut out);
        out
    }

    #[test]
    fn primitives_encode_as_json() {
        assert_eq!(json(&"a\"b\n\u{1}"), r#""a\"b\n\u0001""#);
        assert_eq!(json(&vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(json(&Option::<i32>::None), "null");
        // Floats stay floats; non-finite ones become null.
        let floats = vec![2.0f64, -0.5, 1e21, f64::NAN, f64::NEG_INFINITY];
        assert_eq!(json(&floats), "[2.0,-0.5,1000000000000000000000.0,null,null]");
        assert_eq!(json(&3.0f32), "3.0");
    }
}
