//! The one line format every JSONL file the suite reads back shares: a flat
//! JSON object of numbers, booleans, `null`, strings without escapes, and
//! arrays (of arrays) of integers, read strictly through [`decode`] and the
//! typed accessors of [`Object`]. Integers are parsed from their text, never
//! through `f64`.

use std::cell::Cell;
use std::fmt;

/// Why a line is not a record. Every variant but `Syntax` names the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonlError {
    /// Not one flat object of this format.
    Syntax(&'static str),
    /// A required key is absent.
    Missing(String),
    /// A key appears twice.
    Duplicate(String),
    /// A key the record type does not define.
    Unknown(String),
    /// A key, and what is wrong with its value.
    Invalid(String, String),
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonlError::Syntax(reason) => f.write_str(reason),
            JsonlError::Missing(key) => write!(f, "missing key {key:?}"),
            JsonlError::Duplicate(key) => write!(f, "duplicate key {key:?}"),
            JsonlError::Unknown(key) => write!(f, "unknown key {key:?}"),
            JsonlError::Invalid(key, reason) => write!(f, "key {key:?}: {reason}"),
        }
    }
}

/// A line of a file that a reader rejected: its 1-based number and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number.
    pub line: usize,
    /// What is wrong with the line.
    pub reason: String,
}

impl LineError {
    /// A line that is not a valid `what`, quoting its start.
    pub fn record(line: usize, what: &str, text: &str, error: JsonlError) -> Self {
        let snippet: String = text.chars().take(72).collect();
        let cut = text.chars().nth(72).map_or("", |_| "…");
        let reason = format!("{what}: {snippet:?}{cut}: {error}");
        LineError { line, reason }
    }
}

/// The non-blank lines of `text`, trimmed, with their 1-based numbers.
pub fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let numbered = text.lines().enumerate().map(|(ix, l)| (ix + 1, l.trim()));
    numbered.filter(|(_, line)| !line.is_empty())
}

/// Decodes one line with `read`, then rejects any key `read` left unread.
pub fn decode<T>(
    line: &str,
    read: impl FnOnce(&Object<'_>) -> Result<T, JsonlError>,
) -> Result<T, JsonlError> {
    let obj = Object::parse(line.trim())?;
    let value = read(&obj)?;
    match obj.fields.iter().find(|(_, _, used)| !used.get()) {
        Some((key, ..)) => Err(JsonlError::Unknown(key.to_string())),
        None => Ok(value),
    }
}

/// One tokenized line: each key with its raw value text and whether the
/// record type has read it.
#[derive(Debug)]
pub struct Object<'a> {
    fields: Vec<(&'a str, &'a str, Cell<bool>)>,
}

impl<'a> Object<'a> {
    fn parse(line: &'a str) -> Result<Self, JsonlError> {
        let body = line
            .strip_prefix('{')
            .ok_or(JsonlError::Syntax("expected '{'"))?;
        let body = body
            .strip_suffix('}')
            .ok_or(JsonlError::Syntax("no '}' at the end"))?;
        let mut fields: Vec<(&str, &str, Cell<bool>)> = Vec::new();
        for field in split(body)? {
            let kv = field.strip_prefix('"').and_then(|f| f.split_once('"'));
            let kv = kv.and_then(|(k, v)| Some((k, v.trim_start().strip_prefix(':')?.trim())));
            let Some((key, value)) = kv.filter(|(_, v)| !v.is_empty()) else {
                return Err(JsonlError::Syntax("expected \"key\":value"));
            };
            if fields.iter().any(|f| f.0 == key) {
                return Err(JsonlError::Duplicate(key.to_string()));
            }
            fields.push((key, value, Cell::new(false)));
        }
        Ok(Object { fields })
    }

    /// The raw text of `key`'s value, marking the key read.
    fn raw(&self, key: &str) -> Result<&'a str, JsonlError> {
        let field = self.fields.iter().find(|f| f.0 == key);
        let (_, raw, used) = field.ok_or_else(|| JsonlError::Missing(key.to_string()))?;
        used.set(true);
        Ok(raw)
    }

    /// `key`'s value as `read` makes it out, or an error naming `key`.
    fn read<T>(
        &self,
        key: &str,
        want: fmt::Arguments<'_>,
        read: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, JsonlError> {
        let raw = self.raw(key)?;
        let why = || format!("expected {want}, got {raw}");
        read(raw).ok_or_else(|| JsonlError::Invalid(key.to_string(), why()))
    }

    /// An unsigned integer that fits `T` (`u8`, `u32`, `u64`, `usize`, …).
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, JsonlError> {
        let ty = std::any::type_name::<T>();
        let fits = |raw| T::try_from(parse_uint(raw)?).ok();
        self.read(key, format_args!("a {ty}"), fits)
    }

    /// A finite number.
    pub fn f64(&self, key: &str) -> Result<f64, JsonlError> {
        let finite = |raw: &str| raw.parse().ok().filter(|x: &f64| x.is_finite());
        self.read(key, format_args!("a finite number"), finite)
    }

    /// `true` or `false`.
    pub fn bool(&self, key: &str) -> Result<bool, JsonlError> {
        self.read(key, format_args!("true or false"), |raw| raw.parse().ok())
    }

    /// A string's contents.
    pub fn str(&self, key: &str) -> Result<&'a str, JsonlError> {
        let quoted = |raw: &'a str| raw.strip_prefix('"')?.strip_suffix('"');
        let string = |raw| quoted(raw).filter(|s| !s.contains('"'));
        self.read(key, format_args!("a string"), string)
    }

    /// `None` for `null`, else the value `read` reads.
    pub fn nullable<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Self, &str) -> Result<T, JsonlError>,
    ) -> Result<Option<T>, JsonlError> {
        match self.raw(key)? {
            "null" => Ok(None),
            _ => read(self, key).map(Some),
        }
    }

    /// An array of exactly `N` unsigned integers.
    pub fn u64_array<const N: usize>(&self, key: &str) -> Result<[u64; N], JsonlError> {
        self.read(key, format_args!("{N} unsigned integers"), ints)
    }

    /// An array of rows of exactly `N` unsigned integers each.
    pub fn u64_rows<const N: usize>(&self, key: &str) -> Result<Vec<[u64; N]>, JsonlError> {
        let rows = |raw| elements(raw)?.into_iter().map(ints).collect();
        self.read(key, format_args!("rows of {N} unsigned integers"), rows)
    }
}

/// Splits `text` at the commas outside strings and brackets, trimming each
/// part (blank text has none). Strings must close and hold no escapes or
/// control bytes; brackets must balance, and no object may nest.
fn split(text: &str) -> Result<Vec<&str>, JsonlError> {
    let (mut parts, mut start, mut depth, mut in_str) = (Vec::new(), 0, 0usize, false);
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'\\' | 0..=0x1f if in_str => return Err(JsonlError::Syntax("escape or control byte")),
            _ if in_str => {}
            b'[' => depth += 1,
            b']' if depth > 0 => depth -= 1,
            b']' | b'{' | b'}' => return Err(JsonlError::Syntax("unbalanced bracket or brace")),
            b',' if depth == 0 => {
                parts.push(text[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_str || depth > 0 {
        return Err(JsonlError::Syntax("unexpected end of line"));
    }
    if !text.trim().is_empty() {
        parts.push(text[start..].trim());
    }
    Ok(parts)
}

/// The elements of an array value, or `None` if `raw` is not `[…]`.
fn elements(raw: &str) -> Option<Vec<&str>> {
    split(raw.strip_prefix('[')?.strip_suffix(']')?).ok()
}

/// An array value of exactly `N` unsigned integers.
fn ints<const N: usize>(raw: &str) -> Option<[u64; N]> {
    let ints: Option<Vec<u64>> = elements(raw)?.into_iter().map(parse_uint).collect();
    ints?.try_into().ok()
}

/// Plain decimal digits that fit a `u64`, parsed from the text.
fn parse_uint(text: &str) -> Option<u64> {
    text.parse().ok().filter(|_| !text.starts_with('+'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(line: &str) -> Result<(u64, f64, bool, String), JsonlError> {
        decode(line, |o| {
            Ok((
                o.uint("n")?,
                o.f64("x")?,
                o.bool("b")?,
                o.str("s")?.to_string(),
            ))
        })
    }

    #[test]
    fn a_well_formed_line_decodes() {
        let line = r#"{"n":18446744073709551615,"x":-1.5e3,"b":true,"s":"a b"}"#;
        assert_eq!(
            read_all(line),
            Ok((u64::MAX, -1500.0, true, "a b".to_string()))
        );
        // Whitespace between tokens is allowed.
        let spaced = r#" { "n" : 1 , "x" : 2 , "b" : false , "s" : "" } "#;
        assert_eq!(read_all(spaced), Ok((1, 2.0, false, String::new())));
    }

    #[test]
    fn strictness_names_the_key() {
        let err = |line: &str| read_all(line).unwrap_err();
        assert_eq!(
            err(r#"{"x":1,"b":true,"s":""}"#),
            JsonlError::Missing("n".into())
        );
        assert_eq!(
            err(r#"{"n":1,"n":2,"x":1,"b":true,"s":""}"#),
            JsonlError::Duplicate("n".into())
        );
        assert_eq!(
            err(r#"{"n":1,"x":1,"b":true,"s":"","extra":0}"#),
            JsonlError::Unknown("extra".into())
        );
        for (line, key) in [
            (r#"{"n":-1,"x":1,"b":true,"s":""}"#, "n"),
            (r#"{"n":1.0,"x":1,"b":true,"s":""}"#, "n"),
            (r#"{"n":+1,"x":1,"b":true,"s":""}"#, "n"),
            (r#"{"n":1 2,"x":1,"b":true,"s":""}"#, "n"),
            (r#"{"n":18446744073709551616,"x":1,"b":true,"s":""}"#, "n"),
            (r#"{"n":1,"x":1e999,"b":true,"s":""}"#, "x"),
            (r#"{"n":1,"x":NaN,"b":true,"s":""}"#, "x"),
            (r#"{"n":1,"x":"1","b":true,"s":""}"#, "x"),
            (r#"{"n":1,"x":1,"b":null,"s":""}"#, "b"),
            (r#"{"n":1,"x":1,"b":tru,"s":""}"#, "b"),
            (r#"{"n":1,"x":1,"b":true,"s":7}"#, "s"),
            (r#"{"n":1,"x":1,"b":true,"s":"a""b"}"#, "s"),
        ] {
            match err(line) {
                JsonlError::Invalid(k, _) => assert_eq!(k, key, "{line}"),
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn ranges_follow_the_target_type() {
        let obj = Object::parse(r#"{"a":4294967295,"b":4294967296,"c":256}"#).unwrap();
        assert_eq!(obj.uint::<u32>("a"), Ok(u32::MAX));
        assert_eq!(
            obj.uint::<u32>("b").unwrap_err().to_string(),
            "key \"b\": expected a u32, got 4294967296"
        );
        assert_eq!(obj.uint::<u64>("b"), Ok(1 << 32));
        assert!(obj.uint::<u8>("c").is_err());
    }

    #[test]
    fn malformed_lines_are_syntax_errors() {
        for line in [
            "",
            "not json",
            r#"{"n":1"#,
            r#"{"n":1}x"#,
            r#"{"n":1}{"n":2}"#,
            r#"{"n":1}}"#,
            r#"{"n":}"#,
            r#"{"n":"a\"b"}"#,
            r#"{"n":"abc}"#,
            r#"{"n":"a	b"}"#,
            r#"{n:1}"#,
            r#"{"n" 1}"#,
            r#"{"n":1,}"#,
            r#"{"n":[1,2}"#,
            r#"{"n":{"m":1}}"#,
        ] {
            assert!(
                matches!(Object::parse(line), Err(JsonlError::Syntax(_))),
                "{line:?}"
            );
        }
    }

    #[test]
    fn arrays_and_nulls() {
        let line = r#"{"t":[1, 2,3],"r":[[1,2],[3,4]],"e":[],"z":null,"y":0.5}"#;
        let got = decode(line, |o| {
            Ok((
                o.u64_array::<3>("t")?,
                o.u64_rows::<2>("r")?,
                o.u64_rows::<2>("e")?,
                o.nullable("z", Object::f64)?,
                o.nullable("y", Object::f64)?,
            ))
        });
        assert_eq!(
            got,
            Ok(([1, 2, 3], vec![[1, 2], [3, 4]], vec![], None, Some(0.5)))
        );
        for line in [
            r#"{"t":[1,2]}"#,
            r#"{"t":[1,2,-3]}"#,
            r#"{"t":[[1],2,3]}"#,
            r#"{"t":[1,,2]}"#,
            r#"{"t":[1,2,3]4}"#,
        ] {
            let err = decode(line, |o| o.u64_array::<3>("t")).unwrap_err();
            assert!(
                matches!(err, JsonlError::Invalid(ref key, _) if key == "t"),
                "{line}"
            );
        }
        for line in [
            r#"{"r":[[1,2],[3]]}"#,
            r#"{"r":[[[1,2]]]}"#,
            r#"{"r":[1,2]}"#,
        ] {
            let err = decode(line, |o| o.u64_rows::<2>("r")).unwrap_err();
            assert!(
                matches!(err, JsonlError::Invalid(ref key, _) if key == "r"),
                "{line}"
            );
        }
    }

    #[test]
    fn line_errors_quote_the_line() {
        let e = LineError::record(3, "bad", "{\"a\"", JsonlError::Missing("b".into()));
        assert_eq!(
            (e.line, e.reason.as_str()),
            (3, "bad: \"{\\\"a\\\"\": missing key \"b\"")
        );
        let long = "x".repeat(100);
        let e = LineError::record(1, "bad", &long, JsonlError::Missing("b".into()));
        assert!(e.reason.contains("x\"…: missing"), "{}", e.reason);
        let numbered: Vec<_> = lines("a\n\n  b \r\n").collect();
        assert_eq!(numbered, vec![(1, "a"), (3, "b")]);
    }
}
