//! The one text codec behind the workspace's hand-written artifacts.
//!
//! The workspace is hermetic (no serde), so its artifacts are written by
//! hand: JSON for the bench suites, the registry export and the Chrome
//! trace; tab-separated lines for the trace and incident sections of a
//! `.run` file. Every emitter quotes strings through [`JsonStr`] or
//! [`Field`], and every line parser reads through [`Fields`], so an
//! escaping rule exists once. Parsers turn the code labels they read back
//! into `&'static str` through [`intern`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// `s` as a quoted JSON string literal.
pub struct JsonStr<'a>(pub &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// `s` as one field of a tab-separated line: `\t`, `\n` and `\\` are
/// escaped, so free text cannot break the line structure.
/// [`unescape`] inverts it.
pub struct Field<'a>(pub &'a str);

impl fmt::Display for Field<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '\\' => f.write_str("\\\\")?,
                '\t' => f.write_str("\\t")?,
                '\n' => f.write_str("\\n")?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// Inverse of [`Field`].
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// A label read back from an artifact as the `&'static str` the code
/// wrote it from: interned once per distinct string and leaked
/// deliberately (the labels of an artifact are few and fixed by the
/// code).
pub fn intern(s: &str) -> &'static str {
    thread_local! {
        static POOL: RefCell<HashMap<String, &'static str>> = RefCell::new(HashMap::new());
    }
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if let Some(v) = pool.get(s) {
            return *v;
        }
        let v: &'static str = Box::leak(s.to_owned().into_boxed_str());
        pool.insert(s.to_owned(), v);
        v
    })
}

/// A parse failure at a 1-based line of the parsed text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// Line the failure is on.
    pub line: usize,
    /// What is wrong with it.
    pub msg: String,
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// Cursor over the tab-separated fields of one line. Every accessor
/// names the field it wants, so a short or malformed line fails with
/// its line number and the field that is missing or bad.
pub struct Fields<'a> {
    line: usize,
    rest: Option<&'a str>,
}

impl<'a> Fields<'a> {
    /// Cursor over `text`, which is line `line` (1-based) of its source.
    pub fn new(line: usize, text: &'a str) -> Self {
        Fields {
            line,
            rest: Some(text),
        }
    }

    /// An error on this cursor's line.
    pub fn err(&self, msg: impl Into<String>) -> LineError {
        LineError {
            line: self.line,
            msg: msg.into(),
        }
    }

    /// `true` while a field is left.
    pub fn more(&self) -> bool {
        self.rest.is_some()
    }

    /// The next field, raw.
    pub fn next(&mut self, what: &str) -> Result<&'a str, LineError> {
        let Some(rest) = self.rest.take() else {
            return Err(self.err(format!("missing {what}")));
        };
        Ok(match rest.split_once('\t') {
            Some((field, rest)) => {
                self.rest = Some(rest);
                field
            }
            None => rest,
        })
    }

    /// The next field, parsed; `-` (see [`Fields::opt`]) is not a value.
    pub fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, LineError>
    where
        T::Err: fmt::Display,
    {
        match self.opt(what)? {
            Some(v) => Ok(v),
            None => Err(self.err(format!("bad {what} \"-\""))),
        }
    }

    /// The next field, parsed, with `-` standing for "absent".
    pub fn opt<T: FromStr>(&mut self, what: &str) -> Result<Option<T>, LineError>
    where
        T::Err: fmt::Display,
    {
        let field = self.next(what)?;
        if field == "-" {
            return Ok(None);
        }
        field
            .parse()
            .map(Some)
            .map_err(|e| self.err(format!("bad {what} {field:?}: {e}")))
    }

    /// Fails if a field is left: a record with more fields than its tag
    /// allows is corrupt, not extensible.
    pub fn end(self) -> Result<(), LineError> {
        match self.rest {
            Some(extra) => Err(self.err(format!("unexpected trailing field {extra:?}"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(JsonStr("plain").to_string(), "\"plain\"");
        assert_eq!(
            JsonStr("a\"b\\c\nd\te\u{1}").to_string(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn fields_round_trip_tabs_newlines_and_backslashes() {
        let raw = "a\tb\nc\\d";
        let escaped = Field(raw).to_string();
        assert!(!escaped.contains('\t') && !escaped.contains('\n'));
        assert_eq!(unescape(&escaped), raw);
        assert_eq!(unescape("no escapes"), "no escapes");
    }

    #[test]
    fn cursor_walks_parses_and_names_what_is_wrong() {
        let mut f = Fields::new(7, "tag\t42\t-\tlast");
        assert_eq!(f.next("tag"), Ok("tag"));
        assert_eq!(f.parse::<u64>("count"), Ok(42));
        assert_eq!(f.opt::<u64>("limit"), Ok(None));
        assert!(f.more());
        assert_eq!(f.next("name"), Ok("last"));
        assert!(!f.more());
        let e = f.next("extra").unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (7, "missing extra"));
        assert_eq!(e.to_string(), "line 7: missing extra");

        let mut bad = Fields::new(3, "x\ty");
        let e = bad.parse::<u64>("count").unwrap_err();
        assert!(e.to_string().starts_with("line 3: bad count \"x\""), "{e}");
        assert!(bad.end().unwrap_err().msg.contains("trailing field \"y\""));
        // An empty line is one empty field, like `str::split`.
        assert_eq!(Fields::new(1, "").next("tag"), Ok(""));
    }
}
