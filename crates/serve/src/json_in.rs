//! Inbound JSON: a small recursive-descent parser plus a zero-copy fast
//! path for the one frame shape that matters.
//!
//! The workspace's zero-dependency discipline means no serde; outbound
//! JSON already goes through `mc_obs::json`, and this module is its
//! inbound counterpart. Two layers:
//!
//! * [`parse`] — a strict, general JSON parser producing a [`JsonValue`]
//!   tree. Handles every frame the protocol defines; depth-capped and
//!   size-capped by the caller (frames are already length-limited).
//! * [`fast_classify_frame`] — a specialized scanner for the exact
//!   byte shape the bundled client emits for classify requests:
//!   `{"op":"classify","points":[[…],…]}` with no interstitial
//!   whitespace. It parses straight into a flat `Vec<f64>` without
//!   building a tree — on the million-QPS path the tree allocation is
//!   the difference between the server keeping up and not. Any
//!   deviation returns `None` and the caller falls back to [`parse`],
//!   so the fast path is an optimization, never a semantic fork (the
//!   equivalence is tested below).

/// Maximum nesting depth [`parse`] accepts. Protocol frames are at most
/// three levels deep; 32 leaves headroom without risking stack overflow
/// on adversarial input.
const MAX_DEPTH: usize = 32;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as insertion-ordered key/value pairs (duplicate keys:
    /// first wins on [`JsonValue::get`]).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(bytes: &[u8]) -> Result<JsonValue, String> {
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal(b"true", JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false", JsonValue::Bool(false)),
            Some(b'n') => self.literal(b"null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unexpected byte {:?} at offset {}",
                c as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &[u8], v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err("unpaired surrogate".to_string());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or("invalid surrogate pair")?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err("unpaired low surrogate".to_string());
                            } else {
                                char::from_u32(hi).ok_or("invalid codepoint")?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!("bad escape {:?}", other as char));
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte {c:#x} in string"));
                }
                Some(_) => {
                    // Copy a maximal run of plain bytes at once.
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(slice).map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        s.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {s:?} at offset {start}"))
    }
}

/// Fast path for `{"op":"classify","points":[[x,y],…]}` exactly as the
/// bundled client serializes it (no whitespace). Returns the flat
/// coordinate buffer, the per-row dimensionality, and the row count;
/// `None` on any deviation (caller falls back to [`parse`]).
///
/// An empty batch (`"points":[]`) yields `(vec![], 0, 0)`.
pub fn fast_classify_frame(bytes: &[u8]) -> Option<(Vec<f64>, usize, usize)> {
    const PREFIX: &[u8] = b"{\"op\":\"classify\",\"points\":[";
    const SUFFIX: &[u8] = b"]}";
    let body = bytes.strip_prefix(PREFIX)?.strip_suffix(SUFFIX)?;
    if body.is_empty() {
        return Some((Vec::new(), 0, 0));
    }
    let mut data = Vec::new();
    let mut dim = 0usize;
    let mut rows = 0usize;
    let mut pos = 0usize;
    while pos < body.len() {
        if rows > 0 {
            if body.get(pos) != Some(&b',') {
                return None;
            }
            pos += 1;
        }
        if body.get(pos) != Some(&b'[') {
            return None;
        }
        pos += 1;
        let mut row_len = 0usize;
        loop {
            let start = pos;
            while pos < body.len()
                && matches!(body[pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                pos += 1;
            }
            if pos == start {
                return None;
            }
            let v: f64 = std::str::from_utf8(&body[start..pos]).ok()?.parse().ok()?;
            data.push(v);
            row_len += 1;
            match body.get(pos) {
                Some(b',') => pos += 1,
                Some(b']') => {
                    pos += 1;
                    break;
                }
                _ => return None,
            }
        }
        if rows == 0 {
            dim = row_len;
            // Later rows are about as long as the first one.
            data.reserve(body.len() / pos * dim);
        } else if row_len != dim {
            return None;
        }
        rows += 1;
    }
    Some((data, dim, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse(b"null").unwrap(), JsonValue::Null);
        assert_eq!(parse(b"true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(b"false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse(b"3.5").unwrap(), JsonValue::Num(3.5));
        assert_eq!(parse(b"-0.25e2").unwrap(), JsonValue::Num(-25.0));
        assert_eq!(parse(b"\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(br#"{ "a": [1, 2, {"b": null}], "c": "x" }"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        let arr = v.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(br#""a\n\t\"\\\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\Aé"));
        // Surrogate pair: U+1F600.
        let v = parse(br#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\":}",
            b"1 2",
            b"\"unterminated",
            b"{\"a\" 1}",
            b"nul",
            b"\"\\ud800\"",
            b"[1,2,",
        ] {
            assert!(parse(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let mut doc = Vec::new();
        doc.extend([b'['; 100]);
        doc.extend([b']'; 100]);
        assert!(parse(&doc).is_err());
    }

    #[test]
    fn fast_path_parses_canonical_frames() {
        let (data, dim, n) =
            fast_classify_frame(b"{\"op\":\"classify\",\"points\":[[1,2.5],[-3e2,0.125]]}")
                .unwrap();
        assert_eq!(dim, 2);
        assert_eq!(n, 2);
        assert_eq!(data, vec![1.0, 2.5, -300.0, 0.125]);
        assert_eq!(
            fast_classify_frame(b"{\"op\":\"classify\",\"points\":[]}"),
            Some((vec![], 0, 0))
        );
    }

    #[test]
    fn fast_path_declines_anything_else() {
        for frame in [
            &b"{\"op\":\"metrics\"}"[..],
            b"{\"op\":\"classify\",\"points\":[[1,2], [3,4]]}", // whitespace
            b"{\"op\":\"classify\",\"points\":[[1,2],[3]]}",    // ragged
            b"{\"op\":\"classify\",\"points\":[[1,x]]}",        // bad number
            b"{\"op\":\"classify\",\"points\":[[1,2]",          // truncated
        ] {
            assert!(fast_classify_frame(frame).is_none());
        }
    }

    #[test]
    fn fast_path_agrees_with_generic_parser() {
        let frame = b"{\"op\":\"classify\",\"points\":[[0.5,-1],[2e3,7.25],[3,4]]}";
        let (data, dim, n) = fast_classify_frame(frame).unwrap();
        let tree = parse(frame).unwrap();
        let rows = tree.get("points").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(rows.len(), n);
        let mut flat = Vec::new();
        for row in rows {
            let row = row.as_arr().unwrap();
            assert_eq!(row.len(), dim);
            flat.extend(row.iter().map(|v| v.as_f64().unwrap()));
        }
        assert_eq!(flat, data);
    }
}
