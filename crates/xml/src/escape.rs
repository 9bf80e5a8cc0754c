//! Escaping and entity handling for XML character data and attributes.

/// The bytes [`escape_text`] replaces.
pub(crate) const TEXT_SPECIALS: [u8; 3] = [b'&', b'<', b'>'];
/// The bytes [`escape_attr`] replaces.
pub(crate) const ATTR_SPECIALS: [u8; 7] = [b'&', b'<', b'>', b'"', b'\n', b'\t', b'\r'];

/// What an escaped byte is written as.
fn entity(b: u8) -> &'static str {
    match b {
        b'&' => "&amp;",
        b'<' => "&lt;",
        b'>' => "&gt;",
        b'"' => "&quot;",
        b'\n' => "&#10;",
        b'\t' => "&#9;",
        b'\r' => "&#13;",
        _ => unreachable!("only the escape sets' bytes are looked up"),
    }
}

/// Index of the first byte of `hay` that is one of `needles`, eight bytes
/// at a time: a byte of `word ^ needle × 0x01…01` is zero exactly where
/// `word` holds the needle, and `(x - 0x01…01) & !x & 0x80…80` has its
/// lowest set bit in the first zero byte of `x` (bits it may set above
/// that one are never the lowest). All needles must be ASCII for the
/// index to be a `char` boundary of the text `hay` came from.
pub(crate) fn find_any<const N: usize>(hay: &[u8], needles: [u8; N]) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut words = hay.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        let mut hits = 0;
        for needle in needles {
            let x = word ^ (LOW * u64::from(needle));
            hits |= x.wrapping_sub(LOW) & !x & HIGH;
        }
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder().iter().position(|b| needles.contains(b))?;
    Some(at + tail)
}

/// Appends `s` to `out` with every byte of `specials` replaced by its
/// entity; the runs between them are copied whole.
pub(crate) fn push_escaped<const N: usize>(out: &mut String, s: &str, specials: [u8; N]) {
    let mut rest = s;
    while let Some(at) = find_any(rest.as_bytes(), specials) {
        out.push_str(&rest[..at]);
        out.push_str(entity(rest.as_bytes()[at]));
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Length of what [`push_escaped`] appends for `s`.
pub(crate) fn escaped_len<const N: usize>(s: &str, specials: [u8; N]) -> usize {
    let mut len = s.len();
    let mut rest = s.as_bytes();
    while let Some(at) = find_any(rest, specials) {
        len += entity(rest[at]).len() - 1;
        rest = &rest[at + 1..];
    }
    len
}

/// Escapes character data for use as element text.
///
/// Replaces `&`, `<` and `>` with the corresponding predefined entities.
/// `>` is escaped as well (although only `]]>` strictly requires it) so the
/// output is safe in every context.
///
/// # Examples
///
/// ```
/// assert_eq!(whisper_xml::escape_text("a < b & c"), "a &lt; b &amp; c");
/// ```
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s, TEXT_SPECIALS);
    out
}

/// Escapes a string for use inside a double-quoted attribute value.
///
/// In addition to the text escapes, `"` becomes `&quot;` and newlines/tabs
/// are escaped numerically so they survive attribute-value normalization.
///
/// # Examples
///
/// ```
/// assert_eq!(whisper_xml::escape_attr(r#"say "hi""#), "say &quot;hi&quot;");
/// ```
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s, ATTR_SPECIALS);
    out
}

/// Resolves a single entity body (the part between `&` and `;`).
///
/// Supports the five predefined entities and decimal/hexadecimal character
/// references. Returns `None` when the entity is unknown or malformed.
pub(crate) fn resolve_entity(body: &str) -> Option<char> {
    match body {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let rest = body.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

/// Replaces entity references in `s` with the characters they denote.
///
/// Unknown entities are left verbatim (including the `&`/`;`), which makes
/// the function total; the parser performs strict resolution itself.
///
/// # Examples
///
/// ```
/// assert_eq!(whisper_xml::unescape("a &lt; b &amp; &#65;"), "a < b & A");
/// ```
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        match after.find(';') {
            Some(semi) => {
                let body = &after[..semi];
                match resolve_entity(body) {
                    Some(c) => {
                        out.push(c);
                        rest = &after[semi + 1..];
                    }
                    None => {
                        out.push('&');
                        rest = after;
                    }
                }
            }
            None => {
                out.push('&');
                rest = after;
            }
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_escape_round_trip() {
        let original = "x < y && z > \"w\"";
        assert_eq!(unescape(&escape_text(original)), original);
    }

    #[test]
    fn attr_escape_round_trip() {
        let original = "line1\nline2\t\"quoted\" & <tag>";
        assert_eq!(unescape(&escape_attr(original)), original);
    }

    #[test]
    fn numeric_entities_decimal_and_hex() {
        assert_eq!(unescape("&#65;&#x42;&#x63;"), "ABc");
    }

    #[test]
    fn unknown_entity_left_verbatim() {
        assert_eq!(unescape("&nbsp; &x"), "&nbsp; &x");
    }

    #[test]
    fn resolve_rejects_surrogate_code_points() {
        assert_eq!(resolve_entity("#xD800"), None);
        assert_eq!(resolve_entity("#55296"), None);
    }

    #[test]
    fn resolve_handles_unicode() {
        assert_eq!(resolve_entity("#x1F600"), char::from_u32(0x1F600));
    }

    #[test]
    fn find_any_is_the_bytewise_search() {
        // bytes that sit next to the needles and to the borrow in the
        // zero-byte test, at every alignment and length
        let pool = [
            0x00, 0x01, b'%', b'&', b'\'', b';', b'<', b'=', 0x7f, 0x80, 0xa6, 0xbc, 0xff,
        ];
        let mut state = 0x9e37_79b9_u32;
        for len in 0..40 {
            for _ in 0..50 {
                let hay: Vec<u8> = (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        pool[(state >> 24) as usize % pool.len()]
                    })
                    .collect();
                let bytewise = hay.iter().position(|b| [b'<', b'&'].contains(b));
                assert_eq!(find_any(&hay, [b'<', b'&']), bytewise, "{hay:?}");
            }
        }
    }

    #[test]
    fn empty_input_is_identity() {
        assert_eq!(escape_text(""), "");
        assert_eq!(escape_attr(""), "");
        assert_eq!(unescape(""), "");
    }
}
