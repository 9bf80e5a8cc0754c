//! The parser's hot paths were rewritten in place (flat namespace stack,
//! byte-level ASCII scanning); its verdicts were not. A seeded corpus —
//! well-formed trees with default, prefixed, shadowed and un-declared
//! namespaces, non-ASCII names and text, entities, CDATA, comments and
//! PIs, plus single-character mutations and truncations of each — gets
//! from `parse_document` and `scan_start_tags` exactly what the parent
//! commit's parser gave: the same tree (digest of its `Debug` form) or the
//! same error kind at the same byte offset. `fixtures/parse_parity.txt`
//! was recorded at the parent commit with this same file:
//!
//! ```text
//! cargo test -p whisper-xml --test parse_parity -- --ignored --nocapture print_verdicts
//! ```
//!
//! The one intended difference: documents nested deeper than the parser's
//! depth cap (the `deep-*` family; the parent had no cap and overflowed the
//! stack on deep enough input) now get the typed depth error.

use std::ops::ControlFlow;
use whisper_xml::{parse_document, scan_start_tags};

/// SplitMix64: the corpus must not move when a dependency's generator does.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.below(pool.len())]
    }
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn nested(depth: usize) -> String {
    let mut s = String::new();
    for _ in 0..depth {
        s.push_str("<a>");
    }
    s.push('x');
    for _ in 0..depth {
        s.push_str("</a>");
    }
    s
}

const SOAP: &str = "http://www.w3.org/2003/05/soap-envelope";

/// Hand-written documents, one per feature the rewrite touched.
fn written_bases() -> Vec<(String, String)> {
    let soap_request = format!(
        "<soap:Envelope xmlns:soap=\"{SOAP}\"><soap:Header><TraceId mustUnderstand=\"true\" \
         role=\"{SOAP}/role/next\">t-9</TraceId></soap:Header><soap:Body><StudentInformation>\
         <StudentID>u1000</StudentID></StudentInformation></soap:Body></soap:Envelope>"
    );
    let soap_fault = format!(
        "<soap:Envelope xmlns:soap=\"{SOAP}\"><soap:Body><soap:Fault><Code xmlns=\"{SOAP}\">\
         <Value>soap:Receiver</Value></Code><Reason xmlns=\"{SOAP}\"><Text>no &lt;live&gt; \
         b-peer</Text></Reason></soap:Fault></soap:Body></soap:Envelope>"
    );
    let bases: Vec<(&str, String)> = vec![
        ("empty-element", "<a/>".into()),
        ("text-and-attrs", r#"<a k="v"><b>hi</b><b>bye</b></a>"#.into()),
        (
            "default-and-prefixed",
            r#"<root xmlns="urn:d" xmlns:p="urn:p"><p:x p:a="1" b="2"/><y/></root>"#.into(),
        ),
        (
            "shadowed",
            r#"<a xmlns:p="urn:1"><b xmlns:p="urn:2"><p:c/></b><p:d/></a>"#.into(),
        ),
        (
            "shadowed-default",
            r#"<a xmlns="urn:1"><b xmlns="urn:2"><c/></b><d/></a>"#.into(),
        ),
        (
            "undeclared-default",
            r#"<a xmlns="urn:d"><b xmlns=""><c/></b><d/></a>"#.into(),
        ),
        (
            "undeclared-prefix",
            r#"<a xmlns:p="urn:p"><p:ok/><b xmlns:p=""><p:c/></b></a>"#.into(),
        ),
        (
            "redeclared-after-undeclare",
            r#"<a xmlns:p="urn:p"><b xmlns:p=""><c xmlns:p="urn:q"><p:d/></c></b><p:e/></a>"#
                .into(),
        ),
        (
            "declared-on-use",
            r#"<p:a xmlns:p="urn:p" p:k="1"><q:b xmlns:q="urn:q" q:k="2" p:j="3"/></p:a>"#.into(),
        ),
        (
            "same-local-two-prefixes",
            r#"<a xmlns:p="urn:u" xmlns:q="urn:u" p:k="1" q:k="2" k="3"/>"#.into(),
        ),
        ("duplicate-attr", r#"<a k="1" j="2" k="3"/>"#.into()),
        ("duplicate-xmlns", r#"<a xmlns="urn:a" xmlns="urn:b"/>"#.into()),
        (
            "xml-prefix",
            r#"<a xml:lang="en"><b xml:space="preserve"> </b></a>"#.into(),
        ),
        ("xmlns-prefix-element", r#"<xmlns:a/>"#.into()),
        (
            "non-ascii",
            "<données xmlns:π=\"urn:π\"><π:élément attr-ü=\"värde ☃\">naïve — ☃ 𝄞 \u{a0}\
             </π:élément><名前>値</名前></données>"
                .into(),
        ),
        (
            "non-ascii-whitespace",
            "<a\u{a0}k=\"v\"\u{2003}><b\u{3000}/></a\u{85}>\u{2028}".into(),
        ),
        (
            "entities",
            r#"<a k="&lt;&quot;&#65;&apos;&#x1F600;&gt;" j='"&amp;"'>x &amp; y &gt; z &#10;&#xe9;</a>"#
                .into(),
        ),
        ("bad-entities", "<a k=\"&nope;\">&#xD800; &toolongentityname; &amp</a>".into()),
        (
            "markup",
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- pre --><?pi some data?>\
             <!DOCTYPE a [<!ENTITY x \"y\">]>\n<a><!-- note --><?php echo ?>\
             <![CDATA[<raw> & ]] stuff]]><b/><?empty?></a>\n<!-- post -->\n"
                .into(),
        ),
        (
            "decl-single-quotes",
            "<?xml version='1.1' encoding='latin-1' standalone='yes'?><a/>".into(),
        ),
        ("decl-no-version", "<?xml encoding=\"UTF-8\"?><a/>".into()),
        (
            "whitespace",
            "  <a  k = \"v\"\n\tj='w'\r\n><b  /><c\n></c ></a >\n \t".into(),
        ),
        ("mixed-content", "<a> one <b/> two <c>three</c> four </a>".into()),
        ("bom", "\u{feff}<a/>".into()),
        ("names", "<_a.b-c1 a_1.2-3=\"\"><A:b xmlns:A=\"u\"/></_a.b-c1>".into()),
        ("bad-names", "<a><1b/><c:d:e/><:f/><g:/><-h/></a>".into()),
        ("mismatched", "<a><b></a></b>".into()),
        ("trailing", "<a/><b/>".into()),
        ("lt-in-attr", "<a k=\"a<b\"/>".into()),
        ("gt-in-text", "<a>1 > 0 ]]> \" '</a>".into()),
        ("soap-request", soap_request),
        ("soap-fault", soap_fault),
        ("deep-within-cap", nested(40)),
        ("deep-beyond-cap", nested(300)),
    ];
    bases
        .into_iter()
        .map(|(name, text)| (name.to_string(), text))
        .collect()
}

const NAMES: [&str; 8] = ["a", "item", "StudentID", "x-1", "_u", "é", "名", "b.c"];
const PREFIXES: [&str; 4] = ["p", "q", "soap", "π"];
const URIS: [&str; 4] = ["urn:1", "urn:2", "http://example.org/ns", ""];
const TEXTS: [&str; 8] = [
    "plain",
    " ",
    "a &amp; b",
    "&lt;tag&gt;",
    "naïve ☃",
    "&#65;&#x42;",
    "line\nbreak\ttab",
    "0123456789abcdef0123456789abcdef",
];

/// A generated element: mostly well-formed, namespaces declared at random
/// (so some prefixes resolve through a parent, some are shadowed, some are
/// un-declared again, a few were never declared).
fn gen_element(rng: &mut Rng, depth: usize, out: &mut String) {
    let prefix = (rng.below(3) == 0).then(|| rng.pick(&PREFIXES));
    let mut name = String::new();
    if let Some(p) = prefix {
        name.push_str(p);
        name.push(':');
    }
    name.push_str(rng.pick(&NAMES));
    out.push('<');
    out.push_str(&name);
    // declare the prefix here four times out of five; otherwise it is left
    // to an ancestor, or to nobody
    if let Some(p) = prefix {
        if rng.below(5) != 0 {
            out.push_str(&format!(" xmlns:{p}=\"{}\"", rng.pick(&URIS[..3])));
        }
    }
    if rng.below(4) == 0 {
        out.push_str(&format!(" xmlns=\"{}\"", rng.pick(&URIS)));
    }
    if rng.below(6) == 0 {
        out.push_str(&format!(
            " xmlns:{}=\"{}\"",
            rng.pick(&PREFIXES),
            rng.pick(&URIS)
        ));
    }
    for i in 0..rng.below(3) {
        let quote = if rng.below(2) == 0 { '"' } else { '\'' };
        out.push_str(&format!(
            " {}{i}={quote}{}{quote}",
            rng.pick(&NAMES),
            rng.pick(&TEXTS)
        ));
    }
    let children = if depth >= 4 { 0 } else { rng.below(4) };
    if children == 0 && rng.below(2) == 0 {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..children {
        match rng.below(8) {
            0 => out.push_str("<!-- c -->"),
            1 => out.push_str("<![CDATA[ <c> & ]]>"),
            2 => out.push_str("<?pi d?>"),
            3 | 4 => out.push_str(rng.pick(&TEXTS)),
            _ => gen_element(rng, depth + 1, out),
        }
    }
    out.push_str("</");
    out.push_str(&name);
    out.push('>');
}

fn generated_bases() -> Vec<(String, String)> {
    let mut rng = Rng(0x5eed_0017);
    (0..40)
        .map(|i| {
            let mut text = String::new();
            gen_element(&mut rng, 0, &mut text);
            (format!("gen{i}"), text)
        })
        .collect()
}

/// Characters a mutation writes: every delimiter the parser searches for,
/// name and non-name characters, ASCII and not.
const ALPHABET: [char; 28] = [
    '<', '>', '&', ';', '"', '\'', '=', '/', ':', ' ', '\t', '\n', '!', '?', '[', ']', '#', '-',
    '.', '_', 'x', 'A', '0', 'é', '名', '\u{a0}', '\u{2028}', '𝄞',
];

/// `base` and its damaged variants: single-character replacements,
/// insertions and deletions at seeded positions, then truncations.
fn variants(name: &str, base: &str, rng: &mut Rng) -> Vec<String> {
    let mut out = vec![base.to_string()];
    let bounds: Vec<usize> = base.char_indices().map(|(i, _)| i).collect();
    // deep documents are one shape all the way down: a handful of variants
    // says as much as hundreds
    let (mutations, truncations) = if name.starts_with("deep-") {
        (6, 6)
    } else {
        (28, 10)
    };
    for _ in 0..mutations {
        let at = bounds[rng.below(bounds.len())];
        let width = base[at..].chars().next().map_or(0, char::len_utf8);
        let c = ALPHABET[rng.below(ALPHABET.len())];
        let (head, tail) = (&base[..at], &base[at + width..]);
        out.push(match rng.below(4) {
            0 => format!("{head}{tail}"),
            1 => format!("{head}{c}{}", &base[at..]),
            _ => format!("{head}{c}{tail}"),
        });
    }
    for _ in 0..truncations {
        let at = bounds[rng.below(bounds.len())];
        out.push(base[..at].to_string());
    }
    out
}

/// Every base document by name, with its variants (the base first).
fn corpus() -> Vec<(String, Vec<String>)> {
    let mut rng = Rng(0x5eed_0018);
    let mut bases = written_bases();
    bases.extend(generated_bases());
    bases
        .into_iter()
        .map(|(name, text)| {
            let texts = variants(&name, &text, &mut rng);
            (name, texts)
        })
        .collect()
}

/// `XmlError`'s `Debug` form cut down to `Kind(..)@offset`.
fn short(e: &whisper_xml::XmlError) -> String {
    let full = format!("{e:?}");
    let inner = full
        .strip_prefix("XmlError { kind: ")
        .and_then(|s| s.strip_suffix(" }"))
        .expect("XmlError { kind: .., offset: .. }");
    let (kind, offset) = inner.rsplit_once(", offset: ").expect("offset comes last");
    format!("{kind}@{offset}")
}

/// What the parser says about `text`: `parse_document`'s tree digest or
/// error, then the digest of every start tag `scan_start_tags` visits, or
/// its error (`=` when it is `parse_document`'s).
fn verdict(text: &str) -> String {
    let parsed = match parse_document(text) {
        Ok(doc) => format!("{:016x}", fnv1a(&format!("{doc:?}"))),
        Err(e) => short(&e),
    };
    let mut tags = String::new();
    let scanned = scan_start_tags(text, |depth, tag| {
        tags.push_str(&format!("{depth}:{}:{:?};", tag.name(), tag.ns()));
        ControlFlow::Continue(())
    });
    let scanned = match scanned {
        Ok(()) => format!("{:016x}", fnv1a(&tags)),
        Err(e) => short(&e),
    };
    if scanned == parsed {
        format!("{parsed} =")
    } else {
        format!("{parsed} {scanned}")
    }
}

/// Depth of the deepest element `text` opens before it ends or breaks —
/// counted from the text, not by the parser under test.
fn nesting(text: &str) -> usize {
    text.matches("<a>").count()
}

/// One line per base document: its name, then the verdict on each of its
/// variants, tab-separated.
const PARENT: &str = include_str!("fixtures/parse_parity.txt");

#[test]
fn verdicts_equal_the_parent_parsers() {
    let corpus = corpus();
    assert_eq!(
        corpus.len(),
        PARENT.lines().count(),
        "corpus and fixture differ in size"
    );
    let mut beyond_cap = 0;
    for ((name, texts), line) in corpus.iter().zip(PARENT.lines()) {
        let mut recorded = line.split('\t');
        assert_eq!(
            recorded.next(),
            Some(name.as_str()),
            "corpus and fixture differ in order"
        );
        let recorded: Vec<&str> = recorded.collect();
        assert_eq!(
            texts.len(),
            recorded.len(),
            "{name}: variants and fixture differ in size"
        );
        for (n, (text, parent)) in texts.iter().zip(recorded).enumerate() {
            let now = verdict(text);
            if name == "deep-beyond-cap" && now.starts_with("DepthExceeded") {
                // the intended difference: a typed error where the parent
                // recursed on (and, deeper still, overflowed the stack)
                assert!(
                    nesting(text) > 128,
                    "{name}#{n}: depth error on a shallow document"
                );
                beyond_cap += 1;
                continue;
            }
            assert_eq!(now, parent, "{name}#{n}: {text:?}");
        }
    }
    assert!(beyond_cap > 0, "the corpus never reached the depth cap");
}

#[test]
#[ignore = "prints the fixture; run at the parent commit to record it"]
fn print_verdicts() {
    for (name, texts) in corpus() {
        let verdicts: Vec<String> = texts.iter().map(|t| verdict(t)).collect();
        println!("{name}\t{}", verdicts.join("\t"));
    }
}
