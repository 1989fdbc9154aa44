//! Parser for DTD declarations (`<!ELEMENT>`, `<!ATTLIST>`, `<!ENTITY>`).
//!
//! Accepts both standalone DTD files and the internal subset captured by the
//! XML reader's DOCTYPE handling.

use crate::content_model::{AttDef, AttDefault, ContentSpec, Particle};
use crate::error::{DtdError, Result};
use crate::symbol::SymbolTable;

/// A raw, unresolved declaration stream as parsed from DTD text.
#[derive(Debug, Default)]
pub struct ParsedDtd {
    pub elements: Vec<RawElementDecl>,
    pub attlists: Vec<RawAttlistDecl>,
}

#[derive(Debug)]
pub struct RawElementDecl {
    pub name: String,
    pub spec: ContentSpec,
}

#[derive(Debug)]
pub struct RawAttlistDecl {
    pub element: String,
    pub attributes: Vec<AttDef>,
}

pub struct DtdParser<'a> {
    input: &'a [u8],
    pos: usize,
    symbols: &'a mut SymbolTable,
}

impl<'a> DtdParser<'a> {
    pub fn new(input: &'a str, symbols: &'a mut SymbolTable) -> Self {
        DtdParser {
            input: input.as_bytes(),
            pos: 0,
            symbols,
        }
    }

    fn err(&self, message: impl Into<String>) -> DtdError {
        DtdError::at(message, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn looking_at(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.looking_at(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<()> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn require_ws(&mut self) -> Result<()> {
        if !matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            return Err(self.err("whitespace required"));
        }
        self.skip_ws();
        Ok(())
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80 => {}
            _ => return Err(self.err("expected a name")),
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.') || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        String::from_utf8(self.input[start..self.pos].to_vec())
            .map_err(|_| self.err("invalid UTF-8 in name"))
    }

    fn parse_quoted(&mut self) -> Result<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted literal")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let text = String::from_utf8(self.input[start..self.pos].to_vec())
                    .map_err(|_| self.err("invalid UTF-8 in literal"))?;
                self.pos += 1;
                return Ok(text);
            }
            self.pos += 1;
        }
        Err(self.err("unterminated quoted literal"))
    }

    /// Parses the complete declaration stream.
    pub fn parse(&mut self) -> Result<ParsedDtd> {
        let mut out = ParsedDtd::default();
        loop {
            self.skip_ws();
            if self.pos >= self.input.len() {
                return Ok(out);
            }
            if self.looking_at("<!--") {
                self.pos += 4;
                match find_sub(&self.input[self.pos..], b"-->") {
                    Some(end) => self.pos += end + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else if self.looking_at("<?") {
                self.pos += 2;
                match find_sub(&self.input[self.pos..], b"?>") {
                    Some(end) => self.pos += end + 2,
                    None => return Err(self.err("unterminated processing instruction")),
                }
            } else if self.looking_at("<!ELEMENT") {
                out.elements.push(self.parse_element_decl()?);
            } else if self.looking_at("<!ATTLIST") {
                out.attlists.push(self.parse_attlist_decl()?);
            } else if self.looking_at("<!ENTITY") {
                self.skip_entity_decl()?;
            } else if self.looking_at("<!NOTATION") {
                // Parsed for tolerance, contents ignored.
                match find_sub(&self.input[self.pos..], b">") {
                    Some(end) => self.pos += end + 1,
                    None => return Err(self.err("unterminated NOTATION declaration")),
                }
            } else if self.peek() == Some(b'%') {
                return Err(
                    self.err("parameter entities are not supported; inline them before parsing")
                );
            } else {
                return Err(self.err("expected a DTD declaration"));
            }
        }
    }

    fn parse_element_decl(&mut self) -> Result<RawElementDecl> {
        self.expect("<!ELEMENT")?;
        self.require_ws()?;
        let name = self.parse_name()?;
        self.require_ws()?;
        let spec = self.parse_content_spec()?;
        self.skip_ws();
        self.expect(">")?;
        Ok(RawElementDecl { name, spec })
    }

    fn parse_content_spec(&mut self) -> Result<ContentSpec> {
        if self.eat("EMPTY") {
            return Ok(ContentSpec::Empty);
        }
        if self.eat("ANY") {
            return Ok(ContentSpec::Any);
        }
        if self.peek() != Some(b'(') {
            return Err(self.err("expected `(`, EMPTY or ANY"));
        }
        // Look ahead for #PCDATA to distinguish mixed content.
        let save = self.pos;
        self.pos += 1; // consume '('
        self.skip_ws();
        if self.looking_at("#PCDATA") {
            self.pos += "#PCDATA".len();
            return self.parse_mixed_tail();
        }
        self.pos = save;
        let particle = self.parse_cp()?;
        Ok(ContentSpec::Children(particle))
    }

    /// Parses the remainder of a mixed model after `(#PCDATA`.
    fn parse_mixed_tail(&mut self) -> Result<ContentSpec> {
        let mut names = Vec::new();
        loop {
            self.skip_ws();
            if self.eat(")") {
                // `(#PCDATA)` may optionally be followed by `*`;
                // `(#PCDATA | a)*` requires it.
                let starred = self.eat("*");
                if !names.is_empty() && !starred {
                    return Err(self.err("mixed content with elements must end in `)*`"));
                }
                return Ok(ContentSpec::Mixed(names));
            }
            self.expect("|")?;
            self.skip_ws();
            let name = self.parse_name()?;
            let sym = self.symbols.intern(&name);
            if !names.contains(&sym) {
                names.push(sym);
            }
        }
    }

    /// Parses a content particle: name or parenthesised group, with an
    /// optional occurrence modifier.
    fn parse_cp(&mut self) -> Result<Particle> {
        self.skip_ws();
        let base = if self.eat("(") {
            self.parse_group()?
        } else {
            let name = self.parse_name()?;
            Particle::Name(self.symbols.intern(&name))
        };
        Ok(match self.peek() {
            Some(b'?') => {
                self.pos += 1;
                Particle::Opt(Box::new(base))
            }
            Some(b'*') => {
                self.pos += 1;
                Particle::Star(Box::new(base))
            }
            Some(b'+') => {
                self.pos += 1;
                Particle::Plus(Box::new(base))
            }
            _ => base,
        })
    }

    /// Parses the inside of `( ... )`: either a `,`-sequence or a
    /// `|`-choice (the XML spec forbids mixing them at one level).
    fn parse_group(&mut self) -> Result<Particle> {
        let first = self.parse_cp()?;
        self.skip_ws();
        match self.peek() {
            Some(b')') => {
                self.pos += 1;
                // A single-item group is a one-element sequence.
                Ok(first)
            }
            Some(b',') => {
                let mut items = vec![first];
                while self.eat(",") {
                    items.push(self.parse_cp()?);
                    self.skip_ws();
                }
                self.expect(")")?;
                Ok(Particle::Seq(items))
            }
            Some(b'|') => {
                let mut items = vec![first];
                while self.eat("|") {
                    items.push(self.parse_cp()?);
                    self.skip_ws();
                }
                self.expect(")")?;
                Ok(Particle::Choice(items))
            }
            _ => Err(self.err("expected `,`, `|` or `)` in content model")),
        }
    }

    fn parse_attlist_decl(&mut self) -> Result<RawAttlistDecl> {
        self.expect("<!ATTLIST")?;
        self.require_ws()?;
        let element = self.parse_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            if self.eat(">") {
                return Ok(RawAttlistDecl {
                    element,
                    attributes,
                });
            }
            let name = self.parse_name()?;
            self.require_ws()?;
            let att_type = self.parse_att_type()?;
            self.require_ws()?;
            let default = self.parse_att_default()?;
            attributes.push(AttDef {
                name,
                att_type,
                default,
            });
        }
    }

    fn parse_att_type(&mut self) -> Result<String> {
        if self.peek() == Some(b'(') {
            // Enumeration: capture verbatim up to the closing paren.
            let start = self.pos;
            let mut depth = 0;
            while let Some(b) = self.bump() {
                if b == b'(' {
                    depth += 1;
                } else if b == b')' {
                    depth -= 1;
                    if depth == 0 {
                        return String::from_utf8(self.input[start..self.pos].to_vec())
                            .map_err(|_| self.err("invalid UTF-8 in enumeration"));
                    }
                }
            }
            return Err(self.err("unterminated enumeration"));
        }
        for t in [
            "CDATA", "IDREFS", "IDREF", "ID", "ENTITIES", "ENTITY", "NMTOKENS", "NMTOKEN",
        ] {
            if self.eat(t) {
                return Ok(t.to_string());
            }
        }
        if self.eat("NOTATION") {
            self.require_ws()?;
            if self.peek() != Some(b'(') {
                return Err(self.err("expected `(` after NOTATION"));
            }
            let start = self.pos;
            while let Some(b) = self.bump() {
                if b == b')' {
                    let inner = String::from_utf8(self.input[start..self.pos].to_vec())
                        .map_err(|_| self.err("invalid UTF-8 in notation list"))?;
                    return Ok(format!("NOTATION {inner}"));
                }
            }
            return Err(self.err("unterminated notation list"));
        }
        Err(self.err("expected an attribute type"))
    }

    fn parse_att_default(&mut self) -> Result<AttDefault> {
        if self.eat("#REQUIRED") {
            return Ok(AttDefault::Required);
        }
        if self.eat("#IMPLIED") {
            return Ok(AttDefault::Implied);
        }
        if self.eat("#FIXED") {
            self.require_ws()?;
            return Ok(AttDefault::Fixed(self.parse_quoted()?));
        }
        Ok(AttDefault::Default(self.parse_quoted()?))
    }

    /// Checks and skips `<!ENTITY name "value">`, and external or
    /// parameter entity declarations. Declared entities are not expanded:
    /// the XML reader knows only the five predefined entities and
    /// character references.
    fn skip_entity_decl(&mut self) -> Result<()> {
        self.expect("<!ENTITY")?;
        self.require_ws()?;
        let skip_to_close = self.eat("%") || {
            self.parse_name()?;
            self.require_ws()?;
            self.looking_at("SYSTEM") || self.looking_at("PUBLIC")
        };
        if skip_to_close {
            match find_sub(&self.input[self.pos..], b">") {
                Some(end) => self.pos += end + 1,
                None => return Err(self.err("unterminated entity declaration")),
            }
            return Ok(());
        }
        self.parse_quoted()?;
        self.skip_ws();
        self.expect(">")
    }
}

fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(input: &str) -> (ParsedDtd, SymbolTable) {
        let mut table = SymbolTable::new();
        let parsed = DtdParser::new(input, &mut table)
            .parse()
            .expect("parse failed");
        (parsed, table)
    }

    #[test]
    fn paper_weak_dtd() {
        let (parsed, table) = parse("<!ELEMENT bib (book)*>\n<!ELEMENT book (title|author)*>");
        assert_eq!(parsed.elements.len(), 2);
        assert_eq!(parsed.elements[0].name, "bib");
        match &parsed.elements[0].spec {
            ContentSpec::Children(p) => {
                assert_eq!(p.display(&table).to_string(), "book*");
            }
            other => panic!("unexpected spec {other:?}"),
        }
        match &parsed.elements[1].spec {
            ContentSpec::Children(p) => {
                assert_eq!(p.display(&table).to_string(), "(title|author)*");
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn paper_fig1_dtd() {
        let (parsed, table) = parse(
            "<!ELEMENT bib (book)*>\n<!ELEMENT book (title,(author+|editor+),publisher,price)>",
        );
        match &parsed.elements[1].spec {
            ContentSpec::Children(p) => {
                assert_eq!(
                    p.display(&table).to_string(),
                    "(title,(author+|editor+),publisher,price)"
                );
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn empty_and_any() {
        let (parsed, _) = parse("<!ELEMENT a EMPTY><!ELEMENT b ANY>");
        assert_eq!(parsed.elements[0].spec, ContentSpec::Empty);
        assert_eq!(parsed.elements[1].spec, ContentSpec::Any);
    }

    #[test]
    fn pcdata_only() {
        let (parsed, _) = parse("<!ELEMENT title (#PCDATA)>");
        assert_eq!(parsed.elements[0].spec, ContentSpec::Mixed(vec![]));
    }

    #[test]
    fn mixed_with_elements() {
        let (parsed, table) = parse("<!ELEMENT p (#PCDATA | em | strong)*>");
        match &parsed.elements[0].spec {
            ContentSpec::Mixed(names) => {
                let rendered: Vec<_> = names.iter().map(|&s| table.name(s)).collect();
                assert_eq!(rendered, vec!["em", "strong"]);
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn mixed_without_star_rejected() {
        let mut table = SymbolTable::new();
        let err = DtdParser::new("<!ELEMENT p (#PCDATA | em)>", &mut table)
            .parse()
            .unwrap_err();
        assert!(err.message.contains(")*"));
    }

    #[test]
    fn nested_groups() {
        let (parsed, table) = parse("<!ELEMENT a ((b, c)+ | (d?, e))*>");
        match &parsed.elements[0].spec {
            ContentSpec::Children(p) => {
                assert_eq!(p.display(&table).to_string(), "((b,c)+|(d?,e))*");
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn attlist_parsed() {
        let (parsed, _) = parse(
            r#"<!ELEMENT book (title)>
               <!ATTLIST book year CDATA #REQUIRED
                              id ID #IMPLIED
                              lang (en|de) "en"
                              rel CDATA #FIXED "canonical">"#,
        );
        let attlist = &parsed.attlists[0];
        assert_eq!(attlist.element, "book");
        assert_eq!(attlist.attributes.len(), 4);
        assert_eq!(attlist.attributes[0].name, "year");
        assert_eq!(attlist.attributes[0].default, AttDefault::Required);
        assert_eq!(attlist.attributes[1].att_type, "ID");
        assert_eq!(attlist.attributes[1].default, AttDefault::Implied);
        assert_eq!(attlist.attributes[2].att_type, "(en|de)");
        assert_eq!(
            attlist.attributes[2].default,
            AttDefault::Default("en".to_string())
        );
        assert_eq!(
            attlist.attributes[3].default,
            AttDefault::Fixed("canonical".to_string())
        );
    }

    #[test]
    fn external_entity_skipped() {
        let (parsed, _) = parse(r#"<!ENTITY chap1 SYSTEM "chap1.xml"><!ELEMENT a EMPTY>"#);
        assert_eq!(parsed.elements.len(), 1);
    }

    #[test]
    fn comments_and_pis_skipped() {
        let (parsed, _) = parse(
            "<!-- a comment with <!ELEMENT fake (x)> inside -->\n<?pi data?>\n<!ELEMENT real EMPTY>",
        );
        assert_eq!(parsed.elements.len(), 1);
        assert_eq!(parsed.elements[0].name, "real");
    }

    #[test]
    fn parameter_entities_rejected() {
        let mut table = SymbolTable::new();
        let err = DtdParser::new("%common;", &mut table).parse().unwrap_err();
        assert!(err.message.contains("parameter entities"));
    }

    #[test]
    fn garbage_rejected() {
        let mut table = SymbolTable::new();
        assert!(DtdParser::new("<!BOGUS x>", &mut table).parse().is_err());
    }

    #[test]
    fn single_name_group() {
        let (parsed, table) = parse("<!ELEMENT a (b)>");
        match &parsed.elements[0].spec {
            ContentSpec::Children(p) => {
                assert_eq!(p.display(&table).to_string(), "b");
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn whitespace_tolerance() {
        let (parsed, table) = parse("<!ELEMENT a ( b , c , d )>");
        match &parsed.elements[0].spec {
            ContentSpec::Children(p) => {
                assert_eq!(p.display(&table).to_string(), "(b,c,d)");
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn mixed_separators_rejected() {
        // The XML spec forbids mixing `,` and `|` at one group level.
        let mut table = SymbolTable::new();
        assert!(DtdParser::new("<!ELEMENT a (b, c | d)>", &mut table)
            .parse()
            .is_err());
    }
}
