//! Content models: the right-hand sides of `<!ELEMENT ...>` declarations.

use crate::symbol::{Symbol, SymbolTable};
use std::fmt;

/// A regular expression over child element names ("content particle" in the
/// XML specification, extended with an explicit epsilon).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Particle {
    /// The empty word (used for `EMPTY` and `(#PCDATA)` models).
    Epsilon,
    /// A single child element.
    Name(Symbol),
    /// Concatenation `(p1, p2, ...)`.
    Seq(Vec<Particle>),
    /// Alternation `(p1 | p2 | ...)`.
    Choice(Vec<Particle>),
    /// `p?`
    Opt(Box<Particle>),
    /// `p*`
    Star(Box<Particle>),
    /// `p+`
    Plus(Box<Particle>),
}

impl Particle {
    /// All element symbols mentioned in the particle.
    pub fn symbols(&self, out: &mut Vec<Symbol>) {
        match self {
            Particle::Epsilon => {}
            Particle::Name(s) => {
                if !out.contains(s) {
                    out.push(*s);
                }
            }
            Particle::Seq(ps) | Particle::Choice(ps) => {
                for p in ps {
                    p.symbols(out);
                }
            }
            Particle::Opt(p) | Particle::Star(p) | Particle::Plus(p) => p.symbols(out),
        }
    }

    /// Renders the particle with names resolved through `table`.
    pub fn display<'a>(&'a self, table: &'a SymbolTable) -> ParticleDisplay<'a> {
        ParticleDisplay {
            particle: self,
            table,
        }
    }
}

/// Helper for [`Particle::display`].
pub struct ParticleDisplay<'a> {
    particle: &'a Particle,
    table: &'a SymbolTable,
}

impl fmt::Display for ParticleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &Particle, table: &SymbolTable, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match p {
                Particle::Epsilon => write!(f, "()"),
                Particle::Name(s) => write!(f, "{}", table.name(*s)),
                Particle::Seq(ps) => {
                    write!(f, "(")?;
                    for (i, sub) in ps.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        go(sub, table, f)?;
                    }
                    write!(f, ")")
                }
                Particle::Choice(ps) => {
                    write!(f, "(")?;
                    for (i, sub) in ps.iter().enumerate() {
                        if i > 0 {
                            write!(f, "|")?;
                        }
                        go(sub, table, f)?;
                    }
                    write!(f, ")")
                }
                Particle::Opt(sub) => {
                    go(sub, table, f)?;
                    write!(f, "?")
                }
                Particle::Star(sub) => {
                    go(sub, table, f)?;
                    write!(f, "*")
                }
                Particle::Plus(sub) => {
                    go(sub, table, f)?;
                    write!(f, "+")
                }
            }
        }
        go(self.particle, self.table, f)
    }
}

/// The declared content of an element type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentSpec {
    /// `EMPTY` — no children, no text.
    Empty,
    /// `ANY` — any sequence of declared elements and text.
    Any,
    /// `(#PCDATA | a | b)*` — text freely interleaved with the listed
    /// elements. An empty list is `(#PCDATA)`.
    Mixed(Vec<Symbol>),
    /// Element content: a regular expression over child elements, with
    /// whitespace-only text permitted between them and other text forbidden.
    Children(Particle),
}

impl ContentSpec {
    /// True when non-whitespace character data may occur among the children.
    pub fn allows_text(&self) -> bool {
        matches!(self, ContentSpec::Any | ContentSpec::Mixed(_))
    }

    /// The particle describing the permitted child-element sequences.
    /// `all_elements` is used to expand `ANY`.
    pub fn to_particle(&self, all_elements: &[Symbol]) -> Particle {
        match self {
            ContentSpec::Empty => Particle::Epsilon,
            ContentSpec::Any => Particle::Star(Box::new(Particle::Choice(
                all_elements.iter().copied().map(Particle::Name).collect(),
            ))),
            ContentSpec::Mixed(symbols) => {
                if symbols.is_empty() {
                    Particle::Epsilon
                } else {
                    Particle::Star(Box::new(Particle::Choice(
                        symbols.iter().copied().map(Particle::Name).collect(),
                    )))
                }
            }
            ContentSpec::Children(p) => p.clone(),
        }
    }
}

/// Default declaration of an attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttDefault {
    Required,
    Implied,
    Fixed(String),
    Default(String),
}

/// One attribute definition from an `<!ATTLIST ...>` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttDef {
    pub name: String,
    /// The declared type, stored verbatim (`CDATA`, `ID`, an enumeration...).
    pub att_type: String,
    pub default: AttDefault,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_deduplicated() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let p = Particle::Seq(vec![
            Particle::Name(a),
            Particle::Star(Box::new(Particle::Choice(vec![
                Particle::Name(a),
                Particle::Name(b),
            ]))),
        ]);
        let mut syms = Vec::new();
        p.symbols(&mut syms);
        assert_eq!(syms, vec![a, b]);
    }

    #[test]
    fn display_round_trips_shape() {
        let mut t = SymbolTable::new();
        let title = t.intern("title");
        let author = t.intern("author");
        let p = Particle::Seq(vec![
            Particle::Name(title),
            Particle::Plus(Box::new(Particle::Name(author))),
        ]);
        assert_eq!(p.display(&t).to_string(), "(title,author+)");
    }

    #[test]
    fn mixed_allows_text() {
        assert!(ContentSpec::Mixed(vec![]).allows_text());
        assert!(ContentSpec::Any.allows_text());
        assert!(!ContentSpec::Empty.allows_text());
        assert!(!ContentSpec::Children(Particle::Epsilon).allows_text());
    }

    #[test]
    fn any_expands_to_star_choice() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let p = ContentSpec::Any.to_particle(&[a, b]);
        assert_eq!(
            p,
            Particle::Star(Box::new(Particle::Choice(vec![
                Particle::Name(a),
                Particle::Name(b)
            ])))
        );
    }
}
