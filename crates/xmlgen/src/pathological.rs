//! Pathological document shapes for the workload matrix.
//!
//! Every number this repo publishes used to be proven on one friendly
//! bibliography recording; these generators probe the corners instead:
//!
//! * [`deep_string`] — recursion depth (stack discipline, `MAX_DEPTH`,
//!   shard seams inside a single element's scope);
//! * [`attr_heavy_string`] — attribute-dominated bytes (attribute parsing,
//!   defaults injection, per-event attribute lists);
//! * [`text_heavy_string`] — text-dominated bytes with entities sprinkled
//!   in (scanner `read_until` runs, unescaping, text-run coalescing);
//! * [`mint_string`] — a **name-minting adversary**: the distinct-name
//!   vocabulary grows with the document, which is exactly the input a
//!   reader closed at the plan's vocabulary exists for.
//!
//! The attribute/text/mint shapes stay valid under the paper's weak DTD
//! (`book (title|author)*`; undeclared *attributes* are permitted), so all
//! three engine architectures — including validating FluX — can run the
//! standard Q3 workload over them. The deep shape uses its own recursive
//! element and is exercised at the event-stream tier.
//!
//! All generation is seeded and deterministic, like the rest of the crate.

use crate::text;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`deep_string`]: `spines` chains of `depth` nested
/// `<d>` elements, each with a text leaf at the bottom.
#[derive(Debug, Clone)]
pub struct DeepConfig {
    /// Nesting depth of each spine (the element stack reaches this).
    pub depth: usize,
    /// Number of consecutive spines under the root (scales bytes without
    /// scaling depth).
    pub spines: usize,
    pub seed: u64,
}

impl DeepConfig {
    pub fn new(depth: usize, spines: usize, seed: u64) -> Self {
        DeepConfig {
            depth,
            spines,
            seed,
        }
    }
}

/// A document of repeated deeply nested spines: `<deep><d><d>…<leaf>text
/// </leaf>…</d></d></deep>`. Depth is the adversarial axis; the reader's
/// `MAX_DEPTH` guard and the shard replay's global stack both have to walk
/// every level.
pub fn deep_string(config: &DeepConfig) -> String {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut doc = String::from("<deep>");
    for _ in 0..config.spines.max(1) {
        for _ in 0..config.depth {
            doc.push_str("<d>");
        }
        doc.push_str("<leaf>");
        doc.push_str(&text::sentence(&mut rng, 3));
        doc.push_str("</leaf>");
        for _ in 0..config.depth {
            doc.push_str("</d>");
        }
    }
    doc.push_str("</deep>");
    doc
}

/// Configuration for [`attr_heavy_string`].
#[derive(Debug, Clone)]
pub struct AttrHeavyConfig {
    /// Number of `book` elements.
    pub books: usize,
    /// Attributes per element (books, titles and authors all carry them).
    pub attrs: usize,
    pub seed: u64,
}

impl AttrHeavyConfig {
    pub fn new(books: usize, attrs: usize, seed: u64) -> Self {
        AttrHeavyConfig { books, attrs, seed }
    }
}

/// A weak-DTD-valid bibliography whose bytes are dominated by attributes:
/// every element carries `attrs` of them, drawn from a small fixed
/// vocabulary (`a0..a15`) so the interner is *not* stressed — this shape
/// isolates attribute parsing and per-event attribute lists.
pub fn attr_heavy_string(config: &AttrHeavyConfig) -> String {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut doc = String::from("<bib>");
    let push_attrs = |doc: &mut String, rng: &mut SmallRng, n: usize| {
        for a in 0..n {
            doc.push_str(&format!(
                " a{}=\"{}\"",
                a % 16,
                text::sentence(rng, 1 + a % 3)
            ));
        }
    };
    for b in 0..config.books {
        doc.push_str("<book");
        push_attrs(&mut doc, &mut rng, config.attrs);
        doc.push('>');
        doc.push_str("<title");
        push_attrs(&mut doc, &mut rng, config.attrs);
        doc.push_str(&format!(">T{b}</title>"));
        for _ in 0..rng.gen_range(1usize..3) {
            doc.push_str("<author");
            push_attrs(&mut doc, &mut rng, config.attrs);
            doc.push('>');
            doc.push_str(&text::name(&mut rng));
            doc.push_str("</author>");
        }
        doc.push_str("</book>");
    }
    doc.push_str("</bib>");
    doc
}

/// Configuration for [`text_heavy_string`].
#[derive(Debug, Clone)]
pub struct TextHeavyConfig {
    pub books: usize,
    /// Words per title/author text run (the bulk of the document).
    pub words: usize,
    pub seed: u64,
}

impl TextHeavyConfig {
    pub fn new(books: usize, words: usize, seed: u64) -> Self {
        TextHeavyConfig { books, words, seed }
    }
}

/// A weak-DTD-valid bibliography dominated by long text runs, with
/// entities (`&amp;`, `&lt;`) sprinkled in so the fast `read_until` path
/// has to fall back to unescaping mid-run.
pub fn text_heavy_string(config: &TextHeavyConfig) -> String {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut doc = String::from("<bib>");
    for _ in 0..config.books {
        doc.push_str("<book><title>");
        push_long_text(&mut doc, &mut rng, config.words);
        doc.push_str("</title><author>");
        push_long_text(&mut doc, &mut rng, config.words);
        doc.push_str("</author></book>");
    }
    doc.push_str("</bib>");
    doc
}

fn push_long_text(doc: &mut String, rng: &mut SmallRng, words: usize) {
    for i in 0..words.max(1) {
        if i > 0 {
            // Every 13th separator is an entity: text runs keep their
            // length but stop being pure memchr fodder.
            doc.push_str(match i % 13 {
                0 => " &amp; ",
                6 => " &lt; ",
                _ => " ",
            });
        }
        doc.push_str(&text::word(rng));
    }
}

/// Configuration for [`mint_string`].
#[derive(Debug, Clone)]
pub struct MintConfig {
    pub books: usize,
    /// Freshly minted attribute names per book.
    pub names_per_book: usize,
    pub seed: u64,
    /// Put minted names only on `book` elements (not on the buffered
    /// `title`/`author` subtrees). With `true`, a query that buffers only
    /// titles and authors (Q3) never copies a minted name into the buffer
    /// store — the memory-bound tests rely on this to isolate the
    /// interner axis from legitimate buffered content.
    pub spare_buffered_subtrees: bool,
}

impl MintConfig {
    pub fn new(books: usize, names_per_book: usize, seed: u64) -> Self {
        MintConfig {
            books,
            names_per_book,
            seed,
            spare_buffered_subtrees: true,
        }
    }
}

/// The name-minting adversary: a weak-DTD-valid bibliography where every
/// book carries attributes whose names are **globally unique** — the
/// distinct-name vocabulary grows linearly with the document, so an open
/// reader's table does too. A closed reader's table stays at the DTD's
/// vocabulary and minted names travel as overflow + literal spelling;
/// nothing observable may change.
pub fn mint_string(config: &MintConfig) -> String {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut doc = String::from("<bib>");
    let mut minted = 0u64;
    for b in 0..config.books {
        doc.push_str("<book");
        for _ in 0..config.names_per_book.max(1) {
            doc.push_str(&format!(" m{minted}x{}=\"v\"", rng.gen_range(0..10)));
            minted += 1;
        }
        doc.push('>');
        if config.spare_buffered_subtrees {
            doc.push_str(&format!("<title>T{b}</title>"));
            doc.push_str("<author>");
            doc.push_str(&text::name(&mut rng));
            doc.push_str("</author>");
        } else {
            doc.push_str(&format!("<title m{minted}=\"t\">T{b}</title>"));
            minted += 1;
            doc.push_str(&format!("<author m{minted}=\"a\">A{b}</author>"));
            minted += 1;
        }
        doc.push_str("</book>");
    }
    doc.push_str("</bib>");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_is_deterministic_and_deep() {
        let c = DeepConfig::new(64, 3, 7);
        assert_eq!(deep_string(&c), deep_string(&c));
        let doc = deep_string(&c);
        assert_eq!(doc.matches("<d>").count(), 64 * 3);
        assert_eq!(doc.matches("</d>").count(), 64 * 3);
        assert_eq!(doc.matches("<leaf>").count(), 3);
    }

    #[test]
    fn deep_scales_bytes_with_spines_not_depth() {
        let base = deep_string(&DeepConfig::new(32, 4, 1)).len();
        let more_spines = deep_string(&DeepConfig::new(32, 40, 1)).len();
        assert!(more_spines > base * 5);
    }

    #[test]
    fn attr_heavy_is_attribute_dominated() {
        let doc = attr_heavy_string(&AttrHeavyConfig::new(20, 12, 3));
        // More attribute assignments than element tags.
        assert!(doc.matches('=').count() > doc.matches('<').count());
        assert_eq!(doc.matches("<book").count(), 20);
    }

    #[test]
    fn text_heavy_has_entities_in_runs() {
        let doc = text_heavy_string(&TextHeavyConfig::new(5, 40, 9));
        assert!(doc.contains("&amp;"));
        assert!(doc.contains("&lt;"));
        assert_eq!(doc.matches("<book>").count(), 5);
    }

    #[test]
    fn mint_names_are_globally_unique() {
        let doc = mint_string(&MintConfig::new(30, 4, 5));
        let mut names: Vec<&str> = doc
            .split(" m")
            .skip(1)
            .map(|s| &s[..s.find('=').unwrap()])
            .collect();
        let total = names.len();
        assert_eq!(total, 30 * 4);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "minted names must never repeat");
    }

    #[test]
    fn mint_spares_buffered_subtrees_by_default() {
        let doc = mint_string(&MintConfig::new(10, 2, 5));
        assert!(!doc.contains("<title m"));
        assert!(!doc.contains("<author m"));
    }
}
