//! The four workloads, and what their outputs must contain.
//!
//! The expected counts come from the *input bytes* by substring counting:
//! nothing here asks the engine under test what the answer is.

use crate::layers::Doc;
use crate::stats::{count, each_after};

const MIB: usize = 1 << 20;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    /// Query and DTD files, relative to the benchmark directory.
    pub query_file: &'static str,
    pub dtd_file: &'static str,
    pub doc: Doc,
    pub oracle: Oracle,
}

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bib-stream",
        why: "Q3 under the Figure-1 DTD: nothing is buffered, ~10 B/event and output 0.6x input, so per-event costs and the writer do the work",
        query_file: "queries/q3.xq",
        dtd_file: "dtds/bib-fig1.dtd",
        doc: Doc::BibFig1 { bytes: 10 * MIB },
        oracle: Oracle::Q3,
    },
    Workload {
        name: "bib-buffer",
        why: "the same Q3 under the weak DTD: every author passes through the BDF buffer, the runtime's buffered path beside bib-stream's streamed one",
        query_file: "queries/q3.xq",
        dtd_file: "dtds/bib-weak.dtd",
        doc: Doc::BibWeak { bytes: 10 * MIB },
        oracle: Oracle::Q3,
    },
    Workload {
        name: "auction-select",
        why: "price > 400 over a 64 MiB auction site: most input is irrelevant and output is 3% of input, so reader and XSAX dominate and the writer idles",
        query_file: "queries/auc-exp.xq",
        dtd_file: "dtds/auction.dtd",
        doc: Doc::Auction { bytes: 64 * MIB },
        oracle: Oracle::AucExp,
    },
    Workload {
        name: "auction-join",
        why: "buyer = person/@id nested-loop join over buffered people: parsing is under 1% of the run, so only evaluator and buffer changes move it",
        query_file: "queries/auc-join.xq",
        dtd_file: "dtds/auction.dtd",
        doc: Doc::AuctionScale { scale: 28.0 },
        oracle: Oracle::AucJoin,
    },
];

/// The documents of the `scaling` section (the paper's size axis):
/// `auction-select`'s query over 16, 64 and 128 MiB.
pub static SCALING: [Workload; 3] = [
    scaling("scaling-16", 16),
    scaling("scaling-64", 64),
    scaling("scaling-128", 128),
];

const fn scaling(name: &'static str, mib: usize) -> Workload {
    Workload {
        name,
        why: "auction-select's query as the document grows",
        query_file: "queries/auc-exp.xq",
        dtd_file: "dtds/auction.dtd",
        doc: Doc::Auction { bytes: mib * MIB },
        oracle: Oracle::AucExp,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Oracle {
    /// One `<result>` per book, every title and author kept.
    Q3,
    /// One `<hit>` per closed auction whose price exceeds 400.
    AucExp,
    /// One `<sale>` per closed auction: the generator draws each buyer
    /// from the people it wrote, and person ids are distinct.
    AucJoin,
}

impl Oracle {
    /// `(tag in the output, occurrences the input implies)`.
    pub fn expected(self, input: &[u8]) -> Vec<(&'static str, u64)> {
        match self {
            Oracle::Q3 => vec![
                ("<result>", count(input, b"<book")),
                ("<title>", count(input, b"<title>")),
                ("<author>", count(input, b"<author>")),
            ],
            Oracle::AucExp => {
                let mut hits = 0;
                each_after(input, b"<price>", |rest| {
                    let end = rest.iter().position(|&b| b == b'<').unwrap_or(rest.len());
                    let price = std::str::from_utf8(&rest[..end])
                        .ok()
                        .and_then(|t| t.trim().parse::<f64>().ok());
                    hits += u64::from(price.is_some_and(|p| p > 400.0));
                });
                vec![("<hit>", hits), ("<itemref>", hits), ("<price>", hits)]
            }
            Oracle::AucJoin => {
                let sales = count(input, b"<closed_auction>");
                vec![("<sale>", sales), ("<name>", sales), ("<price>", sales)]
            }
        }
    }

    /// Every way `output` disagrees with what `input` implies.
    pub fn mismatches(self, input: &[u8], output: &[u8]) -> Vec<String> {
        self.expected(input)
            .into_iter()
            .filter_map(|(tag, want)| {
                let got = count(output, tag.as_bytes());
                (got != want).then(|| format!("output has {got} {tag}, the input implies {want}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|other| other.name != w.name));
        }
    }

    #[test]
    fn q3_oracle_counts_books_titles_authors() {
        let input = b"<bib><book year=\"1\"><title>T</title><author>A</author><author>B</author><editor>E</editor></book><book><title>U</title></book></bib>";
        let good = b"<results><result><title>T</title><author>A</author><author>B</author></result><result><title>U</title></result></results>";
        assert_eq!(
            Oracle::Q3.expected(input),
            [("<result>", 2), ("<title>", 2), ("<author>", 2)]
        );
        assert!(Oracle::Q3.mismatches(input, good).is_empty());
        let dropped = b"<results><result><title>T</title><author>A</author></result><result><title>U</title></result></results>";
        assert_eq!(
            Oracle::Q3.mismatches(input, dropped),
            ["output has 1 <author>, the input implies 2"]
        );
    }

    #[test]
    fn auction_oracles_read_prices_and_auctions() {
        let input = b"<site><closed_auctions>\
            <closed_auction><buyer>p1</buyer><itemref>i1</itemref><price>400.00</price></closed_auction>\
            <closed_auction><buyer>p0</buyer><itemref>i2</itemref><price>400.01</price></closed_auction>\
            <closed_auction><buyer>p0</buyer><itemref>i3</itemref><price>499.99</price></closed_auction>\
            </closed_auctions></site>";
        assert_eq!(Oracle::AucExp.expected(input)[0], ("<hit>", 2));
        assert_eq!(Oracle::AucJoin.expected(input)[0], ("<sale>", 3));
        let hits = b"<expensive><hit><itemref>i2</itemref><price>400.01</price></hit><hit><itemref>i3</itemref><price>499.99</price></hit></expensive>";
        assert!(Oracle::AucExp.mismatches(input, hits).is_empty());
        assert_eq!(Oracle::AucExp.mismatches(input, b"<expensive/>").len(), 3);
    }
}
