//! Sample summaries, the output digest and the substring oracles.

use std::fmt;
use std::io::{self, Write};

/// Median and quartiles of a sample, by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), so the
/// spread printed here is the spread the driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// `None` for an empty sample. One value is its own quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let at = |quarter: usize| -> f64 {
            let pos = quarter * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        match n {
            0 => None,
            1 => Some(Summary {
                median: sorted[0],
                q1: sorted[0],
                q3: sorted[0],
                n,
            }),
            _ => Some(Summary {
                median: at(2),
                q1: at(1),
                q3: at(3),
                n,
            }),
        }
    }

    /// The noise floor: interquartile range as a share of the median.
    pub fn noise(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1).abs() / self.median.abs()
    }
}

/// Length plus FNV-1a-64 of a byte stream; a `Write` sink, so files and
/// pipes digest without being held in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: u64,
    pub fnv: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            len: 0,
            fnv: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Digest {
    pub fn of(bytes: &[u8]) -> Digest {
        let mut d = Digest::default();
        d.update(bytes);
        d
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.fnv;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.fnv = h;
        self.len += bytes.len() as u64;
    }
}

impl Write for Digest {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:016x}", self.len, self.fnv)
    }
}

/// Non-overlapping occurrences of `needle` in `hay`.
pub fn count(hay: &[u8], needle: &[u8]) -> u64 {
    each_after(hay, needle, |_| {})
}

/// Calls `f` with the bytes following each occurrence of `needle` and
/// returns the number of occurrences.
pub fn each_after<'a>(hay: &'a [u8], needle: &[u8], mut f: impl FnMut(&'a [u8])) -> u64 {
    let (Some(&first), true) = (needle.first(), needle.len() <= hay.len()) else {
        return 0;
    };
    let (mut i, mut n) = (0, 0);
    while let Some(off) = hay[i..].iter().position(|&b| b == first) {
        let at = i + off;
        if hay[at..].starts_with(needle) {
            n += 1;
            i = at + needle.len();
            f(&hay[i..]);
        } else {
            i = at + 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&nine).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.5, 5.0, 7.5, 9));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
        let ten = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.75, 3.5, 5.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: it extrapolates.
        let two = Summary::of(&[10.0, 20.0]).unwrap();
        assert_eq!((two.q1, two.median, two.q3), (7.5, 15.0, 22.5));
        assert_eq!(Summary::of(&[2.0, 9.0, 4.0]).unwrap().median, 4.0);
        assert_eq!(Summary::of(&[]), None);
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!(
            (one.q1, one.median, one.q3, one.noise()),
            (7.0, 7.0, 7.0, 0.0)
        );
    }

    #[test]
    fn noise_is_iqr_over_median() {
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(Summary::of(&nine).unwrap().noise(), 1.0);
    }

    #[test]
    fn digest_is_fnv1a64_with_length() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(Digest::of(b"").fnv, 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::of(b"a").fnv, 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Digest::of(b"foobar").fnv, 0x8594_4171_f739_67e8);
        let mut split = Digest::default();
        split.write_all(b"foo").unwrap();
        split.write_all(b"bar").unwrap();
        assert_eq!(split, Digest::of(b"foobar"));
        assert_eq!(split.to_string(), "6:85944171f73967e8");
    }

    #[test]
    fn substring_counting() {
        assert_eq!(count(b"<a><ab><a>", b"<a>"), 2);
        assert_eq!(count(b"aaaa", b"aa"), 2);
        assert_eq!(count(b"", b"x"), 0);
        assert_eq!(count(b"x", b""), 0);
        let mut tails = Vec::new();
        each_after(b"p=1;p=22;", b"p=", |rest| tails.push(rest[0]));
        assert_eq!(tails, b"12");
    }
}
