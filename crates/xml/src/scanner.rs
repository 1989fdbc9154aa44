//! Low-level incremental byte scanner used by the XML reader.
//!
//! Maintains a small refillable window over the underlying [`Read`] so the
//! reader never materialises the whole input — memory use is bounded by the
//! longest single token (tag, text run, comment), not by document size.
//!
//! Every byte entering the window is swept **once** by the vectorised
//! structural prescan ([`crate::simd`]) as it is read from the source; the
//! resulting [`StructuralIndex`] then powers phase two: text runs hop
//! straight to the next indexed `<`, tag ends are located by walking `>`
//! candidates against quote parity ([`Scanner::probe_tag`]), escape
//! probes consult the `&` lane, and line/column accounting folds into the
//! newline lane instead of re-counting consumed spans. Index lanes store
//! **absolute input offsets**, so window compaction never invalidates them.

use crate::error::{Position, Result, XmlError};
use crate::input::{BudgetCharge, BudgetKind, MemoryBudget, MIN_WINDOW};
use crate::scan::{find_byte, find_subslice};
use crate::simd::{self, StructuralIndex};
use flux_telemetry::ScanCounters;
use std::io::Read;
use std::sync::Arc;

/// What [`Scanner::probe_tag`] learned about the markup construct at the
/// window head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagProbe {
    /// The closing `>` is not determinable within the buffered window
    /// (tag spans the window edge, or a quoted value is unterminated so
    /// far) — grow the window and retry.
    NeedMore,
    /// The closing `>` sits `rel_end` bytes past the window head. `dirty`
    /// flags content the fast tag path must hand to the byte-at-a-time
    /// parser: a stray `<` or any `&` strictly inside the tag.
    Found { rel_end: usize, dirty: bool },
}

/// Incremental scanner with single-byte and small-slice lookahead.
pub struct Scanner<R: Read> {
    src: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    eof: bool,
    offset: u64,
    line: u32,
    column: u32,
    /// Structural positions of every byte read so far (absolute offsets;
    /// entries behind `offset` are pruned as the window compacts).
    index: StructuralIndex,
    /// Refill/prescan counters.
    tel: ScanCounters,
    /// Configured window size: the refill granularity and the initial
    /// buffer capacity. The buffer still grows past it when one token is
    /// longer than the window — the growth is charged to the budget.
    window: usize,
    /// Live charge for `buf`'s capacity against the attached budget.
    charge: Option<BudgetCharge>,
}

impl<R: Read> Scanner<R> {
    /// Default-window scanner without budget accounting (test convenience;
    /// production callers thread the window through [`Scanner::with_window`]).
    #[cfg(test)]
    pub fn new(src: R) -> Self {
        Scanner::with_window(src, crate::input::DEFAULT_WINDOW, None)
    }

    /// A scanner with an explicit window size, optionally charging its
    /// buffer against `budget` for the scanner's lifetime.
    pub fn with_window(src: R, window: usize, budget: Option<Arc<MemoryBudget>>) -> Self {
        let window = window.max(MIN_WINDOW);
        let charge = budget.map(|b| b.charge(BudgetKind::Window, window as u64));
        Scanner {
            src,
            buf: vec![0; window],
            start: 0,
            end: 0,
            eof: false,
            offset: 0,
            line: 1,
            column: 1,
            index: StructuralIndex::new(),
            tel: ScanCounters::default(),
            window,
            charge,
        }
    }

    /// The configured window size in bytes.
    pub fn window_size(&self) -> usize {
        self.window
    }

    /// Keeps the budget charge in sync with `buf`'s current size.
    fn recharge(&mut self) {
        if let Some(charge) = &mut self.charge {
            charge.grow_to(self.buf.len() as u64);
        }
    }

    /// A copy of this scanner's refill/prescan counters.
    pub(crate) fn telemetry(&self) -> ScanCounters {
        self.tel
    }

    /// Current position (next unread byte).
    pub fn position(&self) -> Position {
        Position {
            offset: self.offset,
            line: self.line,
            column: self.column,
        }
    }

    fn available(&self) -> usize {
        self.end - self.start
    }

    /// Ensures at least `n` unread bytes are buffered, or EOF was reached.
    fn fill(&mut self, n: usize) -> Result<()> {
        if self.available() >= n || self.eof {
            return Ok(());
        }
        // Compact the consumed prefix away. Index lanes hold absolute
        // offsets, so compaction only prunes entries behind the current
        // position — it never remaps anything.
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            self.index.drop_before(self.offset);
            self.index.release_consumed();
        }
        if self.buf.len() < n {
            self.buf.resize(n.max(self.window), 0);
            self.recharge();
        }
        while self.available() < n && !self.eof {
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
                self.recharge();
            }
            let read = self.src.read(&mut self.buf[self.end..])?;
            if read == 0 {
                self.eof = true;
            } else {
                // Phase one: prescan the bytes exactly once, as they
                // arrive. Everything buffered is therefore always indexed.
                let base_abs = self.offset + (self.end - self.start) as u64;
                simd::prescan_into(
                    &self.buf[self.end..self.end + read],
                    base_abs,
                    &mut self.index,
                );
                self.tel.refills += 1;
                self.tel.prescan_bytes += read as u64;
                self.end += read;
            }
        }
        Ok(())
    }

    /// Next byte without consuming it.
    pub fn peek(&mut self) -> Result<Option<u8>> {
        self.fill(1)?;
        Ok(if self.available() == 0 {
            None
        } else {
            Some(self.buf[self.start])
        })
    }

    /// Up to `n` upcoming bytes without consuming them (shorter at EOF).
    pub fn peek_slice(&mut self, n: usize) -> Result<&[u8]> {
        self.fill(n)?;
        let len = self.available().min(n);
        Ok(&self.buf[self.start..self.start + len])
    }

    /// True if the upcoming bytes start with `s` (without consuming).
    pub fn looking_at(&mut self, s: &[u8]) -> Result<bool> {
        Ok(self.peek_slice(s.len())? == s)
    }

    fn advance_position(&mut self, b: u8) {
        self.offset += 1;
        if b == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
    }

    /// Position bookkeeping for a whole consumed run `buf[from..to]` at
    /// once: the prescan's newline lane already knows every `\n` in the
    /// span, so this re-reads nothing — it drains the lane entries the
    /// span covers. (Newlines consumed byte-at-a-time leave stale entries
    /// behind; `take_range` drops those silently below `from`.)
    fn advance_span(&mut self, from: usize, to: usize) {
        debug_assert_eq!(from, self.start, "spans are consumed from the window head");
        let from_abs = self.offset;
        let to_abs = from_abs + (to - from) as u64;
        let (newlines, last) = self.index.nl.take_range(from_abs, to_abs);
        if let Some(last) = last {
            self.line += newlines as u32;
            self.column = (to_abs - last) as u32;
        } else {
            self.column += (to - from) as u32;
        }
        self.offset = to_abs;
    }

    /// The buffered, unconsumed window. Every byte in it has already been
    /// prescanned into the structural index.
    pub fn window(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Grows the window by at least one byte; `false` when the source has
    /// nothing more to give.
    pub fn fill_more(&mut self) -> Result<bool> {
        if self.eof {
            return Ok(false);
        }
        let before = self.available();
        self.fill(before + 1)?;
        Ok(self.available() > before)
    }

    /// Consumes `n` window bytes as one span. Newline accounting comes
    /// from the prescan's lane — no byte is re-inspected.
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.available());
        self.advance_span(self.start, self.start + n);
        self.start += n;
    }

    /// Whether any `&` was indexed in the absolute range `[from, to)`:
    /// the reader's escape probe for just-consumed text runs. Call before
    /// anything that could refill — compaction prunes entries behind the
    /// current offset.
    pub fn amp_between(&mut self, from_abs: u64, to_abs: u64) -> bool {
        self.index.amp.drop_before(from_abs);
        matches!(self.index.amp.peek(), Some(abs) if abs < to_abs)
    }

    /// Probes the markup construct starting at the current `<` using only
    /// the structural index: locates the closing `>` by walking the `>`
    /// lane against quote parity (a `>` inside a quoted attribute value
    /// is not a tag end), and flags content the fast tag path must not
    /// handle. Read-only: nothing is consumed, so the caller can refill
    /// and retry, or fall back to the byte-at-a-time path, with identical
    /// scanner state.
    pub fn probe_tag(&mut self) -> TagProbe {
        debug_assert_eq!(self.window().first(), Some(&b'<'));
        self.index.gt.drop_before(self.offset);
        self.index.quote.drop_before(self.offset);
        let mut gts = self.index.gt.cursor();
        let mut quotes = self.index.quote.cursor();
        let mut from = self.offset + 1;
        let Some(mut candidate) = gts.next_at_or_after(from) else {
            return TagProbe::NeedMore;
        };
        let gt = loop {
            match quotes.next_at_or_after(from) {
                Some(q) if q < candidate => {
                    // A value opens before this `>` candidate: skip to the
                    // matching close quote (the next quote of the same
                    // kind — the other kind is literal inside the value).
                    let open = self.buf[self.start + (q - self.offset) as usize];
                    loop {
                        let Some(q2) = quotes.next() else {
                            return TagProbe::NeedMore;
                        };
                        if self.buf[self.start + (q2 - self.offset) as usize] == open {
                            from = q2 + 1;
                            break;
                        }
                    }
                    // Only when the value swallowed the candidate (a
                    // quoted `>`) does the search move to the next one;
                    // otherwise the same candidate stands and the loop
                    // re-checks it against the remaining quotes.
                    if from > candidate {
                        let Some(next) = gts.next_at_or_after(from) else {
                            return TagProbe::NeedMore;
                        };
                        candidate = next;
                    }
                }
                _ => break candidate,
            }
        };
        // Dirty content — a stray `<` (a well-formedness error) or any
        // `&` (a value needing unescaping) — is answered by the lanes
        // without touching a tag byte.
        self.index.lt.drop_before(self.offset + 1);
        self.index.amp.drop_before(self.offset + 1);
        let dirty = matches!(self.index.lt.peek(), Some(p) if p < gt)
            || matches!(self.index.amp.peek(), Some(p) if p < gt);
        TagProbe::Found {
            rel_end: (gt - self.offset) as usize,
            dirty,
        }
    }

    /// Consumes and returns the next byte.
    pub fn next_byte(&mut self) -> Result<Option<u8>> {
        self.fill(1)?;
        if self.available() == 0 {
            return Ok(None);
        }
        let b = self.buf[self.start];
        self.start += 1;
        self.advance_position(b);
        Ok(Some(b))
    }

    /// Consumes `s`, which must be the upcoming input (checked with
    /// `looking_at` by the caller or enforced here).
    pub fn expect_str(&mut self, s: &'static [u8], what: &'static str) -> Result<()> {
        if !self.looking_at(s)? {
            let pos = self.position();
            if self.available() < s.len() && self.eof {
                return Err(XmlError::UnexpectedEof {
                    expected: what,
                    pos,
                });
            }
            return Err(XmlError::Syntax {
                message: format!("expected {what}"),
                pos,
            });
        }
        for _ in 0..s.len() {
            self.next_byte()?;
        }
        Ok(())
    }

    /// Consumes a single expected byte.
    pub fn expect_byte(&mut self, b: u8, what: &'static str) -> Result<()> {
        match self.peek()? {
            Some(got) if got == b => {
                self.next_byte()?;
                Ok(())
            }
            Some(_) => Err(XmlError::Syntax {
                message: format!("expected {what}"),
                pos: self.position(),
            }),
            None => Err(XmlError::UnexpectedEof {
                expected: what,
                pos: self.position(),
            }),
        }
    }

    /// Skips XML whitespace; returns how many bytes were skipped.
    pub fn skip_whitespace(&mut self) -> Result<usize> {
        let mut n = 0;
        while let Some(b) = self.peek()? {
            if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                self.next_byte()?;
                n += 1;
            } else {
                break;
            }
        }
        Ok(n)
    }

    /// Consumes bytes while `pred` holds, appending them to `out`.
    pub fn read_while(
        &mut self,
        mut pred: impl FnMut(u8) -> bool,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        loop {
            self.fill(1)?;
            if self.available() == 0 {
                return Ok(());
            }
            // Scan the buffered window directly for speed.
            let window_len = self.end - self.start;
            let mut taken = 0;
            for i in self.start..self.end {
                if pred(self.buf[i]) {
                    taken += 1;
                } else {
                    break;
                }
            }
            out.extend_from_slice(&self.buf[self.start..self.start + taken]);
            self.advance_span(self.start, self.start + taken);
            self.start += taken;
            if taken < window_len || self.eof && self.available() == 0 {
                return Ok(());
            }
        }
    }

    /// Attempts to consume a whole run up to (not including) `stop`
    /// **without copying**: when the run ends inside the currently
    /// buffered window and at least `lookahead` bytes beyond the stop are
    /// already buffered (or EOF was reached), the run is consumed and its
    /// absolute range in the buffer is returned. The range stays valid as
    /// long as no method refills or compacts the buffer — peeks of up to
    /// `lookahead` bytes are guaranteed not to.
    ///
    /// Returns `None` without consuming anything when the run may cross a
    /// refill boundary; the caller falls back to the copying
    /// [`Scanner::read_until_byte`].
    pub fn borrow_run(&mut self, stop: u8, lookahead: usize) -> Result<Option<(usize, usize)>> {
        self.fill(1)?;
        let taken = match self.find_in_window(stop) {
            // The stop byte and `lookahead` bytes of context are buffered:
            // peeks after the run cannot trigger a refill.
            Some(i) if self.end - (self.start + i) >= lookahead || self.eof => i,
            // No stop byte, but EOF: the window is the whole rest.
            None if self.eof => self.available(),
            _ => return Ok(None),
        };
        let range = (self.start, self.start + taken);
        self.advance_span(range.0, range.1);
        self.start += taken;
        Ok(Some(range))
    }

    /// Index, relative to the window start, of the next `stop` byte:
    /// answered by the structural lane when `stop` has a dedicated one
    /// (a cursor hop instead of a byte search), SWAR otherwise. The
    /// merged quote lane is deliberately excluded — it cannot tell `"`
    /// from `'` without a byte check.
    fn find_in_window(&mut self, stop: u8) -> Option<usize> {
        let lane = match stop {
            b'<' => &mut self.index.lt,
            b'>' => &mut self.index.gt,
            b'&' => &mut self.index.amp,
            b'\n' => &mut self.index.nl,
            _ => return find_byte(&self.buf[self.start..self.end], stop),
        };
        let end_abs = self.offset + (self.end - self.start) as u64;
        match lane.next_at_or_after(self.offset) {
            Some(abs) if abs < end_abs => Some((abs - self.offset) as usize),
            _ => None,
        }
    }

    /// The bytes behind a range returned by [`Scanner::borrow_run`].
    pub fn borrowed(&self, range: (usize, usize)) -> &[u8] {
        &self.buf[range.0..range.1]
    }

    /// Consumes bytes up to (not including) the next occurrence of `stop`,
    /// appending them to `out`. The indexed fast path for text runs:
    /// equivalent to `read_while(|b| b != stop, out)`, but the stop search
    /// is a lane-cursor hop and the newline accounting a lane drain — no
    /// consumed byte is inspected twice.
    pub fn read_until_byte(&mut self, stop: u8, out: &mut Vec<u8>) -> Result<()> {
        loop {
            self.fill(1)?;
            if self.available() == 0 {
                return Ok(());
            }
            let window_len = self.end - self.start;
            let taken = self.find_in_window(stop).unwrap_or(window_len);
            out.extend_from_slice(&self.buf[self.start..self.start + taken]);
            self.advance_span(self.start, self.start + taken);
            self.start += taken;
            if taken < window_len || self.eof && self.available() == 0 {
                return Ok(());
            }
        }
    }

    /// Consumes bytes up to and including the delimiter string `delim`,
    /// appending everything before the delimiter to `out`.
    pub fn read_until(
        &mut self,
        delim: &[u8],
        out: &mut Vec<u8>,
        what: &'static str,
    ) -> Result<()> {
        debug_assert!(!delim.is_empty());
        loop {
            self.fill(delim.len())?;
            if self.available() < delim.len() {
                return Err(XmlError::UnexpectedEof {
                    expected: what,
                    pos: self.position(),
                });
            }
            let window = &self.buf[self.start..self.end];
            match find_subslice(window, delim) {
                Some(at) => {
                    out.extend_from_slice(&self.buf[self.start..self.start + at]);
                    self.advance_span(self.start, self.start + at + delim.len());
                    self.start += at + delim.len();
                    return Ok(());
                }
                None => {
                    // Keep the last delim.len()-1 bytes: they may begin the
                    // delimiter continued in the next chunk.
                    let keep = delim.len() - 1;
                    let consumable = window.len().saturating_sub(keep);
                    out.extend_from_slice(&self.buf[self.start..self.start + consumable]);
                    self.advance_span(self.start, self.start + consumable);
                    self.start += consumable;
                    if self.eof {
                        return Err(XmlError::UnexpectedEof {
                            expected: what,
                            pos: self.position(),
                        });
                    }
                    self.fill(self.available() + 1)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::DEFAULT_WINDOW;

    fn scanner(s: &str) -> Scanner<&[u8]> {
        Scanner::new(s.as_bytes())
    }

    #[test]
    fn peek_and_next() {
        let mut sc = scanner("ab");
        assert_eq!(sc.peek().unwrap(), Some(b'a'));
        assert_eq!(sc.next_byte().unwrap(), Some(b'a'));
        assert_eq!(sc.next_byte().unwrap(), Some(b'b'));
        assert_eq!(sc.next_byte().unwrap(), None);
        assert_eq!(sc.peek().unwrap(), None);
    }

    #[test]
    fn position_tracking() {
        let mut sc = scanner("a\nbc");
        sc.next_byte().unwrap();
        sc.next_byte().unwrap();
        let pos = sc.position();
        assert_eq!(pos.line, 2);
        assert_eq!(pos.column, 1);
        assert_eq!(pos.offset, 2);
        sc.next_byte().unwrap();
        assert_eq!(sc.position().column, 2);
    }

    #[test]
    fn looking_at_and_expect() {
        let mut sc = scanner("<!--x-->");
        assert!(sc.looking_at(b"<!--").unwrap());
        assert!(!sc.looking_at(b"<!DO").unwrap());
        sc.expect_str(b"<!--", "comment start").unwrap();
        assert_eq!(sc.peek().unwrap(), Some(b'x'));
    }

    #[test]
    fn read_until_simple() {
        let mut sc = scanner("hello-->rest");
        let mut out = Vec::new();
        sc.read_until(b"-->", &mut out, "comment end").unwrap();
        assert_eq!(out, b"hello");
        assert_eq!(sc.peek().unwrap(), Some(b'r'));
    }

    #[test]
    fn read_until_delimiter_spanning_chunks() {
        // Force the delimiter to straddle refill boundaries by using a large prefix.
        let prefix = "x".repeat(DEFAULT_WINDOW * 2 + 3);
        let input = format!("{prefix}-->tail");
        let mut sc = Scanner::new(input.as_bytes());
        let mut out = Vec::new();
        sc.read_until(b"-->", &mut out, "end").unwrap();
        assert_eq!(out.len(), prefix.len());
        assert_eq!(sc.peek().unwrap(), Some(b't'));
    }

    #[test]
    fn read_until_eof_errors() {
        let mut sc = scanner("no delimiter here");
        let mut out = Vec::new();
        let err = sc.read_until(b"-->", &mut out, "comment end").unwrap_err();
        assert!(matches!(err, XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn read_while_stops_at_boundary() {
        let mut sc = scanner("abc<def");
        let mut out = Vec::new();
        sc.read_while(|b| b != b'<', &mut out).unwrap();
        assert_eq!(out, b"abc");
        assert_eq!(sc.peek().unwrap(), Some(b'<'));
    }

    #[test]
    fn read_until_byte_matches_read_while() {
        let input = "line one\nline two<rest";
        let mut a = scanner(input);
        let mut b = scanner(input);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        a.read_until_byte(b'<', &mut out_a).unwrap();
        b.read_while(|x| x != b'<', &mut out_b).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(a.position(), b.position());
        assert_eq!(a.position().line, 2);
        assert_eq!(a.position().column, 9, "column counted from last newline");
        assert_eq!(a.peek().unwrap(), Some(b'<'));
    }

    #[test]
    fn read_until_byte_spanning_chunks() {
        let prefix = "y\n".repeat(DEFAULT_WINDOW);
        let input = format!("{prefix}<tail");
        let mut sc = Scanner::new(input.as_bytes());
        let mut out = Vec::new();
        sc.read_until_byte(b'<', &mut out).unwrap();
        assert_eq!(out.len(), prefix.len());
        assert_eq!(sc.position().line as usize, DEFAULT_WINDOW + 1);
        assert_eq!(sc.peek().unwrap(), Some(b'<'));
    }

    #[test]
    fn small_window_parses_and_charges_budget() {
        let budget = crate::input::MemoryBudget::new(u64::MAX);
        let input = "a".repeat(500) + "<rest";
        {
            let mut sc =
                Scanner::with_window(input.as_bytes(), MIN_WINDOW, Some(Arc::clone(&budget)));
            assert_eq!(sc.window_size(), MIN_WINDOW);
            assert_eq!(budget.current(BudgetKind::Window), MIN_WINDOW as u64);
            let mut out = Vec::new();
            sc.read_until_byte(b'<', &mut out).unwrap();
            assert_eq!(out.len(), 500);
            // A 500-byte token through a 64-byte window forces refills and
            // compactions but never a whole-input buffer.
            assert!(budget.peak(BudgetKind::Window) < input.len() as u64);
        }
        // Scanner drop released the charge.
        assert_eq!(budget.current(BudgetKind::Window), 0);
    }

    #[test]
    fn tiny_window_long_token_grows_buffer_and_charge() {
        let budget = crate::input::MemoryBudget::new(u64::MAX);
        let tag = format!("<e a=\"{}\"/>", "v".repeat(4096));
        let mut sc = Scanner::with_window(tag.as_bytes(), MIN_WINDOW, Some(Arc::clone(&budget)));
        // Force the whole tag into the window, as probe_tag retries do.
        while sc.fill_more().unwrap() {}
        assert!(sc.window().len() >= tag.len());
        assert!(budget.current(BudgetKind::Window) >= tag.len() as u64);
    }

    #[test]
    fn skip_whitespace_counts() {
        let mut sc = scanner("  \t\n x");
        assert_eq!(sc.skip_whitespace().unwrap(), 5);
        assert_eq!(sc.peek().unwrap(), Some(b'x'));
        assert_eq!(sc.skip_whitespace().unwrap(), 0);
    }
}
