//! Low-level incremental byte scanner used by the XML reader.
//!
//! Maintains a small refillable window over the underlying [`Read`] so the
//! reader never materialises the whole input — memory use is bounded by the
//! longest single token (tag, text run, comment), not by document size.
//!
//! Every byte entering the window passes phase one **once**, as it is read
//! from the source ([`IndexedBuffer`]): the vectorised structural prescan
//! records it in per-64-byte bitmaps and the UTF-8 check advances the
//! watermark. The scanner is then a byte cursor over that window that
//! never re-checks anything: text runs hop to the next indexed `<`
//! (`tzcnt`), tag ends are located by walking `>` candidates against quote
//! parity ([`Scanner::probe_tag`]), escape probes consult the `&` lane,
//! line/column accounting is a `popcnt` over the newline lane, and
//! payloads below the watermark come back as `&str` without a pass over
//! them ([`Scanner::text`]).

use crate::error::{Position, Result, XmlError};
use crate::input::{BudgetKind, MemoryBudget, MIN_WINDOW};
use crate::scan::{find_byte, find_subslice};
use crate::simd::buffer::IndexedBuffer;
use flux_telemetry::ScanCounters;
use std::cell::Cell;
use std::io::Read;
use std::sync::Arc;

/// Lazy line/column accounting: consuming only moves the cursor, and a
/// position asked for is `anchor`'s advanced by a `popcnt` over the newline
/// lane. The anchor then moves up (each byte is counted once), and always
/// before a refill discards the bitmap under it.
#[derive(Clone, Copy)]
struct Lines {
    /// A buffer index at or before the cursor, and its exact position.
    anchor: usize,
    at_anchor: Position,
    /// The buffer index [`Scanner::mark`] remembered, and its position
    /// once the anchor has moved past it.
    mark: usize,
    at_mark: Option<Position>,
}

/// Incremental scanner with single-byte and small-slice lookahead.
pub struct Scanner<R: Read> {
    src: R,
    /// Buffered input, indexed and validated as it arrived; the window is
    /// its suffix from `start`.
    buf: IndexedBuffer,
    start: usize,
    eof: bool,
    /// Line/column bookkeeping, done only when a position is asked for.
    lines: Cell<Lines>,
    /// Refill/prescan counters.
    tel: ScanCounters,
    /// Configured window size: the refill granularity and the initial
    /// buffer capacity. The buffer still grows past it when one token is
    /// longer than the window — the growth is charged to the budget.
    window: usize,
}

impl<R: Read> Scanner<R> {
    /// A scanner with an explicit window size, optionally charging its
    /// buffer against `budget` for the scanner's lifetime.
    pub fn with_window(src: R, window: usize, budget: Option<Arc<MemoryBudget>>) -> Self {
        let window = window.max(MIN_WINDOW);
        let charge = budget.map(|b| b.charge(BudgetKind::Window, window as u64));
        Scanner {
            src,
            buf: IndexedBuffer::new(window, charge),
            start: 0,
            eof: false,
            lines: Cell::new(Lines {
                anchor: 0,
                at_anchor: Position {
                    offset: 0,
                    line: 1,
                    column: 1,
                },
                mark: 0,
                at_mark: None,
            }),
            tel: ScanCounters::default(),
            window,
        }
    }

    /// The configured window size in bytes.
    pub fn window_size(&self) -> usize {
        self.window
    }

    /// A copy of this scanner's refill/prescan counters.
    pub(crate) fn telemetry(&self) -> ScanCounters {
        self.tel
    }

    /// Bytes validated as UTF-8 so far: every byte read, once.
    pub(crate) fn utf8_validated_bytes(&self) -> u64 {
        self.buf.validated_bytes()
    }

    /// The position of buffer index `at` (at or after the anchor): the
    /// newline lane answers the line/column arithmetic.
    fn position_of(&self, lines: &Lines, at: usize) -> Position {
        let (newlines, last) = self.buf.index().nl.count_in(lines.anchor, at);
        lines.at_anchor.advanced(
            at - lines.anchor,
            newlines,
            last.map(|nl| nl - lines.anchor),
        )
    }

    /// Current position (next unread byte). Moves the anchor up to the
    /// cursor, first settling the mark if the anchor passes it.
    pub fn position(&self) -> Position {
        let mut lines = self.lines.get();
        if lines.at_mark.is_none() && lines.mark < self.start {
            lines.at_mark = Some(self.position_of(&lines, lines.mark));
        }
        lines.at_anchor = self.position_of(&lines, self.start);
        lines.anchor = self.start;
        self.lines.set(lines);
        lines.at_anchor
    }

    /// The position `rel` window bytes ahead, without consuming them.
    pub fn position_at(&self, rel: usize) -> Position {
        self.position_of(&self.lines.get(), self.start + rel)
    }

    /// Remembers the cursor; [`Scanner::marked_position`] answers its
    /// position later. The reader marks every event's first byte, so the
    /// line/column of an event start costs nothing until someone asks.
    #[inline(always)]
    pub fn mark(&mut self) {
        let lines = self.lines.get_mut();
        lines.mark = self.start;
        lines.at_mark = None;
    }

    /// The position of the last [`Scanner::mark`].
    pub fn marked_position(&self) -> Position {
        let lines = self.lines.get();
        lines
            .at_mark
            .unwrap_or_else(|| self.position_of(&lines, lines.mark))
    }

    #[inline]
    fn available(&self) -> usize {
        self.buf.bytes().len() - self.start
    }

    /// Ensures at least `n` unread bytes are buffered, or EOF was reached.
    #[inline(always)]
    fn fill(&mut self, n: usize) -> Result<()> {
        if self.available() >= n || self.eof {
            return Ok(());
        }
        self.refill(n)
    }

    #[cold]
    #[inline(never)]
    fn refill(&mut self, n: usize) -> Result<()> {
        // Drop the consumed prefix; the index shifts along with the bytes.
        // Positions are settled first: the anchor moves to the cursor (and
        // past the mark), so no index below it is needed any more.
        self.position();
        let dropped = self.buf.discard(self.start);
        self.start -= dropped;
        let lines = self.lines.get_mut();
        lines.anchor -= dropped;
        if lines.at_mark.is_none() {
            lines.mark -= dropped;
        }
        if self.buf.capacity() < self.start + n {
            self.buf.grow((self.start + n).max(self.window));
        }
        while self.available() < n && !self.eof {
            if self.buf.bytes().len() == self.buf.capacity() {
                self.buf.grow(self.buf.capacity() * 2);
            }
            // Phase one runs inside the read: everything buffered is
            // always indexed and validated.
            let read = self.buf.fill_from(&mut self.src)?;
            if read == 0 {
                self.eof = true;
            } else {
                self.tel.refills += 1;
                self.tel.prescan_bytes += read as u64;
            }
        }
        Ok(())
    }

    /// Next byte without consuming it.
    pub fn peek(&mut self) -> Result<Option<u8>> {
        self.fill(1)?;
        Ok(self.window().first().copied())
    }

    /// Up to `n` upcoming bytes without consuming them (shorter at EOF).
    #[inline]
    pub fn peek_slice(&mut self, n: usize) -> Result<&[u8]> {
        self.fill(n)?;
        let window = self.window();
        Ok(&window[..n.min(window.len())])
    }

    /// True if the upcoming bytes start with `s` (without consuming).
    pub fn looking_at(&mut self, s: &[u8]) -> Result<bool> {
        Ok(self.peek_slice(s.len())? == s)
    }

    /// The buffered, unconsumed window. Every byte in it has already been
    /// indexed and, up to the watermark, validated.
    #[inline]
    pub fn window(&self) -> &[u8] {
        &self.buf.bytes()[self.start..]
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

    /// Consumes `n` window bytes as one span: a cursor move. Newline
    /// accounting happens when a position is asked for, from the
    /// prescan's lane — no byte is re-inspected.
    #[inline(always)]
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.available());
        self.start += n;
    }

    /// Absolute input offset of the cursor.
    #[inline]
    pub fn offset(&self) -> u64 {
        self.buf.index().base() + self.start as u64
    }

    /// Consumes the text run at the cursor when nothing in it needs a
    /// look: it lies below the UTF-8 watermark and the `&` lane has no bit
    /// in it. A `tzcnt` hop to the closing `<`, no byte inspected; a run
    /// whose `<` is not buffered yet is buffered whole first (memory stays
    /// bounded by the longest token). `false` (nothing consumed) leaves
    /// the run to the reader's text path, which reports whatever is wrong
    /// with it.
    #[inline]
    pub fn hop_text(&mut self) -> Result<bool> {
        let len = loop {
            match self.find_in_window(b'<') {
                Some(len) => break len,
                None if self.fill_more()? => {}
                None => return Ok(false),
            }
        };
        let range = (self.start, self.start + len);
        if self.amp_in(range) || self.text(range).is_none() {
            return Ok(false);
        }
        self.consume(len);
        Ok(true)
    }

    /// Whether any `&` was indexed in the buffer range `range` — the
    /// reader's escape probe for a just-consumed borrowed run.
    #[inline]
    pub fn amp_in(&self, range: (usize, usize)) -> bool {
        self.buf.index().amp.next_in(range.0, range.1).is_some()
    }

    /// Probes the markup construct starting at the current `<` using only
    /// the structural index: locates the closing `>` by walking the `>`
    /// lane against quote parity (a `>` inside a quoted attribute value
    /// is not a tag end). Returns its offset in the window and whether a
    /// stray `<` or any `&` sits strictly inside the tag; `None` when the
    /// end is not within the buffered window (the tag spans the window
    /// edge, or a quoted value is unterminated so far). Read-only, so the
    /// caller can refill and retry.
    #[inline(always)]
    pub fn probe_tag(&self) -> Option<(usize, bool)> {
        debug_assert_eq!(self.window().first(), Some(&b'<'));
        let (idx, bytes) = (self.buf.index(), self.buf.bytes());
        let (head, end) = (self.start, bytes.len());
        let mut from = head + 1;
        let mut gt = idx.gt.next_in(from, end)?;
        while let Some(open) = idx.quote.next_in(from, gt) {
            // A value opens before this `>` candidate: skip to the matching
            // close quote (the next quote of the same kind — the other
            // kind is literal inside the value). Only when the value
            // swallowed the candidate (a quoted `>`) does the search move
            // on to the next one.
            let mut close = open;
            loop {
                close = idx.quote.next_in(close + 1, end)?;
                if bytes[close] == bytes[open] {
                    break;
                }
            }
            from = close + 1;
            if from > gt {
                gt = idx.gt.next_in(from, end)?;
            }
        }
        let dirty =
            idx.lt.next_in(head + 1, gt).is_some() || idx.amp.next_in(head + 1, gt).is_some();
        Some((gt - head, dirty))
    }

    /// The length of the element at the cursor when it is spelled
    /// `<n>text</n>` — the writer's canonical form of a text-only element —
    /// given that its start tag `<n>` is `tag` bytes long. Checked on the
    /// index lanes, nothing consumed: the text has no `&`, `>` or `<` (so
    /// no reference, comment, PI or CDATA), is UTF-8, and is empty unless
    /// `text` allows it; the end tag follows with no whitespace. `None`
    /// when any of that fails or the span does not all lie in the window.
    #[inline]
    pub fn plain_element(&self, tag: usize, text: bool) -> Option<usize> {
        let (idx, bytes) = (self.buf.index(), self.buf.bytes());
        let (head, from) = (self.start, self.start + tag);
        let lt = idx.lt.next_in(from, bytes.len())?;
        if lt > from
            && (!text
                || idx.amp.next_in(from, lt).is_some()
                || idx.gt.next_in(from, lt).is_some()
                || self.buf.str(from..lt).is_none())
        {
            return None;
        }
        let name = &bytes[head + 1..from - 1];
        let close = lt + 2 + name.len();
        let closes = bytes.get(lt + 1) == Some(&b'/')
            && bytes.get(lt + 2..close) == Some(name)
            && bytes.get(close) == Some(&b'>');
        closes.then_some(close + 1 - head)
    }

    /// Consumes `n` window bytes and returns them.
    #[inline]
    pub fn take(&mut self, n: usize) -> &[u8] {
        let from = self.start;
        self.consume(n);
        &self.buf.bytes()[from..from + n]
    }

    /// Consumes and returns the next byte.
    pub fn next_byte(&mut self) -> Result<Option<u8>> {
        let b = self.peek()?;
        if b.is_some() {
            self.start += 1;
        }
        Ok(b)
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
        self.consume(s.len());
        Ok(())
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
            let window = self.window();
            if window.is_empty() {
                return Ok(());
            }
            let taken = window.iter().take_while(|&&b| pred(b)).count();
            let whole = taken == window.len();
            out.extend_from_slice(&window[..taken]);
            self.consume(taken);
            if !whole || self.eof && self.available() == 0 {
                return Ok(());
            }
        }
    }

    /// Attempts to consume a whole run up to (not including) `stop`
    /// **without copying**: when the run ends inside the currently
    /// buffered window and at least `lookahead` bytes beyond the stop are
    /// already buffered (or EOF was reached), the run is consumed and its
    /// range in the buffer is returned. The range stays valid as long as
    /// no method refills or compacts the buffer — peeks of up to
    /// `lookahead` bytes are guaranteed not to.
    ///
    /// Returns `None` without consuming anything when the run may cross a
    /// refill boundary; the caller falls back to the copying
    /// [`Scanner::read_until_byte`].
    #[inline]
    pub fn borrow_run(&mut self, stop: u8, lookahead: usize) -> Result<Option<(usize, usize)>> {
        self.fill(1)?;
        let taken = match self.find_in_window(stop) {
            // The stop byte and `lookahead` bytes of context are buffered:
            // peeks after the run cannot trigger a refill.
            Some(i) if self.available() - i >= lookahead || self.eof => i,
            // No stop byte, but EOF: the window is the whole rest.
            None if self.eof => self.available(),
            _ => return Ok(None),
        };
        let range = (self.start, self.start + taken);
        self.consume(taken);
        Ok(Some(range))
    }

    /// Index, relative to the window start, of the next `stop` byte: a
    /// `tzcnt` hop through the `<` lane, a SWAR search for other bytes.
    #[inline]
    fn find_in_window(&self, stop: u8) -> Option<usize> {
        match stop {
            b'<' => {
                let end = self.buf.bytes().len();
                let at = self.buf.index().lt.next_in(self.start, end)?;
                Some(at - self.start)
            }
            _ => find_byte(self.window(), stop),
        }
    }

    /// The buffer range `range` (from [`Scanner::borrow_run`]) as `&str`,
    /// or `None` if it is not UTF-8. Below the UTF-8 watermark this costs
    /// no pass over the bytes: validation happened at refill.
    #[inline]
    pub fn text(&self, range: (usize, usize)) -> Option<&str> {
        self.buf.str(range.0..range.1)
    }

    /// `len` window bytes as `&str`, or `None` if they are not UTF-8 —
    /// [`Scanner::text`] for a window prefix.
    #[inline]
    pub fn window_text(&self, len: usize) -> Option<&str> {
        self.text((self.start, self.start + len))
    }

    /// Consumes bytes up to (not including) the next occurrence of `stop`,
    /// appending them to `out`. The copying fallback for text runs that
    /// cross a refill: equivalent to `read_while(|b| b != stop, out)`, but
    /// the stop search is a lane hop — no consumed byte is inspected twice.
    pub fn read_until_byte(&mut self, stop: u8, out: &mut Vec<u8>) -> Result<()> {
        loop {
            self.fill(1)?;
            let window_len = self.available();
            if window_len == 0 {
                return Ok(());
            }
            let taken = self.find_in_window(stop).unwrap_or(window_len);
            out.extend_from_slice(&self.window()[..taken]);
            self.consume(taken);
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
            let window = self.window();
            match find_subslice(window, delim) {
                Some(at) => {
                    out.extend_from_slice(&window[..at]);
                    self.consume(at + delim.len());
                    return Ok(());
                }
                None => {
                    // Keep the last delim.len()-1 bytes: they may begin the
                    // delimiter continued in the next chunk.
                    let consumable = window.len().saturating_sub(delim.len() - 1);
                    out.extend_from_slice(&window[..consumable]);
                    self.consume(consumable);
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

    impl<R: Read> Scanner<R> {
        /// Default-window scanner without budget accounting.
        fn new(src: R) -> Self {
            Scanner::with_window(src, DEFAULT_WINDOW, None)
        }
    }
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
