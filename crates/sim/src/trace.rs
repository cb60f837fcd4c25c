//! Bounded in-memory trace ring.
//!
//! Components append human-readable trace entries tagged with simulation
//! time; the ring keeps the most recent N so long experiment runs stay
//! memory-bounded. Used heavily by integration tests to assert on the
//! ordering of distributed actions (e.g. "failover happened before PE
//! restart").

use crate::time::SimTime;
use std::collections::VecDeque;

/// FNV-1a 64-bit offset basis (digest seed value).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds `bytes` into an FNV-1a 64-bit hash state, one byte a step: the
/// hash of [`TraceRing::digest`], of the checkpoint and metastore digests,
/// and of every chaining of one digest into another (trace digest into run
/// digest, run digests into a campaign's). The one other mixing function in
/// the workspace is [`DigestWriter::word`], for typed values; through
/// [`DigestWriter::bytes`] and the `Hasher` impl on it, it is also the hash
/// of the social profile store's index and of its C3 scan's group table.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A hash state with two ways in.
///
/// Text: everything written through `fmt::Write` goes through [`fnv1a`], so
/// a rendering is digested without materializing the `String` — chunk by
/// chunk is byte-equivalent to hashing the concatenation, because FNV-1a
/// folds one byte at a time with no per-call framing.
///
/// Typed values: [`DigestWriter::word`] folds 64 bits a step and
/// [`DigestWriter::bytes`] a length-prefixed byte string, with no formatter
/// in between. The caller frames: a count before a sequence, a tag before a
/// variant, `f64` as `to_bits()`. Each step is a bijection of the state for
/// a given word and of the word for a given state, so two streams that
/// differ in one word cannot digest equal.
#[derive(Clone, Debug)]
pub struct DigestWriter {
    h: u64,
}

impl DigestWriter {
    /// Starts a stream from an existing hash state (chain with [`fnv1a`]).
    #[inline]
    pub fn new(h: u64) -> Self {
        DigestWriter { h }
    }

    /// Current hash state.
    #[inline]
    pub fn digest(&self) -> u64 {
        self.h
    }

    /// Folds one word: FNV-1a's xor-then-multiply on 64 bits at once, then
    /// a shift-xor so the high bits the multiply filled reach the low ones.
    #[inline]
    pub fn word(&mut self, w: u64) {
        let h = (self.h ^ w).wrapping_mul(FNV_PRIME);
        self.h = h ^ (h >> 29);
    }

    /// Folds a byte string: its length, then its bytes as little-endian
    /// words, the last one zero-padded. The length goes first, so adjacent
    /// strings cannot trade bytes and a trailing NUL is not padding.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // The little-endian word of `rest` zero-padded, without a
            // variable-length copy.
            self.word(rest.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }
}

impl Default for DigestWriter {
    #[inline]
    fn default() -> Self {
        DigestWriter::new(FNV_OFFSET)
    }
}

impl std::fmt::Write for DigestWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.h = fnv1a(self.h, s.as_bytes());
        Ok(())
    }
}

/// A hasher for in-memory tables (`BuildHasherDefault<DigestWriter>`):
/// every `write` is one [`DigestWriter::bytes`] string, `finish` the state.
/// A `u8` is one word, so the terminator `str`'s `Hash` appends costs one
/// step.
impl std::hash::Hasher for DigestWriter {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.digest()
    }
}

/// One trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    pub at: SimTime,
    pub component: &'static str,
    pub message: String,
}

/// Fixed-capacity trace ring.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    entries: VecDeque<TraceEntry>,
    dropped: u64,
}

impl TraceRing {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        TraceRing {
            cap,
            entries: VecDeque::with_capacity(cap.min(4096)),
            dropped: 0,
        }
    }

    pub fn push(&mut self, at: SimTime, component: &'static str, message: impl Into<String>) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(TraceEntry {
            at,
            component,
            message: message.into(),
        });
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries dropped due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// All entries whose message contains `needle`, oldest first.
    pub fn find(&self, needle: &str) -> Vec<&TraceEntry> {
        self.entries
            .iter()
            .filter(|e| e.message.contains(needle))
            .collect()
    }

    /// First entry matching `needle`, if any.
    pub fn first_match(&self, needle: &str) -> Option<&TraceEntry> {
        self.entries.iter().find(|e| e.message.contains(needle))
    }

    /// FNV-1a digest over every retained entry (time, component, message)
    /// plus the dropped count. Two rings digest equal iff their observable
    /// contents are identical — the bit-identical-replay check of the
    /// fault-injection campaign harness compares runs by this value instead
    /// of materialising two full `dump()` strings.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for e in &self.entries {
            h = fnv1a(h, &e.at.as_millis().to_le_bytes());
            h = fnv1a(h, e.component.as_bytes());
            h = fnv1a(h, &[0xFF]);
            h = fnv1a(h, e.message.as_bytes());
            h = fnv1a(h, &[0xFE]);
        }
        fnv1a(h, &self.dropped.to_le_bytes())
    }

    /// Renders the trace as text, one entry per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("[{}] {:>10} {}\n", e.at, e.component, e.message));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_find() {
        let mut r = TraceRing::new(10);
        r.push(SimTime::from_secs(1), "sam", "job 1 submitted");
        r.push(SimTime::from_secs(2), "srm", "metrics pushed");
        r.push(SimTime::from_secs(3), "sam", "job 1 cancelled");
        assert_eq!(r.len(), 3);
        assert_eq!(r.find("job 1").len(), 2);
        assert_eq!(
            r.first_match("cancelled").unwrap().at,
            SimTime::from_secs(3)
        );
        assert!(r.first_match("nothing").is_none());
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = TraceRing::new(3);
        for i in 0..5 {
            r.push(SimTime::from_millis(i), "c", format!("e{i}"));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let msgs: Vec<_> = r.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn digest_tracks_observable_content() {
        let mut a = TraceRing::new(4);
        let mut b = TraceRing::new(4);
        for r in [&mut a, &mut b] {
            r.push(SimTime::from_millis(10), "sam", "x");
            r.push(SimTime::from_millis(20), "srm", "y");
        }
        assert_eq!(a.digest(), b.digest());
        b.push(SimTime::from_millis(30), "srm", "z");
        assert_ne!(a.digest(), b.digest());
        // Same retained entries but a different eviction history differ too.
        let mut c = TraceRing::new(2);
        c.push(SimTime::from_millis(5), "hc", "evicted");
        c.push(SimTime::from_millis(20), "srm", "y");
        c.push(SimTime::from_millis(30), "srm", "z");
        let mut d = TraceRing::new(2);
        d.push(SimTime::from_millis(20), "srm", "y");
        d.push(SimTime::from_millis(30), "srm", "z");
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    fn digest_writer_streams_identically_to_whole_string_hash() {
        use std::fmt::Write;
        let mut w = DigestWriter::new(fnv1a(FNV_OFFSET, b"prefix"));
        writeln!(w, "{}.snk: {:?}", 1, vec![3u8, 4]).unwrap();
        write!(w, "tail").unwrap();
        let rendered = format!("{}.snk: {:?}\ntail", 1, vec![3u8, 4]);
        let whole = fnv1a(fnv1a(FNV_OFFSET, b"prefix"), rendered.as_bytes());
        assert_eq!(w.digest(), whole);
        assert_eq!(DigestWriter::default().digest(), FNV_OFFSET);
    }

    #[test]
    fn typed_fold_is_framed_and_chunked() {
        fn strings(parts: &[&[u8]]) -> u64 {
            let mut w = DigestWriter::default();
            parts.iter().for_each(|p| w.bytes(p));
            w.digest()
        }
        fn words(ws: &[u64]) -> u64 {
            let mut w = DigestWriter::default();
            ws.iter().for_each(|&x| w.word(x));
            w.digest()
        }
        // Adjacent strings do not trade bytes, a NUL is not padding, and
        // every length across two chunk boundaries digests differently.
        assert_ne!(strings(&[b"ab", b"c"]), strings(&[b"a", b"bc"]));
        assert_ne!(strings(&[b"a"]), strings(&[b"a\0"]));
        let lens: Vec<u64> = (0..=17)
            .map(|n| strings(&[&b"abcdefghijklmnopq"[..n]]))
            .collect();
        for (n, a) in lens.iter().enumerate() {
            assert!(lens[n + 1..].iter().all(|b| a != b), "length {n} collides");
        }
        // One word changed changes the state, wherever it sits; so does
        // one zero word more.
        let base = [1, 2, 3, 4];
        for at in 0..base.len() {
            let mut one_off = base;
            one_off[at] += 1;
            assert_ne!(words(&base), words(&one_off));
        }
        assert_ne!(words(&[0]), words(&[]));
        assert_ne!(words(&[7, 0]), words(&[7]));
        // An empty string is its length word and nothing else.
        assert_eq!(strings(&[b""]), words(&[0]));
    }

    #[test]
    fn hasher_write_and_finish_are_bytes_and_digest() {
        use std::hash::Hasher;
        // Nothing, an empty string, a NUL, and strings on either side of a
        // word boundary, one after another.
        let parts: [&[&[u8]]; 5] = [
            &[],
            &[b""],
            &[b"a\0"],
            &[b"abcdefgh", b"i"],
            &[b"bcdefghijklmnopq", b"\0", b"abcdefghijklmnopq"],
        ];
        for parts in parts {
            let (mut hasher, mut writer) = (DigestWriter::default(), DigestWriter::default());
            for part in parts {
                hasher.write(part);
                writer.bytes(part);
            }
            assert_eq!(hasher.finish(), writer.digest(), "{parts:?}");
        }
    }

    #[test]
    fn dump_contains_all_lines() {
        let mut r = TraceRing::new(8);
        r.push(SimTime::from_millis(1500), "orca", "event delivered");
        let d = r.dump();
        assert!(d.contains("1.500s"));
        assert!(d.contains("orca"));
        assert!(d.contains("event delivered"));
    }
}
