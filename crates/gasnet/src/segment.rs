//! Registered segments: per-UPC-thread shared-memory regions holding real
//! data, in 8-byte words.

use hupc_sim::SimCell;

/// Bytes per segment word.
pub const WORD_BYTES: usize = 8;

/// One thread's registered shared segment. Grows on demand (the model's
/// analogue of the runtime-reserved GASNet segment).
pub struct Segment {
    data: SimCell<Vec<u64>>,
}

impl Segment {
    /// Create a segment with an initial size in words.
    pub fn new(words: usize) -> Self {
        Segment {
            data: SimCell::new(vec![0u64; words]),
        }
    }

    /// Current size in words.
    pub fn len(&self) -> usize {
        self.data.with(|d| d.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ensure the segment covers `words` words.
    pub fn ensure(&self, words: usize) {
        self.data.with_mut(|d| {
            if d.len() < words {
                d.resize(words, 0);
            }
        });
    }

    /// Copy `dst.len()` words starting at `off` out of the segment.
    pub fn read(&self, off: usize, dst: &mut [u64]) {
        self.data.with(|d| {
            dst.copy_from_slice(&d[off..off + dst.len()]);
        });
    }

    /// Read a single word. Each call is one borrow of the segment's
    /// `SimCell`; a scan over several words should take one
    /// [`Segment::with_range`] borrow instead.
    pub fn read_word(&self, off: usize) -> u64 {
        self.data.with(|d| d[off])
    }

    /// Copy `src` into the segment at `off`.
    pub fn write(&self, off: usize, src: &[u64]) {
        self.data.with_mut(|d| {
            assert!(
                off + src.len() <= d.len(),
                "segment write out of bounds: {}..{} > {}",
                off,
                off + src.len(),
                d.len()
            );
            d[off..off + src.len()].copy_from_slice(src);
        });
    }

    /// Write a single word.
    pub fn write_word(&self, off: usize, v: u64) {
        self.data.with_mut(|d| d[off] = v);
    }

    /// Scoped shared access to a range (privatized/cast reads).
    pub fn with_range<R>(&self, off: usize, len: usize, f: impl FnOnce(&[u64]) -> R) -> R {
        self.data.with(|d| f(&d[off..off + len]))
    }

    /// Scoped exclusive access to a range (privatized/cast writes).
    pub fn with_range_mut<R>(
        &self,
        off: usize,
        len: usize,
        f: impl FnOnce(&mut [u64]) -> R,
    ) -> R {
        self.data.with_mut(|d| f(&mut d[off..off + len]))
    }

    /// Segment-to-segment copy (the memcpy fast paths). Handles the
    /// same-segment case with a temporary.
    pub fn copy_between(src: &Segment, src_off: usize, dst: &Segment, dst_off: usize, len: usize) {
        if std::ptr::eq(src, dst) {
            let mut tmp = vec![0u64; len];
            src.read(src_off, &mut tmp);
            dst.write(dst_off, &tmp);
        } else {
            src.data.with(|s| {
                dst.data.with_mut(|d| {
                    d[dst_off..dst_off + len].copy_from_slice(&s[src_off..src_off + len]);
                });
            });
        }
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment").field("words", &self.len()).finish()
    }
}

/// f64 ⇄ word conversions (free: bit casts).
pub mod word {
    /// Pack an `f64` into a segment word.
    #[inline]
    pub fn from_f64(v: f64) -> u64 {
        v.to_bits()
    }

    /// Unpack an `f64` from a segment word.
    #[inline]
    pub fn to_f64(w: u64) -> f64 {
        f64::from_bits(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let s = Segment::new(16);
        s.write(4, &[1, 2, 3]);
        let mut out = [0u64; 3];
        s.read(4, &mut out);
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(s.read_word(5), 2);
        s.write_word(5, 42);
        assert_eq!(s.read_word(5), 42);
    }

    #[test]
    fn ensure_grows_but_never_shrinks() {
        let s = Segment::new(4);
        s.ensure(100);
        assert_eq!(s.len(), 100);
        s.ensure(10);
        assert_eq!(s.len(), 100);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let s = Segment::new(4);
        s.write(3, &[1, 2]);
    }

    #[test]
    fn copy_between_distinct_segments() {
        let a = Segment::new(8);
        let b = Segment::new(8);
        a.write(0, &[9, 8, 7]);
        Segment::copy_between(&a, 0, &b, 5, 3);
        assert_eq!(b.read_word(5), 9);
        assert_eq!(b.read_word(7), 7);
    }

    #[test]
    fn copy_within_same_segment() {
        let a = Segment::new(8);
        a.write(0, &[1, 2, 3]);
        Segment::copy_between(&a, 0, &a, 4, 3);
        assert_eq!(a.read_word(4), 1);
        assert_eq!(a.read_word(6), 3);
    }

    #[test]
    fn f64_word_round_trip() {
        let v = -1234.5678e-9;
        assert_eq!(word::to_f64(word::from_f64(v)), v);
    }

    #[test]
    fn ranged_access() {
        let s = Segment::new(10);
        s.with_range_mut(2, 4, |r| {
            for (i, w) in r.iter_mut().enumerate() {
                *w = i as u64;
            }
        });
        let sum: u64 = s.with_range(2, 4, |r| r.iter().sum());
        assert_eq!(sum, 1 + 2 + 3);
    }
}
