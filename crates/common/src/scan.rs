//! SWAR byte scanning for tokenizers.
//!
//! The map-side hot loop of text workloads (word counting, trigram
//! sliding windows) spends most of its time finding delimiter bytes. The
//! scalar idiom — `record.split(|&b| b == b' ').filter(|w| !w.is_empty())`
//! — inspects one byte per iteration. [`tokens`] yields exactly the same
//! sequence of non-empty tokens but locates delimiters a word at a time:
//! 8 bytes per step using the classic zero-byte trick on
//! `x ^ (delim × 0x0101…01)`.
//!
//! The scan reports the *first* matching position, so the token sequence
//! is identical by construction; `tests/swar_equivalence.rs` property-tests
//! it against the scalar split.

/// Iterator over the non-empty `delim`-separated tokens of `data`.
/// Equivalent to `data.split(|&b| b == delim).filter(|t| !t.is_empty())`.
pub fn tokens(data: &[u8], delim: u8) -> Tokens<'_> {
    Tokens {
        data,
        delim,
        pos: 0,
    }
}

/// See [`tokens`].
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    data: &'a [u8],
    delim: u8,
    pos: usize,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        let d = self.data;
        let n = d.len();
        let mut start = self.pos;
        // Delimiter runs are short in real text; skip them bytewise.
        while start < n && d[start] == self.delim {
            start += 1;
        }
        if start >= n {
            self.pos = n;
            return None;
        }
        let end = match find_byte(&d[start..], self.delim) {
            Some(off) => start + off,
            None => n,
        };
        self.pos = end;
        Some(&d[start..end])
    }
}

const LSB: u64 = 0x0101_0101_0101_0101;
const MSB: u64 = 0x8080_8080_8080_8080;

/// Position of the first occurrence of `needle` in `haystack`, by a SWAR
/// scan of 8 bytes per step.
///
/// `x ^ pat` has a zero byte exactly where `x` has a `needle` byte, and
/// `(v − 0x01…) & !v & 0x80…` flags zero bytes of `v`. Borrows can leak
/// spurious flags into *more significant* bytes, but only across a true
/// zero byte — so the least significant set flag is always a real match,
/// and `trailing_zeros` reads exactly that one.
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let pat = LSB.wrapping_mul(needle as u64);
    let mut chunks = haystack.chunks_exact(8);
    let mut base = 0usize;
    for w in &mut chunks {
        let x = u64::from_le_bytes(w.try_into().expect("chunk is 8 bytes")) ^ pat;
        let flags = x.wrapping_sub(LSB) & !x & MSB;
        if flags != 0 {
            return Some(base + (flags.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| base + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_tokens(data: &[u8], delim: u8) -> Vec<Vec<u8>> {
        data.split(|&b| b == delim)
            .filter(|t| !t.is_empty())
            .map(<[u8]>::to_vec)
            .collect()
    }

    #[test]
    fn matches_split_filter_on_representative_inputs() {
        let cases: &[&[u8]] = &[
            b"",
            b" ",
            b"   ",
            b"a",
            b"a b c",
            b" leading and  double  gaps ",
            b"exactly8 exactly8",
            b"a-sixteen-byte-x token crossing several stride boundaries here",
            b"trailing space ",
        ];
        for &case in cases {
            let got: Vec<Vec<u8>> = tokens(case, b' ').map(<[u8]>::to_vec).collect();
            assert_eq!(got, reference_tokens(case, b' '), "input {case:?}");
        }
    }

    #[test]
    fn find_byte_first_match_and_miss() {
        // 0xFF bytes next to the needle stress the SWAR borrow caveat.
        let mut data = vec![0xFFu8; 40];
        assert_eq!(find_byte(&data, b'x'), None);
        data[21] = b'x';
        data[37] = b'x';
        assert_eq!(find_byte(&data, b'x'), Some(21));
        for pos in 0..24 {
            let mut v = vec![0u8; 24];
            v[pos] = b';';
            assert_eq!(find_byte(&v, b';'), Some(pos), "needle at {pos}");
        }
    }

    #[test]
    fn delimiter_zero_works() {
        // delim = 0 makes the SWAR xor a no-op; the zero-byte trick must
        // still fire on genuine zero bytes only.
        let data = b"ab\0cd\0\0ef";
        let got: Vec<Vec<u8>> = tokens(data, 0).map(<[u8]>::to_vec).collect();
        assert_eq!(got, reference_tokens(data, 0));
    }
}
