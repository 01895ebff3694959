//! RFC 1071 internet checksum, plus the RFC 1624 incremental update
//! used when a router rewrites single header fields (TTL decrement, NAT
//! address/port rewrites) without touching the rest of the packet.

/// Incremental ones-complement sum over a byte slice, continuing from
/// `acc`. Pass `0` to start a fresh sum.
///
/// The result is congruent modulo `0xffff` to `acc` plus every
/// big-endian 16-bit word of `data` (an odd last byte padded with
/// zero), and zero only if that sum is, so [`finish`] gives the same
/// checksum; it is not that sum itself.
pub fn sum(acc: u32, data: &[u8]) -> u32 {
    // RFC 1071 §2: deferred carries. The 32-bit halves of each 8-byte
    // word are added into two 64-bit accumulators, whose high bits
    // collect the carries, and the total is folded to 16 bits once. The
    // sum does not depend on byte order, so words are read in native
    // order and the folded sum is put in network order; the last few
    // bytes go word by word.
    let (words, rest) = data.as_chunks::<8>();
    let (hi, lo) = words.iter().fold((0u64, 0u64), |(hi, lo), word| {
        let w = u64::from_ne_bytes(*word);
        (hi + (w >> 32), lo + (w & 0xffff_ffff))
    });
    let mut wide = hi + lo;
    wide = (wide >> 32) + (wide & 0xffff_ffff);
    for _ in 0..3 {
        wide = (wide >> 16) + (wide & 0xffff);
    }
    let mut acc = acc + u32::from(u16::from_be(wide as u16));
    let (pairs, odd) = rest.as_chunks::<2>();
    for w in pairs {
        acc += u32::from(u16::from_be_bytes(*w));
    }
    if let [last] = odd {
        acc += u32::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

/// Fold a 32-bit accumulator into the final 16-bit ones-complement
/// checksum value (already inverted, ready to write into the header).
pub fn finish(mut acc: u32) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    !(acc as u16)
}

/// Compute the checksum of a standalone buffer.
pub fn checksum(data: &[u8]) -> u16 {
    finish(sum(0, data))
}

/// Verify a buffer whose checksum field is included in `data`; valid
/// buffers sum to `0xffff` before inversion, i.e. `finish` yields 0.
pub fn verify(data: &[u8]) -> bool {
    finish(sum(0, data)) == 0
}

/// Store in the 16-bit field at `at` the checksum of `data`, continuing
/// from `acc` (a pseudo-header sum, or 0), with the field itself summed
/// as zero. Returns the value stored; `None`, and `data` untouched, if
/// the field lies outside `data`.
#[inline]
pub fn fill(data: &mut [u8], at: usize, acc: u32) -> Option<u16> {
    data.get_mut(at..at + 2)?.fill(0);
    let ck = finish(sum(acc, data));
    data.get_mut(at..at + 2)?.copy_from_slice(&ck.to_be_bytes());
    Some(ck)
}

/// RFC 1624 incremental checksum update: the stored checksum after one
/// 16-bit word of the summed data changes from `old_word` to `new_word`.
///
/// `HC' = ~(~HC + ~m + m')` (RFC 1624 eqn. 3 — the form that, unlike
/// RFC 1071's eqn. 4, never produces the wrong all-zeros representation
/// of the checksum). Apply once per modified 16-bit word; fields wider
/// than 16 bits (IPv4 addresses) are two words.
pub fn incremental_update(old_check: u16, old_word: u16, new_word: u16) -> u16 {
    let acc = u32::from(!old_check) + u32::from(!old_word) + u32::from(new_word);
    finish(acc)
}

/// Pseudo-header sum for TCP/UDP over IPv4 (RFC 768 / RFC 793).
pub fn pseudo_header_v4(src: [u8; 4], dst: [u8; 4], proto: u8, len: u16) -> u32 {
    let mut acc = 0u32;
    acc = sum(acc, &src);
    acc = sum(acc, &dst);
    acc += u32::from(proto);
    acc += u32::from(len);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rfc1071_example() {
        // The worked example from RFC 1071 §3.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(
            checksum(&[0xab]),
            finish(u32::from(u16::from_be_bytes([0xab, 0])))
        );
    }

    #[test]
    fn verify_detects_corruption() {
        let mut data = vec![
            0x45, 0x00, 0x00, 0x1c, 0xde, 0xad, 0x00, 0x00, 0x40, 0x11, 0, 0, 10, 0, 0, 1, 10, 0,
            0, 2,
        ];
        let ck = checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x10;
        assert!(!verify(&data));
    }

    #[test]
    fn incremental_update_matches_recompute() {
        // Rewrite each word of a small header in turn and check the
        // incrementally patched checksum against a full recompute.
        let mut data = [
            0x45u8, 0x00, 0x00, 0x1c, 0xde, 0xad, 0x40, 0x00, 0x40, 0x11, 0, 0, 10, 0, 0, 1, 10, 0,
            0, 2,
        ];
        let ck = checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        for word in (0..data.len()).step_by(2) {
            if word == 10 {
                continue; // the checksum field itself is not summed data
            }
            let mut patched = data;
            let old = u16::from_be_bytes([data[word], data[word + 1]]);
            let new = old.wrapping_add(0x0101) ^ 0x00ff;
            patched[word..word + 2].copy_from_slice(&new.to_be_bytes());
            let inc = incremental_update(ck, old, new);
            patched[10..12].copy_from_slice(&[0, 0]);
            let full = checksum(&patched);
            assert_eq!(inc, full, "word offset {word}");
        }
    }

    /// The 2-byte loop [`sum`] replaced: every big-endian word added
    /// to the accumulator as it is.
    fn sum_by_words(mut acc: u32, data: &[u8]) -> u32 {
        let (words, rest) = data.as_chunks::<2>();
        for w in words {
            acc += u32::from(u16::from_be_bytes(*w));
        }
        if let [last] = rest {
            acc += u32::from(u16::from_be_bytes([*last, 0]));
        }
        acc
    }

    proptest! {
        /// Every length up to a full frame, random bytes and a starting
        /// accumulator (a pseudo-header's, at most): the same checksum as
        /// the word-by-word loop, and the same ones-complement value.
        #[test]
        fn wide_sum_equals_the_word_loop(
            bytes in proptest::collection::vec(any::<u8>(), 1601..1602),
            acc in 1u32..0x4_0000,
        ) {
            for len in 0..=1600 {
                let data = &bytes[..len];
                let (wide, words) = (sum(acc, data), sum_by_words(acc, data));
                prop_assert_eq!(finish(wide), finish(words), "length {}", len);
                prop_assert_eq!(wide % 0xffff, words % 0xffff, "length {}", len);
            }
        }
    }

    #[test]
    fn all_ones_and_zeros_keep_their_representation() {
        for len in 0..64 {
            assert_eq!(checksum(&vec![0; len]), 0xffff, "length {len}");
            let ones = vec![0xff; len];
            assert_eq!(
                checksum(&ones),
                finish(sum_by_words(0, &ones)),
                "length {len}"
            );
        }
    }

    #[test]
    fn empty_buffer_checksum() {
        assert_eq!(checksum(&[]), 0xffff);
        // An empty buffer trivially verifies only if its stored checksum (none)
        // is treated as zero; `finish(0)` is `!0 = 0xffff`, not 0.
        assert!(!verify(&[]));
    }
}
