//! RFC 1071 internet checksum, plus the RFC 1624 incremental update
//! used when a router rewrites single header fields (TTL decrement, NAT
//! address/port rewrites) without touching the rest of the packet.

/// Incremental ones-complement sum over a byte slice, continuing from
/// `acc`. Pass `0` to start a fresh sum.
pub fn sum(mut acc: u32, data: &[u8]) -> u32 {
    let (words, rest) = data.as_chunks::<2>();
    for w in words {
        acc += u32::from(u16::from_be_bytes(*w));
    }
    if let [last] = rest {
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

    #[test]
    fn empty_buffer_checksum() {
        assert_eq!(checksum(&[]), 0xffff);
        // An empty buffer trivially verifies only if its stored checksum (none)
        // is treated as zero; `finish(0)` is `!0 = 0xffff`, not 0.
        assert!(!verify(&[]));
    }
}
