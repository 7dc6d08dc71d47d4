//! Per-column block encodings for store chunks.
//!
//! A block encodes one column of a single day's chunk as a `(tag, data)`
//! pair. Values are carried as `u64` regardless of the column's on-disk
//! width (1, 2 or 4 bytes) so one codec set serves every column:
//!
//! | tag | encoding      | layout                                            |
//! |-----|---------------|---------------------------------------------------|
//! | 0   | raw           | `value[width × n]` little-endian                  |
//! | 1   | constant      | `value[width]` (all rows equal)                   |
//! | 2   | RLE           | `(run_len:uvarint value[width])*`                 |
//! | 3   | delta varint  | `zigzag(v0) zigzag(v1−v0) …` as LEB128 uvarints   |
//! | 4   | dict packed   | `dict_len:uvarint dict[width × d] indices` where  |
//! |     |               | indices are `⌈log₂ d⌉`-bit, LSB-first packed      |
//!
//! [`choose_block`] sizes every codec exactly, then encodes a column with
//! only the smallest; ties break toward the lower tag. The choice is a
//! pure function of the values, which is what keeps resumed stores
//! byte-identical to uninterrupted writes.
//!
//! [`decode_block`] writes each value straight into its row through a
//! setter, so a reader fills one `Observation` field per block with no
//! intermediate column. Each packed dict index is read from one `u64`
//! loaded at its bit offset, at every bit width. Decoding validates
//! everything it touches — widths, varint termination, dict bounds (one
//! check of a block's largest index), exact data consumption — and returns
//! `InvalidData` rather than panicking: a corrupt block must surface as
//! a store error with a locus, not a crash.

use std::io::{self, ErrorKind};

/// Raw little-endian values, `width` bytes each.
pub const TAG_RAW: u8 = 0;
/// A single value repeated for every row.
pub const TAG_CONSTANT: u8 = 1;
/// Run-length encoded `(count, value)` pairs.
pub const TAG_RLE: u8 = 2;
/// Zigzag deltas between consecutive values, LEB128-varint coded.
pub const TAG_DELTA_VARINT: u8 = 3;
/// Sorted value dictionary plus bit-width-packed indices.
pub const TAG_DICT_PACKED: u8 = 4;

/// Dictionary encoding is only attempted below this many distinct
/// values: past it the dictionary itself dominates and raw/delta wins.
const DICT_MAX_ENTRIES: usize = 4096;

fn bad(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

fn width_max(width: usize) -> u64 {
    match width {
        8 => u64::MAX,
        w => (1u64 << (8 * w)) - 1,
    }
}

fn put_value(buf: &mut Vec<u8>, v: u64, width: usize) {
    buf.extend_from_slice(&v.to_le_bytes()[..width]);
}

/// The little-endian value of `bytes` (at most eight of them).
fn get_value(bytes: &[u8]) -> u64 {
    let mut value = [0u8; 8];
    value[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(value)
}

/// Append `v` as a LEB128 unsigned varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 unsigned varint at `pos`, returning the value and the
/// position just past it.
pub fn read_uvarint(data: &[u8], mut pos: usize) -> io::Result<(u64, usize)> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte =
            data.get(pos).ok_or_else(|| bad("varint runs past the end of the block".into()))?;
        pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(bad("varint overflows u64".into()));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok((v, pos));
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bytes `v` takes as a LEB128 uvarint.
fn uvarint_len(v: u64) -> usize {
    (u64::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// Bits needed to index a dictionary of `len` entries (0 for ≤1).
fn index_bits(len: usize) -> u32 {
    usize::BITS - len.saturating_sub(1).leading_zeros()
}

/// Size of a dict block of `rows` values over `len` distinct ones.
fn dict_size(rows: usize, len: usize, width: usize) -> usize {
    uvarint_len(len as u64) + len * width + (rows * index_bits(len) as usize).div_ceil(8)
}

/// What [`choose_block`] reuses from column to column: the dictionary and
/// a set of `(value, mark)` slots, live where the mark has reached the
/// column's `base`; the mark past it is the value's dictionary index.
#[derive(Debug, Default)]
pub struct DictScratch {
    slots: Vec<(u64, u64)>,
    base: u64,
    dict: Vec<u64>,
}

impl DictScratch {
    /// The slot holding `v` or the free one it goes to, probing from a hash's top 13 bits.
    fn find(&self, v: u64) -> usize {
        let mut at = (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 51) as usize;
        while self.slots[at].1 >= self.base && self.slots[at].0 != v {
            at = (at + 1) % self.slots.len();
        }
        at
    }

    /// Gather the distinct `values` into the dictionary, sorted; `None`
    /// once a dict block, never smaller for more entries, cannot beat `best`.
    fn distinct(&mut self, values: &[u64], width: usize, best: usize) -> Option<usize> {
        if self.slots.is_empty() {
            self.slots = vec![(0, 0); 2 * DICT_MAX_ENTRIES];
            self.dict.reserve(DICT_MAX_ENTRIES);
        }
        self.base += DICT_MAX_ENTRIES as u64;
        self.dict.clear();
        for &v in values {
            let at = self.find(v);
            if self.slots[at].1 < self.base {
                let len = self.dict.len() + 1;
                if len > DICT_MAX_ENTRIES || dict_size(values.len(), len, width) >= best {
                    return None;
                }
                self.slots[at] = (v, self.base);
                self.dict.push(v);
            }
        }
        self.dict.sort_unstable();
        for (index, &v) in self.dict.iter().enumerate() {
            let at = self.find(v);
            self.slots[at].1 = self.base + index as u64;
        }
        Some(self.dict.len())
    }
}

/// Encode one column block with the smallest codec (ties break toward
/// the lower tag), sizing all of them first and encoding only that one.
/// Every value must fit in `width` bytes; an empty column encodes as an
/// empty raw block.
pub fn choose_block(values: &[u64], width: usize, scratch: &mut DictScratch) -> (u8, Vec<u8>) {
    debug_assert!(values.iter().all(|&v| v <= width_max(width)));
    let Some(&first) = values.first() else {
        return (TAG_RAW, Vec::new());
    };
    let (mut runs, mut run, mut sorted) = (1, 1u64, true);
    let (mut rle, mut delta) = (0, uvarint_len(zigzag(first as i64)));
    for pair in values.windows(2) {
        // Deltas are mod-2^64 (wrapping), so the codec is total over u64.
        delta += uvarint_len(zigzag(pair[1].wrapping_sub(pair[0]) as i64));
        if pair[1] != pair[0] {
            rle += uvarint_len(run) + width;
            (runs, run, sorted) = (runs + 1, 0, sorted && pair[1] > pair[0]);
        }
        run += 1;
    }
    rle += uvarint_len(run) + width;
    let constant = if runs == 1 { width } else { usize::MAX };
    let mut best = (TAG_RAW, values.len() * width);
    for (tag, size) in [(TAG_CONSTANT, constant), (TAG_RLE, rle), (TAG_DELTA_VARINT, delta)] {
        if size < best.1 {
            best = (tag, size);
        }
    }
    // A sorted column has one distinct value per run, so the set counts
    // its dictionary only where that wins, which takes a short column.
    if !sorted || (runs <= DICT_MAX_ENTRIES && dict_size(values.len(), runs, width) < best.1) {
        if let Some(len) = scratch.distinct(values, width, best.1) {
            best = (TAG_DICT_PACKED, dict_size(values.len(), len, width));
        }
    }
    let mut buf = Vec::with_capacity(best.1);
    match best.0 {
        TAG_RAW => values.iter().for_each(|&v| put_value(&mut buf, v, width)),
        TAG_CONSTANT => put_value(&mut buf, first, width),
        TAG_RLE => values.chunk_by(|a, b| a == b).for_each(|run| {
            put_uvarint(&mut buf, run.len() as u64);
            put_value(&mut buf, run[0], width);
        }),
        TAG_DELTA_VARINT => {
            let mut prev: u64 = 0;
            for &v in values {
                put_uvarint(&mut buf, zigzag(v.wrapping_sub(prev) as i64));
                prev = v;
            }
        }
        _ => {
            let dict = &scratch.dict;
            put_uvarint(&mut buf, dict.len() as u64);
            dict.iter().for_each(|&v| put_value(&mut buf, v, width));
            // Eight indices of `bits` bits fill `bits` bytes, LSB first.
            let bits = index_bits(dict.len()) as usize;
            let index = |&v: &u64| u128::from(scratch.slots[scratch.find(v)].1 - scratch.base);
            for group in values.chunks(8) {
                let word = (0..group.len()).fold(0, |w, k| w | index(&group[k]) << (k * bits));
                buf.extend_from_slice(&word.to_le_bytes()[..(group.len() * bits).div_ceil(8)]);
            }
        }
    }
    debug_assert_eq!(buf.len(), best.1, "tag {} sized wrong", best.0);
    (best.0, buf)
}

/// Decode one column block of `rows.len()` values straight into `rows`:
/// `set` stores each decoded value into its row, so the store reader
/// fills one `Observation` field per block with no intermediate column.
/// `table` is the dict codec's lookup table, reused across blocks.
///
/// Rejects unknown tags, values that do not fit `width`, and blocks
/// whose data is shorter or longer than the encoding requires.
pub fn decode_block<T>(
    tag: u8,
    data: &[u8],
    width: usize,
    rows: &mut [T],
    table: &mut Vec<u64>,
    set: impl Fn(&mut T, u64),
) -> io::Result<()> {
    let n = rows.len();
    if tag > TAG_DICT_PACKED {
        return Err(bad(format!("unknown block encoding tag {tag}")));
    }
    if n == 0 {
        if !data.is_empty() {
            return Err(bad(format!("empty block carries {} stray bytes", data.len())));
        }
        return Ok(());
    }
    match tag {
        TAG_RAW => {
            if data.len() != n * width {
                return Err(bad(format!(
                    "raw block is {} bytes, expected {} ({n} rows × {width})",
                    data.len(),
                    n * width
                )));
            }
            for (row, bytes) in rows.iter_mut().zip(data.chunks_exact(width)) {
                set(row, get_value(bytes));
            }
        }
        TAG_CONSTANT => {
            if data.len() != width {
                return Err(bad(format!(
                    "constant block is {} bytes, expected {width}",
                    data.len()
                )));
            }
            let v = get_value(data);
            rows.iter_mut().for_each(|row| set(row, v));
        }
        TAG_RLE => {
            let (mut pos, mut filled) = (0, 0);
            while filled < n {
                let (run, next) = read_uvarint(data, pos)?;
                if run == 0 || run > (n - filled) as u64 {
                    return Err(bad(format!("RLE run of {run} overruns {n} rows")));
                }
                if data.len() - next < width {
                    return Err(bad("RLE value runs past the end of the block".into()));
                }
                let v = get_value(&data[next..next + width]);
                pos = next + width;
                let end = filled + run as usize;
                rows[filled..end].iter_mut().for_each(|row| set(row, v));
                filled = end;
            }
            if pos != data.len() {
                return Err(bad(format!("RLE block has {} trailing bytes", data.len() - pos)));
            }
        }
        TAG_DELTA_VARINT => {
            let max = width_max(width);
            let mut pos = 0;
            let mut prev: u64 = 0;
            for row in rows.iter_mut() {
                // Small deltas dominate real columns, so single-byte
                // varints get a branch instead of the general loop.
                let (z, next) = match data.get(pos) {
                    Some(&b) if b & 0x80 == 0 => (u64::from(b), pos + 1),
                    _ => read_uvarint(data, pos)?,
                };
                pos = next;
                // Mirror the encoder's wrapping mod-2^64 delta domain.
                let v = prev.wrapping_add(unzigzag(z) as u64);
                if v > max {
                    return Err(bad(format!("delta block value {v} does not fit {width} bytes")));
                }
                set(row, v);
                prev = v;
            }
            if pos != data.len() {
                return Err(bad(format!("delta block has {} trailing bytes", data.len() - pos)));
            }
        }
        _ => decode_dict_packed(data, width, rows, table, set)?,
    }
    Ok(())
}

/// The dict-packed arm of [`decode_block`]. Every bit width takes the
/// same loop: row `k`'s index starts at bit `k·bits`, so one
/// little-endian `u64` loaded at byte `k·bits/8` and shifted by
/// `k·bits mod 8` holds it whole (at least 57 bits remain for 12), and
/// the index looks its value up in `table`, padded to `2^bits` entries
/// so any `bits`-bit index lands inside it. Indices past the dictionary
/// are caught by one check of the block's largest index.
fn decode_dict_packed<T>(
    data: &[u8],
    width: usize,
    rows: &mut [T],
    table: &mut Vec<u64>,
    set: impl Fn(&mut T, u64),
) -> io::Result<()> {
    let n = rows.len();
    let (len, pos) = read_uvarint(data, 0)?;
    let len = len as usize;
    if len == 0 || len > DICT_MAX_ENTRIES {
        return Err(bad(format!("dict block has implausible dictionary size {len}")));
    }
    if data.len() - pos < len * width {
        return Err(bad("dict block dictionary runs past the end".into()));
    }
    let (dict, packed) = data[pos..].split_at(len * width);
    let bits = index_bits(len) as usize;
    let need = (n * bits).div_ceil(8);
    if packed.len() != need {
        return Err(bad(format!("dict block indices are {} bytes, expected {need}", packed.len())));
    }
    table.clear();
    table.extend(dict.chunks_exact(width).map(get_value));
    table.resize(1 << bits, 0);
    let mask = (1usize << bits) - 1;
    let table = &table[..=mask];
    let index = |k: usize| (word_at(packed, k * bits / 8) >> (k * bits % 8)) as usize & mask;
    let mut largest = 0usize;
    for (k, row) in rows.iter_mut().enumerate() {
        let index = index(k);
        largest = largest.max(index);
        set(row, table[index]);
    }
    if largest >= len {
        let first = (0..n).map(index).find(|&i| i >= len).unwrap_or(largest);
        return Err(bad(format!("dict index {first} out of range {len}")));
    }
    let used = n * bits % 8;
    if used != 0 && packed[need - 1] >> used != 0 {
        return Err(bad("dict block has stray trailing index bits".into()));
    }
    Ok(())
}

/// The packed index bytes from `at` on as one little-endian word, zero
/// past the end.
fn word_at(packed: &[u8], at: usize) -> u64 {
    let rest = &packed[at..];
    if let Some(bytes) = rest.first_chunk::<8>() {
        return u64::from_le_bytes(*bytes);
    }
    let mut bytes = [0u8; 8];
    bytes[..rest.len()].copy_from_slice(rest);
    u64::from_le_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(tag: u8, data: &[u8], rows: usize, width: usize) -> io::Result<Vec<u64>> {
        let mut out = vec![0; rows];
        decode_block(tag, data, width, &mut out, &mut Vec::new(), |row, v| *row = v)?;
        Ok(out)
    }

    fn round_trip(values: &[u64], width: usize) -> (u8, usize) {
        let (tag, data) = choose_block(values, width, &mut DictScratch::default());
        let out = decode(tag, &data, values.len(), width).expect("decode");
        assert_eq!(out, values, "round trip failed for tag {tag}");
        (tag, data.len())
    }

    #[test]
    fn constant_column_collapses() {
        let values = vec![7u64; 500];
        let (tag, len) = round_trip(&values, 4);
        assert_eq!(tag, TAG_CONSTANT);
        assert_eq!(len, 4);
    }

    #[test]
    fn sorted_ids_take_about_a_byte_per_row() {
        let values: Vec<u64> = (0..1000u64).flat_map(|i| [i, i]).collect();
        let (tag, len) = round_trip(&values, 4);
        assert_eq!(tag, TAG_DELTA_VARINT);
        assert!(len <= values.len(), "{len} bytes for {} rows", values.len());
    }

    #[test]
    fn tiny_alphabet_bit_packs() {
        let values: Vec<u64> = (0..4096u64).map(|i| (i * 7) % 5).collect();
        let (tag, len) = round_trip(&values, 4);
        assert_eq!(tag, TAG_DICT_PACKED);
        // 5 entries → 3 bits/row plus the dictionary itself.
        assert!(len < 4096 / 2, "{len} bytes");
    }

    #[test]
    fn empty_and_single_row_blocks() {
        assert_eq!(round_trip(&[], 4), (TAG_RAW, 0));
        round_trip(&[0], 1);
        round_trip(&[u64::from(u32::MAX)], 4);
        round_trip(&[u64::from(u16::MAX)], 2);
    }

    #[test]
    fn adversarial_values_fall_back_to_raw_sizes() {
        // High-cardinality alternating extremes: dict overflows its cap
        // at >4096 distinct values, deltas are huge, RLE runs are 1.
        let values: Vec<u64> = (0..10_000u64)
            .map(|i| if i % 2 == 0 { i * 431 } else { u32::MAX as u64 - i })
            .collect();
        let (_, len) = round_trip(&values, 4);
        assert!(len <= values.len() * 4, "never worse than raw: {len}");
    }

    #[test]
    fn decode_rejects_malformed_blocks() {
        // Unknown tag.
        assert!(decode(9, &[], 0, 4).is_err());
        // Truncated raw.
        assert!(decode(TAG_RAW, &[1, 2, 3], 1, 4).is_err());
        // RLE run past the row count.
        let mut rle = Vec::new();
        put_uvarint(&mut rle, 3);
        rle.extend_from_slice(&[5, 0, 0, 0]);
        assert!(decode(TAG_RLE, &rle, 2, 4).is_err());
        // Delta that leaves the column's width.
        let mut delta = Vec::new();
        put_uvarint(&mut delta, zigzag(300));
        assert!(decode(TAG_DELTA_VARINT, &delta, 1, 1).is_err());
        // Dict index bytes of the wrong length.
        let mut dict = Vec::new();
        put_uvarint(&mut dict, 2);
        dict.extend_from_slice(&[1, 0, 0, 0, 2, 0, 0, 0]);
        assert!(decode(TAG_DICT_PACKED, &dict, 9, 4).is_err());
        // Unterminated varint.
        assert!(read_uvarint(&[0x80, 0x80], 0).is_err());
    }
}
