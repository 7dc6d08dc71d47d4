//! Append-only on-disk columnar snapshot store.
//!
//! A store is a directory holding one multi-year campaign:
//!
//! ```text
//! store/
//! ├── MANIFEST      campaign shape: vantages, sample days, world config
//! ├── orgs.dict     append-only org-name dictionary (OrgInterner image)
//! ├── v00.col       per-vantage column chunks, one chunk per scan day
//! ├── v01.col
//! └── ...
//! ```
//!
//! Every file is little-endian binary with an 8-byte magic + `u16`
//! format version, and this build reads and writes exactly one version,
//! [`FORMAT_VERSION`] (v2). A store written by an older build carries
//! version 1 in its headers and is refused at open, before any byte of
//! it is read as a chunk or truncated. A column file is its header
//! followed by one chunk per completed scan day, in `sample_days` order:
//!
//! ```text
//! chunk    := "CHK2" day:u32 rows:u32 payload_len:u32 checksum:u64
//!             payload trailer
//! payload  := block×7 stats
//! block    := tag:u8 len:u32 data      (see [`encoding`] for the codecs)
//! stats    := rows:u32 (min:u64 max:u64)×7 flags_or:u32 distinct_orgs:u32
//! trailer  := "TRL2" header_offset:u64
//! ```
//!
//! A payload holds one [`encoding`] block per column — constant/RLE
//! for `day`, delta+varint for near-sorted `domain_id`/`rank`,
//! dictionary+bit-packing for the small-alphabet `flags`/`ns_category`/
//! `org`/`min_priority` — each chosen by measured size with a raw
//! fallback, followed by a [`ChunkStats`] footer (per-column min/max,
//! flags OR-mask, distinct-org count). The checksum is FNV-1a 64 over
//! the payload (blocks + stats) and is verified on every chunk read.
//! The trailer sits outside the checksum and back-points at the chunk's
//! own header; this reader never reads it (it only counts its 12 bytes
//! into the chunk's length). The org dictionary is the campaign's
//! [`OrgInterner`] serialized once and extended append-only; it is
//! shared by all vantages because campaigns intern orgs identically per
//! vantage.
//!
//! ## Crash recovery and resume
//!
//! All writes are appends, so a killed campaign can only leave *tails*
//! in a bad state: a torn final dict entry or a torn final chunk.
//! Opening a column file walks it forward — one seek and one 24-byte
//! header read per chunk, payloads skipped — and stops at the first
//! incomplete or malformed chunk. [`StoreWriter::open_resume`]
//! additionally verifies the last surviving chunk's checksum, truncates
//! everything past the last day completed by *every* vantage, and
//! reports how many days survive; it checks every file's header before
//! it truncates anything.
//! The campaign layer then deterministically replays the completed days
//! (rebuilding resolver cache/RNG state and verifying each replayed day
//! against the stored chunk) before appending new ones — which is what
//! makes a resumed run byte-identical to an uninterrupted one.
//!
//! ## Bounded memory and pruned reads
//!
//! [`StoreReader`] implements [`ObservationSource`] by decoding one
//! day's chunk at a time into a reused scratch buffer: streaming a
//! 730-day campaign keeps at most one day of observations resident.
//! Filtered streaming ([`ObservationSource::for_each_day_filtered`])
//! skips whole chunks outside the requested day range without touching
//! their payloads, and decodes only the blocks of projected columns —
//! an analysis that reads nothing but flags never pays the rank/org
//! decode. Unprojected fields come back as deterministic defaults
//! (zero / [`OrgId::NONE`]); `day` is always stamped from the chunk
//! header, which append-time validation guarantees is exact.

pub mod encoding;

use super::{ObservationSource, OrgId, OrgInterner, Projection, ScanFilter, SnapshotStore};
use crate::observation::Observation;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const MANIFEST_MAGIC: [u8; 8] = *b"SNAPMAN1";
const DICT_MAGIC: [u8; 8] = *b"SNAPORG1";
const COLUMN_MAGIC: [u8; 8] = *b"SNAPCOL1";
const CHUNK_MAGIC: [u8; 4] = *b"CHK2";
const TRAILER_MAGIC: [u8; 4] = *b"TRL2";
/// The on-disk format version this build reads and writes; every file
/// header must carry exactly this version.
pub const FORMAT_VERSION: u16 = 2;
const CHUNK_HEADER_BYTES: u64 = 24;
/// Size of the chunk trailer ("TRL2" + header back-pointer).
const TRAILER_BYTES: u64 = 12;
/// Serialized size of a [`ChunkStats`] footer.
const STATS_BYTES: usize = 4 + COLUMN_COUNT * 16 + 4 + 4;
/// The smallest possible payload: 7 empty blocks plus the footer.
const MIN_PAYLOAD: u64 = (COLUMN_COUNT * 5 + STATS_BYTES) as u64;
/// Sanity cap for dictionary entries; WHOIS org names are short.
const MAX_DICT_ENTRY: u32 = 1 << 20;

/// Number of observation columns (one block each).
pub const COLUMN_COUNT: usize = 7;
/// Raw little-endian byte width of each column, in canonical order:
/// day, domain_id, rank, flags, ns_category, org, min_priority.
const COLUMN_WIDTHS: [usize; COLUMN_COUNT] = [4, 4, 4, 4, 1, 4, 2];
const COLUMN_NAMES: [&str; COLUMN_COUNT] =
    ["day", "domain_id", "rank", "flags", "ns_category", "org", "min_priority"];

/// The statistics footer of a chunk: advisory metadata used for
/// chunk pruning and reporting. `min`/`max` are per column in canonical
/// order; an empty chunk carries `min = u64::MAX, max = 0` (min > max
/// signals "no rows").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkStats {
    /// Row count (must match the chunk header).
    pub rows: u32,
    /// Per-column minimum value.
    pub min: [u64; COLUMN_COUNT],
    /// Per-column maximum value.
    pub max: [u64; COLUMN_COUNT],
    /// OR of every row's flags word.
    pub flags_or: u32,
    /// Distinct org ids in the chunk (including [`OrgId::NONE`]).
    pub distinct_orgs: u32,
}

impl ChunkStats {
    fn compute(obs: &[Observation]) -> ChunkStats {
        let mut stats = ChunkStats {
            rows: obs.len() as u32,
            min: [u64::MAX; COLUMN_COUNT],
            max: [0; COLUMN_COUNT],
            flags_or: 0,
            distinct_orgs: 0,
        };
        let mut orgs = BTreeSet::new();
        for o in obs {
            for c in 0..COLUMN_COUNT {
                let v = column_value(o, c);
                stats.min[c] = stats.min[c].min(v);
                stats.max[c] = stats.max[c].max(v);
            }
            stats.flags_or |= o.flags;
            orgs.insert(o.org.0);
        }
        stats.distinct_orgs = orgs.len() as u32;
        stats
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.rows);
        for c in 0..COLUMN_COUNT {
            put_u64(buf, self.min[c]);
            put_u64(buf, self.max[c]);
        }
        put_u32(buf, self.flags_or);
        put_u32(buf, self.distinct_orgs);
    }

    fn decode(buf: &[u8; STATS_BYTES]) -> io::Result<ChunkStats> {
        let mut c = Cursor::new(buf, "stats footer");
        let rows = c.u32()?;
        let mut min = [0u64; COLUMN_COUNT];
        let mut max = [0u64; COLUMN_COUNT];
        for col in 0..COLUMN_COUNT {
            min[col] = c.u64()?;
            max[col] = c.u64()?;
        }
        Ok(ChunkStats { rows, min, max, flags_or: c.u32()?, distinct_orgs: c.u32()? })
    }
}

/// The value of column `c` (canonical order) of one observation, as the
/// u64 the block codecs work over.
fn column_value(o: &Observation, c: usize) -> u64 {
    match c {
        0 => o.day as u64,
        1 => o.domain_id as u64,
        2 => o.rank as u64,
        3 => o.flags as u64,
        4 => o.ns_category as u64,
        5 => o.org.0 as u64,
        6 => o.min_priority as u64,
        _ => unreachable!("column index out of range"),
    }
}

/// The manifest: everything needed to reopen or resume a campaign
/// without the process that created it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreMeta {
    /// Vantage names, in campaign order (one column file each).
    pub vantages: Vec<String>,
    /// The campaign's scan days, ascending.
    pub sample_days: Vec<u64>,
    /// Whether www subdomains were scanned.
    pub scan_www: bool,
    /// World seed (resume rebuilds the identical world from this).
    pub world_seed: u64,
    /// World population.
    pub population: u64,
    /// Daily list size.
    pub list_size: u64,
}

/// Location of one day's chunk within a column file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkRef {
    day: u32,
    rows: u32,
    payload_offset: u64,
    payload_len: u32,
    checksum: u64,
}

impl ChunkRef {
    fn header_offset(&self) -> u64 {
        self.payload_offset - CHUNK_HEADER_BYTES
    }

    fn end_offset(&self) -> u64 {
        self.payload_offset + self.payload_len as u64 + TRAILER_BYTES
    }
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn column_file_name(index: usize) -> String {
    format!("v{index:02}.col")
}

// ---------------------------------------------------------------------
// Little-endian encode/decode helpers over byte buffers.

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u16(buf, u16::try_from(s.len()).expect("name fits in u16"));
    buf.extend_from_slice(s.as_bytes());
}

/// Cursor over a fully-read byte buffer (headers, manifest, footers).
/// Every fixed-width read goes through [`array`](Self::array), so a
/// short buffer is an error, never a panic.
struct Cursor<'a> {
    rest: &'a [u8],
    what: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], what: &'a str) -> Cursor<'a> {
        Cursor { rest: buf, what }
    }

    fn truncated(&self, n: usize) -> io::Error {
        corrupt(format!("{}: truncated (needed {n} more bytes)", self.what))
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let rest = self.rest;
        let (head, rest) = rest.split_at_checked(n).ok_or_else(|| self.truncated(n))?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, as the array a `from_le_bytes` takes.
    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let rest = self.rest;
        let (head, rest) = rest.split_first_chunk::<N>().ok_or_else(|| self.truncated(N))?;
        self.rest = rest;
        Ok(*head)
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn u16(&mut self) -> io::Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt(format!("{}: non-UTF-8 name", self.what)))
    }

    /// Check a file header: `magic`, then exactly [`FORMAT_VERSION`].
    /// `kind` says what the magic marks, for the bad-magic error.
    fn header(&mut self, magic: [u8; 8], kind: &str) -> io::Result<()> {
        if self.array::<8>()? != magic {
            return Err(corrupt(format!("{}: bad magic (not {kind})", self.what)));
        }
        match self.u16()? {
            FORMAT_VERSION => Ok(()),
            1 => Err(corrupt(format!(
                "{}: format version 1 — v1 stores are not supported; \
                 this build reads only v{FORMAT_VERSION}",
                self.what
            ))),
            v => Err(corrupt(format!(
                "{}: unsupported format version {v} (this build reads only v{FORMAT_VERSION})",
                self.what
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Manifest.

fn manifest_bytes(meta: &StoreMeta) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MANIFEST_MAGIC);
    put_u16(&mut buf, FORMAT_VERSION);
    buf.push(meta.scan_www as u8);
    put_u16(&mut buf, u16::try_from(meta.vantages.len()).expect("vantage count fits in u16"));
    for v in &meta.vantages {
        put_str(&mut buf, v);
    }
    put_u32(&mut buf, u32::try_from(meta.sample_days.len()).expect("day count fits in u32"));
    for &d in &meta.sample_days {
        put_u64(&mut buf, d);
    }
    put_u64(&mut buf, meta.world_seed);
    put_u64(&mut buf, meta.population);
    put_u64(&mut buf, meta.list_size);
    buf
}

fn read_manifest(path: &Path) -> io::Result<StoreMeta> {
    let buf = std::fs::read(path)?;
    let ctx = path.display().to_string();
    let mut c = Cursor::new(&buf, &ctx);
    c.header(MANIFEST_MAGIC, "a snapshot store")?;
    let [scan_www] = c.array()?;
    let scan_www = scan_www != 0;
    let nv = c.u16()? as usize;
    let mut vantages = Vec::with_capacity(nv);
    for _ in 0..nv {
        vantages.push(c.str()?);
    }
    // Size nothing from a count before the bytes behind it exist: a
    // damaged count must end in the truncation error below, not in an
    // allocation failure.
    let nd = c.u32()? as usize;
    let mut sample_days = Vec::with_capacity(nd.min(c.remaining() / 8));
    for _ in 0..nd {
        sample_days.push(c.u64()?);
    }
    let world_seed = c.u64()?;
    let population = c.u64()?;
    let list_size = c.u64()?;
    if !sample_days.windows(2).all(|w| w[0] < w[1]) {
        return Err(corrupt(format!("{ctx}: sample days not strictly ascending")));
    }
    Ok(StoreMeta { vantages, sample_days, scan_www, world_seed, population, list_size })
}

// ---------------------------------------------------------------------
// Org dictionary.

fn dict_entry_bytes(name: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + name.len());
    put_u32(&mut buf, u32::try_from(name.len()).expect("org name fits in u32"));
    buf.extend_from_slice(name.as_bytes());
    buf
}

/// Scan the dictionary file: returns the names, the offset just past
/// the last complete entry, and whether a torn tail was dropped.
fn scan_dict(file: &mut File, path: &Path) -> io::Result<(Vec<String>, u64, bool)> {
    let mut buf = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut buf)?;
    let ctx = path.display().to_string();
    let mut c = Cursor::new(&buf, &ctx);
    c.header(DICT_MAGIC, "an org dictionary")?;
    let mut names = Vec::new();
    let mut end = buf.len() - c.remaining();
    while c.remaining() > 0 {
        // A torn final entry (its length or its name cut short) ends
        // the scan.
        let Ok(len) = c.u32() else { break };
        if len > MAX_DICT_ENTRY {
            return Err(corrupt(format!("{ctx}: implausible entry length {len}")));
        }
        let Ok(name) = c.take(len as usize) else { break };
        let name = String::from_utf8(name.to_vec())
            .map_err(|_| corrupt(format!("{ctx}: non-UTF-8 entry")))?;
        names.push(name);
        end = buf.len() - c.remaining();
    }
    Ok((names, end as u64, end < buf.len()))
}

fn interner_from_names(names: Vec<String>) -> OrgInterner {
    let mut index = BTreeMap::new();
    for (i, name) in names.iter().enumerate() {
        index.insert(name.clone(), OrgId(i as u32));
    }
    OrgInterner { names, index }
}

// ---------------------------------------------------------------------
// Column files.

fn column_header_bytes(vantage: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&COLUMN_MAGIC);
    put_u16(&mut buf, FORMAT_VERSION);
    put_str(&mut buf, vantage);
    buf
}

struct ColumnScan {
    vantage: String,
    chunks: Vec<ChunkRef>,
    /// Offset just past the file header (the empty-file append point).
    header_end: u64,
    /// Offset just past the last structurally-valid chunk.
    valid_end: u64,
    /// Whether bytes past `valid_end` were ignored (torn tail).
    truncated: bool,
}

/// Parse one 24-byte chunk header starting at `header_offset`; `None`
/// for a wrong magic or a payload too short to hold the stats footer.
fn parse_chunk_header(
    header: &[u8; CHUNK_HEADER_BYTES as usize],
    header_offset: u64,
) -> Option<ChunkRef> {
    let mut c = Cursor::new(header, "chunk header");
    if c.array().ok()? != CHUNK_MAGIC {
        return None;
    }
    let chunk = ChunkRef {
        day: c.u32().ok()?,
        rows: c.u32().ok()?,
        payload_offset: header_offset + CHUNK_HEADER_BYTES,
        payload_len: c.u32().ok()?,
        checksum: c.u64().ok()?,
    };
    (chunk.payload_len as u64 >= MIN_PAYLOAD).then_some(chunk)
}

/// Structurally scan a column file without reading chunk payloads.
///
/// Validates the header, then indexes the chunks with the forward
/// walk, which seeks past payloads and stops (marking a torn tail) at
/// the first incomplete or malformed chunk — an append-only writer can
/// only corrupt the tail.
fn scan_column(file: &mut File, path: &Path) -> io::Result<ColumnScan> {
    let len = file.metadata()?.len();
    let ctx = path.display().to_string();
    file.seek(SeekFrom::Start(0))?;
    let mut head = [0u8; 12];
    if len < 12 {
        return Err(corrupt(format!("{ctx}: truncated column header")));
    }
    file.read_exact(&mut head)?;
    let mut c = Cursor::new(&head, &ctx);
    c.header(COLUMN_MAGIC, "a column file")?;
    let name_len = c.u16()? as u64;
    if len < 12 + name_len {
        return Err(corrupt(format!("{ctx}: truncated column header")));
    }
    let mut name_buf = vec![0u8; name_len as usize];
    file.read_exact(&mut name_buf)?;
    let vantage =
        String::from_utf8(name_buf).map_err(|_| corrupt(format!("{ctx}: non-UTF-8 vantage")))?;
    let header_end = 12 + name_len;

    let (chunks, valid_end, truncated) = scan_chunks_forward(file, header_end, len)?;
    Ok(ColumnScan { vantage, chunks, header_end, valid_end, truncated })
}

/// The forward structural walk: one header read per chunk, payloads
/// skipped by seeking. Returns the chunk index, the offset just past
/// the last valid chunk, and whether trailing bytes were ignored.
fn scan_chunks_forward(
    file: &mut File,
    header_end: u64,
    len: u64,
) -> io::Result<(Vec<ChunkRef>, u64, bool)> {
    let mut chunks: Vec<ChunkRef> = Vec::new();
    let mut pos = header_end;
    let mut truncated = false;
    let mut header = [0u8; CHUNK_HEADER_BYTES as usize];
    while pos < len {
        if len - pos < CHUNK_HEADER_BYTES {
            truncated = true;
            break;
        }
        file.seek(SeekFrom::Start(pos))?;
        file.read_exact(&mut header)?;
        let Some(chunk) = parse_chunk_header(&header, pos)
            .filter(|c| chunks.last().is_none_or(|prev| c.day > prev.day) && c.end_offset() <= len)
        else {
            truncated = true;
            break;
        };
        pos = chunk.end_offset();
        chunks.push(chunk);
    }
    Ok((chunks, pos.min(len), truncated))
}

fn encode_payload(obs: &[Observation]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut col: Vec<u64> = Vec::with_capacity(obs.len());
    for (c, &width) in COLUMN_WIDTHS.iter().enumerate() {
        col.clear();
        col.extend(obs.iter().map(|o| column_value(o, c)));
        let (tag, data) = encoding::choose_block(&col, width);
        buf.push(tag);
        put_u32(&mut buf, u32::try_from(data.len()).expect("block fits in u32"));
        buf.extend_from_slice(&data);
    }
    ChunkStats::compute(obs).encode(&mut buf);
    buf
}

/// Serialize one complete chunk (header, payload and trailer) to be
/// appended at `header_offset`. The codec choice inside is a pure
/// function of the observations, so a resumed store re-emits
/// byte-identical chunks.
fn encode_chunk(day: u32, obs: &[Observation], header_offset: u64) -> (Vec<u8>, ChunkRef) {
    let payload = encode_payload(obs);
    let checksum = fnv1a64(&payload);
    let mut buf = Vec::with_capacity((CHUNK_HEADER_BYTES + TRAILER_BYTES) as usize + payload.len());
    buf.extend_from_slice(&CHUNK_MAGIC);
    put_u32(&mut buf, day);
    put_u32(&mut buf, u32::try_from(obs.len()).expect("row count fits in u32"));
    put_u32(&mut buf, u32::try_from(payload.len()).expect("payload fits in u32"));
    put_u64(&mut buf, checksum);
    buf.extend_from_slice(&payload);
    buf.extend_from_slice(&TRAILER_MAGIC);
    put_u64(&mut buf, header_offset);
    let chunk = ChunkRef {
        day,
        rows: obs.len() as u32,
        payload_offset: header_offset + CHUNK_HEADER_BYTES,
        payload_len: payload.len() as u32,
        checksum,
    };
    (buf, chunk)
}

fn decode_payload(
    chunk: &ChunkRef,
    payload: &[u8],
    proj: Projection,
    cols: &mut [Vec<u64>; COLUMN_COUNT],
    out: &mut Vec<Observation>,
) -> io::Result<()> {
    // The footer's row count is checksummed, the header's is not: check
    // them against each other before any block decode sizes a buffer.
    let Some((blocks, footer)) = payload.split_last_chunk::<STATS_BYTES>() else {
        return Err(corrupt(format!("payload shorter than the {STATS_BYTES}-byte stats footer")));
    };
    checked_footer(chunk, footer)?;
    let n = chunk.rows as usize;
    let mut blocks = Cursor::new(blocks, "payload");
    for (c, col) in cols.iter_mut().enumerate() {
        let name = COLUMN_NAMES[c];
        let [tag, data_len @ ..] = blocks
            .array::<5>()
            .map_err(|_| corrupt(format!("payload truncated before the {name} block header")))?;
        let data_len = u32::from_le_bytes(data_len) as usize;
        let data = blocks.take(data_len).map_err(|_| {
            corrupt(format!(
                "{name} block claims {data_len} bytes but only {} remain",
                blocks.remaining()
            ))
        })?;
        if proj.includes_column(c) {
            encoding::decode_block(tag, data, n, COLUMN_WIDTHS[c], col)
                .map_err(|e| corrupt(format!("{name} block: {e}")))?;
        } else {
            col.clear();
        }
    }
    if blocks.remaining() != 0 {
        return Err(corrupt(format!(
            "{} bytes where the {STATS_BYTES}-byte stats footer should be",
            blocks.remaining()
        )));
    }
    if proj.includes_column(0) {
        if let Some(&bad) = cols[0].iter().find(|&&d| d != chunk.day as u64) {
            return Err(corrupt(format!(
                "chunk for day {} contains a row stamped day {bad}",
                chunk.day
            )));
        }
    }
    // Column-major scatter: fill with the day-stamped default row, then
    // one tight loop per projected column — a row-major loop would
    // re-test the projection on every field of every row.
    out.clear();
    out.resize(
        n,
        Observation {
            day: chunk.day,
            domain_id: 0,
            rank: 0,
            flags: 0,
            ns_category: 0,
            org: OrgId::NONE,
            min_priority: 0,
        },
    );
    if proj.includes_column(1) {
        for (o, &v) in out.iter_mut().zip(cols[1].iter()) {
            o.domain_id = v as u32;
        }
    }
    if proj.includes_column(2) {
        for (o, &v) in out.iter_mut().zip(cols[2].iter()) {
            o.rank = v as u32;
        }
    }
    if proj.includes_column(3) {
        for (o, &v) in out.iter_mut().zip(cols[3].iter()) {
            o.flags = v as u32;
        }
    }
    if proj.includes_column(4) {
        for (o, &v) in out.iter_mut().zip(cols[4].iter()) {
            o.ns_category = v as u8;
        }
    }
    if proj.includes_column(5) {
        for (o, &v) in out.iter_mut().zip(cols[5].iter()) {
            o.org = OrgId(v as u32);
        }
    }
    if proj.includes_column(6) {
        for (o, &v) in out.iter_mut().zip(cols[6].iter()) {
            o.min_priority = v as u16;
        }
    }
    Ok(())
}

/// Reusable decode buffers: the raw payload plus one value column per
/// field, so streaming a store allocates once and stays bounded by the
/// largest single day.
#[derive(Debug, Default)]
struct Scratch {
    bytes: Vec<u8>,
    cols: [Vec<u64>; COLUMN_COUNT],
}

/// Where a chunk read is happening, for error messages: a corrupt
/// multi-GB store is only debuggable if the error names the file, the
/// vantage, the day, and the byte offset of the bad chunk.
#[derive(Clone, Copy)]
struct ChunkLocus<'a> {
    path: &'a Path,
    vantage: &'a str,
}

impl ChunkLocus<'_> {
    fn wrap(&self, chunk: &ChunkRef, e: io::Error) -> io::Error {
        io::Error::new(
            e.kind(),
            format!(
                "{} (vantage \"{}\"), day {} chunk at byte offset {}: {e}",
                self.path.display(),
                self.vantage,
                chunk.day,
                chunk.header_offset()
            ),
        )
    }
}

/// Read, checksum-verify, and decode one chunk's payload into `out`
/// (reusing `scratch`), decoding only the columns in `proj`; fields of
/// unprojected columns come back as deterministic defaults. Errors
/// carry the full locus from `locus`.
fn read_chunk(
    file: &mut File,
    chunk: &ChunkRef,
    proj: Projection,
    scratch: &mut Scratch,
    out: &mut Vec<Observation>,
    locus: ChunkLocus<'_>,
) -> io::Result<()> {
    read_chunk_inner(file, chunk, proj, scratch, out).map_err(|e| locus.wrap(chunk, e))
}

fn read_chunk_inner(
    file: &mut File,
    chunk: &ChunkRef,
    proj: Projection,
    scratch: &mut Scratch,
    out: &mut Vec<Observation>,
) -> io::Result<()> {
    scratch.bytes.clear();
    scratch.bytes.resize(chunk.payload_len as usize, 0);
    file.seek(SeekFrom::Start(chunk.payload_offset))?;
    file.read_exact(&mut scratch.bytes)?;
    let sum = fnv1a64(&scratch.bytes);
    if sum != chunk.checksum {
        return Err(corrupt(format!(
            "checksum mismatch (stored {:#018x}, computed {sum:#018x})",
            chunk.checksum
        )));
    }
    decode_payload(chunk, &scratch.bytes, proj, &mut scratch.cols, out)
}

/// Read a chunk's statistics footer without decoding the payload.
fn read_chunk_stats(file: &mut File, chunk: &ChunkRef) -> io::Result<ChunkStats> {
    let mut buf = [0u8; STATS_BYTES];
    file.seek(SeekFrom::Start(
        chunk.payload_offset + chunk.payload_len as u64 - STATS_BYTES as u64,
    ))?;
    file.read_exact(&mut buf)?;
    checked_footer(chunk, &buf)
}

/// Decode `chunk`'s stats footer, refusing one whose row count
/// contradicts the chunk header.
fn checked_footer(chunk: &ChunkRef, buf: &[u8; STATS_BYTES]) -> io::Result<ChunkStats> {
    let stats = ChunkStats::decode(buf)?;
    if stats.rows != chunk.rows {
        return Err(corrupt(format!(
            "stats footer says {} rows but the chunk header says {}",
            stats.rows, chunk.rows
        )));
    }
    Ok(stats)
}

// ---------------------------------------------------------------------
// Writer.

/// Append-only writer for one snapshot-store directory.
///
/// Create a fresh store with [`create`](Self::create) or reopen an
/// interrupted one with [`open_resume`](Self::open_resume) (which
/// truncates torn tails and trailing days not completed by every
/// vantage, so appends always restart at a clean day boundary).
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    meta: StoreMeta,
    files: Vec<File>,
    indexes: Vec<Vec<ChunkRef>>,
    dict_file: File,
    dict_names: Vec<String>,
    bytes_written: u64,
}

impl StoreWriter {
    /// Create a fresh store directory in the [`FORMAT_VERSION`] format.
    /// Fails (rather than clobbering) if `dir`
    /// already contains a store manifest.
    pub fn create(dir: &Path, meta: StoreMeta) -> io::Result<StoreWriter> {
        assert!(!meta.vantages.is_empty(), "a store needs at least one vantage");
        std::fs::create_dir_all(dir)?;
        let manifest = dir.join("MANIFEST");
        if manifest.exists() {
            return Err(io::Error::new(
                ErrorKind::AlreadyExists,
                format!("{}: store already exists (use resume)", dir.display()),
            ));
        }
        std::fs::write(&manifest, manifest_bytes(&meta))?;
        let mut dict_file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(dir.join("orgs.dict"))?;
        let mut dict_header = Vec::new();
        dict_header.extend_from_slice(&DICT_MAGIC);
        put_u16(&mut dict_header, FORMAT_VERSION);
        dict_file.write_all(&dict_header)?;
        let mut files = Vec::with_capacity(meta.vantages.len());
        for (i, vantage) in meta.vantages.iter().enumerate() {
            let mut file = OpenOptions::new()
                .create(true)
                .truncate(true)
                .read(true)
                .write(true)
                .open(dir.join(column_file_name(i)))?;
            file.write_all(&column_header_bytes(vantage))?;
            files.push(file);
        }
        let indexes = vec![Vec::new(); meta.vantages.len()];
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            meta,
            files,
            indexes,
            dict_file,
            dict_names: Vec::new(),
            bytes_written: 0,
        })
    }

    /// Reopen an interrupted store for resumption: drops torn tails
    /// (verifying the last surviving chunk's checksum per vantage) and
    /// truncates every column file back to the last day completed by
    /// *all* vantages, so the store sits at a clean day boundary.
    pub fn open_resume(dir: &Path) -> io::Result<StoreWriter> {
        let meta = read_manifest(&dir.join("MANIFEST"))?;
        let dict_path = dir.join("orgs.dict");
        let mut dict_file = OpenOptions::new().read(true).write(true).open(&dict_path)?;
        let (dict_names, dict_end, dict_torn) = scan_dict(&mut dict_file, &dict_path)?;

        let mut files = Vec::with_capacity(meta.vantages.len());
        let mut scans = Vec::with_capacity(meta.vantages.len());
        for (i, vantage) in meta.vantages.iter().enumerate() {
            let path = dir.join(column_file_name(i));
            let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
            let mut scan = scan_column(&mut file, &path)?;
            if scan.vantage != *vantage {
                return Err(corrupt(format!(
                    "{}: vantage \"{}\" does not match manifest \"{vantage}\"",
                    path.display(),
                    scan.vantage
                )));
            }
            // The only chunk that can be silently damaged (vs torn) is
            // the last one the writer was flushing; verify its payload
            // checksum and drop it if it does not hold.
            let mut scratch = Scratch::default();
            let mut decoded = Vec::new();
            let locus = ChunkLocus { path: &path, vantage };
            if let Some(last) = scan.chunks.last().copied() {
                if read_chunk(&mut file, &last, Projection::ALL, &mut scratch, &mut decoded, locus)
                    .is_err()
                {
                    scan.valid_end = last.header_offset();
                    scan.chunks.pop();
                    scan.truncated = true;
                }
            }
            // Chunk days must be a prefix of the manifest's sample days;
            // anything else is corruption, not a torn tail.
            for (j, chunk) in scan.chunks.iter().enumerate() {
                let expect = meta.sample_days.get(j).map(|&d| d as u32);
                if expect != Some(chunk.day) {
                    let campaign = match expect {
                        Some(d) => format!("the campaign's day {j} is {d}"),
                        None => format!("the campaign has {} days", meta.sample_days.len()),
                    };
                    return Err(corrupt(format!(
                        "{}: chunk {j} is day {} but {campaign}",
                        path.display(),
                        chunk.day
                    )));
                }
            }
            files.push(file);
            scans.push(scan);
        }

        // Every header and index checked out: only now cut torn tails,
        // and every column file back to the last day all vantages
        // completed.
        if dict_torn {
            dict_file.set_len(dict_end)?;
            dict_file.seek(SeekFrom::End(0))?;
        }
        let complete = scans.iter().map(|s| s.chunks.len()).min().unwrap_or(0);
        for (file, scan) in files.iter_mut().zip(scans.iter_mut()) {
            scan.chunks.truncate(complete);
            let boundary = scan.chunks.last().map_or(scan.header_end, |c| c.end_offset());
            file.set_len(boundary)?;
            file.seek(SeekFrom::End(0))?;
        }
        let indexes = scans.into_iter().map(|s| s.chunks).collect();
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            meta,
            files,
            indexes,
            dict_file,
            dict_names,
            bytes_written: 0,
        })
    }

    /// The campaign shape this store was created with.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Chunks already on disk for one vantage.
    pub fn days_written(&self, vantage: usize) -> usize {
        self.indexes[vantage].len()
    }

    /// Days completed by *every* vantage (the resume boundary).
    pub fn completed_days(&self) -> usize {
        self.indexes.iter().map(|ix| ix.len()).min().unwrap_or(0)
    }

    /// Bytes appended by this writer instance (chunks + dict entries).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Mirror the campaign's org interner into the on-disk dictionary.
    ///
    /// The dictionary must be an exact prefix of `orgs` — campaigns
    /// intern deterministically, so any divergence means this store was
    /// written by a different world/config and appending would corrupt
    /// attribution. New entries are appended.
    pub fn sync_orgs(&mut self, orgs: &OrgInterner) -> io::Result<()> {
        if self.dict_names.len() > orgs.len() {
            return Err(corrupt(format!(
                "org dictionary has {} entries but the campaign interner only {} — \
                 store and campaign disagree",
                self.dict_names.len(),
                orgs.len()
            )));
        }
        for (i, stored) in self.dict_names.iter().enumerate() {
            let live = orgs.name(OrgId(i as u32)).expect("id below len resolves");
            if stored != live {
                return Err(corrupt(format!(
                    "org id {i} is \"{stored}\" on disk but \"{live}\" in the campaign — \
                     store and campaign disagree"
                )));
            }
        }
        for i in self.dict_names.len()..orgs.len() {
            let name = orgs.name(OrgId(i as u32)).expect("id below len resolves");
            let entry = dict_entry_bytes(name);
            self.dict_file.write_all(&entry)?;
            self.bytes_written += entry.len() as u64;
            self.dict_names.push(name.to_string());
        }
        Ok(())
    }

    /// Append one day's chunk for one vantage (write-through).
    ///
    /// Enforces the campaign schedule strictly: the chunk must be the
    /// vantage's next `sample_days` entry, every observation must be
    /// stamped with that day, and the org dictionary is synced first.
    pub fn append_chunk(
        &mut self,
        vantage: usize,
        day: u32,
        obs: &[Observation],
        orgs: &OrgInterner,
    ) -> io::Result<()> {
        self.sync_orgs(orgs)?;
        let next = self.indexes[vantage].len();
        let expected = self.meta.sample_days.get(next).copied().ok_or_else(|| {
            io::Error::new(
                ErrorKind::InvalidInput,
                format!("day {day} is past the campaign's {} sample days", next),
            )
        })?;
        if day as u64 != expected {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "out-of-order append for vantage {vantage}: got day {day}, \
                     the next campaign day is {expected}"
                ),
            ));
        }
        if let Some(bad) = obs.iter().find(|o| o.day != day) {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                format!("observation stamped day {} in a chunk for day {day}", bad.day),
            ));
        }
        let file = &mut self.files[vantage];
        let header_offset = file.seek(SeekFrom::End(0))?;
        let (buf, chunk) = encode_chunk(day, obs, header_offset);
        file.write_all(&buf)?;
        file.flush()?;
        self.bytes_written += buf.len() as u64;
        self.indexes[vantage].push(chunk);
        Ok(())
    }

    /// Read back one vantage's chunk for a day already on disk
    /// (checksum-verified) — the resume replay's comparison source.
    pub fn read_day(&mut self, vantage: usize, day: u32) -> io::Result<Vec<Observation>> {
        let chunk =
            self.indexes[vantage].iter().find(|c| c.day == day).copied().ok_or_else(|| {
                io::Error::new(
                    ErrorKind::NotFound,
                    format!("no chunk for day {day} in vantage {vantage}"),
                )
            })?;
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        let path = self.dir.join(column_file_name(vantage));
        let locus = ChunkLocus { path: &path, vantage: &self.meta.vantages[vantage] };
        read_chunk(
            &mut self.files[vantage],
            &chunk,
            Projection::ALL,
            &mut scratch,
            &mut out,
            locus,
        )?;
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Reader.

/// Streaming reader over one vantage's column file.
///
/// Implements [`ObservationSource`] with one day resident at a time: a
/// reused scratch buffer is filled per chunk and handed to the visitor,
/// so memory stays bounded by the largest single day regardless of
/// campaign length. Chunk checksums are verified on every read; a
/// mismatch mid-stream panics with a "snapshot store corrupted" message
/// (the trait's visitors are infallible by design — corruption of
/// structurally-valid chunks is a hard error, unlike torn tails, which
/// are dropped at open).
///
/// Visitors must not re-enter the same reader (its file handle is held
/// for the duration of the visit).
pub struct StoreReader {
    vantage: String,
    path: PathBuf,
    state: Mutex<ReaderState>,
    index: Vec<ChunkRef>,
    orgs: Arc<OrgInterner>,
    truncated_tail: bool,
}

struct ReaderState {
    file: File,
    scratch: Scratch,
    decoded: Vec<Observation>,
}

impl StoreReader {
    /// Whether a torn tail chunk was ignored when this file was opened
    /// (i.e. the writer was killed mid-append and `resume` would
    /// re-scan that day).
    pub fn truncated_tail(&self) -> bool {
        self.truncated_tail
    }

    /// The largest single-day row count — the reader's resident-memory
    /// bound when streaming.
    pub fn max_rows_per_day(&self) -> usize {
        self.index.iter().map(|c| c.rows as usize).max().unwrap_or(0)
    }

    /// The statistics footer of `day`'s chunk, `None` for an absent
    /// day. Advisory metadata —
    /// it is read without checksum verification, but a footer whose row
    /// count contradicts the chunk header is an error.
    pub fn chunk_stats(&self, day: u32) -> io::Result<Option<ChunkStats>> {
        let Some(chunk) = self.index.iter().find(|c| c.day == day) else {
            return Ok(None);
        };
        let mut state = self.state.lock().expect("reader lock");
        read_chunk_stats(&mut state.file, chunk)
            .map(Some)
            .map_err(|e| ChunkLocus { path: &self.path, vantage: &self.vantage }.wrap(chunk, e))
    }

    fn visit_chunk(
        &self,
        chunk: &ChunkRef,
        proj: Projection,
        visit: &mut dyn FnMut(u32, &[Observation]),
    ) {
        let mut state = self.state.lock().expect("reader lock");
        let ReaderState { file, scratch, decoded } = &mut *state;
        let locus = ChunkLocus { path: &self.path, vantage: &self.vantage };
        if let Err(e) = read_chunk(file, chunk, proj, scratch, decoded, locus) {
            panic!("snapshot store corrupted: {e}");
        }
        visit(chunk.day, decoded);
    }
}

impl ObservationSource for StoreReader {
    fn vantage(&self) -> &str {
        &self.vantage
    }

    fn days(&self) -> Vec<u32> {
        self.index.iter().map(|c| c.day).collect()
    }

    fn org_name(&self, id: OrgId) -> Option<&str> {
        self.orgs.name(id)
    }

    /// Chunks outside the filter's day range are skipped without
    /// touching their payloads, and only the projected columns' blocks
    /// are decoded — the pruned path analyses stream through.
    fn for_each_day_filtered(
        &self,
        filter: ScanFilter,
        visit: &mut dyn FnMut(u32, &[Observation]),
    ) {
        for chunk in &self.index {
            if !filter.admits_day(chunk.day) {
                continue;
            }
            self.visit_chunk(chunk, filter.projection, visit);
        }
    }

    fn total_observations(&self) -> usize {
        self.index.iter().map(|c| c.rows as usize).sum()
    }
}

/// A reopened store: its manifest plus one [`StoreReader`] per vantage
/// (sharing one org dictionary).
pub struct OpenStore {
    /// The campaign shape recorded at creation.
    pub meta: StoreMeta,
    /// One reader per vantage, in manifest order.
    pub readers: Vec<StoreReader>,
}

impl OpenStore {
    /// The readers as trait objects, for the analysis entry points.
    pub fn sources(&self) -> Vec<&dyn ObservationSource> {
        self.readers.iter().map(|r| r as &dyn ObservationSource).collect()
    }

    /// Fully materialize the store back into in-memory
    /// [`SnapshotStore`]s (testing/compatibility aid — defeats the
    /// bounded-memory point for long campaigns).
    pub fn materialize(&self) -> Vec<SnapshotStore> {
        let orgs = match self.readers.first() {
            Some(r) => (*r.orgs).clone(),
            None => OrgInterner::default(),
        };
        self.readers
            .iter()
            .map(|r| {
                let mut store = SnapshotStore::with_vantage(&r.vantage);
                store.orgs = orgs.clone();
                r.for_each_day_filtered(ScanFilter::all(), &mut |day, obs| {
                    store.push_day(day, obs.to_vec())
                });
                store
            })
            .collect()
    }
}

/// Open a store directory read-only for streaming analysis.
///
/// Torn tail chunks (from a killed writer) are ignored without
/// modifying the files; per-vantage day counts may differ mid-campaign
/// and consumers like `vantage_diff` work over the common days.
pub fn open_store(dir: &Path) -> io::Result<OpenStore> {
    let meta = read_manifest(&dir.join("MANIFEST"))?;
    let dict_path = dir.join("orgs.dict");
    let (names, _, _) = scan_dict(&mut File::open(&dict_path)?, &dict_path)?;
    let orgs = Arc::new(interner_from_names(names));
    let mut readers = Vec::with_capacity(meta.vantages.len());
    for (i, vantage) in meta.vantages.iter().enumerate() {
        let path = dir.join(column_file_name(i));
        let mut file = File::open(&path)?;
        let scan = scan_column(&mut file, &path)?;
        if scan.vantage != *vantage {
            return Err(corrupt(format!(
                "{}: vantage \"{}\" does not match manifest \"{vantage}\"",
                path.display(),
                scan.vantage
            )));
        }
        readers.push(StoreReader {
            vantage: scan.vantage,
            path,
            state: Mutex::new(ReaderState {
                file,
                scratch: Scratch::default(),
                decoded: Vec::new(),
            }),
            index: scan.chunks,
            orgs: orgs.clone(),
            truncated_tail: scan.truncated,
        });
    }
    Ok(OpenStore { meta, readers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::flags;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("httpsrr-persist-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta_for(days: &[u64]) -> StoreMeta {
        StoreMeta {
            vantages: vec!["google".into(), "isp".into()],
            sample_days: days.to_vec(),
            scan_www: true,
            world_seed: 7,
            population: 400,
            list_size: 300,
        }
    }

    /// Every row a reader streams, in day order.
    fn streamed(reader: &StoreReader) -> Vec<Observation> {
        let mut rows = Vec::new();
        reader.for_each_day_filtered(ScanFilter::all(), &mut |_, o| rows.extend_from_slice(o));
        rows
    }

    fn obs(day: u32, id: u32, f: u32) -> Observation {
        Observation {
            day,
            domain_id: id,
            rank: id + 1,
            flags: f,
            ns_category: (id % 4) as u8,
            org: if id.is_multiple_of(3) { OrgId::NONE } else { OrgId(id % 2) },
            min_priority: (id % 7) as u16,
        }
    }

    #[test]
    fn manifest_round_trip() {
        let dir = temp_dir("manifest");
        let meta = meta_for(&[0, 3, 9]);
        let w = StoreWriter::create(&dir, meta.clone()).unwrap();
        drop(w);
        assert_eq!(read_manifest(&dir.join("MANIFEST")).unwrap(), meta);
        // A second create must refuse to clobber.
        let err = StoreWriter::create(&dir, meta).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::AlreadyExists);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunk_round_trip_and_read_day() {
        let dir = temp_dir("roundtrip");
        let mut orgs = OrgInterner::default();
        orgs.intern("Cloudflare, Inc.");
        orgs.intern("GoDaddy.com, LLC");
        let mut w = StoreWriter::create(&dir, meta_for(&[0, 2])).unwrap();
        let day0: Vec<Observation> = (0..50).map(|i| obs(0, i, flags::HTTPS_PRESENT)).collect();
        let day2: Vec<Observation> = (0..40).map(|i| obs(2, i, 0)).collect();
        w.append_chunk(0, 0, &day0, &orgs).unwrap();
        w.append_chunk(1, 0, &day0, &orgs).unwrap();
        w.append_chunk(0, 2, &day2, &orgs).unwrap();
        assert_eq!(w.read_day(0, 0).unwrap(), day0);
        assert_eq!(w.read_day(0, 2).unwrap(), day2);
        assert_eq!(w.days_written(0), 2);
        assert_eq!(w.completed_days(), 1);
        assert!(w.bytes_written() > 0);
        drop(w);

        let open = open_store(&dir).unwrap();
        assert_eq!(open.readers.len(), 2);
        let r = &open.readers[0];
        assert_eq!(ObservationSource::days(r), vec![0, 2]);
        assert_eq!(r.total_observations(), 90);
        assert_eq!(r.max_rows_per_day(), 50);
        assert_eq!(r.org_name(OrgId(0)), Some("Cloudflare, Inc."));
        let expect: Vec<Observation> = day0.iter().chain(&day2).copied().collect();
        assert_eq!(streamed(r), expect);
        // The non-empty footer: rows, per-column ranges, orgs seen.
        let stats = r.chunk_stats(2).unwrap().expect("day 2 is stored");
        assert_eq!(stats.rows, 40);
        assert_eq!((stats.min[0], stats.max[0]), (2, 2));
        assert_eq!((stats.min[1], stats.max[1]), (0, 39));
        assert_eq!(stats.distinct_orgs, 3); // NONE plus OrgId(0)/OrgId(1)
        assert!(r.chunk_stats(1).unwrap().is_none(), "no chunk for day 1");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_enforce_campaign_schedule() {
        let dir = temp_dir("schedule");
        let orgs = OrgInterner::default();
        let mut w = StoreWriter::create(&dir, meta_for(&[0, 2])).unwrap();
        // Wrong first day.
        assert_eq!(w.append_chunk(0, 1, &[], &orgs).unwrap_err().kind(), ErrorKind::InvalidInput);
        w.append_chunk(0, 0, &[], &orgs).unwrap();
        // Duplicate day.
        assert_eq!(w.append_chunk(0, 0, &[], &orgs).unwrap_err().kind(), ErrorKind::InvalidInput);
        // Mis-stamped observation.
        assert_eq!(
            w.append_chunk(0, 2, &[obs(1, 1, 0)], &orgs).unwrap_err().kind(),
            ErrorKind::InvalidInput
        );
        w.append_chunk(0, 2, &[obs(2, 1, 0)], &orgs).unwrap();
        // Past the end of the campaign.
        assert_eq!(w.append_chunk(0, 3, &[], &orgs).unwrap_err().kind(), ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn org_dict_divergence_is_rejected() {
        let dir = temp_dir("orgdict");
        let mut orgs = OrgInterner::default();
        orgs.intern("Org A");
        let mut w = StoreWriter::create(&dir, meta_for(&[0])).unwrap();
        w.sync_orgs(&orgs).unwrap();
        let mut other = OrgInterner::default();
        other.intern("Org B");
        let err = w.sync_orgs(&other).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_on_open_and_truncated_on_resume() {
        // The cut lands inside the trailer (1, 11), takes exactly the
        // trailer (12), or reaches into the payload (17).
        for cut in [1u64, 11, TRAILER_BYTES, 17] {
            let dir = temp_dir(&format!("torn{cut}"));
            let mut orgs = OrgInterner::default();
            orgs.intern("Org A");
            let day0: Vec<Observation> = (0..30).map(|i| obs(0, i, 0)).collect();
            let day2: Vec<Observation> = (0..30).map(|i| obs(2, i, 0)).collect();
            let mut w = StoreWriter::create(&dir, meta_for(&[0, 2])).unwrap();
            for v in 0..2 {
                w.append_chunk(v, 0, &day0, &orgs).unwrap();
                w.append_chunk(v, 2, &day2, &orgs).unwrap();
            }
            drop(w);
            // Tear the second vantage's last chunk.
            let path = dir.join(column_file_name(1));
            let len = std::fs::metadata(&path).unwrap().len();
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len - cut).unwrap();
            drop(f);

            // Read-only open: torn chunk ignored, files untouched.
            let open = open_store(&dir).unwrap();
            assert_eq!(ObservationSource::days(&open.readers[0]), vec![0, 2], "cut {cut}");
            assert_eq!(ObservationSource::days(&open.readers[1]), vec![0], "cut {cut}");
            assert!(open.readers[1].truncated_tail(), "cut {cut}");
            assert!(!open.readers[0].truncated_tail(), "cut {cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), len - cut);

            // Resume: both vantages truncated back to the common boundary.
            let w = StoreWriter::open_resume(&dir).unwrap();
            assert_eq!(w.completed_days(), 1, "cut {cut}");
            assert_eq!(w.days_written(0), 1, "cut {cut}");
            assert_eq!(w.days_written(1), 1, "cut {cut}");
            drop(w);
            let reopened = open_store(&dir).unwrap();
            assert_eq!(ObservationSource::days(&reopened.readers[0]), vec![0], "cut {cut}");
            assert_eq!(ObservationSource::days(&reopened.readers[1]), vec![0], "cut {cut}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn flipped_payload_byte_fails_checksum_with_full_locus() {
        let dir = temp_dir("bitflip");
        let orgs = OrgInterner::default();
        let day0: Vec<Observation> = (0..10).map(|i| obs(0, i, 0)).collect();
        let mut w = StoreWriter::create(&dir, meta_for(&[0, 1])).unwrap();
        w.append_chunk(0, 0, &day0, &orgs).unwrap();
        w.append_chunk(
            0,
            1,
            &day0.iter().map(|o| Observation { day: 1, ..*o }).collect::<Vec<_>>(),
            &orgs,
        )
        .unwrap();
        drop(w);
        // Flip one byte inside the FIRST chunk's payload (not the tail;
        // a payload is at least the 124-byte stats footer, so +5 is
        // well inside it).
        let path = dir.join(column_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let header_end = 12 + "google".len();
        let target = header_end + CHUNK_HEADER_BYTES as usize + 5;
        bytes[target] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        // Structural scan still sees both chunks; reading the damaged
        // one must fail loudly, naming file, vantage, day, and offset.
        let open = open_store(&dir).unwrap();
        assert_eq!(ObservationSource::days(&open.readers[0]), vec![0, 1]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            open.readers[0].for_each_day_filtered(ScanFilter::all(), &mut |_, _| {});
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("snapshot store corrupted"), "panic was: {msg}");
        assert!(msg.contains("checksum mismatch"), "panic was: {msg}");
        assert!(msg.contains(&path.display().to_string()), "panic was: {msg}");
        assert!(msg.contains("vantage \"google\""), "panic was: {msg}");
        assert!(
            msg.contains(&format!("day 0 chunk at byte offset {header_end}")),
            "panic was: {msg}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forward_walk_indexes_a_clean_v2_file_and_never_reads_a_trailer() {
        let dir = temp_dir("fwdscan");
        let orgs = OrgInterner::default();
        let mut w = StoreWriter::create(&dir, meta_for(&[0, 2, 5])).unwrap();
        for (i, day) in [0u32, 2, 5].into_iter().enumerate() {
            let rows: Vec<Observation> =
                (0..(10 + 7 * i as u32)).map(|j| obs(day, j, j % 3)).collect();
            w.append_chunk(0, day, &rows, &orgs).unwrap();
        }
        drop(w);

        let path = dir.join(column_file_name(0));
        let len = std::fs::metadata(&path).unwrap().len();
        let header_end = (12 + "google".len()) as u64;
        let walk = || {
            let mut file = File::open(&path).unwrap();
            scan_chunks_forward(&mut file, header_end, len).unwrap()
        };
        let (chunks, valid_end, truncated) = walk();
        assert_eq!(valid_end, len);
        assert!(!truncated);
        assert_eq!(chunks.iter().map(|c| c.day).collect::<Vec<_>>(), vec![0, 2, 5]);
        let clean = streamed(&open_store(&dir).unwrap().readers[0]);

        // The trailer is outside the checksum and unread: a flipped byte
        // in the last one (its back-pointer) changes nothing a reader sees.
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[bytes.len() - 12..bytes.len() - 8], TRAILER_MAGIC);
        let target = bytes.len() - 3;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(walk(), (chunks, len, false));
        let open = open_store(&dir).unwrap();
        assert!(!open.readers[0].truncated_tail());
        assert_eq!(ObservationSource::days(&open.readers[0]), vec![0, 2, 5]);
        assert_eq!(streamed(&open.readers[0]), clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn projection_skips_columns_and_defaults_the_rest() {
        let dir = temp_dir("projection");
        let mut orgs = OrgInterner::default();
        orgs.intern("Org A");
        orgs.intern("Org B");
        let day0: Vec<Observation> = (0..40).map(|i| obs(0, i, flags::HTTPS_PRESENT)).collect();
        let mut w = StoreWriter::create(&dir, meta_for(&[0])).unwrap();
        w.append_chunk(0, 0, &day0, &orgs).unwrap();
        drop(w);

        let open = open_store(&dir).unwrap();
        let r = &open.readers[0];
        let mut got = Vec::new();
        let pruned = ScanFilter::projected(Projection::FLAGS.with(Projection::DOMAIN_ID));
        r.for_each_day_filtered(pruned.days(0, 0), &mut |_, o| got.extend_from_slice(o));
        assert_eq!(got.len(), day0.len());
        for (g, o) in got.iter().zip(&day0) {
            assert_eq!(g.flags, o.flags);
            assert_eq!(g.domain_id, o.domain_id);
            assert_eq!(g.day, 0, "day always comes from the chunk header");
            assert_eq!((g.rank, g.ns_category, g.min_priority), (0, 0, 0));
            assert_eq!(g.org, OrgId::NONE);
        }

        // Day-range pruning: a filter outside the stored days visits
        // nothing at all.
        let mut visited = 0;
        r.for_each_day_filtered(
            ScanFilter::projected(Projection::FLAGS).days(10, 20),
            &mut |_, _| visited += 1,
        );
        assert_eq!(visited, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_chunks_round_trip_in_v2() {
        let dir = temp_dir("emptyv2");
        let orgs = OrgInterner::default();
        let mut w = StoreWriter::create(&dir, meta_for(&[0, 2])).unwrap();
        w.append_chunk(0, 0, &[], &orgs).unwrap();
        w.append_chunk(0, 2, &[obs(2, 1, 0)], &orgs).unwrap();
        drop(w);
        let open = open_store(&dir).unwrap();
        assert_eq!(ObservationSource::days(&open.readers[0]), vec![0, 2]);
        assert_eq!(open.readers[0].total_observations(), 1);
        let stats = open.readers[0].chunk_stats(0).unwrap().expect("footer");
        assert_eq!(stats.rows, 0);
        assert!(stats.min[0] > stats.max[0], "empty chunk signals min > max");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_day_count_past_the_file_is_an_error_not_an_abort() {
        let dir = temp_dir("hugedays");
        drop(StoreWriter::create(&dir, meta_for(&[0, 2])).unwrap());
        let path = dir.join("MANIFEST");
        let mut bytes = std::fs::read(&path).unwrap();
        // magic, version, scan_www, vantage count, the two names: then days.
        let at = 8 + 2 + 1 + 2 + (2 + "google".len()) + (2 + "isp".len());
        assert_eq!(bytes[at..at + 4], 2u32.to_le_bytes());
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let Err(err) = open_store(&dir) else { panic!("a damaged manifest opened") };
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("MANIFEST: truncated"), "{err}");
        assert_eq!(StoreWriter::open_resume(&dir).unwrap_err().kind(), ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_row_count_is_checked_against_the_footer_before_decoding() {
        let dir = temp_dir("hugerows");
        let orgs = OrgInterner::default();
        let day0: Vec<Observation> = (0..10).map(|i| obs(0, i, 0)).collect();
        let mut w = StoreWriter::create(&dir, meta_for(&[0])).unwrap();
        w.append_chunk(0, 0, &day0, &orgs).unwrap();
        drop(w);
        // Set bit 31 of the header's `rows` (chunk header bytes 8..12),
        // which the payload checksum does not cover.
        let path = dir.join(column_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let header_end = 12 + "google".len();
        bytes[header_end + 11] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        let open = open_store(&dir).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            open.readers[0].for_each_day_filtered(ScanFilter::all(), &mut |_, _| {});
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("snapshot store corrupted"), "panic was: {msg}");
        assert!(msg.contains("stats footer says 10 rows"), "panic was: {msg}");
        assert!(msg.contains(&format!("day 0 chunk at byte offset {header_end}")), "{msg}");
        drop(open);
        // Resume treats the damaged last chunk as unflushed and drops it.
        assert_eq!(StoreWriter::open_resume(&dir).unwrap().days_written(0), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_names_a_chunk_past_the_manifest_days() {
        let dir = temp_dir("extrachunk");
        let orgs = OrgInterner::default();
        let mut w = StoreWriter::create(&dir, meta_for(&[0, 2])).unwrap();
        for v in 0..2 {
            for day in [0u32, 2] {
                w.append_chunk(v, day, &[obs(day, 1, 0)], &orgs).unwrap();
            }
        }
        drop(w);
        let short = manifest_bytes(&meta_for(&[0]));
        std::fs::write(dir.join("MANIFEST"), short).unwrap();

        let err = StoreWriter::open_resume(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(&dir.join(column_file_name(0)).display().to_string()), "{msg}");
        assert!(msg.contains("chunk 1 is day 2 but the campaign has 1 days"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file of a store directory, by name.
    fn store_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn v1_headers_are_refused_before_any_byte_is_cut() {
        for file in ["MANIFEST", "orgs.dict", "v01.col"] {
            let dir = temp_dir(&format!("oldheader-{file}"));
            let mut orgs = OrgInterner::default();
            orgs.intern("Org A");
            let mut w = StoreWriter::create(&dir, meta_for(&[0, 2])).unwrap();
            w.append_chunk(0, 0, &[obs(0, 1, 0)], &orgs).unwrap();
            w.append_chunk(1, 0, &[obs(0, 1, 0)], &orgs).unwrap();
            w.append_chunk(0, 2, &[obs(2, 1, 0)], &orgs).unwrap();
            drop(w);
            // Tails a resume would cut: vantage 0 is a day ahead of
            // vantage 1, and the dictionary ends in a torn entry.
            let mut dict = OpenOptions::new().append(true).open(dir.join("orgs.dict")).unwrap();
            dict.write_all(&[7, 0]).unwrap();
            drop(dict);
            // The format version sits at bytes 8..10 of every header.
            let path = dir.join(file);
            let mut bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes[8..10], FORMAT_VERSION.to_le_bytes(), "{file}");
            bytes[8..10].copy_from_slice(&1u16.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let before = store_files(&dir);

            let Err(open_err) = open_store(&dir) else { panic!("{file}: a v1 store opened") };
            let resume_err = StoreWriter::open_resume(&dir).unwrap_err();
            for err in [open_err, resume_err] {
                assert_eq!(err.kind(), ErrorKind::InvalidData, "{file}");
                let msg = err.to_string();
                assert!(msg.contains(&path.display().to_string()), "{file}: {msg}");
                assert!(msg.contains("v1 stores are not supported"), "{file}: {msg}");
            }
            assert_eq!(store_files(&dir), before, "{file}: a refused resume changed the store");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn resume_cuts_a_torn_dict_entry_and_appends_at_the_cut() {
        let dir = temp_dir("torndict");
        let mut orgs = OrgInterner::default();
        orgs.intern("Org A");
        let mut w = StoreWriter::create(&dir, meta_for(&[0])).unwrap();
        w.sync_orgs(&orgs).unwrap();
        drop(w);
        // A killed append: the next entry's length and half its name.
        let path = dir.join("orgs.dict");
        let mut torn = dict_entry_bytes("Org B");
        torn.truncate(6);
        OpenOptions::new().append(true).open(&path).unwrap().write_all(&torn).unwrap();

        let mut w = StoreWriter::open_resume(&dir).unwrap();
        orgs.intern("Org B");
        w.sync_orgs(&orgs).unwrap();
        drop(w);
        let (names, end, torn) = scan_dict(&mut File::open(&path).unwrap(), &path).unwrap();
        assert_eq!(names, ["Org A", "Org B"]);
        assert!(!torn);
        assert_eq!(end, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
