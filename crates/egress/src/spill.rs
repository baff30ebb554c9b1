//! The disk-backed spill queue — egress's **outbox**.
//!
//! Every batch the sink accepts is encoded as one checked DATA frame
//! (see [`crate::frame`]) and appended here *before* anything touches
//! the network: the queue is not a fallback for bad days, it is the
//! single retransmission source of truth. The sender thread asks the
//! index where the frames after its cursor lie ([`SpillQueue::pending_run`])
//! and reads the raw bytes back through its own handle ([`SpillReader`]),
//! so the queue's lock is held for the lookup only; the receiver's ACK
//! watermark trims fully-acknowledged segments behind it. When the
//! sink is healthy the queue stays a few frames long (append, send,
//! trim); when no sink is reachable it simply grows — the DAG never
//! blocks on the network and never drops a record.
//!
//! # On-disk layout
//!
//! A directory of segment files `spill-<first_seq 16-hex>.seg`, each a
//! back-to-back run of checked DATA frames — the **exact bytes** that
//! go on the socket, so draining is `write(2)` of stored bytes, no
//! re-encoding. The file name carries the first delivery seq assigned
//! in that segment, which keeps the seq counter monotonic across
//! restarts even when a segment is empty (nothing was appended after a
//! roll) or fully trimmed.
//!
//! # Durability contract
//!
//! Appends are single `write(2)` calls with no fsync: a crashed
//! *process* loses nothing (the bytes are in the page cache), a crashed
//! *machine* may tear the tail of the newest segment — which reopen
//! tolerates exactly like the durability WAL does (scan frames, verify
//! checksums, truncate the torn tail). Corruption in the *middle* of a
//! segment is a typed error, never a silent skip.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use elasticutor_core::wire::{FRAME_HEADER_LEN, MAX_FRAME_LEN, WIRE_VERSION};
use elasticutor_runtime::Record;

use crate::frame::{data_frame_seq_range, encode_data_frame};
use crate::EgressError;

/// Default segment roll threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// Where a run of whole frames lies: back-to-back in one segment file,
/// covering a contiguous delivery-seq range. What
/// [`SpillQueue::pending_run`] hands the sender and [`SpillReader::read`]
/// turns into the exact wire bytes.
#[derive(Clone, Copy, Debug)]
pub struct FrameRun {
    /// `first_seq` of the segment holding the run (names its file).
    pub seg: u64,
    /// Byte offset of the run's first frame within the segment file.
    pub offset: u64,
    /// Total bytes of the run (whole frames, headers included).
    pub len: u64,
    /// Delivery seq of the first record in the run.
    pub first_seq: u64,
    /// Delivery seq of the last record in the run.
    pub last_seq: u64,
    /// Frames in the run.
    pub frames: u64,
}

/// Where one frame lives on disk.
#[derive(Clone, Copy, Debug)]
struct FrameLoc {
    /// `first_seq` of the segment holding the frame.
    seg: u64,
    /// Byte offset of the frame within the segment file.
    offset: u64,
    /// Total frame length (header + payload).
    len: u64,
    /// Delivery seq of the last record in the frame.
    last_seq: u64,
}

#[derive(Debug)]
struct Segment {
    path: PathBuf,
    /// Valid byte length (torn tails are truncated away at open).
    bytes: u64,
    /// Last delivery seq appended to this segment (`None` if empty).
    last_seq: Option<u64>,
}

/// The disk-backed frame queue. Not internally synchronized — the sink
/// wraps it in a mutex shared between the pump and sender threads.
#[derive(Debug)]
pub struct SpillQueue {
    dir: PathBuf,
    segment_bytes: u64,
    /// Segments keyed by their first delivery seq; the last entry is
    /// the active (append) segment.
    segments: BTreeMap<u64, Segment>,
    /// Append handle for the active segment.
    active: File,
    /// Frame index: frame first_seq → location. Trimmed entries are
    /// pruned; the index always covers every unacknowledged frame.
    frames: BTreeMap<u64, FrameLoc>,
    /// Next delivery seq to assign (first record ever gets seq 1).
    next_seq: u64,
}

/// The sender's read side of the outbox: its own handle onto the
/// segment its cursor is in, so cursor reads are positioned reads
/// (`pread`) that never take the queue's lock. A segment the receiver
/// has acknowledged (and [`SpillQueue::trim`] unlinked) stays readable
/// through the open handle; a run at or above the cursor is never
/// trimmed, so a segment is always opened while its file exists.
#[derive(Debug)]
pub struct SpillReader {
    dir: PathBuf,
    /// `(segment first_seq, file)` of the segment last read from.
    open: Option<(u64, File)>,
}

impl SpillReader {
    /// Reads the bytes of `run` into `buf` (resized to `run.len`).
    pub fn read(&mut self, run: &FrameRun, buf: &mut Vec<u8>) -> std::io::Result<()> {
        if !matches!(&self.open, Some((seg, _)) if *seg == run.seg) {
            self.open = Some((run.seg, File::open(segment_path(&self.dir, run.seg))?));
        }
        let (_, file) = self.open.as_ref().expect("handle just set");
        buf.resize(run.len as usize, 0);
        file.read_exact_at(buf, run.offset)
    }
}

/// Writes one frame's bytes to the active segment. Tests can make the
/// next call on their thread write only a prefix and fail.
fn write_frame(file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
    #[cfg(test)]
    if let Some(n) = tests::SHORT_WRITE.take() {
        file.write_all(&bytes[..n])?;
        return Err(std::io::Error::other("injected short write"));
    }
    file.write_all(bytes)
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("spill-{first_seq:016x}.seg"))
}

fn parse_segment_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix("spill-")?.strip_suffix(".seg")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Scans one segment's bytes: returns `(frame first_seq, location)`
/// pairs, the valid byte length, and whether damage cut the scan short.
/// Mid-file damage (a frame that frames correctly but fails its
/// checksum, followed by more valid bytes) still scans as "torn at that
/// point" — the caller decides whether that is tolerable (newest
/// segment) or fatal (a sealed one).
fn scan_segment(seg_first: u64, data: &[u8]) -> (Vec<(u64, FrameLoc)>, u64, bool) {
    let mut locs = Vec::new();
    let mut pos = 0u64;
    let n = data.len() as u64;
    while pos < n {
        let avail = &data[pos as usize..];
        if (avail.len() as u64) < FRAME_HEADER_LEN || avail[0] != WIRE_VERSION {
            return (locs, pos, true);
        }
        let len = u32::from_le_bytes(avail[2..6].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            return (locs, pos, true);
        }
        let total = FRAME_HEADER_LEN + u64::from(len);
        if (avail.len() as u64) < total {
            return (locs, pos, true);
        }
        let payload = &avail[FRAME_HEADER_LEN as usize..total as usize];
        match data_frame_seq_range(payload) {
            Ok((first, last)) => locs.push((
                first,
                FrameLoc {
                    seg: seg_first,
                    offset: pos,
                    len: total,
                    last_seq: last,
                },
            )),
            Err(_) => return (locs, pos, true),
        }
        pos += total;
    }
    (locs, pos, false)
}

impl SpillQueue {
    /// Opens (or creates) the queue at `dir`, recovering any frames a
    /// previous process left behind. The newest segment's torn tail is
    /// truncated; damage in an older (sealed) segment is a typed error
    /// — sealed bytes were acknowledged as written, losing them is loss.
    pub fn open(dir: impl Into<PathBuf>, segment_bytes: u64) -> Result<Self, EgressError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut seg_firsts: Vec<u64> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_name(&e.path()))
            .collect();
        seg_firsts.sort_unstable();

        let mut segments = BTreeMap::new();
        let mut frames = BTreeMap::new();
        let mut next_seq = 1u64;
        let count = seg_firsts.len();
        for (i, seg_first) in seg_firsts.iter().copied().enumerate() {
            let path = segment_path(&dir, seg_first);
            let data = std::fs::read(&path)?;
            let (locs, valid, torn) = scan_segment(seg_first, &data);
            let newest = i + 1 == count;
            if torn && !newest {
                return Err(EgressError::SpillCorrupt(
                    "damage in a sealed spill segment",
                ));
            }
            if torn {
                // Crash-torn tail on the newest segment: cut it off so
                // appends continue from a clean frame boundary.
                OpenOptions::new().write(true).open(&path)?.set_len(valid)?;
            }
            let last_seq = locs.last().map(|(_, l)| l.last_seq);
            next_seq = next_seq.max(seg_first).max(last_seq.map_or(0, |s| s + 1));
            for (first, loc) in locs {
                frames.insert(first, loc);
            }
            segments.insert(
                seg_first,
                Segment {
                    path,
                    bytes: valid,
                    last_seq,
                },
            );
        }
        if segments.is_empty() {
            let path = segment_path(&dir, next_seq);
            File::create(&path)?;
            segments.insert(
                next_seq,
                Segment {
                    path,
                    bytes: 0,
                    last_seq: None,
                },
            );
        }
        let active_path = segments
            .values()
            .next_back()
            .expect("at least one segment")
            .path
            .clone();
        let active = OpenOptions::new().append(true).open(&active_path)?;
        Ok(Self {
            dir,
            segment_bytes,
            segments,
            active,
            frames,
            next_seq,
        })
    }

    /// Appends `records` as one frame, assigning delivery seqs.
    /// Returns `(first_seq, last_seq)` of the appended frame. The write
    /// is a single `write(2)` — done once this returns, the records
    /// survive a process crash. A failed write leaves the queue as it
    /// was, so the caller may retry.
    pub fn append(&mut self, records: &[Record]) -> Result<(u64, u64), EgressError> {
        assert!(!records.is_empty(), "empty spill append");
        let first_seq = self.next_seq;
        let mut bytes = Vec::with_capacity(64 + records.len() * 32);
        let last_seq = encode_data_frame(&mut bytes, first_seq, records);

        let (cur_first, cur_bytes) = {
            let (&f, s) = self
                .segments
                .iter()
                .next_back()
                .expect("active segment exists");
            (f, s.bytes)
        };
        let (seg_first, offset) = if cur_bytes >= self.segment_bytes {
            // Roll: seal the active segment, open a new one named by
            // the seq it starts at.
            let path = segment_path(&self.dir, first_seq);
            self.active = OpenOptions::new()
                .append(true)
                .create_new(true)
                .open(&path)?;
            self.segments.insert(
                first_seq,
                Segment {
                    path,
                    bytes: 0,
                    last_seq: None,
                },
            );
            (first_seq, 0u64)
        } else {
            (cur_first, cur_bytes)
        };

        if let Err(e) = write_frame(&mut self.active, &bytes) {
            // A partial write left a torn frame at the tail: cut the
            // segment back to its last whole frame, so a retried append
            // lands at the offset the index records.
            self.active.set_len(offset)?;
            return Err(e.into());
        }
        let seg = self.segments.get_mut(&seg_first).expect("segment exists");
        seg.bytes += bytes.len() as u64;
        seg.last_seq = Some(last_seq);
        self.frames.insert(
            first_seq,
            FrameLoc {
                seg: seg_first,
                offset,
                len: bytes.len() as u64,
                last_seq,
            },
        );
        self.next_seq = last_seq + 1;
        Ok((first_seq, last_seq))
    }

    /// The next delivery seq that [`Self::append`] will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of unacknowledged (un-trimmed) frames on disk.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Total bytes across all live segment files.
    pub fn bytes(&self) -> u64 {
        self.segments.values().map(|s| s.bytes).sum()
    }

    /// A read side for the sender thread (see [`SpillReader`]).
    pub fn reader(&self) -> SpillReader {
        SpillReader {
            dir: self.dir.clone(),
            open: None,
        }
    }

    /// Locates everything pending at the sender's cursor: the run of
    /// frames starting with the first one whose `last_seq >= seq`, up to
    /// `budget` bytes (one frame at least) or the end of its segment.
    /// `None` means everything at or after `seq` is still unwritten
    /// (caller waits for appends). An index lookup only — no I/O.
    pub fn pending_run(&self, seq: u64, budget: u64) -> Option<FrameRun> {
        // The frame containing `seq` starts at the greatest first_seq
        // <= seq (frames are contiguous); if that frame ends before
        // `seq` (trimmed boundary), the next index entry is the one.
        let start = self
            .frames
            .range(..=seq)
            .next_back()
            .filter(|(_, l)| l.last_seq >= seq)
            .map_or(seq, |(&first, _)| first);
        let mut frames = self.frames.range(start..);
        let (&first_seq, head) = frames.next()?;
        let mut run = FrameRun {
            seg: head.seg,
            offset: head.offset,
            len: head.len,
            first_seq,
            last_seq: head.last_seq,
            frames: 1,
        };
        for (_, loc) in frames {
            let adjacent = loc.seg == run.seg && loc.offset == run.offset + run.len;
            if !adjacent || run.len + loc.len > budget {
                break;
            }
            run.len += loc.len;
            run.last_seq = loc.last_seq;
            run.frames += 1;
        }
        Some(run)
    }

    /// Drops state the receiver has acknowledged: prunes the frame
    /// index up to `watermark` and deletes sealed segments whose every
    /// record is `<= watermark`. The active segment is **never**
    /// deleted — its file name and tail carry the seq counter across
    /// restarts.
    pub fn trim(&mut self, watermark: u64) -> Result<(), EgressError> {
        let dead: Vec<u64> = self
            .frames
            .iter()
            .take_while(|(_, l)| l.last_seq <= watermark)
            .map(|(&f, _)| f)
            .collect();
        for f in dead {
            self.frames.remove(&f);
        }
        let active_first = *self
            .segments
            .keys()
            .next_back()
            .expect("active segment exists");
        let dead_segs: Vec<u64> = self
            .segments
            .iter()
            .filter(|(&first, s)| {
                first != active_first && s.last_seq.is_none_or(|l| l <= watermark)
            })
            .map(|(&f, _)| f)
            .collect();
        for f in dead_segs {
            let seg = self.segments.remove(&f).expect("listed");
            std::fs::remove_file(&seg.path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use elasticutor_core::ids::Key;
    use std::cell::Cell;

    thread_local! {
        /// Set to `Some(n)`: the thread's next frame write stops after
        /// `n` bytes and fails.
        pub(super) static SHORT_WRITE: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn tmp(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("elasticutor-spill-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn recs(n: usize, fill: u8) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new(Key(i as u64 % 5), Bytes::from(vec![fill; 10 + i])).with_seq(i as u64)
            })
            .collect()
    }

    #[test]
    fn append_read_trim_roundtrip() {
        let dir = tmp("roundtrip");
        let mut q = SpillQueue::open(&dir, 1024).unwrap();
        assert_eq!(q.next_seq(), 1);
        let (f1, l1) = q.append(&recs(3, 0xA1)).unwrap();
        let (f2, l2) = q.append(&recs(2, 0xB2)).unwrap();
        assert_eq!((f1, l1), (1, 3));
        assert_eq!((f2, l2), (4, 5));

        // A one-byte budget still yields a whole frame.
        let one = |q: &SpillQueue, seq| q.pending_run(seq, 1).map(|r| (r.first_seq, r.last_seq));
        assert_eq!(one(&q, 1), Some((1, 3)));
        // Mid-frame seq lands on the frame containing it.
        assert_eq!(one(&q, 2), Some((1, 3)));
        assert_eq!(one(&q, 4), Some((4, 5)));
        assert_eq!(one(&q, 6), None);

        // With room, the run takes everything pending — and reads back
        // as the exact bytes of both frames, in order.
        let run = q.pending_run(1, u64::MAX).unwrap();
        assert_eq!((run.first_seq, run.last_seq, run.frames), (1, 5, 2));
        let mut expect = Vec::new();
        encode_data_frame(&mut expect, 1, &recs(3, 0xA1));
        encode_data_frame(&mut expect, 4, &recs(2, 0xB2));
        let mut reader = q.reader();
        let mut got = Vec::new();
        reader.read(&run, &mut got).unwrap();
        assert_eq!(got, expect);

        q.trim(3).unwrap();
        assert_eq!(q.frame_count(), 1);
        assert_eq!(one(&q, 2), Some((4, 5)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runs_stop_at_segment_rolls_and_outlive_the_trim() {
        let dir = tmp("runs");
        let mut q = SpillQueue::open(&dir, 128).unwrap();
        let mut expect = Vec::new();
        for i in 0..10u8 {
            let (first, _) = q.append(&recs(4, i)).unwrap();
            encode_data_frame(&mut expect, first, &recs(4, i));
        }
        assert!(q.segments.len() > 2, "expected several rolls");

        // Walking the cursor run by run crosses every roll and yields
        // the exact byte stream, each run confined to one segment.
        let mut reader = q.reader();
        let (mut got, mut buf, mut seq, mut runs) = (Vec::new(), Vec::new(), 1, Vec::new());
        while let Some(run) = q.pending_run(seq, u64::MAX) {
            reader.read(&run, &mut buf).unwrap();
            got.extend_from_slice(&buf);
            seq = run.last_seq + 1;
            runs.push(run);
        }
        assert_eq!(got, expect);
        assert_eq!(runs.len(), q.segments.len());
        assert_eq!(seq, q.next_seq());

        // The sender's handle keeps an acknowledged, unlinked segment
        // readable: a run located before the trim still reads after it.
        let first = runs[0];
        reader.read(&first, &mut buf).unwrap();
        q.trim(first.last_seq).unwrap();
        assert!(!segment_path(&dir, first.seg).exists());
        let before = buf.clone();
        reader.read(&first, &mut buf).unwrap();
        assert_eq!(buf, before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_leaves_no_torn_bytes_behind() {
        let dir = tmp("short-write");
        let mut q = SpillQueue::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
        q.append(&recs(3, 0xA1)).unwrap();
        // The disk takes half the next frame, then fails; the caller
        // retries, as `TcpEgress::consume` does.
        SHORT_WRITE.set(Some(20));
        assert!(q.append(&recs(2, 0xB2)).is_err());
        assert_eq!(q.next_seq(), 4, "a failed append assigned seqs");
        assert_eq!(q.append(&recs(2, 0xB2)).unwrap(), (4, 5));
        q.append(&recs(1, 0xC3)).unwrap();

        let mut expect = Vec::new();
        encode_data_frame(&mut expect, 1, &recs(3, 0xA1));
        encode_data_frame(&mut expect, 4, &recs(2, 0xB2));
        encode_data_frame(&mut expect, 6, &recs(1, 0xC3));
        let (mut reader, mut got, mut buf, mut seq) = (q.reader(), Vec::new(), Vec::new(), 1);
        while let Some(run) = q.pending_run(seq, 1) {
            reader.read(&run, &mut buf).unwrap();
            got.extend_from_slice(&buf);
            seq = run.last_seq + 1;
        }
        assert_eq!(got, expect, "frames read back at the wrong offsets");
        assert_eq!(std::fs::read(segment_path(&dir, 1)).unwrap(), expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_seq_counter_and_frames() {
        let dir = tmp("reopen");
        {
            let mut q = SpillQueue::open(&dir, 128).unwrap();
            for i in 0..10 {
                q.append(&recs(4, i as u8)).unwrap();
            }
            // Several segments rolled (128-byte threshold).
            assert!(q.segments.len() > 1, "expected a roll");
        }
        let q = SpillQueue::open(&dir, 128).unwrap();
        assert_eq!(q.next_seq(), 41);
        assert_eq!(q.frame_count(), 10);
        let run = q.pending_run(17, 1).unwrap();
        assert!(run.first_seq <= 17 && run.last_seq >= 17);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_after_full_trim_keeps_seq_monotonic() {
        let dir = tmp("trimmed");
        {
            let mut q = SpillQueue::open(&dir, 64).unwrap();
            for i in 0..6 {
                q.append(&recs(2, i as u8)).unwrap();
            }
            q.trim(12).unwrap();
            assert_eq!(q.frame_count(), 0);
        }
        let mut q = SpillQueue::open(&dir, 64).unwrap();
        // Everything acked and trimmed, but the counter must not rewind
        // — reused delivery seqs would be swallowed by the receiver's
        // watermark as duplicates (silent loss).
        assert_eq!(q.next_seq(), 13);
        let (f, _) = q.append(&recs(1, 0xEE)).unwrap();
        assert_eq!(f, 13);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_on_newest_segment_is_truncated() {
        let dir = tmp("torn");
        {
            let mut q = SpillQueue::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
            q.append(&recs(3, 0x11)).unwrap();
            q.append(&recs(3, 0x22)).unwrap();
        }
        let seg = segment_path(&dir, 1);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xDE, 0xAD]).unwrap();
        drop(f);
        let mut q = SpillQueue::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(q.frame_count(), 2);
        assert_eq!(q.next_seq(), 7);
        // Appends continue cleanly from the truncated boundary.
        let (f, l) = q.append(&recs(2, 0x33)).unwrap();
        assert_eq!((f, l), (7, 8));
        drop(q);
        let q2 = SpillQueue::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(q2.frame_count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damage_in_sealed_segment_is_a_typed_error() {
        let dir = tmp("sealed");
        {
            let mut q = SpillQueue::open(&dir, 64).unwrap();
            for i in 0..6 {
                q.append(&recs(2, i as u8)).unwrap();
            }
            assert!(q.segments.len() > 1, "expected a roll");
        }
        // Flip a byte in the FIRST (sealed) segment's interior.
        let seg = segment_path(&dir, 1);
        let mut data = std::fs::read(&seg).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        std::fs::write(&seg, &data).unwrap();
        match SpillQueue::open(&dir, 64) {
            Err(EgressError::SpillCorrupt(_)) => {}
            other => panic!("expected SpillCorrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
