//! Buffered spill files: page-aligned, append-only, checksummed runs of
//! tuples for the larger-than-memory join path (DESIGN.md §13).
//!
//! A [`SpillDir`] owns one temporary directory per join and removes it
//! recursively on `Drop`, so no error/cancel/panic path can leave orphan
//! temp files behind as long as the directory handle unwinds. Individual
//! runs ([`SpillRun`]) also delete their backing file when dropped, which
//! bounds disk usage during recursive repartitioning.
//!
//! A run is a sequence of whole 4 KiB pages ([`PAGE_4K`]) holding the
//! tuples in their native `repr(C)` layout — the bytes of the `&[Tuple]`
//! the writer was handed, with no encode or decode step. Runs are
//! scratch files of one process and never leave the host, so the
//! layout's byte order is the host's. Tuples are buffered until a page
//! fills, then appended with one `write_all`; the final page is
//! zero-padded so every run file is a page multiple, and the exact
//! tuple count travels in the [`SpillRun`] metadata, never in the file.
//! A [`SpillReader`] is the one way back: it streams a run two pages a
//! read into one reused buffer and hands them out a page at a time.
//!
//! Each run carries an order-dependent digest of its tuples that the
//! reader re-derives and verifies, so a torn, truncated, reordered or
//! corrupted spill file surfaces as a typed `InvalidData` error instead
//! of a wrong join result. The digest is eight interleaved SplitMix64
//! chains — tuple `i` extends chain `i % 8` — folded in order at the
//! end: the independent chains' multiplies overlap, which folds about
//! twice the bytes a second of one serial chain, and a tuple moved to
//! any other position still changes the result. The reader also checks
//! the file's length and that the final page's padding is zero.
//!
//! Memory for the buffers is the caller's to account: `mmjoin-core`
//! charges [`WRITER_BYTES`] per open writer and [`READER_BYTES`] per
//! reader against the join's `MemBudget`.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::tuple::Tuple;
use crate::PAGE_4K;

/// Tuples per 4 KiB spill page (512 for the paper's 8-byte tuples).
pub const TUPLES_PER_PAGE: usize = PAGE_4K / size_of::<Tuple>();

/// Budget bytes charged for one [`SpillWriter`]: the one page of tuples
/// it buffers. `mmjoin-core`'s residency plan and recursion fan-out are
/// computed from it.
pub const WRITER_BYTES: usize = PAGE_4K;

/// Heap bytes held by one [`SpillReader`]: a two-page tuple buffer.
pub const READER_BYTES: usize = 2 * PAGE_4K;

/// Tuples a reader reads at once.
const READ_TUPLES: usize = READER_BYTES / size_of::<Tuple>();
const _: () = assert!(READ_TUPLES.is_multiple_of(TUPLES_PER_PAGE));

// The byte views below rely on this: two `u32`s, no padding.
const _: () = assert!(size_of::<Tuple>() == 8 && std::mem::align_of::<Tuple>() == 4);

/// The bytes of `ts` as they lie in memory.
fn bytes_of(ts: &[Tuple]) -> &[u8] {
    // SAFETY: `Tuple` is `repr(C)` of two `u32`s (asserted above: 8
    // bytes, no padding), so the slice is `size_of_val(ts)` initialized
    // bytes, and `u8` has no alignment to meet.
    unsafe { std::slice::from_raw_parts(ts.as_ptr().cast::<u8>(), std::mem::size_of_val(ts)) }
}

/// The bytes of `ts`, writable: any bytes written are valid tuples.
fn bytes_of_mut(ts: &mut [Tuple]) -> &mut [u8] {
    // SAFETY: as in `bytes_of`; besides, every bit pattern is a valid
    // pair of `u32`s, so whatever is written through the view leaves
    // valid tuples behind, and the view borrows `ts` mutably.
    unsafe {
        std::slice::from_raw_parts_mut(ts.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(ts))
    }
}

/// The typed corruption error for the run at `path`.
fn invalid(path: &Path, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("spill run {what} in {}", path.display()),
    )
}

/// Injectable I/O failures for fault testing ("io failpoints").
///
/// Unlike the cfg-gated panic/sleep failpoints in `mmjoin-core`, these
/// are always compiled: with nothing armed the check is one atomic load
/// per file operation, and the lock is taken only while a failpoint is
/// armed. Arming is scoped by a path substring so concurrent tests
/// (each join spills under its own unique [`SpillDir`]) cannot trip
/// each other's faults.
pub mod iofail {
    use std::io;
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    static ARMED: Mutex<Option<(String, u64)>> = Mutex::new(None);

    /// Whether `ARMED` holds a failpoint; written under its lock. Only
    /// a hint for skipping the lock: the failpoint itself is read under
    /// the lock. The `Release` store pairs with `check`'s `Acquire`
    /// load; a join started after `arm` returns sees the flag set,
    /// since starting its workers synchronizes with the arming thread.
    static ANY_ARMED: AtomicBool = AtomicBool::new(false);

    /// Disarms the failpoint when dropped (RAII for tests).
    pub struct Guard;

    impl Drop for Guard {
        fn drop(&mut self) {
            disarm();
        }
    }

    fn set(armed: Option<(String, u64)>) {
        let mut g = ARMED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ANY_ARMED.store(armed.is_some(), Ordering::Release);
        *g = armed;
    }

    /// Arm: the `(skip + 1)`-th I/O operation on any spill file whose
    /// path contains `path_substring` fails with an injected
    /// `io::Error`, as do all later matching operations until the
    /// returned [`Guard`] drops (persistent failure models a dead disk,
    /// and keeps retry paths deterministic).
    pub fn arm(path_substring: &str, skip: u64) -> Guard {
        set(Some((path_substring.to_string(), skip)));
        Guard
    }

    /// Remove any armed failpoint.
    pub fn disarm() {
        set(None);
    }

    /// Called by the spill layer before each file operation.
    pub(crate) fn check(path: &Path) -> io::Result<()> {
        if !ANY_ARMED.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut g = ARMED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((pat, left)) = g.as_mut() {
            if path.to_string_lossy().contains(pat.as_str()) {
                if *left == 0 {
                    return Err(io::Error::other(format!(
                        "injected spill I/O failure on {}",
                        path.display()
                    )));
                }
                *left -= 1;
            }
        }
        Ok(())
    }
}

/// Chains of the run digest; tuple `i` extends chain `i % LANES`.
const LANES: usize = 8;

/// Fold `v` into chain state `z`: SplitMix64's finalizer over
/// `z ^ (v + γ)`.
#[inline]
fn mix(z: u64, v: u64) -> u64 {
    let mut z = z ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-dependent digest over a run's tuples, in [`LANES`] independent
/// SplitMix64 chains so consecutive tuples' multiplies overlap. Moving a
/// tuple to another position changes its own chain's order, or two
/// chains' contents; [`RunDigest::finish`] folds the chains in order.
#[derive(Debug)]
struct RunDigest {
    lanes: [u64; LANES],
    tuples: u64,
}

impl RunDigest {
    fn new() -> Self {
        RunDigest {
            lanes: std::array::from_fn(|l| l as u64),
            tuples: 0,
        }
    }

    /// Fold in the run's next tuples. Every slice but a run's last is a
    /// whole number of pages, so each starts at chain 0.
    fn update(&mut self, ts: &[Tuple]) {
        debug_assert!(
            self.tuples.is_multiple_of(LANES as u64),
            "only a run's last slice may end mid-group"
        );
        let mut groups = ts.chunks_exact(LANES);
        for g in &mut groups {
            for (lane, t) in self.lanes.iter_mut().zip(g) {
                *lane = mix(*lane, t.pack());
            }
        }
        for (lane, t) in self.lanes.iter_mut().zip(groups.remainder()) {
            *lane = mix(*lane, t.pack());
        }
        self.tuples += ts.len() as u64;
    }

    fn finish(&self) -> u64 {
        self.lanes.iter().fold(self.tuples, |d, &l| mix(d, l))
    }
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A join-scoped temporary directory holding spill runs. Removed
/// recursively (best-effort) on `Drop`.
#[derive(Debug)]
pub struct SpillDir {
    root: PathBuf,
}

impl SpillDir {
    /// Create a fresh, uniquely named spill directory under `parent`
    /// (or the system temp dir when `None`).
    pub fn create(parent: Option<&Path>) -> io::Result<SpillDir> {
        let base = match parent {
            Some(p) => p.to_path_buf(),
            None => std::env::temp_dir(),
        };
        let pid = std::process::id();
        loop {
            let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let root = base.join(format!("mmjoin-spill-{pid}-{seq}"));
            match fs::create_dir_all(&base).and_then(|()| fs::create_dir(&root)) {
                Ok(()) => return Ok(SpillDir { root }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The directory all runs live under.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Open a new append-only run named `name` (e.g. `"r-part-17"`).
    pub fn writer(&self, name: &str) -> io::Result<SpillWriter> {
        SpillWriter::create(self.root.join(format!("{name}.run")))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Buffered append-only writer for one run of tuples.
#[derive(Debug)]
pub struct SpillWriter {
    path: PathBuf,
    file: File,
    /// Up to a page of tuples not yet written.
    buf: Vec<Tuple>,
    tuples: u64,
    bytes: u64,
    digest: RunDigest,
    finished: bool,
}

impl SpillWriter {
    fn create(path: PathBuf) -> io::Result<SpillWriter> {
        iofail::check(&path)?;
        let file = File::create(&path)?;
        Ok(SpillWriter {
            path,
            file,
            buf: Vec::with_capacity(TUPLES_PER_PAGE),
            tuples: 0,
            bytes: 0,
            digest: RunDigest::new(),
            finished: false,
        })
    }

    /// Number of tuples appended so far, the buffered ones included:
    /// what the run will hold if nothing more is appended.
    pub fn tuples(&self) -> u64 {
        self.tuples + self.buf.len() as u64
    }

    /// Append one tuple, writing the page out when it fills.
    #[inline]
    pub fn push(&mut self, t: Tuple) -> io::Result<()> {
        self.buf.push(t);
        if self.buf.len() == TUPLES_PER_PAGE {
            self.flush()?;
        }
        Ok(())
    }

    /// Append a slice of tuples.
    pub fn push_slice(&mut self, mut ts: &[Tuple]) -> io::Result<()> {
        while !ts.is_empty() {
            let (now, rest) = ts.split_at(ts.len().min(TUPLES_PER_PAGE - self.buf.len()));
            self.buf.extend_from_slice(now);
            ts = rest;
            if self.buf.len() == TUPLES_PER_PAGE {
                self.flush()?;
            }
        }
        Ok(())
    }

    /// Write the buffered tuples out as one zero-padded page.
    fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        iofail::check(&self.path)?;
        let n = self.buf.len();
        self.digest.update(&self.buf);
        self.buf.resize(TUPLES_PER_PAGE, Tuple::default());
        self.file.write_all(bytes_of(&self.buf))?;
        self.tuples += n as u64;
        self.bytes += PAGE_4K as u64;
        self.buf.clear();
        Ok(())
    }

    /// Write the final partial page and seal the run. The writer's file
    /// handle is dropped; the returned [`SpillRun`] owns the file.
    pub fn finish(mut self) -> io::Result<SpillRun> {
        self.flush()?;
        self.file.flush()?;
        self.finished = true;
        Ok(SpillRun {
            path: std::mem::take(&mut self.path),
            tuples: self.tuples,
            bytes: self.bytes,
            digest: self.digest.finish(),
        })
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        // An unfinished writer (error/cancel path) removes its file so
        // partial runs never linger beyond the writer itself.
        if !self.finished {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// A sealed on-disk run: path + exact tuple count + digest. Deletes its
/// backing file on `Drop`.
#[derive(Debug)]
pub struct SpillRun {
    path: PathBuf,
    tuples: u64,
    bytes: u64,
    digest: u64,
}

impl SpillRun {
    /// Exact number of tuples in the run.
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Bytes occupied on disk (a page multiple).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// True if the run holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// Stream the run back one page at a time. A file whose length is
    /// not the run's is `InvalidData` here already.
    pub fn reader(&self) -> io::Result<SpillReader<'_>> {
        iofail::check(&self.path)?;
        let file = File::open(&self.path)?;
        if file.metadata()?.len() != self.bytes {
            return Err(invalid(&self.path, "length mismatch"));
        }
        Ok(SpillReader {
            run: self,
            file,
            remaining: self.tuples,
            digest: RunDigest::new(),
            buf: Vec::with_capacity(READ_TUPLES),
            at: 0,
        })
    }
}

impl Drop for SpillRun {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Streaming page reader over a [`SpillRun`]; verifies the run digest
/// when the last page has been read.
#[derive(Debug)]
pub struct SpillReader<'a> {
    run: &'a SpillRun,
    file: File,
    /// Tuples of the run not yet read from the file.
    remaining: u64,
    digest: RunDigest,
    /// The tuples of the last read; `buf[at..]` not yet handed out.
    buf: Vec<Tuple>,
    at: usize,
}

impl SpillReader<'_> {
    /// Next page of tuples, or `None` after the last. The call that
    /// reads the run's last bytes re-checks the digest and the final
    /// page's padding and reports corruption as
    /// `io::ErrorKind::InvalidData`.
    pub fn next_page(&mut self) -> io::Result<Option<&[Tuple]>> {
        if self.at == self.buf.len() {
            if self.remaining == 0 {
                return Ok(None);
            }
            let mut buf = std::mem::take(&mut self.buf);
            self.at = 0;
            buf.resize((self.remaining as usize).min(READ_TUPLES), Tuple::default());
            self.fill(&mut buf)?;
            self.buf = buf;
        }
        let page = self.at..self.buf.len().min(self.at + TUPLES_PER_PAGE);
        self.at = page.end;
        Ok(Some(&self.buf[page]))
    }

    /// Read the run's next `out.len()` tuples and fold them into the
    /// digest; when that drains the run, read the padding of its final
    /// page too and verify both.
    fn fill(&mut self, out: &mut [Tuple]) -> io::Result<()> {
        debug_assert!(out.len() as u64 <= self.remaining, "read past the run");
        iofail::check(&self.run.path)?;
        self.file.read_exact(bytes_of_mut(out))?;
        self.digest.update(out);
        self.remaining -= out.len() as u64;
        if self.remaining > 0 {
            return Ok(());
        }
        let mut pad = [Tuple::default(); TUPLES_PER_PAGE];
        let pad = &mut pad[..(self.run.bytes / 8 - self.run.tuples) as usize];
        self.file.read_exact(bytes_of_mut(pad))?;
        if pad.iter().any(|&t| t != Tuple::default()) {
            return Err(invalid(&self.run.path, "padding corrupted"));
        }
        if self.digest.finish() != self.run.digest {
            return Err(invalid(&self.run.path, "checksum mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(n: usize, seed: u32) -> Vec<Tuple> {
        (0..n as u32)
            .map(|i| Tuple::new(i.wrapping_mul(2654435761) ^ seed, i))
            .collect()
    }

    /// Every tuple of a run through the streaming reader.
    fn stream(run: &SpillRun) -> io::Result<Vec<Tuple>> {
        let mut r = run.reader()?;
        let mut got = Vec::new();
        while let Some(page) = r.next_page()? {
            got.extend_from_slice(page);
        }
        Ok(got)
    }

    #[test]
    fn round_trips_across_page_boundaries() {
        let dir = SpillDir::create(None).unwrap();
        for n in [
            0,
            1,
            TUPLES_PER_PAGE - 1,
            TUPLES_PER_PAGE,
            3 * TUPLES_PER_PAGE + 7,
        ] {
            let input = tuples(n, 42);
            let mut w = dir.writer(&format!("run-{n}")).unwrap();
            w.push_slice(&input).unwrap();
            let run = w.finish().unwrap();
            assert_eq!(run.tuples(), n as u64);
            assert_eq!(run.bytes() % PAGE_4K as u64, 0, "runs are page multiples");
            assert_eq!(stream(&run).unwrap(), input);
        }
    }

    #[test]
    fn streaming_reader_yields_exact_pages() {
        let dir = SpillDir::create(None).unwrap();
        let input = tuples(2 * TUPLES_PER_PAGE + 3, 7);
        let mut w = dir.writer("stream").unwrap();
        w.push_slice(&input).unwrap();
        let run = w.finish().unwrap();
        let mut r = run.reader().unwrap();
        let mut got = Vec::new();
        let mut pages = 0;
        while let Some(page) = r.next_page().unwrap() {
            got.extend_from_slice(page);
            pages += 1;
        }
        assert_eq!(pages, 3);
        assert_eq!(got, input);
    }

    #[test]
    fn drop_cleans_directory_and_runs() {
        let dir = SpillDir::create(None).unwrap();
        let root = dir.path().to_path_buf();
        let mut w = dir.writer("a").unwrap();
        w.push_slice(&tuples(1000, 1)).unwrap();
        let run = w.finish().unwrap();
        let unfinished = dir.writer("b").unwrap();
        assert!(root.exists());
        drop(unfinished); // unfinished writer removes its own file
        assert_eq!(fs::read_dir(&root).unwrap().count(), 1);
        drop(run);
        assert_eq!(fs::read_dir(&root).unwrap().count(), 0);
        drop(dir);
        assert!(!root.exists(), "SpillDir::drop removes the directory");
    }

    #[test]
    fn corrupted_run_fails_checksum() {
        let dir = SpillDir::create(None).unwrap();
        let mut w = dir.writer("c").unwrap();
        w.push_slice(&tuples(700, 3)).unwrap();
        let run = w.finish().unwrap();
        // Flip one byte in the middle of the file.
        let mut raw = fs::read(&run.path).unwrap();
        raw[100] ^= 0xFF;
        fs::write(&run.path, &raw).unwrap();
        let err = stream(&run).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Seal a run of `n` tuples, rewrite its file through `edit`, and
    /// check that the reader refuses it as `InvalidData`.
    fn assert_detected(label: &str, n: usize, edit: impl FnOnce(&mut Vec<u8>)) {
        let dir = SpillDir::create(None).unwrap();
        let mut w = dir.writer("m").unwrap();
        let input = tuples(n, 5);
        w.push_slice(&input).unwrap();
        let run = w.finish().unwrap();
        assert_eq!(stream(&run).unwrap(), input, "{label}: intact run");
        let mut raw = fs::read(&run.path).unwrap();
        edit(&mut raw);
        fs::write(&run.path, &raw).unwrap();
        let err = stream(&run).expect_err(&format!("{label}: accepted a damaged run"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{label}: {err}");
    }

    /// Swap tuples `a` and `b` in a run file's bytes.
    fn swap(raw: &mut [u8], a: usize, b: usize) {
        for i in 0..8 {
            raw.swap(a * 8 + i, b * 8 + i);
        }
    }

    #[test]
    fn run_digest_refuses_every_mutation() {
        let n = 3 * TUPLES_PER_PAGE + 100;
        assert_detected("flipped bit", n, |raw| raw[8 * 700 + 5] ^= 0x10);
        assert_detected("swap in one lane", n, |raw| swap(raw, 3, 3 + LANES));
        assert_detected("swap across lanes", n, |raw| swap(raw, 3, 4));
        assert_detected("swap across pages", n, |raw| {
            swap(raw, 5, 5 + TUPLES_PER_PAGE)
        });
        assert_detected("truncated final page", n, |raw| {
            raw.truncate(raw.len() - PAGE_4K / 2)
        });
        assert_detected("page copied over the next", n, |raw| {
            raw.copy_within(0..PAGE_4K, PAGE_4K)
        });
        assert_detected("page inserted twice", n, |raw| {
            let page = raw[PAGE_4K..2 * PAGE_4K].to_vec();
            raw.splice(PAGE_4K..PAGE_4K, page);
        });
        assert_detected("non-zero padding", n, |raw| *raw.last_mut().unwrap() = 1);
        // A partial first group: the digest's lanes past the last tuple.
        assert_detected("short run", 5, |raw| swap(raw, 1, 3));
    }

    #[test]
    fn iofail_injects_scoped_errors() {
        let dir = SpillDir::create(None).unwrap();
        let other = SpillDir::create(None).unwrap();
        let marker = dir
            .path()
            .file_name()
            .unwrap()
            .to_string_lossy()
            .to_string();
        let _g = iofail::arm(&marker, 1); // first matching op ok, second fails
        let mut w = dir.writer("f").unwrap(); // op 1: create
        let err = w.push_slice(&tuples(2 * TUPLES_PER_PAGE, 9)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        // A different spill dir is untouched by the armed failpoint.
        let mut w2 = other.writer("g").unwrap();
        w2.push_slice(&tuples(2 * TUPLES_PER_PAGE, 9)).unwrap();
        w2.finish().unwrap();
    }
}
