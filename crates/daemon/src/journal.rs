//! The durable job journal: lopacityd's crash-safety substrate.
//!
//! One append-only, fsync'd, checksummed record log per `--state-dir`
//! (`<state-dir>/journal.log`). Every externally visible job transition is
//! appended *before* it is acknowledged — the submitted spec (canonical
//! text), terminal phase changes, periodic [`RunCheckpoint`]s from the
//! greedy driver, churn event batches, and rendered result graphs. On
//! boot the daemon replays the log, restores finished jobs, and re-queues
//! interrupted ones from their last checkpoint; the core resume contract
//! (`tests/checkpoint_resume.rs`) then guarantees the recovered output is
//! byte-identical to what the uninterrupted run would have produced.
//!
//! # Frame format
//!
//! Plain text, like every other wire format in this workspace:
//!
//! ```text
//! lopj1 <kind> <job-id> <payload-len> <fnv64-hex>\n
//! <payload bytes>\n
//! ```
//!
//! `<payload-len>` counts the payload bytes only (not the trailing
//! newline); `<fnv64-hex>` is FNV-1a 64 over those bytes. A crash mid
//! `write(2)` leaves a torn tail: a header that does not parse, a payload
//! shorter than its declared length, or a checksum mismatch. Replay stops
//! at the first such frame and **truncates** the file back to the last
//! good frame boundary, so the journal is self-healing — every record
//! that replays was fully durable, and a record that was not fully
//! durable was never acknowledged to a client.
//!
//! The checksum detects torn writes and accidental corruption. It is not
//! an integrity MAC: FNV is unkeyed, so anyone who can write the state
//! directory can forge a frame that replays. Protect the directory with
//! file permissions.
//!
//! # Durability and fault injection
//!
//! [`Journal::append`] writes the frame, flushes, and `sync_data`s before
//! returning, with a bounded retry-with-backoff around transient I/O
//! errors. The deterministic [`FaultPlan`] sites `journal.append` and
//! `journal.fsync` fire inside that loop, which is how the chaos suite
//! proves both the retry path (transient faults are absorbed) and the
//! give-up path (persistent faults surface as a submit `503`).

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lopacity::RunCheckpoint;
use lopacity_graph::Edge;
use lopacity_util::FaultPlan;

/// Journal file name inside the state directory.
const JOURNAL_FILE: &str = "journal.log";
/// Frame magic; bump the digit on any format change.
const MAGIC: &str = "lopj1";
/// Attempts per append before the error surfaces to the caller.
const APPEND_ATTEMPTS: u32 = 3;
/// Backoff base between attempts (linear: base, 2×base, ...).
const BACKOFF: Duration = Duration::from_millis(1);

/// One durable record. The `u64` in every variant is the job id.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job was admitted; payload is the canonical spec text
    /// ([`crate::JobSpec::canonical_body`]).
    Submit { id: u64, spec: String },
    /// A job reached a phase worth persisting (running jobs journal only
    /// terminal phases; `running` itself is implied by Submit-without-
    /// terminal). First payload line is the phase name, the rest is the
    /// summary.
    Phase { id: u64, phase: String, summary: String },
    /// A mid-run snapshot from the greedy driver (newest wins on replay).
    Checkpoint { id: u64, checkpoint: RunCheckpoint },
    /// A churn event batch that was applied to the job's held session.
    Events { id: u64, batch: String },
    /// The rendered final graph (canonical edge-list text).
    Result { id: u64, graph: String },
}

impl Record {
    fn kind(&self) -> &'static str {
        match self {
            Record::Submit { .. } => "submit",
            Record::Phase { .. } => "phase",
            Record::Checkpoint { .. } => "checkpoint",
            Record::Events { .. } => "events",
            Record::Result { .. } => "result",
        }
    }

    pub fn id(&self) -> u64 {
        match self {
            Record::Submit { id, .. }
            | Record::Phase { id, .. }
            | Record::Checkpoint { id, .. }
            | Record::Events { id, .. }
            | Record::Result { id, .. } => *id,
        }
    }

    fn payload(&self) -> String {
        match self {
            Record::Submit { spec, .. } => spec.clone(),
            Record::Phase { phase, summary, .. } => format!("{phase}\n{summary}"),
            Record::Checkpoint { checkpoint, .. } => encode_checkpoint(checkpoint),
            Record::Events { batch, .. } => batch.clone(),
            Record::Result { graph, .. } => graph.clone(),
        }
    }

    fn decode(kind: &str, id: u64, payload: &str) -> Result<Record, String> {
        match kind {
            "submit" => Ok(Record::Submit { id, spec: payload.to_string() }),
            "phase" => {
                let (phase, summary) = payload.split_once('\n').unwrap_or((payload, ""));
                Ok(Record::Phase {
                    id,
                    phase: phase.to_string(),
                    summary: summary.to_string(),
                })
            }
            "checkpoint" => {
                Ok(Record::Checkpoint { id, checkpoint: decode_checkpoint(payload)? })
            }
            "events" => Ok(Record::Events { id, batch: payload.to_string() }),
            "result" => Ok(Record::Result { id, graph: payload.to_string() }),
            other => Err(format!("unknown record kind {other:?}")),
        }
    }
}

/// Checkpoint payload: `key value` lines; edits as space-separated `u-v`.
fn encode_checkpoint(ck: &RunCheckpoint) -> String {
    let edges = |list: &[Edge]| {
        list.iter().map(|e| format!("{}-{}", e.u(), e.v())).collect::<Vec<_>>().join(" ")
    };
    format!(
        "steps {}\ntrials {}\nrng {} {} {} {}\nremoved {}\ninserted {}\n",
        ck.steps,
        ck.trials,
        ck.rng_state[0],
        ck.rng_state[1],
        ck.rng_state[2],
        ck.rng_state[3],
        edges(&ck.removed),
        edges(&ck.inserted),
    )
}

fn decode_checkpoint(payload: &str) -> Result<RunCheckpoint, String> {
    let mut ck = RunCheckpoint {
        steps: 0,
        trials: 0,
        rng_state: [0; 4],
        removed: Vec::new(),
        inserted: Vec::new(),
    };
    let edges = |list: &str| -> Result<Vec<Edge>, String> {
        list.split_whitespace()
            .map(|pair| {
                let (u, v) = pair
                    .split_once('-')
                    .ok_or_else(|| format!("checkpoint edge {pair:?} is not u-v"))?;
                let u = u.parse().map_err(|_| format!("checkpoint edge {pair:?}: bad u"))?;
                let v = v.parse().map_err(|_| format!("checkpoint edge {pair:?}: bad v"))?;
                Ok(Edge::new(u, v))
            })
            .collect()
    };
    for line in payload.lines() {
        let (key, value) = match line.split_once(' ') {
            Some(kv) => kv,
            None => (line, ""),
        };
        match key {
            "steps" => {
                ck.steps = value.parse().map_err(|_| format!("checkpoint steps {value:?}"))?
            }
            "trials" => {
                ck.trials = value.parse().map_err(|_| format!("checkpoint trials {value:?}"))?
            }
            "rng" => {
                let words: Vec<&str> = value.split_whitespace().collect();
                if words.len() != 4 {
                    return Err(format!("checkpoint rng needs 4 words, got {}", words.len()));
                }
                for (slot, word) in ck.rng_state.iter_mut().zip(&words) {
                    *slot = word.parse().map_err(|_| format!("checkpoint rng word {word:?}"))?;
                }
            }
            "removed" => ck.removed = edges(value)?,
            "inserted" => ck.inserted = edges(value)?,
            other => return Err(format!("unknown checkpoint key {other:?}")),
        }
    }
    Ok(ck)
}

/// FNV-1a 64 over raw bytes (the frame checksum).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_frame(record: &Record) -> Vec<u8> {
    let payload = record.payload();
    let bytes = payload.as_bytes();
    let mut frame = format!(
        "{MAGIC} {} {} {} {:016x}\n",
        record.kind(),
        record.id(),
        bytes.len(),
        fnv64(bytes)
    )
    .into_bytes();
    frame.extend_from_slice(bytes);
    frame.push(b'\n');
    frame
}

/// Scans a raw journal byte buffer into its durable records: the frames
/// that parse, the byte offset of the first torn/corrupt frame (== the
/// clean length of the buffer), and the tear's reason when there is one.
/// This is [`Journal::open`]'s replay loop, exposed so recovery tooling
/// and the parser fuzz suite can drive it on arbitrary bytes without a
/// file — it never panics and never allocates beyond the decoded records.
pub fn scan_frames(buf: &[u8]) -> (Vec<Record>, usize, Option<String>) {
    let mut records = Vec::new();
    let mut offset = 0;
    loop {
        match parse_frame(buf, offset) {
            Parsed::Frame(record, next) => {
                records.push(record);
                offset = next;
            }
            Parsed::Clean => return (records, offset, None),
            Parsed::Torn(why) => return (records, offset, Some(why)),
        }
    }
}

/// Outcome of parsing one frame from the byte stream at `offset`.
enum Parsed {
    /// A good frame; `next` is the offset just past it.
    Frame(Record, usize),
    /// End of buffer, exactly at a frame boundary.
    Clean,
    /// A torn or corrupt tail starting at this offset.
    Torn(String),
}

fn parse_frame(buf: &[u8], offset: usize) -> Parsed {
    let rest = &buf[offset..];
    if rest.is_empty() {
        return Parsed::Clean;
    }
    let Some(header_end) = rest.iter().position(|&b| b == b'\n') else {
        return Parsed::Torn("header without newline".into());
    };
    let header = match std::str::from_utf8(&rest[..header_end]) {
        Ok(h) => h,
        Err(_) => return Parsed::Torn("header is not UTF-8".into()),
    };
    let words: Vec<&str> = header.split(' ').collect();
    let [magic, kind, id, len, sum] = words.as_slice() else {
        return Parsed::Torn(format!("malformed header {header:?}"));
    };
    if *magic != MAGIC {
        return Parsed::Torn(format!("bad magic {magic:?}"));
    }
    let (Ok(id), Ok(len)) = (id.parse::<u64>(), len.parse::<usize>()) else {
        return Parsed::Torn(format!("bad id/len in header {header:?}"));
    };
    let Ok(sum) = u64::from_str_radix(sum, 16) else {
        return Parsed::Torn(format!("bad checksum in header {header:?}"));
    };
    let payload_start = header_end + 1;
    // Payload + its trailing newline must both be present. The declared
    // length is attacker-or-corruption controlled: the bound check must
    // not wrap (`payload_start + len + 1` with `len` near `usize::MAX`
    // would), so it is checked arithmetic — overflow is just Torn.
    let Some(frame_end) = payload_start.checked_add(len).and_then(|end| end.checked_add(1))
    else {
        return Parsed::Torn("declared payload length overflows".into());
    };
    if rest.len() < frame_end {
        return Parsed::Torn("payload shorter than declared length".into());
    }
    let payload = &rest[payload_start..payload_start + len];
    if rest[payload_start + len] != b'\n' {
        return Parsed::Torn("payload not newline-terminated".into());
    }
    if fnv64(payload) != sum {
        return Parsed::Torn("payload checksum mismatch".into());
    }
    let Ok(payload) = std::str::from_utf8(payload) else {
        return Parsed::Torn("payload is not UTF-8".into());
    };
    match Record::decode(kind, id, payload) {
        Ok(record) => Parsed::Frame(record, offset + payload_start + len + 1),
        Err(e) => Parsed::Torn(e),
    }
}

/// The open journal. Appends are serialized behind one lock; the file is
/// flushed and `sync_data`'d before `append` returns.
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
    faults: Arc<FaultPlan>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    /// Opens (creating if absent) `<state_dir>/journal.log`, replays every
    /// durable record, truncates any torn tail, and returns the journal
    /// plus the replayed records in append order.
    pub fn open(state_dir: &Path, faults: Arc<FaultPlan>) -> io::Result<(Journal, Vec<Record>)> {
        std::fs::create_dir_all(state_dir)?;
        let path = state_dir.join(JOURNAL_FILE);
        let mut file =
            OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut buf = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut buf)?;
        let (records, offset, torn) = scan_frames(&buf);
        if let Some(why) = torn {
            eprintln!(
                "lopacityd: journal {}: torn tail at byte {offset} ({why}); \
                 truncating {} bytes",
                path.display(),
                buf.len() - offset
            );
            file.set_len(offset as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((Journal { file: Mutex::new(file), path, faults }, records))
    }

    /// Appends one record durably: write, flush, `sync_data`. Transient
    /// failures (including injected `journal.append` / `journal.fsync`
    /// faults) are retried with linear backoff; after `APPEND_ATTEMPTS`
    /// consecutive failures the last error surfaces to the caller, who
    /// must not acknowledge the record's effect.
    pub fn append(&self, record: &Record) -> io::Result<()> {
        let frame = encode_frame(record);
        let mut file = self.file.lock().expect("journal lock");
        let mut last_err = None;
        for attempt in 0..APPEND_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(BACKOFF * attempt);
            }
            match self.append_once(&mut file, &frame) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    fn append_once(&self, file: &mut File, frame: &[u8]) -> io::Result<()> {
        // A failed partial write would itself be a torn tail — which is
        // exactly what replay truncates, so retrying after it is safe.
        self.faults.check_io("journal.append")?;
        file.write_all(frame)?;
        file.flush()?;
        self.faults.check_io("journal.fsync")?;
        file.sync_data()
    }

    /// The journal file's path (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("lopj-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Submit { id: 1, spec: "mode anonymize\nl 2\ngraph gnm 10 20 3\n".into() },
            Record::Checkpoint {
                id: 1,
                checkpoint: RunCheckpoint {
                    steps: 2,
                    trials: 417,
                    rng_state: [u64::MAX, 0, 7, 123_456_789_012_345],
                    removed: vec![Edge::new(0, 1), Edge::new(4, 9)],
                    inserted: vec![Edge::new(2, 3)],
                },
            },
            Record::Events { id: 2, batch: "add 0 1\nremove 2 3\n".into() },
            Record::Phase { id: 1, phase: "done".into(), summary: "achieved true\nsteps 3\n".into() },
            Record::Result { id: 1, graph: "# lopacity edge list\n0 1\n".into() },
        ]
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let dir = tmp_dir("roundtrip");
        let written = sample_records();
        {
            let (journal, replayed) =
                Journal::open(&dir, Arc::new(FaultPlan::none())).unwrap();
            assert!(replayed.is_empty(), "fresh journal");
            for r in &written {
                journal.append(r).unwrap();
            }
        }
        let (_, replayed) = Journal::open(&dir, Arc::new(FaultPlan::none())).unwrap();
        assert_eq!(replayed, written);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tails_are_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        let written = sample_records();
        {
            let (journal, _) = Journal::open(&dir, Arc::new(FaultPlan::none())).unwrap();
            for r in &written {
                journal.append(r).unwrap();
            }
        }
        let path = dir.join(JOURNAL_FILE);
        let full = std::fs::read(&path).unwrap();
        // Cut the file mid-way through the last frame: the tail record is
        // lost, everything before it replays, and the file is healed.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (_, replayed) = Journal::open(&dir, Arc::new(FaultPlan::none())).unwrap();
        assert_eq!(replayed, written[..written.len() - 1]);
        let healed = std::fs::metadata(&path).unwrap().len();
        assert!(healed < full.len() as u64 - 3, "torn frame was cut, not kept");
        // A third open replays the healed prefix without further loss.
        let (_, again) = Journal::open(&dir, Arc::new(FaultPlan::none())).unwrap();
        assert_eq!(again, written[..written.len() - 1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_payload_bytes_fail_the_checksum() {
        let dir = tmp_dir("corrupt");
        {
            let (journal, _) = Journal::open(&dir, Arc::new(FaultPlan::none())).unwrap();
            journal.append(&Record::Submit { id: 9, spec: "l 1\ngraph gnm 5 5 1\n".into() }).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = bytes.len() - 5; // inside the payload
        bytes[flip] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = Journal::open(&dir, Arc::new(FaultPlan::none())).unwrap();
        assert!(replayed.is_empty(), "checksum rejects the bit flip");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "healed to the last good frame");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_append_faults_are_retried_persistent_ones_surface() {
        let dir = tmp_dir("faults");
        // Fault on the first append attempt only: absorbed by the retry.
        let faults = Arc::new(FaultPlan::parse("journal.append:1").unwrap());
        let (journal, _) = Journal::open(&dir, Arc::clone(&faults)).unwrap();
        journal.append(&Record::Submit { id: 1, spec: "x".into() }).unwrap();
        assert_eq!(faults.fired(), 1, "the fault did fire");

        // Fault on every fsync from now on: append gives up after the
        // bounded retries and reports the injected error.
        let faults = Arc::new(FaultPlan::parse("journal.fsync:1+").unwrap());
        let (journal, replayed) = Journal::open(&dir, Arc::clone(&faults)).unwrap();
        assert_eq!(replayed.len(), 1);
        let err = journal.append(&Record::Submit { id: 2, spec: "y".into() }).unwrap_err();
        assert!(err.to_string().contains("journal.fsync"), "{err}");
        assert_eq!(faults.fired(), APPEND_ATTEMPTS as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn huge_declared_lengths_are_torn_not_panics() {
        // A corrupt header declaring a near-usize::MAX payload length used
        // to wrap the bounds arithmetic and panic the replay slice; it
        // must scan as a torn tail at offset 0. (Also pinned in the fuzz
        // corpus: tests/fuzz_corpus/journal/huge-declared-len.bin.)
        let evil = format!("lopj1 submit 1 {} 0000000000000000\nxx\n", usize::MAX - 8);
        let (records, offset, torn) = scan_frames(evil.as_bytes());
        assert!(records.is_empty());
        assert_eq!(offset, 0);
        assert!(torn.unwrap().contains("overflow"));
        // A length merely larger than the buffer is the ordinary torn case.
        let (records, _, torn) = scan_frames(b"lopj1 submit 1 400 0000000000000000\nxx\n");
        assert!(records.is_empty());
        assert!(torn.unwrap().contains("shorter"));
    }

    #[test]
    fn checkpoint_payloads_preserve_every_field() {
        let ck = RunCheckpoint {
            steps: 0,
            trials: u64::MAX,
            rng_state: [1, u64::MAX, 0, 42],
            removed: vec![],
            inserted: vec![Edge::new(7, 8)],
        };
        let decoded = decode_checkpoint(&encode_checkpoint(&ck)).unwrap();
        assert_eq!(decoded, ck);
        assert!(decode_checkpoint("rng 1 2 3\n").is_err(), "short rng rejected");
        assert!(decode_checkpoint("bogus 3\n").is_err(), "unknown key rejected");
    }
}
