//! Streaming telemetry export: bounded-buffer sinks and a schema-carrying
//! row stream.
//!
//! The passive substrate dumps artifacts at end of run
//! (`Series::to_csv`, `Registry::to_jsonl`); long campaigns need rows on
//! disk *while* the run progresses so a killed job still leaves a usable
//! trace. This module provides the minimal machinery:
//!
//! - [`Sink`]: an object-safe line sink (`write_line` / `flush`).
//! - [`JsonlFileSink`]: buffered file sink that flushes when its bounded
//!   buffer fills and on drop.
//! - [`MemorySink`]: cloneable in-memory sink for tests.
//! - [`SeriesStream`]: schema-carrying JSONL row writer — the streaming
//!   twin of [`Series`](crate::series::Series).
//!
//! Sinks only ever *receive* already-computed values; nothing flows back
//! into the producer, so attaching a stream cannot perturb results.

use crate::{json_escape, json_f64};
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An object-safe destination for telemetry lines. Implementations must
/// not interpret the payload; a line is opaque (normally one JSON
/// object, no trailing newline — the sink adds it).
pub trait Sink {
    /// Accept one line (without trailing newline).
    fn write_line(&mut self, line: &str);
    /// Push any buffered lines to the underlying destination.
    fn flush(&mut self);
}

/// Bounded-buffer JSONL file sink: lines accumulate in memory and hit
/// the file whenever the buffer reaches `capacity_bytes` (and on drop),
/// amortising syscalls without letting the buffer grow unboundedly.
pub struct JsonlFileSink {
    file: File,
    buf: String,
    capacity_bytes: usize,
    lines: u64,
    flushes: u64,
}

impl JsonlFileSink {
    /// Create (truncate) `path` with the default 64 KiB buffer.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        JsonlFileSink::with_capacity(path, 64 * 1024)
    }

    /// Create (truncate) `path` with an explicit buffer bound. A
    /// capacity of 0 flushes after every line.
    pub fn with_capacity(path: &Path, capacity_bytes: usize) -> std::io::Result<Self> {
        Ok(JsonlFileSink {
            file: File::create(path)?,
            buf: String::new(),
            capacity_bytes,
            lines: 0,
            flushes: 0,
        })
    }

    /// Lines accepted so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Buffer flushes performed so far (excluding the drop flush).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

impl Sink for JsonlFileSink {
    fn write_line(&mut self, line: &str) {
        self.buf.push_str(line);
        self.buf.push('\n');
        self.lines += 1;
        if self.buf.len() >= self.capacity_bytes {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        // Telemetry export is best-effort by contract: an export failure
        // must never abort the run it is observing.
        let _ = self.file.write_all(self.buf.as_bytes());
        let _ = self.file.flush();
        self.buf.clear();
        self.flushes += 1;
    }
}

impl Drop for JsonlFileSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Cloneable in-memory sink for tests; all clones share one line store.
#[derive(Clone, Default)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Snapshot of the lines received so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    pub fn len(&self) -> usize {
        self.lines
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn write_line(&mut self, line: &str) {
        self.lines
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(line.to_string());
    }

    fn flush(&mut self) {}
}

/// Streaming twin of [`Series`](crate::series::Series): carries a column
/// schema and writes each row as one JSONL object keyed by column name
/// (`{"col_a":1,"col_b":2.5}`), so a partial file is still parseable
/// row-by-row.
pub struct SeriesStream {
    name: String,
    columns: Vec<String>,
    sink: Box<dyn Sink>,
    rows: u64,
}

impl SeriesStream {
    pub fn new(name: &str, columns: &[&str], sink: Box<dyn Sink>) -> Self {
        SeriesStream {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            sink,
            rows: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Write one row. Panics on schema mismatch, mirroring
    /// `Series::push` — a wrong-arity row is a bug at the call site.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "SeriesStream {:?}: row has {} values, schema has {} columns",
            self.name,
            row.len(),
            self.columns.len()
        );
        let mut line = String::from("{");
        for (i, (col, v)) in self.columns.iter().zip(row).enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "\"{}\":{}", json_escape(col), json_f64(*v));
        }
        line.push('}');
        self.sink.write_line(&line);
        self.rows += 1;
    }

    /// Rows written so far.
    pub fn rows_written(&self) -> u64 {
        self.rows
    }

    /// Flush the underlying sink.
    pub fn flush(&mut self) {
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_collects_lines_across_clones() {
        let sink = MemorySink::new();
        let mut a = sink.clone();
        let mut b = sink.clone();
        a.write_line("one");
        b.write_line("two");
        assert_eq!(sink.lines(), ["one", "two"]);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn file_sink_buffers_until_capacity_and_flushes_on_drop() {
        let dir = std::env::temp_dir().join("obs_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink_capacity.jsonl");
        {
            let mut sink = JsonlFileSink::with_capacity(&path, 16).unwrap();
            sink.write_line("aaaa"); // 5 bytes buffered
            assert_eq!(sink.flushes(), 0);
            sink.write_line("bbbbbbbbbbbb"); // crosses 16 → flush
            assert_eq!(sink.flushes(), 1);
            sink.write_line("cc"); // left in buffer for the drop flush
            assert_eq!(sink.lines_written(), 3);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "aaaa\nbbbbbbbbbbbb\ncc\n");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn series_stream_writes_keyed_jsonl_rows() {
        let sink = MemorySink::new();
        let mut stream = SeriesStream::new("ep", &["episode", "reward"], Box::new(sink.clone()));
        stream.push(&[0.0, 1.5]);
        stream.push(&[1.0, f64::NAN]);
        assert_eq!(stream.rows_written(), 2);
        let lines = sink.lines();
        assert_eq!(lines[0], "{\"episode\":0,\"reward\":1.5}");
        assert_eq!(lines[1], "{\"episode\":1,\"reward\":null}");
    }

    #[test]
    #[should_panic(expected = "row has 1 values")]
    fn series_stream_panics_on_arity_mismatch() {
        let mut stream = SeriesStream::new("s", &["a", "b"], Box::new(MemorySink::new()));
        stream.push(&[1.0]);
    }
}
