package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// Store is the durable record log every sweep persists through: one
// append-only file, dir/records.log, holding one record per line as
//
//	<crc32-hex-of-payload> '\t' <compact JSON record> '\n'
//
// The checksum makes replay self-validating: a torn final line (the
// partial flush of a killed process) is detected and dropped, while a
// checksum or JSON failure anywhere before the tail is reported as
// corruption. Puts are batch-committed: a batch is appended and fsynced
// when it reaches 64 records or 200 ms after its first record,
// whichever comes first, or on Flush/Close. One fsync per batch
// amortizes the durability cost without letting an acknowledged record
// sit volatile for long. Commit errors are sticky: once a commit fails,
// every later Put/Flush/Close reports it, so a sweep never silently
// keeps feeding a dead log. A Store is safe for concurrent use.
type Store struct {
	dir      string
	maxBatch int
	maxDelay time.Duration

	mu       sync.Mutex
	f        *os.File
	pending  bytes.Buffer // framed lines awaiting the next commit
	nPending int
	timer    *time.Timer
	err      error
	stats    BatchStats
}

// BatchStats counts a store's lifetime commit work.
type BatchStats struct {
	// Records is the number of records committed.
	Records int64 `json:"records"`
	// Batches is the number of commits (each one append + one fsync).
	Batches int64 `json:"batches"`
	// MaxBatchLen is the largest single commit.
	MaxBatchLen int `json:"max_batch_len"`
	// Pending is the number of records buffered for the next commit at
	// the moment Stats was taken.
	Pending int `json:"pending,omitempty"`
	// LastCommitMicros is the wall-clock duration of the most recent
	// commit (append + fsync), in microseconds.
	LastCommitMicros int64 `json:"last_commit_us,omitempty"`
}

// Batch-commit triggers.
const (
	commitRecords = 64
	commitDelay   = 200 * time.Millisecond
)

// OpenStore creates (or reopens) the record log in dir. Reopening first
// heals a torn tail left by a crash, so new appends start on their own
// line.
func OpenStore(dir string) (*Store, error) {
	return openStore(dir, commitRecords, commitDelay)
}

// openStore is OpenStore with explicit commit triggers.
func openStore(dir string, maxBatch int, maxDelay time.Duration) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, maxBatch: maxBatch, maxDelay: maxDelay}
	if err := healTornTail(s.path()); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.path(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	s.f = f
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path() string { return filepath.Join(s.dir, "records.log") }

// Put implements RecordSink: it enqueues one record for the next commit
// and returns immediately, unless the record fills the batch, in which
// case it carries out the commit (and reports its error) itself. A
// record that cannot be encoded fails its own Put and nothing else.
func (s *Store) Put(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runner: marshal record %s: %w", rec.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	fmt.Fprintf(&s.pending, "%08x\t", crc32.ChecksumIEEE(payload))
	s.pending.Write(payload)
	s.pending.WriteByte('\n')
	s.nPending++
	if s.nPending >= s.maxBatch {
		return s.commitLocked()
	}
	if s.timer == nil {
		s.timer = time.AfterFunc(s.maxDelay, s.deadline)
	}
	return nil
}

// deadline is the timer callback committing an aged batch.
func (s *Store) deadline() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitLocked() // the error is sticky; the next Put surfaces it
}

// Flush commits everything pending and returns when it is durable.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked()
}

// Close commits everything pending and closes the log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.commitLocked()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns a snapshot of the commit counters.
func (s *Store) Stats() BatchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Pending = s.nPending
	return st
}

// commitLocked appends the pending batch as one write and fsyncs it, so
// a crash can tear at most a suffix of the batch. Callers hold s.mu.
func (s *Store) commitLocked() error {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if s.err != nil || s.nPending == 0 {
		return s.err
	}
	n := s.nPending
	start := time.Now()
	_, err := s.f.Write(s.pending.Bytes())
	if err == nil {
		err = s.f.Sync()
	}
	s.pending.Reset()
	s.nPending = 0
	if err != nil {
		s.err = err
		return err
	}
	s.stats.LastCommitMicros = time.Since(start).Microseconds()
	s.stats.Records += int64(n)
	s.stats.Batches++
	s.stats.MaxBatchLen = max(s.stats.MaxBatchLen, n)
	return nil
}

// Latest commits anything pending, replays the log and returns the
// latest record of every job, in the order jobs first appear. A torn
// final line is dropped; damage anywhere else is an error.
func (s *Store) Latest() ([]Record, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.path())
	if err != nil {
		return nil, err
	}
	var out []Record
	at := make(map[string]int)
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		rec, err := decodeLine(line)
		if err != nil {
			if i == len(lines)-1 { // no trailing newline: a torn write
				continue
			}
			return nil, fmt.Errorf("runner: %s:%d: %w", s.path(), i+1, err)
		}
		if j, seen := at[rec.ID]; seen {
			out[j] = rec
		} else {
			at[rec.ID] = len(out)
			out = append(out, rec)
		}
	}
	return out, nil
}

// Completed implements RecordSink: the latest record of every job whose
// latest record succeeded. A later failure supersedes an earlier
// success.
func (s *Store) Completed() (map[string]Record, error) {
	recs, err := s.Latest()
	if err != nil {
		return nil, err
	}
	done := make(map[string]Record)
	for _, rec := range recs {
		if rec.OK() {
			done[rec.ID] = rec
		}
	}
	return done, nil
}

// decodeLine parses and checksum-verifies one log line. Numbers inside
// the untyped Config and Scenario echoes decode as json.Number, so they
// keep the exact digits they were written with.
func decodeLine(line []byte) (Record, error) {
	i := bytes.IndexByte(line, '\t')
	if i != 8 {
		return Record{}, fmt.Errorf("malformed frame")
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return Record{}, fmt.Errorf("malformed checksum: %w", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return Record{}, fmt.Errorf("checksum mismatch: %08x != %08x", got, want)
	}
	var rec Record
	if err := decodeJSON(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("corrupt record: %w", err)
	}
	return rec, nil
}

// decodeJSON decodes data into v, keeping untyped numbers exact.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

// healTornTail truncates a trailing partial line (no final newline).
func healTornTail(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if len(data) == 0 || data[len(data)-1] == '\n' {
		return nil
	}
	keep := 0
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		keep = i + 1
	}
	return os.Truncate(path, int64(keep))
}
