package core

// Resumable sweeps: an append-only JSONL journal of completed design
// points. Each finished point appends one line — {"key","result"} on
// success, {"key","err"} on failure — and the file is fsync'd after every
// record, so a sweep killed at any instant loses at most the line being
// written. A kill mid-write leaves one truncated final line, which
// OpenJournal tolerates by truncating the file back to the last complete
// record before reopening it for append. Resuming a sweep skips every key
// with a successful entry (restoring its saved result into the grid) and
// re-runs failed or missing points, so an interrupted sweep converges to
// the same grid an uninterrupted one produces.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"sst/internal/iofault"
)

// ErrJournal marks a failure to open or durably write the sweep journal.
// It is a first-class sweep failure — exit code 1, not a failed-point
// exit 3 — because a sweep whose crash-safety layer is broken must not
// look like a sweep that merely had unlucky points: the operator has to
// fix the disk, not the design.
var ErrJournal = errors.New("journal write failed")

// journalEntry is one JSONL record: a point's stable key plus either its
// serialized result or its failure text, and any retries the point took
// on the way. Retries carry seeded backoff delays, so the record — and
// therefore the whole journal — is byte-identical across runs.
type journalEntry struct {
	Key     string          `json:"key"`
	Err     string          `json:"err,omitempty"`
	Retries []RetryRecord   `json:"retries,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// Journal is an append-only, crash-tolerant record of completed sweep
// points, persisted through iofault's record log. Record is safe for
// concurrent use by the sweep worker pool.
type Journal struct {
	mu   sync.Mutex
	log  *iofault.Log
	done map[string]journalEntry
}

// OpenJournal opens (creating if absent) the journal at path on the real
// filesystem. See OpenJournalFS.
func OpenJournal(path string, resume bool) (*Journal, error) {
	return OpenJournalFS(iofault.Disk, path, resume)
}

// OpenJournalFS opens (creating if absent) the journal at path on fsys —
// the host-storage seam the crash-point harness substitutes a fault
// model for. When resume is true, every complete record already in the
// file is loaded and a truncated final line — the signature of a crash
// mid-append — is cut off; when false the file is started fresh.
func OpenJournalFS(fsys iofault.FS, path string, resume bool) (*Journal, error) {
	j := &Journal{done: make(map[string]journalEntry)}
	var replay func(line []byte) bool
	if resume {
		replay = func(line []byte) bool {
			var ent journalEntry
			if json.Unmarshal(line, &ent) != nil || ent.Key == "" {
				return false
			}
			j.done[ent.Key] = ent
			return true
		}
	}
	log, err := iofault.OpenLog(fsys, path, replay)
	if err != nil {
		return nil, fmt.Errorf("core: journal: %w: %w", ErrJournal, err)
	}
	j.log = log
	return j, nil
}

// Completed returns the recorded entry for key, if any. Entries with a
// non-empty Err are failures; resume re-runs those points.
func (j *Journal) Completed(key string) (journalEntry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ent, ok := j.done[key]
	return ent, ok
}

// Len reports how many distinct keys the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Record appends one point's outcome — including its retry history — and
// fsyncs it. result is ignored when perr is non-nil. Write and fsync
// failures wrap ErrJournal: the record cannot be trusted to survive a
// crash, so the sweep must fail loudly rather than pretend the point is
// durable.
func (j *Journal) Record(key string, result json.RawMessage, retries []RetryRecord, perr error) error {
	ent := journalEntry{Key: key, Retries: retries}
	if perr != nil {
		// First line only: the message without the stack trace behind it,
		// so failure records are as deterministic as success records.
		ent.Err = firstLine(perr.Error())
	} else {
		ent.Result = result
	}
	rec, err := json.Marshal(ent)
	if err != nil {
		return fmt.Errorf("core: journal: %w: %w", ErrJournal, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(rec); err != nil {
		return fmt.Errorf("core: journal: %w: %w", ErrJournal, err)
	}
	j.done[key] = ent
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}

// pointIO tells runPointsJournaled how to identify and serialize one
// study's points: key must be stable across processes (it is the resume
// identity), save captures a finished point's result, load restores a
// previously journaled one into the grid.
type pointIO struct {
	key  func(i int) string
	save func(i int) (json.RawMessage, error)
	load func(i int, raw json.RawMessage) error
}

// runPointsJournaled is runPointsDetailed plus the crash-safety layer:
// with opts.Journal set, every finished point is durably recorded —
// retries included — and with opts.Resume the journal's successful points
// are restored instead of re-run. Points skipped by sweep cancellation
// are not journaled — they never ran — so a later resume picks them up.
// A journal write failure becomes the point's error (wrapping ErrJournal)
// rather than a silent skip; when the point itself also failed, the two
// errors are joined so neither is lost.
func runPointsJournaled(opts SweepOptions, n int, pio pointIO, fn func(ctx context.Context, i int) error) ([]error, error) {
	if opts.Journal == "" {
		return runPointsDetailed(opts, n, fn)
	}
	j, err := OpenJournalFS(opts.fs(), opts.Journal, opts.Resume)
	if err != nil {
		return make([]error, n), err
	}
	defer j.Close()
	skip := make([]bool, n)
	if opts.Resume {
		for i := 0; i < n; i++ {
			ent, ok := j.Completed(pio.key(i))
			if !ok || ent.Err != "" {
				continue // missing or failed: re-run
			}
			if err := pio.load(i, ent.Result); err != nil {
				return make([]error, n), fmt.Errorf("core: journal: restoring point %q: %w", pio.key(i), err)
			}
			skip[i] = true
		}
	}
	wrapped := func(ctx context.Context, i int) error {
		if skip[i] {
			return nil
		}
		return fn(ctx, i)
	}
	return runPointsHooked(opts, n, wrapped, func(i int, retries []RetryRecord, rerr error) error {
		if skip[i] || errors.Is(rerr, errSkipped) {
			return rerr
		}
		var raw json.RawMessage
		if rerr == nil && pio.save != nil {
			var serr error
			if raw, serr = pio.save(i); serr != nil {
				rerr = fmt.Errorf("core: journal: serializing point %q: %w", pio.key(i), serr)
			}
		}
		if jerr := j.Record(pio.key(i), raw, retries, rerr); jerr != nil {
			if rerr == nil {
				rerr = jerr
			} else {
				rerr = errors.Join(rerr, jerr)
			}
		}
		return rerr
	})
}
