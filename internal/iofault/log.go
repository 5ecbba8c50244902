package iofault

// The append-only record log: one JSON record per line, each fsync'd on
// its own, with a torn final line tolerated on reopen. The sweep journal
// and the result cache's warm-start tier both persist through it, so the
// crash-tolerant append path — scan, truncate the torn tail, reopen for
// append, fsync the parent directory — exists exactly once.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// Log is an open JSONL record file. It is not safe for concurrent use:
// callers serialize Append under their own lock.
type Log struct {
	f File
}

// OpenLog opens the record log at path on fsys for appending. With
// replay nil the file is started fresh (created, or truncated if it
// exists). Otherwise every complete record already in the file is handed
// to replay in order until replay rejects one; that record and everything
// after it — a line without its newline is the signature of a crash
// mid-append — is truncated away before the file is reopened for append.
// Blank lines are skipped. line is only valid during the call. Either
// way the parent directory is fsync'd once, so the file's directory entry
// is as durable as the records appended to it.
func OpenLog(fsys FS, path string, replay func(line []byte) bool) (*Log, error) {
	open := fsys.Create
	if replay != nil {
		if err := replayLog(fsys, path, replay); err != nil {
			return nil, err
		}
		open = fsys.OpenAppend
	}
	f, err := open(path)
	if err != nil {
		return nil, err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("parent dir fsync: %w", err)
	}
	return &Log{f: f}, nil
}

// replayLog feeds path's complete records to replay and cuts the file
// back to just past the last record replay accepted. A missing file is
// an empty log.
func replayLog(fsys FS, path string, replay func(line []byte) bool) error {
	raw, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	valid := 0
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // no terminator: torn final line
		}
		line := raw[off : off+nl]
		if len(bytes.TrimSpace(line)) != 0 && !replay(line) {
			break // torn or corrupt: drop it and everything after
		}
		off += nl + 1
		valid = off
	}
	if valid < len(raw) {
		if err := fsys.Truncate(path, int64(valid)); err != nil {
			return fmt.Errorf("truncating torn tail: %w", err)
		}
	}
	return nil
}

// Append writes rec — one encoded record, without its newline — as one
// line and makes it durable: exactly one Write and one Sync, so a crash
// loses at most the record being written and the next OpenLog drops what
// it left behind. The newline may be written into rec's spare capacity.
func (l *Log) Append(rec []byte) error {
	if _, err := l.f.Write(append(rec, '\n')); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("fsync: %w", err)
	}
	return nil
}

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }
