package core

// Fault injection for the journal's durability promise: a write or fsync
// failure is a first-class sweep failure (wrapping ErrJournal), never a
// silently skipped record — a sweep whose crash-safety layer is broken
// must fail loudly. Faults are scheduled on the same iofault.MemFS seam
// the crash-point harness uses.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"sst/internal/iofault"
	"sst/internal/leakcheck"
)

// faultyJournal returns sweep options whose journal lives on a MemFS
// that fails every operation in ops with err. A fresh journal's open is
// operations 1 (create) and 2 (parent-directory fsync); each record is
// then one write and one fsync, so operation 3 is the first record's
// write and operation 4 its fsync.
func faultyJournal(err error, ops ...int) SweepOptions {
	m := iofault.NewMemFS(1)
	for _, op := range ops {
		m.FailOp(op, err)
	}
	return SweepOptions{Workers: 1, Journal: "sweep.jsonl", FS: m}
}

func testPointIO() pointIO {
	return pointIO{
		key:  func(i int) string { return fmt.Sprintf("pt/%d", i) },
		save: func(i int) (json.RawMessage, error) { return json.RawMessage("1"), nil },
		load: func(int, json.RawMessage) error { return nil },
	}
}

func TestJournalWriteFailureFailsSweep(t *testing.T) {
	leakcheck.Check(t)
	opts := faultyJournal(iofault.ErrNoSpace, 3, 4) // both records' writes
	errs, err := runPointsJournaled(opts, 2, testPointIO(), func(context.Context, int) error {
		return nil // the simulation is fine; only the journal is broken
	})
	if err == nil {
		t.Fatal("sweep with failing journal writes reported success")
	}
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("sweep error does not wrap ErrJournal: %v", err)
	}
	for i, e := range errs {
		if !errors.Is(e, ErrJournal) || !errors.Is(e, iofault.ErrNoSpace) {
			t.Errorf("point %d error does not wrap ErrJournal and the injected ENOSPC: %v", i, e)
		}
	}
}

func TestJournalFsyncFailureFailsSweep(t *testing.T) {
	leakcheck.Check(t)
	opts := faultyJournal(iofault.ErrSyncFailed, 4) // the record's fsync
	_, err := runPointsJournaled(opts, 1, testPointIO(), func(context.Context, int) error {
		return nil
	})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("fsync failure does not wrap ErrJournal: %v", err)
	}
	if !errors.Is(err, iofault.ErrSyncFailed) {
		t.Fatalf("sweep error lost the injected fsync failure: %v", err)
	}
}

// TestJournalFailureJoinsPointFailure: when the point failed AND its
// failure record could not be written, neither error may be lost.
func TestJournalFailureJoinsPointFailure(t *testing.T) {
	leakcheck.Check(t)
	opts := faultyJournal(iofault.ErrNoSpace, 3)
	boom := errors.New("model diverged")
	errs, err := runPointsJournaled(opts, 1, testPointIO(), func(context.Context, int) error {
		return boom
	})
	if err == nil {
		t.Fatal("sweep reported success")
	}
	if !errors.Is(errs[0], boom) || !errors.Is(errs[0], ErrJournal) {
		t.Fatalf("point error must join the point failure and the journal failure, got: %v", errs[0])
	}
}

func TestOpenJournalUnwritablePath(t *testing.T) {
	// The journal's directory does not exist, so creating the file fails.
	_, err := OpenJournalFS(iofault.NewMemFS(1), "missing/j.jsonl", false)
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("unwritable journal path error does not wrap ErrJournal: %v", err)
	}
}

// TestJournalFailureDistinctFromPointFailure pins the exit-code contract
// at the core layer: a pure journal failure wraps ErrJournal but NOT the
// point-failure sentinel path callers map to exit 3 via errs — the cli
// layer then maps ErrJournal to exit 1 ahead of ErrPointFailed.
func TestJournalFailureDistinctFromPointFailure(t *testing.T) {
	opts := faultyJournal(iofault.ErrNoSpace, 3)
	_, err := runPointsJournaled(opts, 1, testPointIO(), func(context.Context, int) error {
		return nil
	})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("want ErrJournal, got %v", err)
	}
	if errors.Is(err, ErrPanicked) || errors.Is(err, ErrQuarantined) {
		t.Fatalf("journal failure misclassified as a point pathology: %v", err)
	}
}
