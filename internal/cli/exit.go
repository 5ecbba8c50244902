// Package cli holds the conventions shared by the sst commands: the exit
// code contract, signal handling, the sweep commands' -cache* flag group
// and the -metrics-out/-trace-out file writer. Every command distinguishes a clean
// run, a generic failure, a configuration mistake, a sweep that completed
// with failed points, and an interrupted run, so scripts driving the
// tools (the resume workflow in particular) can branch on what happened.
// SIGINT and SIGTERM are handled identically everywhere: both drain
// in-flight work, flush journals, and land on the 130 contract —
// supervisors (systemd, Kubernetes, the serve-smoke harness) send
// SIGTERM, humans send SIGINT, and neither should lose journaled points.
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"sst/internal/core"
	"sst/internal/sim"
)

// Exit codes. Interruption follows the shell convention 128+SIGINT.
const (
	ExitOK          = 0
	ExitFailure     = 1
	ExitConfig      = 2
	ExitPointFailed = 3
	ExitInterrupted = 130
)

// ErrConfig marks configuration mistakes — bad flag values, malformed
// config files — as opposed to a simulation that ran and failed.
var ErrConfig = errors.New("configuration error")

// Configf builds an ErrConfig-wrapping error so Code maps it to
// ExitConfig. Additional %w verbs keep their chains.
func Configf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrConfig}, args...)...)
}

// Code maps a command's terminal error to its exit code. Interruption
// (SIGINT/SIGTERM surface as context cancellation or an interrupted
// engine) takes priority over failed sweep points, which in turn outrank
// generic failure; a timed-out design point is a point failure, not an
// interruption, because its error carries context.DeadlineExceeded rather
// than cancellation. A broken journal (core.ErrJournal) is a generic
// failure — exit 1 — even though it surfaces through a point error: the
// crash-safety layer failing must not look like an unlucky design point.
func Code(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, ErrConfig):
		return ExitConfig
	case errors.Is(err, context.Canceled), errors.Is(err, sim.ErrInterrupted):
		return ExitInterrupted
	case errors.Is(err, core.ErrJournal):
		return ExitFailure
	case errors.Is(err, core.ErrPointFailed):
		return ExitPointFailed
	default:
		return ExitFailure
	}
}

// Exit prints err (when non-nil) prefixed with the command name and exits
// with the matching code.
func Exit(cmd string, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, cmd+":", err)
	}
	os.Exit(Code(err))
}

// OnInterrupt runs stop on the first SIGINT or SIGTERM, so Ctrl-C and a
// supervisor's termination signal both land a simulation at its next poll
// point (engine interrupt, sweep-context cancellation) instead of killing
// the process mid-run. The returned func detaches the handler; a second
// signal then terminates the process normally.
func OnInterrupt(stop func()) func() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			stop()
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sigc)
		close(done)
	}
}

// SignalContext returns a context cancelled by the first SIGINT or
// SIGTERM — the sweep commands pass it as SweepOptions.Context so either
// signal drains the sweep: running points finish and are journaled,
// everything not yet started is skipped, and the partial tables still
// render before the 130 exit. The stop func detaches the handler; a
// second signal then terminates the process normally.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}
