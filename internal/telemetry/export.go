package telemetry

import (
	"errors"
	"io"
	"os"
)

// Exports owns a run's observability output files (Chrome trace JSON,
// time-series CSV). Files are created up front so a bad path fails before
// minutes of simulation, but content is rendered at Close — from whatever
// the Recorder/Sampler has collected by then. Callers defer Close: when
// the experiment errors mid-run the files still receive complete,
// parseable documents covering the partial run, instead of the truncated
// (previously: empty) artifacts a straight os.Create + write-on-success
// left behind.
//
// Close is idempotent; the first call does the work. It returns the first
// error, but always attempts every file — one broken disk path does not
// lose the other artifacts.
type Exports struct {
	items  []exportItem
	closed bool
}

type exportItem struct {
	path  string
	f     *os.File
	write func(io.Writer) error
}

// Add creates path now and schedules write to render into it at Close.
func (e *Exports) Add(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	e.items = append(e.items, exportItem{path: path, f: f, write: write})
	return nil
}

// Close renders and closes every registered file. Safe to call twice
// (e.g. once deferred for the error path and once explicitly).
func (e *Exports) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	var first error
	for _, it := range e.items {
		err := it.write(it.f)
		if cerr := it.f.Close(); err == nil {
			err = cerr
		}
		if err != nil && first == nil {
			first = err
		} else if err != nil {
			first = errors.Join(first, err)
		}
	}
	return first
}
