package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ghostbusters/internal/hspan"
)

// memSink keeps a traced run's span records in memory until the run
// ends; writeSpans then renders them as one span/v1 stream.
type memSink struct {
	mu   sync.Mutex
	recs []hspan.Record
}

func (s *memSink) WriteSpan(r hspan.Record) error {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
	return nil
}

func (s *memSink) Close() error { return nil }

// unit is the span tree of one matrix cell or served job: a root span
// tagged with the unit's ID and, through a fork of the run's tracer, a
// copy of every record under it for the layer split. A unit is used by
// one goroutine.
type unit struct {
	root hspan.Span
	recs []hspan.Record
}

func newUnit(tr *hspan.Tracer, name, id string) *unit {
	u := &unit{}
	u.root = tr.Fork(func(r hspan.Record) { u.recs = append(u.recs, r) }).Start(name, hspan.Str("unit", id))
	return u
}

// end ends s, one of the unit's spans, and returns its record.
func (u *unit) end(s hspan.Span, attrs ...hspan.Attr) hspan.Record {
	s.End(attrs...)
	return u.recs[len(u.recs)-1]
}

// sum returns the total duration of the unit's spans named name.
func (u *unit) sum(name string) int64 {
	var ns int64
	for _, r := range u.recs {
		if r.Name == name {
			ns += r.End - r.Start
		}
	}
	return ns
}

// covered returns the total duration of the root span's direct children.
func (u *unit) covered() int64 {
	var ns int64
	for _, r := range u.recs {
		if r.Parent == u.root.ID() {
			ns += r.End - r.Start
		}
	}
	return ns
}

func nsOf(r hspan.Record) int64 { return r.End - r.Start }

// writeSpans writes a traced run's spans as a span/v1 JSONL stream
// under o.out.
func writeSpans(o *options, tr *hspan.Tracer, sink *memSink) error {
	dir := filepath.Join(o.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	js := hspan.NewJSONLSink(f)
	js.SetBase(tr.Base())
	sink.mu.Lock()
	recs := sink.recs
	sink.mu.Unlock()
	for _, r := range recs {
		if err = js.WriteSpan(r); err != nil {
			break
		}
	}
	if err == nil {
		err = js.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(recs), path)
	return nil
}
