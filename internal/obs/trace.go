package obs

import (
	"fmt"

	"dynaplat/internal/sim"
)

// Phase is the Chrome trace_event phase of a recorded event.
type Phase byte

const (
	PhaseBegin    Phase = 'b' // async span begin
	PhaseEnd      Phase = 'e' // async span end
	PhaseInstant  Phase = 'i' // instant event
	PhaseComplete Phase = 'X' // complete event (begin + duration)
)

// Span identifies an in-flight async span. The zero Span is invalid;
// valid IDs start at 1 and are ordinals assigned in kernel dispatch
// order, which makes them deterministic per seed.
type Span struct {
	id uint64
}

// Valid reports whether the span was actually started (tracing enabled).
func (s Span) Valid() bool { return s.id != 0 }

// Record is one trace event in virtual time.
type Record struct {
	TS    sim.Time // virtual timestamp
	Dur   sim.Duration
	Phase Phase
	Cat   string // category: "kernel", "net", "soa", "faults", "mode", ...
	Name  string // event / span name
	Track string // logical track (-> Chrome tid), e.g. "can:body", "ecu1"
	Span  uint64 // async span id (0 for instants)
	Args  string // preformatted detail, "" when none
}

// blockRecords is the number of records per trace storage block
// (24 KiB of 96-byte records, below the runtime's large-object size).
const blockRecords = 256

// Trace records spans and instants in virtual time. All state is owned
// by the simulation goroutine (the kernel is single-threaded), so Trace
// does no locking. A nil *Trace is safe: every method is a no-op, which
// is how the hooks stay free when observability is disabled.
//
// Records are stored in fixed-size blocks of blockRecords, so a growing
// trace allocates one block at a time and never copies the records it
// already holds.
type Trace struct {
	k      *sim.Kernel
	blocks [][]Record // every block but the last is full
	n      int        // retained records across all blocks
	next   uint64     // next span ordinal (first handed out is 1)

	// Cap bounds the number of retained records; 0 means unlimited.
	// When full, further records are counted in Dropped but not stored.
	Cap     int
	Dropped int64
}

// NewTrace returns a tracer stamping records with k's virtual clock.
func NewTrace(k *sim.Kernel) *Trace {
	return &Trace{k: k}
}

// Len returns the number of retained records (0 on a nil Trace).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Records returns a flattened copy of the retained records in recording
// order, or nil when there are none. It allocates; use Len for a count.
func (t *Trace) Records() []Record {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Record, 0, t.n)
	for _, b := range t.blocks {
		out = append(out, b...)
	}
	return out
}

func (t *Trace) push(r Record) {
	if t.Cap > 0 && t.n >= t.Cap {
		t.Dropped++
		return
	}
	if t.n%blockRecords == 0 {
		t.blocks = append(t.blocks, make([]Record, 0, blockRecords))
	}
	last := &t.blocks[len(t.blocks)-1]
	*last = append(*last, r)
	t.n++
}

// Begin opens an async span on the given track and returns its handle.
func (t *Trace) Begin(cat, name, track, args string) Span {
	if t == nil {
		return Span{}
	}
	t.next++
	id := t.next
	t.push(Record{TS: t.k.Now(), Phase: PhaseBegin, Cat: cat, Name: name, Track: track, Span: id, Args: args})
	return Span{id: id}
}

// End closes an async span. Name and track must match Begin's for the
// Chrome viewer to pair them; args may add outcome detail (e.g. "lost").
func (t *Trace) End(cat, name, track string, s Span, args string) {
	if t == nil || s.id == 0 {
		return
	}
	t.push(Record{TS: t.k.Now(), Phase: PhaseEnd, Cat: cat, Name: name, Track: track, Span: s.id, Args: args})
}

// Instant records a point event on a track.
func (t *Trace) Instant(cat, name, track, args string) {
	if t == nil {
		return
	}
	t.push(Record{TS: t.k.Now(), Phase: PhaseInstant, Cat: cat, Name: name, Track: track, Args: args})
}

// Instantf is Instant with formatted args. The fmt.Sprintf only runs
// when tracing is enabled.
func (t *Trace) Instantf(cat, name, track, format string, a ...any) {
	if t == nil {
		return
	}
	t.Instant(cat, name, track, fmt.Sprintf(format, a...))
}

// Complete records a closed interval [start, start+dur) in one event.
func (t *Trace) Complete(cat, name, track string, start sim.Time, dur sim.Duration, args string) {
	if t == nil {
		return
	}
	t.push(Record{TS: start, Dur: dur, Phase: PhaseComplete, Cat: cat, Name: name, Track: track, Args: args})
}
