package obs

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"dynaplat/internal/sim"
)

// frameTrace builds an n-record trace shaped like a network-heavy run:
// frame spans (begin/end with detail args) on three tracks plus kernel
// instants, at sub-µs timestamps. The cap cuts it to exactly n records.
func frameTrace(n int) *Trace {
	k := sim.NewKernel(1)
	tr := NewTrace(k)
	tr.Cap = n
	tracks := []string{"net:backbone", "net:body", "net:chassis"}
	for i := 0; i < n; i++ {
		k.At(sim.Time(int64(i)*1750), func() {
			if i%5 == 4 {
				tr.Instant("soa", "discovery", "kernel", "")
				return
			}
			track := tracks[i%len(tracks)]
			sp := tr.Begin("net", "frame", track, fmt.Sprintf("id=0x%x ecu%d->* class=control bytes=8", i, i%7))
			tr.End("net", "frame", track, sp, "delivered ecu3")
		})
	}
	k.Run()
	return tr
}

func TestTraceLenAndRecordsCopy(t *testing.T) {
	var nilTrace *Trace
	if nilTrace.Len() != 0 {
		t.Error("nil trace Len != 0")
	}
	k := sim.NewKernel(1)
	tr := NewTrace(k)
	if tr.Len() != 0 || tr.Records() != nil {
		t.Error("empty trace has records")
	}
	total := 2*blockRecords + 7
	for i := 0; i < total; i++ {
		tr.Instant("c", fmt.Sprint(i), "t", "")
	}
	if tr.Len() != total {
		t.Fatalf("Len = %d, want %d", tr.Len(), total)
	}
	if len(tr.blocks) != 3 {
		t.Errorf("blocks = %d, want 3", len(tr.blocks))
	}
	recs := tr.Records()
	if len(recs) != total {
		t.Fatalf("Records() len = %d, want %d", len(recs), total)
	}
	for i, r := range recs {
		if r.Name != fmt.Sprint(i) {
			t.Fatalf("record %d name = %q", i, r.Name)
		}
	}
	recs[0].Name = "mutated"
	if tr.Records()[0].Name != "0" {
		t.Error("Records() aliases the trace's storage")
	}
}

// Cap, Dropped and span ordinals behave the same across block
// boundaries: a cap inside the third block retains exactly Cap records,
// and ordinals keep advancing for dropped spans.
func TestTraceCapAcrossBlocks(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTrace(k)
	tr.Cap = 2*blockRecords + 1
	var last Span
	for i := 0; i < 3*blockRecords; i++ {
		last = tr.Begin("c", "s", "t", "")
	}
	if tr.Len() != tr.Cap {
		t.Errorf("Len = %d, want Cap %d", tr.Len(), tr.Cap)
	}
	if want := int64(3*blockRecords - tr.Cap); tr.Dropped != want {
		t.Errorf("Dropped = %d, want %d", tr.Dropped, want)
	}
	if last.id != 3*blockRecords {
		t.Errorf("last span id = %d, want %d", last.id, 3*blockRecords)
	}
	recs := tr.Records()
	if got := recs[len(recs)-1].Span; got != uint64(tr.Cap) {
		t.Errorf("last retained span = %d, want %d", got, tr.Cap)
	}
}

// AppendChromeTrace into a big enough buffer allocates a fixed amount
// per document, independent of the record count. From a nil buffer the
// document is sized up front, so 10,000 records cost at most one more
// allocation than 100: a regrowth where lines run longer than the
// per-record estimate, as this fixture's long ids do.
func TestAppendChromeTraceAllocsIndependentOfRecords(t *testing.T) {
	allocs := func(n int) (reused, fresh float64) {
		scopes := []Scope{{Name: "a", Trace: frameTrace(n)}, {Name: "nil"}}
		buf := make([]byte, 0, 4*len(AppendChromeTrace(nil, scopes)))
		reused = testing.AllocsPerRun(20, func() {
			buf = AppendChromeTrace(buf[:0], scopes)
		})
		fresh = testing.AllocsPerRun(20, func() {
			buf = AppendChromeTrace(nil, scopes)
		})
		return reused, fresh
	}
	small, smallFresh := allocs(100)
	large, largeFresh := allocs(10_000)
	if small != large {
		t.Errorf("allocs/op: %g for 100 records, %g for 10000", small, large)
	}
	if largeFresh > smallFresh+1 {
		t.Errorf("allocs/op from nil: %g for 100 records, %g for 10000", smallFresh, largeFresh)
	}
}

func TestWriteChromeTraceMatchesAppend(t *testing.T) {
	scopes := goldenScopes()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, scopes); err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got := AppendChromeTrace(prefix, scopes)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], buf.Bytes()) {
		t.Error("AppendChromeTrace(dst) != dst + WriteChromeTrace output")
	}
	if got := AppendChromeTrace(nil, nil); string(got) != "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n" {
		t.Errorf("empty document = %q", got)
	}
}

// Cost of exporting one 4096-record trace.
//
//	go test -run '^$' -bench 'BenchmarkChromeTrace' -benchmem ./internal/obs/
func BenchmarkChromeTrace(b *testing.B) {
	scopes := []Scope{{Name: "bench", Trace: frameTrace(4096)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, scopes); err != nil {
			b.Fatal(err)
		}
	}
}
