package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dynaplat/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/chrome.golden from the current encoder")

// goldenLongRecords is the record count of the golden's long scope:
// enough to span at least three trace storage blocks.
const goldenLongRecords = 800

// goldenScopes builds the fixture behind testdata/chrome.golden. It
// covers every phase (b/e/i/X plus the M metadata the encoder adds),
// every escape class (quote, backslash, newline, tab, other control
// bytes, non-ASCII passed through), sub-µs timestamps (args.tsns),
// several scopes, a scope with a nil Trace, a capped trace with drops,
// and a long trace spanning several storage blocks.
func goldenScopes() []Scope {
	k := sim.NewKernel(1)
	mixed := NewTrace(k)
	k.At(sim.Time(1500), func() {
		sp := mixed.Begin("net", `frame "x"\path`, "can:body", "id=0x12\tsrc")
		k.After(2*sim.Microsecond+250, func() {
			mixed.End("net", `frame "x"\path`, "can:body", sp, "delivered\n")
		})
		mixed.Instant("mode", string([]byte{'m', 0x01, 0x1f, 0x7f}), "modes", "")
	})
	k.At(sim.Time(3*sim.Microsecond), func() {
		mixed.Instant("soa", "Geschwindigkeit→ä", "ecu:é", "détail \"q\" \\ \r")
		mixed.Complete("platform", "job", "ecu:ecu1", sim.Time(1500), sim.Duration(2500), "ok")
		mixed.Complete("platform", "job", "ecu:ecu1", sim.Time(4*sim.Microsecond), sim.Duration(999), "")
		mixed.Instant("kernel", "", "", "")
	})
	k.Run()

	k2 := sim.NewKernel(2)
	capped := NewTrace(k2)
	capped.Cap = 5
	k2.At(sim.Time(7*sim.Millisecond+3), func() {
		for i := 0; i < 9; i++ {
			sp := capped.Begin("net", "frame", "net:bb", fmt.Sprintf("i=%d", i))
			capped.End("net", "frame", "net:bb", sp, "")
		}
	})
	k2.Run()

	k3 := sim.NewKernel(3)
	long := NewTrace(k3)
	tracks := []string{"a", "b", "c"}
	for i := 0; i < goldenLongRecords; i++ {
		k3.At(sim.Time(int64(i)*1250), func() {
			long.Instant("k", "n", tracks[i%len(tracks)], "")
		})
	}
	k3.Run()

	return []Scope{
		{Name: `mixed/"scope"`, Trace: mixed},
		{Name: "nil", Trace: nil},
		{Name: "capped", Trace: capped},
		{Name: "long", Trace: long},
	}
}

// TestChromeTraceGolden pins the Chrome encoder byte for byte: observed
// experiment and fuzz artifacts are compared across runs and commits,
// so any output change is a format change. -update rewrites the golden
// from the current encoder; only regenerate it on purpose.
func TestChromeTraceGolden(t *testing.T) {
	scopes := goldenScopes()
	if n := len(scopes[3].Trace.blocks); n < 3 {
		t.Fatalf("long scope spans %d storage blocks, want >= 3", n)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, scopes); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := buf.Bytes()
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("Chrome trace differs from %s at byte %d (got %d bytes, want %d)\n got: %q\nwant: %q",
			path, i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
	}
}
