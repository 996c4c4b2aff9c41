package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuBuckets are the layers the traced run's CPU profile is folded into:
// one per dynaplat module, four for the Go runtime, and other (the
// standard library outside the runtime, the dynaplat facade, the
// benchmark itself and the modules with no bucket of their own).
var cpuBuckets = []string{
	"sim", "can", "tsn", "flexray", "gateway", "soa", "platform", "model",
	"dse", "sched", "fleet", "fuzz", "faults", "obs", "reconfig", "safety",
	"workload", "runtime.malloc", "runtime.gc", "runtime.map",
	"runtime.other", "other",
}

// runtimeBuckets classify runtime functions by name prefix, first match
// wins; any other runtime function, and any assembly body the profile
// names without a package (memeqbody, cmpbody, ...), is runtime.other.
var runtimeBuckets = []struct{ prefix, bucket string }{
	{"runtime.mallocgc", "runtime.malloc"},
	{"runtime.newobject", "runtime.malloc"},
	{"runtime.newarray", "runtime.malloc"},
	{"runtime.makeslice", "runtime.malloc"},
	{"runtime.growslice", "runtime.malloc"},
	{"runtime.rawstring", "runtime.malloc"},
	{"runtime.rawbyteslice", "runtime.malloc"},
	{"runtime.nextFreeFast", "runtime.malloc"},
	{"runtime.heapSetType", "runtime.malloc"},
	{"runtime.memclrNoHeapPointers", "runtime.malloc"},
	{"runtime.(*mcache)", "runtime.malloc"},
	{"runtime.(*mcentral)", "runtime.malloc"},
	{"runtime.(*mheap)", "runtime.malloc"},
	{"runtime.(*mspan)", "runtime.malloc"},
	{"runtime.(*pageAlloc)", "runtime.malloc"},
	{"runtime.gc", "runtime.gc"},
	{"runtime.scan", "runtime.gc"},
	{"runtime.markroot", "runtime.gc"},
	{"runtime.greyobject", "runtime.gc"},
	{"runtime.findObject", "runtime.gc"},
	{"runtime.spanOf", "runtime.gc"},
	{"runtime.typePointers", "runtime.gc"},
	{"runtime.(*gcWork)", "runtime.gc"},
	{"runtime.(*gcBits)", "runtime.gc"},
	{"runtime.(*sweepLocked)", "runtime.gc"},
	{"runtime.sweepone", "runtime.gc"},
	{"runtime.bgsweep", "runtime.gc"},
	{"runtime.wbBuf", "runtime.gc"},
	{"runtime.bulkBarrier", "runtime.gc"},
	{"runtime.map", "runtime.map"},
	{"runtime.makemap", "runtime.map"},
	{"internal/runtime/maps.", "runtime.map"},
	{"runtime.memhash", "runtime.map"},
	{"runtime.strhash", "runtime.map"},
	{"runtime.aeshash", "runtime.map"},
	{"aeshashbody", "runtime.map"},
	{"runtime.", "runtime.other"},
	{"internal/runtime/", "runtime.other"},
	{"runtime/internal/", "runtime.other"},
}

// bucketOf maps a profile function name to its cpu bucket.
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "dynaplat/internal/"); ok {
		mod := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			mod = rest[:i]
		}
		for _, b := range cpuBuckets {
			if b == mod {
				return b
			}
		}
		return "other"
	}
	for _, r := range runtimeBuckets {
		if strings.HasPrefix(fn, r.prefix) {
			return r.bucket
		}
	}
	if !strings.ContainsAny(fn, "./") {
		return "runtime.other"
	}
	return "other"
}

// foldProfile folds a CPU profile's flat (self) samples into cpuBuckets
// with `go tool pprof -top` and returns each bucket's share of all
// samples. Every bucket is present; the shares sum to 1.
func foldProfile(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-flat", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat, err := parseTop(stdout.String())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	total := 0.0
	for fn, ms := range flat {
		out[bucketOf(fn)] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile %s holds no samples", profile)
	}
	for b := range out {
		out[b] /= total
	}
	return out, nil
}

// parseTop reads the flat column of `pprof -top -unit=ms` rows:
//
//	flat  flat%   sum%        cum   cum%
//	120ms 12.00% 12.00%      300ms 30.00%  dynaplat/internal/sim.(*Kernel).Run
func parseTop(text string) (map[string]float64, error) {
	flat := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) == 5 && fields[0] == "flat" && fields[4] == "cum%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		flat[strings.Join(fields[5:], " ")] += ms
	}
	if !header {
		return nil, fmt.Errorf("pprof output has no -top table")
	}
	return flat, nil
}
