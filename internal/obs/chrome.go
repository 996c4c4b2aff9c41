package obs

import (
	"io"
	"slices"
	"strconv"
)

// Chrome trace_event export (the JSON Array Format understood by
// chrome://tracing and Perfetto). The JSON is assembled by hand with an
// append encoder instead of encoding/json so the byte stream is fully
// under our control: field order, number formatting, and escaping are
// fixed, which is what makes trace output byte-identical per seed.
//
// Mapping:
//
//	pid         scope ordinal (one per Scope, i.e. per kernel/experiment)
//	tid         track ordinal within its scope, in order of first use
//	ts          virtual time in integer microseconds; sub-µs remainder
//	            is preserved in args.tsns (virtual ns) when nonzero
//	ph          'b'/'e' async spans, 'i' instants, 'X' complete, 'M' metadata
//	id          span ordinal (assigned in kernel dispatch order)
//
// A process_name metadata event names each scope and a thread_name
// metadata event names each track.

// chromeRecordBytes is the presizing estimate per event line. Traces
// dominated by network spans average about 115 bytes a line, so the
// up-front growth usually covers the whole document.
const chromeRecordBytes = 128

// appendJSONString appends s as a JSON string literal (quotes included).
// Runs of bytes needing no escape are copied in one append.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"':
			dst = append(dst, `\"`...)
		case '\\':
			dst = append(dst, `\\`...)
		case '\n':
			dst = append(dst, `\n`...)
		case '\t':
			dst = append(dst, `\t`...)
		default:
			dst = append(dst, `\u00`...)
			dst = append(dst, hex[c>>4], hex[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Scope is one traced kernel's worth of records, exported as one Chrome
// "process". Name appears in the viewer's process selector.
type Scope struct {
	Name  string
	Trace *Trace
}

// WriteChromeTrace writes the scopes as one Chrome trace_event JSON
// document; the bytes are exactly AppendChromeTrace(nil, scopes).
func WriteChromeTrace(w io.Writer, scopes []Scope) error {
	_, err := w.Write(AppendChromeTrace(nil, scopes))
	return err
}

// AppendChromeTrace appends the scopes as one Chrome trace_event JSON
// document to dst and returns the extended slice. Output is
// deterministic: scopes keep their given order (pid = index+1), tracks
// are numbered in order of first appearance, and records are emitted in
// recording order (kernel dispatch order). dst is grown once up front
// from the record count; records are read in place from their blocks.
func AppendChromeTrace(dst []byte, scopes []Scope) []byte {
	n := len(scopes)
	for _, sc := range scopes {
		n += sc.Trace.Len()
	}
	dst = slices.Grow(dst, 64+n*chromeRecordBytes)
	dst = append(dst, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"...)
	// Every event line ends in ",\n"; the last separator is cut below.
	body := len(dst)
	tids := map[string]int{}
	for si, sc := range scopes {
		pid := si + 1
		dst = appendMeta(dst, pid, 0, "process_name", sc.Name)
		if sc.Trace == nil {
			continue
		}
		clear(tids)
		for _, b := range sc.Trace.blocks {
			for i := range b {
				r := &b[i]
				tid, ok := tids[r.Track]
				if !ok {
					tid = len(tids) + 1
					tids[r.Track] = tid
					dst = appendMeta(dst, pid, tid, "thread_name", r.Track)
				}
				dst = appendRecord(dst, pid, tid, r)
			}
		}
	}
	if len(dst) > body {
		dst = dst[:len(dst)-2]
	}
	return append(dst, "\n]}\n"...)
}

// appendMeta appends one 'M' metadata event line.
func appendMeta(dst []byte, pid, tid int, name, value string) []byte {
	dst = append(dst, `{"ph":"M","pid":`...)
	dst = strconv.AppendInt(dst, int64(pid), 10)
	dst = append(dst, `,"tid":`...)
	dst = strconv.AppendInt(dst, int64(tid), 10)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, name)
	dst = append(dst, `,"args":{"name":`...)
	dst = appendJSONString(dst, value)
	return append(dst, "}},\n"...)
}

// appendRecord appends one recorded event line.
func appendRecord(dst []byte, pid, tid int, r *Record) []byte {
	dst = append(dst, `{"ph":"`...)
	dst = append(dst, byte(r.Phase))
	dst = append(dst, `","pid":`...)
	dst = strconv.AppendInt(dst, int64(pid), 10)
	dst = append(dst, `,"tid":`...)
	dst = strconv.AppendInt(dst, int64(tid), 10)
	dst = append(dst, `,"ts":`...)
	ns := int64(r.TS) % 1000
	dst = strconv.AppendInt(dst, int64(r.TS)/1000, 10)
	dst = append(dst, `,"cat":`...)
	dst = appendJSONString(dst, r.Cat)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, r.Name)
	switch r.Phase {
	case PhaseComplete:
		dst = append(dst, `,"dur":`...)
		dst = strconv.AppendInt(dst, int64(r.Dur)/1000, 10)
	case PhaseBegin, PhaseEnd:
		dst = append(dst, `,"id":`...)
		dst = strconv.AppendUint(dst, r.Span, 10)
	case PhaseInstant:
		dst = append(dst, `,"s":"t"`...)
	}
	if r.Args != "" || ns != 0 {
		dst = append(dst, `,"args":{`...)
		if r.Args != "" {
			dst = append(dst, `"detail":`...)
			dst = appendJSONString(dst, r.Args)
			if ns != 0 {
				dst = append(dst, ',')
			}
		}
		if ns != 0 {
			dst = append(dst, `"tsns":`...)
			dst = strconv.AppendInt(dst, int64(r.TS), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "},\n"...)
}
