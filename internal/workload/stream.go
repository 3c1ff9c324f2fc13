package workload

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
)

// Stream produces the dynamic instructions a core executes. The built-in
// synthetic Trace implements it; RecordedTrace replays externally
// captured traces, so real workload recordings (from a binary
// instrumentation tool, for instance) can drive the simulator instead of
// the synthetic profiles.
//
// cpusim's Run may call the Next of a Trace or a non-empty RecordedTrace
// from a helper goroutine, ahead of the simulation but never
// concurrently; it calls any other Stream on its own goroutine, in
// simulation order. Run is done with a stream when it returns.
type Stream interface {
	// Next returns the next dynamic instruction. Streams are infinite:
	// finite recordings loop.
	Next() Instr
}

var _ Stream = (*Trace)(nil)

// RecordedTrace replays a fixed instruction sequence, looping at the end.
type RecordedTrace struct {
	instrs []Instr
	pos    int
}

// NewRecordedTrace wraps an instruction slice.
func NewRecordedTrace(instrs []Instr) (*RecordedTrace, error) {
	if len(instrs) == 0 {
		return nil, fmt.Errorf("workload: empty recorded trace")
	}
	cp := make([]Instr, len(instrs))
	copy(cp, instrs)
	return &RecordedTrace{instrs: cp}, nil
}

// Len returns the recording's length.
func (r *RecordedTrace) Len() int { return len(r.instrs) }

// Next replays the recording, looping.
func (r *RecordedTrace) Next() Instr {
	in := r.instrs[r.pos]
	r.pos++
	if r.pos == len(r.instrs) {
		r.pos = 0
	}
	return in
}

// ParseTrace reads the plain-text trace format:
//
//	# comment and blank lines are ignored
//	I              integer ALU op
//	F              floating-point op
//	B              branch
//	L <hex-addr>   load from address
//	S <hex-addr>   store to address
//
// Addresses accept an optional 0x prefix. The format is deliberately
// trivial so any tracing tool can emit it with a printf. Fields after a
// complete record are ignored; a line may be at most maxTraceLine bytes.
// Every rejection is a *TraceError.
//
// The input is read whole and its records counted before any is parsed,
// so the recording takes one allocation. Every record but the last ends
// in a newline, so each takes at least two input bytes: the 16-byte
// Instrs cost at most 8 bytes per input byte.
func ParseTrace(r io.Reader) (*RecordedTrace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, &TraceError{Err: fmt.Errorf("reading trace: %w", err)}
	}
	n := 0
	if err := traceRecords(data, func(int, []byte) error { n++; return nil }); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, &TraceError{Err: errors.New("empty recorded trace")}
	}
	instrs := make([]Instr, 0, n)
	err = traceRecords(data, func(lineNo int, line []byte) error {
		rec, rest := nextField(line)
		switch string(rec) {
		case "I":
			instrs = append(instrs, Instr{Kind: KindInt})
		case "F":
			instrs = append(instrs, Instr{Kind: KindFP})
		case "B":
			instrs = append(instrs, Instr{Kind: KindBranch})
		case "L", "S":
			field, _ := nextField(rest)
			if len(field) == 0 {
				return &TraceError{Line: lineNo, Err: fmt.Errorf("%s needs an address", rec)}
			}
			addr, err := strconv.ParseUint(string(bytes.TrimPrefix(field, []byte("0x"))), 16, 64)
			if err != nil {
				return &TraceError{Line: lineNo, Err: fmt.Errorf("bad address %q: %w", clip(field), errors.Unwrap(err))}
			}
			kind := KindLoad
			if rec[0] == 'S' {
				kind = KindStore
			}
			instrs = append(instrs, Instr{Kind: kind, Addr: addr})
		default:
			return &TraceError{Line: lineNo, Err: fmt.Errorf("unknown record %q", clip(rec))}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RecordedTrace{instrs: instrs}, nil
}

// maxTraceLine is the longest line ParseTrace accepts, in bytes.
const maxTraceLine = 64<<10 - 1

// TraceError is a ParseTrace rejection: the 1-based line it stopped at
// (0 when the trace as a whole is at fault) and why.
type TraceError struct {
	Line int
	Err  error
}

func (e *TraceError) Error() string {
	if e.Line == 0 {
		return "workload: " + e.Err.Error()
	}
	return fmt.Sprintf("workload: line %d: %v", e.Line, e.Err)
}

func (e *TraceError) Unwrap() error { return e.Err }

// traceRecords calls f with each record line of data — trimmed, neither
// blank nor a comment — and its 1-based number, stopping at f's first
// error or at a line longer than maxTraceLine.
func traceRecords(data []byte, f func(lineNo int, line []byte) error) error {
	for lineNo := 1; len(data) > 0; lineNo++ {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if len(line) > maxTraceLine {
			return &TraceError{Line: lineNo, Err: fmt.Errorf("line longer than %d bytes", maxTraceLine)}
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if err := f(lineNo, line); err != nil {
			return err
		}
	}
	return nil
}

// clip shortens a field quoted in an error message to its first 32
// bytes, so a rejection costs the same however long the field is.
func clip(b []byte) []byte {
	return b[:min(len(b), 32)]
}

// nextField splits off b's first whitespace-separated field, as
// strings.Fields would, without allocating.
func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// WriteTrace emits a stream's next n instructions in the ParseTrace
// format — useful for capturing a synthetic profile as a portable file.
func WriteTrace(w io.Writer, s Stream, n int) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < n; i++ {
		in := s.Next()
		var err error
		switch in.Kind {
		case KindInt:
			_, err = fmt.Fprintln(bw, "I")
		case KindFP:
			_, err = fmt.Fprintln(bw, "F")
		case KindBranch:
			_, err = fmt.Fprintln(bw, "B")
		case KindLoad:
			_, err = fmt.Fprintf(bw, "L %x\n", in.Addr)
		case KindStore:
			_, err = fmt.Fprintf(bw, "S %x\n", in.Addr)
		default:
			err = fmt.Errorf("workload: unknown kind %d", in.Kind)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
