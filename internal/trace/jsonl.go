package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSONL codec is written by hand for the four line shapes a recording
// holds — the meta header, decisions, events and samples. A full-level
// recording runs to tens of megabytes, and reflection-driven encoding/json
// spent more time serializing and parsing it than the simulator spent
// producing it.
//
// The writer reproduces encoding/json's Encoder output byte for byte:
// struct field order, omitempty, its float formatting, and its HTML-safe
// string escaping. The reader accepts a strict subset of what
// encoding/json with DisallowUnknownFields accepts, and decodes it to the
// same values: every key must be spelled exactly (no case folding) and
// appear at most once, every field without omitempty must be present,
// a record carries exactly the one payload its tag names, and nothing may
// follow the object on its line. FuzzReadJSONL holds both halves to
// encoding/json.

// maxLineBytes caps one recording line; a longer one is rejected rather
// than buffered.
const maxLineBytes = 16 << 20

// WriteJSONL serializes the trace as JSON Lines: a meta header line
// followed by one line per record, in record order. The bytes are a
// deterministic function of the Trace and identical to what encoding/json
// would encode for the same values. Lines are built in one reused buffer
// and handed to w in chunks of about 64 KiB, large enough that a
// bufio.Writer passes them straight through. A non-finite float fails
// the write at its line, after every earlier line is written, as
// encoding/json does.
func (tr *Trace) WriteJSONL(w io.Writer) error {
	e := &encoder{b: make([]byte, 0, writeChunk+4096)}
	e.meta(&tr.Meta)
	if err := e.endLine(w); err != nil {
		return err
	}
	for i := range tr.Records {
		e.record(&tr.Records[i])
		if err := e.endLine(w); err != nil {
			return err
		}
	}
	_, err := w.Write(e.b)
	return err
}

// writeChunk is how many bytes of finished lines the writer gathers
// before handing them to the io.Writer.
const writeChunk = 64 << 10

// encoder appends JSONL lines to b; line is where the line being built
// starts, and err holds a non-finite float met while building it.
type encoder struct {
	b    []byte
	line int
	err  error
	// cache holds recently formatted floats. A recording repeats the
	// same instants many times over — a decision's time, its idle
	// alternatives' keys, the service and sprint events it triggers — and
	// shortest-form float formatting is most of the writer's work.
	cache [1024]fmtFloat
}

// fmtFloat is one float cache slot: the value's bits and its encoding.
type fmtFloat struct {
	bits uint64
	n    uint8
	b    [24]byte
}

// endLine finishes the line just built: it writes out the finished lines
// once a chunk has gathered, or, if the line hit a non-finite float,
// drops it, writes the lines before it, and returns the error.
func (e *encoder) endLine(w io.Writer) error {
	if e.err != nil {
		if _, err := w.Write(e.b[:e.line]); err != nil {
			return err
		}
		return e.err
	}
	e.line = len(e.b)
	if e.line < writeChunk {
		return nil
	}
	_, err := w.Write(e.b)
	e.b, e.line = e.b[:0], 0
	return err
}

func (e *encoder) int(v int) {
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

func (e *encoder) meta(m *Meta) {
	e.b = append(e.b, `{"t":"meta","meta":{"policy":`...)
	e.str(m.Policy)
	e.b = append(e.b, `,"coordination":`...)
	e.str(m.Coordination)
	e.b = append(e.b, `,"nodes":`...)
	e.int(m.Nodes)
	e.b = append(e.b, `,"racks":`...)
	e.int(m.Racks)
	e.b = append(e.b, `,"requests":`...)
	e.int(m.Requests)
	e.b = append(e.b, `,"seed":`...)
	e.b = strconv.AppendInt(e.b, m.Seed, 10)
	e.b = append(e.b, `,"level":`...)
	e.str(m.Level)
	e.b = append(e.b, `,"window_s":`...)
	e.float(m.WindowS)
	e.b = append(e.b, `,"topk":`...)
	e.int(m.TopK)
	e.b = append(e.b, "}}\n"...)
}

func (e *encoder) record(r *Record) {
	e.b = append(e.b, `{"t":`...)
	e.str(r.T)
	e.b = append(e.b, `,"at_s":`...)
	e.float(r.AtS)
	e.b = append(e.b, `,"seq":`...)
	e.b = strconv.AppendUint(e.b, r.Seq, 10)
	if d := r.Decision; d != nil {
		e.b = append(e.b, `,"decision":{"kind":`...)
		e.str(d.Kind)
		e.b = append(e.b, `,"req":`...)
		e.int(d.Req)
		e.b = append(e.b, `,"phase":`...)
		e.int(d.Phase)
		e.b = append(e.b, `,"node":`...)
		e.int(d.Node)
		e.b = append(e.b, `,"outcome":`...)
		e.str(d.Outcome)
		e.b = append(e.b, `,"key":`...)
		e.float(d.Key)
		e.b = append(e.b, `,"key_kind":`...)
		e.str(d.KeyKind)
		e.b = append(e.b, `,"work_s":`...)
		e.float(d.WorkS)
		if len(d.Alts) > 0 {
			e.b = append(e.b, `,"alts":[`...)
			for i := range d.Alts {
				a := &d.Alts[i]
				if i > 0 {
					e.b = append(e.b, ',')
				}
				e.b = append(e.b, `{"node":`...)
				e.int(a.Node)
				e.b = append(e.b, `,"key":`...)
				e.float(a.Key)
				e.b = append(e.b, `,"hypo_done_s":`...)
				e.float(a.HypoDoneS)
				e.b = append(e.b, '}')
			}
			e.b = append(e.b, ']')
		}
		e.b = append(e.b, `,"done_s":`...)
		e.float(d.DoneS)
		e.b = append(e.b, `,"best_alt":`...)
		e.int(d.BestAlt)
		e.b = append(e.b, `,"best_alt_done_s":`...)
		e.float(d.BestAltDoneS)
		e.b = append(e.b, `,"regret_s":`...)
		e.float(d.RegretS)
		e.b = append(e.b, '}')
	}
	if ev := r.Event; ev != nil {
		e.b = append(e.b, `,"event":{"kind":`...)
		e.str(ev.Kind)
		e.b = append(e.b, `,"node":`...)
		e.int(ev.Node)
		e.b = append(e.b, `,"rack":`...)
		e.int(ev.Rack)
		e.b = append(e.b, `,"req":`...)
		e.int(ev.Req)
		e.b = append(e.b, `,"phase":`...)
		e.int(ev.Phase)
		if ev.Name != "" {
			e.b = append(e.b, `,"name":`...)
			e.str(ev.Name)
		}
		e.b = append(e.b, `,"dur_s":`...)
		e.float(ev.DurS)
		e.b = append(e.b, '}')
	}
	if s := r.Sample; s != nil {
		e.b = append(e.b, `,"sample":{"start_s":`...)
		e.float(s.StartS)
		e.b = append(e.b, `,"end_s":`...)
		e.float(s.EndS)
		e.b = append(e.b, `,"phase":`...)
		e.int(s.Phase)
		e.b = append(e.b, `,"completed":`...)
		e.int(s.Completed)
		e.b = append(e.b, `,"throughput_rps":`...)
		e.float(s.ThroughputRPS)
		e.b = append(e.b, `,"p50_s":`...)
		e.float(s.P50S)
		e.b = append(e.b, `,"p99_s":`...)
		e.float(s.P99S)
		e.b = append(e.b, `,"in_flight":`...)
		e.int(s.InFlight)
		e.b = append(e.b, `,"sprints":`...)
		e.int(s.Sprints)
		if len(s.RackDrawW) > 0 {
			e.b = append(e.b, `,"rack_draw_w":`...)
			e.floats(s.RackDrawW)
		}
		if len(s.RackBufferJ) > 0 {
			e.b = append(e.b, `,"rack_buffer_j":`...)
			e.floats(s.RackBufferJ)
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, "}\n"...)
}

func (e *encoder) floats(fs []float64) {
	e.b = append(e.b, '[')
	for i, f := range fs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(f)
	}
	e.b = append(e.b, ']')
}

// float appends f the way encoding/json formats a float64: the shortest
// representation that round-trips, in %f form except below 1e-6 or at or
// above 1e21 in magnitude, where it switches to an exponent with the
// exponent's leading zero dropped (e-07 becomes e-7).
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("trace: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	bits := math.Float64bits(f)
	c := &e.cache[(bits*0x9e3779b97f4a7c15)>>54]
	if c.n > 0 && c.bits == bits {
		e.b = append(e.b, c.b[:c.n]...)
		return
	}
	start := len(e.b)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
	if n := len(e.b) - start; n <= len(c.b) {
		c.bits, c.n = bits, uint8(n)
		copy(c.b[:], e.b[start:])
	}
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a JSON string carries unescaped under
// encoding/json's HTML-safe rules.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// str appends s as a JSON string with encoding/json's HTML-safe escaping:
// quote and backslash, the short escapes for \b \f \n \r \t, \u00XX for
// the other control bytes and for < > &, \ufffd for each invalid UTF-8
// byte, and \u2028 and \u2029 for the line and paragraph separators.
func (e *encoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// ReadJSONL parses a recording serialized by WriteJSONL: the meta header
// line followed by one record per line; blank lines are skipped. It reads
// the stream one line at a time in a single pass, never holding the whole
// recording as text, and a recording round-trips exactly:
// ReadJSONL(WriteJSONL(tr)) == tr. Decoding is strict (see the codec
// notes above); the first error names its line as "trace: line N: …".
func ReadJSONL(r io.Reader) (*Trace, error) {
	// A 64 KiB buffer of its own: wrapping a smaller bufio.Reader makes
	// that one pass its reads straight through at this size.
	br := bufio.NewReaderSize(r, 64<<10)
	p := parser{intern: map[string]string{}}
	tr := &Trace{}
	sawMeta := false
	var long []byte
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A line longer than the reader's buffer: gather it, up to the cap.
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull && len(long) <= maxLineBytes {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			if len(long) > maxLineBytes {
				return nil, fmt.Errorf("trace: line %d: longer than %d bytes", lineNo, maxLineBytes)
			}
			line = long
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("trace: %w", err)
		}
		p.b, p.i = line, 0
		p.ws()
		if p.i < len(p.b) {
			var perr error
			if !sawMeta {
				perr = p.metaLine(&tr.Meta)
				sawMeta = perr == nil
			} else {
				var rec Record
				if perr = p.recordLine(&rec); perr == nil {
					tr.Records = append(tr.Records, rec)
				}
			}
			if perr != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, perr)
			}
		}
		if err == io.EOF {
			break
		}
	}
	if !sawMeta {
		return nil, errors.New("trace: empty recording (no meta header)")
	}
	return tr, nil
}

// Slab hands out payloads from chunked backing arrays, so whoever builds
// a recording — the fleet recorder, ReadJSONL — allocates once per 1024
// payloads instead of once per record. The zero value is ready to use.
type Slab[T any] struct{ buf []T }

// Take returns k zeroed elements. Their capacity is capped at k, so an
// append to the result reallocates rather than running into its
// neighbours.
func (sl *Slab[T]) Take(k int) []T {
	if cap(sl.buf)-len(sl.buf) < k {
		sl.buf = make([]T, 0, max(1024, k))
	}
	lo := len(sl.buf)
	sl.buf = sl.buf[:lo+k]
	return sl.buf[lo : lo+k : lo+k]
}

// New returns one zeroed element.
func (sl *Slab[T]) New() *T { return &sl.Take(1)[0] }

// parser decodes one line at a time from b, starting at i. The slabs back
// the records' payloads and slices; intern shares one copy of each of the
// handful of distinct strings a recording repeats on every line.
type parser struct {
	b      []byte
	i      int
	intern map[string]string
	str    []byte

	decs    Slab[Decision]
	evs     Slab[Event]
	samples Slab[Sample]
	alts    Slab[Alt]
	floats  Slab[float64]
	altTmp  []Alt
	fltTmp  []float64
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("byte %d: "+format, append([]any{p.i + 1}, args...)...)
}

// end requires that nothing but whitespace follows the line's object.
func (p *parser) end() error {
	p.ws()
	if p.i < len(p.b) {
		return p.errorf("unexpected %q after the object", p.b[p.i])
	}
	return nil
}

// consume skips whitespace and requires byte c next.
func (p *parser) consume(c byte) error {
	p.ws()
	if p.i >= len(p.b) {
		return p.errorf("line ends where %q is expected", c)
	}
	if p.b[p.i] != c {
		return p.errorf("found %q where %q is expected", p.b[p.i], c)
	}
	p.i++
	return nil
}

// object parses a JSON object, calling field with each key once the
// parser sits at its value. field parses the value and returns the
// field's bit in the caller's mask of seen fields, or rejects an unknown
// key; a key seen twice is rejected here. It returns the mask.
func (p *parser) object(field func(key []byte) (uint32, error)) (uint32, error) {
	if err := p.consume('{'); err != nil {
		return 0, err
	}
	var seen uint32
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		p.i++
		return 0, nil
	}
	for {
		p.ws()
		key, err := p.key()
		if err != nil {
			return 0, err
		}
		if err := p.consume(':'); err != nil {
			return 0, err
		}
		p.ws()
		bit, err := field(key)
		if err != nil {
			return 0, err
		}
		if seen&bit != 0 {
			return 0, fmt.Errorf("duplicate field %q", key)
		}
		seen |= bit
		p.ws()
		if p.i >= len(p.b) {
			return 0, p.errorf("line ends inside an object")
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case '}':
			p.i++
			return seen, nil
		default:
			return 0, p.errorf("found %q where ',' or '}' is expected", p.b[p.i])
		}
	}
}

// key reads an object key. Keys are matched byte for byte against the
// field names, none of which holds an escape or a control byte, so a key
// spelled with either matches no field and is rejected as unknown.
func (p *parser) key() ([]byte, error) {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, p.errorf("expected a quoted field name")
	}
	n := bytes.IndexByte(p.b[p.i+1:], '"')
	if n < 0 {
		return nil, p.errorf("unterminated field name")
	}
	key := p.b[p.i+1 : p.i+1+n]
	p.i += n + 2
	return key, nil
}

// missing names the first field of names whose bit is in want but not in
// seen.
func missing(seen, want uint32, names []string) error {
	for i, n := range names {
		if bit := uint32(1) << i; want&bit != 0 && seen&bit == 0 {
			return fmt.Errorf("missing field %q", n)
		}
	}
	return nil
}

func unknown(key []byte) (uint32, error) {
	return 0, fmt.Errorf("unknown field %q", key)
}

var metaFields = []string{"policy", "coordination", "nodes", "racks", "requests", "seed", "level", "window_s", "topk"}

func (p *parser) metaLine(m *Meta) error {
	tag := ""
	seen, err := p.object(func(key []byte) (uint32, error) {
		switch string(key) {
		case "t":
			var err error
			tag, err = p.string()
			return 1 << 0, err
		case "meta":
			return 1 << 1, p.meta(m)
		}
		return unknown(key)
	})
	if err == nil {
		err = missing(seen, 3, []string{"t", "meta"})
	}
	if err == nil && tag != "meta" {
		err = fmt.Errorf("tag %q", tag)
	}
	if err == nil {
		err = p.end()
	}
	if err != nil {
		return fmt.Errorf(`first line must be the meta header {"t":"meta",...}: %w`, err)
	}
	return nil
}

func (p *parser) meta(m *Meta) error {
	seen, err := p.object(func(key []byte) (uint32, error) {
		var err error
		switch string(key) {
		case "policy":
			m.Policy, err = p.string()
			return 1 << 0, err
		case "coordination":
			m.Coordination, err = p.string()
			return 1 << 1, err
		case "nodes":
			m.Nodes, err = p.int()
			return 1 << 2, err
		case "racks":
			m.Racks, err = p.int()
			return 1 << 3, err
		case "requests":
			m.Requests, err = p.int()
			return 1 << 4, err
		case "seed":
			m.Seed, err = p.int64()
			return 1 << 5, err
		case "level":
			m.Level, err = p.string()
			return 1 << 6, err
		case "window_s":
			m.WindowS, err = p.float()
			return 1 << 7, err
		case "topk":
			m.TopK, err = p.int()
			return 1 << 8, err
		}
		return unknown(key)
	})
	if err != nil {
		return err
	}
	return missing(seen, 1<<len(metaFields)-1, metaFields)
}

// The payload bits of a record line's mask, after t, at_s and seq.
const (
	hasDecision uint32 = 1 << (3 + iota)
	hasEvent
	hasSample
)

var recordFields = []string{"t", "at_s", "seq"}

func (p *parser) recordLine(r *Record) error {
	seen, err := p.object(func(key []byte) (uint32, error) {
		var err error
		switch string(key) {
		case "t":
			r.T, err = p.string()
			return 1 << 0, err
		case "at_s":
			r.AtS, err = p.float()
			return 1 << 1, err
		case "seq":
			r.Seq, err = p.uint64()
			return 1 << 2, err
		case "decision":
			r.Decision = p.decs.New()
			return hasDecision, p.decision(r.Decision)
		case "event":
			r.Event = p.evs.New()
			return hasEvent, p.event(r.Event)
		case "sample":
			r.Sample = p.samples.New()
			return hasSample, p.sample(r.Sample)
		}
		return unknown(key)
	})
	if err != nil {
		return err
	}
	if err := missing(seen, 7, recordFields); err != nil {
		return err
	}
	var want uint32
	switch r.T {
	case "decision":
		want = hasDecision
	case "event":
		want = hasEvent
	case "sample":
		want = hasSample
	default:
		return fmt.Errorf("unknown record tag %q (want decision|event|sample)", r.T)
	}
	switch payload := seen &^ 7; {
	case payload == 0:
		return fmt.Errorf("%q record has no payload", r.T)
	case payload != want:
		return fmt.Errorf("%q record carries a payload of another kind", r.T)
	}
	return p.end()
}

var decisionFields = []string{"kind", "req", "phase", "node", "outcome", "key", "key_kind", "work_s", "alts", "done_s", "best_alt", "best_alt_done_s", "regret_s"}

func (p *parser) decision(d *Decision) error {
	seen, err := p.object(func(key []byte) (uint32, error) {
		var err error
		switch string(key) {
		case "kind":
			d.Kind, err = p.string()
			return 1 << 0, err
		case "req":
			d.Req, err = p.int()
			return 1 << 1, err
		case "phase":
			d.Phase, err = p.int()
			return 1 << 2, err
		case "node":
			d.Node, err = p.int()
			return 1 << 3, err
		case "outcome":
			d.Outcome, err = p.string()
			return 1 << 4, err
		case "key":
			d.Key, err = p.float()
			return 1 << 5, err
		case "key_kind":
			d.KeyKind, err = p.string()
			return 1 << 6, err
		case "work_s":
			d.WorkS, err = p.float()
			return 1 << 7, err
		case "alts":
			d.Alts, err = p.altList()
			return 1 << 8, err
		case "done_s":
			d.DoneS, err = p.float()
			return 1 << 9, err
		case "best_alt":
			d.BestAlt, err = p.int()
			return 1 << 10, err
		case "best_alt_done_s":
			d.BestAltDoneS, err = p.float()
			return 1 << 11, err
		case "regret_s":
			d.RegretS, err = p.float()
			return 1 << 12, err
		}
		return unknown(key)
	})
	if err != nil {
		return err
	}
	return missing(seen, (1<<len(decisionFields)-1)&^(1<<8), decisionFields)
}

var altFields = []string{"node", "key", "hypo_done_s"}

// altList parses a non-empty array of alternatives into the alt slab. An
// empty array is rejected: the writer omits it, so accepting one would
// read back differently than it re-encodes.
func (p *parser) altList() ([]Alt, error) {
	if err := p.consume('['); err != nil {
		return nil, err
	}
	p.altTmp = p.altTmp[:0]
	for {
		var a Alt
		seen, err := p.object(func(key []byte) (uint32, error) {
			var err error
			switch string(key) {
			case "node":
				a.Node, err = p.int()
				return 1 << 0, err
			case "key":
				a.Key, err = p.float()
				return 1 << 1, err
			case "hypo_done_s":
				a.HypoDoneS, err = p.float()
				return 1 << 2, err
			}
			return unknown(key)
		})
		if err == nil {
			err = missing(seen, 7, altFields)
		}
		if err != nil {
			return nil, err
		}
		p.altTmp = append(p.altTmp, a)
		if more, err := p.next(); err != nil {
			return nil, err
		} else if !more {
			break
		}
	}
	alts := p.alts.Take(len(p.altTmp))
	copy(alts, p.altTmp)
	return alts, nil
}

// floatList parses a non-empty array of floats into the float slab; see
// altList for why an empty one is rejected.
func (p *parser) floatList() ([]float64, error) {
	if err := p.consume('['); err != nil {
		return nil, err
	}
	p.fltTmp = p.fltTmp[:0]
	for {
		p.ws()
		f, err := p.float()
		if err != nil {
			return nil, err
		}
		p.fltTmp = append(p.fltTmp, f)
		if more, err := p.next(); err != nil {
			return nil, err
		} else if !more {
			break
		}
	}
	fs := p.floats.Take(len(p.fltTmp))
	copy(fs, p.fltTmp)
	return fs, nil
}

// next consumes the separator after an array element: true after a ',',
// false after the closing ']'.
func (p *parser) next() (bool, error) {
	p.ws()
	if p.i >= len(p.b) {
		return false, p.errorf("line ends inside an array")
	}
	switch p.b[p.i] {
	case ',':
		p.i++
		return true, nil
	case ']':
		p.i++
		return false, nil
	}
	return false, p.errorf("found %q where ',' or ']' is expected", p.b[p.i])
}

var eventFields = []string{"kind", "node", "rack", "req", "phase", "name", "dur_s"}

func (p *parser) event(ev *Event) error {
	seen, err := p.object(func(key []byte) (uint32, error) {
		var err error
		switch string(key) {
		case "kind":
			ev.Kind, err = p.string()
			return 1 << 0, err
		case "node":
			ev.Node, err = p.int()
			return 1 << 1, err
		case "rack":
			ev.Rack, err = p.int()
			return 1 << 2, err
		case "req":
			ev.Req, err = p.int()
			return 1 << 3, err
		case "phase":
			ev.Phase, err = p.int()
			return 1 << 4, err
		case "name":
			ev.Name, err = p.string()
			return 1 << 5, err
		case "dur_s":
			ev.DurS, err = p.float()
			return 1 << 6, err
		}
		return unknown(key)
	})
	if err != nil {
		return err
	}
	return missing(seen, (1<<len(eventFields)-1)&^(1<<5), eventFields)
}

var sampleFields = []string{"start_s", "end_s", "phase", "completed", "throughput_rps", "p50_s", "p99_s", "in_flight", "sprints", "rack_draw_w", "rack_buffer_j"}

func (p *parser) sample(s *Sample) error {
	seen, err := p.object(func(key []byte) (uint32, error) {
		var err error
		switch string(key) {
		case "start_s":
			s.StartS, err = p.float()
			return 1 << 0, err
		case "end_s":
			s.EndS, err = p.float()
			return 1 << 1, err
		case "phase":
			s.Phase, err = p.int()
			return 1 << 2, err
		case "completed":
			s.Completed, err = p.int()
			return 1 << 3, err
		case "throughput_rps":
			s.ThroughputRPS, err = p.float()
			return 1 << 4, err
		case "p50_s":
			s.P50S, err = p.float()
			return 1 << 5, err
		case "p99_s":
			s.P99S, err = p.float()
			return 1 << 6, err
		case "in_flight":
			s.InFlight, err = p.int()
			return 1 << 7, err
		case "sprints":
			s.Sprints, err = p.int()
			return 1 << 8, err
		case "rack_draw_w":
			s.RackDrawW, err = p.floatList()
			return 1 << 9, err
		case "rack_buffer_j":
			s.RackBufferJ, err = p.floatList()
			return 1 << 10, err
		}
		return unknown(key)
	})
	if err != nil {
		return err
	}
	// Every field but the two omitempty rack series is required.
	return missing(seen, 1<<9-1, sampleFields)
}

// number scans one JSON number literal and reports whether it is an
// integer literal (no fraction, no exponent).
func (p *parser) number() (tok []byte, integer bool, err error) {
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return nil, false, p.errorf("expected a number")
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		i++
		d := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == d {
			return nil, false, p.errorf("malformed number")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		d := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == d {
			return nil, false, p.errorf("malformed number")
		}
	}
	tok = b[p.i:i]
	p.i = i
	return tok, integer, nil
}

func (p *parser) float() (float64, error) {
	tok, _, err := p.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s out of range", tok)
	}
	return f, nil
}

// integer parses an integer literal into its magnitude and sign; a
// fraction or an exponent is an error, as encoding/json reports for an
// integer field, and so is a magnitude past 2^64−1.
func (p *parser) integer() (u uint64, neg bool, err error) {
	b, i := p.b, p.i
	neg = i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	d := i
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		c := uint64(b[i] - '0')
		if u > (math.MaxUint64-c)/10 {
			break
		}
		u = u*10 + c
	}
	if i == d || (b[d] == '0' && i-d > 1) || (i < len(b) && !isIntEnd(b[i])) {
		// Not a plain integer within range: the full scanner names what
		// it is instead.
		tok, integer, err := p.number()
		switch {
		case err != nil:
			return 0, false, err
		case !integer:
			return 0, false, fmt.Errorf("number %s is not an integer", tok)
		}
		return 0, false, fmt.Errorf("integer %s out of range", tok)
	}
	p.i = i
	return u, neg, nil
}

// isIntEnd reports whether c can follow an integer literal: anything but
// a further digit, a fraction, or an exponent.
func isIntEnd(c byte) bool {
	return c != '.' && c != 'e' && c != 'E' && (c < '0' || c > '9')
}

func (p *parser) int64() (int64, error) {
	start := p.i
	u, neg, err := p.integer()
	switch {
	case err != nil:
		return 0, err
	case neg && u <= 1<<63:
		return int64(-u), nil
	case !neg && u < 1<<63:
		return int64(u), nil
	}
	return 0, fmt.Errorf("integer %s out of range", p.b[start:p.i])
}

func (p *parser) int() (int, error) {
	v, err := p.int64()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt || v > math.MaxInt {
		return 0, fmt.Errorf("integer %d out of range", v)
	}
	return int(v), nil
}

func (p *parser) uint64() (uint64, error) {
	start := p.i
	u, neg, err := p.integer()
	if err == nil && neg {
		err = fmt.Errorf("number %s is not an unsigned integer", p.b[start:p.i])
	}
	return u, err
}

// string reads a JSON string value. Raw bytes must be valid UTF-8 and not
// control characters; escapes decode as encoding/json decodes them, an
// unpaired surrogate becoming U+FFFD.
func (p *parser) string() (string, error) {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return "", p.errorf("expected a string")
	}
	p.i++
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return p.internBytes(s), nil
		case c == '\\':
			return p.escapedString(start)
		case c < 0x20:
			return "", p.errorf("control character in string")
		case c < utf8.RuneSelf:
			p.i++
		default:
			r, size := utf8.DecodeRune(p.b[p.i:])
			if r == utf8.RuneError && size == 1 {
				return "", p.errorf("invalid UTF-8 in string")
			}
			p.i += size
		}
	}
	return "", p.errorf("unterminated string")
}

// escapedString finishes a string that contains escapes, unescaping it
// into p.str; start is the index just past the opening quote.
func (p *parser) escapedString(start int) (string, error) {
	p.str = append(p.str[:0], p.b[start:p.i]...)
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return p.internBytes(p.str), nil
		case c == '\\':
			if p.i+1 >= len(p.b) {
				return "", p.errorf("unterminated string")
			}
			p.i += 2
			switch e := p.b[p.i-1]; e {
			case '"', '\\', '/':
				p.str = append(p.str, e)
			case 'b':
				p.str = append(p.str, '\b')
			case 'f':
				p.str = append(p.str, '\f')
			case 'n':
				p.str = append(p.str, '\n')
			case 'r':
				p.str = append(p.str, '\r')
			case 't':
				p.str = append(p.str, '\t')
			case 'u':
				r := p.hex4()
				if r < 0 {
					return "", p.errorf("malformed \\u escape")
				}
				if utf16.IsSurrogate(r) {
					// A surrogate pairs with an immediately following \u
					// escape; unpaired, it decodes to U+FFFD and the next
					// escape stands alone.
					dec := utf8.RuneError
					if save := p.i; p.i+1 < len(p.b) && p.b[p.i] == '\\' && p.b[p.i+1] == 'u' {
						p.i += 2
						if r2 := p.hex4(); r2 >= 0 {
							dec = utf16.DecodeRune(r, r2)
						}
						if dec == utf8.RuneError {
							p.i = save
						}
					}
					r = dec
				}
				p.str = utf8.AppendRune(p.str, r)
			default:
				return "", p.errorf("invalid escape \\%c", e)
			}
		case c < 0x20:
			return "", p.errorf("control character in string")
		case c < utf8.RuneSelf:
			p.str = append(p.str, c)
			p.i++
		default:
			r, size := utf8.DecodeRune(p.b[p.i:])
			if r == utf8.RuneError && size == 1 {
				return "", p.errorf("invalid UTF-8 in string")
			}
			p.str = append(p.str, p.b[p.i:p.i+size]...)
			p.i += size
		}
	}
	return "", p.errorf("unterminated string")
}

// hex4 reads the four hex digits of a \u escape, or returns -1.
func (p *parser) hex4() rune {
	if p.i+4 > len(p.b) {
		return -1
	}
	var r rune
	for _, c := range p.b[p.i : p.i+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	p.i += 4
	return r
}

// maxInterned bounds the intern table, so a recording with unboundedly
// many distinct strings cannot grow it without limit.
const maxInterned = 4096

// internBytes returns b as a string, sharing one copy per distinct value.
func (p *parser) internBytes(b []byte) string {
	if s, ok := p.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(p.intern) < maxInterned {
		p.intern[s] = s
	}
	return s
}
