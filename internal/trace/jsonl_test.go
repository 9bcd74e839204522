package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refMetaLine is the meta header's shape for the encoding/json reference.
type refMetaLine struct {
	T    string `json:"t"`
	Meta Meta   `json:"meta"`
}

// refJSONL is the reference serialization the hand-written writer must
// reproduce byte for byte: encoding/json's Encoder, one value per line.
func refJSONL(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	if err := enc.Encode(refMetaLine{T: "meta", Meta: tr.Meta}); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		if err := enc.Encode(&tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// refReadJSONL decodes a recording with encoding/json, strictly
// (DisallowUnknownFields), skipping blank lines as ReadJSONL does.
func refReadJSONL(data []byte) (*Trace, error) {
	tr := &Trace{}
	sawMeta := false
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.Trim(line, " \t\r\n")) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if !sawMeta {
			var ml refMetaLine
			if err := dec.Decode(&ml); err != nil {
				return nil, err
			}
			tr.Meta = ml.Meta
			sawMeta = true
			continue
		}
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		tr.Records = append(tr.Records, rec)
	}
	return tr, nil
}

func writeJSONL(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// edgeFloats straddle encoding/json's format switches: the 1e-6 and 1e21
// exponent thresholds, exponents that need the e-09 → e-9 cleanup,
// negative zero, subnormals and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.999999e-7, 1e-7, 1e-9, 1.5e-10,
	1e20, 1e21, 9.99999999e20, 123456789012345678901234.0, -1e21, -1e-7,
	5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	0.1, 2.0 / 3, 1e100, 1e-100, 12345.678, -0.000123,
}

// edgeStrings exercise every escaping rule: quote and backslash, the short
// control escapes, other control bytes, the HTML-unsafe < > &, DEL,
// invalid UTF-8, the line and paragraph separators, and plain non-ASCII.
var edgeStrings = []string{
	"", "plain", `quote " and \ backslash`, "\b\f\n\r\t", "\x00\x01\x1f",
	"<script>&amp;</script>", "\x7f", "bad \xff utf8 \xc3", "sep \u2028 \u2029",
	"na\u00efve \u2603 \U0001D11E", "phase/1",
}

func edgeTrace() *Trace {
	tr := &Trace{Meta: Meta{Policy: "sprint-aware", Coordination: "token-permit", Nodes: 1 << 30, Racks: -3,
		Requests: 7, Seed: math.MinInt64, Level: "full", WindowS: 1e-7, TopK: 3}}
	seq := uint64(math.MaxUint64 - 100)
	add := func(r Record) {
		r.Seq = seq
		seq++
		tr.Records = append(tr.Records, r)
	}
	for i, f := range edgeFloats {
		add(Record{T: "decision", AtS: f, Decision: &Decision{
			Kind: "dispatch", Req: i, Phase: -1, Node: i % 3, Outcome: "enqueued", Key: -f, KeyKind: "budget",
			WorkS: f, Alts: []Alt{{Node: 1, Key: f, HypoDoneS: -1}, {Node: 2, Key: 0, HypoDoneS: f}},
			DoneS: f, BestAlt: -1, BestAltDoneS: f, RegretS: -f,
		}})
		add(Record{T: "sample", AtS: f, Sample: &Sample{StartS: f, EndS: f, Phase: i, Completed: i,
			ThroughputRPS: f, P50S: -1, P99S: f, InFlight: 2, Sprints: 1,
			RackDrawW: []float64{f, 1}, RackBufferJ: []float64{0, f, -f}}})
	}
	for i, s := range edgeStrings {
		add(Record{T: "event", AtS: float64(i), Event: &Event{Kind: s, Node: -1, Rack: i, Req: -1, Phase: 2, Name: s, DurS: 0.25}})
	}
	// The omitempty shapes: no alts (nil and empty), no name, no rack series.
	add(Record{T: "decision", Decision: &Decision{Kind: "hedge", Alts: []Alt{}}})
	add(Record{T: "decision", Decision: &Decision{Kind: "retry"}})
	add(Record{T: "event", Event: &Event{Kind: "complete"}})
	add(Record{T: "sample", Sample: &Sample{RackDrawW: []float64{}}})
	// A record carrying two payloads encodes both, as encoding/json does.
	add(Record{T: "event", Event: &Event{Kind: "x"}, Sample: &Sample{}})
	return tr
}

// TestWriteJSONLMatchesEncodingJSON pins the writer to encoding/json's
// bytes over every edge of its float formatting, string escaping and
// omitempty handling.
func TestWriteJSONLMatchesEncodingJSON(t *testing.T) {
	for name, tr := range map[string]*Trace{"edges": edgeTrace(), "generated": genTrace(2000, 1)} {
		got, want := writeJSONL(t, tr), refJSONL(t, tr)
		if bytes.Equal(got, want) {
			continue
		}
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: line %d differs from encoding/json:\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, encoding/json writes %d", name, len(gl), len(wl))
	}
}

// TestWriteJSONLNonFinite checks that a non-finite float fails the write
// before its line is written, leaving the earlier lines intact.
func TestWriteJSONLNonFinite(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		tr := &Trace{Meta: Meta{Level: "full"}, Records: []Record{
			{T: "event", Event: &Event{Kind: "ok"}},
			{T: "sample", AtS: 1, Sample: &Sample{P99S: bad}},
		}}
		var b bytes.Buffer
		if err := tr.WriteJSONL(&b); err == nil {
			t.Fatalf("%g: WriteJSONL accepted a non-finite float", bad)
		}
		if n := bytes.Count(b.Bytes(), []byte("\n")); n != 2 {
			t.Fatalf("%g: %d lines written before the failure, want 2", bad, n)
		}
	}
}

// TestReadJSONLRoundTrip reads back what the writer wrote, and what
// encoding/json reads of the same bytes.
func TestReadJSONLRoundTrip(t *testing.T) {
	tr := genTrace(3000, 2)
	b := writeJSONL(t, tr)
	got, err := ReadJSONL(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("ReadJSONL(WriteJSONL(tr)) != tr")
	}
	ref, err := refReadJSONL(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("ReadJSONL disagrees with encoding/json")
	}
	// Escaped strings, and lines longer than the reader's buffer.
	long := strings.Repeat("é<> ", 40000)
	tr = &Trace{Meta: Meta{Policy: "p\"q", Level: "full"}, Records: []Record{
		{T: "event", Event: &Event{Kind: "phase-start", Name: long}},
	}}
	for _, s := range edgeStrings {
		if strings.ToValidUTF8(s, "\ufffd") == s {
			tr.Records = append(tr.Records, Record{T: "event", Event: &Event{Kind: s, Name: s}})
		}
	}
	got, err = ReadJSONL(bytes.NewReader(writeJSONL(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("escaped strings did not round-trip")
	}
}

// TestReadJSONLAccepts covers what strictness still allows: omitempty
// fields left out, keys in any order, JSON whitespace, blank lines, CRLF
// line ends, and a last line without its newline.
func TestReadJSONLAccepts(t *testing.T) {
	in := `{"meta":{"topk":3,"window_s":5,"level":"full","seed":1,"requests":2,"racks":0,"nodes":4,"coordination":"none","policy":"least-loaded"},"t":"meta"}` + "\r\n" +
		"\n   \t\n" +
		`{ "seq" : 0 , "at_s" : 1e-7 , "t" : "decision" , "decision" : {"regret_s":0,"best_alt_done_s":0,"best_alt":-1,"done_s":-1,"work_s":2,"key_kind":"drain","key":-0,"outcome":"dropped","node":-1,"phase":0,"req":0,"kind":"dispatch"} }` + "\n" +
		`{"t":"event","at_s":2,"seq":1,"event":{"kind":"phase-start","node":-1,"rack":-1,"req":-1,"phase":1,"name":"surge \ud834\udd1e \ud800","dur_s":0}}` + "\n" +
		`{"t":"sample","at_s":5,"seq":2,"sample":{"start_s":0,"end_s":5,"phase":-1,"completed":1,"throughput_rps":0.2,"p50_s":1E+0,"p99_s":1.5,"in_flight":0,"sprints":0}}`
	got, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refReadJSONL([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("ReadJSONL disagrees with encoding/json:\n got %+v\nwant %+v", got, ref)
	}
	if len(got.Records) != 3 || got.Records[0].Decision.Alts != nil || got.Records[2].Sample.RackDrawW != nil {
		t.Fatalf("records mangled: %+v", got.Records)
	}
	if name := got.Records[1].Event.Name; name != "surge \U0001D11E \ufffd" {
		t.Fatalf("escaped name decoded as %q", name)
	}
}

// TestReadJSONLRejects pins the reader's strictness: every malformed line
// fails with the line it sits on, including the inputs encoding/json
// used to accept and silently mangle — trailing bytes (even a whole
// second record), a payload under the wrong tag, an unknown tag, no
// payload, case-folded keys, and missing required fields.
func TestReadJSONLRejects(t *testing.T) {
	const meta = `{"t":"meta","meta":{"policy":"least-loaded","coordination":"none","nodes":4,"racks":0,"requests":2,"seed":1,"level":"full","window_s":5,"topk":3}}`
	const ev = `{"t":"event","at_s":1,"seq":0,"event":{"kind":"complete","node":1,"rack":-1,"req":0,"phase":-1,"dur_s":0}}`
	const dec = `{"t":"decision","at_s":0,"seq":1,"decision":{"kind":"dispatch","req":0,"phase":0,"node":1,"outcome":"enqueued","key":0,"key_kind":"drain","work_s":2,"alts":[{"node":2,"key":0,"hypo_done_s":2}],"done_s":2,"best_alt":2,"best_alt_done_s":2,"regret_s":0}}`
	const smp = `{"t":"sample","at_s":5,"seq":2,"sample":{"start_s":0,"end_s":5,"phase":-1,"completed":1,"throughput_rps":0.2,"p50_s":1,"p99_s":1,"in_flight":0,"sprints":0,"rack_draw_w":[1,2]}}`
	for _, ok := range []string{ev, dec, smp} {
		if _, err := ReadJSONL(strings.NewReader(meta + "\n" + ok + "\n")); err != nil {
			t.Fatalf("valid line rejected: %v\n%s", err, ok)
		}
	}
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "no meta header"},
		{"blank only", "\n \n", "no meta header"},
		{"record first", ev + "\n", "line 1: first line must be the meta header"},
		{"meta twice", meta + "\n" + meta + "\n", `line 2: unknown field "meta"`},
		{"meta missing field", strings.Replace(meta, `,"topk":3`, "", 1) + "\n", `line 1: first line must be the meta header {"t":"meta",...}: missing field "topk"`},
		{"meta wrong tag", strings.Replace(meta, `"t":"meta"`, `"t":"decision"`, 1), "line 1: first line must be the meta header"},
		{"trailing bytes", meta + "\n" + ev + "x\n", "line 2: byte"},
		{"second record on the line", meta + "\n" + ev + ev + "\n", "line 2: byte"},
		{"decision tag, event payload", meta + "\n" + strings.Replace(ev, `"t":"event"`, `"t":"decision"`, 1), `line 2: "decision" record carries a payload of another kind`},
		{"two payloads", meta + "\n" + strings.Replace(smp, `"sample":`, `"event":{"kind":"x","node":1,"rack":-1,"req":0,"phase":-1,"dur_s":0},"sample":`, 1), "line 2: \"sample\" record carries a payload of another kind"},
		{"unknown tag", meta + "\n" + strings.Replace(ev, `"t":"event"`, `"t":"nonsense"`, 1), `line 2: unknown record tag "nonsense"`},
		{"no payload", meta + "\n" + `{"t":"event","at_s":1,"seq":0}`, `line 2: "event" record has no payload`},
		{"case-folded tag key", meta + "\n" + strings.Replace(ev, `"t":`, `"T":`, 1), `line 2: unknown field "T"`},
		{"case-folded time key", meta + "\n" + strings.Replace(ev, `"at_s":`, `"AT_S":`, 1), `line 2: unknown field "AT_S"`},
		{"case-folded payload key", meta + "\n" + strings.Replace(ev, `"kind":`, `"Kind":`, 1), `line 2: unknown field "Kind"`},
		{"escaped key", meta + "\n" + strings.Replace(ev, `"seq":`, `"s\u0065q":`, 1), `line 2: unknown field`},
		{"missing seq", meta + "\n" + strings.Replace(ev, `"seq":0,`, "", 1), `line 2: missing field "seq"`},
		{"missing decision field", meta + "\n" + strings.Replace(dec, `,"regret_s":0`, "", 1), `line 2: missing field "regret_s"`},
		{"missing alt field", meta + "\n" + strings.Replace(dec, `,"hypo_done_s":2`, "", 1), `line 2: missing field "hypo_done_s"`},
		{"missing event field", meta + "\n" + strings.Replace(ev, `,"dur_s":0`, "", 1), `line 2: missing field "dur_s"`},
		{"missing sample field", meta + "\n" + strings.Replace(smp, `"p99_s":1,`, "", 1), `line 2: missing field "p99_s"`},
		{"duplicate key", meta + "\n" + strings.Replace(ev, `"seq":0`, `"seq":0,"seq":1`, 1), `line 2: duplicate field "seq"`},
		{"unknown payload field", meta + "\n" + strings.Replace(ev, `"dur_s":0`, `"dur_s":0,"extra":1`, 1), `line 2: unknown field "extra"`},
		{"empty alts", meta + "\n" + strings.Replace(dec, `[{"node":2,"key":0,"hypo_done_s":2}]`, "[]", 1), "line 2: byte"},
		{"empty rack series", meta + "\n" + strings.Replace(smp, "[1,2]", "[]", 1), "line 2: byte"},
		{"null payload", meta + "\n" + `{"t":"event","at_s":1,"seq":0,"event":null}`, "line 2: byte"},
		{"null field", meta + "\n" + strings.Replace(ev, `"kind":"complete"`, `"kind":null`, 1), "line 2: byte"},
		{"fractional int", meta + "\n" + strings.Replace(ev, `"node":1`, `"node":1.5`, 1), "line 2: number 1.5 is not an integer"},
		{"exponent int", meta + "\n" + strings.Replace(ev, `"node":1`, `"node":1e0`, 1), "line 2: number 1e0 is not an integer"},
		{"negative seq", meta + "\n" + strings.Replace(ev, `"seq":0`, `"seq":-1`, 1), "line 2: number -1 is not an unsigned integer"},
		{"int overflow", meta + "\n" + strings.Replace(ev, `"node":1`, `"node":9223372036854775808`, 1), "line 2: integer 9223372036854775808 out of range"},
		{"float overflow", meta + "\n" + strings.Replace(ev, `"at_s":1`, `"at_s":1e400`, 1), "line 2: number 1e400 out of range"},
		{"leading zero", meta + "\n" + strings.Replace(ev, `"at_s":1`, `"at_s":01`, 1), "line 2: byte"},
		{"bare dot", meta + "\n" + strings.Replace(ev, `"at_s":1`, `"at_s":1.`, 1), "line 2: byte"},
		{"quoted number", meta + "\n" + strings.Replace(ev, `"at_s":1`, `"at_s":"1"`, 1), "line 2: byte"},
		{"bad escape", meta + "\n" + strings.Replace(ev, `"complete"`, `"comp\x"`, 1), `line 2: byte`},
		{"raw control byte", meta + "\n" + strings.Replace(ev, `"complete"`, "\"comp\tlete\"", 1), "line 2: byte"},
		{"invalid utf8", meta + "\n" + strings.Replace(ev, `"complete"`, "\"comp\xfflete\"", 1), "line 2: byte"},
		{"unterminated", meta + "\n" + ev[:len(ev)-2], "line 2: byte"},
		{"not an object", meta + "\n[1]\n", "line 2: byte"},
		{"third line", meta + "\n" + ev + "\n" + `{"t":"event"}`, "line 3:"},
		{"overlong line", meta + "\n" + `{"t":"event","at_s":1,"seq":0,"event":{"kind":"` + strings.Repeat("x", maxLineBytes) + `"}}`, "line 2: longer than"},
	}
	for _, c := range cases {
		_, err := ReadJSONL(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "trace: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want it to contain %q", c.name, err, c.want)
		}
	}
}

// errReader fails after its data, like a read error mid-file.
type errReader struct{ data []byte }

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, errors.New("disk gone")
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReadJSONLReadError(t *testing.T) {
	b := writeJSONL(t, genTrace(50, 3))
	if _, err := ReadJSONL(&errReader{data: b[:len(b)/2]}); err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("read error surfaced as %v", err)
	}
}

// FuzzReadJSONL holds the reader to two oracles. Whatever it accepts,
// encoding/json (with DisallowUnknownFields) must decode to the same
// records; and it must round-trip — ReadJSONL(WriteJSONL(tr)) equals tr,
// and re-encodes to the same bytes.
func FuzzReadJSONL(f *testing.F) {
	f.Add(writeJSONL(f, genTrace(6, 4)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		ref, err := refReadJSONL(data)
		if err != nil {
			t.Fatalf("ReadJSONL accepted what encoding/json rejects (%v)", err)
		}
		if !reflect.DeepEqual(tr, ref) {
			t.Fatalf("ReadJSONL and encoding/json disagree:\n got %+v\nwant %+v", tr, ref)
		}
		b := writeJSONL(t, tr)
		if want := refJSONL(t, tr); !bytes.Equal(b, want) {
			t.Fatalf("WriteJSONL differs from encoding/json:\n got %s\nwant %s", b, want)
		}
		back, err := ReadJSONL(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-read of the writer's output failed: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatal("ReadJSONL(WriteJSONL(tr)) != tr")
		}
		if b2 := writeJSONL(t, back); !bytes.Equal(b2, b) {
			t.Fatal("re-encoding changed the bytes")
		}
	})
}

// genTrace synthesizes a recording shaped like a full-level flash-crowd
// run: per arrival a dispatch decision with three alternatives (two idle,
// keyed at the decision instant), service, completion and sprint events
// at the same instant, an occasional phase event, and a timeline sample
// with eight racks' series every 50 records.
func genTrace(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Meta: Meta{Policy: "sprint-aware", Coordination: "token-permit", Nodes: 128, Racks: 8,
		Requests: n, Seed: seed, Level: "full", WindowS: 5, TopK: 3}}
	at := 0.0
	for len(tr.Records) < n {
		if len(tr.Records)%3 == 0 {
			at += rng.ExpFloat64() * 0.01 // events share their decision's instant
		}
		r := Record{AtS: at, Seq: uint64(len(tr.Records))}
		switch k := len(tr.Records) % 50; {
		case k == 49:
			sm := &Sample{StartS: at - 5, EndS: at, Phase: 1, Completed: rng.Intn(400), ThroughputRPS: rng.Float64() * 80,
				P50S: rng.Float64(), P99S: rng.Float64() * 10, InFlight: rng.Intn(100), Sprints: rng.Intn(50)}
			for i := 0; i < 8; i++ {
				sm.RackDrawW = append(sm.RackDrawW, 100+rng.Float64()*50)
				sm.RackBufferJ = append(sm.RackBufferJ, rng.Float64()*1e4)
			}
			r.T, r.Sample = "sample", sm
		case k%3 == 0:
			d := &Decision{Kind: "dispatch", Req: len(tr.Records), Phase: 1, Node: rng.Intn(128), Outcome: "enqueued",
				Key: at + rng.Float64(), KeyKind: "budget", WorkS: rng.ExpFloat64() * 2,
				DoneS: at + rng.Float64()*3, BestAlt: -1}
			for i := 0; i < 3; i++ {
				a := Alt{Node: rng.Intn(128), Key: at, HypoDoneS: at + d.WorkS/16} // an idle alternative
				if i == 2 {
					a.Key, a.HypoDoneS = at+rng.Float64(), -1
				}
				d.Alts = append(d.Alts, a)
			}
			d.BestAlt, d.BestAltDoneS = d.Alts[0].Node, d.Alts[0].HypoDoneS
			d.RegretS = d.DoneS - d.BestAltDoneS
			r.T, r.Decision = "decision", d
		default:
			kinds := []string{"service-start", "complete", "sprint-start", "sprint-end"}
			ev := &Event{Kind: kinds[rng.Intn(len(kinds))], Node: rng.Intn(128), Rack: rng.Intn(8), Req: rng.Intn(n), Phase: -1,
				DurS: rng.Float64()}
			if rng.Intn(100) == 0 {
				ev.Kind, ev.Name = "phase-start", "surge"
			}
			r.T, r.Event = "event", ev
		}
		tr.Records = append(tr.Records, r)
	}
	return tr
}

// BenchmarkTraceWriteJSONL measures the writer on a generated recording
// of 30k records (about 7 MB of JSONL); bytes/op is the recording size.
func BenchmarkTraceWriteJSONL(b *testing.B) {
	tr := genTrace(30000, 1)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.WriteJSONL(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReadJSONL measures the reader on the same recording.
func BenchmarkTraceReadJSONL(b *testing.B) {
	var buf bytes.Buffer
	if err := genTrace(30000, 1).WriteJSONL(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadJSONL(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
