package trace

import "io"

// FastLine returns the line fast path on one parser reused across calls:
// it reports whether fastLine decodes the line on its own.
func FastLine() func(line []byte) bool {
	p := &parser{intern: map[string]string{}, reuse: true}
	return func(line []byte) bool {
		p.recycle()
		p.b, p.i, p.rec = line, 0, Record{}
		return p.fastLine(&p.rec)
	}
}

// ReadJSONLGeneral is ReadJSONL with every line sent through the general
// parser.
func ReadJSONLGeneral(r io.Reader) (*Trace, error) {
	refParse = true
	defer func() { refParse = false }()
	return ReadJSONL(r)
}

// IsSpelling reports whether s is one of the fixed spellings the line
// fast path reads without the intern table.
func IsSpelling(s string) bool {
	for _, sp := range spellings {
		if s == sp {
			return true
		}
	}
	return false
}
