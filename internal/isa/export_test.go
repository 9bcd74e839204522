package isa

// Count summarizes a stream's instruction mix (consuming it).
type Count struct {
	ComputeOps uint64 // total ALU ops (expanded run lengths)
	Loads      uint64
	Stores     uint64
	Pauses     uint64
	ChunkCalls uint64
}

// Instructions returns the total dynamic instruction count.
func (c Count) Instructions() uint64 {
	return c.ComputeOps + c.Loads + c.Stores + c.Pauses
}

// Drain consumes a stream and tallies its mix.
func Drain(s Stream) Count {
	var c Count
	buf := make([]Instr, 256)
	for {
		n := s.Next(buf)
		if n == 0 {
			return c
		}
		c.ChunkCalls++
		for _, in := range buf[:n] {
			switch in.Kind {
			case Compute:
				c.ComputeOps += uint64(in.N)
			case Load:
				c.Loads++
			case Store:
				c.Stores++
			case Pause:
				c.Pauses++
			}
		}
	}
}

// Reset rewinds the stream for reuse.
func (s *SliceStream) Reset() { s.pos = 0 }

// Full reports whether the buffer cannot take another instruction.
func (e *Emitter) Full() bool { return e.n >= len(e.buf) }
