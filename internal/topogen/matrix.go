package topogen

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Delay-matrix ingest: replay a measured all-pairs RTT grid (the IDMS
// shape of data — an internet delay matrix service serves exactly this)
// as propagation delays, instead of inventing delays by hand.
//
// File format (see README "Topology generators"):
//
//	# comment and blank lines are ignored
//	nyc lon fra        ← first content line: n node names
//	0   70.1 81.0      ← then n rows of n RTT values, milliseconds
//	70.1 0   12.5
//	81.0 12.5 -        ← "-" (or any negative value) marks an unmeasured pair
//
// The diagonal is ignored. An asymmetric grid is taken at face value
// (RTT[i][j] feeds the i→j direction); a missing direction borrows the
// measured opposite one.

// maxMatrixNodes bounds parser allocations on hostile input (fuzzing) —
// far above any real delay matrix.
const maxMatrixNodes = 4096

// DelayMatrix is a parsed all-pairs RTT grid. RTT is in seconds, -1 for
// unmeasured pairs; RTT[i][i] is always 0.
type DelayMatrix struct {
	Names []string
	RTT   [][]float64
}

// ParseDelayMatrix parses the text format above.
func ParseDelayMatrix(data []byte) (*DelayMatrix, error) {
	var m DelayMatrix
	row := 0
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		s := strings.TrimSpace(string(line))
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		fields := strings.Fields(s)
		if m.Names == nil {
			if len(fields) < 2 {
				return nil, fmt.Errorf("topogen: delay matrix line %d: need >= 2 node names, got %d", lineNo, len(fields))
			}
			if len(fields) > maxMatrixNodes {
				return nil, fmt.Errorf("topogen: delay matrix line %d: %d nodes exceeds the %d-node limit", lineNo, len(fields), maxMatrixNodes)
			}
			seen := make(map[string]bool, len(fields))
			for _, name := range fields {
				if seen[name] {
					return nil, fmt.Errorf("topogen: delay matrix line %d: duplicate node %q", lineNo, name)
				}
				seen[name] = true
			}
			m.Names = fields
			m.RTT = make([][]float64, len(fields))
			continue
		}
		if row >= len(m.Names) {
			return nil, fmt.Errorf("topogen: delay matrix line %d: more rows than the %d declared nodes", lineNo, len(m.Names))
		}
		if len(fields) != len(m.Names) {
			return nil, fmt.Errorf("topogen: delay matrix line %d: row %d has %d values, want %d", lineNo, row, len(fields), len(m.Names))
		}
		vals := make([]float64, len(fields))
		for j, f := range fields {
			if f == "-" {
				vals[j] = -1
				continue
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("topogen: delay matrix line %d: bad RTT %q: %v", lineNo, f, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("topogen: delay matrix line %d: non-finite RTT %q", lineNo, f)
			}
			if v < 0 {
				vals[j] = -1
				continue
			}
			vals[j] = v * 1e-3 // milliseconds on the wire format, seconds in memory
		}
		vals[row] = 0
		m.RTT[row] = vals
		row++
	}
	if m.Names == nil {
		return nil, fmt.Errorf("topogen: delay matrix has no content")
	}
	if row != len(m.Names) {
		return nil, fmt.Errorf("topogen: delay matrix has %d rows, want %d", row, len(m.Names))
	}
	return &m, nil
}

// MeshGraph converts the matrix into a full-mesh graph: one duplex link
// pair per measured node pair, each direction's propagation delay half
// that direction's RTT (borrowing the opposite direction when only one
// was measured). Links are named "m<i>-<j>" for the i→j direction.
func (m *DelayMatrix) MeshGraph(rateMbps float64, bufBytes int) *Graph {
	g := New()
	for _, name := range m.Names {
		g.AddNode(name)
	}
	for i := range m.Names {
		for j := i + 1; j < len(m.Names); j++ {
			fwd, rev := m.RTT[i][j], m.RTT[j][i]
			if fwd < 0 {
				fwd = rev
			}
			if rev < 0 {
				rev = m.RTT[i][j]
			}
			if fwd < 0 || fwd == 0 || rev == 0 {
				continue // unmeasured (or degenerate zero-RTT) pair: no link
			}
			g.AddLink(Link{Name: fmt.Sprintf("m%d-%d", i, j), From: m.Names[i], To: m.Names[j],
				RateMbps: rateMbps, Delay: fwd / 2, BufBytes: bufBytes})
			g.AddLink(Link{Name: fmt.Sprintf("m%d-%d", j, i), From: m.Names[j], To: m.Names[i],
				RateMbps: rateMbps, Delay: rev / 2, BufBytes: bufBytes})
		}
	}
	return g
}
