// Package thermal implements the paper's Section 4 thermal design substrate:
// a lumped-element RC thermal network with optional phase-change-material
// (PCM) nodes, the mobile-phone thermal stack of Figure 3, and the transient
// simulations behind Figure 4.
//
// Nodes carry heat capacity and exchange heat through thermal resistances;
// the ambient is a fixed-temperature boundary. PCM nodes use an enthalpy
// formulation: their temperature is a piecewise function of stored enthalpy
// with a constant-temperature plateau across the latent-heat band, which is
// exactly the mechanism the paper exploits to extend sprint duration.
package thermal

import (
	"fmt"
	"math"

	"sprinting/internal/materials"
)

// NodeID identifies a node within a Network. The ambient boundary is
// AmbientNode.
type NodeID int

// AmbientNode is the fixed-temperature boundary node present in every
// network.
const AmbientNode NodeID = 0

type nodeKind int

const (
	kindBoundary nodeKind = iota
	kindCapacitive
	kindPCM
)

type node struct {
	kind nodeKind

	// capacitive / PCM sensible parameters
	capJPerK float64 // heat capacity (J/K); for PCM this is the sensible capacity

	// PCM parameters
	meltC   float64 // melting point (°C)
	latentJ float64 // total latent heat capacity (J)

	// state
	tempC     float64 // current temperature (°C); for boundary, fixed
	enthalpyJ float64 // stored enthalpy relative to the reference temperature
	refC      float64 // reference temperature for the enthalpy origin
}

type edge struct {
	a, b NodeID
	g    float64 // thermal conductance, W/K (1/R)
}

// Network is a lumped RC thermal network. It is not safe for concurrent use.
type Network struct {
	nodes []node
	edges []edge

	// ambientOutJ accumulates all heat delivered to the ambient boundary,
	// so tests can assert energy conservation.
	ambientOutJ float64
	// injectedJ accumulates all heat injected via Step.
	injectedJ float64

	flowScratch []float64
}

// NewNetwork creates a network containing only the ambient boundary at the
// given temperature.
func NewNetwork(ambientC float64) *Network {
	return &Network{
		nodes: []node{{kind: kindBoundary, tempC: ambientC}},
	}
}

// AddNode adds a capacitive node with heat capacity capJPerK initialized to
// initC degrees Celsius and returns its id.
func (n *Network) AddNode(name string, capJPerK, initC float64) NodeID {
	if capJPerK <= 0 {
		panic(fmt.Sprintf("thermal: node %q requires positive heat capacity, got %g", name, capJPerK))
	}
	n.nodes = append(n.nodes, node{
		kind:     kindCapacitive,
		capJPerK: capJPerK,
		tempC:    initC,
		refC:     initC,
	})
	return NodeID(len(n.nodes) - 1)
}

// AddPCMNode adds a phase-change node holding massG grams of the given PCM,
// initialized (solid) at initC, and returns its id. The node's sensible
// capacity is mass×cp and its latent capacity is mass×latent heat.
func (n *Network) AddPCMNode(name string, massG float64, pcm materials.PCM, initC float64) NodeID {
	if massG <= 0 {
		panic(fmt.Sprintf("thermal: PCM node %q requires positive mass, got %g", name, massG))
	}
	if initC >= pcm.MeltingPointC {
		panic(fmt.Sprintf("thermal: PCM node %q must start solid (init %g ≥ melt %g)", name, initC, pcm.MeltingPointC))
	}
	n.nodes = append(n.nodes, node{
		kind:     kindPCM,
		capJPerK: massG * pcm.SpecificHeatJPerGK,
		meltC:    pcm.MeltingPointC,
		latentJ:  pcm.LatentCapacityJ(massG),
		tempC:    initC,
		refC:     initC,
	})
	return NodeID(len(n.nodes) - 1)
}

// Connect joins two nodes with a thermal resistance rKPerW (K/W).
func (n *Network) Connect(a, b NodeID, rKPerW float64) {
	if rKPerW <= 0 {
		panic(fmt.Sprintf("thermal: resistance must be positive, got %g", rKPerW))
	}
	n.checkID(a)
	n.checkID(b)
	if a == b {
		panic("thermal: cannot connect a node to itself")
	}
	n.edges = append(n.edges, edge{a: a, b: b, g: 1 / rKPerW})
}

func (n *Network) checkID(id NodeID) {
	if id < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("thermal: invalid node id %d", id))
	}
}

// TempC returns the current temperature of a node in °C.
func (n *Network) TempC(id NodeID) float64 {
	n.checkID(id)
	return n.nodes[id].tempC
}

// MeltFraction returns the melted fraction of a PCM node in [0, 1]; it
// returns 0 for non-PCM nodes.
func (n *Network) MeltFraction(id NodeID) float64 {
	n.checkID(id)
	nd := &n.nodes[id]
	if nd.kind != kindPCM || nd.latentJ == 0 {
		return 0
	}
	// Enthalpy at which melting begins, relative to the reference.
	meltStart := nd.capJPerK * (nd.meltC - nd.refC)
	frac := (nd.enthalpyJ - meltStart) / nd.latentJ
	return math.Max(0, math.Min(1, frac))
}

// NumNodes returns the node count including the ambient boundary.
func (n *Network) NumNodes() int { return len(n.nodes) }

// StableStep returns a timestep (s) at which explicit integration of this
// network is stable with margin: a fraction of the smallest node time
// constant C/Gtotal.
func (n *Network) StableStep() float64 {
	gTot := make([]float64, len(n.nodes))
	for _, e := range n.edges {
		gTot[e.a] += e.g
		gTot[e.b] += e.g
	}
	minTau := math.Inf(1)
	for i := range n.nodes {
		nd := &n.nodes[i]
		if nd.kind == kindBoundary || gTot[i] == 0 {
			continue
		}
		tau := nd.capJPerK / gTot[i]
		if tau < minTau {
			minTau = tau
		}
	}
	if math.IsInf(minTau, 1) {
		return 1e-3
	}
	return 0.2 * minTau
}

// Step advances the network by dt seconds with the given per-node heat
// injection in watts (indexed by NodeID; may be shorter than the node
// count). It automatically sub-steps if dt exceeds the stable step.
func (n *Network) Step(dt float64, injectW []float64) {
	if dt <= 0 {
		return
	}
	stable := n.StableStep()
	steps := 1
	if dt > stable {
		steps = int(math.Ceil(dt / stable))
	}
	h := dt / float64(steps)
	if cap(n.flowScratch) < len(n.nodes) {
		n.flowScratch = make([]float64, len(n.nodes))
	}
	dH := n.flowScratch[:len(n.nodes)]
	for s := 0; s < steps; s++ {
		for i := range dH {
			dH[i] = 0
		}
		// Conductive flows.
		for _, e := range n.edges {
			q := (n.nodes[e.a].tempC - n.nodes[e.b].tempC) * e.g // W, a→b
			dH[e.a] -= q * h
			dH[e.b] += q * h
		}
		// Injections.
		for id, p := range injectW {
			if p == 0 {
				continue
			}
			dH[id] += p * h
			n.injectedJ += p * h
		}
		// Commit.
		for i := range n.nodes {
			nd := &n.nodes[i]
			if nd.kind == kindBoundary {
				n.ambientOutJ += dH[i]
				continue
			}
			nd.enthalpyJ += dH[i]
			nd.tempC = nd.temperatureOfEnthalpy()
		}
	}
}

// temperatureOfEnthalpy maps stored enthalpy to temperature. For capacitive
// nodes this is linear; for PCM nodes there is a constant-temperature
// plateau of width latentJ at the melting point.
func (nd *node) temperatureOfEnthalpy() float64 {
	switch nd.kind {
	case kindCapacitive:
		return nd.refC + nd.enthalpyJ/nd.capJPerK
	case kindPCM:
		meltStart := nd.capJPerK * (nd.meltC - nd.refC)
		switch {
		case nd.enthalpyJ < meltStart:
			return nd.refC + nd.enthalpyJ/nd.capJPerK
		case nd.enthalpyJ <= meltStart+nd.latentJ:
			return nd.meltC
		default:
			return nd.meltC + (nd.enthalpyJ-meltStart-nd.latentJ)/nd.capJPerK
		}
	default:
		return nd.tempC
	}
}
