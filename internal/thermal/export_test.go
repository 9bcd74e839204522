package thermal

import "math"

// StoredEnergyJ returns the total enthalpy stored in all nodes relative to
// their initial temperatures.
func (n *Network) StoredEnergyJ() float64 {
	total := 0.0
	for i := range n.nodes {
		if n.nodes[i].kind != kindBoundary {
			total += n.nodes[i].enthalpyJ
		}
	}
	return total
}

// InjectedEnergyJ and AmbientEnergyJ expose the running energy balance used
// for conservation checks: injected = stored + ambient (within integration
// tolerance).
func (n *Network) InjectedEnergyJ() float64 { return n.injectedJ }

// AmbientEnergyJ returns the total heat delivered to the ambient boundary.
func (n *Network) AmbientEnergyJ() float64 { return n.ambientOutJ }

// SteadyStateTempC computes the steady-state temperature of every node for
// constant injection, by iterating the network to convergence — the
// analytic reference the transient tests settle toward. PCM latent state
// is ignored: the steady state of a melting node is pinned at the plateau
// only transiently, so callers should interpret a result above the
// melting point as "would fully melt".
func (n *Network) SteadyStateTempC(injectW []float64) []float64 {
	// Solve the linear conduction system G·T = P with the boundary held
	// fixed, via Gauss-Seidel (diagonally dominant by construction).
	nn := len(n.nodes)
	temps := make([]float64, nn)
	for i := range temps {
		temps[i] = n.nodes[i].tempC
	}
	for iter := 0; iter < 200000; iter++ {
		maxDelta := 0.0
		for i := 1; i < nn; i++ {
			gSum, flow := 0.0, 0.0
			for _, e := range n.edges {
				switch NodeID(i) {
				case e.a:
					gSum += e.g
					flow += e.g * temps[e.b]
				case e.b:
					gSum += e.g
					flow += e.g * temps[e.a]
				}
			}
			if gSum == 0 {
				continue
			}
			p := 0.0
			if i < len(injectW) {
				p = injectW[i]
			}
			next := (flow + p) / gSum
			if d := math.Abs(next - temps[i]); d > maxDelta {
				maxDelta = d
			}
			temps[i] = next
		}
		if maxDelta < 1e-10 {
			break
		}
	}
	return temps
}

// MaxSprintDurationS estimates how long a sprint at sprintPowerW can run
// before thermal exhaustion, from the energy budget.
func MaxSprintDurationS(cfg StackConfig, sprintPowerW float64) float64 {
	budget := SprintEnergyBudgetJ(cfg, sprintPowerW)
	if math.IsInf(budget, 1) {
		return math.Inf(1)
	}
	return budget / sprintPowerW
}
