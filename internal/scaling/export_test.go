package scaling

import "fmt"

// ActivePctAtNode returns the powered-on percentage at the given node (nm),
// for claims like "by 2019 only 9% of the transistors can be active".
func (s Scenario) ActivePctAtNode(nodeNm int) (float64, error) {
	for i, n := range Nodes {
		if n == nodeNm {
			return 100 - s.DarkSiliconPct()[i], nil
		}
	}
	return 0, fmt.Errorf("scaling: node %d nm not in the Figure 1 sequence", nodeNm)
}
