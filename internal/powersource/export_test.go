package powersource

import "math"

// RechargeTimeS estimates the time to replenish energyJ through the battery
// at the given charge power.
func (u Ultracapacitor) RechargeTimeS(energyJ, chargePowerW float64) float64 {
	if chargePowerW <= 0 {
		return math.Inf(1)
	}
	return energyJ / chargePowerW
}
