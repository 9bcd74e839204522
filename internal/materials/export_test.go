package materials

// BlockThicknessForHeat returns the thickness (mm) of a block over a die of
// areaMm2 needed to absorb the given heat (J) with a temperature rise
// deltaK. This reproduces the paper's §4.1 sizing argument (16 J over a
// 64 mm² die with a 10 °C rise needs 7.2 mm of copper).
func (m Material) BlockThicknessForHeat(heatJ, areaMm2, deltaK float64) float64 {
	if heatJ <= 0 || areaMm2 <= 0 || deltaK <= 0 {
		return 0
	}
	// volume (cm³) = heat / (volumetric heat × ΔT); 1 cm³ = 1000 mm³.
	volumeCm3 := heatJ / (m.VolumetricHeatJPerCm3K() * deltaK)
	thicknessMm := volumeCm3 * 1000.0 / areaMm2
	return thicknessMm
}

// MassForLatentJ returns the PCM mass in grams required to absorb heatJ
// joules purely as latent heat (the paper's ≈150 mg for 16 J at 100 J/g).
func (p PCM) MassForLatentJ(heatJ float64) float64 {
	if p.LatentHeatJPerG <= 0 {
		return 0
	}
	return heatJ / p.LatentHeatJPerG
}

// ThicknessForMassMm returns the thickness in mm of a block of massG grams
// spread over a die of areaMm2 mm².
func (p PCM) ThicknessForMassMm(massG, areaMm2 float64) float64 {
	if p.DensityGPerCm3 <= 0 || areaMm2 <= 0 {
		return 0
	}
	volumeCm3 := massG / p.DensityGPerCm3
	return volumeCm3 * 1000.0 / areaMm2
}

// VolumetricHeatJPerCm3K returns the volumetric heat capacity in J/(cm³·K),
// the figure of merit the paper quotes for copper (3.45) and aluminum (2.42).
func (m Material) VolumetricHeatJPerCm3K() float64 {
	return m.DensityGPerCm3 * m.SpecificHeatJPerGK
}

// Paper reference materials the §4 sizing tests check against.
var (
	// Aluminum: 2.42 J/cm³K volumetric heat (as quoted in §4.1).
	Aluminum = Material{
		Name:               "aluminum",
		DensityGPerCm3:     2.70,
		SpecificHeatJPerGK: 0.897,
		ConductivityWPerMK: 237,
	}

	// Icosane is the candle-wax PCM the paper cites: melting point 36.8 °C,
	// latent heat 241 J/g.
	Icosane = PCM{
		Material: Material{
			Name:               "icosane",
			DensityGPerCm3:     0.789,
			SpecificHeatJPerGK: 2.21,
			ConductivityWPerMK: 0.42,
		},
		MeltingPointC:   36.8,
		LatentHeatJPerG: 241,
	}
)
