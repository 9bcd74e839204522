// Package materials is the property database for the thermal design study
// (Section 4 of the paper): metals used as sensible heat sinks, silicon,
// thermal interface material, and the phase-change materials (PCMs) whose
// latent heat provides sprint capacitance.
package materials

// Material describes a solid used for sensible heat storage or conduction.
type Material struct {
	Name string

	// DensityGPerCm3 is mass density in g/cm³.
	DensityGPerCm3 float64

	// SpecificHeatJPerGK is specific heat capacity in J/(g·K).
	SpecificHeatJPerGK float64

	// ConductivityWPerMK is thermal conductivity in W/(m·K).
	ConductivityWPerMK float64
}

// PCM describes a phase-change material. In addition to solid-phase sensible
// properties it has a melting point and a latent heat of fusion; during the
// phase transition the material absorbs heat at constant temperature.
type PCM struct {
	Material

	// MeltingPointC is the solid→liquid transition temperature in °C.
	MeltingPointC float64

	// LatentHeatJPerG is the latent heat of fusion in J/g.
	LatentHeatJPerG float64
}

// LatentCapacityJ returns the total latent heat (J) stored by melting
// massG grams of the PCM.
func (p PCM) LatentCapacityJ(massG float64) float64 {
	return p.LatentHeatJPerG * massG
}

// Canonical materials. Values follow the paper's §4 and standard references.
var (
	// Copper: 3.45 J/cm³K volumetric heat (as quoted in §4.1).
	Copper = Material{
		Name:               "copper",
		DensityGPerCm3:     8.96,
		SpecificHeatJPerGK: 0.385,
		ConductivityWPerMK: 401,
	}

	// StudyPCM is the design-study PCM assumed in §4.2 and §4.4: latent heat
	// 100 J/g, density 1 g/cm³, melting point 60 °C (chosen above the
	// sustained-mode junction temperature, below Tjmax = 70 °C). The low
	// specific heat reflects the copper-mesh composite carrier (§4.2): much
	// of the block's sensible mass is conductive mesh (copper cp ≈
	// 0.385 J/g·K), not wax, which keeps the pre-melt warm-up short as in
	// Fig 4(a).
	StudyPCM = PCM{
		Material: Material{
			Name:               "study PCM (100 J/g @ 60C)",
			DensityGPerCm3:     1.0,
			SpecificHeatJPerGK: 0.5,
			ConductivityWPerMK: 10, // with integrated copper mesh (§4.2)
		},
		MeltingPointC:   60,
		LatentHeatJPerG: 100,
	}
)
