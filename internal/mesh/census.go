package mesh

import "fmt"

// GridCensus holds the closed-form statistics of an icosahedral grid
// level, matching Table 2 of the paper.
type GridCensus struct {
	Label    string
	Level    int
	Cells    int64
	Edges    int64
	Verts    int64
	MinResKm float64 // minimum cell-center spacing
	MaxResKm float64 // maximum cell-center spacing
}

// Census returns the exact cell/edge/vertex counts of icosahedral level L:
// cells = 10*4^L + 2, edges = 30*4^L, vertices = 20*4^L. The resolution
// range is the min/max cell-center spacing; it is derived from the
// measured G6 extremes (the paper's 92.5–113 km) halved per level.
func Census(level int) GridCensus {
	p := int64(1) << (2 * uint(level)) // 4^level
	scale := 1.0
	if level >= 6 {
		scale = 1.0 / float64(int64(1)<<uint(level-6))
	} else {
		scale = float64(int64(1) << uint(6-level))
	}
	return GridCensus{
		Label:    fmt.Sprintf("G%d", level),
		Level:    level,
		Cells:    10*p + 2,
		Edges:    30 * p,
		Verts:    20 * p,
		MinResKm: 92.5 * scale,
		MaxResKm: 113.0 * scale,
	}
}

// TimestepConfig carries the sub-cycled timesteps (seconds) of a model
// configuration, per Table 2: dynamics, tracer transport, physics, and
// radiation.
type TimestepConfig struct {
	Dyn, Trac, Phy, Rad float64
}

// GridConfig is a named grid + timestep configuration from Table 2 of the
// paper.
type GridConfig struct {
	Label  string
	Level  int
	Layers int
	Steps  TimestepConfig
}

// Table2 returns the paper's Table 2 grid/timestep configurations. G11 has
// two entries: G11W shares the G12 timestep for weak scaling; G11S uses
// its largest stable timestep for strong scaling.
func Table2() []GridConfig {
	w := TimestepConfig{Dyn: 4, Trac: 30, Phy: 60, Rad: 180}
	return []GridConfig{
		{Label: "G12", Level: 12, Layers: 30, Steps: w},
		{Label: "G11W", Level: 11, Layers: 30, Steps: w},
		{Label: "G11S", Level: 11, Layers: 30, Steps: TimestepConfig{Dyn: 8, Trac: 60, Phy: 120, Rad: 360}},
		{Label: "G10", Level: 10, Layers: 30, Steps: w},
		{Label: "G9", Level: 9, Layers: 30, Steps: w},
		{Label: "G8", Level: 8, Layers: 30, Steps: w},
		{Label: "G6", Level: 6, Layers: 30, Steps: w},
	}
}
