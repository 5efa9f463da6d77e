package main

import (
	"fmt"
	"math"
	"math/rand"

	"gristgo/internal/dycore"
	"gristgo/internal/mlphysics"
	"gristgo/internal/nn"
	"gristgo/internal/physics"
	"gristgo/internal/serve"
)

// Every input below is a function of the seed alone; the program under
// test only ever receives what these generators made.

// Streams keep the generators independent: drawing more numbers for one
// input never shifts another.
const (
	streamBubble = iota + 1
	streamWeights
	streamColumns
	streamPerturb
	streamQueries
	streamSchedule
)

func stream(seed int64, s int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(s)))
}

// bubbleInit is the dynamics initial condition: the baroclinic wave plus
// one warm bubble whose position comes from the seed.
func bubbleInit(seed int64) func(*dycore.State) {
	rng := stream(seed, streamBubble)
	lat := (rng.Float64() - 0.5) * 2.0 // within ~57 degrees of the equator
	lon := rng.Float64() * 2 * math.Pi
	return func(s *dycore.State) {
		s.InitIdealized(dycore.CaseBaroclinicWave)
		s.AddThermalBubble(lat, lon, 0.2, 2)
	}
}

// newSuite assembles the ML physics suite at the repository's benchmark
// architecture (ResUnitCNN 16 channels x 5 units, ResMLP 48 x 7) with
// seeded random weights. Input normalizers are fitted to N(0,1) rows;
// output normalizers to rows scaled by outScale, so a small outScale
// makes the untrained networks perturb the coupled state instead of
// wrecking it. Throughput does not depend on the weight values.
func newSuite(seed int64, nlev int, outScale float64) *mlphysics.Suite {
	rng := stream(seed, streamWeights)
	rows := func(n, dim int, scale float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, dim)
			for j := range out[i] {
				out[i][j] = scale * rng.NormFloat64()
			}
		}
		return out
	}
	return &mlphysics.Suite{
		NLev:    nlev,
		Tend:    nn.NewResUnitCNN(mlphysics.TendencyChannels, 16, mlphysics.TendencyOutputs, nlev, 5, 3, rng),
		Rad:     nn.NewResMLP(2*nlev+2, 48, mlphysics.RadiationOutputs, 7, rng),
		TendIn:  mlphysics.NewNormalizer(rows(64, mlphysics.TendencyChannels*nlev, 1)),
		TendOut: mlphysics.NewNormalizer(rows(64, mlphysics.TendencyOutputs*nlev, outScale)),
		RadIn:   mlphysics.NewNormalizer(rows(64, 2*nlev+2, 1)),
		RadOut:  mlphysics.NewNormalizer(rows(64, mlphysics.RadiationOutputs, outScale)),
	}
}

// columnInput builds ncol physically plausible columns (the bench_test.go
// recipe) with seeded wind phases.
func columnInput(seed int64, ncol, nlev int) *physics.Input {
	rng := stream(seed, streamColumns)
	phase := rng.Float64() * 2 * math.Pi
	in := physics.NewInput(ncol, nlev)
	for c := 0; c < ncol; c++ {
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			p := 22500 + float64(k)/float64(nlev-1)*75000
			in.P[i] = p
			in.Dpi[i] = 97750.0 / float64(nlev)
			in.T[i] = 295 - 55*math.Log(1e5/p)
			in.Qv[i] = 0.012 * math.Pow(p/1e5, 3)
			in.U[i] = 8 * math.Sin(float64(i)+phase)
			in.V[i] = 4 * math.Cos(float64(i)+phase)
		}
		in.Tskin[c] = 300
		in.CosZ[c] = math.Max(0, math.Sin(float64(c)*0.7+phase))
	}
	return in
}

// perturbState nudges the potential temperature of a seeded set of
// columns, so successive checkpoint epochs differ on disk and in every
// served field derived from the lowest layer.
func perturbState(s *dycore.State, rng *rand.Rand) {
	n := s.M.NCells / 8
	for i := 0; i < n; i++ {
		c := rng.Intn(s.M.NCells)
		f := 1 + 1e-3*rng.NormFloat64()
		for k := 0; k < s.NLev; k++ {
			s.ThetaM[c*s.NLev+k] *= f
		}
	}
}

// query is one pre-generated request: the URL a client sends and the
// parsed form the benchmark uses to call the engine directly and to
// recompute the expected answer.
type query struct {
	kind           string // point, region, range
	path           string
	field          string
	epoch          int // -1 = latest
	lat, lon       float64
	maxLat, maxLon float64 // region only; lat/lon are the min corner
	limit          int
}

const queryListLen = 1 << 16

func pointQuery(lat, lon float64, field string, epoch int) query {
	q := query{kind: "point", field: field, epoch: epoch, lat: round4(lat), lon: round4(lon)}
	q.path = fmt.Sprintf("/v1/point?lat=%.4f&lon=%.4f&field=%s", q.lat, q.lon, field)
	if epoch >= 0 {
		q.path += fmt.Sprintf("&epoch=%d", epoch)
	}
	return q
}

// round4 keeps the parsed coordinate identical to the four decimals the
// URL carries.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// spherePoint draws a point uniformly over the sphere, in degrees, with
// longitude in [-180, 180).
func spherePoint(rng *rand.Rand) (lat, lon float64) {
	lat = math.Asin(2*rng.Float64()-1) * 180 / math.Pi
	lon = rng.Float64()*360 - 180
	if lon > 179.9999 {
		lon = 179.9999
	}
	return lat, lon
}

// hotQueries is the cache-friendly traffic: point queries only, latest
// epoch, two fields, a seeded set of hotspots with 0.2 degree jitter —
// at most 2 x hotspots tile keys, so every request after warm-up hits.
func hotQueries(seed int64, hotspots int) []query {
	rng := stream(seed, streamQueries)
	type spot struct{ lat, lon float64 }
	spots := make([]spot, hotspots)
	for i := range spots {
		lat, lon := spherePoint(rng)
		// Keep the jitter box off the poles and the date line.
		spots[i] = spot{math.Max(-89, math.Min(89, lat)), math.Max(-179, math.Min(179, lon))}
	}
	fields := []string{"ps", "t_sfc"}
	qs := make([]query, queryListLen)
	for i := range qs {
		s := spots[rng.Intn(len(spots))]
		qs[i] = pointQuery(s.lat+(rng.Float64()-0.5)*0.4, s.lon+(rng.Float64()-0.5)*0.4, fields[rng.Intn(2)], -1)
	}
	return qs
}

// scanQueries is the cache-hostile traffic: 75% point queries uniform
// over the sphere, every epoch and field (epochs x fields x 48 tile keys
// against a 96-tile cache), 20% 10 x 10 degree regions capped at 256
// cells, 5% time ranges over every epoch.
func scanQueries(seed int64, epochs int) []query {
	rng := stream(seed, streamQueries)
	qs := make([]query, queryListLen)
	for i := range qs {
		field := serve.FieldNames[rng.Intn(serve.NumFields)]
		epoch := rng.Intn(epochs)
		lat, lon := spherePoint(rng)
		switch r := rng.Float64(); {
		case r < 0.75:
			qs[i] = pointQuery(lat, lon, field, epoch)
		case r < 0.95:
			q := query{kind: "region", field: field, epoch: epoch, limit: 256}
			q.lat = round4(math.Min(lat, 80))
			q.lon = round4(math.Min(lon, 169.9))
			q.maxLat, q.maxLon = q.lat+10, q.lon+10
			q.path = fmt.Sprintf("/v1/region?min_lat=%.4f&max_lat=%.4f&min_lon=%.4f&max_lon=%.4f&field=%s&epoch=%d&limit=%d",
				q.lat, q.maxLat, q.lon, q.maxLon, field, epoch, q.limit)
			qs[i] = q
		default:
			q := query{kind: "range", field: field, epoch: -1, lat: round4(lat), lon: round4(lon)}
			q.path = fmt.Sprintf("/v1/range?lat=%.4f&lon=%.4f&field=%s&from=0", q.lat, q.lon, field)
			qs[i] = q
		}
	}
	return qs
}

// openSchedule returns the due time, in seconds from the start of the
// phase, of each request of one connection: evenly spaced at rate per
// second, each moved by a seeded jitter of up to a quarter interval.
func openSchedule(seed int64, conn int, rate, seconds float64) []float64 {
	rng := stream(seed, streamSchedule+conn)
	n := int(rate * seconds)
	gap := 1 / rate
	due := make([]float64, n)
	for i := range due {
		due[i] = (float64(i) + 0.5 + (rng.Float64()-0.5)*0.5) * gap
	}
	return due
}
