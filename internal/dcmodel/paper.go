package dcmodel

import (
	"fmt"

	"billcap/internal/fattree"
	"billcap/internal/queueing"
)

// Paper site constants (paper §VI-A), with two documented deviations:
//
//   - MaxServers is 700 000 rather than the paper's "up to 300 000": with the
//     paper's own per-server watts, 300 000 servers draw < 45 MW per site,
//     which cannot produce the multi-million-dollar monthly bills of the
//     paper's budget experiments. 700 000 servers per site put fleet power in
//     the 100–230 MW band the paper's dollar figures imply. See DESIGN.md.
//   - The per-server wattage the paper states (88.88 / 34.10 / 49.90 W) is
//     interpreted as the draw at 80% utilization of the linear law
//     sp(u) = I + D·u, with I = 0.5·sp80 and peak 1.125·sp80.
const (
	paperMaxServers = 700_000
	// paperSLAHours is the response-time set point Rs: 5 ms, comfortably
	// above the slowest site's 3.33 ms service time.
	paperSLAHours = 0.005 / 3600
	// paperK is the workload variability (C_A²+C_B²)/2 observed by the bill
	// capper.
	paperK = 1.0
)

// paperSpec is the transcription of Table-like data in paper §VI-A.
type paperSpec struct {
	name               string
	sp80W              float64 // per-server watts at 80% utilization
	muPerSec           float64 // per-server capacity, requests/second
	edgeW, aggW, coreW float64
	coe                float64
	capMW              float64
}

func paperSpecs() []paperSpec {
	return []paperSpec{
		// DC1: 2.0 GHz AMD Athlon, location B.
		{name: "DC1-B", sp80W: 88.88, muPerSec: 500, edgeW: 84, aggW: 84, coreW: 240, coe: 1.94, capMW: 105},
		// DC2: 1.2 GHz Intel Pentium 4630, location C.
		{name: "DC2-C", sp80W: 34.10, muPerSec: 300, edgeW: 70, aggW: 70, coreW: 260, coe: 1.39, capMW: 48},
		// DC3: 2.9 GHz Intel Pentium D950, location D.
		{name: "DC3-D", sp80W: 49.90, muPerSec: 725, edgeW: 75, aggW: 75, coreW: 240, coe: 1.74, capMW: 63},
	}
}

func siteFromSpec(sp paperSpec, maxServers int) *Site {
	net, err := fattree.ForHosts(maxServers)
	if err != nil {
		panic(fmt.Sprintf("dcmodel: %v", err))
	}
	return &Site{
		Name:         sp.name,
		MaxServers:   maxServers,
		IdleW:        0.5 * sp.sp80W,
		PeakW:        1.125 * sp.sp80W,
		Queue:        queueing.Model{Mu: sp.muPerSec * 3600, K: paperK},
		RespSLAHours: paperSLAHours,
		Net:          net,
		EdgeW:        sp.edgeW,
		AggW:         sp.aggW,
		CoreW:        sp.coreW,
		CoolingEff:   sp.coe,
		PowerCapMW:   sp.capMW,
	}
}

// PaperSites returns the three data centers of the paper's evaluation.
func PaperSites() []*Site {
	specs := paperSpecs()
	out := make([]*Site, len(specs))
	for i, sp := range specs {
		out[i] = siteFromSpec(sp, paperMaxServers)
	}
	return out
}

// SyntheticSites returns n sites for scalability experiments (the paper's
// solver-latency claim uses 13 data centers). Sites cycle through the three
// paper configurations with mild per-cycle perturbations so no two sites are
// exactly interchangeable.
func SyntheticSites(n int) []*Site {
	specs := paperSpecs()
	out := make([]*Site, n)
	for i := 0; i < n; i++ {
		sp := specs[i%len(specs)]
		cycle := float64(i / len(specs))
		sp.name = fmt.Sprintf("%s#%d", sp.name, i)
		sp.sp80W *= 1 + 0.03*cycle
		sp.muPerSec *= 1 + 0.02*cycle
		sp.capMW *= 1 + 0.01*cycle
		out[i] = siteFromSpec(sp, paperMaxServers)
	}
	return out
}

// paperClassNames name the paper's three server generations (§VI-A), in
// paperSpecs order.
var paperClassNames = []string{"athlon-2.0", "pentium-1.2", "pentiumD-2.9"}

// PaperHeteroSites returns the three paper locations refitted as
// heterogeneous fleets ("data center repair, replacement, and expansion" —
// paper §IX): each site mixes the three server generations in a different
// proportion, as a partially upgraded site would, with the same fabric,
// cooling and cap parameters as the homogeneous model.
func PaperHeteroSites() []*Site {
	specs := paperSpecs()
	mixes := [][3]int{
		{400_000, 200_000, 100_000},
		{100_000, 450_000, 150_000},
		{150_000, 100_000, 450_000},
	}
	out := make([]*Site, len(specs))
	for i, sp := range specs {
		s := siteFromSpec(sp, mixes[i][0]+mixes[i][1]+mixes[i][2])
		s.MaxServers, s.IdleW, s.PeakW, s.Queue.Mu = 0, 0, 0, 0
		for k, n := range mixes[i] {
			g := specs[k]
			s.Classes = append(s.Classes, ServerClass{
				Name:  paperClassNames[k],
				Count: n,
				Mu:    g.muPerSec * 3600,
				IdleW: 0.5 * g.sp80W,
				PeakW: 1.125 * g.sp80W,
			})
		}
		out[i] = s
	}
	return out
}
