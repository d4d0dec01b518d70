package main

import "time"

// scale is a world's size: its countries (nil means all 150 study
// countries) and sites per country.
type scale struct {
	Countries []string `json:"countries,omitempty"`
	Sites     int      `json:"sites"`
}

// sizes fixes every workload's input sizes and load. The benchmark runs
// fullSizes; the self-tests run the same code at toy sizes.
type sizes struct {
	SetupReps int `json:"setup_reps"`
	// Workers bounds measurement, scoring and crawl concurrency, and Conns
	// the serve workload's connections: the load is sized for two cores.
	Workers int `json:"workers"`
	Conns   int `json:"conns"`

	Paper scale `json:"paper"`
	// FastRuns is how many fast runs the paper workload times per
	// reproduction, the reproduction's own included.
	FastRuns int   `json:"fast_runs"`
	Store    scale `json:"store"`
	Serve    scale `json:"serve"`
	// ServeWorlds distinct worlds take turns as the published generations;
	// ServeRate is the open-loop request rate, ReloadEvery the interval
	// between generation publishes and Burst the length of the closed-loop
	// saturation burst after the open loop.
	ServeWorlds int           `json:"serve_worlds"`
	ServeRate   float64       `json:"serve_rate"`
	ReloadEvery time.Duration `json:"reload_every"`
	Burst       time.Duration `json:"burst"`
	Crawl       scale         `json:"crawl"`
	// StoreRounds and Crawls are the fewest store rounds and crawls a run
	// times, past --seconds if need be: their times move with neighbour
	// load on a shared machine, and a median over a longer window moves
	// less.
	StoreRounds int `json:"store_rounds"`
	Crawls      int `json:"crawls"`
	// Probes is how many crawled sites the traced crawl re-resolves and
	// re-scans to time the resolver and the TLS scanner alone.
	Probes int `json:"probes"`
}

// crawlWorld is the crawl workload's world: ten countries spanning the
// continents the live world serves. The serve workload publishes
// generations of the same size. At the store workload's 300K sites, the
// cold renders after each reload set the serve tail, and it moved by more
// than its bound from seed to seed (README.md gives the figures).
var crawlWorld = scale{Countries: []string{"TH", "CZ", "US", "IR", "BR", "DE", "NG", "JP", "IN", "RU"}, Sites: 400}

var fullSizes = sizes{
	SetupReps:   3,
	Workers:     2,
	Conns:       2,
	Paper:       scale{Sites: 2000},
	FastRuns:    3,
	Store:       scale{Sites: 2000},
	Serve:       crawlWorld,
	ServeWorlds: 2,
	ServeRate:   5000,
	ReloadEvery: 500 * time.Millisecond,
	Burst:       3 * time.Second,
	Crawl:       crawlWorld,
	StoreRounds: 15,
	Crawls:      3,
	Probes:      200,
}

// of returns the sizes that matter to one workload, for the result stamp.
func (s sizes) of(workload string) any {
	switch workload {
	case "paper":
		return map[string]any{"world": s.Paper, "fast_runs": s.FastRuns}
	case "store":
		return map[string]any{"world": s.Store, "min_rounds": s.StoreRounds}
	case "serve":
		return map[string]any{"world": s.Serve, "worlds": s.ServeWorlds, "rate": s.ServeRate, "conns": s.Conns, "reload_every": s.ReloadEvery.String(), "burst": s.Burst.String()}
	case "crawl":
		return map[string]any{"world": s.Crawl, "workers": s.Workers, "min_crawls": s.Crawls}
	}
	return nil
}
