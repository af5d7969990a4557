package main

import (
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"
)

// metricDef is one reported metric: its name, unit and direction.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the fleet sees, measured with
// tracing off. Bounds are the share of the parent's median by which a
// metric may worsen before a change counts as a regression; they match
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops", "programs/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"slo_attainment", "fraction", "higher", 0.05},
	{"success_rate", "fraction", "higher", 0.001},
	{"retained_heap_mb", "MiB", "lower", 0.15},
}

// checked tells, per program of a request, whether its report matched the
// oracle.
func checked(r *result, ex map[int32]*expect) (ok, total int) {
	total = len(r.Req.Keys)
	if r.Status != http.StatusOK {
		return 0, total
	}
	for i, k := range r.Req.Keys {
		if e := ex[k]; e != nil && e.Bad == "" && r.Hashes[i] != 0 && r.Hashes[i] == e.Hash {
			ok++
		}
	}
	return ok, total
}

// roundScore is one round's end-to-end metrics plus the facts behind them.
type roundScore struct {
	Values    map[string]float64
	Samples   int // latency samples behind p50 and p99
	Attempted int // programs
	Failed    int
	LagP50Ms  float64
	LagP99Ms  float64
}

// score computes the end-to-end metrics of one round.
func score(s spec, ro *roundOut, ex map[int32]*expect) roundScore {
	var sc roundScore
	var good int
	var lats []float64
	var inLimit int
	limit := time.Duration(s.LimitMs * float64(time.Millisecond))
	var lags []float64
	for i := range ro.Results {
		r := &ro.Results[i]
		ok, total := checked(r, ex)
		sc.Attempted += total
		sc.Failed += total - ok
		good += ok
		lags = append(lags, ms(r.Lag))
		if s.Open && r.Req.Class == classBatch {
			continue // open-mix latency counts single requests only
		}
		lats = append(lats, ms(r.Lat))
		if ok == total && r.Lat <= limit {
			inLimit++
		}
	}
	sort.Float64s(lats)
	sort.Float64s(lags)
	sc.Samples = len(lats)
	sc.LagP50Ms, sc.LagP99Ms = percentile(lags, 0.5), percentile(lags, 0.99)
	sc.Values = map[string]float64{
		"setup_s":          ro.Setup.Seconds(),
		"throughput_ops":   float64(good) / ro.Window.Seconds(),
		"latency_p50_ms":   percentile(lats, 0.50),
		"latency_p99_ms":   percentile(lats, 0.99),
		"slo_attainment":   ratio(float64(inLimit), float64(len(lats))),
		"success_rate":     1 - ratio(float64(sc.Failed), float64(sc.Attempted)),
		"retained_heap_mb": float64(ro.Fleet.HeapInuse) / (1 << 20),
	}
	return sc
}

// warmFailures counts the warm-up's failed programs; they count against
// correctness but not against any metric.
func warmFailures(ro *roundOut, ex map[int32]*expect) (attempted, failed int) {
	for i := range ro.Warm {
		ok, total := checked(&ro.Warm[i], ex)
		attempted += total
		failed += total - ok
	}
	return attempted, failed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// summary is a metric over a run's rounds: the median, which is the
// reported value, the quartiles by Python's statistics.quantiles(n=4)
// (exclusive method), and every round's value.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Rounds []float64 `json:"rounds"`
}

func summarize(unit string, xs []float64) *summary {
	s := &summary{Unit: unit, Rounds: xs}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	n := len(v)
	switch {
	case n == 0:
	case n == 1:
		s.Median, s.Q1, s.Q3 = v[0], v[0], v[0]
	default:
		s.Median = v[n/2]
		if n%2 == 0 {
			s.Median = (v[n/2-1] + v[n/2]) / 2
		}
		q := func(i int) float64 {
			m := n + 1
			j := min(max(i*m/4, 1), n-1)
			delta := float64(i*m - j*4)
			return (v[j-1]*(4-delta) + v[j]*delta) / 4
		}
		s.Q1, s.Q3 = q(1), q(3)
	}
	return s
}

// spread estimates how far the median would move between runs: the
// interquartile distance of the medians of 1000 resamples of the rounds,
// as a share of the median. Resampling, rather than the rounds' own
// spread, keeps a few outlying rounds from counting as more doubt about
// the median than they cause.
func (s *summary) spread() float64 {
	n := len(s.Rounds)
	if n < 2 || s.Median == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(1))
	medians := make([]float64, 1000)
	resample := make([]float64, n)
	for i := range medians {
		for j := range resample {
			resample[j] = s.Rounds[rng.Intn(n)]
		}
		medians[i] = summarize(s.Unit, resample).Median
	}
	m := summarize(s.Unit, medians)
	return (m.Q3 - m.Q1) / math.Abs(s.Median)
}

// inputSummary describes what a workload's measured requests asked for:
// the properties the caches and the pipeline respond to.
func inputSummary(in *inputs, rounds []*roundOut, ex map[int32]*expect) map[string]float64 {
	var progs, repeatReq, repeatSrc, anomalous, loops, rdv, size float64
	for _, ro := range rounds {
		seenKey := map[int32]bool{}
		seenSrc := map[string]bool{}
		visit := func(rs []result, count bool) {
			for i := range rs {
				for _, k := range rs[i].Req.Keys {
					pk := in.Keys[k]
					if count {
						progs++
						if seenKey[k] {
							repeatReq++
						}
						if seenSrc[pk.Source] {
							repeatSrc++
						}
						if pk.Loops {
							loops++
						}
						if e := ex[k]; e != nil {
							rdv += float64(e.Rendezvous)
							size += float64(e.Size)
							if e.Anomalous {
								anomalous++
							}
						}
					}
					seenKey[k] = true
					seenSrc[pk.Source] = true
				}
			}
		}
		visit(ro.Warm, false)
		// Requests in send order: what a cache sees first is a miss.
		res := append([]result(nil), ro.Results...)
		sort.SliceStable(res, func(i, j int) bool { return res[i].Sent < res[j].Sent })
		visit(res, true)
	}
	return map[string]float64{
		"input.repeat_request_share":  ratio(repeatReq, progs),
		"input.repeat_source_share":   ratio(repeatSrc, progs),
		"input.anomalous_share":       ratio(anomalous, progs),
		"input.loop_share":            ratio(loops, progs),
		"input.rendezvous_nodes_mean": ratio(rdv, progs),
		"input.report_kb_mean":        ratio(size, progs) / 1024,
	}
}
