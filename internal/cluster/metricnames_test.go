package cluster

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// dynamicGatewayFamilies are families rendered with a caller-supplied
// prefix (trace-exporter counters, Go runtime telemetry) rather than a
// literal name at the observation site. They sit outside the static
// metricFamilies table — siwad-lint's metricreg analyzer exempts dynamic
// names for the same reason — so the runtime cross-check allowlists them.
var dynamicGatewayFamilies = map[string]bool{
	"siwa_gateway_traces_retained_total":     true,
	"siwa_gateway_traces_dropped_total":      true,
	"siwa_gateway_traces_retained_bytes":     true,
	"siwa_gateway_go_goroutines":             true,
	"siwa_gateway_go_heap_inuse_bytes":       true,
	"siwa_gateway_go_gc_pause_seconds_total": true,
	"siwa_build_info":                        true,
}

// TestGatewayMetricFamiliesRegistered is the runtime half of the
// metricreg contract for the gateway tier: every family in the
// metricFamilies table renders on /metrics, every rendered sample of a
// registered family carries exactly the registered label key, and only
// the documented dynamic families may appear outside the table. The
// static half — literal observation sites match the table — is enforced
// by siwad-lint.
func TestGatewayMetricFamiliesRegistered(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer backend.Close()
	g, err := New(Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}

	declared := map[string]bool{}
	type sample struct {
		family string
		label  string
		line   string
	}
	var samples []sample
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			if f := strings.Fields(line); len(f) >= 3 {
				declared[f[2]] = true
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		label := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			if j := strings.IndexByte(line[i+1:], '='); j >= 0 {
				label = line[i+1 : i+1+j]
			}
		}
		// Histogram series fold back onto their registered base family,
		// mirroring the metricreg analyzer's suffix handling.
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name {
				if _, ok := metricFamilies[base]; ok {
					name = base
				}
				break
			}
		}
		samples = append(samples, sample{family: name, label: label, line: line})
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan exposition: %v", err)
	}

	for family := range metricFamilies {
		if !declared[family] {
			t.Errorf("registered family %q is not declared by /metrics (stale metricFamilies entry?)", family)
		}
	}
	for _, s := range samples {
		want, ok := metricFamilies[s.family]
		if !ok {
			if !dynamicGatewayFamilies[s.family] {
				t.Errorf("unregistered family %q rendered by /metrics: %s", s.family, s.line)
			}
			continue
		}
		if s.label != want {
			t.Errorf("family %q rendered with label key %q, registered with %q: %s", s.family, s.label, want, s.line)
		}
	}
}
