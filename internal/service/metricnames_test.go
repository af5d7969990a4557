package service

import (
	"bufio"
	"net/http"
	"strings"
	"testing"
)

// dynamicFamilies are families rendered with a caller-supplied prefix
// (trace-exporter counters, Go runtime telemetry) rather than a literal
// name at the observation site. They are deliberately outside the static
// metricFamilies table — siwad-lint's metricreg analyzer exempts dynamic
// names for the same reason — so the runtime cross-check allowlists them
// here instead.
var dynamicFamilies = map[string]bool{
	"siwa_traces_retained_total":     true,
	"siwa_traces_dropped_total":      true,
	"siwa_traces_retained_bytes":     true,
	"siwa_go_goroutines":             true,
	"siwa_go_heap_inuse_bytes":       true,
	"siwa_go_gc_pause_seconds_total": true,
	"siwa_build_info":                true,
}

type promSample struct {
	family string
	label  string // first label key, "" when unlabeled
	line   string
}

// scrapeExposition parses a Prometheus text exposition into the set of
// families declared by # TYPE lines and the individual sample lines.
// Histogram _bucket/_sum/_count series fold back onto their base family
// when that base is registered, mirroring the metricreg analyzer.
func scrapeExposition(t *testing.T, url string, registered map[string]string) (map[string]bool, []promSample) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	declared := map[string]bool{}
	var samples []promSample
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
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name {
				if _, ok := registered[base]; ok {
					name = base
				}
				break
			}
		}
		samples = append(samples, promSample{family: name, label: label, line: line})
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan exposition: %v", err)
	}
	return declared, samples
}

// TestMetricFamiliesRegistered is the runtime half of the metricreg
// contract: every family in the metricFamilies table is actually rendered
// by /metrics, every rendered sample of a registered family carries
// exactly the registered label key, and nothing outside the table shows
// up except the documented dynamic families. The static half — literal
// observation sites match the table — is enforced by siwad-lint.
func TestMetricFamiliesRegistered(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	declared, samples := scrapeExposition(t, ts.URL+"/metrics", metricFamilies)

	for family := range metricFamilies {
		if !declared[family] {
			t.Errorf("registered family %q is not declared by /metrics (stale metricFamilies entry?)", family)
		}
	}
	for _, s := range samples {
		want, ok := metricFamilies[s.family]
		if !ok {
			if !dynamicFamilies[s.family] {
				t.Errorf("unregistered family %q rendered by /metrics: %s", s.family, s.line)
			}
			continue
		}
		if s.label != want {
			t.Errorf("family %q rendered with label key %q, registered with %q: %s", s.family, s.label, want, s.line)
		}
	}
}
