package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"net/http"
)

// The gateway's report cache answers an exact repeat of a single analyze
// body without decoding it or calling a replica. The detectors are
// deterministic, so equal bodies (source, options, timeout and trace flag
// byte for byte) always ask for the same report. It is one memo.Cache,
// the same type as a replica's cache, keyed by the SHA-256 of the body
// that single-flight already computes.
//
// Entries come only from replicas: a single-flight leader stores a 200
// that the owning replica marked as a hit in its own report cache
// (service.CacheHeader). So a body asked once never enters, and nothing
// the replica would not cache (errors, sheds, timeouts, degraded reports)
// is ever stored. An entry is served only while the replica process that
// produced it still answers at its URL: the entry records the backend and
// the instance id the health prober last read from that backend's
// /readyz, and a restarted replica reports a new id. A replaced replica's
// entries therefore stop being served within one health interval; until
// the next probe, they are still served.

// reportCacheBytes is the report cache's byte budget. The fleet
// benchmark's hot-repeat pool of 256 programs fills about 0.4 MiB.
const reportCacheBytes = 2 << 20

// reportEntry is one stored report and the replica process it came from.
type reportEntry struct {
	report   json.RawMessage
	backend  *backend
	instance string
}

// SizeBytes charges the report, the key and a fixed overhead for the
// entry's bookkeeping.
func (e *reportEntry) SizeBytes() int64 {
	return int64(len(e.report)+sha256.Size) + 128
}

// fresh reports whether the replica process that produced the entry still
// answers at its URL: the backend is up, and its latest probe reported
// the instance the entry was stored under.
func (e *reportEntry) fresh() bool {
	return e.backend.up.Load() && e.backend.instanceID() == e.instance
}

// cachedReport returns the stored report for an exact request body, if a
// fresh one exists.
func (g *Gateway) cachedReport(key [sha256.Size]byte) (json.RawMessage, bool) {
	v, ok := g.reports.Get(string(key[:]))
	if !ok {
		return nil, false
	}
	e := v.(*reportEntry)
	if !e.fresh() {
		g.metrics.ReportStale.Add(1)
		return nil, false
	}
	g.metrics.ReportHits.Add(1)
	return e.report, true
}

// storeReport keeps the report of a single-flight leader's upstream
// answer when the replica served it from its own report cache. Only such
// a 200 is decoded, once per stored key; memo.Put replaces a stale entry
// in place.
func (g *Gateway) storeReport(key [sha256.Size]byte, res *upstream) {
	if res.status != http.StatusOK || !res.cacheHit {
		return
	}
	var body struct {
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(res.body, &body); err != nil || len(body.Report) == 0 {
		return
	}
	g.reports.Put(string(key[:]), &reportEntry{report: body.Report, backend: res.backend, instance: res.instance})
}
