package cluster

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/service"
)

// healthTimeout bounds each probe round trip.
const healthTimeout = time.Second

// probe checks one replica's liveness AND readiness: /healthz proves the
// process is alive, /readyz proves it is accepting new work (a draining
// replica answers 503 there while it finishes in-flight requests, and
// must stop receiving traffic before it disappears). Both must be 200.
// It also returns the instance id the /readyz body names ("" when it
// names none).
func (g *Gateway) probe(ctx context.Context, b *backend) (string, bool) {
	var ready service.Readiness
	for _, path := range []string{"/healthz", "/readyz"} {
		pctx, cancel := context.WithTimeout(ctx, healthTimeout)
		ok := func() bool {
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.name+path, nil)
			if err != nil {
				return false
			}
			resp, err := g.client.Do(req)
			if err != nil {
				return false
			}
			defer resp.Body.Close()
			if path == "/readyz" {
				// A body that does not decode names no instance.
				_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<10)).Decode(&ready)
			}
			return resp.StatusCode == http.StatusOK
		}()
		cancel()
		if !ok {
			return "", false
		}
	}
	return ready.Instance, true
}

// CheckNow probes every backend once, in parallel, and updates their
// up/down state and instance ids. Tests call it directly for
// deterministic health transitions; RunChecker calls it on a timer.
func (g *Gateway) CheckNow(ctx context.Context) {
	done := make(chan struct{}, len(g.backends))
	for _, b := range g.backends {
		go func(b *backend) {
			defer func() { done <- struct{}{} }()
			instance, up := g.probe(ctx, b)
			if up {
				// The id goes in before up does, so a replaced replica
				// never looks up while its predecessor's id is current.
				b.instance.Store(&instance)
			}
			was := b.up.Swap(up)
			if was != up && g.cfg.Logger != nil {
				level := slog.LevelWarn
				if up {
					level = slog.LevelInfo
				}
				g.cfg.Logger.LogAttrs(ctx, level, "backend health changed",
					slog.String("backend", b.name), slog.Bool("up", up))
			}
		}(b)
	}
	for range g.backends {
		<-done
	}
}

// RunChecker probes immediately and then every HealthInterval until ctx
// is cancelled.
func (g *Gateway) RunChecker(ctx context.Context) {
	g.CheckNow(ctx)
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.CheckNow(ctx)
		}
	}
}
