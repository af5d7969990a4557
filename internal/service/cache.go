package service

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"sync"

	siwa "repro"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/waves"
)

// CacheKey content-addresses one analysis: the SHA-256 of the program
// source and the canonicalized options. Two requests that normalize to
// the same key are guaranteed to produce the same JSONReport.
type CacheKey [sha256.Size]byte

func (k CacheKey) String() string { return fmt.Sprintf("%x", k[:8]) }

// Key computes the content address of (source, options). Options are
// canonicalized first — zero-value limits are replaced by the defaults the
// pipeline would apply — so e.g. EnumerateLimit 0 and
// core.DefaultEnumerateLimit share an entry.
// The hashed bytes are the header "siwa-report-v<schema>\x00algo=<n>;
// all=<bool>;...;loopLimit=<n>\x00" followed by the source, rendered into
// a pooled buffer, so a key costs no allocation once the pool is warm.
func Key(source string, opt siwa.Options) CacheKey {
	opt = canonicalize(opt)
	buf := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(buf)
	b := append((*buf)[:0], "siwa-report-v"...)
	b = strconv.AppendInt(b, int64(siwa.SchemaVersion), 10)
	b = strconv.AppendInt(append(b, "\x00algo="...), int64(opt.Algorithm), 10)
	b = strconv.AppendBool(append(b, ";all="...), opt.AllAlgorithms)
	b = strconv.AppendBool(append(b, ";c4="...), opt.Constraint4)
	b = strconv.AppendBool(append(b, ";enum="...), opt.Enumerate)
	b = strconv.AppendInt(append(b, ";enumLimit="...), int64(opt.EnumerateLimit), 10)
	b = strconv.AppendBool(append(b, ";fifo="...), opt.FIFO)
	b = strconv.AppendBool(append(b, ";exact="...), opt.Exact)
	b = strconv.AppendInt(append(b, ";maxStates="...), int64(opt.ExactOptions.MaxStates), 10)
	b = strconv.AppendInt(append(b, ";maxAnomalies="...), int64(opt.ExactOptions.MaxAnomalies), 10)
	b = strconv.AppendInt(append(b, ";loopLimit="...), int64(opt.ExactOptions.LoopExpansionLimit), 10)
	b = append(append(b, 0), source...)
	*buf = b
	return sha256.Sum256(b)
}

var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// canonicalize replaces zero-value limits with the defaults each pipeline
// stage would substitute, so equivalent requests address the same entry.
// Tracing options (Options.Trace/Tracer, waves Traces) are excluded from
// the key on purpose: a trace does not change the report, so traced and
// untraced requests share an entry. The cached value never carries a span
// tree — traces are recorded per-run and echoed outside the report.
func canonicalize(opt siwa.Options) siwa.Options {
	if opt.EnumerateLimit == 0 {
		opt.EnumerateLimit = core.DefaultEnumerateLimit
	}
	if opt.ExactOptions.MaxStates == 0 {
		opt.ExactOptions.MaxStates = waves.DefaultMaxStates
	}
	if opt.ExactOptions.MaxAnomalies == 0 {
		opt.ExactOptions.MaxAnomalies = waves.DefaultMaxAnomalies
	}
	if opt.ExactOptions.LoopExpansionLimit == 0 {
		opt.ExactOptions.LoopExpansionLimit = cfg.DefaultExpansionLimit
	}
	opt.ExactOptions = waves.Options{
		MaxStates:          opt.ExactOptions.MaxStates,
		MaxAnomalies:       opt.ExactOptions.MaxAnomalies,
		LoopExpansionLimit: opt.ExactOptions.LoopExpansionLimit,
	}
	// Execution knobs are folded out of the content address structurally,
	// not just by the key printer skipping them: Parallelism never changes
	// verdicts (sweep merges are deterministic), tracing never changes the
	// report, Limits and Degrade only turn requests into errors or degraded
	// runs (neither is ever cached), and the stage cache changes where
	// artifacts come from, not what they are. Zeroing them here guarantees
	// that a future field added to the key format cannot silently split
	// entries by execution policy.
	opt.Parallelism = 0
	opt.Trace = false
	opt.Tracer = nil
	opt.Limits = siwa.Limits{}
	opt.Degrade = false
	opt.StageCache = nil
	return opt
}
