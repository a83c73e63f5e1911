package jobs

import (
	"sync"
	"time"
)

// QuotaConfig bounds per-tenant admission. The zero value disables both
// limits.
type QuotaConfig struct {
	// JobsPerSecond is the sustained per-tenant job-admission rate; 0
	// disables rate limiting.
	JobsPerSecond float64
	// Burst is the token-bucket depth; 0 defaults to the larger of
	// JobsPerSecond and 1, so a tenant can always submit at least one job
	// after an idle second.
	Burst int
	// MaxInflight caps a tenant's live (queued + running) jobs; 0
	// disables the cap.
	MaxInflight int
}

// tenantBucket is one tenant's token bucket plus inflight gauge.
type tenantBucket struct {
	tokens   float64
	last     time.Time
	inflight int
}

// quotas tracks per-tenant admission state. All methods are safe for
// concurrent use.
type quotas struct {
	mu  sync.Mutex
	cfg QuotaConfig
	by  map[string]*tenantBucket
}

func newQuotas(cfg QuotaConfig) *quotas {
	if cfg.JobsPerSecond > 0 && cfg.Burst <= 0 {
		cfg.Burst = int(cfg.JobsPerSecond)
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &quotas{cfg: cfg, by: make(map[string]*tenantBucket)}
}

// admit charges tenant for n new jobs at time now. It is all-or-nothing:
// either every job is admitted (tokens consumed, inflight raised) or none
// is and the blocking limit is reported.
func (q *quotas) admit(tenant string, n int, now time.Time) error {
	if n == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.by[tenant]
	if b == nil {
		b = &tenantBucket{tokens: float64(q.cfg.Burst), last: now}
		q.by[tenant] = b
	}
	if q.cfg.JobsPerSecond > 0 {
		b.tokens += float64(now.Sub(b.last).Seconds() * q.cfg.JobsPerSecond)
		if max := float64(q.cfg.Burst); b.tokens > max {
			b.tokens = max
		}
		b.last = now
		if b.tokens < float64(n) {
			return &QuotaError{Tenant: tenant, Limit: "rate",
				Detail: "per-tenant submission rate exceeded"}
		}
	}
	if q.cfg.MaxInflight > 0 && b.inflight+n > q.cfg.MaxInflight {
		return &QuotaError{Tenant: tenant, Limit: "inflight",
			Detail: "per-tenant in-flight job cap exceeded"}
	}
	if q.cfg.JobsPerSecond > 0 {
		b.tokens -= float64(n)
	}
	b.inflight += n
	return nil
}

// release returns n inflight slots to tenant when jobs reach a terminal
// state.
func (q *quotas) release(tenant string, n int) {
	if n == 0 {
		return
	}
	q.mu.Lock()
	if b := q.by[tenant]; b != nil {
		b.inflight -= n
		if b.inflight < 0 {
			b.inflight = 0
		}
	}
	q.mu.Unlock()
}

// QuotaError reports a per-tenant admission rejection; the serving layer
// maps it to 429.
type QuotaError struct {
	Tenant string
	Limit  string // "rate" or "inflight"
	Detail string
}

func (e *QuotaError) Error() string {
	return "jobs: tenant " + e.Tenant + ": " + e.Detail
}
