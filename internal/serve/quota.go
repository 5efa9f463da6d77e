package serve

import (
	"sync"
	"time"
)

// Quotas is a per-tenant token-bucket rate limiter: each tenant holds
// up to Burst tokens, refilled at Rate tokens per second; a request
// spends one. A tenant out of tokens is rejected (the transport turns
// that into 429, never an error). Rate <= 0 disables limiting.
//
// Tenant names are chosen by clients, so the table is capped at
// maxTenants. A bucket that has refilled to burst is indistinguishable
// from an absent one, so on an insert at the cap every full bucket is
// dropped; if the table is still full the newcomer is out of tokens like
// any other tenant.
type Quotas struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time // injectable clock for tests
}

// maxTenants caps the bucket table (see Quotas).
const maxTenants = 4096

type bucket struct {
	tokens float64
	last   time.Time
}

// NewQuotas returns a limiter granting rate tokens/second with the
// given burst capacity per tenant.
func NewQuotas(rate, burst float64) *Quotas {
	if burst < 1 {
		burst = 1
	}
	return &Quotas{rate: rate, burst: burst, buckets: map[string]*bucket{}, now: time.Now}
}

// Allow spends one token of tenant's bucket, reporting whether the
// request may proceed.
func (q *Quotas) Allow(tenant string) bool {
	if q.rate <= 0 {
		return true
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b, ok := q.buckets[tenant]
	if !ok {
		if len(q.buckets) >= maxTenants {
			for name, old := range q.buckets {
				if q.level(old, now) >= q.burst {
					delete(q.buckets, name)
				}
			}
			if len(q.buckets) >= maxTenants {
				return false
			}
		}
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	} else {
		b.tokens, b.last = q.level(b, now), now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// level is b's token count once refilled up to now.
func (q *Quotas) level(b *bucket, now time.Time) float64 {
	return min(q.burst, b.tokens+now.Sub(b.last).Seconds()*q.rate)
}

// Tenants returns how many tenants hold a bucket (at most maxTenants).
func (q *Quotas) Tenants() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buckets)
}
