package cache

import (
	"fmt"
	"strings"
)

// PolicyType, LRU and ParsePolicy remain only because the benchmark
// harness (perfbench/serve.go) names the policy when it builds its cache.
// LRU is the one eviction policy; the type goes when that caller moves to
// core.NewSweepCache(capacity, path).
type PolicyType int

// LRU evicts the least recently used key.
const LRU PolicyType = iota

// String returns the flag spelling of the policy.
func (p PolicyType) String() string {
	if p == LRU {
		return "lru"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy accepts "" or "lru" and rejects every other name.
func ParsePolicy(s string) (PolicyType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "lru":
		return LRU, nil
	}
	return LRU, fmt.Errorf("cache: unknown policy %q (the only policy is lru)", s)
}
