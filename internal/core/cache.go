package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"sst/internal/cache"
	"sst/internal/config"
	"sst/internal/sim"
)

// Sweep memoization. Every design point in this package is a pure function
// of its fully-resolved configuration, so a content-addressed cache keyed
// by config.CanonicalHash (or an explicit versioned parameter key for the
// network/weak-scaling cells) can substitute a stored NodeResult for a
// re-simulation with no observable difference: the stored structs are
// plain value types, copied on both store and load, so a hit is
// field-for-field identical to the original run and immune to caller
// mutation. Repeated and overlapping grids — the common case for
// interactive DSE — then pay only for what is new.

// resultEnvelope wraps a cached value for the persistent tier with its
// concrete type, since a cache file can hold both node results and the
// scalar times of the network/weak-scaling studies.
type resultEnvelope struct {
	Kind string          `json:"kind"`
	Val  json.RawMessage `json:"val"`
}

// ResultCodec serializes the value types core studies cache — *NodeResult
// and sim.Time — using the same exact-round-trip JSON encoding as the
// sweep journal.
func ResultCodec() cache.Codec {
	return cache.Codec{
		Encode: func(v any) ([]byte, error) {
			var env resultEnvelope
			var err error
			switch x := v.(type) {
			case *NodeResult:
				env.Kind = "node"
				env.Val, err = json.Marshal(x)
			case sim.Time:
				env.Kind = "time"
				env.Val, err = json.Marshal(x)
			default:
				return nil, fmt.Errorf("core: cache codec: unsupported type %T", v)
			}
			if err != nil {
				return nil, err
			}
			return json.Marshal(env)
		},
		Decode: func(data []byte) (any, error) {
			var env resultEnvelope
			if err := json.Unmarshal(data, &env); err != nil {
				return nil, err
			}
			switch env.Kind {
			case "node":
				res := new(NodeResult)
				if err := json.Unmarshal(env.Val, res); err != nil {
					return nil, err
				}
				return res, nil
			case "time":
				var t sim.Time
				if err := json.Unmarshal(env.Val, &t); err != nil {
					return nil, err
				}
				return t, nil
			}
			return nil, fmt.Errorf("core: cache codec: unknown kind %q", env.Kind)
		},
	}
}

// NewSweepCache builds a result cache wired with the core codec; path ""
// means memory-only. The cache is LRU; policy and shadows remain for the
// benchmark harness, which still passes them, and must be cache.LRU and
// empty.
func NewSweepCache(capacity int, policy cache.PolicyType, shadows []cache.PolicyType, path string) (*cache.Cache, error) {
	if policy != cache.LRU || len(shadows) > 0 {
		return nil, fmt.Errorf("core: result cache policy %v with %d shadow policies: only lru without shadows is supported", policy, len(shadows))
	}
	return cache.New(cache.Options{
		Capacity: capacity,
		Path:     path,
		Codec:    ResultCodec(),
	})
}

// RunMachineCached is RunMachineCtx behind the result cache: a hit returns
// a copy of the stored NodeResult (and true) without building a node; a
// miss simulates, stores a copy, and returns the fresh result. A nil cache
// degrades to a plain RunMachineCtx. Config hashing failures are real
// errors (the config would not simulate either); cache file-tier failures
// never reach here — the cache degrades itself to in-memory-only and
// reports the fault through its Stats (a sweep must not fail because its
// accelerator's disk did). Put can still error on codec failures, which
// are propagated: they mean the result type itself cannot round-trip.
func RunMachineCached(ctx context.Context, c *cache.Cache, cfg *config.MachineConfig) (*NodeResult, bool, error) {
	if c == nil {
		res, err := RunMachineCtx(ctx, cfg)
		return res, false, err
	}
	key, err := cfg.CanonicalHash()
	if err != nil {
		return nil, false, err
	}
	if v, ok := c.Get(key); ok {
		cp := *(v.(*NodeResult)) // value struct: shallow copy is deep
		return &cp, true, nil
	}
	res, err := RunMachineCtx(ctx, cfg)
	if err != nil {
		return nil, false, err
	}
	cp := *res
	if err := c.Put(key, &cp, 0); err != nil {
		return nil, false, err
	}
	return res, false, nil
}

// runMachinePoint is the study-side helper: one design point through the
// sweep's cache, if any.
func runMachinePoint(ctx context.Context, opts SweepOptions, cfg *config.MachineConfig) (*NodeResult, error) {
	res, _, err := RunMachineCached(ctx, opts.Cache, cfg)
	return res, err
}

// cachedTime memoizes a scalar-time design point (network and weak-scaling
// cells) under an explicit versioned key.
func cachedTime(c *cache.Cache, key string, compute func() (sim.Time, error)) (sim.Time, error) {
	if c == nil {
		return compute()
	}
	if v, ok := c.Get(key); ok {
		return v.(sim.Time), nil
	}
	t, err := compute()
	if err != nil {
		return 0, err
	}
	if err := c.Put(key, t, 0); err != nil {
		return 0, err
	}
	return t, nil
}

// netPointKey addresses one network-study cell. The "net/v1" version tag
// covers everything the key cannot see — torusFor's shape choice and
// noc.DefaultConfig's parameters — so changing either orphans stale
// entries instead of serving them.
func netPointKey(profile string, nodes, steps int, fraction float64) string {
	return fmt.Sprintf("net/v1/%s/n%d/s%d/f%016x", profile, nodes, steps, math.Float64bits(fraction))
}

// weakPointKey addresses one weak-scaling cell; every SolverProfile field
// is load-bearing, so all of them are in the key.
func weakPointKey(p SolverProfile, ranks, iters int) string {
	return fmt.Sprintf("weak/v1/%s/h%d/nb%d/ar%d/xs%d/c%d/r%d/i%d",
		p.Name, p.HaloBytes, p.Neighbors, p.AllReduces, p.ExtraSmallMsgs, p.ComputePerIter, ranks, iters)
}
