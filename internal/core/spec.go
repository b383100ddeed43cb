// Package core implements CacheGenie, the paper's contribution: declarative
// caching abstractions ("cache classes") for the query patterns ORMs
// generate, with automatic cache management. A programmer declares cached
// objects with Cacheable; CacheGenie then
//
//  1. derives the SQL query template for each cached object,
//  2. generates and installs database triggers (INSERT/UPDATE/DELETE on
//     every underlying table) that keep the cached data consistent — by
//     invalidating affected keys or incrementally updating them in place,
//  3. transparently intercepts matching ORM reads and serves them from the
//     cache, populating it from the database on a miss.
//
// The four cache classes are the paper's (§3.1): FeatureQuery (rows of one
// table by indexed columns), LinkQuery (relationship traversal through a
// join table), CountQuery (COUNT(*) by indexed columns), and TopKQuery
// (top-K rows by a sort column, maintained incrementally with a reserve).
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Class identifies a cache class.
type Class int

// Cache classes.
const (
	FeatureQuery Class = iota + 1
	LinkQuery
	CountQuery
	TopKQuery
)

var classNames = map[Class]string{
	FeatureQuery: "FeatureQuery",
	LinkQuery:    "LinkQuery",
	CountQuery:   "CountQuery",
	TopKQuery:    "TopKQuery",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Strategy is the cache-consistency strategy for a cached object (§3.1):
// update the cached entry in place (default), invalidate it, or let it
// expire on a TTL.
type Strategy int

// Strategies.
const (
	UpdateInPlace Strategy = iota
	Invalidate
	Expiry
)

var strategyNames = map[Strategy]string{
	UpdateInPlace: "update-in-place",
	Invalidate:    "invalidate",
	Expiry:        "expiry",
}

// String implements fmt.Stringer.
func (s Strategy) String() string { return strategyNames[s] }

// Link describes a LinkQuery's relationship chain: rows of the target model
// reached from a source value through a relation table. The paper's example
// — "the interest groups a user belongs to" — is
//
//	Link{ThroughModel: "Membership", SourceField: "user_id",
//	     JoinField: "group_id", TargetModel: "Group", TargetField: "id"}
type Link struct {
	// ThroughModel is the relation model (its table gets triggers too).
	ThroughModel string
	// SourceField is the through column the lookup value matches.
	SourceField string
	// JoinField is the through column joined to the target.
	JoinField string
	// TargetField is the target-model column joined (usually "id").
	TargetField string
}

// Spec declares one cached object — the arguments of the paper's
// cacheable(...) call.
type Spec struct {
	// Name uniquely identifies the cached object and prefixes its keys.
	Name string
	// Class selects the cache class.
	Class Class
	// MainModel is the model whose rows are cached (for LinkQuery, the
	// target model).
	MainModel string
	// WhereFields are the indexing columns (the paper's where_fields). For
	// LinkQuery this must be exactly {Link.SourceField}. The first field is
	// the key's placement: a cache ring stores every key with the same first
	// value on the same node, so list the column a page's lookups share
	// (a user id) first.
	WhereFields []string
	// Strategy is the consistency strategy (default update-in-place).
	Strategy Strategy
	// TTL applies to Expiry strategy (and optionally bounds other
	// strategies; 0 = no expiry).
	TTL time.Duration
	// Opaque disables transparent interception for this object; the
	// programmer calls Rows/Count on the CachedObject explicitly
	// (the paper's use_transparently=False opt-out, §3.3).
	Opaque bool

	// Link configures LinkQuery.
	Link *Link

	// SortField, SortDesc, K and Reserve configure TopKQuery. Reserve is
	// the number of extra rows kept beyond K to absorb deletes without
	// recomputation (paper §3.2, "plus a few more"); 0 means DefaultReserve.
	SortField string
	SortDesc  bool
	K         int
	Reserve   int
}

// DefaultReserve is the top-K reserve used when Spec.Reserve is 0.
const DefaultReserve = 5

// validate checks the spec for structural problems.
func (s *Spec) validate() error {
	if s.Name == "" {
		return errors.New("core: spec needs a Name")
	}
	if strings.ContainsAny(s.Name, ": ") {
		return fmt.Errorf("core: spec name %q must not contain ':' or spaces", s.Name)
	}
	if s.MainModel == "" {
		return errors.New("core: spec needs a MainModel")
	}
	switch s.Class {
	case FeatureQuery, CountQuery:
		if len(s.WhereFields) == 0 {
			return fmt.Errorf("core: %s %q needs WhereFields", s.Class, s.Name)
		}
		if s.Link != nil {
			return fmt.Errorf("core: %s %q must not set Link", s.Class, s.Name)
		}
	case TopKQuery:
		if len(s.WhereFields) == 0 {
			return fmt.Errorf("core: TopKQuery %q needs WhereFields", s.Name)
		}
		if s.SortField == "" {
			return fmt.Errorf("core: TopKQuery %q needs SortField", s.Name)
		}
		if s.K <= 0 {
			return fmt.Errorf("core: TopKQuery %q needs K > 0", s.Name)
		}
	case LinkQuery:
		if s.Link == nil {
			return fmt.Errorf("core: LinkQuery %q needs Link", s.Name)
		}
		if s.Link.ThroughModel == "" || s.Link.SourceField == "" ||
			s.Link.JoinField == "" || s.Link.TargetField == "" {
			return fmt.Errorf("core: LinkQuery %q has an incomplete Link", s.Name)
		}
		if len(s.WhereFields) != 1 || s.WhereFields[0] != s.Link.SourceField {
			return fmt.Errorf("core: LinkQuery %q WhereFields must be exactly {Link.SourceField}", s.Name)
		}
	default:
		return fmt.Errorf("core: spec %q has unknown class %d", s.Name, int(s.Class))
	}
	if s.Strategy == Expiry && s.TTL <= 0 {
		return fmt.Errorf("core: Expiry strategy for %q needs a TTL", s.Name)
	}
	return nil
}

// reserve returns the effective top-K reserve.
func (s *Spec) reserve() int {
	if s.Reserve > 0 {
		return s.Reserve
	}
	return DefaultReserve
}
