package core

import (
	"fmt"
	"testing"
	"time"

	"cachegenie/internal/orm"
	"cachegenie/internal/rowlist"
)

// BenchmarkCachedReadVsDirect contrasts the intercepted cache-hit path with
// the NoCache direct path for the same query, in-process (no injected
// latency): the middleware's own overhead.
func BenchmarkCachedReadVsDirect(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		s := newStack(b)
		s.cacheable(b, profileSpec(UpdateInPlace))
		_, _ = s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "x"})
		if _, err := s.reg.Objects("Profile").Filter("user_id", 1).Get(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.reg.Objects("Profile").Filter("user_id", 1).Get(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		s := newStack(b)
		_, _ = s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "x"})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.reg.Objects("Profile").Filter("user_id", 1).Get(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTriggerMaintenanceWrite measures the write-side cost of cache
// maintenance per strategy.
func BenchmarkTriggerMaintenanceWrite(b *testing.B) {
	for _, strategy := range []Strategy{UpdateInPlace, Invalidate} {
		b.Run(strategy.String(), func(b *testing.B) {
			s := newStack(b)
			s.cacheable(b, profileSpec(strategy))
			_, _ = s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "x"})
			if _, err := s.reg.Objects("Profile").Filter("user_id", 1).Get(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.reg.Objects("Profile").Filter("user_id", 1).
					Update(orm.Fields{"bio": fmt.Sprintf("v%d", i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopKTriggerInsert measures the ordered-list maintenance on the
// paper's running example.
func BenchmarkTopKTriggerInsert(b *testing.B) {
	s := newStack(b)
	s.cacheable(b, topkSpec(20, 5))
	base := time.Unix(1e6, 0)
	postAt(s, b, 1, "seed", base)
	if _, err := wallQS(s, 1, 20).All(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.reg.Insert("Wall", orm.Fields{
			"user_id": 1, "content": "p",
			"date_posted": base.Add(time.Duration(i) * time.Second),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPayloadCodec measures the cache payload round trip for a
// typical 20-row top-K list.
func BenchmarkPayloadCodec(b *testing.B) {
	s := newStack(b)
	s.cacheable(b, topkSpec(20, 5))
	base := time.Unix(1e6, 0)
	for i := 0; i < 25; i++ {
		postAt(s, b, 1, fmt.Sprintf("post-%d", i), base.Add(time.Duration(i)*time.Minute))
	}
	rows, err := wallQS(s, 1, 20).NoCache().All()
	if err != nil {
		b.Fatal(err)
	}
	m, _ := s.reg.Model("Wall")
	p := rowlist.List{}
	for _, o := range rows {
		p.Rows = append(p.Rows, s.reg.ObjectToRow(m, o))
	}
	enc := rowlist.Encode(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc2 := rowlist.Encode(p)
		if _, err := rowlist.Decode(enc2); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(enc)))
}
