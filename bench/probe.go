package bench

import (
	"fmt"
	"slices"
	"time"

	"cachegenie/internal/sqldb"
	"cachegenie/internal/sqlparse"
)

// probes size the layers below a decorator seam — the store under the
// server, the wire, the parser — by calling them directly on the warm stack
// after the traced pass.
type probes struct {
	wireOverheadUs float64
	storeGetNs     float64
	storeSetNs     float64
	parseUsPerStmt float64
	distinctStmts  int
}

const (
	probeRoundTrips = 2000
	probeStoreOps   = 20000
	probeParses     = 200
)

func (st *stack) probe() (probes, error) {
	var p probes
	// A key every workload keeps warm: user 1's row, re-read on each page.
	co := st.app.Objects["user_by_id"]
	key := co.MakeKey(sqldb.I64(flashUser))
	if _, err := co.Rows(sqldb.I64(flashUser)); err != nil {
		return p, fmt.Errorf("probe: %w", err)
	}
	st.genie.FlushInvalidations()

	store := st.stores[0]
	for i, pool := range st.pools {
		if _, ok := pool.Get(key); !ok {
			continue
		}
		store = st.stores[i]
		rtt := make([]int64, probeRoundTrips)
		for j := range rtt {
			t0 := time.Now()
			pool.Get(key)
			rtt[j] = int64(time.Since(t0))
		}
		direct := make([]int64, probeRoundTrips)
		for j := range direct {
			t0 := time.Now()
			store.Get(key)
			direct[j] = int64(time.Since(t0))
		}
		slices.Sort(rtt)
		slices.Sort(direct)
		p.wireOverheadUs = us(quantile(rtt, 0.5) - quantile(direct, 0.5))
		break
	}

	t0 := time.Now()
	for i := 0; i < probeStoreOps; i++ {
		store.Get(key)
	}
	p.storeGetNs = float64(time.Since(t0)) / probeStoreOps
	const probeKey = "geniebench:probe"
	value := make([]byte, 128)
	t0 = time.Now()
	for i := 0; i < probeStoreOps; i++ {
		store.Set(probeKey, value, 0)
	}
	p.storeSetNs = float64(time.Since(t0)) / probeStoreOps
	store.Delete(probeKey)

	// Parse every distinct statement the traced pass issued, weighted by
	// how often it was issued.
	st.conn.mu.Lock()
	freq := st.conn.sqlFreq
	st.conn.mu.Unlock()
	var weighted float64
	var total int64
	for sql, n := range freq {
		t0 := time.Now()
		for i := 0; i < probeParses; i++ {
			if _, err := sqlparse.Parse(sql); err != nil {
				return p, fmt.Errorf("probe: parsing %q: %w", sql, err)
			}
		}
		weighted += float64(time.Since(t0)) / probeParses * float64(n)
		total += n
	}
	p.parseUsPerStmt = us(div(weighted, float64(total)))
	p.distinctStmts = len(freq)
	return p, nil
}
