package bench

import (
	"fmt"
	"maps"
	"slices"

	"cachegenie/internal/core"
	"cachegenie/internal/sqldb"
)

// auditReport is the outcome of the correctness check.
type auditReport struct {
	// Checked counts cached entries compared with the database; entries the
	// cache did not hold are skipped, since a miss reads the database.
	Checked    int
	Violations int
	// Details keeps the first few violations for the report.
	Details []string
	// Recovery is what reopening the crashed durable database found.
	Recovery sqldb.RecoveryInfo
}

func (a *auditReport) violate(format string, args ...any) {
	a.Violations++
	if len(a.Details) < 5 {
		a.Details = append(a.Details, fmt.Sprintf(format, args...))
	}
}

// auditHotUsers and auditStride pick the users the audit reads: every one of
// the auditHotUsers most popular (they take most sessions and nearly all
// writes, so their entries are the ones triggers have worked on) and every
// auditStride-th of the rest. Bookmarks are all read.
const (
	auditHotUsers = 100
	auditStride   = 10
)

// audit checks the paper's promise on the quiescent stack: for every cached
// object and every sampled user and every bookmark id, a value served from
// the cache equals what the object's query template returns from the
// database. On a
// durable stack it then crashes the database, reopens the same directory
// and requires every acknowledged insert to be there. The stack is not
// usable for page loads afterwards.
func (st *stack) audit() (auditReport, error) {
	var rep auditReport
	st.genie.FlushInvalidations()
	nBookmarks, err := st.db.NumRows("bookmarks")
	if err != nil {
		return rep, err
	}
	for _, co := range st.genie.Objects() {
		byBookmark, mkVals, err := keyDomain(co.Spec())
		if err != nil {
			return rep, err
		}
		n := st.data.Users
		if byBookmark {
			n = nBookmarks
		}
		for id := int64(1); id <= int64(n); id++ {
			if !byBookmark && id > auditHotUsers && id%auditStride != 0 {
				continue
			}
			if err := st.auditKey(&rep, co, mkVals(id)); err != nil {
				return rep, err
			}
		}
	}
	if st.w.Durable {
		if err := st.auditDurable(&rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// keyDomain says which ids a cached object is keyed by and how to build its
// lookup values from one. It fails on a field it does not know, so a new
// cached object cannot silently escape the audit.
func keyDomain(spec core.Spec) (byBookmark bool, mk func(id int64) []sqldb.Value, err error) {
	var parts []func(id int64) sqldb.Value
	for _, f := range spec.WhereFields {
		switch {
		case f == "status":
			parts = append(parts, func(int64) sqldb.Value { return sqldb.Str("pending") })
		case f == "username":
			parts = append(parts, func(id int64) sqldb.Value { return sqldb.Str(fmt.Sprintf("user%d", id)) })
		case f == "bookmark_id" || f == "id" && spec.MainModel == "Bookmark":
			byBookmark = true
			parts = append(parts, sqldb.I64)
		case f == "id" || f == "user_id" || f == "from_user_id" || f == "to_user_id":
			parts = append(parts, sqldb.I64)
		default:
			return false, nil, fmt.Errorf("audit: cached object %s is keyed by unknown field %q", spec.Name, f)
		}
	}
	return byBookmark, func(id int64) []sqldb.Value {
		vals := make([]sqldb.Value, len(parts))
		for i, p := range parts {
			vals[i] = p(id)
		}
		return vals
	}, nil
}

// auditKey compares one cached entry with the database.
func (st *stack) auditKey(rep *auditReport, co *core.CachedObject, vals []sqldb.Value) error {
	spec := co.Spec()
	hitsBefore := st.genie.Stats().Hits
	var gotCount int64
	var gotRows []sqldb.Row
	var err error
	if spec.Class == core.CountQuery {
		gotCount, err = co.Count(vals...)
	} else {
		gotRows, err = co.Rows(vals...)
	}
	if err != nil {
		return fmt.Errorf("audit: %s: %w", spec.Name, err)
	}
	if st.genie.Stats().Hits == hitsBefore {
		return nil // not cached: the value just came from the database
	}
	rep.Checked++
	rs, err := st.db.Query(co.QueryTemplate(), vals...)
	if err != nil {
		return fmt.Errorf("audit: %s: %w", spec.Name, err)
	}
	key := co.MakeKey(vals...)
	switch spec.Class {
	case core.CountQuery:
		if want := rs.Rows[0][0].I; gotCount != want {
			rep.violate("%s: cached count %d, database %d", key, gotCount, want)
		}
	case core.TopKQuery:
		// The template fetches K plus the reserve; the object serves K.
		want := rs.Rows
		if len(want) > spec.K {
			want = want[:spec.K]
		}
		if !slices.Equal(encodeRows(gotRows), encodeRows(want)) {
			rep.violate("%s: cached top-%d differs from database", key, spec.K)
		}
	default:
		// Row sets keyed by primary key: a link query's join repeats a row
		// once per duplicate friendship, the cached list holds it once.
		got, want := rowSet(gotRows), rowSet(rs.Rows)
		if !maps.Equal(got, want) {
			rep.violate("%s: cached %d rows, database %d rows, contents differ", key, len(got), len(want))
		}
	}
	return nil
}

// rowSet maps primary key (column 0) to the encoded row.
func rowSet(rows []sqldb.Row) map[int64]string {
	out := make(map[int64]string, len(rows))
	for _, r := range rows {
		out[r[0].I] = string(sqldb.EncodeRow(nil, r))
	}
	return out
}

func encodeRows(rows []sqldb.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(sqldb.EncodeRow(nil, r))
	}
	return out
}

// auditDurable crashes the database (unflushed WAL writes are discarded),
// recovers from the same directory and checks every acknowledged insert.
func (st *stack) auditDurable(rep *auditReport) error {
	st.db.Crash()
	db, err := sqldb.Open(sqldb.Config{DataDir: st.dataDir})
	if err != nil {
		return fmt.Errorf("audit: reopening %s: %w", st.dataDir, err)
	}
	defer db.Crash()
	rep.Recovery = db.Recovery()
	for table, ids := range st.conn.acked {
		rs, err := db.Query("SELECT id FROM " + table)
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		have := make(map[int64]bool, len(rs.Rows))
		for _, r := range rs.Rows {
			have[r[0].I] = true
		}
		for _, id := range ids {
			rep.Checked++
			if !have[id] {
				rep.violate("%s id %d was acknowledged but is missing after crash recovery", table, id)
			}
		}
	}
	return nil
}
